"""Empirical Fourier-coefficient data for rational eigenforms.

Three sources feed the congruence machinery: q-expansions (the discriminant
form delta = eta^24, or a_n read from a JSON-lines form file), point counting
on rational elliptic curves over F_p, and curve models ingested from a
JSON-lines fixture file.  Everything here is finite and exact; no floating
point, no external tables at runtime.

A q-expansion is one coefficient column indexed by exponent, reduced mod m
or exact (m = 0).  delta comes from Jacobi's identity eta^3 = sum (-1)^n
(2n+1) q^(n(n+1)/2 + 1/8): eta^24 = (eta^3)^8 is seven products of a sparse
series with about sqrt(2T) terms into a dense one, so tau(n) for n <= T costs
O(T^1.5) instead of the O(T^2) of dense convolution.  Every product is
reduced mod m, in int64 while the bound allows it and in Python integers
otherwise (and for m = 0).

The a_p of one or several curves come from one kernel call over all their
good primes: a character sum for p <= 229, and above that a baby-step
giant-step search (Shanks-Mestre) with one numpy lane per curve and prime,
O(p^(1/4)) point operations each, exact by Mestre's theorem.  Steps match in
affine coordinates after one batched inversion per lane, and p < 2^20 keeps
every product of three residues inside int64.  A pass runs its lanes in
chunks whose baby rows, giant rows, inversion prefix and match cube stay
within _CHUNK_BYTES (2 MiB); a lane's surviving candidates are a few sorted
codes, never a row of the Hasse interval, and the lanes that their first
point leaves undecided retry together, so a later pass serves every chunk.

An ApDataset keeps its samples as two read-only int64 columns, p and a, so
discovery and verification work on whole arrays.  A curve is point counted
once per prime into an exact dataset (ell = 0), which reduce(ell) turns into
the data mod each ell.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .ffield import factorize, is_int, is_prime
from .matgrp import unique_codes

POINT_COUNT_GUARD = 10 ** 6


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


# ---------------------------------------------------------------------------
# truncated q-series over Z/m


@dataclass(frozen=True, eq=False)
class QSeries:
    """The q-expansion sum a_n q^n to q^T of the cusp form labelled label,
    of weight and level at least 1, with coefficients in Z/m.

    coeffs is one read-only column indexed by exponent, coeffs[n] = a_n for
    n <= T with coeffs[0] = 0: int64, or object when int64 cannot hold the
    values.  m = 0 means exact integer coefficients.
    """

    label: str
    weight: int
    level: int
    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        for key, v in (("weight", self.weight), ("level", self.level)):
            if v < 1:
                raise ValueError(f"{key!r} must be at least 1, got {v}")
        c = self.coeffs
        if self.m < 0:
            raise ValueError("modulus must be nonnegative")
        if c.ndim != 1 or c.dtype not in (np.int64, object):
            raise ValueError("coefficients must be one int64 or object column")
        if c.size < 2 or c[0] != 0:
            raise ValueError("expected 0, a_1, ... with at least a_1")
        if self.m and (c.min() < 0 or c.max() >= self.m):
            raise ValueError("coefficients not reduced mod m")
        c.flags.writeable = False


def delta_coeffs(T: int, m: int = 0) -> QSeries:
    """The series "delta" of weight 12 and level 1: tau(n) for n <= T, mod m,
    as q * S^8 with S = sum (-1)^n (2n+1) q^(n(n+1)/2).

    S is eta^3 without its q^(1/8), so q S^8 = eta^24.  Each of the seven
    products adds about sqrt(2T) shifted copies of the dense factor.
    """
    if T < 1:
        raise ValueError("truncation must cover tau(1)")
    # S has a term for each of the N values n with n(n + 1)/2 < T, and a
    # product coefficient sums |c| (m - 1) = (2n + 1)(m - 1) over them,
    # N^2 (m - 1) at most, and each reduction holds m itself: size the
    # column before building any term
    N = (math.isqrt(8 * T - 7) + 1) // 2
    dtype = np.int64 if 0 < m < 2 ** 63 and N * N * (m - 1) < 2 ** 63 else object
    qs = np.zeros(T + 1, dtype=dtype)  # q S, so index n holds the q^n term
    terms = [(n * (n + 1) // 2, -(2 * n + 1) if n % 2 else 2 * n + 1) for n in range(N)]
    for e, c in terms:
        qs[e + 1] = c
    dense = qs % m if m else qs
    for _ in range(7):
        out = np.zeros(T + 1, dtype=dtype)
        for e, c in terms:
            out[e:] += c * dense[: T + 1 - e]
        dense = out % m if m else out
    return QSeries("delta", 12, 1, m, dense)


# ---------------------------------------------------------------------------
# elliptic curves over Q and their point counts


@dataclass(frozen=True)
class EllipticCurve:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Models need not be minimal; the fixture file ships integral models whose
    discriminant support equals the conductor support, which is all the good
    prime filtering requires.
    """

    label: str
    a: tuple[int, int, int, int, int]
    conductor: int

    def __post_init__(self):
        if len(self.a) != 5:
            raise ValueError("expected (a1, a2, a3, a4, a6)")
        if self.conductor < 1:
            raise ValueError("conductor must be positive")
        if self.discriminant == 0:
            raise ValueError("singular model")

    @cached_property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = b2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @cached_property
    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants
        return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6

    @cached_property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def has_good_reduction(self, p: int) -> bool:
        return self.discriminant % p != 0 and self.conductor % p != 0


# Mestre: for p > 229 a point of E or of its quadratic twist has an order
# with a single multiple in the Hasse interval (Schoof 1995, section 3)
_MESTRE_MIN_P = 229
# bytes of per-lane arrays that one kernel pass may hold (see _lane_bytes)
_CHUNK_BYTES = 2 << 20
# below this a product of three residues stays under 2^60, inside int64
_KERNEL_P_LIMIT = 1 << 20


def _ap_kernel(curves: list[EllipticCurve], c: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """a_p of curves[c[i]] at the good prime ps[i] <= POINT_COUNT_GUARD, for
    int64 columns c and ps.

    Primes up to 229 take a character sum each.  Above it the lanes of every
    curve, each with its own model, join one baby-step giant-step search
    (Shanks-Mestre) in ascending p.
    """
    order = np.argsort(ps, kind="stable")
    p, c = np.asarray(ps, dtype=np.int64)[order], np.asarray(c)[order]
    ap = np.empty(len(p), dtype=np.int64)
    lo = int(np.searchsorted(p, _MESTRE_MIN_P, side="right"))
    ap[:lo] = [_ap_char_sum(curves[i], q) for i, q in zip(c[:lo].tolist(), p[:lo].tolist())]
    if lo < len(p):
        # each curve's short model y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6
        AB = [(-27 * c4, -54 * c6) for c4, c6 in (E.c_invariants for E in curves)]
        n = len(p) - lo
        A, B = (np.fromiter((AB[i][k] % q for i, q in zip(c[lo:].tolist(), p[lo:].tolist())),
                            np.int64, n) for k in (0, 1))
        # Hasse: |a_p| <= w = floor(2 sqrt(p))
        w = np.fromiter((math.isqrt(4 * q) for q in p[lo:].tolist()), np.int64, n)
        ap[lo:] = _shanks_mestre(A, B, p[lo:], w)
    return ap[np.argsort(order)]


def _ap_char_sum(E: EllipticCurve, p: int) -> int:
    """a_p by direct counting: brute force for p <= 3, else the quadratic
    character sum over the completed square."""
    if p <= 3:
        a1, a2, a3, a4, a6 = (x % p for x in E.a)
        affine = sum((y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0
                     for x in range(p) for y in range(p))
        return p + 1 - (affine + 1)
    b2, b4, b6, _ = E.b_invariants
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    half = xs[: (p + 1) // 2]
    chi[half * half % p] = 1
    chi[0] = 0
    # 4x^3 + b2 x^2 + 2 b4 x + b6 in Horner form with reduced coefficients
    # stays below 5 p^3, far inside int64 for p <= 229
    g = (((4 * xs + b2 % p) * xs + 2 * b4 % p) * xs + b6 % p) % p
    return -int(chi[g].sum(dtype=np.int64))


def _pass_shape(w: int) -> tuple[int, int, int]:
    """(m, span, giants) of a pass whose widest lane has Hasse width w: baby
    steps 0..m, giant stride span = 2m + 1 and enough giants to cover the
    2w + 1 interval cells."""
    m = math.isqrt(w) + 1
    span = 2 * m + 1
    return m, span, -(-(2 * w + 1) // span)


def _lane_bytes(w: int) -> int:
    """Bytes a lane costs in a pass whose widest lane has width w: a byte per
    cell of its giants x babies match cube, and eight per entry of its
    (3, m + 2) baby rows, its (3, giants) giant rows and the inversion prefix
    of the longer of the two."""
    m, _, giants = _pass_shape(w)
    return giants * (m + 1) + 8 * (3 * (m + 2) + 3 * giants + max(m + 2, giants))


def _chunks(cost: np.ndarray):
    """(lo, hi) slices of lanes in ascending width, cost[i] the bytes per
    lane of a pass whose widest lane is lane i: each slice is as long as
    _CHUNK_BYTES allows at its last lane, one lane at least."""
    lo = 0
    while lo < len(cost):
        # cost grows with width, so no more than this many lanes fit
        top = min(len(cost), lo + _CHUNK_BYTES // int(cost[lo]) + 1)
        held = np.arange(1, top - lo + 1) * cost[lo:top]
        hi = lo + max(1, int(np.searchsorted(held, _CHUNK_BYTES, side="right")))
        yield lo, hi
        lo = hi


def _shanks_mestre(A: np.ndarray, B: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a_p for ascending primes 229 < p < 2^20 (one lane each) on the models
    y^2 = x^3 + A x + B of the residue columns A and B, given
    w = floor(2 sqrt(p)).

    A lane keeps the candidates t in [-w, w] that every point _mestre_pass
    has tried on it allows, as the sorted codes lane * K + t + w with
    K = 2 max(w) + 1, and retires with one left.  The first pass runs on
    every lane, in chunks of at most _CHUNK_BYTES of per-lane arrays; the
    lanes that every chunk leaves undecided then retry together on their
    next x0, until none is left.
    """
    if (big := p >= _KERNEL_P_LIMIT).any():
        raise OverflowError(f"point count at p = {p[big][0]} would overflow int64 (p < 2^20)")
    K = 2 * int(w.max()) + 1
    widths = unique_codes(w)
    cost = np.array([_lane_bytes(v) for v in widths.tolist()], dtype=np.int64)
    cost = cost[np.searchsorted(widths, w)]
    ap = np.empty(len(p), dtype=np.int64)
    x0 = np.zeros(len(p), dtype=np.int64)
    live, kept = np.arange(len(p)), None  # before the first pass all of [-w, w]
    while live.size:
        undecided, survivors = [], []
        for lo, hi in _chunks(cost[live]):
            L = live[lo:hi]
            x0[L], row, off = _mestre_pass(A[L], B[L], p[L], w[L], x0[L])
            held = off <= 2 * w[L[row]]
            if kept is not None:  # and among the lane's candidates so far
                code = L[row] * K + off
                held &= kept[np.searchsorted(kept, code).clip(max=len(kept) - 1)] == code
            row, off = np.divmod(unique_codes((row * K + off)[held]), K)
            count = np.bincount(row, minlength=len(L))
            if not count.all():
                raise ArithmeticError(
                    f"point count lost every candidate at p = {p[L][count == 0][0]}")
            done = (count == 1)[row]
            ap[L[row[done]]] = off[done] - w[L[row[done]]]
            undecided.append(L[count > 1])
            survivors.append(L[row[~done]] * K + off[~done])
        live, kept = np.concatenate(undecided), np.concatenate(survivors)
        x0[live] += 1
    return ap


def _mestre_pass(A, B, p, w, x0):
    """One search per lane, on the first x >= x0 that is not a root of f:
    returns those x and the hits (row, t + w) of the candidates t that the
    lane's point allows, with repeats.

    For x0 with d = f(x0) != 0 the point (x0 d, d^2) lies on
    y^2 = x^3 + A d^2 x + B d^3, which is E when d is a square mod p and
    its quadratic twist otherwise, so no square root is needed.  Points are
    built projective (X : Y : Z), adding the affine step P or stride
    (2m + 1) P with Z = 1 where it can, and p < 2^20 keeps every product of
    three residues below 2^60.  The baby steps j P, j <= m, and the giant
    steps are then made affine by one batched inversion per lane, O written
    x = p, y = 0, so a giant matches a baby by one comparison.  A point on
    E allows the t with (p + 1 - t) P = O, a twist point those with
    (p + 1 + t) P = O.
    """
    m, span, giants = _pass_shape(int(w.max()))
    x = x0.copy()
    d = ((x * x + A) % p * x + B) % p
    while (root := d == 0).any():  # f has at most three roots
        x[root] += 1
        d[root] = ((x[root] * x[root] + A[root]) % p[root] * x[root] + B[root]) % p[root]
    if (x >= p).any():
        raise ArithmeticError(f"point count found no decisive point at p = {p[x >= p][0]}")
    dd = d * d % p
    a = A * dd % p
    # E lanes (d a square by Euler's criterion) walk the interval
    # downwards from p + 1 + w, twist lanes upwards from p + 1 - w, so
    # the hit at interval offset i is the candidate t = i - w in both
    sigma = np.where(_pow(d, (p - 1) // 2, p) == 1, -1, 1)
    step = (x * d % p, sigma * dd % p, None)
    # row j <= m of table is j P, row m + 1 the stride (2m + 1) P
    table = np.empty((3, m + 2, len(p)), dtype=np.int64)
    table[:, 0], table[:2, 1], table[2, 1] = _O(p), step[:2], 1
    for j in range(1, m):
        table[:, j + 1] = _ec_add(table[:, j], step, a, p)
    table[:, m + 1] = _ec_add(_ec_dbl(table[:, m], a, p), step, a, p)
    # the first giant c P = sigma (c step), c = p + 1 - sigma (w - m)
    first = _ec_mul(p + 1 - sigma * (w - m), table[:, : m + 1], a, p)
    bx, by, _ = _affine(table, p)
    stride, flat = (bx[m + 1], by[m + 1], None), np.flatnonzero(bx[m + 1] == p)
    giant = np.empty((3, giants, len(p)), dtype=np.int64)
    giant[:, 0] = first[0], sigma * first[1] % p, first[2]
    for k in range(1, giants):
        giant[:, k] = _ec_add(giant[:, k - 1], stride, a, p)
        if flat.size:  # a stride of O leaves the giant where it is
            giant[:, k, flat] = giant[:, k - 1, flat]
    gx, gy, _ = _affine(giant, p)
    k, j, lane = np.nonzero(gx[:, None] == bx[None, : m + 1])
    qy, ry, pj = gy[k, lane], by[j, lane], p[lane]
    # giant k = j step: hit at offset m - j; = -j step: at m + j.  Both
    # are recorded, so j step = O or of order 2 marks both offsets
    plus, minus = qy == ry, (qy + ry) % pj == 0
    return (x, np.concatenate((lane[plus], lane[minus])),
            np.concatenate((k[plus] * span + m - j[plus], k[minus] * span + m + j[minus])))


def _pow(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b^e mod p per lane, by square and multiply."""
    r = np.ones_like(b)
    while e.any():
        r = np.where(e & 1 == 1, r * b % p, r)
        b = b * b % p
        e = e >> 1
    return r


def _affine(P, p):
    """The projective rows P = (X, Y, Z), each shaped (n, lanes), made
    affine in place: X/Z and Y/Z in rows X and Y, O written x = p, y = 0.
    Montgomery's batched inversion inverts the n values Z of a lane with
    one Fermat power."""
    X, Y, Z = P
    inf = Z == 0
    Z[inf] = 1
    inv = np.empty_like(Z)  # first the prefix products Z_0 ... Z_(i - 1)
    run = np.ones_like(p)
    for i in range(len(Z)):
        inv[i] = run
        run = run * Z[i] % p
    run = _pow(run, p - 2, p)
    for i in reversed(range(len(Z))):
        inv[i] = inv[i] * run % p
        run = run * Z[i] % p
    for t in (X, Y):
        t *= inv
        t %= p
    np.copyto(X, p, where=inf)
    Y[inf] = 0
    return P


# projective points (X : Y : Z) on y^2 = x^3 + a x + b, one lane per prime;
# b never enters the formulas, and p < 2^20 lets a product of three
# residues go unreduced


def _O(p: np.ndarray):
    return (np.zeros_like(p), np.ones_like(p), np.zeros_like(p))


def _pick(mask, P, Q):
    return tuple(np.where(mask, s, t) for s, t in zip(P, Q))


def _ec_dbl(P, a, p):
    X, Y, Z = P
    w = (a * Z % p * Z + 3 * X * X) % p
    s = Y * Z % p
    B = X * Y * s % p
    h = (w * w - 8 * B) % p
    ss = s * s % p
    R = (2 * h * s % p, (w * (4 * B - h) - 8 * (Y * Y % p) * ss) % p, 8 * ss * s % p)
    inf = s == 0  # 2P = O for P = O or P of order 2
    return _pick(inf, _O(p), R) if inf.any() else R


def _ec_add(P, Q, a, p):
    """P + Q; a Q with Z = None is affine and not O, which saves the
    products by Z2 (mixed addition)."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    x1, y1, zz = (X1, Y1, Z1) if Z2 is None else (X1 * Z2 % p, Y1 * Z2 % p, Z1 * Z2 % p)
    u = (Y2 * Z1 - y1) % p
    v = (X2 * Z1 - x1) % p
    vv = v * v % p
    vvv = vv * v % p
    r = vv * x1 % p
    A = (u * u * zz - vvv - 2 * r) % p
    R = (v * A % p, (u * (r - A) - vvv * y1) % p, vvv * zz % p)
    same_x = v == 0  # P = +-Q, or P or Q is O
    if same_x.any():
        R = _pick(same_x, _O(p), R)
        # double only the lanes with P = Q
        t = np.flatnonzero(same_x & (u == 0) & (Z1 != 0) & (Z2 != 0))
        for out, twice in zip(R, _ec_dbl(tuple(c[t] for c in P), a[t], p[t]) if t.size else ()):
            out[t] = twice
        R = _pick(Z1 == 0, (X2, Y2, 1 if Z2 is None else Z2), R)
        if Z2 is not None:
            R = _pick(Z2 == 0, P, R)
    return R


def _ec_mul(c, table, a, p):
    """c T per lane, in windows of b bits whose multiples j T, j < 2^b, are
    read from the rows of table."""
    b = len(table[0]).bit_length() - 1
    rows = np.arange(len(p))
    R = None
    for shift in range(b * ((int(c.max()).bit_length() - 1) // b), -1, -b):
        T = tuple(t[(c >> shift) & ((1 << b) - 1), rows] for t in table)
        if R is None:
            R = T
            continue
        for _ in range(b):
            R = _ec_dbl(R, a, p)
        R = _ec_add(R, T, a, p)
    return R


# ---------------------------------------------------------------------------
# datasets of reduced a_p samples


@dataclass(frozen=True, eq=False)
class ApDataset:
    """Ordered (p, a_p mod ell) samples for the good primes of one form.

    The samples live in two read-only int64 columns: p, strictly increasing
    and coprime to level * ell, and a, reduced mod ell.  ell = 0 keeps exact
    a_p.  `pairs` is a sequence of (p, a) pairs or an (n, 2) integer array.
    """

    label: str
    level: int
    ell: int
    pairs: InitVar[object]
    p: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, pairs):
        cols = np.asarray(pairs) if isinstance(pairs, np.ndarray) else np.array(pairs, dtype=object)
        if cols.size == 0:
            cols = np.empty((0, 2), dtype=np.int64)
        if cols.ndim != 2 or cols.shape[1] != 2:
            raise ValueError("samples must be (p, a) pairs")
        if cols.dtype == object:  # a sequence, or Python ints past int64
            stray = next((v for v in cols.flat if isinstance(v, (bool, np.bool_))
                          or not isinstance(v, (int, np.integer))), None)
            if stray is not None:
                raise ValueError(f"samples must be integers, got {stray!r}")
            try:
                cols = cols.astype(np.int64)
            except OverflowError:
                raise ValueError("sample beyond int64") from None
        elif cols.dtype.kind not in "iu":
            raise ValueError(f"samples must be integers, got {cols.dtype} values")
        elif cols.dtype.kind == "u" and cols.max() >= 2 ** 63:
            raise ValueError("sample beyond int64")
        # check the columns as views, then keep copies that no caller holds
        p, a = cols[:, 0], cols[:, 1]
        if len(p) and (p[0] <= 1 or np.any(p[1:] <= p[:-1])):
            raise ValueError("sample points must be strictly increasing")
        n = self.level * self.ell if self.ell else self.level
        bad = np.gcd(p if n < 2 ** 63 else p.astype(object), n) != 1
        if bad.any():
            raise ValueError(f"sample at bad prime {p[bad.argmax()]}")
        if self.ell and np.any((a < 0) | (a >= self.ell)):
            raise ValueError("sample value not reduced")
        p, a = p.astype(np.int64), a.astype(np.int64)
        p.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    def __len__(self) -> int:
        return len(self.p)

    def attained(self) -> list[int]:
        """The distinct sample values, ascending."""
        return unique_codes(self.a).tolist()

    def csv(self) -> str:
        return "p,ap_mod\n" + "".join(
            f"{p},{r}\n" for p, r in zip(self.p.tolist(), self.a.tolist()))

    def reduce(self, ell: int) -> "ApDataset":
        """The samples mod ell, dropping the p that share a factor with ell."""
        if not 0 < ell < 2 ** 63:
            raise ValueError("reduction modulus must be a positive int64")
        if self.ell and self.ell % ell:
            raise ValueError(f"cannot reduce mod {ell} from mod {self.ell}")
        keep = np.gcd(self.p, ell) == 1
        cols = np.column_stack((self.p[keep], self.a[keep] % ell))
        return ApDataset(self.label, self.level, ell, cols)


def curve_datasets(curves: list[EllipticCurve], p_max: int) -> list[ApDataset]:
    """Exact a_p (ell = 0) of each curve at its primes p <= p_max of good
    reduction, labelled by the curve at its conductor: one point count per
    curve and prime, all in one kernel pass.  A good prime past
    POINT_COUNT_GUARD raises ValueError before any sieving."""
    for E in curves:
        past = next((p for p in range(POINT_COUNT_GUARD + 1, p_max + 1)
                     if is_prime(p) and E.has_good_reduction(p)), None)
        if past is not None:
            raise ValueError(f"point counting guard exceeded at {past}")
    primes = np.array(primes_upto(p_max), dtype=np.int64)
    ps = [primes[[E.has_good_reduction(p) for p in primes.tolist()]] for E in curves]
    sizes = [len(q) for q in ps]
    ap = _ap_kernel(curves, np.repeat(np.arange(len(curves)), sizes),
                    np.concatenate([np.empty(0, dtype=np.int64), *ps]))
    return [ApDataset(E.label, E.conductor, 0, np.column_stack((q, a)))
            for E, q, a in zip(curves, ps, np.split(ap, np.cumsum(sizes)[:-1]))]


def curve_dataset(E: EllipticCurve, p_max: int) -> ApDataset:
    """The one-curve case of curve_datasets."""
    return curve_datasets([E], p_max)[0]


def check_ell(ell: int) -> None:
    """ValueError unless the residue characteristic ell is prime."""
    if not is_prime(ell):
        raise ValueError(f"residue characteristic {ell} is not prime")


def build_dataset(source: EllipticCurve | QSeries, ell: int, p_max: int) -> ApDataset:
    """Samples (p, a_p mod ell) for all good primes p <= p_max, labelled by
    the source at its level: a curve's conductor or a series' level."""
    check_ell(ell)
    if isinstance(source, EllipticCurve):
        return curve_dataset(source, p_max).reduce(ell)
    if not isinstance(source, QSeries):
        raise TypeError(f"unsupported source {type(source).__name__}")
    if source.m and source.m % ell:
        raise ValueError(f"series mod {source.m} cannot produce data mod {ell}")
    top = len(source.coeffs) - 1
    ps = np.array([p for p in primes_upto(min(p_max, top)) if (source.level * ell) % p],
                  dtype=np.int64)
    return ApDataset(source.label, source.level, ell,
                     np.column_stack((ps, source.coeffs[ps] % ell)))


# ---------------------------------------------------------------------------
# fixture ingestion


def _record(line: str) -> dict:
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError(f"record {line.strip()!r:.60} is not a JSON object")
    return rec


def _field(rec: dict, key: str, kind: type):
    """rec[key], which must be a str, an int or a list of ints; an int is
    never a bool or a float, so nothing is truncated or read as 1."""
    if key not in rec:
        raise ValueError(f"record lacks {key!r}")
    v = rec[key]
    if kind is str:
        ok = isinstance(v, str)
    elif kind is int:
        ok = is_int(v)
    else:
        ok = isinstance(v, list) and all(map(is_int, v))
    if not ok:
        want = {str: "a string", int: "an int", list: "a list of ints"}[kind]
        raise ValueError(f"{key!r} must be {want}, got {v!r:.60}")
    return v


def _parse_curve(rec: dict) -> EllipticCurve:
    E = EllipticCurve(_field(rec, "label", str), tuple(_field(rec, "a", list)),
                      _field(rec, "conductor", int))
    # checksum: bad primes of the model are exactly the level's support, and
    # the label's numeric prefix agrees with the stated conductor
    if set(factorize(E.discriminant)) != set(factorize(E.conductor)):
        raise ValueError(f"{E.label}: discriminant support differs from level")
    head = ""
    for ch in E.label:
        if ch.isdigit():
            head += ch
        else:
            break
    if not head or int(head) != E.conductor:
        raise ValueError(f"{E.label}: label prefix disagrees with conductor")
    return E


def _records(lines, parse) -> dict:
    """JSON-lines records by label, each parsed by parse; blank lines are
    skipped and a label given twice raises ValueError."""
    out = {}
    for line in lines:
        if line.strip():
            rec = _record(line)
            label = _field(rec, "label", str)
            if label in out:
                raise ValueError(f"duplicate label {label!r}")
            out[label] = parse(rec)
    return out


def load_curve_file(path) -> dict[str, EllipticCurve]:
    """Curves by label from a JSON-lines file of {"label", "a", "conductor"}."""
    with open(path, encoding="utf-8") as fh:
        return _records(fh, _parse_curve)


def curve_fixtures() -> dict[str, EllipticCurve]:
    """The packaged curve models behind the worked examples."""
    ref = resources.files(__package__) / "data" / "curves.jsonl"
    return _records(ref.read_text(encoding="utf-8").splitlines(), _parse_curve)


def _parse_form(rec: dict) -> QSeries:
    weight, level = _field(rec, "weight", int), _field(rec, "level", int)
    coeffs = [0] + _field(rec, "coeffs", list)
    try:
        column = np.array(coeffs, dtype=np.int64)
    except OverflowError:
        column = np.array(coeffs, dtype=object)
    return QSeries(_field(rec, "label", str), weight, level, 0, column)


def load_form_file(path) -> dict[str, QSeries]:
    """Exact series by label from a JSON-lines file of {"label", "weight",
    "level", "coeffs"}, coeffs listing a_1, a_2, ...  A level or weight
    below 1, or a label given twice, raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        return _records(fh, _parse_form)
