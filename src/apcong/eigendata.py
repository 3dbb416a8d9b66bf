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

A curve's a_p come from one kernel for all its good primes at once: a
character sum for p <= 229, and above that a baby-step giant-step search
(Shanks-Mestre) with one numpy lane per prime, O(p^(1/4)) point operations
each, exact by Mestre's theorem.

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
    """The q-expansion sum a_n q^n of a cusp form to q^T, coefficients in Z/m.

    coeffs is one read-only column indexed by exponent, coeffs[n] = a_n for
    n <= T with coeffs[0] = 0: int64, or object when int64 cannot hold the
    values.  m = 0 means exact integer coefficients.
    """

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
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
    """tau(n) for n <= T, as q * S^8 with S = sum (-1)^n (2n+1) q^(n(n+1)/2).

    S is eta^3 without its q^(1/8), so q S^8 = eta^24.  Each of the seven
    products adds about sqrt(2T) shifted copies of the dense factor.
    """
    if T < 1:
        raise ValueError("truncation must cover tau(1)")
    # S has a term for each of the N values n with n(n + 1)/2 < T, and a
    # product coefficient sums |c| (m - 1) = (2n + 1)(m - 1) over them,
    # N^2 (m - 1) at most: size the column before building any term
    N = (math.isqrt(8 * T - 7) + 1) // 2
    dtype = np.int64 if m and N * N * (m - 1) < 2 ** 63 else object
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
    return QSeries(m, dense)


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
# lanes x Hasse-interval cells per chunk, which bounds the kernel's arrays
_CHUNK_CELLS = 1 << 20


def _ap_kernel(E: EllipticCurve, ps: np.ndarray) -> np.ndarray:
    """a_p for an ascending int64 array of good primes <= POINT_COUNT_GUARD.

    Primes up to 229 take a character sum each.  Above it the primes are
    numpy lanes of one baby-step giant-step search (Shanks-Mestre), in
    chunks of at most _CHUNK_CELLS lanes x interval cells.
    """
    ps = np.asarray(ps, dtype=np.int64)
    ap = np.empty(len(ps), dtype=np.int64)
    lo = int(np.searchsorted(ps, _MESTRE_MIN_P, side="right"))
    ap[:lo] = [_ap_char_sum(E, p) for p in ps[:lo].tolist()]
    # Hasse: |a_p| <= w = floor(2 sqrt(p))
    w = np.fromiter((math.isqrt(4 * p) for p in ps.tolist()), np.int64, len(ps))
    while lo < len(ps):
        # widths grow with p, so the last lane of a chunk is its widest
        n = np.arange(1, min(len(ps) - lo, _CHUNK_CELLS // (2 * int(w[lo]) + 1)) + 1)
        cells = n * (2 * w[lo : lo + len(n)] + 1)
        hi = lo + max(1, int(np.searchsorted(cells, _CHUNK_CELLS, side="right")))
        ap[lo:hi] = _shanks_mestre(E, ps[lo:hi], w[lo:hi])
        lo = hi
    return ap


def _ap_char_sum(E: EllipticCurve, p: int) -> int:
    """a_p by direct counting: brute force for p <= 3, else the quadratic
    character sum over the completed square."""
    if p <= 3:
        a1, a2, a3, a4, a6 = (x % p for x in E.a)
        affine = sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0
        )
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


def _shanks_mestre(E: EllipticCurve, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a_p for primes p > 229 (one lane each) on the model
    y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6, given w = floor(2 sqrt(p)).

    For x0 with d = f(x0) != 0 the point (x0 d, d^2) lies on
    y^2 = x^3 + A d^2 x + B d^3, which is E when d is a square mod p and
    its quadratic twist otherwise, so no square root is needed.  Points are
    projective (X : Y : Z) and every product is of two residues, below
    p^2 < 2^62.  Each lane keeps the candidates t in [-w, w] at index
    t + w; a point on E keeps those with (p + 1 - t) P = O, a twist point
    those with (p + 1 + t) P = O.  A lane retires with one candidate left
    and otherwise tries the next x0.
    """
    c4, c6 = E.c_invariants
    A, B = _residues(-27 * c4, p), _residues(-54 * c6, p)
    m = math.isqrt(int(w.max())) + 1  # baby steps 0..m, giant stride 2m + 1
    span = 2 * m + 1
    giants = -(-(2 * int(w.max()) + 1) // span)
    cand = np.arange(giants * span) <= 2 * w[:, None]
    ap = np.empty(len(p), dtype=np.int64)
    x0 = np.zeros(len(p), dtype=np.int64)
    live = np.arange(len(p))
    while live.size:
        pl, x = p[live], x0[live]
        d = ((x * x + A[live]) % pl * x + B[live]) % pl
        while (root := d == 0).any():  # f has at most three roots
            x[root] += 1
            d[root] = ((x[root] * x[root] + A[live[root]]) % pl[root] * x[root]
                       + B[live[root]]) % pl[root]
        if (x >= pl).any():
            raise ArithmeticError(
                f"point count found no decisive point at p = {pl[x >= pl][0]}")
        dd = d * d % pl
        a = A[live] * dd % pl
        # E lanes (d a square) walk the interval downwards from p + 1 + w,
        # twist lanes upwards from p + 1 - w, so the hit at interval offset
        # i is the candidate t = i - w in both cases
        sigma = np.where(_is_square(d, pl), -1, 1)
        step = (x * d % pl, sigma * dd % pl, np.ones_like(pl))
        baby = [_O(pl), step]
        for _ in range(m - 1):
            baby.append(_ec_add(baby[-1], step, a, pl))
        stride = _ec_add(_ec_dbl(baby[-1], a, pl), step, a, pl)
        BX, BY, BZ = (np.stack(c, axis=1) for c in zip(*baby))
        # the first giant c P = sigma (c step), c = p + 1 - sigma (w - m)
        first = _ec_mul(p[live] + 1 - sigma * (w[live] - m), (BX, BY, BZ), a, pl)
        Q = (first[0], sigma * first[1] % pl, first[2])
        pc = pl[:, None]
        hits = np.zeros((live.size, giants * span), dtype=bool)
        for k in range(giants):
            QX, QY, QZ = Q
            lane, j = np.nonzero((QX[:, None] * BZ - BX * QZ[:, None]) % pc == 0)
            pj = pl[lane]
            qy, by = QY[lane] * BZ[lane, j] % pj, BY[lane, j] * QZ[lane] % pj
            # Q = j step: hit at offset m - j; Q = -j step: at m + j.  Both
            # are recorded, so j step = O or of order 2 marks both offsets
            plus, minus = qy == by, (qy + by) % pj == 0
            hits[lane[plus], k * span + m - j[plus]] = True
            hits[lane[minus], k * span + m + j[minus]] = True
            if k + 1 < giants:
                Q = _ec_add(Q, stride, a, pl)
        c = cand[live] & hits
        count = c.sum(axis=1)
        if not count.all():
            raise ArithmeticError(
                f"point count lost every candidate at p = {pl[count == 0][0]}")
        done = count == 1
        ap[live[done]] = c[done].argmax(axis=1) - w[live[done]]
        cand[live] = c
        x0[live] = x + 1
        live = live[~done]
    return ap


def _residues(n: int, p: np.ndarray) -> np.ndarray:
    """n mod each lane's prime, for an integer n of any size."""
    return np.fromiter((n % q for q in p.tolist()), np.int64, len(p))


def _is_square(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Euler's criterion d^((p - 1) / 2) = 1 mod p, per lane, for d != 0."""
    e = (p - 1) // 2
    r, b = np.ones_like(d), d.copy()
    while e.any():
        r = np.where(e & 1 == 1, r * b % p, r)
        b = b * b % p
        e = e >> 1
    return r == 1


# projective points (X : Y : Z) on y^2 = x^3 + a x + b, one lane per prime;
# b never enters the formulas


def _O(p: np.ndarray):
    return (np.zeros_like(p), np.ones_like(p), np.zeros_like(p))


def _pick(mask, P, Q):
    return tuple(np.where(mask, s, t) for s, t in zip(P, Q))


def _ec_dbl(P, a, p):
    X, Y, Z = P
    w = (a * (Z * Z % p) + 3 * (X * X % p)) % p
    s = Y * Z % p
    B = X * Y % p * s % p
    h = (w * w - 8 * B) % p
    ss = s * s % p
    R = (2 * h * s % p,
         (w * ((4 * B - h) % p) - 8 * (Y * Y % p) * ss) % p,
         8 * ss * s % p)
    inf = s == 0  # 2P = O for P = O or P of order 2
    return _pick(inf, _O(p), R) if inf.any() else R


def _ec_add(P, Q, a, p):
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    u = (Y2 * Z1 - Y1 * Z2) % p
    v = (X2 * Z1 - X1 * Z2) % p
    vv = v * v % p
    vvv = vv * v % p
    zz = Z1 * Z2 % p
    r = vv * (X1 * Z2 % p) % p
    A = (u * u % p * zz - vvv - 2 * r) % p
    R = (v * A % p, (u * (r - A) - vvv * (Y1 * Z2 % p)) % p, vvv * zz % p)
    same_x = v == 0  # P = +-Q, or P or Q is O
    if same_x.any():
        R = _pick(same_x, _O(p), R)
        tangent = same_x & (u == 0) & (Z1 != 0) & (Z2 != 0)
        if tangent.any():
            R = _pick(tangent, _ec_dbl(P, a, p), R)
        R = _pick(Z2 == 0, P, _pick(Z1 == 0, Q, R))
    return R


def _ec_mul(c, table, a, p):
    """c T per lane, in windows of b bits whose multiples j T, j < 2^b, are
    read from the columns of table."""
    b = table[0].shape[1].bit_length() - 1
    rows = np.arange(len(p))
    R = None
    for shift in range(b * ((int(c.max()).bit_length() - 1) // b), -1, -b):
        T = tuple(t[rows, (c >> shift) & ((1 << b) - 1)] for t in table)
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
        try:
            cols = np.array(pairs, dtype=np.int64)
        except OverflowError:
            raise ValueError("sample beyond int64") from None
        if cols.size == 0:
            cols = cols.reshape(0, 2)
        if cols.ndim != 2 or cols.shape[1] != 2:
            raise ValueError("samples must be (p, a) pairs")
        p, a = cols[:, 0].copy(), cols[:, 1].copy()
        if len(p) and (p[0] <= 1 or np.any(p[1:] <= p[:-1])):
            raise ValueError("sample points must be strictly increasing")
        n = self.level * self.ell if self.ell else self.level
        bad = np.gcd(p if n < 2 ** 63 else p.astype(object), n) != 1
        if bad.any():
            raise ValueError(f"sample at bad prime {p[bad.argmax()]}")
        if self.ell and np.any((a < 0) | (a >= self.ell)):
            raise ValueError("sample value not reduced")
        p.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    def __len__(self) -> int:
        return len(self.p)

    @property
    def samples(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.p.tolist(), self.a.tolist()))

    def attained(self) -> list[int]:
        """The distinct sample values, ascending."""
        return unique_codes(self.a).tolist()

    def csv(self) -> str:
        lines = ["p,ap_mod"]
        lines += [f"{p},{r}" for p, r in self.samples]
        return "\n".join(lines) + "\n"

    def reduce(self, ell: int) -> "ApDataset":
        """The samples mod ell, dropping the p that share a factor with ell."""
        if not 0 < ell < 2 ** 63:
            raise ValueError("reduction modulus must be a positive int64")
        if self.ell and self.ell % ell:
            raise ValueError(f"cannot reduce mod {ell} from mod {self.ell}")
        keep = np.gcd(self.p, ell) == 1
        cols = np.column_stack((self.p[keep], self.a[keep] % ell))
        return ApDataset(self.label, self.level, ell, cols)


def curve_dataset(E: EllipticCurve, p_max: int) -> ApDataset:
    """Exact a_p (ell = 0) for the primes p <= p_max of good reduction,
    one point count each, labelled by the curve at its conductor.  A good
    prime past POINT_COUNT_GUARD raises ValueError before any sieving."""
    past = next((p for p in range(POINT_COUNT_GUARD + 1, p_max + 1)
                 if is_prime(p) and E.has_good_reduction(p)), None)
    if past is not None:
        raise ValueError(f"point counting guard exceeded at {past}")
    ps = np.array([p for p in primes_upto(p_max) if E.has_good_reduction(p)], dtype=np.int64)
    return ApDataset(E.label, E.conductor, 0, np.column_stack((ps, _ap_kernel(E, ps))))


def check_ell(ell: int) -> None:
    """ValueError unless the residue characteristic ell is prime."""
    if not is_prime(ell):
        raise ValueError(f"residue characteristic {ell} is not prime")


def build_dataset(
    source: EllipticCurve | QSeries,
    ell: int,
    p_max: int,
    *,
    level: int | None = None,
    label: str | None = None,
) -> ApDataset:
    """Samples (p, a_p mod ell) for all good primes p <= p_max.  A curve
    gives its own conductor and label; a q-series needs both."""
    check_ell(ell)
    if isinstance(source, EllipticCurve):
        if level is not None or label is not None:
            raise ValueError("a curve source takes its level and label from the curve")
        return curve_dataset(source, p_max).reduce(ell)
    if not isinstance(source, QSeries):
        raise TypeError(f"unsupported source {type(source).__name__}")
    if level is None or label is None:
        raise ValueError("q-series sources need explicit level and label")
    if source.m and source.m % ell:
        raise ValueError(f"series mod {source.m} cannot produce data mod {ell}")
    top = len(source.coeffs) - 1
    ps = np.array([p for p in primes_upto(min(p_max, top)) if (level * ell) % p],
                  dtype=np.int64)
    return ApDataset(label, level, ell, np.column_stack((ps, source.coeffs[ps] % ell)))


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


def _parse_form(rec: dict) -> tuple[str, int, int, QSeries]:
    weight, level = _field(rec, "weight", int), _field(rec, "level", int)
    for key, v in (("weight", weight), ("level", level)):
        if v < 1:
            raise ValueError(f"{key!r} must be at least 1, got {v}")
    coeffs = [0] + _field(rec, "coeffs", list)
    try:
        column = np.array(coeffs, dtype=np.int64)
    except OverflowError:
        column = np.array(coeffs, dtype=object)
    return _field(rec, "label", str), weight, level, QSeries(0, column)


def load_form_file(path) -> dict[str, tuple[str, int, int, QSeries]]:
    """JSON lines {"label", "weight", "level", "coeffs"}, coeffs listing a_1,
    a_2, ..., -> (label, weight, level, exact series with coeffs[n] = a_n)
    by label.  A level or weight below 1, or a label given twice, raises
    ValueError."""
    with open(path, encoding="utf-8") as fh:
        return _records(fh, _parse_form)
