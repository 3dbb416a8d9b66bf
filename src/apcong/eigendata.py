"""Empirical Fourier-coefficient data for weight-2 rational eigenforms.

Three sources feed the congruence machinery: truncated q-series arithmetic
over Z/m (eta products, in particular the discriminant form delta = eta^24),
naive point counting on rational elliptic curves over F_p, and curve models
ingested from a JSON-lines fixture file.  Everything here is finite and
exact; no floating point, no external tables at runtime.

delta comes from Jacobi's identity eta^3 = sum (-1)^n (2n+1) q^(n(n+1)/2 + 1/8):
eta^24 = (eta^3)^8 is seven products of a sparse series with about sqrt(2T)
terms into a dense one, so tau(n) for n <= T costs O(T^1.5) instead of the
O(T^2) of dense convolution.  Every product is reduced mod m, in int64 while
the bound allows it and in Python integers otherwise (and for m = 0).

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

from .ffield import factorize, is_prime

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


@dataclass(frozen=True)
class QSeries:
    """q^(offset_24ths/24) * sum coeffs[i] q^i, truncated, coefficients in Z/m.

    m = 0 means exact integer coefficients.  Offsets are kept in 24ths so
    that eta carries offset 1 and eta^24 carries offset 24, a whole power.
    """

    m: int
    coeffs: tuple[int, ...]
    offset_24ths: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("modulus must be nonnegative")
        if not self.coeffs:
            raise ValueError("empty coefficient vector")
        if self.m:
            if any(not 0 <= c < self.m for c in self.coeffs):
                raise ValueError("coefficients not reduced mod m")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        if self.m != other.m:
            raise ValueError("modulus mismatch")
        T = min(self.truncation, other.truncation)
        a, b = self.coeffs[: T + 1], other.coeffs[: T + 1]
        if self.m:
            # each int64 convolution term sums up to T + 1 products < m^2
            if (T + 1) * (self.m - 1) ** 2 >= 2 ** 63:
                raise ValueError(
                    f"mod-{self.m} product to q^{T} would overflow int64")
            conv = np.convolve(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            )[: T + 1]
            prod = tuple(int(c) % self.m for c in conv)
        else:
            out = [0] * (T + 1)
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                for j in range(T + 1 - i):
                    out[i + j] += ai * b[j]
            prod = tuple(out)
        return QSeries(self.m, prod, self.offset_24ths + other.offset_24ths)

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n once the fractional offset is a whole power."""
        if self.offset_24ths % 24:
            raise ValueError("offset is not a whole power of q")
        i = n - self.offset_24ths // 24
        if not 0 <= i <= self.truncation:
            raise ValueError(f"exponent {n} beyond truncation")
        return self.coeffs[i]

    def reduce(self, m: int) -> "QSeries":
        if m <= 0:
            raise ValueError("reduction modulus must be positive")
        if self.m and self.m % m:
            raise ValueError(f"cannot reduce mod {m} from mod {self.m}")
        return QSeries(m, tuple(c % m for c in self.coeffs), self.offset_24ths)


def eta_qexp(T: int, m: int = 0) -> QSeries:
    """Euler-product expansion of eta up to q^T via pentagonal numbers."""
    if T < 0:
        raise ValueError("negative truncation")
    coeffs = [0] * (T + 1)
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= T:
                coeffs[e] += -1 if kk % 2 else 1
                done = False
        if done:
            break
        k += 1
    if m:
        coeffs = [c % m for c in coeffs]
    return QSeries(m, tuple(coeffs), 1)


def delta_coeffs(T: int, m: int = 0) -> QSeries:
    """tau(n) for n <= T, as q * S^8 with S = sum (-1)^n (2n+1) q^(n(n+1)/2).

    S is eta^3 without its q^(1/8), so q S^8 = eta^24.  Each of the seven
    products adds about sqrt(2T) shifted copies of the dense factor.
    """
    if T < 1:
        raise ValueError("truncation must cover tau(1)")
    terms = []  # (exponent, coefficient) of S below q^T
    n = 0
    while n * (n + 1) // 2 < T:
        terms.append((n * (n + 1) // 2, -(2 * n + 1) if n % 2 else 2 * n + 1))
        n += 1
    # a product coefficient sums |c| * (m - 1) over the terms at most
    weight = sum(abs(c) for _, c in terms)
    dtype = np.int64 if m and weight * (m - 1) < 2 ** 63 else object
    sparse = np.zeros(T, dtype=dtype)
    for e, c in terms:
        sparse[e] = c
    dense = sparse % m if m else sparse
    for _ in range(7):
        out = np.zeros(T, dtype=dtype)
        for e, c in terms:
            out[e:] += c * dense[: T - e]
        dense = out % m if m else out
    return QSeries(m, tuple(dense.tolist()), 24)  # coefficient(n) = tau(n)


# ---------------------------------------------------------------------------
# elliptic curves over Q and naive point counts


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
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def has_good_reduction(self, p: int) -> bool:
        return self.discriminant % p != 0 and self.conductor % p != 0


def ap_point_count(E: EllipticCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) by direct counting; quadratic character sum
    over the completed square for p > 3."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > POINT_COUNT_GUARD:
        raise ValueError(f"point counting guard exceeded at {p}")
    if not E.has_good_reduction(p):
        raise ValueError(f"bad reduction at {p} for {E.label}")
    if p <= 3:
        a1, a2, a3, a4, a6 = (x % p for x in E.a)
        affine = sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0
        )
        ap = p + 1 - (affine + 1)
    else:
        b2, b4, b6, _ = E.b_invariants
        xs = np.arange(p, dtype=np.int64)
        chi = np.full(p, -1, dtype=np.int8)
        half = xs[: (p + 1) // 2]
        chi[half * half % p] = 1
        chi[0] = 0
        # Horner form of 4x^3 + b2 x^2 + 2 b4 x + b6 with reduced
        # coefficients stays below 5 p^3 < 2^63 for p <= POINT_COUNT_GUARD
        g = 4 * xs
        g += b2 % p
        g *= xs
        g += 2 * b4 % p
        g *= xs
        g += b6 % p
        g %= p
        ap = -int(chi[g].sum(dtype=np.int64))
    assert ap * ap <= 4 * p, f"Hasse bound violated: a_{p} = {ap}"
    return ap


def quadform_represents(p: int, a: int, b: int, c: int) -> bool:
    """Whether p = a x^2 + b x y + c y^2 has an integer solution; x = 0 or
    y = 0 count.  For each y >= 0 inside the positive-definite value bound,
    solve the quadratic in x exactly."""
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError("form is not positive definite")
    ymax = math.isqrt(4 * a * p // (4 * a * c - b * b))
    for y in range(ymax + 1):
        # a x^2 + (b y) x + (c y^2 - p) = 0
        disc = (b * y) ** 2 - 4 * a * (c * y * y - p)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s == disc and any((-b * y + t) % (2 * a) == 0 for t in (s, -s)):
            return True
    return False


# ---------------------------------------------------------------------------
# datasets of reduced a_p samples


@dataclass(frozen=True, eq=False)
class ApDataset:
    """Ordered (p, a_p mod ell) samples for the good primes of one form.

    The samples live in two read-only int64 columns: p, strictly increasing
    and coprime to level * ell, and a, reduced mod ell.  ell = 0 keeps exact
    a_p, as QSeries m = 0 does.  `pairs` is a sequence of (p, a) pairs or an
    (n, 2) integer array.
    """

    label: str
    level: int
    ell: int
    pairs: InitVar[object]
    synthetic: bool = False
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

    def values(self) -> dict[int, int]:
        return dict(self.samples)

    def attained(self) -> list[int]:
        """The distinct sample values, ascending."""
        return np.unique(self.a).tolist()

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
        return ApDataset(self.label, self.level, ell, cols, self.synthetic)


def curve_dataset(
    E: EllipticCurve, p_max: int, *, level: int | None = None, label: str | None = None
) -> ApDataset:
    """Exact a_p (ell = 0) for the primes p <= p_max of good reduction not
    dividing level, one point count each."""
    level = E.conductor if level is None else level
    label = E.label if label is None else label
    disc = E.discriminant
    ps = [p for p in primes_upto(p_max) if level % p and disc % p]
    aps = np.fromiter((ap_point_count(E, p) for p in ps), np.int64, len(ps))
    return ApDataset(label, level, 0, np.column_stack((ps, aps)))


def build_dataset(
    source: EllipticCurve | QSeries,
    ell: int,
    p_max: int,
    *,
    level: int | None = None,
    label: str | None = None,
) -> ApDataset:
    """Samples (p, a_p mod ell) for all good primes p <= p_max."""
    if not is_prime(ell):
        raise ValueError(f"residue characteristic {ell} is not prime")
    if isinstance(source, EllipticCurve):
        return curve_dataset(source, p_max, level=level, label=label).reduce(ell)
    if not isinstance(source, QSeries):
        raise TypeError(f"unsupported source {type(source).__name__}")
    if level is None or label is None:
        raise ValueError("q-series sources need explicit level and label")
    if source.m and source.m % ell:
        raise ValueError(f"series mod {source.m} cannot produce data mod {ell}")
    top = source.truncation + source.offset_24ths // 24
    samples = [
        (p, source.coefficient(p) % ell)
        for p in primes_upto(min(p_max, top))
        if (level * ell) % p
    ]
    return ApDataset(label, level, ell, samples)


# ---------------------------------------------------------------------------
# fixture ingestion


def _parse_curve(rec: dict) -> EllipticCurve:
    E = EllipticCurve(rec["label"], tuple(rec["a"]), rec["conductor"])
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


def _parse_curve_lines(lines) -> dict[str, EllipticCurve]:
    """JSON lines {"label", "a", "conductor"} -> curves by label."""
    out = {}
    for line in lines:
        if line.strip():
            E = _parse_curve(json.loads(line))
            out[E.label] = E
    return out


def load_curve_file(path) -> dict[str, EllipticCurve]:
    """Curves by label from a JSON-lines file of {"label", "a", "conductor"}."""
    with open(path, encoding="utf-8") as fh:
        return _parse_curve_lines(fh)


def curve_fixtures() -> dict[str, EllipticCurve]:
    """The packaged curve models behind the worked examples."""
    ref = resources.files(__package__) / "data" / "curves.jsonl"
    return _parse_curve_lines(ref.read_text(encoding="utf-8").splitlines())


def load_form_file(path) -> list[tuple[str, int, int, QSeries]]:
    """JSON lines {"label", "weight", "level", "coeffs"} -> (label, weight,
    level, series) with coefficient(n) = a_n."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            series = QSeries(0, (0,) + tuple(rec["coeffs"]), 0)
            out.append((rec["label"], rec["weight"], rec["level"], series))
    return out
