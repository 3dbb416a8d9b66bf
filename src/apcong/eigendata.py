"""Empirical Fourier-coefficient data for weight-2 rational eigenforms.

Three sources feed the congruence machinery: truncated q-series arithmetic
over Z/m (eta products, in particular the discriminant form delta = eta^24),
naive point counting on rational elliptic curves over F_p, and curve models
ingested from a JSON-lines fixture file.  Everything here is finite and
exact; no floating point, no external tables at runtime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    """tau(n) for n <= T, via the squaring chain eta^24 = eta^16 * eta^8."""
    if T < 1:
        raise ValueError("truncation must cover tau(1)")
    e1 = eta_qexp(T - 1, m)
    e2 = e1 * e1
    e4 = e2 * e2
    e8 = e4 * e4
    e16 = e8 * e8
    return e16 * e8  # offset 24/24 = 1, coefficient(n) = tau(n)


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

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = b2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
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
        b2, b4, b6 = b2 % p, b4 % p, b6 % p
        xs = np.arange(p, dtype=np.int64)
        chi = np.full(p, -1, dtype=np.int64)
        chi[(xs * xs) % p] = 1
        chi[0] = 0
        g = (4 * xs ** 3 + b2 * xs * xs + 2 * b4 * xs + b6) % p
        ap = -int(chi[g].sum())
    assert ap * ap <= 4 * p, f"Hasse bound violated: a_{p} = {ap}"
    return ap


def quadform_represents(p: int, a: int, b: int, c: int) -> bool:
    """Whether p = a x^2 + b x y + c y^2 has an integer solution; x = 0 or
    y = 0 count.  Exhaustive over the positive-definite value bound."""
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError("form is not positive definite")
    xmax = math.isqrt(4 * c * p // (4 * a * c - b * b))
    ymax = math.isqrt(4 * a * p // (4 * a * c - b * b))
    for x in range(-xmax, xmax + 1):
        for y in range(ymax + 1):
            if a * x * x + b * x * y + c * y * y == p:
                return True
    return False


# ---------------------------------------------------------------------------
# datasets of reduced a_p samples


@dataclass(frozen=True)
class ApDataset:
    """Ordered (p, a_p mod ell) samples for the good primes of one form."""

    label: str
    level: int
    ell: int
    samples: tuple[tuple[int, int], ...]
    synthetic: bool = False

    def __post_init__(self):
        last = 1
        for p, r in self.samples:
            if p <= last:
                raise ValueError("sample points must be strictly increasing")
            if math.gcd(p, self.level * self.ell) != 1:
                raise ValueError(f"sample at bad prime {p}")
            if not 0 <= r < self.ell:
                raise ValueError("sample value not reduced")
            last = p

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> dict[int, int]:
        return dict(self.samples)

    def csv(self) -> str:
        lines = ["p,ap_mod"]
        lines += [f"{p},{r}" for p, r in self.samples]
        return "\n".join(lines) + "\n"


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
    samples = []
    if isinstance(source, EllipticCurve):
        level = source.conductor if level is None else level
        label = source.label if label is None else label
        disc = source.discriminant
        for p in primes_upto(p_max):
            if (level * ell) % p == 0 or disc % p == 0:
                continue
            samples.append((p, ap_point_count(source, p) % ell))
    elif isinstance(source, QSeries):
        if level is None or label is None:
            raise ValueError("q-series sources need explicit level and label")
        if source.m and source.m % ell:
            raise ValueError(f"series mod {source.m} cannot produce data mod {ell}")
        top = source.truncation + source.offset_24ths // 24
        for p in primes_upto(min(p_max, top)):
            if (level * ell) % p == 0:
                continue
            samples.append((p, source.coefficient(p) % ell))
    else:
        raise TypeError(f"unsupported source {type(source).__name__}")
    return ApDataset(label, level, ell, tuple(samples))


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
