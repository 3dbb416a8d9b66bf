"""Arithmetic in finite fields F_{p^r}, q = p^r <= 2^20, on int encodings.

An element is the int c_0 + c_1 p + ... of its coefficients over F_p modulo
a monic irreducible of degree r.  Each field builds O(q) tables exp[i] = g^i
and log[g^i] = i for a primitive g on first use: product, inverse and power
are gathers, sum and difference base-p digit arithmetic (XOR for p = 2), on
ints (`*_i`) and int arrays (`*_a`) alike.  FieldElement is the read-only
display form of one encoding (its coefficients and repr) at the I/O edge.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

SIZE_GUARD = 1 << 20


def is_int(x) -> bool:
    """Whether x is an int and not a bool (JSON true and false are bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---- polynomial helpers over F_p (little-endian coefficient lists) ----

def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_trim(out)


def _poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        c = f[-1] * lead_inv % p
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % p
        _poly_trim(f)
    return f


def _is_irreducible(f, p) -> bool:
    """Root test for degree <= 3, else no monic factor of degree <= deg/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        x = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(f):
            acc = (acc * x + c) % p
        return bool(acc.all())
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_mod(f, list(tail) + [1], p):
                return False
    return True


class FieldSpec:
    """A concrete model of F_{p^r}: characteristic, degree and modulus."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError("degree must be >= 1")
        if p ** r > SIZE_GUARD:
            raise ValueError(f"field size {p}^{r} exceeds guard {SIZE_GUARD}")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.r = r
        self.modulus = modulus
        self.q = p ** r

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, r={self.r})"

    def digits(self, k) -> tuple:
        """Base-p digits (c_0, ..., c_{r-1}) of an int or an int array."""
        out = []
        for _ in range(self.r):
            k, c = divmod(k, self.p)
            out.append(c)
        return tuple(out)

    # -- the exp/log tables ------------------------------------------------

    def _times(self, f, g):
        return _poly_mod(_poly_mul(f, g, self.p), list(self.modulus), self.p)

    def _is_primitive(self, g) -> bool:
        """g^((q-1)/l) != 1 for every prime l dividing q - 1."""
        n = self.q - 1
        for ell in factorize(n):
            acc, base, e = [1], g, n // ell
            while e:
                acc = self._times(acc, base) if e & 1 else acc
                base, e = self._times(base, base), e >> 1
            if acc == [1]:
                return False
        return True

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) for the least-encoded primitive element g:
        exp[i] = g^i for 0 <= i < 2(q - 1) and exp[i] = 0 beyond;
        log[g^i] = i and log[0] = 2(q - 1), so the product of any two
        elements is exp[log x + log y], zero included."""
        p, r, n = self.p, self.r, self.q - 1
        g = next(g for g in map(list, map(self.digits, range(1, self.q)))
                 if self._is_primitive(g))
        # rows: coefficient vectors of g^0, g^1, ...; g^k .. g^(2k-1) are
        # g^0 .. g^(k-1) times g^k, one F_p-linear map on all rows at once
        rows = np.zeros((1, r), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < n:
            hx = np.zeros((r, r), dtype=np.int64)
            for j in range(r):
                col = self._times(g, [0] * j + [1])
                hx[j, :len(col)] = col
            rows = np.vstack((rows, rows @ hx % p))[:n]
            g = self._times(g, g)
        powers = rows @ (p ** np.arange(r, dtype=np.int64))
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[:n] = powers
        exp[n:2 * n] = powers
        log = np.empty(self.q, dtype=np.int64)
        log[powers] = np.arange(n, dtype=np.int64)
        log[0] = 2 * n
        exp.flags.writeable = False
        log.flags.writeable = False
        return exp, log

    @property
    def primitive(self) -> int:
        """Encoding of the least-encoded primitive element, the base of the
        exp/log tables."""
        return self._tables[0].item(1)

    # -- arithmetic on encodings: *_a on ints or int arrays, *_i on ints ----

    def add_a(self, x, y, sign: int = 1):
        """x + sign * y, digit by digit; sign -1 subtracts."""
        if self.r == 1:
            return (x + y if sign > 0 else x - y) % self.p
        if self.p == 2:
            return x ^ y
        out, pj = 0, 1
        for _ in range(self.r):
            out = out + (x // pj + sign * (y // pj)) % self.p * pj
            pj *= self.p
        return out

    def sub_a(self, x, y):
        return self.add_a(x, y, -1)

    def neg_a(self, x):
        return self.add_a(0 * x, x, -1)

    def mul_a(self, x, y):
        exp, log = self._tables
        return exp[log[x] + log[y]]

    def inv_a(self, x):
        if not np.all(x):
            raise ZeroDivisionError("inverse of zero")
        exp, log = self._tables
        return exp[self.q - 1 - log[x]]

    def pow_a(self, x, n: int):
        """x^n elementwise for one integer n (0^0 = 1)."""
        exp, log = self._tables
        if n < 0:
            x, n = self.inv_a(x), -n
        # log 0 = 2(q - 1) lands on exp[0]; the where puts 0^n back
        return np.where(x == 0, int(n == 0), exp[log[x] * (n % (self.q - 1)) % (self.q - 1)])

    # digit arithmetic is the same code on ints and on arrays
    add_i, sub_i, neg_i = add_a, sub_a, neg_a

    def mul_i(self, x: int, y: int) -> int:
        exp, log = self._tables
        return exp.item(log.item(x) + log.item(y))

    def inv_i(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        exp, log = self._tables
        return exp.item(self.q - 1 - log.item(x))

    def pow_i(self, x: int, n: int) -> int:
        return int(self.pow_a(x, n))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        """Inverse of to_json; ValueError unless p, r and every modulus
        coefficient are ints."""
        if not (isinstance(obj, dict) and is_int(obj.get("p")) and is_int(obj.get("r"))
                and isinstance(obj.get("modulus"), list) and all(map(is_int, obj["modulus"]))):
            raise ValueError(f"field {obj!r} needs int p and r and a list of int "
                             "modulus coefficients")
        return FieldSpec(obj["p"], obj["r"], tuple(obj["modulus"]))


class FieldElement:
    """An element of spec, held as its int encoding k: the display value of
    Mat2.entries, with no arithmetic (that runs on ints, through spec)."""

    __slots__ = ("spec", "k")

    def __init__(self, spec: FieldSpec, k: int):
        self.spec = spec
        self.k = k

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.digits(self.k)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.k == other.k

    def __hash__(self):
        return hash((self.spec.p, self.spec.r, self.k))

    def __repr__(self):
        if self.spec.r == 1:
            return str(self.k)
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def make_field(p: int, r: int = 1, modulus=None) -> FieldSpec:
    """Build F_{p^r}; when no modulus is given pick the least monic irreducible.

    Candidates are enumerated in base-p order of their coefficient vector, so
    the choice is deterministic (F_9 gets x^2 + 1).  For r = 1 the modulus is
    the convention x + 0.  For r <= 3 a candidate is irreducible iff it has
    no root, an O(p) test, so the search runs up to the size guard; higher
    degrees use the trial factor search and stop at p^r <= 10^4.
    """
    if modulus is not None:
        return FieldSpec(p, r, tuple(modulus))
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if r == 1:
        return FieldSpec(p, 1, (0, 1))
    if r > 3 and p ** r > 10 ** 4:
        raise ValueError("default-modulus search for degree > 3 is limited to p^r <= 10^4")
    if p ** r > SIZE_GUARD:
        raise ValueError(f"field size {p}^{r} exceeds guard {SIZE_GUARD}")
    for k in range(p ** r):
        f = [k // p ** i % p for i in range(r)] + [1]
        if _is_irreducible(f, p):
            return FieldSpec(p, r, tuple(f))
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---- number-theoretic symbols ----

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} must be an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization of |n| (small inputs only)."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mult_order(spec: FieldSpec, x):
    """Multiplicative order of each nonzero encoding in the int or int array
    x: (q - 1) / gcd(log x, q - 1)."""
    if not np.all(x):
        raise ValueError("order of zero is undefined")
    n = spec.q - 1
    return n // np.gcd(spec._tables[1][x], n)


# ---- quadratic extensions and subfield embeddings ----

_EXT_CACHE: dict[FieldSpec, FieldSpec] = {}
_EMBED_CACHE: dict[tuple[FieldSpec, FieldSpec], np.ndarray] = {}


def quadratic_extension(spec: FieldSpec) -> FieldSpec:
    """The model of F_{q^2} used for eigenvalue computations over spec."""
    if spec not in _EXT_CACHE:
        _EXT_CACHE[spec] = make_field(spec.p, 2 * spec.r)
    return _EXT_CACHE[spec]


def embedding_table(base: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """The embedding of base into ext on encodings: table[x] is the image of x.

    The embedding sends the generator of the base field to the least root of
    the base modulus inside ext, so it is deterministic and consistent across
    calls.  The degree of base must divide the degree of ext.
    """
    if base.p != ext.p or ext.r % base.r != 0:
        raise ValueError("no embedding: incompatible fields")
    key = (base, ext)
    table = _EMBED_CACHE.get(key)
    if table is None:
        if base == ext or base.r == 1:
            # a constant polynomial has the same encoding in every degree
            table = np.arange(base.q, dtype=np.int64)
        else:
            xs = np.arange(ext.q, dtype=np.int64)
            acc = np.zeros(ext.q, dtype=np.int64)
            for c in reversed(base.modulus):
                acc = ext.add_a(ext.mul_a(acc, xs), c)
            theta = int(np.flatnonzero(acc == 0)[0])
            table = np.zeros(base.q, dtype=np.int64)
            for c in reversed(base.digits(np.arange(base.q, dtype=np.int64))):
                table = ext.add_a(ext.mul_a(table, theta), c)
        table.flags.writeable = False
        _EMBED_CACHE[key] = table
    return table
