import itertools

import numpy as np
import pytest

from apcong.ffield import (
    FieldSpec,
    embedding_table,
    factorize,
    is_prime,
    kronecker,
    legendre,
    make_field,
    mult_order,
    quadratic_extension,
)

from helpers import PolyField

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2)]


def sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for k in range(2, n + 1):
        if flags[k]:
            for m in range(k * k, n + 1, k):
                flags[m] = False
    return {k for k in range(n + 1) if flags[k]}


def test_is_prime_matches_sieve():
    primes = sieve(2000)
    for n in range(2001):
        assert is_prime(n) == (n in primes), n


def test_factorize_recomposes():
    for n in list(range(1, 400)) + [2 ** 10 * 3 ** 5, 338, 2450, 50700]:
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, r):
    spec = make_field(p, r)
    add, mul = spec.add_i, spec.mul_i
    els = list(range(spec.q))
    assert len(els) == p ** r
    for a in els:
        assert add(a, 0) == a and mul(a, 1) == a
        assert spec.sub_i(a, a) == 0
        if a != 0:
            assert mul(a, spec.inv_i(a)) == 1
    # associativity and distributivity on all triples for tiny fields,
    # else on a deterministic slice
    triples = itertools.product(els, repeat=3)
    if p ** r > 8:
        triples = itertools.islice(triples, 600)
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_frobenius_and_unit_group(p, r):
    spec = make_field(p, r)
    q = p ** r
    units = np.arange(1, q, dtype=np.int64)
    orders = mult_order(spec, units).tolist()  # one array call
    for a in range(q):
        assert spec.pow_i(a, q) == a  # q-power map is the identity
        if a != 0:
            n = mult_order(spec, a)
            assert n == orders[a - 1]
            assert (q - 1) % n == 0
            assert spec.pow_i(a, n) == 1
            # minimality against brute force
            x = a
            for k in range(1, n):
                assert x != 1
                x = spec.mul_i(x, a)
    with pytest.raises(ValueError):
        mult_order(spec, 0)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 21)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
def test_legendre_against_square_counting(p):
    squares = {(x * x) % p for x in range(1, p)}
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == want
        assert legendre(a - p, p) == want  # negative inputs reduce


def test_legendre_requires_odd_prime():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_kronecker_extends_legendre():
    for p in (3, 5, 7, 11, 13, 19, 23):
        for a in range(-30, 30):
            assert kronecker(a, p) == legendre(a, p)


def test_kronecker_multiplicative():
    vals = list(range(-12, 13))
    for a, b in itertools.product(vals, repeat=2):
        for n in (1, 2, 3, 4, 5, 12, 15):
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n, m in itertools.product([1, 2, 3, 4, 5, 12, 15], repeat=2):
        for a in vals:
            assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_kronecker_mod_two_rule():
    # (a/2) is 0 for even a, else chi_8(a)
    for a in range(-40, 40):
        want = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == want


def test_kronecker_periodicity_of_discriminants():
    # (d/.) for d = 1 mod 4 is periodic with period |d| on coprime arguments
    for d in (-3, 5, 13, -23):
        period = abs(d)
        for r in range(1, 3 * period):
            if kronecker(d, r) == 0:
                continue
            assert kronecker(d, r) == kronecker(d, r + period)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_quadratic_extension_embedding(p, r):
    base = make_field(p, r)
    ext = quadratic_extension(base)
    assert ext.p == p and ext.r == 2 * r
    table = embedding_table(base, ext)
    assert len(table) == p ** r
    # the encoding table must realize a field homomorphism
    for a in range(base.q):
        for b in range(base.q):
            ea, eb = int(table[a]), int(table[b])
            assert table[base.add_i(a, b)] == ext.add_i(ea, eb)
            assert table[base.mul_i(a, b)] == ext.mul_i(ea, eb)
    assert table[1] == 1
    # injectivity
    assert len(set(table)) == len(table)


def test_field_spec_json_roundtrip():
    spec = make_field(3, 2)
    again = FieldSpec.from_json(spec.to_json())
    assert again == spec
    # no silent truncation: 5.5 is not read as 5, nor true as 1
    for bad in ({"p": 5.5, "r": 1, "modulus": [0, 1]}, {"p": 5, "r": True, "modulus": [0, 1]},
                {"p": 5, "r": 1, "modulus": [0, 1.0]}, {"p": 5, "r": 1}, [5, 1]):
        with pytest.raises(ValueError, match="field"):
            FieldSpec.from_json(bad)


def prime_powers(limit):
    return [(p, r) for p in range(2, limit + 1) if is_prime(p)
            for r in range(1, 7) if p ** r <= limit]


@pytest.mark.parametrize("p,r", prime_powers(64))
def test_tables_match_polynomial_arithmetic_exhaustively(p, r):
    spec = make_field(p, r)
    F = PolyField(spec)
    q = spec.q
    x, y = np.divmod(np.arange(q * q, dtype=np.int64), q)
    want_mul = np.array([F.mul(a, b) for a, b in zip(x.tolist(), y.tolist())])
    want_add = np.array([F.add(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert (spec.mul_a(x, y) == want_mul).all()
    assert (spec.add_a(x, y) == want_add).all()
    assert (spec.sub_a(want_add, y) == x).all()
    ks = np.arange(q, dtype=np.int64)
    assert spec.neg_a(ks).tolist() == [F.neg(k) for k in range(q)]
    assert spec.inv_a(ks[1:]).tolist() == [F.inv(k) for k in range(1, q)]
    # the scalar methods read the same tables
    for a, b in zip(x[::7].tolist(), y[::7].tolist()):
        assert spec.mul_i(a, b) == F.mul(a, b)
        assert spec.add_i(a, b) == F.add(a, b)
        assert spec.sub_i(a, b) == F.add(a, F.neg(b))


@pytest.mark.parametrize("p,r", prime_powers(64))
def test_primitive_is_the_least_generator(p, r):
    spec = make_field(p, r)
    F = PolyField(spec)

    def order(x):
        n, y = 1, x
        while y != 1:
            y, n = F.mul(y, x), n + 1
        return n

    want = next(x for x in range(1, spec.q) if order(x) == spec.q - 1)
    assert spec.primitive == want


@pytest.mark.parametrize("p,r", [(101, 2), (2, 10)])
def test_tables_match_polynomial_arithmetic_on_random_pairs(p, r):
    spec = make_field(p, r)
    F = PolyField(spec)
    rng = np.random.default_rng(p * 100 + r)
    x, y = rng.integers(0, spec.q, size=(2, 2000))
    assert spec.mul_a(x, y).tolist() == [F.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert spec.add_a(x, y).tolist() == [F.add(a, b) for a, b in zip(x.tolist(), y.tolist())]
    nz = x[x != 0][:50].tolist()
    assert [spec.mul_i(a, spec.inv_i(a)) for a in nz] == [1] * len(nz)


def test_powers_inverses_and_zero():
    for spec in (make_field(7), make_field(3, 2), make_field(2, 3)):
        F = PolyField(spec)
        for x in range(spec.q):
            want = 1
            for n in range(2 * spec.q + 1):
                assert spec.pow_i(x, n) == want
                want = F.mul(want, x)
            if x:
                assert spec.pow_i(x, -1) == F.inv(x)
        with pytest.raises(ZeroDivisionError):
            spec.inv_i(0)
        with pytest.raises(ZeroDivisionError):
            spec.inv_a(np.arange(3))
        with pytest.raises(ZeroDivisionError):
            spec.pow_i(0, -2)


def test_make_field_beyond_ten_thousand_keeps_least_modulus():
    # degrees <= 3 have no size limit on the search but the guard; the
    # modulus is still the least irreducible in base-p order
    for p, r in ((101, 2), (211, 2), (23, 3), (97, 2), (5, 3)):
        spec = make_field(p, r)
        F = PolyField(spec)
        mod = list(spec.modulus)
        k = sum(c * p ** i for i, c in enumerate(mod[:-1]))
        for smaller in range(k):
            tail = [(smaller // p ** i) % p for i in range(r)]
            roots = [x for x in range(p)
                     if sum(c * x ** i for i, c in enumerate(tail + [1])) % p == 0]
            assert roots, f"x^{r} + ... with tail {tail} is irreducible and smaller"
        assert F.mul(F.inv(2), 2) == 1
    assert make_field(3, 2).modulus == (1, 0, 1)
    with pytest.raises(ValueError):
        make_field(11, 4)  # 14641 > 10^4 needs the trial factor search
    with pytest.raises(ValueError):
        make_field(1031, 2)  # over the 2^20 size guard
