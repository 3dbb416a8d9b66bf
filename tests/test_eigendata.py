import hashlib
import json
import math
import time
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apcong.eigendata as eigendata
from apcong.eigendata import (
    ApDataset,
    EllipticCurve,
    QSeries,
    _parse_curve,
    _records,
    build_dataset,
    curve_dataset,
    curve_fixtures,
    delta_coeffs,
    load_curve_file,
    load_form_file,
    primes_upto,
)
from helpers import (
    ap_point_count,
    char_sum_ap,
    eta_qexp,
    quadform_represents,
    samples,
    series_mul,
    squaring_chain_delta,
)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10_000)) == 1229


# ---- q-series: the delta column against the Euler-product oracles ----


def brute_eta_tail(T):
    # prod_{n=1}^{T} (1 - q^n), coefficients up to q^T by direct expansion
    poly = [1] + [0] * T
    for n in range(1, T + 1):
        nxt = poly[:]
        for k in range(T - n + 1):
            nxt[k + n] -= poly[k]
        poly = nxt
    return poly


def test_eta_matches_brute_product():
    T = 80
    assert list(eta_qexp(T)) == brute_eta_tail(T)


def test_eta_coefficients_are_pentagonal_signs():
    eta = eta_qexp(200)
    nonzero = {k: c for k, c in enumerate(eta) if c}
    for k, c in nonzero.items():
        assert c in (1, -1)
    # generalized pentagonal numbers
    pent = set()
    j = 1
    while j * (3 * j - 1) // 2 <= 200:
        pent.add(j * (3 * j - 1) // 2)
        pent.add(j * (3 * j + 1) // 2)
        j += 1
    pent.add(0)
    assert set(nonzero) == {k for k in pent if k <= 200}


TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}


def test_tau_small_values():
    tau = delta_coeffs(12).coeffs
    assert tau[0] == 0
    for n, want in TAU.items():
        assert tau[n] == want


def sigma11(n):
    return sum(d ** 11 for d in range(1, n + 1) if n % d == 0)


def test_tau_ramanujan_congruence_mod_691():
    tau = delta_coeffs(200).coeffs
    for n in range(1, 201):
        assert tau[n] % 691 == sigma11(n) % 691


def test_tau_hecke_multiplicativity():
    tau = delta_coeffs(150).coeffs
    assert tau[6] == tau[2] * tau[3]
    assert tau[10] == tau[2] * tau[5]
    assert tau[35] == tau[5] * tau[7]
    for p in (2, 3, 5, 7, 11):
        assert tau[p * p] == tau[p] ** 2 - p ** 11


@pytest.mark.parametrize("m", [2, 3, 5, 7, 23, 691, 3_000_000_019])
def test_jacobi_delta_matches_squaring_chain(m):
    # the chain's int64 guard refuses m ~ 3e9, so reduce its exact result
    old = (squaring_chain_delta(2000, m) if m < 10 ** 9
           else tuple(c % m for c in squaring_chain_delta(2000)))
    new = delta_coeffs(2000, m)
    assert new.coeffs[1:].tolist() == list(old)


def test_jacobi_delta_exact_matches_squaring_chain():
    assert delta_coeffs(300).coeffs[1:].tolist() == list(squaring_chain_delta(300))
    assert delta_coeffs(1).coeffs.tolist() == [0, 1]


def test_tau_ramanujan_congruence_mod_691_to_10_000():
    N = 10_000
    sigma11 = np.zeros(N + 1, dtype=np.int64)  # divisor sieve mod 691
    for d in range(1, N + 1):
        sigma11[d::d] += pow(d, 11, 691)
    assert delta_coeffs(N, 691).coeffs[1:].tolist() == (sigma11[1:] % 691).tolist()


@cache
def exact_delta_200():
    return squaring_chain_delta(200)


@settings(max_examples=60)
@given(T=st.integers(1, 200),
       m=st.one_of(st.integers(1, 1000), st.integers(1, 2 ** 70)))
def test_delta_mod_m_is_exact_delta_reduced(T, m):
    exact = exact_delta_200()[:T]
    assert delta_coeffs(T, m).coeffs[1:].tolist() == [c % m for c in exact]


def test_delta_reduction_consistency():
    exact = delta_coeffs(300).coeffs
    red = delta_coeffs(300, 23).coeffs
    assert exact.dtype == object and red.dtype == np.int64
    assert red.tolist() == [c % 23 for c in exact.tolist()]


@pytest.mark.parametrize("T", [1, 2, 3, 4, 299, 300, 301])
def test_delta_dtype_holds_the_term_weight(T):
    # a product coefficient sums (2n + 1)(m - 1) over the n with n(n + 1)/2 < T,
    # and the modulus itself must fit (the cap binds at T = 1, weight 1)
    weight = sum(2 * n + 1 for n in range(T) if n * (n + 1) // 2 < T)
    m = min(1 + (2 ** 63 - 1) // weight, 2 ** 63 - 1)
    assert delta_coeffs(T, m).coeffs.dtype == np.int64
    assert delta_coeffs(T, m + 1).coeffs.dtype == object


def test_delta_modulo_two_to_the_63_is_an_object_column():
    # 2^63 does not fit in int64, though N^2 (m - 1) = 2^63 - 1 does at T = 1
    coeffs = delta_coeffs(1, 2 ** 63).coeffs
    assert coeffs.dtype == object and coeffs.tolist() == [0, 1]


def test_a_huge_delta_bound_fails_before_the_term_loop():
    start = time.perf_counter()
    with pytest.raises(MemoryError):
        delta_coeffs(10 ** 14, 23)
    assert time.perf_counter() - start < 1


def test_eta_times_eta23_is_delta_mod_23():
    # eta(q) eta(q^23) = q (prod (1 - q^n))(prod (1 - q^(23 n))) has integral
    # q-expansion congruent to Delta mod 23
    T = 500
    a = eta_qexp(T, 23)
    spaced = [0] * (23 * (len(a) - 1) + 1)
    for k, c in enumerate(a):
        spaced[23 * k] = c
    prod = series_mul(a, tuple(spaced[: T + 1]), 23)  # prod[i]: q^(i + 1)
    assert list(prod[:T]) == delta_coeffs(T, 23).coeffs[1:].tolist()


def test_qseries_is_one_read_only_column():
    col = np.array([0, 1, 4, 2], dtype=np.int64)
    series = QSeries("f", 2, 1, 5, col)
    assert series.coeffs is col
    with pytest.raises(ValueError):
        series.coeffs[1] = 3
    delta = delta_coeffs(50, 2 ** 70)
    assert (delta.label, delta.weight, delta.level, delta.m) == ("delta", 12, 1, 2 ** 70)
    assert delta.coeffs.dtype == object
    for bad in (5, 7, -1):  # unreduced coefficients
        with pytest.raises(ValueError):
            QSeries("f", 2, 1, 5, np.array([0, bad]))
    with pytest.raises(ValueError):
        QSeries("f", 2, 1, 5, np.array([1, 2]))  # nonzero constant term
    with pytest.raises(ValueError):
        QSeries("f", 2, 1, 0, np.array([0]))  # no a_1
    with pytest.raises(ValueError):
        QSeries("f", 2, 1, 0, np.array([0.0, 1.5]))  # not an integer column
    with pytest.raises(ValueError):
        QSeries("f", 2, 1, -1, np.array([0, 1]))
    for weight, level, key in ((0, 1, "weight"), (2, -3, "level")):
        with pytest.raises(ValueError, match=f"'{key}' must be at least 1"):
            QSeries("f", weight, level, 0, np.array([0, 1]))


def test_qseries_mod_product_overflow_guard():
    # four int64 products per coefficient: 4 (m - 1)^2 against 2^63
    m = 1518500250
    assert 4 * (m - 1) ** 2 < 2**63 <= 4 * m**2
    top = (m - 1,) * 4
    exact = series_mul(top, top)
    assert series_mul(top, top, m) == tuple(c % m for c in exact)
    with pytest.raises(ValueError):
        series_mul((m,) * 4, (m,) * 4, m + 1)


# ---- elliptic curves and point counts ----


def brute_ap(curve: EllipticCurve, p):
    a1, a2, a3, a4, a6 = curve.a
    n = 0
    for x in range(p):
        for y in range(p):
            lhs = y * y + a1 * x * y + a3 * y
            rhs = x ** 3 + a2 * x * x + a4 * x + a6
            if (lhs - rhs) % p == 0:
                n += 1
    return p - n


def test_point_counts_match_brute_force():
    for E in curve_fixtures().values():
        for p in primes_upto(60):
            if not E.has_good_reduction(p):
                continue
            assert ap_point_count(E, p) == brute_ap(E, p)


FROZEN_AP = {
    "338d1": {3: -1, 5: 3, 7: 3, 11: 0},
    "324b1": {5: 3, 7: 2, 11: -6, 13: 5, 17: -3, 19: 2, 23: 6, 29: 3,
              31: -4, 37: 5},
    "608e1": {3: 0, 5: 3, 7: -5, 11: -5, 13: -4, 17: -3},
    "2450ba1": {3: 0, 11: -2, 13: 0, 17: -7},
    "2450a1": {3: 0, 11: -2, 13: 0, 17: 7},
    "50700u1": {7: 0, 11: -3, 17: 0, 19: 0, 23: 7, 29: -4, 31: 0, 37: -3},
}


def test_fixture_ap_values():
    fixtures = curve_fixtures()
    assert set(fixtures) == set(FROZEN_AP)
    for label, table in FROZEN_AP.items():
        E = fixtures[label]
        for p, want in table.items():
            assert ap_point_count(E, p) == want, (label, p)


def test_hasse_bound():
    E = curve_fixtures()["338d1"]
    for p in primes_upto(500):
        if E.has_good_reduction(p):
            ap = ap_point_count(E, p)
            assert ap * ap <= 4 * p


def test_point_count_guards():
    E = curve_fixtures()["338d1"]
    with pytest.raises(ValueError):
        ap_point_count(E, 13)  # bad reduction
    with pytest.raises(ValueError):
        ap_point_count(E, 15)  # not prime
    with pytest.raises(ValueError):
        ap_point_count(E, 1_000_003)  # above the enumeration guard


def test_kernel_matches_char_sum_on_fixtures():
    # every good prime past Mestre's bound: the baby-step giant-step lanes
    for E in curve_fixtures().values():
        ds = curve_dataset(E, 10_000)
        big = ds.p > 229
        assert big.sum() > 1000
        want = [char_sum_ap(E, p) for p in ds.p[big].tolist()]
        assert ds.a[big].tolist() == want, E.label
    # one chunk whose baby-step count exceeds the Hasse width of its first lane
    E = curve_fixtures()["50700u1"]
    ps = np.array([233, 239, 999_953, 999_983], dtype=np.int64)
    got = eigendata._ap_kernel([E], np.zeros(4, dtype=np.int64), ps)
    assert got.tolist() == [char_sum_ap(E, p) for p in ps.tolist()]


# Curves with rational torsion.  At a prime p = n^2 + 1 with 4 | n (257,
# 401, 577, 1297, ...) y^2 = x^3 - x has E(F_p) = Z/n x Z/n, so its points
# have order at most n ~ sqrt(p) and baby steps reach O and y = 0.
SMALL_ORDER_MODELS = [
    (0, 0, 0, -1, 0),  # y^2 = x^3 - x, full 2-torsion
    (0, 0, 0, -4, 0),  # its twist by 2
    (0, 0, 0, 0, 1),  # y^2 = x^3 + 1, torsion Z/6
    (0, -1, 0, -4, 4),  # y^2 = (x - 1)(x - 2)(x + 2)
    (1, 0, 1, 4, -6),  # 14a1, torsion Z/6
    (1, 1, 1, -10, -10),  # 15a1, torsion Z/4 x Z/2
    (0, -1, 1, 0, 0),  # 11a3, torsion Z/5
]


def test_kernel_on_curves_with_small_torsion():
    for a in SMALL_ORDER_MODELS:
        E = EllipticCurve("t", a, 1)
        ps = np.array([p for p in primes_upto(3_000)
                       if p > 229 and E.discriminant % p], dtype=np.int64)
        got = eigendata._ap_kernel([E], np.zeros(len(ps), dtype=np.int64), ps).tolist()
        assert got == [char_sum_ap(E, p) for p in ps.tolist()], a


def test_one_pooled_kernel_pass_matches_char_sum_lane_by_lane():
    # fixtures and small-order models share every chunk: the small-order
    # lanes reach the baby step O and the giant stride O
    curves = [*curve_fixtures().values()]
    curves += [EllipticCurve("t", a, 1) for a in SMALL_ORDER_MODELS]
    lanes = [(i, p) for p in primes_upto(3_000) if p > 229
             for i, E in enumerate(curves) if E.has_good_reduction(p)]
    c, ps = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    got = eigendata._ap_kernel(curves, c, ps).tolist()
    assert got == [char_sum_ap(curves[i], p) for i, p in lanes]


def test_kernel_refuses_primes_that_could_overflow_int64(monkeypatch):
    # a product of three residues below 2^20 stays under 2^60
    assert eigendata.POINT_COUNT_GUARD < 2 ** 20
    monkeypatch.setattr(eigendata, "_pow", None)  # no arithmetic is reached
    monkeypatch.setattr(eigendata, "_ec_add", None)
    p = np.array([233, 2 ** 20 + 7], dtype=np.int64)  # the second is prime
    with pytest.raises(OverflowError, match="p = 1048583"):
        eigendata._shanks_mestre(np.array([1, 1]), np.array([1, 1]), p, np.array([30, 2048]))


def _nonsingular(a):
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = b2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6 != 0


@settings(max_examples=150)
@given(a=st.tuples(*[st.integers(-50, 50)] * 5).filter(_nonsingular),
       p=st.sampled_from([p for p in primes_upto(5_000) if p > 229]))
def test_kernel_matches_char_sum_on_random_models(a, p):
    E = EllipticCurve("t", a, 1)
    assume(E.discriminant % p)
    assert ap_point_count(E, p) == char_sum_ap(E, p)


def test_curve_dataset_to_200_000_at_sampled_primes():
    E = curve_fixtures()["50700u1"]
    ds = curve_dataset(E, 200_000)
    assert ds.p.tolist() == [p for p in primes_upto(200_000) if p not in (2, 3, 5, 13)]
    rng = np.random.default_rng(5)
    for i in rng.choice(len(ds), 30, replace=False).tolist():
        p = int(ds.p[i])
        assert int(ds.a[i]) == char_sum_ap(E, p), p


def test_kernel_raises_instead_of_guessing():
    # below Mestre's bound y^2 = x^3 - x over F_29 has no decisive point
    E = EllipticCurve("t", (0, 0, 0, -1, 0), 1)
    p, (c4, c6) = np.array([29]), E.c_invariants
    with pytest.raises(ArithmeticError, match="no decisive point"):
        eigendata._shanks_mestre(-27 * c4 % p, -54 * c6 % p, p, np.array([10]))
    # at a bad prime the nodal group and its twist contradict each other
    nodal = EllipticCurve("t", (0, 1, 0, 0, 373), 1)
    with pytest.raises(ArithmeticError, match="lost every candidate"):
        eigendata._ap_kernel([nodal], np.array([0]), np.array([373]))
    with pytest.raises(ValueError, match="guard"):
        curve_dataset(E, 1_000_100)


def test_point_count_guard_admits_every_bound_below_the_first_prime_past_it(monkeypatch):
    # 1 000 003 is the first prime past the guard: a bound of 1 000 002
    # reaches the sieve, which here stops at 200 to keep the test short
    sieved = []

    def short_sieve(n):
        sieved.append(n)
        return primes_upto(200)

    monkeypatch.setattr(eigendata, "primes_upto", short_sieve)
    E = curve_fixtures()["338d1"]
    assert curve_dataset(E, 1_000_002).p.tolist() == curve_dataset(E, 200).p.tolist()
    assert sieved == [1_000_002, 200]
    with pytest.raises(ValueError, match="guard exceeded at 1000003$"):
        curve_dataset(E, 1_000_003)
    assert sieved == [1_000_002, 200]


def test_curve_invariants():
    E = EllipticCurve("338d1", (1, 1, 0, 504, -13112), 338)
    b2, b4, b6, b8 = E.b_invariants
    assert b2 == 1 + 4 and b4 == 2 * 504 and b6 == 4 * -13112
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert E.discriminant != 0
    assert not E.has_good_reduction(2)
    assert not E.has_good_reduction(13)
    assert E.has_good_reduction(3)
    with pytest.raises(ValueError):
        EllipticCurve("x", (0, 0, 0, 0, 0), 11)  # singular
    with pytest.raises(ValueError):
        EllipticCurve("x", (0, 0, 0, 1), 11)  # wrong length


# ---- binary quadratic forms ----


def brute_represents(n, a, b, c):
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if a * x * x + b * x * y + c * y * y == n:
                return True
    return False


def test_quadform_examples():
    assert quadform_represents(59, 1, 0, 23)  # 59 = 36 + 23
    assert quadform_represents(23, 1, 0, 23)
    assert not quadform_represents(5, 1, 0, 23)
    assert quadform_represents(3, 1, 1, 1)  # x = y = 1


def test_quadform_against_brute_force():
    for p in primes_upto(150):
        assert quadform_represents(p, 1, 0, 23) == brute_represents(p, 1, 0, 23)
        assert quadform_represents(p, 2, 1, 3) == brute_represents(p, 2, 1, 3)
        assert quadform_represents(p, 1, 1, 6) == brute_represents(p, 1, 1, 6)


def grid_represents(n, a, b, c):
    # every solution has |x|, |y| <= sqrt(4 max(a, c) n / (4ac - b^2))
    r = math.isqrt(4 * max(a, c) * n // (4 * a * c - b * b)) + 1
    x = np.arange(-r, r + 1, dtype=np.int64)[:, None]
    y = np.arange(-r, r + 1, dtype=np.int64)[None, :]
    return bool(np.any(a * x * x + b * x * y + c * y * y == n))


def test_quadform_near_1e5_with_cross_terms():
    forms = [(2, 1, 3), (1, 1, 6), (3, 2, 5), (2, -1, 3), (4, 3, 7), (1, 1, 1)]
    seen = set()
    for p in (99_989, 99_991, 100_003, 100_019, 100_043):
        for form in forms:
            got = quadform_represents(p, *form)
            assert got == grid_represents(p, *form), (p, form)
            seen.add(got)
    assert seen == {True, False}


def test_quadform_rejects_indefinite_forms():
    with pytest.raises(ValueError):
        quadform_represents(5, 1, 5, 1)  # positive discriminant
    with pytest.raises(ValueError):
        quadform_represents(5, -1, 0, 23)
    with pytest.raises(ValueError):
        quadform_represents(5, 1, 2, 1)  # discriminant zero


# ---- datasets ----


def test_delta_dataset_small():
    ds = build_dataset(delta_coeffs(100, 23), 23, 100)
    assert len(ds) == 24  # 25 primes up to 100, minus p = 23
    assert dict(samples(ds))[5] == 4830 % 23
    assert ds.label == "delta" and ds.ell == 23


def test_curve_dataset_skips_bad_primes():
    E = curve_fixtures()["338d1"]
    ds = build_dataset(E, 5, 100)
    ps = [p for p, _ in samples(ds)]
    assert 2 not in ps and 13 not in ps and 5 not in ps
    assert ps == [p for p in primes_upto(100) if p not in (2, 5, 13)]
    for p, r in samples(ds):
        assert r == ap_point_count(E, p) % 5
    assert (ds.label, ds.level) == ("338d1", 338)


def test_curve_dataset_keeps_exactly_the_good_primes():
    for E in curve_fixtures().values():
        ps = curve_dataset(E, 500).p.tolist()
        assert ps == [p for p in primes_upto(500) if E.has_good_reduction(p)]
        assert ps == [p for p in primes_upto(500) if E.conductor * E.discriminant % p]


def test_curve_source_takes_level_and_label_from_the_curve():
    # each source labels its dataset itself: a curve at its conductor, a
    # series at its level, which also drops the primes dividing the level
    E = curve_fixtures()["338d1"]
    ds = build_dataset(E, 5, 100)
    assert (ds.label, ds.level) == ("338d1", 338)
    series = QSeries("f6", 2, 6, 0, np.arange(12, dtype=np.int64))
    ds = build_dataset(series, 5, 11)
    assert (ds.label, ds.level, samples(ds)) == ("f6", 6, ((7, 2), (11, 1)))
    for extra in (dict(level=338), dict(label="338d1")):
        with pytest.raises(TypeError):
            build_dataset(E, 5, 100, **extra)


def test_dataset_validators():
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((7, 1), (7, 2)))  # not increasing
    with pytest.raises(ValueError):
        ApDataset("x", 10, 5, ((5, 1),))  # p divides level*ell
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((7, 5),))  # unreduced value
    ds = ApDataset("x", 1, 5, ((7, 4), (11, 0)))
    assert ds.csv() == "p,ap_mod\n7,4\n11,0\n"


def test_dataset_columns_are_read_only_int64():
    ds = ApDataset("x", 1, 5, np.array([[7, 4], [11, 0]]))
    assert ds.p.dtype == ds.a.dtype == np.int64
    assert samples(ds) == ((7, 4), (11, 0)) and len(ds) == 2
    assert dict(samples(ds)) == {7: 4, 11: 0} and ds.attained() == [0, 4]
    with pytest.raises(ValueError):
        ds.p[0] = 13
    assert len(ApDataset("x", 1, 5, ())) == 0
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((7, 4, 1),))  # not a pair
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((2 ** 64 + 1, 1),))  # beyond int64
    level = 3 * 2 ** 70  # level * ell beyond int64
    assert samples(ApDataset("x", level, 5, ((7, 1),))) == ((7, 1),)
    with pytest.raises(ValueError):
        ApDataset("x", level, 5, ((3, 1),))


@pytest.mark.parametrize("pairs", [
    [(2.7, 1), (3.0, 4)],  # np.array(..., dtype=int64) would truncate to p = 2, 3
    [(True, 1)],  # and read True as 1
    [(7, 1j)],
    [(2 ** 70, 0.5)],
    np.array([[7.0, 1.0]]),
    np.array([[True, False]]),
    np.array([["7", "1"]]),
], ids=["floats", "bool", "complex", "big-int-and-float", "float-array", "bool-array",
        "str-array"])
def test_dataset_rejects_samples_that_are_not_integers(pairs):
    with pytest.raises(ValueError, match="must be integers"):
        ApDataset("x", 1, 0, pairs)


def test_dataset_keeps_the_int64_overflow_error():
    for pairs in (((2 ** 63, 1),), np.array([[2 ** 63, 1]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="beyond int64"):
            ApDataset("x", 1, 0, pairs)
    ok = ApDataset("x", 1, 0, [(np.int64(7), 1), (2 ** 63 - 1, np.int32(-2))])
    assert samples(ok) == ((7, 1), (2 ** 63 - 1, -2))
    assert samples(ApDataset("x", 1, 0, np.array([[7, 1]], dtype=np.uint8))) == ((7, 1),)


def test_dataset_owns_its_columns():
    cols = np.array([[7, 4], [11, 0]])
    ds = ApDataset("x", 1, 5, cols)
    cols[:] = [[13, 1], [17, 2]]
    assert samples(ds) == ((7, 4), (11, 0))
    # a transposed block is checked and copied the same way
    block = np.array([[7, 11], [4, 0]])
    ds = ApDataset("x", 1, 5, block.T)
    block[1] = 3
    assert samples(ds) == ((7, 4), (11, 0)) and ds.p.flags.c_contiguous


def test_dataset_csv_bytes_are_pinned():
    assert ApDataset("x", 1, 5, ()).csv() == "p,ap_mod\n"
    ds = ApDataset("x", 1, 0, ((3, -2), (5, 7), (7, 0), (2 ** 40 + 15, -5)))
    assert ds.csv() == "p,ap_mod\n3,-2\n5,7\n7,0\n1099511627791,-5\n"
    # md5 digests of the output before the join over the two columns
    exact = curve_dataset(curve_fixtures()["338d1"], 30_000)
    for ds, size, digest in ((exact, 30415, "0188aca76e86eede5615017115b18f63"),
                             (exact.reduce(5), 24530, "c0f0f861401a686602b2a58e818247f4")):
        text = ds.csv()
        assert len(text) == size and hashlib.md5(text.encode()).hexdigest() == digest


def test_exact_dataset_reduces_like_a_series():
    ds = ApDataset("x", 1, 0, ((3, -2), (5, 7), (7, 0), (11, -5)))
    assert ds.ell == 0 and ds.csv() == "p,ap_mod\n3,-2\n5,7\n7,0\n11,-5\n"
    d5 = ds.reduce(5)
    assert d5.ell == 5 and samples(d5) == ((3, 3), (7, 0), (11, 0))
    d6 = ds.reduce(6)
    assert samples(d6) == ((5, 1), (7, 0), (11, 1))
    assert samples(d6.reduce(2)) == ((5, 1), (7, 0), (11, 1))
    with pytest.raises(ValueError):
        d5.reduce(3)
    with pytest.raises(ValueError):
        ds.reduce(0)


def test_curve_dataset_is_exact():
    E = curve_fixtures()["338d1"]
    exact = curve_dataset(E, 200)
    assert exact.ell == 0 and exact.level == 338 and exact.label == "338d1"
    assert samples(exact) == tuple(
        (p, brute_ap(E, p)) for p in primes_upto(200) if p not in (2, 13))
    assert samples(build_dataset(E, 3, 200)) == samples(exact.reduce(3))


@st.composite
def datasets(draw):
    ell = draw(st.sampled_from([0, 2, 3, 7, 23, 3_000_000_019]))
    level = draw(st.integers(1, 60))
    ps = draw(st.lists(st.integers(2, 10 ** 9), unique=True, max_size=30))
    ps = sorted(p for p in ps if math.gcd(p, level * (ell or 1)) == 1)
    values = st.integers(0, ell - 1) if ell else st.integers(-10 ** 6, 10 ** 6)
    a = draw(st.lists(values, min_size=len(ps), max_size=len(ps)))
    return ApDataset("h", level, ell, list(zip(ps, a)))


@settings(max_examples=60)
@given(datasets())
def test_dataset_columns_round_trip_through_csv(ds: ApDataset):
    lines = ds.csv().splitlines()
    assert lines[0] == "p,ap_mod"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    again = ApDataset(ds.label, ds.level, ds.ell, rows)
    assert np.array_equal(again.p, ds.p) and np.array_equal(again.a, ds.a)
    assert samples(again) == samples(ds) == tuple(rows)


def test_build_dataset_requires_prime_ell():
    E = curve_fixtures()["608e1"]
    with pytest.raises(ValueError):
        build_dataset(E, 6, 100)


# ---- fixture files ----


def test_curve_fixture_checksums():
    fixtures = curve_fixtures()
    assert len(fixtures) == 6
    for label, E in fixtures.items():
        assert label.startswith(str(E.conductor))
        disc_primes = {p for p in primes_upto(100) if E.discriminant % p == 0}
        cond_primes = {p for p in primes_upto(100) if E.conductor % p == 0}
        assert disc_primes == cond_primes


def test_load_curve_file_rejects_mismatches(tmp_path):
    good = {"label": "324b1", "a": [0, 0, 0, 9, -18], "conductor": 324}
    path = tmp_path / "curves.jsonl"
    path.write_text(json.dumps(good) + "\n")
    assert "324b1" in load_curve_file(path)

    bad_support = dict(good, conductor=15, label="15b1")
    path.write_text(json.dumps(bad_support) + "\n")
    with pytest.raises(ValueError):
        load_curve_file(path)

    bad_label = dict(good, label="999b1")
    path.write_text(json.dumps(bad_label) + "\n")
    with pytest.raises(ValueError):
        load_curve_file(path)


def test_load_form_file(tmp_path):
    rec = {"label": "t1", "weight": 12, "level": 1,
           "coeffs": [1, -24, 252, -1472]}
    path = tmp_path / "forms.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    forms = load_form_file(path)
    assert list(forms) == ["t1"]
    series = forms["t1"]
    assert (series.label, series.weight, series.level) == ("t1", 12, 1)
    assert series.m == 0 and series.coeffs.tolist() == [0, 1, -24, 252, -1472]
    ds = build_dataset(series, 5, 3)
    assert samples(ds) == ((2, (-24) % 5), (3, 252 % 5))


GOOD_CURVE = {"label": "324b1", "a": [0, 0, 0, 9, -18], "conductor": 324}
GOOD_FORM = {"label": "t1", "weight": 2, "level": 1, "coeffs": [1, 2, 3, 4, 5]}


def _without(rec, key):
    return {k: v for k, v in rec.items() if k != key}


BAD_RECORDS = [
    # (id, loader, record, expected message)
    ("curve-a-float", load_curve_file, dict(GOOD_CURVE, a=[0, 0, 0, 9.0, -18]), "'a' must"),
    ("curve-a-bool", load_curve_file, dict(GOOD_CURVE, a=[0, False, 0, 9, -18]), "'a' must"),
    ("curve-a-str", load_curve_file, dict(GOOD_CURVE, a=[0, "0", 0, 9, -18]), "'a' must"),
    ("curve-conductor-float", load_curve_file, dict(GOOD_CURVE, conductor=324.0),
     "'conductor' must"),
    ("curve-conductor-str", load_curve_file, dict(GOOD_CURVE, conductor="324"),
     "'conductor' must"),
    ("curve-conductor-bool", load_curve_file, dict(GOOD_CURVE, conductor=True),
     "'conductor' must"),
    ("curve-label-int", load_curve_file, dict(GOOD_CURVE, label=324), "'label' must"),
    ("curve-missing-a", load_curve_file, _without(GOOD_CURVE, "a"), "lacks 'a'"),
    ("curve-missing-conductor", load_curve_file, _without(GOOD_CURVE, "conductor"),
     "lacks 'conductor'"),
    ("curve-list", load_curve_file, [0, 0, 0, 9, -18], "not a JSON object"),
    ("form-coeffs-float", load_form_file, dict(GOOD_FORM, coeffs=[1, 2.5, 3.7, 4, 5.2]),
     "'coeffs' must"),
    ("form-coeffs-bool", load_form_file, dict(GOOD_FORM, coeffs=[1, True, 3, 4, 5]),
     "'coeffs' must"),
    ("form-coeffs-str", load_form_file, dict(GOOD_FORM, coeffs=[1, "2", 3, 4, 5]),
     "'coeffs' must"),
    ("form-weight-float", load_form_file, dict(GOOD_FORM, weight=2.0), "'weight' must"),
    ("form-level-bool", load_form_file, dict(GOOD_FORM, level=True), "'level' must"),
    ("form-level-str", load_form_file, dict(GOOD_FORM, level="1"), "'level' must"),
    ("form-missing-coeffs", load_form_file, _without(GOOD_FORM, "coeffs"), "lacks 'coeffs'"),
    ("form-missing-weight", load_form_file, _without(GOOD_FORM, "weight"), "lacks 'weight'"),
    ("form-missing-label", load_form_file, _without(GOOD_FORM, "label"), "lacks 'label'"),
    ("form-level-zero", load_form_file, dict(GOOD_FORM, level=0), "'level' must be at least 1"),
    ("form-level-negative", load_form_file, dict(GOOD_FORM, level=-7),
     "'level' must be at least 1"),
    ("form-weight-zero", load_form_file, dict(GOOD_FORM, weight=0),
     "'weight' must be at least 1"),
    ("form-weight-negative", load_form_file, dict(GOOD_FORM, weight=-3),
     "'weight' must be at least 1"),
]


@pytest.mark.parametrize("loader, rec, message", [r[1:] for r in BAD_RECORDS],
                         ids=[r[0] for r in BAD_RECORDS])
def test_record_parsing_takes_only_ints(tmp_path, loader, rec, message):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=message):
        loader(path)


def test_duplicate_labels_are_rejected(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(GOOD_CURVE) + "\n" + json.dumps(GOOD_CURVE) + "\n")
    with pytest.raises(ValueError, match="duplicate label '324b1'"):
        load_curve_file(path)
    twice = [json.dumps(GOOD_FORM), json.dumps(dict(GOOD_FORM, coeffs=[1, 0, 0]))]
    path.write_text("\n".join(twice) + "\n")
    with pytest.raises(ValueError, match="duplicate label 't1'"):
        load_form_file(path)


def test_fixture_parser_rejects_duplicate_labels():
    line = json.dumps(GOOD_CURVE)
    assert list(_records([line, ""], _parse_curve)) == ["324b1"]
    with pytest.raises(ValueError, match="duplicate label"):
        _records([line, line], _parse_curve)


def test_form_file_keeps_big_coefficients_exact(tmp_path):
    big = 3 ** 50
    path = tmp_path / "forms.jsonl"
    path.write_text(json.dumps(dict(GOOD_FORM, coeffs=[1, big, -big])) + "\n")
    series, = load_form_file(path).values()
    assert series.coeffs.dtype == object
    assert series.coeffs.tolist() == [0, 1, big, -big]
    ds = build_dataset(series, 7, 3)
    assert samples(ds) == ((2, big % 7), (3, -big % 7))


def test_form_file_route_matches_delta_route(tmp_path):
    # the exact tau column, written out as a form file and reduced on load,
    # gives the same dataset as the series computed mod 23
    T = 3000
    exact = delta_coeffs(T)
    rec = {"label": "delta", "weight": 12, "level": 1,
           "coeffs": exact.coeffs[1:].tolist()}
    path = tmp_path / "delta.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    series, = load_form_file(path).values()
    assert series.coeffs.dtype == object  # tau(n) passes 2^63 below n = 3000
    via_file = build_dataset(series, 23, T)
    direct = build_dataset(delta_coeffs(T, 23), 23, T)
    assert (via_file.label, via_file.level) == (direct.label, direct.level) == ("delta", 1)
    assert len(direct) == 429  # 430 primes up to 3000, minus p = 23
    assert np.array_equal(via_file.p, direct.p)
    assert np.array_equal(via_file.a, direct.a)
