import json
import math

import pytest

from apcong.eigendata import (
    ApDataset,
    EllipticCurve,
    QSeries,
    ap_point_count,
    build_dataset,
    curve_fixtures,
    delta_coeffs,
    eta_qexp,
    load_curve_file,
    load_form_file,
    primes_upto,
    quadform_represents,
)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10_000)) == 1229


# ---- q-series and eta products ----


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
    eta = eta_qexp(T)
    assert eta.offset_24ths == 1
    assert list(eta.coeffs) == brute_eta_tail(T)


def test_eta_coefficients_are_pentagonal_signs():
    eta = eta_qexp(200)
    nonzero = {k: c for k, c in enumerate(eta.coeffs) if c}
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
    series = delta_coeffs(12)
    for n, want in TAU.items():
        assert series.coefficient(n) == want


def sigma11(n):
    return sum(d ** 11 for d in range(1, n + 1) if n % d == 0)


def test_tau_ramanujan_congruence_mod_691():
    series = delta_coeffs(200)
    for n in range(1, 201):
        assert series.coefficient(n) % 691 == sigma11(n) % 691


def test_tau_hecke_multiplicativity():
    series = delta_coeffs(150)
    assert series.coefficient(6) == series.coefficient(2) * series.coefficient(3)
    assert series.coefficient(10) == series.coefficient(2) * series.coefficient(5)
    assert series.coefficient(35) == series.coefficient(5) * series.coefficient(7)
    for p in (2, 3, 5, 7, 11):
        assert series.coefficient(p * p) == (
            series.coefficient(p) ** 2 - p ** 11)


def test_delta_reduction_consistency():
    exact = delta_coeffs(300)
    red = delta_coeffs(300, 23)
    for n in range(1, 301):
        assert red.coefficient(n) == exact.coefficient(n) % 23


def test_eta_times_eta23_is_delta_mod_23():
    # eta(q) eta(q^23) has integral q-expansion congruent to Delta mod 23
    T = 500
    a = eta_qexp(T, 23)
    spaced = [0] * (23 * (len(a.coeffs) - 1) + 1)
    for k, c in enumerate(a.coeffs):
        spaced[23 * k] = c
    b = QSeries(23, tuple(spaced[: T + 1]), offset_24ths=23)
    prod = a * b
    delta = delta_coeffs(T, 23)
    assert prod.offset_24ths == 24
    for n in range(1, prod.truncation + 1):
        assert prod.coefficient(n) == delta.coefficient(n)


def test_qseries_multiplication_rules():
    a = QSeries(0, (1, 2, 3))
    b = QSeries(0, (1, -1))
    ab = a * b
    assert ab.coeffs == (1, 1)  # truncated to the shorter series
    with pytest.raises(ValueError):
        a * QSeries(5, (1, 2))
    c = QSeries(6, (0, 2, 4), offset_24ths=24)
    assert c.reduce(3).coeffs == (0, 2, 1)
    with pytest.raises(ValueError):
        c.reduce(4)
    with pytest.raises(ValueError):
        QSeries(5, (0, 7))  # unreduced coefficient


def test_qseries_mod_product_overflow_guard():
    # four int64 products per coefficient: 4 (m - 1)^2 against 2^63
    m = 1518500250
    assert 4 * (m - 1) ** 2 < 2**63 <= 4 * m**2
    top = (m - 1,) * 4
    exact = QSeries(0, top) * QSeries(0, top)
    assert (QSeries(m, top) * QSeries(m, top)).coeffs == tuple(
        c % m for c in exact.coeffs)
    over = QSeries(m + 1, (m,) * 4)
    with pytest.raises(ValueError):
        over * over


def test_qseries_coefficient_requires_integral_offset():
    eta = eta_qexp(10)
    with pytest.raises(ValueError):
        eta.coefficient(1)


# ---- elliptic curves and point counts ----


def brute_ap(curve, p):
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


def test_quadform_rejects_indefinite_forms():
    with pytest.raises(ValueError):
        quadform_represents(5, 1, 5, 1)  # positive discriminant
    with pytest.raises(ValueError):
        quadform_represents(5, -1, 0, 23)
    with pytest.raises(ValueError):
        quadform_represents(5, 1, 2, 1)  # discriminant zero


# ---- datasets ----


def test_delta_dataset_small():
    ds = build_dataset(delta_coeffs(100, 23), 23, 100, level=1, label="delta")
    assert len(ds) == 24  # 25 primes up to 100, minus p = 23
    assert ds.values()[5] == 4830 % 23
    assert ds.label == "delta" and ds.ell == 23 and not ds.synthetic


def test_curve_dataset_skips_bad_primes():
    E = curve_fixtures()["338d1"]
    ds = build_dataset(E, 5, 100)
    ps = [p for p, _ in ds.samples]
    assert 2 not in ps and 13 not in ps and 5 not in ps
    assert ps == [p for p in primes_upto(100) if p not in (2, 5, 13)]
    for p, r in ds.samples:
        assert r == ap_point_count(E, p) % 5


def test_dataset_validators():
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((7, 1), (7, 2)))  # not increasing
    with pytest.raises(ValueError):
        ApDataset("x", 10, 5, ((5, 1),))  # p divides level*ell
    with pytest.raises(ValueError):
        ApDataset("x", 1, 5, ((7, 5),))  # unreduced value
    ds = ApDataset("x", 1, 5, ((7, 4), (11, 0)))
    assert ds.csv() == "p,ap_mod\n7,4\n11,0\n"


def test_build_dataset_requires_prime_ell():
    E = curve_fixtures()["608e1"]
    with pytest.raises(ValueError):
        build_dataset(E, 6, 100)


def test_form_dataset_requires_level():
    with pytest.raises(ValueError):
        build_dataset(delta_coeffs(50, 23), 23, 50)


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
    assert len(forms) == 1
    label, weight, level, series = forms[0]
    assert (label, weight, level) == ("t1", 12, 1)
    assert series.coefficient(2) == -24
    ds = build_dataset(series, 5, 3, level=1, label="t1")
    assert ds.samples == ((2, (-24) % 5), (3, 252 % 5))
