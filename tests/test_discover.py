from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcong.abelian import density_c
from apcong.constructions import borel, gl2, sl2, split_cartan_normalizer
from apcong.discover import (
    ClassCongruence,
    InsufficientDataError,
    _s0_mod39,
    _units,
    best_modulus,
    closed_loop_check,
    delta_partition_check,
    discover_class,
    discover_report,
    divisors,
    kronecker_column,
    legendre_candidates,
    legendre_fit,
    sample_dataset,
    synthetic_model,
    vanishing_rule_check,
    verify_class_rule,
    verify_fixture_tables,
    verify_trace_menu,
)
from apcong.eigendata import (
    ApDataset,
    EllipticCurve,
    build_dataset,
    curve_fixtures,
    delta_coeffs,
    primes_upto,
)
from apcong.ffield import kronecker, legendre, make_field
from apcong.matgrp import close_group, identity

from helpers import random_subgroups


def craft(ell, assign, p_max=500, level=1):
    samples = []
    for p in primes_upto(p_max):
        if (level * ell) % p == 0:
            continue
        a = assign(p)
        if a is not None:
            samples.append((p, a % ell))
    return ApDataset("craft", level, ell, tuple(samples))


def test_units_and_divisors():
    assert _units(1) == [0]
    assert _units(12) == [1, 5, 7, 11]
    assert divisors(1) == [1]
    assert divisors(312) == [1, 2, 3, 4, 6, 8, 12, 13, 24, 26, 39, 52,
                             78, 104, 156, 312]


# ---- per-class discovery on handcrafted data ----


def iff_dataset():
    # a_p = 0 exactly when p = 1 mod 4; classes 1 and 2 split the rest
    return craft(3, lambda p: 0 if p % 4 == 1 else (1 if p % 8 == 3 else 2))


def mixed_dataset():
    # class 1 mod 4 forces a_p = 0, but 0 also leaks into class 3
    return craft(3, lambda p: 0 if p % 4 == 1 or p % 8 == 3 else 1)


def test_discover_class_iff():
    e = discover_class(iff_dataset(), 0, 4)
    assert e.direction == "iff"
    assert e.sup == e.nec == frozenset({1})
    assert e.s_x == frozenset({1})
    assert e.min_class_count >= 5


def test_discover_class_implies():
    e = discover_class(iff_dataset(), 1, 4)
    assert e.direction == "implies"
    assert e.sup == frozenset()
    assert e.nec == frozenset({3})
    assert e.s_x == frozenset({3})  # implies reports the necessary set


def test_discover_class_implied_by():
    e = discover_class(mixed_dataset(), 0, 4)
    assert e.direction == "implied_by"
    assert e.sup == frozenset({1})
    assert e.nec == frozenset({1, 3})
    assert e.s_x == frozenset({1})


def test_min_per_class_downgrades_iff():
    e = discover_class(iff_dataset(), 0, 4, min_per_class=10 ** 6)
    assert e.direction == "implied_by"  # same sets, too few samples per class


def test_discover_class_reduces_x():
    ds = iff_dataset()
    assert discover_class(ds, -2, 4) == discover_class(ds, 1, 4)


def test_discover_class_modulus_one():
    e = discover_class(iff_dataset(), 0, 1)
    assert e.direction == "implies" and e.nec == frozenset({0})
    with pytest.raises(ValueError):
        discover_class(iff_dataset(), 0, 0)


def test_insufficient_data():
    ds = craft(3, lambda p: 0 if p % 8 != 5 else None)
    with pytest.raises(InsufficientDataError):
        discover_class(ds, 0, 8)


# ---- the weight-12 level-1 worked example ----


def delta_ds(p_max=3000):
    return build_dataset(delta_coeffs(p_max, 23), 23, p_max,
                         level=1, label="delta")


def test_delta_vanishing_is_iff_on_nonsquares():
    e = discover_class(delta_ds(), 0, 23)
    nonres = frozenset(r for r in range(1, 23) if legendre(r, 23) == -1)
    assert e.direction == "iff"
    assert e.s_x == nonres and len(nonres) == 11


def test_delta_other_classes_only_imply():
    ds = delta_ds()
    squares = frozenset(r for r in range(1, 23) if legendre(r, 23) == 1)
    for x in (2, 22):
        e = discover_class(ds, x, 23)
        assert e.direction == "implies"
        assert e.sup == frozenset()
        assert e.nec == squares


def test_delta_best_modulus():
    e = best_modulus(delta_ds(), 0, 23)
    assert e is not None and e.modulus == 23 and e.direction == "iff"


def test_legendre_candidates():
    assert legendre_candidates(1, 23) == [-1, 23, -23]
    # 338 * 3: rad = 2*13*3 = 78, odd part so no 4-fold correction beyond 2
    cands = legendre_candidates(338, 3)
    assert 1 not in cands and -1 in cands
    assert all(c != 0 for c in cands)
    assert cands == sorted(cands, key=lambda m: (abs(m), m < 0))
    assert {abs(c) for c in cands} == set(divisors(312))  - {1} | {1}


def test_legendre_fit_on_delta():
    ds = delta_ds()
    assert legendre_fit(ds, 0, legendre_candidates(1, 23)) == ((-23, "iff"),)


def test_legendre_fit_filters_vacuous_premises():
    # every sample has p = 1 mod 4, so (-1/p) = -1 never fires
    ds = craft(3, lambda p: 0 if p % 4 == 1 else None)
    assert legendre_fit(ds, 0, (-1,)) == ()
    with pytest.raises(ValueError):
        legendre_fit(ds, 0, (0,))


@settings(max_examples=80)
@given(st.integers(-2000, 2000).filter(bool),
       st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=300))
def test_kronecker_column_matches_the_per_sample_loop(m, ns):
    # any positive n: odd ones share a class mod 4|m|, even ones do not
    n = np.array(ns + [2, 2 * abs(m), abs(m), 4 * abs(m) + 1], dtype=np.int64)
    assert kronecker_column(m, n).tolist() == [kronecker(m, k) for k in n.tolist()]


def test_kronecker_column_on_primes_of_every_class():
    ps = np.array(primes_upto(30_000), dtype=np.int64)
    for m in legendre_candidates(50700, 13) + [-23, 3, 7, 11, -1, 2, -2]:
        assert kronecker_column(m, ps).tolist() == [kronecker(m, p) for p in ps.tolist()]


def test_legendre_fit_one_way():
    # (-1/p) = -1 forces a_p = 0 but zeros also occur at p = 1 mod 4
    ds = craft(3, lambda p: 0 if p % 4 == 3 or p % 8 == 1 else 1)
    assert legendre_fit(ds, 0, (-1,)) == ((-1, "implied_by"),)


# ---- reports ----


def test_discover_report_content():
    rep = discover_report(delta_ds(), 23, candidates=legendre_candidates(1, 23))
    assert set(rep.per_class) == {0, 2, 22}  # the three attained classes
    j = rep.to_json()
    assert j["classes"]["0"]["direction"] == "iff"
    assert j["legendre_fits"] == [[-23, "iff"]]
    text = rep.table()
    assert "a_p = 0 <=> p in {5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22}" in text
    assert "(-23/p) = -1 implies a_p = 0  [iff]" in text
    assert "a_p = 2 ==> p in" in text


def test_discover_report_deterministic():
    a = discover_report(delta_ds(), 23).to_json()
    b = discover_report(delta_ds(), 23).to_json()
    assert a == b


# ---- the vanishing rule ----


def test_vanishing_rule_delta_holds():
    res = vanishing_rule_check(delta_ds())
    assert res.holds
    assert res.forward_violations == () and res.backward_violations == ()
    assert res.zero_classes == frozenset(
        r for r in range(1, 23) if legendre(r, 23) == -1)


def test_vanishing_rule_608e1_mod5_fails():
    ds = build_dataset(curve_fixtures()["608e1"], 5, 2000)
    res = vanishing_rule_check(ds)
    assert not res.holds
    assert res.forward_violations  # vanishing at squares mod 5 does occur
    for p in res.forward_violations:
        assert legendre(p % 5, 5) == 1 and ds.values()[p] == 0


# ---- table verification primitives ----


def menu_dataset():
    def assign(p):
        if p % 3 == 0:
            return None
        return 1 if p % 3 == 1 else (2 if p % 4 == 1 else 3)

    return craft(5, assign)


def test_verify_trace_menu():
    ds = menu_dataset()
    v, complete = verify_trace_menu(ds, 3, {1: {1}, 2: {2, 3}})
    assert v == () and complete
    v, complete = verify_trace_menu(ds, 3, {1: {1}, 2: {2, 3, 4}})
    assert v == () and not complete  # 4 never attained
    v, complete = verify_trace_menu(ds, 3, {1: {1}, 2: {2, 3, 4}}, sharp=False)
    assert v == () and complete
    v, _ = verify_trace_menu(ds, 3, {1: {1}})
    assert v and all("not in table" in s for s in v)
    v, _ = verify_trace_menu(ds, 3, {1: {1}, 2: {2}})
    assert any("a_p=3 not allowed" in s for s in v)


def test_verify_class_rule():
    ds = menu_dataset()
    assert verify_class_rule(ds, 3, {1: {1}}, two_way=False) == ()
    v = verify_class_rule(ds, 3, {1: {1, 2}}, two_way=True)
    assert v and all("forces a_p=1" in s for s in v)
    v = verify_class_rule(ds, 3, {2: {1}}, two_way=False)
    assert v and all("outside row" in s for s in v)


def loop_trace_menu(ds, M, menu):
    # per-sample reference for verify_trace_menu's violations
    out = []
    for p, a in ds.samples:
        r = p % M
        if r not in menu:
            out.append(f"p={p}: class {r} mod {M} not in table")
        elif a not in menu[r]:
            out.append(f"p={p}: a_p={a} not allowed in class {r} mod {M}")
    return tuple(out)


def loop_class_rule(ds, M, rule, two_way):
    # per-sample reference for verify_class_rule
    out = []
    for p, a in ds.samples:
        r = p % M
        if a in rule and r not in rule[a]:
            out.append(f"p={p}: a_p={a} but p={r} mod {M} outside row")
        if two_way:
            for x, cls in rule.items():
                if r in cls and a != x:
                    out.append(f"p={p}: p={r} mod {M} forces a_p={x}, got {a}")
    return tuple(out)


def test_violations_match_per_sample_loops():
    ds = menu_dataset()
    for menu in ({1: {1}}, {1: {1}, 2: {2}}, {2: {3, 4}}):
        v, _ = verify_trace_menu(ds, 3, menu)
        assert v and v == loop_trace_menu(ds, 3, menu)
    for rule, two_way in (({1: {1, 2}}, True), ({2: {1}, 3: {2}}, False),
                          ({1: {2}, 2: {1, 2}}, True)):
        v = verify_class_rule(ds, 3, rule, two_way)
        assert v and v == loop_class_rule(ds, 3, rule, two_way)


# ---- packaged example curves, end to end ----


def test_fixture_tables_all_pass():
    checks = verify_fixture_tables(curve_fixtures(), p_max=10_000)
    assert len(checks) == 12
    assert {c.label for c in checks} == set(curve_fixtures())
    for c in checks:
        assert c.ok, (c.label, c.name, c.violations[:3])


def test_fixture_tables_subset_and_tamper():
    fixtures = curve_fixtures()
    only = verify_fixture_tables({"338d1": fixtures["338d1"]}, p_max=600)
    assert {c.label for c in only} == {"338d1"} and len(only) == 5
    # a wrong model with the right label must trip the tables
    bogus = EllipticCurve("338d1", (1, 1, 0, 505, -13112), 338)
    checks = verify_fixture_tables({"338d1": bogus}, p_max=600)
    assert any(c.violations for c in checks)


def test_fixture_tables_count_each_curve_once(monkeypatch):
    import apcong.eigendata

    counted = []
    real = apcong.eigendata._ap_kernel

    def counting(E, ps):
        counted.extend((E.label, p) for p in ps.tolist())
        return real(E, ps)

    monkeypatch.setattr(apcong.eigendata, "_ap_kernel", counting)
    checks = verify_fixture_tables(curve_fixtures(), p_max=600)
    assert len(checks) == 12
    assert len(counted) == len(set(counted))
    assert {label for label, _ in counted} == set(curve_fixtures())


def test_delta_partition_keeps_its_dataset():
    res = delta_partition_check(300)
    assert res.dataset.samples == delta_ds(300).samples
    assert res.checked == len(res.dataset)


def test_338d1_best_modulus_mod3():
    ds3 = build_dataset(curve_fixtures()["338d1"], 3, 3000)
    e = best_modulus(ds3, 0, 312)
    assert e is not None and e.modulus == 39 and e.direction == "iff"
    assert e.s_x == _s0_mod39() and len(e.s_x) == 18
    assert best_modulus(ds3, 1, 312) is None
    assert best_modulus(ds3, 2, 312) is None
    # at the intermediate modulus 13 the rule is one-way only
    e13 = discover_class(ds3, 0, 13)
    assert e13.direction == "implied_by"
    assert e13.sup == frozenset(
        r for r in range(1, 13) if legendre(r, 13) == -1)


def test_delta_partition_small():
    res = delta_partition_check(1000)
    assert res.ok and res.checked == 167  # 168 primes up to 1000, minus 23


# ---- synthetic closed loop ----


def test_synthetic_model_structure():
    G = borel(make_field(5))
    model = synthetic_model(G)
    assert model.ell == 5
    assert set(model.assignment) == set(_units(model.modulus))
    k = model.data.const.size
    fibers = [0] * k
    for idx in model.assignment.values():
        fibers[idx] += 1
    total = len(model.assignment)
    assert all(f == total // k for f in fibers)  # balanced surjection
    for x in range(5):
        sup, nec = model.predicted(x)
        assert sup <= nec


def test_synthetic_model_rejects_extension_fields():
    spec9 = make_field(3, 2)
    G = close_group(spec9, [identity(spec9)])
    with pytest.raises(ValueError):
        synthetic_model(G)


def test_sample_dataset_invariants():
    model = synthetic_model(borel(make_field(5)))
    ds = sample_dataset(model, 3000, seed=7)
    assert ds.synthetic and ds.ell == 5 and len(ds) == 3000
    data = model.data
    pairs = set(zip(data.pair_coset.tolist(), data.pair_trace.tolist()))
    for p, a in ds.samples:
        assert (model.assignment[p % model.modulus], a) in pairs
    again = sample_dataset(model, 3000, seed=7)
    assert again.samples == ds.samples
    other = sample_dataset(model, 3000, seed=8)
    assert other.samples != ds.samples


def test_closed_loop_named_groups():
    F3, F5 = make_field(3), make_field(5)
    for G in (gl2(F3), sl2(F3), borel(F5), split_cartan_normalizer(F5)):
        res = closed_loop_check(G, n=20_000, seed=3)
        assert res.ok, (G.order, res.mismatches[:2])
        assert res.matched_classes == G.spec.p
        assert res.predicted_zero == density_c(G)
        assert abs(float(res.empirical_zero - res.predicted_zero)) <= 3 / 20_000 ** 0.5


def test_closed_loop_perfect_group_uses_trivial_modulus():
    res = closed_loop_check(sl2(make_field(5)), n=20_000, seed=1)
    assert res.modulus == 1 and res.ok
    assert res.predicted_zero == Fraction(1, 4)


def test_random_subgroups_deterministic():
    spec = make_field(5)
    a = random_subgroups(spec, 6, seed=11)
    b = random_subgroups(spec, 6, seed=11)
    assert [g.order for g in a] == [g.order for g in b]
    assert [g.elements for g in a] == [g.elements for g in b]
    keys = {g.elements for g in a}
    assert len(keys) == 6  # pairwise distinct
    for g in a:
        assert 480 % g.order == 0  # Lagrange inside GL2(F5)
