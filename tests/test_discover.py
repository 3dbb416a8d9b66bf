import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcong.abelian import density_c
from apcong.constructions import (
    a4_lift,
    borel,
    dihedral_lift,
    gl2,
    nonsplit_cartan_normalizer,
    sl2,
    split_cartan_normalizer,
)
from apcong.discover import (
    InsufficientDataError,
    TableCheck,
    _bounded,
    _s0_mod39,
    _statements,
    _units,
    best_modulus,
    check_allowed,
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
    vanishing_statement,
    verify_fixture_tables,
    x2_plus_23y2,
)
from apcong.eigendata import (
    ApDataset,
    EllipticCurve,
    build_dataset,
    curve_dataset,
    curve_fixtures,
    delta_coeffs,
    primes_upto,
)
from apcong.ffield import kronecker, legendre, make_field
from apcong.matgrp import close_group, coset_of, enumerate_subgroups, identity, mul_codes

from helpers import quadform_represents, random_subgroups, samples, vanishing_rule_check


def craft(ell, assign, p_max=500, level=1):
    pairs = []
    for p in primes_upto(p_max):
        if (level * ell) % p == 0:
            continue
        a = assign(p)
        if a is not None:
            pairs.append((p, a % ell))
    return ApDataset("craft", level, ell, tuple(pairs))


def test_units_and_divisors():
    assert _units(1) == [0]
    assert _units(12) == [1, 5, 7, 11]
    assert divisors(1) == [1]
    assert divisors(312) == [1, 2, 3, 4, 6, 8, 12, 13, 24, 26, 39, 52,
                             78, 104, 156, 312]


# ---- per-class discovery on handcrafted data ----


def iff_dataset(p_max=500):
    # a_p = 0 exactly when p = 1 mod 4; classes 1 and 2 split the rest
    return craft(3, lambda p: 0 if p % 4 == 1 else (1 if p % 8 == 3 else 2), p_max)


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
    # iff needs 5 samples in every class: p <= 36 has four p = 1 mod 4
    # (5, 13, 17, 29) and p <= 40 five
    e = discover_class(iff_dataset(36), 0, 4)
    assert e.sup == e.nec == frozenset({1}) and e.min_class_count == 4
    assert e.direction == "implied_by"  # same sets, too few samples per class
    assert discover_class(iff_dataset(40), 0, 4).direction == "iff"


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
    return build_dataset(delta_coeffs(p_max, 23), 23, p_max)


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
    assert legendre_fit(ds, legendre_candidates(1, 23)) == ((-23, "iff"),)


def test_legendre_fit_filters_vacuous_premises():
    # every sample has p = 1 mod 4, so (-1/p) = -1 never fires
    ds = craft(3, lambda p: 0 if p % 4 == 1 else None)
    assert legendre_fit(ds, (-1,)) == ()
    with pytest.raises(ValueError):
        legendre_fit(ds, (0,))


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
    assert legendre_fit(ds, (-1,)) == ((-1, "implied_by"),)


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


EXACT_DATASET_CALLS = {
    "discover_class": lambda ds: discover_class(ds, 0, 3),
    "discover_report": lambda ds: discover_report(ds, 3),
    "best_modulus": lambda ds: best_modulus(ds, 0, 12),
}


@pytest.mark.parametrize("call", EXACT_DATASET_CALLS.values(), ids=EXACT_DATASET_CALLS)
def test_exact_datasets_are_rejected_before_any_arithmetic(call):
    # curve_dataset keeps exact a_p (ell = 0): a residue class needs a modulus
    ds = curve_dataset(curve_fixtures()["338d1"], 200)
    assert ds.ell == 0 and len(ds)
    with pytest.raises(ValueError, match=r"338d1 holds exact a_p \(ell = 0\); reduce it mod"):
        call(ds)
    call(ds.reduce(3))


# ---- the vanishing rule ----


def test_vanishing_rule_delta_holds():
    ds = delta_ds()
    res = vanishing_rule_check(ds)
    assert res.holds
    assert res.nonsquares == sum(legendre(p, 23) == -1 for p in ds.p.tolist())
    assert res.forward_violations == () and res.backward_violations == ()
    assert res.zero_classes == frozenset(
        r for r in range(1, 23) if legendre(r, 23) == -1)


def test_vanishing_rule_needs_a_nonsquare_prime():
    # 2 and 3 are squares mod 23: no violation, but nothing to hold on
    res = vanishing_rule_check(delta_ds(4))
    assert res.nonsquares == 0 and not res.holds
    assert res.forward_violations == () and res.backward_violations == ()
    # 5 is the least nonsquare prime
    res = vanishing_rule_check(delta_ds(5))
    assert res.nonsquares == 1 and res.holds


def test_vanishing_rule_608e1_mod5_fails():
    ds = build_dataset(curve_fixtures()["608e1"], 5, 2000)
    res = vanishing_rule_check(ds)
    assert not res.holds
    assert res.forward_violations  # vanishing at squares mod 5 does occur
    for p in res.forward_violations:
        assert legendre(p % 5, 5) == 1 and dict(samples(ds))[p] == 0


# ---- table verification primitives ----


def menu_dataset():
    def assign(p):
        if p % 3 == 0:
            return None
        return 1 if p % 3 == 1 else (2 if p % 4 == 1 else 3)

    return craft(5, assign)


def menu_table(M, ell, menu):
    # rows keyed by p mod M list the allowed a_p
    return np.array([[a in menu.get(r, ()) for a in range(ell)] for r in range(M)])


def rule_table(M, ell, rule, two_way):
    # rows keyed by a_p list the allowed p mod M; a two-way row also forces its value
    return np.array([[(a not in rule or r in rule[a])
                      and not (two_way and any(r in c and a != x for x, c in rule.items()))
                      for a in range(ell)] for r in range(M)])


def loop_menu(ds, M, menu):
    # per-sample reference for a menu table
    return tuple(f"p={p}: a_p={a} not allowed in class {p % M} mod {M}"
                 for p, a in samples(ds) if a not in menu.get(p % M, ()))


def loop_rule(ds, M, rule, two_way):
    # per-sample reference for a rule table
    out = []
    for p, a in samples(ds):
        r = p % M
        bad = a in rule and r not in rule[a]
        bad |= two_way and any(r in c and a != x for x, c in rule.items())
        if bad:
            out.append(f"p={p}: a_p={a} not allowed in class {r} mod {M}")
    return tuple(out)


def test_check_allowed_menus():
    ds = menu_dataset()
    allowed = menu_table(3, 5, {1: {1}, 2: {2, 3}})
    v, seen = check_allowed(ds, allowed)
    assert v == () and np.array_equal(seen, allowed)  # complete
    allowed = menu_table(3, 5, {1: {1}, 2: {2, 3, 4}})
    v, seen = check_allowed(ds, allowed)
    assert v == () and not np.array_equal(seen, allowed)  # 4 never attained
    v, _ = check_allowed(ds, menu_table(3, 5, {1: {1}}))
    assert v and all("in class 2 mod 3" in s for s in v)  # residue 2 missing
    v, _ = check_allowed(ds, menu_table(3, 5, {1: {1}, 2: {2}}))
    assert any("a_p=3 not allowed" in s for s in v)  # value 3 missing from row 2


def test_check_allowed_rules():
    ds = menu_dataset()
    v, seen = check_allowed(ds, rule_table(3, 5, {1: {1}}, two_way=False))
    assert v == () and seen[:, 1].tolist() == [False, True, False]
    # p = 2 mod 3 in the two-way row of 1 forces a_p = 1, but 2 and 3 occur
    v, _ = check_allowed(ds, rule_table(3, 5, {1: {1, 2}}, two_way=True))
    assert v and all("a_p=1" not in s and "in class 2 mod 3" in s for s in v)
    v, _ = check_allowed(ds, rule_table(3, 5, {2: {1}}, two_way=False))
    assert v and all("a_p=2 not allowed in class 2" in s for s in v)
    with pytest.raises(ValueError, match="table is mod 3, data mod 5"):
        check_allowed(ds, np.ones((3, 3), dtype=bool))


def test_check_allowed_matches_per_sample_loops():
    ds = menu_dataset()
    pairs = {(p % 3, a) for p, a in samples(ds)}
    for menu in ({1: {1}}, {1: {1}, 2: {2}}, {2: {3, 4}}):
        v, seen = check_allowed(ds, menu_table(3, 5, menu))
        assert v and v == loop_menu(ds, 3, menu)
        assert {tuple(c) for c in np.argwhere(seen).tolist()} == pairs
    for rule, two_way in (({1: {1, 2}}, True), ({2: {1}, 3: {2}}, False),
                          ({1: {2}, 2: {1, 2}}, True)):
        v, _ = check_allowed(ds, rule_table(3, 5, rule, two_way))
        assert v and v == loop_rule(ds, 3, rule, two_way)


# ---- packaged example curves, end to end ----


def test_fixture_tables_all_pass():
    checks = verify_fixture_tables(curve_fixtures(), p_max=10_000)
    assert len(checks) == 12
    assert {c.label for c in checks} == set(curve_fixtures())
    for c in checks:
        assert c.ok, (c.label, c.name, c.violations[:3])
    assert [c.detail for c in checks if c.detail] == ["both zero and nonzero a_p occur"]


CONVERSE = "converse fails at p = 1, 9 mod 20"


def tampered_tables(monkeypatch, change, p_max) -> list[TableCheck]:
    # every curve's exact a_p replaced by change(a_p) before reduction
    import apcong.discover

    real = apcong.discover.curve_datasets

    def tampered(curves, bound):
        return [ApDataset(ds.label, ds.level, 0, np.column_stack((ds.p, change(ds.a))))
                for ds in real(curves, bound)]

    monkeypatch.setattr(apcong.discover, "curve_datasets", tampered)
    return verify_fixture_tables(curve_fixtures(), p_max)


def test_every_printed_statement_can_fail(monkeypatch):
    checks = tampered_tables(monkeypatch, lambda a: a + 1, 10_000)
    assert len(checks) == 12
    assert [c.name for c in checks if c.ok] == [CONVERSE]
    assert all(c.violations for c in checks if not c.ok)  # each names its samples
    checks = tampered_tables(monkeypatch, lambda a: 0 * a, 10_000)
    converse, = (c for c in checks if c.name == CONVERSE)
    assert not converse.ok and converse.violations == () and converse.detail == ""


def test_vanishing_statement_matches_vanishing_rule_check():
    # the packaged 2450ba1 statement mod 7 and the delta statement mod 23,
    # each against the sample-by-sample oracle on shifted and unshifted data
    packaged, = (s for s in _statements() if s.name == "square/nonsquare vanishing rule")
    assert packaged.label == "2450ba1"
    cases = [(packaged, build_dataset(curve_fixtures()["2450ba1"], 7, p_max), p_max, shift)
             for p_max, shift in ((600, 0), (600, 1), (3000, 3), (12, 0))]
    delta = vanishing_statement("delta", 23)
    cases += [(delta, delta_ds(p_max), p_max, shift)
              for p_max in (4, 5, 2000) for shift in (0, 1)]
    for st, ds, p_max, shift in cases:
        ell = st.allowed.shape[1]
        ds = ApDataset(ds.label, ds.level, ell, np.column_stack((ds.p, (ds.a + shift) % ell)))
        rule = vanishing_rule_check(ds)
        v, seen = check_allowed(ds, st.allowed)
        assert (not v and st.holds(seen, st.allowed)) == rule.holds, (st.label, p_max, shift)
        assert [int(s[2:s.index(":")]) for s in v] == sorted(
            rule.forward_violations + rule.backward_violations)


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

    counted, calls = [], []
    real = apcong.eigendata._ap_kernel

    def counting(curves: list[EllipticCurve], c, ps):
        calls.append(len(ps))
        counted.extend((curves[i].label, p) for i, p in zip(c.tolist(), ps.tolist()))
        return real(curves, c, ps)

    monkeypatch.setattr(apcong.eigendata, "_ap_kernel", counting)
    checks = verify_fixture_tables(curve_fixtures(), p_max=600)
    assert len(checks) == 12
    assert calls == [len(counted)]  # every curve in one pooled kernel call
    assert len(counted) == len(set(counted))
    assert {label for label, _ in counted} == set(curve_fixtures())


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixture_tables_working_set_and_kernel_passes(monkeypatch):
    # the kernel's per-lane arrays stay under its byte budget, and the lanes
    # that a chunk leaves undecided retry with those of every other chunk
    import apcong.eigendata

    lanes = []
    real = apcong.eigendata._mestre_pass

    def counting(A, B, p, w, x0):
        lanes.append(len(p))
        return real(A, B, p, w, x0)

    monkeypatch.setattr(apcong.eigendata, "_mestre_pass", counting)
    curves = curve_fixtures()
    checks, peak = _traced_peak(verify_fixture_tables, curves, 10_000)
    assert [c.ok for c in checks] == [True] * 12
    assert peak <= 3.5 * 2 ** 20  # 7.8 MB (2^20 bytes) with dense candidates
    assert len(lanes) <= 11
    assert max(lanes[1:]) < lanes[0]


def test_delta_partition_keeps_its_dataset():
    res = delta_partition_check(300)
    assert samples(res.dataset) == samples(delta_ds(300))
    assert res.checked == len(res.dataset)


def test_the_338d1_mod_2_primes_read_kronecker_as_legendre():
    ds2 = build_dataset(curve_fixtures()["338d1"], 2, 3000)
    assert ds2.p.min() > 2 and not (ds2.p % 13 == 0).any()
    assert kronecker_column(-26, ds2.p).tolist() == [legendre(-26, p) for p in ds2.p.tolist()]


def test_x2_plus_23y2_sieve_matches_quadform_represents():
    mask = x2_plus_23y2(20_000)
    ps = primes_upto(20_000)
    assert mask[ps].tolist() == [quadform_represents(p, 1, 0, 23) for p in ps]
    assert np.flatnonzero(x2_plus_23y2(30)).tolist() == [0, 1, 4, 9, 16, 23, 24, 25, 27]


def test_delta_partition_reports_violations_in_prime_order(monkeypatch):
    import apcong.discover

    def tampered(*args, **kw):
        ds = build_dataset(*args, **kw)
        a = ds.a.copy()
        a[[7, 2, 40]] = (a[[7, 2, 40]] + 1) % 23
        return ApDataset(ds.label, ds.level, ds.ell, np.stack((ds.p, a), axis=1))

    monkeypatch.setattr(apcong.discover, "build_dataset", tampered)
    res = delta_partition_check(1000)
    want = []
    for p, got in samples(res.dataset):
        if kronecker(-23, p) == -1:
            expect = 0
        elif quadform_represents(p, 1, 0, 23):
            expect = 2
        else:
            expect = 22
        if got != expect:
            want.append(f"p={p}: tau={got}, expected {expect}")
    assert len(want) == 3 and res.violations == tuple(want)


def test_a_modulus_past_the_largest_prime_is_insufficient():
    ds = build_dataset(curve_fixtures()["338d1"], 3, 100)
    M = int(ds.p[-1]) + 2
    for modulus in (M, M + 1, 10 ** 30):
        with pytest.raises(InsufficientDataError, match=f"class {modulus - 1} mod"):
            discover_class(ds, 0, modulus)


def test_best_modulus_matches_the_full_divisor_sweep():
    def sweep(ds, x, bound):
        for M in divisors(bound):
            try:
                e = discover_class(ds, x, M)
            except InsufficientDataError:
                continue
            if e.direction == "iff":
                return e
        return None

    ds3 = build_dataset(curve_fixtures()["338d1"], 3, 3000)
    for bound in (312, 5 * 312, 2 ** 6 * 3 ** 4 * 13, 3001 * 39):
        for x in range(3):
            assert best_modulus(ds3, x, bound) == sweep(ds3, x, bound)


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


@pytest.mark.parametrize("p", [3, 5])
def test_synthetic_assignment_is_a_surjective_homomorphism(p):
    # on every subgroup of GL_2(F_p): the units mod M map onto G/[G, G]
    # with balanced fibres, and the coset of rep_r rep_s is that of r s
    spec = make_field(p)
    for G in enumerate_subgroups(gl2(spec)):
        model = synthetic_model(G)
        H, M = model.data.commutator, model.modulus
        label = coset_of(G, H, G.codes)
        n = int(label.max()) + 1
        rep = G.codes[np.unique(label, return_index=True)[1]]
        units = np.array(sorted(model.assignment))
        image = np.array([model.assignment[r] for r in units.tolist()])
        assert np.bincount(image, minlength=n).tolist() == [units.size // n] * n
        table = np.zeros(M, dtype=np.int64)
        table[units] = image
        prod = mul_codes(spec, rep[image][:, None], rep[image][None, :])
        assert np.array_equal(coset_of(G, H, prod), table[units[:, None] * units % M])


def test_benchmark_closed_loop_moduli():
    F5, F7 = make_field(5), make_field(7)
    groups = [(borel(F5), 65), (split_cartan_normalizer(F5), 15), (gl2(F5), 5),
              (a4_lift(F5), 7), (nonsplit_cartan_normalizer(F7), 21),
              (dihedral_lift(F7, 3), 21)]
    assert [synthetic_model(G).modulus for G, _ in groups] == [M for _, M in groups]


def test_synthetic_model_rejects_extension_fields():
    spec9 = make_field(3, 2)
    G = close_group(spec9, [identity(spec9)])
    with pytest.raises(ValueError):
        synthetic_model(G)


def test_sample_dataset_invariants():
    model = synthetic_model(borel(make_field(5)))
    ds = sample_dataset(model, 3000, seed=7)
    assert ds.ell == 5 and len(ds) == 3000
    data = model.data
    pairs = set(zip(data.pair_coset.tolist(), data.pair_trace.tolist()))
    for p, a in samples(ds):
        assert (model.assignment[p % model.modulus], a) in pairs
    again = sample_dataset(model, 3000, seed=7)
    assert samples(again) == samples(ds)
    other = sample_dataset(model, 3000, seed=8)
    assert samples(other) != samples(ds)


def test_sample_dataset_stream_is_pinned():
    # md5 of the little-endian p and a columns, as the sampler drew them
    # before it filled one block in place
    ds = sample_dataset(synthetic_model(borel(make_field(5))), 3000, seed=7)
    assert ds.p[:5].tolist() == [346, 712, 984, 1324, 1668]
    digest = hashlib.md5(ds.p.astype("<i8").tobytes() + ds.a.astype("<i8").tobytes())
    assert digest.hexdigest() == "1728084775199442943c77bb3659171f"


def test_closed_loop_working_set_stays_near_its_columns():
    # n = 100 000 samples hold 1.6 MB in their two int64 columns: the draws
    # become the columns in place, and the dataset copies them once
    G = borel(make_field(5))
    res, peak = _traced_peak(closed_loop_check, G, 100_000)
    assert res.ok
    assert peak <= 4.0 * 2 ** 20  # 8.5 MB (2^20 bytes) with a copy per step


def test_sample_draws_are_uniform_within_four_sigma():
    # every unit residue in the samples, and every member index drawn for
    # them, occurs within 4 sigma of n / k
    model, n = synthetic_model(borel(make_field(5))), 100_000
    ds = sample_dataset(model, n, seed=2)
    hsize = model.data.commutator.order
    residues = np.bincount(ds.p % model.modulus, minlength=model.modulus)
    _, members = _bounded(2, n, len(model.assignment), hsize)
    for counts, k in ((residues[sorted(model.assignment)], len(model.assignment)),
                      (np.bincount(members, minlength=hsize), hsize)):
        assert len(counts) == k > 1
        sigma = (n * (1 / k) * (1 - 1 / k)) ** 0.5
        assert np.abs(counts - n / k).max() <= 4 * sigma, counts


def test_bounded_draws_refuse_bounds_past_32_bits():
    assert [d.tolist() for d in _bounded(5, 3, 1, 2 ** 32 - 1)][0] == [0, 0, 0]
    with pytest.raises(ValueError, match="2\\^32"):
        _bounded(5, 3, 2 ** 32)


def test_closed_loop_never_imports_numpy_random():
    # pytest and hypothesis may import numpy.random, so this needs a fresh
    # interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from apcong.constructions import borel\n"
            "from apcong.discover import closed_loop_check\n"
            "from apcong.ffield import make_field\n"
            "res = closed_loop_check(borel(make_field(5)), n=1000)\n"
            "print(res.ok, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False\n"


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
    assert [g.codes.tolist() for g in a] == [g.codes.tolist() for g in b]
    keys = {g.codes.tobytes() for g in a}
    assert len(keys) == 6  # pairwise distinct
    for g in a:
        assert 480 % g.order == 0  # Lagrange inside GL2(F5)
