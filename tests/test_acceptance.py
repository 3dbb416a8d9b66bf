"""Acceptance gate: one test per headline guarantee, at stated tolerances."""

import time
from fractions import Fraction

import pytest

from apcong.abelian import analyze_group, crosscheck_all_subgroups, density_c, modulus_bound
from apcong.constructions import (
    a4_lift,
    a5_lift_f11,
    borel,
    dihedral_lift,
    gl2,
    nonsplit_cartan_normalizer,
    s4_lift_f13,
    sl2,
    split_cartan_normalizer,
)
from apcong.discover import (
    best_modulus,
    check_allowed,
    closed_loop_check,
    delta_partition_check,
    vanishing_statement,
    verify_fixture_tables,
)
from apcong.eigendata import build_dataset, curve_fixtures, delta_coeffs
from apcong.ffield import factorize, legendre, make_field
from apcong.matgrp import ClosureGuardError

from helpers import commutator_trace_set, random_subgroups, samples, traceless_count

EXAMPLE_CURVES = ("338d1", "324b1", "608e1", "2450ba1", "2450a1", "50700u1")


def fixtures_or_skip():
    fixtures = curve_fixtures()
    missing = [label for label in EXAMPLE_CURVES if label not in fixtures]
    if missing:
        pytest.skip(f"curve fixtures absent: {', '.join(missing)}")
    return fixtures


def test_criterion_1_delta_partition_mod_23():
    t0 = time.monotonic()
    res = delta_partition_check(10_000)
    elapsed = time.monotonic() - t0
    assert res.checked == 1228  # 1229 primes up to 10^4, minus p = 23
    assert res.violations == ()
    assert elapsed <= 30


def test_criterion_2_delta_vanishing_iff_nonsquare():
    ds = build_dataset(delta_coeffs(10_000, 23), 23, 10_000)
    assert len(ds) == 1228
    st = vanishing_statement("delta", 23)
    violations, seen = check_allowed(ds, st.allowed)
    assert violations == () and st.holds(seen, st.allowed)
    # both directions, restated without the statement
    for p, a in samples(ds):
        assert (a == 0) == (legendre(p, 23) == -1)


def test_criterion_3_traceless_counts():
    for q, spec in ((3, make_field(3)), (5, make_field(5)), (7, make_field(7)),
                    (9, make_field(3, 2)), (13, make_field(13))):
        assert traceless_count(gl2(spec)) == q * q
        psl = q * (q + 1) // 2 if q % 4 == 1 else q * (q - 1) // 2
        assert traceless_count(sl2(spec)) == psl


def test_criterion_4_density_formulas():
    for q in (3, 5, 7):
        spec = make_field(q)
        assert density_c(gl2(spec)) == Fraction(q, (q - 1) * (q + 1))
        eps = (-1) ** ((q + 1) // 2)
        assert density_c(sl2(spec)) == Fraction(1, q + eps)
    # dihedral rows 1/2 + 1/(2n) for the projective D_{q-1} and D_{q+1}
    assert density_c(split_cartan_normalizer(make_field(5))) == Fraction(5, 8)
    assert density_c(split_cartan_normalizer(make_field(7))) == Fraction(7, 12)
    assert density_c(nonsplit_cartan_normalizer(make_field(5))) == Fraction(7, 12)
    assert density_c(nonsplit_cartan_normalizer(make_field(7))) == Fraction(9, 16)
    assert density_c(a4_lift(make_field(7))) == Fraction(1, 4)
    assert density_c(s4_lift_f13()) == Fraction(3, 8)
    assert density_c(a5_lift_f11()) == Fraction(1, 4)


def test_criterion_5_exhaustive_verdict_oracle():
    t0 = time.monotonic()
    assert crosscheck_all_subgroups(gl2(make_field(2))) == 6
    assert crosscheck_all_subgroups(gl2(make_field(3))) == 55
    assert time.monotonic() - t0 <= 300


def test_criterion_6_commutator_trace_sets():
    assert commutator_trace_set(a4_lift(make_field(7))) == {0, 2, 7 - 2}
    want13 = {x % 13 for x in (0, 1, -1, 2, -2)}
    assert commutator_trace_set(gl2(make_field(3))) == {0, 1, 2}
    assert commutator_trace_set(s4_lift_f13()) == want13
    phi = next(x for x in range(11) if (x * x - x - 1) % 11 == 0)
    want11 = {x % 11 for x in
              (0, 1, -1, 2, -2, phi, -phi, phi - 1, 1 - phi)}
    assert commutator_trace_set(a5_lift_f11()) == want11


def test_criterion_7_modulus_bounds():
    # level 338: a Klein-four image mod 3 and the full Borel group mod 5
    weak = modulus_bound(dihedral_lift(make_field(3), 2), 338)
    assert weak.bound == 312 and factorize(weak.bound) == {2: 3, 3: 1, 13: 1}
    borel_bound = modulus_bound(borel(make_field(5)), 338)
    assert borel_bound.bound == 1040 and factorize(borel_bound.bound) == {2: 4, 5: 1, 13: 1}


def test_criterion_8_printed_tables_from_point_counts():
    fixtures = fixtures_or_skip()
    checks = verify_fixture_tables(fixtures, p_max=10_000)
    assert len(checks) == 12
    for c in checks:
        assert c.ok, (c.label, c.name, c.violations[:3])
    # the mod-3 vanishing congruence is an iff precisely at modulus 39
    ds3 = build_dataset(fixtures["338d1"], 3, 10_000)
    entry = best_modulus(ds3, 0, 312)
    assert entry is not None and entry.modulus == 39


def test_criterion_9_closed_loop_synthetic_discovery():
    groups = random_subgroups(make_field(5), 10, seed=1)
    groups += random_subgroups(make_field(7), 10, seed=2)
    assert len(groups) == 20
    for i, G in enumerate(groups):
        res = closed_loop_check(G, n=100_000, seed=i)
        assert res.mismatches == (), (G.order, res.mismatches[:2])
        assert res.matched_classes == G.spec.p
        tol = 3 / res.n ** 0.5
        assert abs(float(res.empirical_zero - res.predicted_zero)) <= tol


def test_criterion_10_gl2_and_sl2_up_to_q_97():
    # held by their determinant image, GL2(F_q) and SL2(F_q) store no class,
    # so the closure guard of 10^6 classes no longer stops them past q = 97;
    # it bounds the classes of GL2(F_101), 1 030 200, built on request
    for q in (97, 101):
        spec = make_field(q)
        for G, label, c in ((gl2(spec), f"PGL2({q})", Fraction(q, q ** 2 - 1)),
                            (sl2(spec), f"PSL2({q})", Fraction(1, q - 1))):
            rep = analyze_group(G)
            assert rep.dickson.describe() == label and rep.to_json()["consistent"] is True
            assert rep.density == c and len(rep.proper) == q
    with pytest.raises(ClosureGuardError):
        gl2(make_field(101)).proj
