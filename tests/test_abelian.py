import dataclasses
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from apcong.abelian import (
    ClassVerdict,
    ModulusBound,
    TheoremConsistencyError,
    analyze_group,
    coset_traces,
    crosscheck_all_subgroups,
    density_c,
    is_abelian_class,
    is_semi_abelian,
    is_totally_abelian,
    is_weakly_abelian,
    modulus_bound,
    part_supported,
    radical,
    theorem_crosscheck,
)
from apcong.classify import classify_group, is_borel_conjugable
from apcong.constructions import (
    a4_lift,
    a5_lift_f11,
    borel,
    dihedral_lift,
    gl2,
    nonsplit_cartan,
    nonsplit_cartan_normalizer,
    quaternion_lift,
    s4_lift_f13,
    sl2,
    split_cartan,
    split_cartan_normalizer,
    unipotent,
)
from apcong.ffield import factorize, make_field
from apcong.matgrp import Mat2, close_group, coset_of, enumerate_subgroups
from helpers import eigenvalue_exponent, elements, family_groups, trace_of

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def brute_coset_traces(G):
    """Trace set of each coset of the commutator subgroup, from first principles."""
    comms = {x * y * x.inv() * y.inv()
             for x, y in itertools.product(elements(G), repeat=2)}
    K = elements(close_group(G.spec, sorted(comms, key=Mat2.encode)))
    left = set(elements(G))
    parts = []
    while left:
        g = min(left, key=Mat2.encode)
        cs = {g * k for k in K}
        parts.append(frozenset(trace_of(m) for m in cs))
        left -= cs
    return parts


def brute_verdicts(G, xi):
    tsets = brute_coset_traces(G)
    weakly = any(ts == frozenset({xi}) for ts in tsets)
    semi = any(xi not in ts for ts in tsets)
    union = all(ts == frozenset({xi}) for ts in tsets if xi in ts)
    return weakly, semi, union


SMALL_GROUPS = [
    gl2(F2), gl2(F3), sl2(F3), borel(F3), borel(F5), split_cartan(F5),
    split_cartan_normalizer(F5), nonsplit_cartan(F7), quaternion_lift(F5),
    a4_lift(F7), unipotent(F7), dihedral_lift(F5, 6),
]


@pytest.mark.parametrize("G", SMALL_GROUPS)
def test_verdicts_match_brute_force(G):
    per_class = analyze_group(G).per_class
    assert sorted(per_class) == sorted(G.trace_ints())
    for xi in sorted(G.trace_ints()):
        bw, bs, bu = brute_verdicts(G, xi)
        assert is_weakly_abelian(G, xi)[0] == bw
        assert is_semi_abelian(G, xi)[0] == bs
        assert is_abelian_class(G, xi)[0] == bu
        # the report reads the same three verdicts, as plain bools
        assert per_class[xi] == ClassVerdict(bw, bs, bu)
        assert all(type(v) is bool for v in dataclasses.astuple(per_class[xi]))


def test_verdicts_over_every_subgroup_of_gl2_f3():
    for H in enumerate_subgroups(gl2(F3)):
        for xi in sorted(H.trace_ints()):
            bw, bs, bu = brute_verdicts(H, xi)
            assert is_weakly_abelian(H, xi)[0] == bw
            assert is_semi_abelian(H, xi)[0] == bs
            assert is_abelian_class(H, xi)[0] == bu


def traces_per_coset(G):
    """The trace set of each coset of [G, G], in label order, read from the
    coset labels and the element traces."""
    label = coset_of(G, coset_traces(G).commutator, G.codes)
    return [set(G.traces[label == i].tolist()) for i in range(label.max() + 1)]


def scan_witnesses(G, xi):
    """The three verdicts' witnesses by a scan over the coset trace sets:
    first constant-x coset, first coset missing x, and the cosets holding x
    when all of them are constant (else None), as coset indices."""
    tsets = list(enumerate(traces_per_coset(G)))
    weak = next((i for i, ts in tsets if ts == {xi}), None)
    semi = next((i for i, ts in tsets if xi not in ts), None)
    holding = [(i, ts) for i, ts in tsets if xi in ts]
    union = tuple(i for i, _ in holding) if all(ts == {xi} for _, ts in holding) else None
    return weak, semi, union


def test_verdict_witnesses_match_a_coset_scan():
    F23 = make_field(23, 1)
    groups = SMALL_GROUPS + enumerate_subgroups(gl2(F3)) + [
        split_cartan(F23), borel(F23), split_cartan_normalizer(F7)]
    for G in groups:
        for xi in sorted(G.trace_ints()):
            weak, semi, union = scan_witnesses(G, xi)
            assert is_weakly_abelian(G, xi) == (weak is not None, weak)
            assert is_semi_abelian(G, xi) == (semi is not None, semi)
            assert is_abelian_class(G, xi) == (union is not None, union)


def test_weakly_and_semi_do_not_imply_abelian():
    # the definition-level conjunction is strictly weaker than the
    # union-of-cosets criterion on these two groups
    sylow2 = [H for H in enumerate_subgroups(gl2(F3)) if H.order == 16][0]
    witnesses = []
    for G in (sylow2, split_cartan_normalizer(F5)):
        tsets = traces_per_coset(G)
        for xi in sorted(G.trace_ints()):
            w = is_weakly_abelian(G, xi)[0]
            s = is_semi_abelian(G, xi)[0]
            a = is_abelian_class(G, xi)[0]
            assert a == (w and all(ts == {xi} for ts in tsets if xi in ts))
            if w and s and not a:
                witnesses.append((G.order, xi))
    assert witnesses  # both groups exhibit the gap
    assert {o for o, _ in witnesses} == {16, 32}


def coset_members(G, i):
    label = coset_of(G, coset_traces(G).commutator, G.codes)
    return [m for m, k in zip(elements(G), label.tolist()) if k == i]


def test_weak_witness_is_a_constant_trace_coset():
    G = split_cartan_normalizer(F5)
    ok, i = is_weakly_abelian(G, 0)
    assert ok
    assert {trace_of(m) for m in coset_members(G, i)} == {0}


def test_semi_witness_avoids_the_class():
    G = gl2(F3)
    ok, i = is_semi_abelian(G, 0)
    if ok:
        assert 0 not in {trace_of(m) for m in coset_members(G, i)}
    else:
        # GL2(F3): every coset of SL2(F3) attains every trace
        assert all(0 in ts for ts in traces_per_coset(G))


def test_verdict_requires_attained_class():
    G = unipotent(F7)  # traces attained: only 2
    with pytest.raises(ValueError):
        is_weakly_abelian(G, 3)
    # a bool is not a trace class, though True == 1 is attained on GL2(F5)
    for verdict in (is_weakly_abelian, is_semi_abelian, is_abelian_class):
        with pytest.raises(TypeError, match="int encoding"):
            verdict(gl2(F5), True)


def test_totally_abelian_iff_borel_conjugable():
    for H in enumerate_subgroups(gl2(F3)):
        assert is_totally_abelian(H) == is_borel_conjugable(H)[0]
    for G in SMALL_GROUPS:
        assert is_totally_abelian(G) == is_borel_conjugable(G)[0]


GL2_DENSITY = {3: Fraction(3, 8), 5: Fraction(5, 24), 7: Fraction(7, 48)}


def test_density_full_groups():
    for spec, q in ((F3, 3), (F5, 5), (F7, 7)):
        assert density_c(gl2(spec)) == Fraction(q, (q - 1) * (q + 1))
        assert density_c(gl2(spec)) == GL2_DENSITY[q]
        eps = (-1) ** ((q + 1) // 2)
        assert density_c(sl2(spec)) == Fraction(1, q + eps)


def test_density_dihedral_rows():
    for G, n in ((split_cartan_normalizer(F5), 4),
                 (nonsplit_cartan_normalizer(F7), 8),
                 (quaternion_lift(F5), 2),
                 (dihedral_lift(F5, 6), 6)):
        assert density_c(G) == Fraction(1, 2) + Fraction(1, 2 * n)


def test_density_exceptional_lifts():
    assert density_c(a4_lift(F7)) == Fraction(1, 4)
    assert density_c(s4_lift_f13()) == Fraction(3, 8)
    assert density_c(a5_lift_f11()) == Fraction(1, 4)


def test_density_is_a_plain_count():
    for G in SMALL_GROUPS:
        zero = sum(1 for m in elements(G) if trace_of(m) == 0)
        assert density_c(G) == Fraction(zero, G.order)


def test_theorem_crosscheck_standard_groups():
    for G in SMALL_GROUPS:
        theorem_crosscheck(G)


def test_crosscheck_all_subgroups_counts():
    assert crosscheck_all_subgroups(gl2(F2)) == 6
    assert crosscheck_all_subgroups(gl2(F3)) == 55


def test_crosscheck_all_subgroups_detects_a_dropped_pair(monkeypatch):
    from apcong import abelian

    exact = abelian.coset_traces.__wrapped__

    def drop_last_pair(G):
        data = exact(G)
        q = G.spec.q
        return dataclasses.replace(data, pairs=(data.pair_coset * q + data.pair_trace)[:-1])

    monkeypatch.setattr(abelian.coset_traces, "__wrapped__", drop_last_pair)
    with pytest.raises(TheoremConsistencyError, match="coset, trace"):
        crosscheck_all_subgroups(gl2(F2))


def test_theorem_crosscheck_detects_a_flipped_verdict(monkeypatch):
    from apcong import abelian

    exact = abelian.coset_traces.__wrapped__

    def flipped(field, x):
        def flip(G):
            data = exact(G)
            col = getattr(data, field).copy()
            if col.dtype == bool:
                col[x] = not col[x]
            else:
                col[x] = -1 if col[x] >= 0 else 0
            return dataclasses.replace(data, **{field: col})
        return flip

    for build, spec in ((gl2, F3), (sl2, F5), (borel, F5), (split_cartan, F5),
                        (split_cartan_normalizer, F5), (unipotent, F5), (a4_lift, F7),
                        (nonsplit_cartan, F7)):
        attained = sorted(build(spec).trace_ints())
        # weak and abelian verdicts exist only at attained classes, semi at all
        for field, column, xs in (("first_const", "weak", attained),
                                  ("mixed", "abelian", attained),
                                  ("first_missing", "semi", range(spec.q))):
            for x in xs:
                monkeypatch.setattr(abelian.coset_traces, "__wrapped__", flipped(field, x))
                with pytest.raises(TheoremConsistencyError,
                                   match=f"{column} verdict at {x} computed"):
                    theorem_crosscheck(build(spec))


def test_analyze_group_report():
    rep = analyze_group(gl2(F3))
    assert rep.dickson.label == "S4"
    assert rep.density == Fraction(3, 8)
    assert not rep.totally
    assert set(rep.per_class) == {0, 1, 2}
    assert all(not v.abelian for v in rep.per_class.values())
    blob = json.dumps(rep.to_json(), sort_keys=True)
    assert json.dumps(analyze_group(gl2(F3)).to_json(), sort_keys=True) == blob


def test_analyze_group_computes_each_structure_once(monkeypatch):
    from apcong import classify, constructions, matgrp

    groups = (gl2(F7), nonsplit_cartan_normalizer(F7))
    calls = Counter()

    def count(owner, attr, name):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    def forbidden(*args):
        raise AssertionError("reference group built")

    # a memoised body runs through its __wrapped__
    count(matgrp.commutator_subgroup, "__wrapped__", "commutator_subgroup")
    count(matgrp, "proj_orders", "proj_orders")
    count(classify.classify_group, "__wrapped__", "classify_group")
    count(matgrp.coset_split, "__wrapped__", "coset_split")
    for mod in (constructions, classify):
        for name in ("gl2", "sl2"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    rep = analyze_group(groups[0])
    assert rep.dickson.label == "PGL2" and rep.to_json()["consistent"] is True
    # GL2(F7) contains SL2(F7): no class orders and no coset split
    assert calls == {"commutator_subgroup": 1, "classify_group": 1}
    calls.clear()
    rep = analyze_group(groups[1])
    assert rep.dickson.label == "Dihedral" and rep.to_json()["consistent"] is True
    # the projective orders of all 16 classes of D_8 in one step
    assert calls == {"commutator_subgroup": 1, "proj_orders": 1, "classify_group": 1,
                     "coset_split": 1}


def test_analyze_totally_abelian_group():
    rep = analyze_group(split_cartan(F5))
    assert rep.totally
    assert all(v.abelian for v in rep.per_class.values())


def test_radical_and_part_supported():
    assert radical(338) == 26
    assert radical(1) == 1
    assert radical(2 ** 5 * 19) == 38
    assert part_supported(48, {2}) == 16
    assert part_supported(48, {3}) == 3
    assert part_supported(48, {5}) == 1


def test_modulus_bound_borel():
    mb = modulus_bound(borel(F5), 338)
    # diagonal characters of the full Borel have order 4
    assert mb.bound == 1040 == 2 ** 4 * 5 * 13
    assert mb.two_sided is True and mb.m_one_mod_four is False
    mb = modulus_bound(unipotent(F7), 10)
    assert mb.bound == 140 == radical(70) * part_supported(2, {2, 5, 7})


def test_modulus_bound_dihedral():
    mb = modulus_bound(dihedral_lift(F3, 2), 338)
    assert mb.bound == 312 == 2 ** 3 * 3 * 13
    assert mb.two_sided is True and mb.m_one_mod_four is False
    mb = modulus_bound(dihedral_lift(make_field(23), 11), 1)
    assert mb.bound == 23
    assert mb.two_sided is True and mb.m_one_mod_four is True
    mb = modulus_bound(dihedral_lift(F5, 2), 608)
    assert mb.bound == 760 == 2 ** 3 * 5 * 19


def test_modulus_bound_validates_case_against_group():
    # the case is read off the image: other classes and levels below 1 raise
    with pytest.raises(ValueError, match=re.escape("PGL2(5)")):
        modulus_bound(gl2(F5), 10)
    with pytest.raises(ValueError, match="level"):
        modulus_bound(borel(F5), 0)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, "GL2(F3) subgroups"])
def test_modulus_bound_matches_eigenvalue_oracle(q):
    # every constructions family over F_q, or every subgroup of GL2(F3)
    if q == "GL2(F3) subgroups":
        groups = enumerate_subgroups(gl2(F3))
    else:
        (p, r), = factorize(q).items()
        groups = [G for _, G in family_groups(make_field(p, r))]
    for G in groups:
        _check_modulus_bound(G)


def _check_modulus_bound(G):
    ell, cls = G.spec.p, classify_group(G)
    for N in (1, 35, 338, 30030):
        primes = factorize(N * ell)
        if cls.label == "BorelConjugable":
            two_exp = factorize(2 * eigenvalue_exponent(G))
            want = math.prod(p ** (1 + two_exp.get(p, 0)) for p in primes)
            assert modulus_bound(G, N) == ModulusBound(want, True, False)
        elif cls.label == "Dihedral":
            want = math.prod(primes) * math.gcd(2, N * ell) ** 2
            two_sided = ell != 2 and (cls.n == 2 or cls.n % 2 == 1)
            assert modulus_bound(G, N) == ModulusBound(want, two_sided, (N * ell) % 2 == 1)
        else:
            with pytest.raises(ValueError, match=re.escape(cls.describe())):
                modulus_bound(G, N)


def test_consistency_error_is_loud():
    # mangling a density should trip the table check
    G = gl2(F3)
    c = density_c(G)
    assert c == Fraction(3, 8)
    with pytest.raises(TheoremConsistencyError):
        from apcong.abelian import _check_density
        _check_density(G, classify_group(G), Fraction(1, 2))
