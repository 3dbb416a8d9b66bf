import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apcong import abelian, matgrp
from apcong.abelian import analyze_group
from apcong.classify import classify_group, proj_order_stats
from apcong.constructions import (
    a4_lift,
    a5_lift_f11,
    borel,
    borel_dihedral,
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
from apcong.ffield import make_field
from apcong.matgrp import (
    ClosureGuardError,
    CodeRangeError,
    Mat2,
    MatGroup,
    close_group,
    commutator_subgroup,
    coset_of,
    coset_split,
    enumerate_subgroups,
    group_from_json,
    group_to_json,
    identity,
)

from helpers import (
    PolyField,
    codes_of,
    det_preimage,
    det_split,
    element_order,
    elements,
    enumerate_subgroups_closure,
    enumerate_subgroups_pairs,
    from_elements,
    group_exponent,
    is_scalar,
    oracle_closure,
    oracle_code,
    oracle_mat_mul,
    oracle_proj_canon,
    oracle_proj_order,
    proj_classes,
    trace_multiset,
    trace_of,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


def brute_is_group(G):
    els = set(elements(G))
    assert identity(G.spec) in els
    for a in els:
        assert a.inv() in els
    pairs = itertools.product(els, repeat=2)
    if len(els) > 30:
        pairs = itertools.islice(pairs, 900)
    for a, b in pairs:
        assert a * b in els
    return True


@pytest.mark.parametrize("spec,q", [(F2, 2), (F3, 3), (F5, 5), (F7, 7)])
def test_gl2_sl2_orders(spec, q):
    G = gl2(spec)
    assert G.order == gl2_order(q)
    S = sl2(spec)
    assert S.order == gl2_order(q) // (q - 1)
    assert S.is_subgroup_of(G)
    assert all(m.det_i() == 1 for m in elements(S))


def test_standard_construction_orders():
    # orders from the defining shapes
    assert borel(F5).order == 4 * 4 * 5
    assert unipotent(F7).order == 7
    assert split_cartan(F5).order == 16
    assert split_cartan_normalizer(F5).order == 32
    assert nonsplit_cartan(F7).order == 48
    assert nonsplit_cartan_normalizer(F7).order == 96
    assert quaternion_lift(F5).order == 8
    assert a4_lift(F7).order == 24


def test_closure_is_a_group():
    for G in (borel(F3), split_cartan_normalizer(F5), sl2(F3)):
        brute_is_group(G)


def test_closure_reaches_known_generated_groups():
    # <(1 1; 0 1), (0 -1; 1 0)> = SL_2 over a prime field
    for spec in (F3, F5, F7):
        t = Mat2.from_entries(spec, [[1, 1], [0, 1]])
        w = Mat2.from_entries(spec, [[0, -1], [1, 0]])
        G = close_group(spec, [t, w])
        assert G.codes.tolist() == sl2(spec).codes.tolist()


def test_closure_guard_trips(monkeypatch):
    # the guard bounds the search of a group without SL_2: the Borel group
    # of F_7 has 42 classes; GL_2(F_7) is held by its determinant image
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 20)
    with pytest.raises(ClosureGuardError):
        close_group(F7, list(borel(F7).generators))
    assert close_group(F7, list(gl2(F7).generators)).order == gl2_order(7)


def test_singular_generator_rejected():
    with pytest.raises(ValueError):
        close_group(F3, [Mat2.from_entries(F3, [[1, 1], [1, 1]])])


def test_element_order_brute_force():
    G = gl2(F3)
    e = identity(F3)
    for m in elements(G):
        n = element_order(m)
        x = m
        for _ in range(n - 1):
            assert x != e
            x = x * m
        assert x == e


def test_group_exponent():
    import math

    G = sl2(F3)
    n = group_exponent(G)
    e = identity(F3)
    for m in elements(G):
        x = e
        for _ in range(n):
            x = x * m
        assert x == e
    assert n == math.lcm(*{element_order(m) for m in elements(G)})


def test_scalars_and_projective_order():
    for G in (gl2(F3), gl2(F5), sl2(F5), split_cartan_normalizer(F5)):
        scal = {m for m in elements(G) if is_scalar(m) is not None}
        assert len(proj_classes(G)) == G.order // len(scal)


def test_cosets_partition():
    G = gl2(F3)
    H = sl2(F3)
    label = coset_of(G, H, G.codes)
    elems = elements(G)
    assert label.max() + 1 == G.order // H.order
    seen = set()
    total = trace_multiset([])
    for i in range(G.order // H.order):
        members = {m for m, k in zip(elems, label.tolist()) if k == i}
        rep = min(members, key=Mat2.encode)
        assert members == {rep * h for h in elements(H)}  # the coset rep.H
        assert not (seen & members)
        seen |= members
        total += trace_multiset(G, label, i)
    assert seen == set(elems)
    assert total == trace_multiset(G)


def proj_class(m: Mat2) -> tuple:
    """The canonical entries of m's projective class (first nonzero 1)."""
    spec = m.spec
    lead = next(x for x in m.e if x)
    return tuple(spec.mul_i(x, spec.inv_i(lead)) for x in m.e)


def assert_coset_numbering(G, H, label):
    """Coset i of H in G lies over the coset i // m of PH in PG, m = |Z : Z ∩ H|,
    and those are numbered by their least canonical code."""
    elems = elements(G)
    m = len([g for g in elems if is_scalar(g) is not None]) // len(
        [h for h in elements(H) if is_scalar(h) is not None])
    over = {}
    for g, i in zip(elems, label.tolist()):
        over.setdefault(i // m, set()).add(proj_class(g))
    for i in range(label.max() + 1):
        members = {g for g, k in zip(elems, label.tolist()) if k == i}
        assert {proj_class(g) for g in members} == over[i // m]
    leasts = [min(Mat2(G.spec, c).encode() for c in over[p]) for p in sorted(over)]
    assert leasts == sorted(leasts)


def test_coset_of_indexes_cosets():
    G = gl2(F3)
    H = close_group(F3, [Mat2(F3, (1, 1, 0, 1))])
    label = coset_of(G, H, G.codes)
    elems = elements(G)
    for i in range(label.max() + 1):
        first = label.tolist().index(i)
        # the first code with label i is the least code of its coset
        assert G.codes[first] == G.codes[label == i].min()
        rep = elems[first]
        assert G.codes[label == i].tolist() == sorted((rep * h).encode() for h in elements(H))
    assert_coset_numbering(G, H, label)
    # the split is computed once per (G, H) and shared, so it is read-only
    split = coset_split(G, H)
    assert coset_split(G, H) is split
    assert not split[0].flags.writeable and not split[1].flags.writeable
    # any codes of G, in any order and shape
    assert coset_of(G, H, G.codes[::-1].reshape(-1, 2)).tolist() == (
        label[::-1].reshape(-1, 2).tolist())
    assert coset_of(G, H, int(G.codes[5])) == label[5]


def test_memoised_runs_its_body_once_per_group_and_arguments(monkeypatch):
    # a counting body substituted as __wrapped__: one run per (group, args),
    # two subgroups kept apart, and an equal but distinct group runs its own
    runs = Counter()
    split_body, traces_body = coset_split.__wrapped__, MatGroup.trace_ints.__wrapped__

    def split(G, H):
        runs[id(G), id(H)] += 1
        return split_body(G, H)

    def traces(G):
        runs[id(G)] += 1
        return traces_body(G)

    monkeypatch.setattr(coset_split, "__wrapped__", split)
    monkeypatch.setattr(MatGroup.trace_ints, "__wrapped__", traces)
    G, H1, H2 = gl2(F3), sl2(F3), borel(F3)
    first = coset_split(G, H1)
    assert coset_split(G, H1) is first
    for H in (H1, H2):
        label, _, m = coset_split(G, H)
        assert (int(label.max()) + 1) * m == G.order // H.order
    assert G.trace_ints() is G.trace_ints()
    assert runs == {(id(G), id(H1)): 1, (id(G), id(H2)): 1, id(G): 1}
    again = gl2(F3)
    assert again == G and again is not G
    assert same_arrays(coset_split(again, H1), first) and coset_split(again, H1) is not first
    assert again.trace_ints() == G.trace_ints()
    assert runs[id(again), id(H1)] == 1 and runs[id(again)] == 1


@pytest.mark.parametrize("G", [sl2(F3), gl2(F7)], ids=["classes", "closed_form"])
def test_proj_order_stats_is_shared_and_read_only(G):
    stats = proj_order_stats(G)
    assert proj_order_stats(G) is stats
    with pytest.raises(TypeError):
        stats[1] = 2
    assert sum(stats.values()) == G.proj_order and stats[1] == 1


def least_product_cosets(G, H):
    """For each element g of G.codes, the index of its least product g.h
    over h in H among all the distinct least products: the left cosets of
    H, found with no coset split."""
    least = matgrp.mul_codes(G.spec, G.codes[:, None], H.codes[None, :]).min(axis=1)
    return np.unique(least, return_inverse=True)[1]


@pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
def test_coset_of_matches_a_least_product_grouping(spec):
    # the two routes partition G alike; coset_of's numbering is checked
    # against assert_coset_numbering
    for G in (gl2(spec), borel(spec), split_cartan_normalizer(spec)):
        for H in (commutator_subgroup(G), close_group(spec, [G.generators[0]])):
            label = coset_of(G, H, G.codes)
            alt = least_product_cosets(G, H)
            pairs = set(zip(label.tolist(), alt.tolist()))
            assert len(pairs) == len(set(label.tolist())) == len(set(alt.tolist()))
            assert len(pairs) == G.order // H.order
            assert_coset_numbering(G, H, label)


def test_cosets_requires_subgroup():
    with pytest.raises(ValueError):
        coset_of(sl2(F3), gl2(F3), sl2(F3).codes)
    with pytest.raises(ValueError):  # a subgroup over another field
        coset_of(gl2(F3), sl2(F2), gl2(F3).codes)
    G, H = borel(F5), unipotent(F5)
    outside = Mat2(F5, (0, 1, 1, 0)).encode()  # not upper triangular
    with pytest.raises(ValueError):
        coset_of(G, H, [G.codes[0], outside])
    # a code whose class is in PG but whose scalar is not in g^lift Z
    S = sl2(F5)
    with pytest.raises(ValueError):
        coset_of(S, commutator_subgroup(S), Mat2(F5, (2, 0, 0, 2)).encode())


def brute_commutators(G):
    seeds = set()
    for x, y in itertools.product(elements(G), repeat=2):
        seeds.add(x * y * x.inv() * y.inv())
    return close_group(G.spec, sorted(seeds, key=Mat2.encode)).codes.tolist()


@pytest.mark.parametrize("G", [
    gl2(F2), gl2(F3), sl2(F3), borel(F3), borel(F5),
    split_cartan_normalizer(F5), nonsplit_cartan_normalizer(F7),
    quaternion_lift(F5), a4_lift(F7), unipotent(F7),
])
def test_commutator_subgroup_vs_brute_force(G):
    K = commutator_subgroup(G)
    assert K.codes.tolist() == brute_commutators(G)
    assert all(m.det_i() == 1 for m in elements(K))


READ_OFF_QS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2), 11: (11, 1),
               13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3)}


def sl2_overgroups(spec):
    """Generators of SL_2 plus, in turn: nothing; diag(z^d, 1) for the
    least and the largest proper divisor d of q - 1 and for d = 1 (an
    intermediate det image, and GL_2); the scalar z; and diag(z^d, 1)
    with the scalar z^2.  z is the primitive element."""
    q, z = spec.q, spec.primitive
    base = list(sl2(spec).generators)
    ds = [d for d in range(2, q - 1) if (q - 1) % d == 0]
    diag = [Mat2(spec, (spec.pow_i(z, d), 0, 0, 1)) for d in sorted({1, *ds[:1], *ds[-1:]})]
    z2 = spec.mul_i(z, z)
    return ([base] + [base + [m] for m in diag] + [base + [Mat2(spec, (z, 0, 0, z))]]
            + [base + [m, Mat2(spec, (z2, 0, 0, z2))] for m in diag])


@pytest.mark.parametrize("q", sorted(READ_OFF_QS))
def test_sl2_read_off_matches_the_closure_route(q):
    # every SL_2 overgroup, and a conjugate of each, is past Dickson's bound,
    # and its [G, G], built as det^-1(1), is the normal closure of the
    # commutators of its generators
    spec = make_field(*READ_OFF_QS[q])
    rng = np.random.default_rng(q)
    for gens in sl2_overgroups(spec):
        h = Mat2(spec, (0, 0, 0, 0))
        while not h.det_i():
            h = Mat2(spec, tuple(int(x) for x in rng.integers(0, q, size=4)))
        hi = h.inv()
        for G in (close_group(spec, gens), close_group(spec, [h * g * hi for g in gens])):
            assert G.contains_sl2
            K = commutator_subgroup(G)
            assert K.order == q * (q * q - 1) and K.contains_sl2
            assert K == matgrp._commutator_closure(G)
            assert K.is_subgroup_of(G)
            assert close_group(spec, K.generators) == K


@pytest.mark.parametrize("G", [
    gl2(F2), gl2(F3), sl2(F3), borel(F7), borel(make_field(17)),
    split_cartan_normalizer(make_field(13)), nonsplit_cartan_normalizer(make_field(13)),
])
def test_small_fields_and_small_images_take_the_closure_route(G, monkeypatch):
    assert not G.contains_sl2
    calls = []
    closure = matgrp._commutator_closure

    def counted(H):
        calls.append(1)
        return closure(H)

    monkeypatch.setattr(matgrp, "_commutator_closure", counted)
    # a fresh group, so that no earlier test has memoised its [G, G]
    K = commutator_subgroup(close_group(G.spec, G.generators))
    assert len(calls) == 1
    q = G.spec.q
    assert K == closure(G) and not (K.contains_sl2 and K.order == q * (q * q - 1))


ROUTE_QS = {2: (2, 1), 3: (3, 1), **READ_OFF_QS, 17: (17, 1), 19: (19, 1), 23: (23, 1),
            29: (29, 1), 31: (31, 1), 32: (2, 5), 37: (37, 1), 41: (41, 1), 43: (43, 1),
            47: (47, 1), 49: (7, 2)}


def family_generators(spec):
    """The generators of every constructions family over spec."""
    q = spec.q
    families = [gl2, sl2, borel, unipotent, split_cartan, split_cartan_normalizer]
    if q > 2:
        families.append(lambda s: dihedral_lift(s, q - 1))
    if spec.p != 2:
        families += [nonsplit_cartan, nonsplit_cartan_normalizer, borel_dihedral,
                     quaternion_lift, a4_lift, lambda s: dihedral_lift(s, (q + 1) // 2)]
    groups = [f(spec) for f in families]
    groups += {11: [a5_lift_f11()], 13: [s4_lift_f13()]}.get(q, [])
    return [list(G.generators) for G in groups]


def search_close(spec, gens):
    """_close without the early exit: the frontier search to the end, so
    the group is held as its classes."""
    return matgrp._close(spec, codes_of(gens), full=True)


def classes(G):
    return G.proj, G.lift, G.k


def same_arrays(x, y):
    return len(x) == len(y) and all(np.array_equal(a, b) for a, b in zip(x, y))


def class_route(G, monkeypatch):
    """The analyze report and the classification of G with every closed form
    for SL_2 overgroups off: each answer is read off the classes."""
    with monkeypatch.context() as m:
        m.setattr(MatGroup, "contains_sl2", property(lambda G: False))
        return analyze_group(G).to_json(), classify_group(G)


@pytest.mark.parametrize("q", sorted(ROUTE_QS))
def test_determinant_routes_match_the_search_and_product_routes(q, monkeypatch):
    # the closure's early exit against the full search, on the SL_2
    # overgroups, a conjugate of each, and every constructions family; on the
    # SL_2 overgroups the classes built on request, the determinant split,
    # the closed-form coset traces and the whole closed-form report and
    # classification against the search, the product routes and the class
    # route
    spec = make_field(*ROUTE_QS[q])
    rng = np.random.default_rng(q)
    overgroups = []
    for gens in sl2_overgroups(spec):
        h = Mat2(spec, (0, 0, 0, 0))
        while not h.det_i():
            h = Mat2(spec, tuple(int(x) for x in rng.integers(0, q, size=4)))
        overgroups += [gens, [h * g * h.inv() for g in gens]]
    searched = []
    for gens in overgroups + family_generators(spec):
        got = matgrp._close(spec, codes_of(gens))
        want = search_close(spec, gens)
        # Dickson: for q > 3, a subgroup of PGL_2(F_q) with |PSL_2(F_q)|
        # classes contains it
        assert got.contains_sl2 == (q > 3 and want.proj_order >= q * (q * q - 1) // gcd(2, q - 1))
        assert got.contains_sl2 >= (q > 3 and gens in overgroups)
        assert got.proj_order == want.proj_order and got.order == want.order
        assert same_arrays(classes(got), classes(want)) and type(got.k) is int
        searched.append(want)
    for gens, K in zip(overgroups, searched) if q > 3 else []:
        G = close_group(spec, gens)
        assert "proj" not in G.__dict__
        H = commutator_subgroup(G)
        assert H.contains_sl2 and H.order == q * (q * q - 1)
        assert same_arrays(det_split(G), coset_split.__wrapped__(G, H)[:2])
        got, want = abelian.coset_traces(G), abelian._class_coset_traces(G, H)
        assert got.commutator is H
        for name in ("pair_coset", "pair_trace", "const", "first_const",
                     "first_missing", "mixed"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        report, cls = analyze_group(G).to_json(), classify_group(G)
        assert class_route(K, monkeypatch) == (report, cls)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_det_preimage_is_the_closure_of_sl2_and_a_determinant(q):
    # det^-1(<g^e>) for every e dividing q - 1, even and odd: the classes
    # the early exit builds on request against the product-free oracle
    spec = make_field(*ROUTE_QS[q])
    z = spec.primitive
    for e in (d for d in range(1, q) if (q - 1) % d == 0):
        gens = list(sl2(spec).generators) + [Mat2(spec, (spec.pow_i(z, e), 0, 0, 1))]
        want = search_close(spec, gens)
        assert same_arrays(det_preimage(spec, e), classes(want))
        assert want.order == q * (q * q - 1) * (q - 1) // e
        G = close_group(spec, gens)
        assert G.det_exp == e and "proj" not in G.__dict__
        assert same_arrays(classes(G), det_preimage(spec, e))
        assert G == want and want == G


@pytest.mark.parametrize("spec", [F4, F5], ids=["F4", "F5"])
def test_subgroups_past_the_dickson_bound_contain_sl2(spec):
    # on every subgroup of GL_2(F_4) and GL_2(F_5), held as its classes by
    # the full search: more than B(q) classes and no common fixed point of
    # P^1(F_q) iff it contains SL_2, as element sets; the search records the
    # same
    S = search_close(spec, sl2(spec).generators)
    subs = enumerate_subgroups(gl2(spec))
    assert len(subs) == {4: 148, 5: 466}[spec.q]
    bound = matgrp._dickson_bound(spec)
    contains, past = [], []
    for H in subs:
        K = search_close(spec, H.generators)
        fixed = matgrp._fixed_points(spec, *matgrp.split_codes(spec, H.gens[:, None])).any()
        past.append(K.proj_order > bound and not fixed)
        contains.append(bool(np.isin(S.codes, K.codes).all()))
        assert H.contains_sl2 == past[-1] and H == K
    # det^-1(D) for each subgroup D of F_q^x
    assert past == contains and sum(contains) == {4: 2, 5: 3}[spec.q]
    q = spec.q
    assert [H.contains_sl2 and H.order == q * (q * q - 1) for H in subs] == [H == S for H in subs]
    # S_4 in PGL_2(F_5) holds the bound's 24 classes without containing SL_2
    assert max(H.proj_order for H in subs if not H.contains_sl2) == {4: 12, 5: 24}[spec.q]


def test_recognition_bound_values():
    # max(2 (q + 1), 24 or 60 where 5 divides q (q^2 - 1), PGL_2 of the
    # largest proper subfield), and the exact max(q (q - 1), 24) for q <= 5
    want = {2: math.inf, 3: math.inf, 4: 24, 5: 24, 7: 24, 8: 24, 9: 60, 11: 60,
            13: 28, 16: 60, 25: 120, 27: 56, 29: 60, 49: 336, 64: 504, 81: 720,
            101: 204}
    for q, bound in want.items():
        p, r = next((p, r) for p in range(2, q + 1) for r in range(1, 8) if p ** r == q)
        assert matgrp._dickson_bound(make_field(p, r)) == bound, q


@pytest.mark.parametrize("q", [q for q in sorted(ROUTE_QS) if q > 3])
def test_borel_closes_without_the_early_exit(q, monkeypatch):
    # the Borel group fixes the point (0 : 1); past B(q) the generators are
    # tested once for a common fixed point and the search runs to the end
    spec = make_field(*ROUTE_QS[q])
    gens, dihedral = borel(spec).generators, split_cartan_normalizer(spec).generators

    def refuse(*args):
        raise AssertionError("early exit on a Borel group")

    tests = []
    fixed_points = matgrp._fixed_points

    def counted(*args):
        tests.append(1)
        return fixed_points(*args)

    monkeypatch.setattr(matgrp, "_sl2_overgroup", refuse)
    monkeypatch.setattr(matgrp, "_fixed_points", counted)
    G = close_group(spec, gens)
    assert G.order == q * (q - 1) ** 2 and not G.contains_sl2
    assert len(tests) == (q * (q - 1) > matgrp._dickson_bound(spec))
    # a group that never passes B(q) never pays for the test
    close_group(spec, dihedral)
    assert len(tests) == (q * (q - 1) > matgrp._dickson_bound(spec))


def full_searches(monkeypatch):
    """The field size of each full search (`_close(..., full=True)`), as a
    list that grows."""
    calls = []
    close = matgrp._close

    def spy(spec, *args, full=False):
        if full:
            calls.append(spec.q)
        return close(spec, *args, full=full)

    monkeypatch.setattr(matgrp, "_close", spy)
    return calls


def test_closure_guard_bounds_the_closed_form_group(monkeypatch):
    # the search stops past B(17) = 36 classes of GL_2(F_17), and the group
    # is held as its determinant image with no class built, so the guard of
    # 2000 does not refuse it; it refuses the 4 896 classes of
    # det^-1(F_17^x) when they are asked for, before the search that builds
    # them starts, and the 272 classes of the Borel group, which the search
    # stores
    spec = make_field(17)
    gens = list(gl2(spec).generators)
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 2000)
    calls = full_searches(monkeypatch)
    G = close_group(spec, gens)
    assert G.order == gl2_order(17) and G.contains_sl2 and calls == []
    assert analyze_group(G).dickson.describe() == "PGL2(17)" and calls == []
    with monkeypatch.context() as m:
        m.setattr(matgrp, "_join", None)  # no code is formed
        with pytest.raises(ClosureGuardError):
            G.proj
    assert calls == []
    # under the default guard the same request runs the full search once
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 10 ** 6)
    assert G.proj.size == 17 * (17 ** 2 - 1) and calls == [17]
    monkeypatch.undo()
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 200)
    with pytest.raises(ClosureGuardError):
        close_group(spec, borel(spec).generators)


def test_sl2_overgroup_refuses_classes_outside_the_preimage():
    # det^-1(1) over F_5 has the classes of square det, with lifts mod 2
    S, G = sl2(F5), gl2(F5)
    assert matgrp._sl2_overgroup(F5, S.gens, S.proj, S.lift) == S
    for proj, lift in ((G.proj, G.lift), (S.proj, S.lift + 1)):
        with pytest.raises(RuntimeError, match="closure is broken"):
            matgrp._sl2_overgroup(F5, S.gens, proj, lift)


def canon_rows(monkeypatch):
    """The number of rows of each call to _canon, as a list that grows."""
    rows = []
    canon = matgrp._canon

    def counted(spec, a, b, c, d):
        rows.append(np.size(a))
        return canon(spec, a, b, c, d)

    monkeypatch.setattr(matgrp, "_canon", counted)
    return rows


def gl2_gens(spec):
    z = spec.primitive
    return [Mat2(spec, e) for e in ((1, 1, 0, 1), (0, 1, 1, 0), (z, 0, 0, 1))]


def test_gl2_f97_closes_on_few_products(monkeypatch):
    # the early exit passes fewer than 4 (q + 1) |gens| = 1 176 products to
    # _canon; the full search would pass 912 576 * 3
    spec = make_field(97)
    rows = canon_rows(monkeypatch)
    G = close_group(spec, gl2_gens(spec))
    assert G.order == (97 ** 2 - 1) * (97 ** 2 - 97) and G.det_exp == 1
    assert 0 < sum(rows) < 4 * 98 * 3


def test_gl2_f1009_closes_on_few_products(monkeypatch):
    # past B(1009) = 2 020 classes with no common fixed point: fewer than
    # 4 (q + 1) |gens| = 12 120 rows reach _canon, and no class is built
    spec = make_field(1009)
    rows = canon_rows(monkeypatch)
    G = close_group(spec, gl2_gens(spec))
    assert G.order == (1009 ** 2 - 1) * (1009 ** 2 - 1009) and G.det_exp == 1
    assert 0 < sum(rows) < 4 * 1010 * 3
    assert "proj" not in G.__dict__


def test_analyze_gl2_f17_closes_only_the_group(monkeypatch):
    spec = make_field(17)
    doc = group_to_json(gl2(spec))
    calls = []
    close = matgrp._close

    def counted(*args):
        calls.append(1)
        return close(*args)

    monkeypatch.setattr(matgrp, "_close", counted)
    report = analyze_group(group_from_json(doc))
    assert report.dickson.describe() == "PGL2(17)" and report.to_json()["consistent"] is True
    assert len(calls) == 1


def test_commutator_of_abelian_is_trivial():
    for G in (split_cartan(F5), nonsplit_cartan(F7), unipotent(F7)):
        assert commutator_subgroup(G).order == 1


def test_enumerate_subgroups_gl2_f2():
    # GL_2(F_2) is S_3: subgroups 1, three C_2, C_3, S_3
    subs = enumerate_subgroups(gl2(F2))
    assert len(subs) == 6
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 3, 6]


def test_enumerate_subgroups_gl2_f3():
    subs = enumerate_subgroups(gl2(F3))
    assert len(subs) == 55
    # independent route: every subgroup of GL_2(F_3) is 2-generated
    pairs = enumerate_subgroups_pairs(gl2(F3))
    assert {H.codes.tobytes() for H in subs} == {H.codes.tobytes() for H in pairs}
    for H in subs:
        assert gl2_order(3) % H.order == 0


@pytest.mark.parametrize("spec", [F2, F3], ids=["F2", "F3"])
def test_enumerate_subgroups_matches_the_closure_route(spec):
    # the Cayley-table route and the close_group route, in the same order
    G = gl2(spec)
    want = [H.codes.tolist() for H in enumerate_subgroups_closure(G)]
    assert [H.codes.tolist() for H in enumerate_subgroups(G)] == want


@pytest.mark.parametrize("spec, count", [(F2, 6), (F3, 55), (F4, 148)],
                         ids=["F2", "F3", "F4"])
def test_cyclic_subgroups_found_match_the_closed_form(spec, count):
    # <g> has phi(ord g) generators, so there are sum 1/phi(ord g) cyclic
    # subgroups; a subgroup is cyclic when one of its elements has its order
    G = gl2(spec)
    subs = enumerate_subgroups(G)
    assert len(subs) == count
    order = {m.encode(): element_order(m) for m in elements(G)}

    def phi(n):
        return sum(gcd(j, n) == 1 for j in range(1, n + 1))

    cyclic = sum(Fraction(1, phi(o)) for o in order.values())
    assert cyclic.denominator == 1
    assert sum(max(order[c] for c in H.codes.tolist()) == H.order for H in subs) == cyclic


@pytest.mark.parametrize("spec", [F3, F4])
def test_cayley_table_in_row_blocks_equals_the_one_shot_table(spec, monkeypatch):
    codes = gl2(spec).codes
    prod = matgrp.mul_codes(spec, codes[:, None], codes[None, :])
    T = np.searchsorted(codes, prod)
    assert np.array_equal(codes[T], prod)
    # 7 rows a block leaves a short last block (48 and 180 rows)
    for block in (7 * codes.size, 1 << 16):
        monkeypatch.setattr(matgrp, "_ROW_BLOCK", block)
        assert np.array_equal(matgrp._cayley_table(spec, codes), T)


@pytest.mark.parametrize("spec", [F3, F4])
def test_double_coset_labels_in_row_blocks_equal_the_one_shot_labels(spec, monkeypatch):
    G = gl2(spec)
    T = matgrp._cayley_table(spec, G.codes)
    for H in enumerate_subgroups(G)[::7]:
        at = np.searchsorted(G.codes, H.codes)
        want = T[:, at].min(axis=1)[T[at]].min(axis=0)
        # 5 entries a block leaves short last blocks; 1 << 16 is one block
        for block in (5, 1 << 16):
            monkeypatch.setattr(matgrp, "_ROW_BLOCK", block)
            assert np.array_equal(matgrp._double_coset_labels(T, at), want)


def test_enumerate_subgroups_peak_stays_near_the_table(monkeypatch):
    # past the Cayley table (|G|^2 int64, 1.8 MB for GL_2(F_5)) the lattice
    # search forms no |G| x |H| temporary: its traced peak stays below twice
    # the table, where the one-shot double-coset labels reached 5.8 MB
    G = gl2(F5)
    G.codes
    table = []
    cayley = matgrp._cayley_table

    def spy(*args):
        T = cayley(*args)
        table.append(T.nbytes)
        tracemalloc.reset_peak()
        return T

    monkeypatch.setattr(matgrp, "_cayley_table", spy)
    tracemalloc.start()
    try:
        assert len(enumerate_subgroups(G)) == 466
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == [480 * 480 * 8] and peak < 2 * table[0]


def test_enumerate_subgroups_closes_once_per_subgroup(monkeypatch):
    # the joins run on the Cayley table; close_group runs once per subgroup
    G = gl2(F3)
    calls = []
    close = matgrp._close

    def counted(*args):
        calls.append(1)
        return close(*args)

    monkeypatch.setattr(matgrp, "_close", counted)
    assert len(enumerate_subgroups(G)) == 55
    assert len(calls) == 55


def test_recorded_generators_regenerate():
    # the generator codes are the codes of the generators read back as
    # matrices, which close to the group again; the trivial group records
    # none, and its JSON lists the identity
    for G in (gl2(F3), sl2(F5), nonsplit_cartan_normalizer(F7)):
        assert codes_of(G.generators).tolist() == G.gens.tolist()
        assert close_group(G.spec, G.generators).codes.tolist() == G.codes.tolist()
        with pytest.raises(ValueError):
            G.gens[0] = 0
    T = close_group(F5, [])
    assert T.gens.size == 0 and T.generators == ()
    assert group_to_json(T)["generators"] == [[[[1], [0]], [[0], [1]]]]
    assert group_from_json(group_to_json(T)).order == 1


def test_a_nontrivial_group_without_generators_raises():
    # analysis reads the recorded generators, so such a group would
    # silently analyse as trivial
    with pytest.raises(ValueError):
        from_elements(F3, elements(gl2(F3)), ())
    assert from_elements(F3, [identity(F3)], ()).order == 1


def test_trace_multiset_counts():
    G = sl2(F3)
    counts = trace_multiset(G)
    assert sum(counts.values()) == G.order
    # SL_2(F_3) trace frequencies: identity-like traces from explicit count
    assert counts[2 % 3] + counts[1] + counts[0] == G.order


def test_group_json_roundtrip():
    G = split_cartan_normalizer(F5)
    again = group_from_json(group_to_json(G))
    assert again.codes.tolist() == G.codes.tolist()
    H = close_group(F3, [Mat2.from_entries(F3, [[1, 1], [0, 1]])])
    assert group_from_json(group_to_json(H)).codes.tolist() == H.codes.tolist()


def test_from_elements_wraps_closed_sets():
    G = sl2(F3)
    again = from_elements(F3, elements(G), G.generators)
    assert again.order == G.order


def test_mat2_raw_constructor_uses_encodings():
    m = Mat2(F5, (1, 2, 3, 4))
    assert trace_of(m) == 0  # 1 + 4 = 5 = 0
    assert m.det_i() == (4 - 6) % 5


# ---- the array kernel against pure-Python oracles (tests/helpers.py) ----

KERNEL_QS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
             9: (3, 2), 25: (5, 2), 27: (3, 3)}


@st.composite
def random_groups(draw):
    """A field of size in KERNEL_QS and invertible generators: one or two
    random matrices for q <= 9; for q = 25, 27 a unipotent and a diagonal
    matrix conjugated by a random h, which keeps |G| <= q (q - 1)."""
    q = draw(st.sampled_from(sorted(KERNEL_QS)))
    spec = make_field(*KERNEL_QS[q])
    F = PolyField(spec)
    entry = st.integers(0, q - 1)
    unit = st.integers(1, q - 1)

    def invertible():
        m = tuple(draw(entry) for _ in range(4))
        assume(F.add(F.mul(m[0], m[3]), F.neg(F.mul(m[1], m[2]))) != 0)
        return m

    if q <= 9:
        gens = [invertible() for _ in range(draw(st.integers(1, 2)))]
    else:
        h = invertible()
        hi = oracle_inverse(F, h)
        tri = (1, draw(unit), 0, 1)
        diag = (draw(unit), 0, 0, draw(unit))
        gens = [oracle_mat_mul(F, oracle_mat_mul(F, h, g), hi) for g in (tri, diag)]
    return spec, F, gens


def oracle_inverse(F, m):
    a, b, c, d = m
    di = F.inv(F.add(F.mul(a, d), F.neg(F.mul(b, c))))
    return (F.mul(d, di), F.mul(F.neg(b), di), F.mul(F.neg(c), di), F.mul(a, di))


@settings(max_examples=40)
@given(random_groups())
def test_kernel_closure_cosets_and_projective_image(case):
    spec, F, gens = case
    G = close_group(spec, [Mat2(spec, g) for g in gens])
    elems = oracle_closure(F, gens)
    assert G.codes.tolist() == sorted(oracle_code(F, m) for m in elems)
    # cosets of [G, G] and of <first generator>: a partition of G into g.H
    decode = {oracle_code(F, m): m for m in elems}
    for H in (commutator_subgroup(G), close_group(spec, [Mat2(spec, gens[0])])):
        hs = [decode[c] for c in H.codes.tolist()]
        label = coset_of(G, H, G.codes).tolist()
        n = G.order // H.order
        assert sorted(set(label)) == list(range(n))
        assert_coset_numbering(G, H, coset_of(G, H, G.codes))
        # the representative of coset i, the code at the first index with
        # label i, is its least code
        reps = [G.codes[label.index(i)] for i in range(n)]
        for i, rep in enumerate(reps):
            members = [c for c, k in zip(G.codes.tolist(), label) if k == i]
            assert rep == min(members)
            assert members == sorted(
                oracle_code(F, oracle_mat_mul(F, decode[rep], h)) for h in hs)
    canon = {oracle_proj_canon(F, m) for m in elems}
    assert G.proj.tolist() == sorted(oracle_code(F, m) for m in canon)
    assert G.class_orders.tolist() == [
        oracle_proj_order(F, decode_proj) for decode_proj in
        sorted(canon, key=lambda m: oracle_code(F, m))]


def test_code_range_boundary():
    # q^4 < 2^63 holds for q <= 55108: 55103 is the largest prime below
    # and 55109 the least prime above
    below = make_field(55103)
    minus = below.neg_i(1)
    G = close_group(below, [Mat2(below, (minus, 0, 0, minus))])
    q = below.q
    assert G.codes.tolist() == [q ** 3 + 1, minus * q ** 3 + minus]
    assert G.proj.size == 1
    assert commutator_subgroup(G).order == 1
    above = make_field(55109)
    with pytest.raises(CodeRangeError):
        close_group(above, [identity(above)])
    # matrices at the edges stay exact over any admitted field
    m = Mat2(above, (above.neg_i(1), 3, 5, 7))
    assert (m * m.inv()).e == (1, 0, 0, 1)


def test_long_cyclic_closure():
    # a generator of order 101^2 - 1: its closure against its powers, built
    # one scalar product at a time
    spec = make_field(101)
    G = nonsplit_cartan(spec)
    g = G.generators[0]
    powers, x = [], identity(spec)
    for _ in range(101 * 101 - 1):
        powers.append(x.encode())
        x = x * g
    assert x.e == (1, 0, 0, 1)
    assert G.codes.tolist() == sorted(powers)
