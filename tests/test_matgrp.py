import itertools

import pytest

from apcong.constructions import (
    a4_lift,
    borel,
    gl2,
    nonsplit_cartan,
    nonsplit_cartan_normalizer,
    quaternion_lift,
    sl2,
    split_cartan,
    split_cartan_normalizer,
    unipotent,
)
from apcong.ffield import make_field
from apcong.matgrp import (
    ClosureGuardError,
    Mat2,
    close_group,
    commutator_subgroup,
    cosets,
    element_order,
    enumerate_subgroups,
    enumerate_subgroups_pairs,
    from_elements,
    generating_set,
    group_exponent,
    group_from_json,
    group_to_json,
    identity,
    is_scalar,
    projectivize,
    trace_multiset,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


def brute_is_group(G):
    els = G.elements
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
    assert all(m.det_i() == 1 for m in S.elements)


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
        assert G.elements == sl2(spec).elements


def test_closure_guard_trips():
    with pytest.raises(ClosureGuardError):
        close_group(F7, list(gl2(F7).generators), guard=100)


def test_singular_generator_rejected():
    with pytest.raises(ValueError):
        close_group(F3, [Mat2.from_entries(F3, [[1, 1], [1, 1]])])


def test_element_order_brute_force():
    G = gl2(F3)
    e = identity(F3)
    for m in G.sorted_elements():
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
    for m in G.elements:
        x = e
        for _ in range(n):
            x = x * m
        assert x == e
    assert n == math.lcm(*{element_order(m) for m in G.elements})


def test_scalars_and_projective_order():
    for G in (gl2(F3), gl2(F5), sl2(F5), split_cartan_normalizer(F5)):
        scal = {m for m in G.elements if is_scalar(m) is not None}
        P = projectivize(G)
        assert len(P.classes) == G.order // len(scal)


def test_cosets_partition():
    G = gl2(F3)
    H = sl2(F3)
    cs = cosets(G, H)
    assert len(cs) == G.order // H.order
    seen = set()
    for c in cs:
        assert c.size == H.order
        assert c.representative in c.members
        assert not (seen & c.members)
        seen |= c.members
    assert seen == G.elements
    # trace sets in both views agree
    for c in cs:
        assert {t.as_int() for t in c.traces()} == c.trace_ints()


def test_cosets_requires_subgroup():
    with pytest.raises(ValueError):
        cosets(sl2(F3), gl2(F3))


def brute_commutators(G):
    seeds = set()
    for x, y in itertools.product(G.elements, repeat=2):
        seeds.add(x * y * x.inv() * y.inv())
    return close_group(G.spec, sorted(seeds, key=Mat2.encode)).elements


@pytest.mark.parametrize("G", [
    gl2(F2), gl2(F3), sl2(F3), borel(F3), borel(F5),
    split_cartan_normalizer(F5), nonsplit_cartan_normalizer(F7),
    quaternion_lift(F5), a4_lift(F7), unipotent(F7),
])
def test_commutator_subgroup_vs_brute_force(G):
    K = commutator_subgroup(G)
    assert K.elements == brute_commutators(G)
    assert all(m.det_i() == 1 for m in K.elements)


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
    assert {H.elements for H in subs} == {H.elements for H in pairs}
    for H in subs:
        assert gl2_order(3) % H.order == 0


def test_generating_set_regenerates():
    for G in (gl2(F3), sl2(F5), nonsplit_cartan_normalizer(F7)):
        gens = generating_set(G)
        assert close_group(G.spec, gens).elements == G.elements


def test_trace_multiset_counts():
    G = sl2(F3)
    counts = trace_multiset(G)
    assert sum(counts.values()) == G.order
    # SL_2(F_3) trace frequencies: identity-like traces from explicit count
    assert counts[2 % 3] + counts[1] + counts[0] == G.order


def test_group_json_roundtrip():
    G = split_cartan_normalizer(F5)
    again = group_from_json(group_to_json(G))
    assert again.elements == G.elements
    H = close_group(F3, [Mat2.from_entries(F3, [[1, 1], [0, 1]])])
    assert group_from_json(group_to_json(H)).elements == H.elements


def test_group_json_roundtrip_without_recorded_generators():
    G = from_elements(F3, gl2(F3).elements)
    assert not G.generators
    assert group_from_json(group_to_json(G)).elements == G.elements


def test_from_elements_wraps_closed_sets():
    G = sl2(F3)
    again = from_elements(F3, G.elements)
    assert again.order == G.order


def test_mat2_raw_constructor_uses_encodings():
    m = Mat2(F5, (1, 2, 3, 4))
    assert m.trace_i() == 0  # 1 + 4 = 5 = 0
    assert m.det_i() == (4 - 6) % 5
