import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    CodeRangeError,
    Mat2,
    close_group,
    commutator_subgroup,
    coset_label,
    enumerate_subgroups,
    from_elements,
    generating_set,
    group_from_json,
    group_to_json,
    identity,
    projectivize,
)

from helpers import (
    PolyField,
    element_order,
    enumerate_subgroups_pairs,
    group_exponent,
    is_scalar,
    oracle_closure,
    oracle_code,
    oracle_mat_mul,
    oracle_proj_canon,
    oracle_proj_order,
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
    label = coset_label(G, H)
    elems = G.sorted_elements()
    assert label.max() + 1 == G.order // H.order
    seen = set()
    total = trace_multiset([])
    for i in range(G.order // H.order):
        members = {m for m, k in zip(elems, label.tolist()) if k == i}
        rep = min(members, key=Mat2.encode)
        assert members == {rep * h for h in H.elements}  # the coset rep.H
        assert not (seen & members)
        seen |= members
        total += trace_multiset(G, label, i)
    assert seen == G.elements
    assert total == trace_multiset(G)


def test_coset_label_indexes_cosets():
    G = gl2(F3)
    H = close_group(F3, [Mat2(F3, (1, 1, 0, 1))])
    label = coset_label(G, H)
    elems, reps = G.sorted_elements(), []
    for i in range(label.max() + 1):
        first = label.tolist().index(i)
        # the first code with label i is the least code of its coset
        assert G.codes[first] == G.codes[label == i].min()
        rep = elems[first]
        assert G.codes[label == i].tolist() == sorted((rep * h).encode() for h in H.elements)
        reps.append(rep.encode())
    assert reps == sorted(reps)  # cosets are numbered by least code
    # computed once per (G, H) and shared, so it is read-only
    assert coset_label(G, H) is label
    assert not label.flags.writeable


def test_cosets_requires_subgroup():
    with pytest.raises(ValueError):
        coset_label(sl2(F3), gl2(F3))
    with pytest.raises(ValueError):  # a subgroup over another field
        coset_label(gl2(F3), sl2(F2))


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
        label = coset_label(G, H).tolist()
        n = G.order // H.order
        assert sorted(set(label)) == list(range(n))
        # the representative of coset i, the code at the first index with
        # label i, is its least code, and the representatives ascend
        reps = [G.codes[label.index(i)] for i in range(n)]
        assert reps == sorted(reps)
        for i, rep in enumerate(reps):
            members = [c for c, k in zip(G.codes.tolist(), label) if k == i]
            assert rep == min(members)
            assert members == sorted(
                oracle_code(F, oracle_mat_mul(F, decode[rep], h)) for h in hs)
    P = projectivize(G)
    canon = {oracle_proj_canon(F, m) for m in elems}
    assert P.codes.tolist() == sorted(oracle_code(F, m) for m in canon)
    assert P.class_orders.tolist() == [
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
    assert projectivize(G).order == 1
    assert commutator_subgroup(G).order == 1
    above = make_field(55109)
    with pytest.raises(CodeRangeError):
        close_group(above, [identity(above)])
    with pytest.raises(CodeRangeError):
        from_elements(above, [identity(above)])
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
