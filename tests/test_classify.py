import pytest

from apcong.classify import (
    ClassificationError,
    _subfield_stats,
    classify_group,
    commutator_trace_set,
    is_borel_conjugable,
    proj_order_stats,
    traceless_count,
)
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
from apcong.matgrp import enumerate_subgroups, projectivize

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)
F11 = make_field(11, 1)
F13 = make_field(13, 1)


def test_full_group_labels():
    assert classify_group(gl2(F3)).label == "S4"  # PGL_2(F_3) = S_4
    assert classify_group(sl2(F3)).label == "A4"  # PSL_2(F_3) = A_4
    assert classify_group(gl2(F5)).label == "PGL2"
    cls = classify_group(sl2(F5))  # PSL_2(F_5) = A_5; field label wins
    assert cls.label == "PSL2" and "A5" in cls.all_applicable
    assert classify_group(gl2(F7)).label == "PGL2"


def test_borel_and_cartan_labels():
    assert classify_group(borel(F5)).label == "BorelConjugable"
    cls = classify_group(split_cartan(F5))
    assert cls.label == "BorelConjugable" and "Cyclic(4)" in cls.all_applicable
    cls = classify_group(nonsplit_cartan(F7))
    assert cls.label == "BorelConjugable" and "Cyclic(8)" in cls.all_applicable
    cls = classify_group(unipotent(F7))
    assert cls.label == "BorelConjugable" and "Cyclic(7)" in cls.all_applicable


def test_dihedral_labels():
    cls = classify_group(split_cartan_normalizer(F5))
    assert cls.label == "Dihedral" and cls.n == 4
    cls = classify_group(nonsplit_cartan_normalizer(F7))
    assert cls.label == "Dihedral" and cls.n == 8
    cls = classify_group(quaternion_lift(F5))
    assert cls.label == "Dihedral" and cls.n == 2
    cls = classify_group(dihedral_lift(F5, 6))
    assert cls.label == "Dihedral" and cls.n == 6
    # D_p in characteristic p has an eigenline, so Borel wins precedence
    cls = classify_group(borel_dihedral(F7))
    assert cls.label == "BorelConjugable" and "Dihedral(7)" in cls.all_applicable


def test_exceptional_lift_labels():
    assert classify_group(a4_lift(F7)).label == "A4"
    assert classify_group(s4_lift_f13()).label == "S4"
    assert classify_group(a5_lift_f11()).label == "A5"


def test_borel_witness_conjugates_into_triangular():
    for G in (borel(F5), split_cartan(F5), nonsplit_cartan(F7), unipotent(F7)):
        flag, witness = is_borel_conjugable(G)
        assert flag and witness is not None
        # the witness lives over the quadratic extension and triangularises G
        ext = witness.spec
        assert ext.r == 2 * G.spec.r
        from apcong.ffield import embedding_table
        from apcong.matgrp import Mat2
        emb = embedding_table(G.spec, ext)
        pi = witness.inv()
        for g in G.elements:
            m = pi * Mat2(ext, tuple(emb[x] for x in g.e)) * witness
            assert m.e[2] == 0


def test_nonsplit_cartan_not_borel_over_base_but_cyclic():
    # irreducible over the base field yet still projectively cyclic
    G = nonsplit_cartan(F7)
    flag, witness = is_borel_conjugable(G)
    assert flag  # diagonalisable over F_49


def test_dihedral_not_borel_conjugable():
    for G in (split_cartan_normalizer(F5), nonsplit_cartan_normalizer(F7),
              quaternion_lift(F5)):
        flag, _ = is_borel_conjugable(G)
        assert not flag


TRACELESS_PGL = {q: q * q for q in (3, 5, 7, 9, 13)}


def psl_traceless(q):
    # traceless in SL_2: q(q-1) choices with b != 0, plus 2q with b = 0
    # exactly when -1 is a square; halve for the +-1 scalar classes
    return q * (q + 1) // 2 if q % 4 == 1 else q * (q - 1) // 2


@pytest.mark.parametrize("spec,q", [(F3, 3), (F5, 5), (F7, 7), (F9, 9), (F13, 13)])
def test_traceless_counts_full_groups(spec, q):
    P = projectivize(gl2(spec))
    assert traceless_count(P) == TRACELESS_PGL[q]
    S = projectivize(sl2(spec))
    assert traceless_count(S) == psl_traceless(q)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (11, 1), (13, 1)])
def test_subfield_stats_match_reference_groups(p, r):
    # the closed form against element orders counted on PGL2/PSL2 themselves
    spec, q = make_field(p, r), p**r
    assert _subfield_stats("PGL2", q, p) == proj_order_stats(projectivize(gl2(spec)))
    assert _subfield_stats("PSL2", q, p) == proj_order_stats(projectivize(sl2(spec)))


@pytest.mark.parametrize("q,p", [(17, 17), (19, 19), (23, 23), (25, 5)])
def test_subfield_stats_beyond_reference_sizes(q, p):
    pgl = _subfield_stats("PGL2", q, p)
    psl = _subfield_stats("PSL2", q, p)
    assert sum(pgl.values()) == q**3 - q
    assert sum(psl.values()) == (q**3 - q) // 2
    # in odd characteristic the involutions are exactly the traceless classes
    assert pgl[2] == q * q
    assert psl[2] == psl_traceless(q)


def brute_traceless(P):
    return sum(1 for m in P.classes if m.trace_i() == 0)


def test_traceless_count_is_well_defined_on_classes():
    # scaling multiplies the trace by a unit, so the count over canonical
    # representatives equals the count over any representatives
    for G in (gl2(F5), sl2(F7), split_cartan_normalizer(F5)):
        P = projectivize(G)
        assert traceless_count(P) == brute_traceless(P)


def phi_mod(p):
    # a root of x^2 = x + 1
    for t in range(p):
        if (t * t - t - 1) % p == 0:
            return t
    raise AssertionError("no golden-ratio root")


def test_commutator_trace_sets_of_exceptional_lifts():
    assert commutator_trace_set(a4_lift(F7)) == {0, 2, 7 - 2}
    assert commutator_trace_set(gl2(F3)) == {0, 1, 2}  # {0, +-1, +-2} mod 3
    assert commutator_trace_set(s4_lift_f13()) == {0, 1, 12, 2, 11}
    phi = phi_mod(11)
    want = {0, 1, 10, 2, 9, phi % 11, (-phi) % 11, (phi - 1) % 11, (1 - phi) % 11}
    assert commutator_trace_set(a5_lift_f11()) == want


def test_classify_every_subgroup_of_gl2_f3():
    labels = {}
    for H in enumerate_subgroups(gl2(F3)):
        cls = classify_group(H)
        labels[cls.label] = labels.get(cls.label, 0) + 1
        if cls.label == "Dihedral":
            assert cls.n >= 2
        # precedence sanity: the chosen label is among the applicable ones
        tags = cls.all_applicable
        assert any(cls.label in t or t.startswith(cls.label) for t in tags)
    # GL_2(F_3) contains Borel-type, dihedral, A4 and S4 subgroups
    assert set(labels) == {"BorelConjugable", "Dihedral", "A4", "S4"}
    assert sum(labels.values()) == 55


def test_classification_rejects_non_groups():
    with pytest.raises((ClassificationError, ValueError, KeyError, AttributeError)):
        classify_group(None)


def borel_subgroup(spec):
    """<(1 1; 0 1), diag(z, 1)>: upper triangular of order q(q - 1); the
    full Borel group over F_101 already exceeds the closure guard."""
    from apcong.matgrp import Mat2, close_group

    z = spec.primitive
    return close_group(spec, [Mat2(spec, (1, 1, 0, 1)), Mat2(spec, (z, 0, 0, 1))])


@pytest.mark.parametrize("p", [101, 211])
def test_classify_and_analyze_past_q_100(p):
    from fractions import Fraction

    from apcong.abelian import analyze_group

    spec = make_field(p)
    cases = [(unipotent(spec), "BorelConjugable", p, Fraction(0)),
             (borel_dihedral(spec), "BorelConjugable", 2 * p, Fraction(1, 2)),
             (dihedral_lift(spec, 5 if p == 101 else 7), "Dihedral", None, Fraction(1, 2)),
             (dihedral_lift(spec, 10 if p == 101 else 6), "Dihedral", None, None)]
    if p == 101:
        cases.append((borel_subgroup(spec), "BorelConjugable", p * (p - 1), Fraction(1, p - 1)))
        cases.append((dihedral_lift(spec, 17), "Dihedral", 2 * 17 * (p - 1), Fraction(1, 2)))
    for G, label, order, c in cases:
        cls = classify_group(G)
        assert cls.label == label
        if order is not None:
            assert G.order == order
        rep = analyze_group(G)
        assert rep.theorem_consistent and rep.dickson == cls
        assert rep.totally == (label == "BorelConjugable")
        if label == "Dihedral":
            n = cls.n
            want = Fraction(1, 2) + (Fraction(1, 2 * n) if n % 2 == 0 else 0)
            assert rep.density == want and (c is None or c == want)
        else:
            assert rep.density == c
