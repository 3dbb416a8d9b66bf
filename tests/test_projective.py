"""Groups held modulo scalars: (L, Z) against set closures, closed-form
projective orders against powers, and CLI output pinned byte for byte."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from apcong import cli, constructions, matgrp
from apcong.abelian import analyze_group, coset_traces, density_c
from apcong.ffield import make_field
from apcong.matgrp import ClosureGuardError, Mat2, close_group, coset_of

from helpers import (
    PolyField,
    family_groups,
    oracle_closure,
    oracle_code,
    oracle_proj_canon,
    proj_orders_by_powers,
)

# (p, r) for every q <= 13, and q <= 31 for the projective orders
FIELDS_13 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
FIELDS_31 = FIELDS_13 + [(2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
                         (31, 1)]


@pytest.mark.parametrize("p, r", FIELDS_13, ids=[f"F{p ** r}" for p, r in FIELDS_13])
def test_expanded_groups_match_the_set_closure(p, r):
    spec = make_field(p, r)
    F = PolyField(spec)
    for name, G in family_groups(spec):
        elems = oracle_closure(F, [g.e for g in G.generators])
        codes = sorted(oracle_code(F, m) for m in elems)
        assert G.codes.tolist() == codes, name
        # the stored classes, lifts and scalars
        scalars = sorted(m[0] for m in elems if m[1] == m[2] == 0 and m[0] == m[3])
        assert sorted(G.scalars.tolist()) == scalars, name
        assert G.order == G.proj.size * len(scalars) == len(elems), name
        assert G.proj.tolist() == sorted({oracle_code(F, oracle_proj_canon(F, m))
                                          for m in elems}), name
        assert set(G.reps.tolist()) <= set(codes), name
        assert ((0 <= G.lift) & (G.lift < G.k)).all(), name
        # traces and density folded over Z in closed form
        traces = [F.add(m[0], m[3]) for m in elems]
        assert G.trace_ints() == frozenset(traces), name
        assert density_c(G) == Fraction(traces.count(0), len(elems)), name


@pytest.mark.parametrize("p, r", FIELDS_31, ids=[f"F{p ** r}" for p, r in FIELDS_31])
def test_closed_form_projective_orders_match_powers(p, r):
    spec = make_field(p, r)
    G = constructions.gl2(spec)
    assert G.proj.size == spec.q * (spec.q ** 2 - 1)
    assert np.array_equal(G.class_orders, proj_orders_by_powers(spec, G.proj))


def test_guard_bounds_the_projective_classes(monkeypatch):
    # GL2(F7) is held by its determinant image, so the guard bounds the
    # classes built on request, |PGL2(F7)| = 336 < 2016
    F7 = make_field(7)
    gens = constructions.gl2(F7).generators
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 336)
    G = close_group(F7, gens)
    assert G.order == 2016 and G.proj.size == G.proj_order == 336
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 335)
    G = close_group(F7, gens)
    assert G.order == 2016 and G.proj_order == 336
    with pytest.raises(ClosureGuardError):
        G.proj


def test_analysis_never_expands_the_group():
    G = constructions.gl2(make_field(17))
    analyze_group(G)
    data = coset_traces(G)
    assert "codes" not in G.__dict__
    # the elements and their cosets stay available on request
    assert coset_of(G, data.commutator, G.codes).size == G.codes.size == G.order


# ---- analyze and classify output, pinned from the element-set representation ----

SCALE = [("gl2", 3, 2), ("gl2", 13, 1), ("gl2", 17, 1), ("sl2", 19, 1)]
LATTICE = [("borel", 3, 2), ("unipotent", 3, 2), ("split_cartan", 3, 2),
           ("split_cartan_normalizer", 3, 2), ("nonsplit_cartan", 11, 1),
           ("nonsplit_cartan_normalizer", 3, 2), ("quaternion_lift", 7, 1),
           ("a4_lift", 13, 1), ("sl2", 7, 1), ("gl2", 5, 1),
           ("dihedral_lift", 11, 1, 6), ("dihedral_lift", 13, 1, 7),
           ("s4_lift_f13", 13, 1), ("a5_lift_f11", 11, 1)]

# first 16 hex digits of the SHA-256 of stdout: analyze --format json, then
# classify (table), as the element-set representation printed them
PINNED = {
    "gl2(F9)": ("f44053edb76e75d8", "ddf5bf485447f3a1"),
    "gl2(F13)": ("eff8bc8e43ea1541", "323d04c6102201b3"),
    "gl2(F17)": ("0475b2bfaebb9d8c", "afeaa0ee3a7a250f"),
    "sl2(F19)": ("cc13ea7aea9cbb10", "a016d5fa4b7425df"),
    "borel(F9)^h": ("6d48b0e42ffa52e2", "7c1980cb352cd871"),
    "unipotent(F9)^h": ("68829742f1c7c5b0", "b1896c5fc09cc751"),
    "split_cartan(F9)^h": ("35efadb933f65453", "6e50253655698631"),
    "split_cartan_normalizer(F9)^h": ("5afd12045dab1a94", "e18fb700340343cb"),
    "nonsplit_cartan(F11)^h": ("9e084e21818464dc", "841d81ab26e1d69c"),
    "nonsplit_cartan_normalizer(F9)^h": ("1c4f665646850649", "17aca56165ae81ad"),
    "quaternion_lift(F7)^h": ("e669250068c4bcdf", "bfb5fc79f2d09c72"),
    "a4_lift(F13)^h": ("dd42f310439e0238", "727543a59a6d6b84"),
    "sl2(F7)^h": ("818b267d6671bbec", "701e823c7e95a9e9"),
    "gl2(F5)^h": ("9f4eb611be6583f0", "6ee63327039c3c4f"),
    "dihedral_lift(F11,6)^h": ("76a1ef5624bab9d5", "98a32a8df7568479"),
    "dihedral_lift(F13,7)^h": ("65af9f55a4161d54", "bf735a1bb99454be"),
    "s4_lift_f13(F13)^h": ("24f7ab1cd57165f9", "8b2710d1165efb3c"),
    "a5_lift_f11(F11)^h": ("fb813c746a4255cb", "a48278eb00f9aad7"),
}


def scale_json(fam, p, r):
    """GL2 or SL2 from the standard generators, as the benchmark states them."""
    spec = make_field(p, r)
    z = spec.primitive
    if fam == "gl2":
        ents = [(1, 1, 0, 1), (0, 1, 1, 0), (z, 0, 0, 1)]
    else:
        ents = [(1, 1, 0, 1), (1, 0, 1, 1), (1, z, 0, 1), (1, 0, z, 1),
                (z, 0, 0, spec.inv_i(z))]
    return {"field": spec.to_json(), "generators": [Mat2(spec, e).rows_json() for e in ents]}


def lattice_json(fam, p, r, *n):
    """A constructions family conjugated by h = (1 1; 1 2)."""
    spec = make_field(p, r)
    if fam in ("s4_lift_f13", "a5_lift_f11"):
        gens = getattr(constructions, fam)().generators
    else:
        gens = getattr(constructions, fam)(spec, *n).generators
    h = Mat2(spec, (1, 1, 1, 2))
    hi = h.inv()
    return {"field": spec.to_json(), "generators": [(h * g * hi).rows_json() for g in gens]}


def pinned_cases():
    cases = [(f"{c[0]}(F{c[1] ** c[2]})", scale_json, c) for c in SCALE]
    cases += [(f"{c[0]}(F{c[1] ** c[2]}{',' + str(c[3]) if len(c) > 3 else ''})^h",
               lattice_json, c) for c in LATTICE]
    return cases


@pytest.mark.parametrize("name, build, args", pinned_cases(),
                         ids=[c[0] for c in pinned_cases()])
def test_cli_output_is_pinned(tmp_path, name, build, args):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(build(*args)))
    got = []
    for argv in (["analyze", "--group", str(path), "--format", "json"],
                 ["classify", "--group", str(path)]):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        got.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
    assert tuple(got) == PINNED[name]
