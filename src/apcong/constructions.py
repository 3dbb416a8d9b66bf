"""Explicit subgroups of GL2 over small finite fields.

Standard families (full linear groups, Borel and Cartan subgroups and their
normalizers, dihedral lifts) plus fixed exceptional lifts whose projective
images are A4, S4 and A5.  Every constructor asserts the expected group
order, so a silent generator mistake cannot propagate.
"""

from __future__ import annotations

import numpy as np

from .ffield import (
    FieldSpec,
    embedding_table,
    factorize,
    make_field,
    mult_order,
    quadratic_extension,
)
from .matgrp import Mat2, MatGroup, close_group, projectivize


def _primitive_int(spec: FieldSpec) -> int:
    """Integer encoding of the first multiplicative generator."""
    for x in range(2, spec.q):
        if mult_order(spec.from_int(x)) == spec.q - 1:
            return x
    raise ValueError("no primitive element found")


def _mat(spec: FieldSpec, a: int, b: int, c: int, d: int) -> Mat2:
    # entries are integer encodings in [0, q), not prime-field embeds
    return Mat2(spec, (a, b, c, d))


def gl2(spec: FieldSpec) -> MatGroup:
    """The full group GL2 over the given field."""
    q = spec.q
    gens = [_mat(spec, 1, 1, 0, 1), _mat(spec, 0, 1, 1, 0)]
    if q > 2:
        gens.append(_mat(spec, _primitive_int(spec), 0, 0, 1))
    G = close_group(spec, gens)
    assert G.order == (q * q - 1) * (q * q - q)
    return G


def sl2(spec: FieldSpec) -> MatGroup:
    """The full group SL2 over the given field."""
    q = spec.q
    gens = [_mat(spec, 1, 1, 0, 1), _mat(spec, 1, 0, 1, 1)]
    if q > 2:
        z = _primitive_int(spec)
        gens += [
            _mat(spec, 1, z, 0, 1),
            _mat(spec, 1, 0, z, 1),
            _mat(spec, z, 0, 0, spec.inv_i(z)),
        ]
    G = close_group(spec, gens)
    assert G.order == q**3 - q
    return G


def borel(spec: FieldSpec) -> MatGroup:
    """All invertible upper triangular matrices."""
    q = spec.q
    gens = [_mat(spec, 1, 1, 0, 1)]
    if q > 2:
        z = _primitive_int(spec)
        gens += [
            _mat(spec, 1, z, 0, 1),
            _mat(spec, z, 0, 0, 1),
            _mat(spec, 1, 0, 0, z),
        ]
    G = close_group(spec, gens)
    assert G.order == q * (q - 1) ** 2
    return G


def unipotent(spec: FieldSpec) -> MatGroup:
    """Upper triangular matrices with both diagonal entries 1."""
    q = spec.q
    gens = [_mat(spec, 1, 1, 0, 1)]
    if q > 2:
        gens.append(_mat(spec, 1, _primitive_int(spec), 0, 1))
    G = close_group(spec, gens)
    assert G.order == q
    return G


def split_cartan(spec: FieldSpec) -> MatGroup:
    """The diagonal torus, of order (q-1)^2."""
    q = spec.q
    if q == 2:
        return close_group(spec, [])
    z = _primitive_int(spec)
    G = close_group(spec, [_mat(spec, z, 0, 0, 1), _mat(spec, 1, 0, 0, z)])
    assert G.order == (q - 1) ** 2
    return G


def split_cartan_normalizer(spec: FieldSpec) -> MatGroup:
    """Diagonal torus plus the antidiagonal coset; projectively dihedral."""
    q = spec.q
    gens = [_mat(spec, 0, 1, 1, 0)]
    if q > 2:
        z = _primitive_int(spec)
        gens += [_mat(spec, z, 0, 0, 1), _mat(spec, 1, 0, 0, z)]
    G = close_group(spec, gens)
    assert G.order == max(2, 2 * (q - 1) ** 2)
    return G


def _nonsquare_int(spec: FieldSpec) -> int:
    xs = np.arange(spec.q, dtype=np.int64)
    square = np.zeros(spec.q, dtype=bool)
    square[spec.mul_a(xs, xs)] = True
    if square.all():
        raise ValueError("every element is a square")
    return int(np.argmin(square))


def nonsplit_cartan(spec: FieldSpec) -> MatGroup:
    """A maximal torus not diagonalisable over the base field (odd q only).

    Realised as matrices [[a, b*D], [b, a]] with D a fixed non-square: the
    regular representation of F_q(sqrt(D)), so the matrix has the order of
    a + b sqrt(D).  The generator is the first (a, b) of order q^2 - 1.
    """
    if spec.p == 2:
        raise ValueError("nonsplit torus in characteristic 2 is not supported")
    q, D = spec.q, _nonsquare_int(spec)
    ext = quadratic_extension(spec)
    emb, xs = embedding_table(spec, ext), np.arange(ext.q, dtype=np.int64)
    root = int(np.flatnonzero(ext.mul_a(xs, xs) == emb[D])[0])
    a, b = np.divmod(np.arange(1, q * q, dtype=np.int64), q)
    z, full = ext.add_a(emb[a], ext.mul_a(emb[b], root)), True
    for ell in factorize(q * q - 1):
        full = full & (ext.pow_a(z, (q * q - 1) // ell) != 1)
    a, b = int(a[full][0]), int(b[full][0])
    G = close_group(spec, [_mat(spec, a, spec.mul_i(b, D), b, a)])
    assert G.order == q * q - 1
    return G


def nonsplit_cartan_normalizer(spec: FieldSpec) -> MatGroup:
    """Nonsplit torus extended by diag(1, -1); projectively dihedral."""
    C = nonsplit_cartan(spec)
    q = spec.q
    flip = _mat(spec, 1, 0, 0, spec.neg_i(1))
    G = close_group(spec, list(C.generators) + [flip])
    assert G.order == 2 * (q * q - 1)
    return G


def dihedral_lift(spec: FieldSpec, n: int) -> MatGroup:
    """A subgroup whose projective image is dihedral of order 2n.

    Uses the split torus when n divides q-1 and the nonsplit one when n
    divides q+1 (odd q).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    q = spec.q
    if (q - 1) % n == 0:
        z = _primitive_int(spec)
        w = spec.pow_i(z, (q - 1) // n)
        G = close_group(spec, [_mat(spec, w, 0, 0, 1), _mat(spec, 0, 1, 1, 0)])
        P = projectivize(G)
        assert P.order == 2 * n
        return G
    if spec.p != 2 and (q + 1) % n == 0:
        # the nonsplit torus maps onto a cyclic group of order q+1 in PGL2,
        # so the (q+1)/n power of a generator has projective order exactly n
        C = nonsplit_cartan(spec)
        g = C.generators[0]
        w = g
        for _ in range(((q + 1) // n) - 1):
            w = w * g
        flip = _mat(spec, 1, 0, 0, spec.neg_i(1))
        G = close_group(spec, [w, flip])
        P = projectivize(G)
        assert P.order == 2 * n
        return G
    raise ValueError(f"no dihedral group of order {2 * n} available over q={q}")


def borel_dihedral(spec: FieldSpec) -> MatGroup:
    """Borel-contained group whose projective image is D_p, p the characteristic.

    Generated by a unipotent of order p and diag(1, -1); only meaningful in
    odd characteristic.
    """
    if spec.p == 2:
        raise ValueError("requires odd characteristic")
    G = close_group(spec, [_mat(spec, 1, 1, 0, 1), _mat(spec, 1, 0, 0, spec.neg_i(1))])
    P = projectivize(G)
    assert P.order == 2 * spec.p
    return G


def quaternion_lift(spec: FieldSpec) -> MatGroup:
    """Quaternion group of order 8 inside GL2, via x^2 + y^2 = -1 (odd q)."""
    if spec.p == 2:
        raise ValueError("requires odd characteristic")
    xs = np.arange(spec.q, dtype=np.int64)
    squares = spec.mul_a(xs, xs)
    # the least (x, y) in lexicographic order
    hit = np.flatnonzero(spec.add_a(squares[:, None], squares[None, :]) == spec.neg_i(1))
    x, y = divmod(int(hit[0]), spec.q)
    i = _mat(spec, x, y, y, spec.neg_i(x))
    j = _mat(spec, 0, 1, spec.neg_i(1), 0)
    G = close_group(spec, [i, j])
    assert G.order == 8
    return G


def a4_lift(spec: FieldSpec) -> MatGroup:
    """A group of order 24 whose projective image is A4 (odd characteristic).

    The quaternion group extended by omega = (-1 + i + j + k)/2, a Hurwitz
    unit of order 3.
    """
    Q = quaternion_lift(spec)
    i, j = Q.generators
    k = i * j
    half = spec.inv_i(2 % spec.p)
    minus_one = (spec.neg_i(1), 0, 0, spec.neg_i(1))
    entries = tuple(
        spec.mul_i(half, spec.add_i(spec.add_i(minus_one[t], i.e[t]),
                                    spec.add_i(j.e[t], k.e[t])))
        for t in range(4)
    )
    omega = Mat2(spec, entries)
    G = close_group(spec, [i, j, omega])
    assert G.order == 24
    assert projectivize(G).order == 12
    return G


def s4_lift_f13() -> MatGroup:
    """A fixed group over F_13 with projective image S4."""
    spec = make_field(13)
    gens = [
        _mat(spec, 5, 0, 0, 8),
        _mat(spec, 0, 5, 5, 0),
        _mat(spec, 2, 3, 2, 10),
        _mat(spec, 6, 0, 0, 9),
    ]
    G = close_group(spec, gens)
    P = projectivize(G)
    assert P.order == 24
    return G


def a5_lift_f11() -> MatGroup:
    """A fixed group over F_11 whose projective image is A5."""
    spec = make_field(11)
    G = close_group(spec, [_mat(spec, 2, 0, 0, 6), _mat(spec, 7, 2, 7, 4)])
    P = projectivize(G)
    assert P.order == 60
    return G
