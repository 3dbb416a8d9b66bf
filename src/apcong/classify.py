"""Conjugacy-class recognition for finite subgroups of PGL2 over finite fields.

Over the algebraic closure, a finite subgroup of PGL2 in characteristic p is
conjugate to one of the classical families (Dickson): a subgroup of the
upper triangular Borel group, a dihedral group D_n with p not dividing n, a
subfield group PSL2 or PGL2 over F_q', or one of the exceptional groups A4,
S4, A5.  For tiny fields the families overlap; the classifier reports a
single primary label under a fixed precedence plus every label that applies
abstractly.

Subfield groups are recognised by comparing projective element-order counts
with the closed-form counts of PSL2(q') and PGL2(q') (Dickson; Huppert,
Endliche Gruppen I, II.8), so the check holds for every q' with no
reference group built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .ffield import FieldSpec, embedding_table, quadratic_extension
from .matgrp import (
    Mat2,
    MatGroup,
    ProjGroup,
    commutator_subgroup,
    generating_set,
    projectivize,
)


class ClassificationError(ValueError):
    pass


# projective order statistics of the exceptional groups
_A4_STATS = {1: 1, 2: 3, 3: 8}
_S4_STATS = {1: 1, 2: 9, 3: 8, 4: 6}
_A5_STATS = {1: 1, 2: 15, 3: 20, 5: 24}


@dataclass(frozen=True)
class DicksonClass:
    """Recognition result for a projective group.

    label is the primary family; n is set for Dihedral and Cyclic labels,
    subfield_q for PSL2/PGL2 labels.  all_applicable lists every family the
    group belongs to abstractly, the primary one included.  witness, when
    present, is a change-of-basis matrix over the quadratic extension that
    conjugates the matrix group into upper triangular form.
    """

    label: str
    n: int | None = None
    subfield_q: int | None = None
    all_applicable: tuple[str, ...] = ()
    witness: Mat2 | None = None

    def describe(self) -> str:
        if self.label in ("Dihedral", "Cyclic"):
            return f"{self.label}({self.n})"
        if self.label in ("PSL2", "PGL2"):
            return f"{self.label}({self.subfield_q})"
        return self.label

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "all_applicable": sorted(self.all_applicable),
        }
        if self.n is not None:
            out["n"] = self.n
        if self.subfield_q is not None:
            out["subfield_q"] = self.subfield_q
        if self.witness is not None:
            out["witness"] = self.witness.rows_json()
        return out


# ---- Borel conjugability ---------------------------------------------------


def _eigenlines(ext: FieldSpec, me: tuple[int, int, int, int]) -> list[tuple[int, int]]:
    """Invariant lines of a non-scalar matrix with entries encoded over ext.

    Each line is returned as a normalised vector (first nonzero coordinate
    scaled to 1), in increasing order of its eigenvalue's encoding; the
    characteristic polynomial splits over ext because ext is a quadratic
    extension of the entry field.
    """
    a, b, c, d = me
    t = ext.add_i(a, d)
    det = ext.sub_i(ext.mul_i(a, d), ext.mul_i(b, c))
    xs = np.arange(ext.q, dtype=np.int64)
    charpoly = ext.add_a(ext.sub_a(ext.mul_a(xs, xs), ext.mul_a(t, xs)), det)
    lines = []
    for lam in np.flatnonzero(charpoly == 0).tolist():
        if b != 0:
            v = (b, ext.sub_i(lam, a))
        elif c != 0:
            v = (ext.sub_i(lam, d), c)
        elif a == lam:
            v = (1, 0)
        else:
            v = (0, 1)
        if v[0] != 0:
            s = ext.inv_i(v[0])
            v = (1, ext.mul_i(v[1], s))
        else:
            v = (0, 1)
        if v not in lines:
            lines.append(v)
    return lines


def is_borel_conjugable(G: MatGroup):
    """Whether G is conjugate to a group of upper triangular matrices over
    the quadratic extension of its field.

    Returns (flag, witness); when the flag is True the witness is a basis
    change P over the extension with P^-1 G P upper triangular.  Two
    independent routes are computed and compared: the structural criterion
    (the commutator subgroup contains no diagonalisable matrix besides the
    identity) and a direct common-eigenvector search.
    """
    spec = G.spec
    H = commutator_subgroup(G)
    disc = spec.sub_a(spec.mul_a(H.traces, H.traces), spec.mul_a(4 % spec.p, H.dets))
    is_one = H.scalar_mask & (H.entries[0] == 1)
    route_a = bool((is_one | (~H.scalar_mask & (disc == 0))).all())

    ext = quadratic_extension(spec)
    emb = embedding_table(spec, ext)
    gens_e = [tuple(int(emb[x]) for x in g.e) for g in generating_set(G)]
    nonscalar = np.flatnonzero(~G.scalar_mask)
    witness = None
    if not nonscalar.size:
        # every element scalar: already upper triangular
        route_b = True
        witness = Mat2(ext, (1, 0, 0, 1))
    else:
        route_b = False
        base = tuple(int(emb[x[nonscalar[0]]]) for x in G.entries)
        for v in _eigenlines(ext, base):
            stable = True
            for a, b, c, d in gens_e:
                w0 = ext.add_i(ext.mul_i(a, v[0]), ext.mul_i(b, v[1]))
                w1 = ext.add_i(ext.mul_i(c, v[0]), ext.mul_i(d, v[1]))
                if ext.sub_i(ext.mul_i(w0, v[1]), ext.mul_i(w1, v[0])) != 0:
                    stable = False
                    break
            if stable:
                route_b = True
                u = (0, 1) if v[0] != 0 else (1, 0)
                witness = Mat2(ext, (v[0], u[0], v[1], u[1]))
                break
    assert route_a == route_b, "Borel criteria disagree"
    if route_b and witness is not None and nonscalar.size:
        pi = witness.inv()
        for ge in gens_e:
            conj = pi * Mat2(ext, ge) * witness
            assert conj.e[2] == 0
    return route_a, witness


# ---- abstract family tests -------------------------------------------------


def proj_order_stats(P: ProjGroup) -> dict[int, int]:
    orders, counts = np.unique(P.class_orders, return_counts=True)
    return dict(zip(orders.tolist(), counts.tolist()))


def _cyclic_n(P: ProjGroup) -> int | None:
    return P.order if (P.class_orders == P.order).any() else None


def _dihedral_n(P: ProjGroup) -> int | None:
    """n >= 2 when P is abstractly dihedral of order 2n (D_2 = C2 x C2):
    some c has order n and the n elements outside <c> are involutions, and
    <c> holds one involution for even n and none for odd n."""
    N = P.order
    if N < 4 or N % 2:
        return None
    n = N // 2
    stats = proj_order_stats(P)
    return n if stats.get(n) and stats.get(2) == n + (n % 2 == 0) else None


def _element_degree(spec: FieldSpec, x: int) -> int:
    """Degree over the prime field of the element with encoding x."""
    d = 1
    y = spec.pow_i(x, spec.p)
    while y != x:
        d += 1
        y = spec.pow_i(y, spec.p)
    return d


def _trace_field_size(spec: FieldSpec, H: MatGroup) -> int:
    s = 1
    for t in H.trace_ints():
        s = lcm(s, _element_degree(spec, t))
    return spec.p**s


def _subfield_stats(kind: str, qsub: int, p: int) -> dict[int, int]:
    """Projective element-order counts of PSL2(q') or PGL2(q'), q' = p^k.

    PGL2(q') has the identity, q'^2 - 1 elements of order p, and
    phi(d) q'(q' + 1)/2 resp. phi(d) q'(q' - 1)/2 elements of order d for
    each d > 1 dividing q' - 1 (split tori) resp. q' + 1 (nonsplit tori).
    PSL2(q') for odd q' has tori of orders (q' -+ 1)/2 instead; for even q'
    it equals PGL2(q').
    """
    half = 2 if kind == "PSL2" and qsub % 2 else 1
    stats = Counter({1: 1, p: qsub * qsub - 1})
    for torus, count in ((qsub - 1, qsub * (qsub + 1) // 2),
                         (qsub + 1, qsub * (qsub - 1) // 2)):
        t = torus // half
        for d in range(2, t + 1):
            if t % d == 0:
                phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
                stats[d] += phi * count
    return dict(stats)


def _subfield_matches(P: ProjGroup) -> list[tuple[str, int]]:
    """(kind, q') pairs with P abstractly the subfield group over F_q'."""
    p = P.spec.p
    out = []
    qsub = p
    while qsub**3 - qsub <= 2 * P.order:
        full = qsub**3 - qsub
        half = full // 2 if qsub % 2 else full
        if P.order == half and proj_order_stats(P) == _subfield_stats("PSL2", qsub, p):
            out.append(("PSL2", qsub))
            if qsub % 2 == 0:
                out.append(("PGL2", qsub))
        if (P.order == full and qsub % 2
                and proj_order_stats(P) == _subfield_stats("PGL2", qsub, p)):
            out.append(("PGL2", qsub))
        qsub *= p
    return out


_EXCEPTIONAL = {12: ("A4", _A4_STATS), 24: ("S4", _S4_STATS), 60: ("A5", _A5_STATS)}


def _exceptional_match(P: ProjGroup) -> str | None:
    if P.order not in _EXCEPTIONAL:
        return None
    label, stats = _EXCEPTIONAL[P.order]
    return label if proj_order_stats(P) == stats else None


def classify_group(G: MatGroup) -> DicksonClass:
    """Primary family of the projective image of G under the precedence
    Borel > Cyclic > Dihedral > subfield PSL2/PGL2 (only for q' > 3) >
    exceptional, with all applicable families recorded.  Subfield groups
    are recognised for every q' from closed-form element-order counts."""
    return G.memo(_classify)


def _classify(G: MatGroup) -> DicksonClass:
    P = projectivize(G)
    borel_flag, witness = is_borel_conjugable(G)
    cyc_n = _cyclic_n(P)
    dih_n = _dihedral_n(P)
    subfields = _subfield_matches(P)
    exc = _exceptional_match(P)

    applicable = []
    if borel_flag:
        applicable.append("BorelConjugable")
    if cyc_n is not None:
        applicable.append(f"Cyclic({cyc_n})")
    if dih_n is not None:
        applicable.append(f"Dihedral({dih_n})")
    for kind, qsub in subfields:
        applicable.append(f"{kind}({qsub})")
    if exc is not None:
        applicable.append(exc)

    if borel_flag:
        return DicksonClass("BorelConjugable", all_applicable=tuple(applicable),
                            witness=witness)
    if cyc_n is not None:
        # a cyclic projective image forces an abelian matrix group, which is
        # always Borel conjugable, so this branch should be unreachable
        return DicksonClass("Cyclic", n=cyc_n, all_applicable=tuple(applicable))
    if dih_n is not None:
        return DicksonClass("Dihedral", n=dih_n, all_applicable=tuple(applicable))
    big = [(kind, qsub) for kind, qsub in subfields if qsub > 3]
    if big:
        # a PSL2 = PGL2 coincidence (even q') is reported as PSL2
        kind, qsub = min(big, key=lambda kq: (kq[1], kq[0] != "PSL2"))
        tf = _trace_field_size(G.spec, commutator_subgroup(G))
        if tf != qsub:
            raise ClassificationError(
                f"commutator trace field F_{tf} does not match subfield q'={qsub}")
        return DicksonClass(kind, subfield_q=qsub, all_applicable=tuple(applicable))
    if exc is not None:
        return DicksonClass(exc, all_applicable=tuple(applicable))
    raise ClassificationError(
        f"projective group of order {P.order} fits no classical family")


# ---- helpers used throughout the classification ----------------------------


def traceless_count(P: ProjGroup) -> int:
    # scaling multiplies the trace by a unit, so tracelessness is projective
    return int(np.count_nonzero(P.traces == 0))


def commutator_trace_set(G: MatGroup) -> frozenset[int]:
    """Integer-encoded traces occurring on the commutator subgroup of G."""
    return commutator_subgroup(G).trace_ints()
