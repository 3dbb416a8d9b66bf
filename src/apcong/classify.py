"""Conjugacy-class recognition for finite subgroups of PGL2 over finite fields.

Over the algebraic closure, a finite subgroup of PGL2 in characteristic p is
conjugate to one of the classical families (Dickson): a subgroup of the
upper triangular Borel group, a dihedral group D_n with p not dividing n, a
subfield group PSL2 or PGL2 over F_q', or one of the exceptional groups A4,
S4, A5.  For tiny fields the families overlap; the classifier reports a
single primary label under a fixed precedence plus every label that applies
abstractly.

The family tests read the projective image through |PG| and its
element-order counts (`proj_order_stats`), taken from the classes G.proj
and their orders G.class_orders.  Subfield groups are recognised by
comparing those counts with the closed-form counts of PSL2(q') and
PGL2(q') (Dickson; Huppert, Endliche Gruppen I, II.8), so the check holds
for every q' with no reference group built.  A Borel-conjugable G fixes a
line of P^1(F_{q^2}), and all q^2 + 1 lines are tested against every
generator in one array.

A G that contains SL2(F_q), q > 3 (`MatGroup.contains_sl2`), reads no
class: PG is PGL2(F_q) when det G holds a nonsquare and PSL2(F_q)
otherwise, so its order counts are the closed-form ones; it fixes no line,
so no F_{q^2} table is built; and its commutator trace field is F_q.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .ffield import FieldSpec, embedding_table, factorize, quadratic_extension
from .matgrp import (
    Mat2,
    MatGroup,
    _fixed_points,
    _join,
    _scale,
    commutator_subgroup,
    mat_product,
    memoised,
    split_codes,
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

    label is the primary family; n is set for Dihedral labels, subfield_q
    for PSL2/PGL2 labels.  all_applicable lists every family the group
    belongs to abstractly, the primary one included.  witness, when
    present, is a change-of-basis matrix over the quadratic extension that
    conjugates the matrix group into upper triangular form.
    """

    label: str
    n: int | None = None
    subfield_q: int | None = None
    all_applicable: tuple[str, ...] = ()
    witness: Mat2 | None = None

    def describe(self) -> str:
        if self.label == "Dihedral":
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


def _identity_class(G: MatGroup) -> np.ndarray:
    """Mask of the class of the scalars among G's classes."""
    return G.proj == _join(G.spec, 1, 0, 0, 1)


def _least_nonscalar(G: MatGroup) -> int:
    """The least code of G outside its scalars.  The least code of class i
    is s.proj[i] for the least encoding s in g^lift[i] Z, since proj[i]
    starts with entry 1 after any zeros."""
    exp = G.spec._tables[0]
    coset_min = exp[np.arange(G.k)[:, None] + G.k * np.arange(G.z_order)].min(axis=1)
    least = _scale(G.spec, G.proj, coset_min[G.lift])
    return int(least[~_identity_class(G)].min())


def is_borel_conjugable(G: MatGroup):
    """Whether G is conjugate to a group of upper triangular matrices over
    the quadratic extension of its field.

    Returns (flag, witness); when the flag is True the witness is a basis
    change P over the extension with P^-1 G P upper triangular.  Two
    independent routes are computed and compared: the structural criterion
    (the commutator subgroup contains no diagonalisable matrix besides the
    identity) and a search for a line of P^1(F_{q^2}) that every generator
    fixes.  Of the fixed lines, the one with the least eigenvalue under the
    least non-scalar element of G is the first column of P.  A G that
    contains SL_2(F_q), q > 3, is not: (1 1; 0 1) and (1 0; 1 1) share no
    eigenline.
    """
    if G.contains_sl2:
        return False, None
    spec = G.spec
    H = commutator_subgroup(G)
    # every element of H is 1 or a non-scalar with tr^2 = 4 det: H has no
    # scalar but 1, and disc(z l) = z^2 disc(l) is read on the lifts
    t = H.rep_traces
    disc = spec.sub_a(spec.mul_a(t, t), spec.mul_a(4 % spec.p, H.rep_dets))
    route_a = H.z_order == 1 and bool((disc[~_identity_class(H)] == 0).all())

    ext = quadratic_extension(spec)
    emb = embedding_table(spec)
    gens_e = tuple(emb[x] for x in split_codes(spec, G.gens))
    if G.proj_order == 1:
        # every element scalar: already upper triangular
        route_b, witness = True, Mat2(ext, (1, 0, 0, 1))
    else:
        # the lines (1, t), t in F_{q^2}, then (0, 1), that every generator fixes
        fixed = np.flatnonzero(_fixed_points(ext, *(x[:, None] for x in gens_e)))
        # a non-scalar element has distinct eigenvalues on distinct fixed
        # lines, a0 + b0 t on (1, t) and d0 on (0, 1): the least one wins
        a0, b0, _, d0 = (emb[x] for x in split_codes(spec, _least_nonscalar(G)))
        t = np.arange(ext.q, dtype=np.int64)
        lam = np.append(ext.add_a(a0, ext.mul_a(b0, t)), d0)[fixed]
        route_b, witness = fixed.size > 0, None
        if route_b:
            s = int(fixed[np.argmin(lam)])
            witness = Mat2(ext, (1, 0, s, 1) if s < ext.q else (0, 1, 1, 0))
    if route_a != route_b:
        raise RuntimeError(f"Borel criteria disagree (commutators: {route_a}, "
                           f"fixed lines: {route_b})")
    if route_b and G.proj_order > 1:
        mul, add = ext.mul_a, ext.add_a
        if mat_product(mul, add, mat_product(mul, add, witness.inv().e, gens_e),
                       witness.e)[2].any():
            raise RuntimeError("the Borel witness does not triangularise a generator")
    return route_a, witness


# ---- abstract family tests -------------------------------------------------


@memoised
def proj_order_stats(G: MatGroup) -> MappingProxyType:
    """The number of classes of PG of each order in PGL_2, read-only."""
    if G.contains_sl2:
        # PGL2(F_q) iff det G holds a nonsquare, that is e is odd; for even q
        # the two coincide
        kind = "PGL2" if G.det_exp % 2 else "PSL2"
        return MappingProxyType(_subfield_stats(kind, G.spec.q, G.spec.p))
    orders, counts = np.unique(G.class_orders, return_counts=True)
    return MappingProxyType(dict(zip(orders.tolist(), counts.tolist())))


def _cyclic_n(G: MatGroup) -> int | None:
    N = G.proj_order
    return N if proj_order_stats(G).get(N) else None


def _dihedral_n(G: MatGroup) -> int | None:
    """n >= 2 when PG is abstractly dihedral of order 2n (D_2 = C2 x C2):
    some c has order n and the n elements outside <c> are involutions, and
    <c> holds one involution for even n and none for odd n."""
    N = G.proj_order
    if N < 4 or N % 2:
        return None
    n = N // 2
    stats = proj_order_stats(G)
    return n if stats.get(n) and stats.get(2) == n + (n % 2 == 0) else None


def _trace_field_size(spec: FieldSpec, traces) -> int:
    """The least p^d, d | r, whose field holds every encoding in traces:
    x lies in F_{p^d} iff (q - 1)/(p^d - 1) divides log x, and log 0 =
    2(q - 1) is divisible by each."""
    logs = spec._tables[1][np.fromiter(traces, dtype=np.int64)]
    return next(spec.p**d for d in range(1, spec.r + 1) if spec.r % d == 0
                and not (logs % ((spec.q - 1) // (spec.p**d - 1))).any())


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
        # (d, phi(d)) for every d dividing the torus order, prime by prime
        phis = [(1, 1)]
        for ell, a in factorize(torus // half).items():
            phis = [(d * ell ** i, phi * (ell ** i - ell ** (i - 1) if i else 1))
                    for d, phi in phis for i in range(a + 1)]
        for d, phi in phis[1:]:
            stats[d] += phi * count
    return dict(stats)


def _subfield_matches(G: MatGroup) -> list[tuple[str, int]]:
    """(kind, q') pairs with PG abstractly the subfield group over F_q'."""
    p, N = G.spec.p, G.proj_order
    out = []
    qsub = p
    while qsub**3 - qsub <= 2 * N:
        full = qsub**3 - qsub
        half = full // 2 if qsub % 2 else full
        if N == half and proj_order_stats(G) == _subfield_stats("PSL2", qsub, p):
            out.append(("PSL2", qsub))
            if qsub % 2 == 0:
                out.append(("PGL2", qsub))
        if (N == full and qsub % 2
                and proj_order_stats(G) == _subfield_stats("PGL2", qsub, p)):
            out.append(("PGL2", qsub))
        qsub *= p
    return out


_EXCEPTIONAL = {12: ("A4", _A4_STATS), 24: ("S4", _S4_STATS), 60: ("A5", _A5_STATS)}


def _exceptional_match(G: MatGroup) -> str | None:
    if G.proj_order not in _EXCEPTIONAL:
        return None
    label, stats = _EXCEPTIONAL[G.proj_order]
    return label if proj_order_stats(G) == stats else None


@memoised
def classify_group(G: MatGroup) -> DicksonClass:
    """Primary family of the projective image of G under the precedence
    Borel > Dihedral > subfield PSL2/PGL2 (only for q' > 3) > exceptional,
    with all applicable families recorded.  A cyclic PG is recorded as
    Cyclic(n) but is never the primary label: it makes G abelian, and so
    Borel conjugable.  Subfield groups are recognised for every q' from
    closed-form element-order counts."""
    borel_flag, witness = is_borel_conjugable(G)
    cyc_n = _cyclic_n(G)
    dih_n = _dihedral_n(G)
    subfields = _subfield_matches(G)
    exc = _exceptional_match(G)

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
    if dih_n is not None:
        return DicksonClass("Dihedral", n=dih_n, all_applicable=tuple(applicable))
    big = [(kind, qsub) for kind, qsub in subfields if qsub > 3]
    if big:
        # a PSL2 = PGL2 coincidence (even q') is reported as PSL2
        kind, qsub = min(big, key=lambda kq: (kq[1], kq[0] != "PSL2"))
        tf = _trace_field_size(G.spec, commutator_subgroup(G).trace_ints())
        if tf != qsub:
            raise ClassificationError(
                f"commutator trace field F_{tf} does not match subfield q'={qsub}")
        return DicksonClass(kind, subfield_q=qsub, all_applicable=tuple(applicable))
    if exc is not None:
        return DicksonClass(exc, all_applicable=tuple(applicable))
    raise ClassificationError(
        f"projective group of order {G.proj_order} fits no classical family")

