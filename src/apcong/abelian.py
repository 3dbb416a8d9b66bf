"""Per-trace-class congruence verdicts for subgroups of GL2 over a finite field.

A congruence condition on the prime p sees the image G of a mod-lambda
Galois representation only through the coset of the commutator subgroup
[G, G] that Frobenius lands in: congruence classes of p correspond to
elements of the abelianisation of G.  Whether membership of a_p in a given
trace class x is governed by such a condition therefore reduces to finite
coset bookkeeping:

* weakly abelian at x: some coset has constant trace x, so a congruence
  on p forces a_p = x (one-way, premise on p).
* semi abelian at x: some coset misses trace x, so a_p = x confines p to
  a proper subset of residue classes (one-way, premise on a_p).
* abelian at x: the trace-x slice of G is a union of cosets, so a_p = x
  is equivalent to a congruence condition on p.
* totally abelian: abelian at every class; equivalent to G having a
  common eigenline over at most a quadratic extension.

Every computed verdict is cross-checked against what the classification
predicts (the dihedral dichotomies, the traceless density, a per-family
semi table); a disagreement raises TheoremConsistencyError rather than
returning a silently wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import DicksonClass, classify_group
from .ffield import FieldSpec, embedding_table, factorize, is_prime, mult_order
from .matgrp import (
    MatGroup,
    commutator_subgroup,
    coset_label,
    enumerate_subgroups,
    mat_product,
    proj_canon,
    projectivize,
    unique_codes,
)


class TheoremConsistencyError(AssertionError):
    """A computed verdict contradicts the classification-driven prediction."""


# ---- coset trace data -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosetTraces:
    """The traces on the cosets of the commutator subgroup.

    label is the coset index of every element of G, aligned with G.codes,
    as coset_label numbers them; coset i and trace t occur together exactly
    when (i, t) is one of the pairs (pair_coset[k], pair_trace[k]), listed
    once each in ascending order.  Per trace x of the field the incidence is
    summarised once: const is the trace of each constant-trace coset (-1 for
    the others), first_const[x] the first coset of constant trace x and
    first_missing[x] the first coset that misses x (-1 if there is none),
    and mixed[x] whether x lies in a coset with two or more traces.
    """

    commutator: MatGroup
    label: np.ndarray
    pair_coset: np.ndarray
    pair_trace: np.ndarray
    const: np.ndarray
    first_const: np.ndarray
    first_missing: np.ndarray
    mixed: np.ndarray


def coset_traces(G: MatGroup) -> CosetTraces:
    return G.memo(_coset_traces)


def _coset_traces(G: MatGroup) -> CosetTraces:
    H = commutator_subgroup(G)
    label = coset_label(G, H)
    q, n = G.spec.q, G.order // H.order
    # distinct (coset, trace) pairs, ascending, split where the coset changes
    coset, trace = np.divmod(unique_codes(label * q + G.traces), q)
    starts = np.flatnonzero(np.diff(coset, prepend=-1))
    sizes = np.diff(starts, append=coset.size)
    const = np.where(sizes == 1, trace[starts], -1)
    first_const = np.full(q, n)
    np.minimum.at(first_const, const[const >= 0], np.flatnonzero(const >= 0))
    # the cosets holding x, ascending: the first one out of step with its
    # rank r is preceded by a gap at coset r
    by_trace = np.argsort(trace, kind="stable")
    count = np.bincount(trace, minlength=q)
    rank = np.arange(trace.size) - (np.cumsum(count) - count)[trace[by_trace]]
    gap = coset[by_trace] != rank
    first_missing = count.copy()
    np.minimum.at(first_missing, trace[by_trace][gap], rank[gap])
    mixed = np.bincount(trace[sizes[coset] > 1], minlength=q) > 0
    return CosetTraces(H, label, coset, trace,
                       const, np.where(first_const < n, first_const, -1),
                       np.where(first_missing < n, first_missing, -1), mixed)


def _trace_int(spec: FieldSpec, x) -> int:
    if not isinstance(x, int):
        raise TypeError(f"trace class must be an int encoding, got {x!r}")
    if not 0 <= x < spec.q:
        raise ValueError(f"encoding {x} out of range for q = {spec.q}")
    return x


def _require_proper(G: MatGroup, x) -> int:
    xi = _trace_int(G.spec, x)
    if xi not in G.trace_ints():
        raise ValueError(f"class {xi} is not attained on the group")
    return xi


# ---- public per-class verdicts ----------------------------------------------


def is_weakly_abelian(G: MatGroup, x):
    """Whether some coset of [G, G] has constant trace x.

    Returns (verdict, index of the first such coset or None), the index as
    coset_label numbers the cosets.  Such a coset makes a congruence
    condition on p force a_p = x.  x must be attained on G.
    """
    i = int(coset_traces(G).first_const[_require_proper(G, x)])
    return (True, i) if i >= 0 else (False, None)


def is_semi_abelian(G: MatGroup, x):
    """Whether some coset of [G, G] misses the trace x.

    Returns (verdict, index of the first such coset or None).  Such a
    coset confines the primes with a_p = x to a proper subset of residue
    classes.
    """
    i = int(coset_traces(G).first_missing[_require_proper(G, x)])
    return (True, i) if i >= 0 else (False, None)


def is_abelian_class(G: MatGroup, x):
    """Whether the trace-x slice of G is a union of cosets of [G, G].

    Returns (verdict, tuple of the indices of the cosets forming the slice
    or None).  When true, a_p = x is equivalent to a congruence condition
    on p: the slice is a union of fibres of the abelianisation map.
    """
    xi = _require_proper(G, x)
    data = coset_traces(G)
    if data.mixed[xi]:
        return False, None
    return True, tuple(np.flatnonzero(data.const == xi).tolist())


def is_totally_abelian(G: MatGroup) -> bool:
    """Whether every class is abelian for G, computed two independent ways.

    Route one asks every coset of [G, G] to have constant trace; route two
    asks for a common eigenline over the quadratic extension, as found by
    the classification.  The two must agree, otherwise
    TheoremConsistencyError is raised.
    """
    return G.memo(_totally_abelian)


def _totally_abelian(G: MatGroup) -> bool:
    by_cosets = bool((coset_traces(G).const >= 0).all())
    by_line = classify_group(G).label in ("BorelConjugable", "Cyclic")
    if by_cosets != by_line:
        raise TheoremConsistencyError(
            "constant-trace cosets and common-eigenline criteria disagree "
            f"(cosets: {by_cosets}, eigenline: {by_line})")
    return by_cosets


# ---- traceless density ------------------------------------------------------


def density_c(G: MatGroup) -> Fraction:
    """Fraction of traceless elements of G, as an exact rational.

    This is the density of primes with a_p = 0.  The counted value is
    checked against the table entry for the classified family; a mismatch
    raises TheoremConsistencyError.
    """
    return G.memo(_density_c)


def _density_c(G: MatGroup) -> Fraction:
    c = Fraction(int(np.count_nonzero(G.traces == 0)), G.order)
    _check_density(G, classify_group(G), c)
    return c


def _check_density(G: MatGroup, cls: DicksonClass, c: Fraction) -> None:
    spec = G.spec
    ell = spec.p
    lab = cls.label
    if lab in ("BorelConjugable", "Cyclic"):
        # triangularisable: zero, or 1/d for a divisor d of q - 1 or q + 1
        # (split and nonsplit torus parts), d even in odd characteristic
        if c == 0:
            return
        d = c.denominator
        ok = c.numerator == 1 and ((spec.q - 1) % d == 0 or (spec.q + 1) % d == 0)
        if ell != 2:
            ok = ok and d % 2 == 0
        if not ok:
            raise TheoremConsistencyError(
                f"{cls.describe()}: traceless density {c} is not 1/d for an "
                "allowed torus divisor d")
        return
    if lab == "Dihedral":
        n = cls.n
        if ell != 2 and n % 2 == 1:
            want = Fraction(1, 2)
        else:
            want = Fraction(1, 2) + Fraction(1, 2 * n)
    elif lab == "A4":
        want = Fraction(1, 4)
    elif lab == "S4":
        want = Fraction(3, 8)
    elif lab == "A5":
        want = Fraction(1, 4)
    elif lab in ("PGL2", "PSL2"):
        q1 = cls.subfield_q
        if lab == "PGL2" or q1 % 2 == 0:
            want = Fraction(q1, (q1 - 1) * (q1 + 1))
        else:
            eps = 1 if ((q1 + 1) // 2) % 2 == 0 else -1
            want = Fraction(1, q1 + eps)
    else:
        raise TheoremConsistencyError(f"no density rule for {cls.describe()}")
    if c != want:
        raise TheoremConsistencyError(
            f"{cls.describe()}: traceless density {c} != predicted {want}")


# ---- classification-driven semi predictions ---------------------------------


class SemiPredictor:
    """Predicts the semi verdict from the classified family alone.

    Uses only the family label plus scalar, determinant, commutator-trace
    and attained-trace data, never the coset partition, so it serves as an
    independent check of the coset computation.  predict(x) is total: it
    returns a bool for every class x of the field.
    """

    def __init__(self, G: MatGroup):
        self.G = G
        self.spec = G.spec
        self.cls = classify_group(G)
        H = commutator_subgroup(G)
        self.com_traces = H.trace_ints()
        self.scalar_ints = frozenset(G.entries[0][G.scalar_mask].tolist())
        self.det_ints = frozenset(G.dets.tolist())
        self.trace_ints = G.trace_ints()
        self._H_order = H.order
        self._H_scalars = int(np.count_nonzero(H.scalar_mask))

    def predict(self, x) -> bool:
        spec = self.spec
        xi = _trace_int(spec, x)
        cls = self.cls
        ell = spec.p
        lab = cls.label
        neg1 = spec.neg_i(1)
        if lab in ("BorelConjugable", "Cyclic"):
            # constant trace on every coset: semi unless the whole group
            # sits in the single class x
            return self.trace_ints != {xi}
        if lab == "Dihedral":
            if xi != 0:
                # the reflection cosets are entirely traceless
                return True
            return ell != 2 or cls.n % 2 == 0
        if lab == "A4":
            if xi == 0:
                return True
            if ell == 3 and xi in (1, neg1) and self.scalar_ints <= {1, neg1}:
                # three cosets: commutator traces cover the prime field and
                # the order-3 cosets consist of scaled unipotents of trace
                # +-1; nothing misses x
                return False
            return True
        if lab == "S4":
            if xi == 0:
                # the even coset has traceless involutions, the odd coset
                # traceless transposition lifts
                return False
            if ell != 3:
                return True
            if xi not in (1, neg1):
                return True
            if not (self.scalar_ints <= {1, neg1}):
                return True
            # two cosets exactly; the odd one misses +-1 unless its
            # determinant is -1
            return self.det_ints != frozenset((1, neg1))
        if lab in ("PSL2", "A5"):
            return self._scalar_translate_rule(xi)
        if lab == "PGL2":
            return self._subfield_det_rule(xi)
        raise TheoremConsistencyError(f"no semi rule for {cls.describe()}")

    def _scalar_translate_rule(self, xi: int) -> bool:
        """Projectively perfect image: cosets are scalar translates of [G, G]."""
        spec = self.spec
        if len(self.scalar_ints) * self._H_order != self.G.order * self._H_scalars:
            raise TheoremConsistencyError(
                "scalar translates of the commutator subgroup do not exhaust "
                f"a group classified {self.cls.describe()}")
        return any(
            all(spec.mul_i(a, t) != xi for t in self.com_traces)
            for a in self.scalar_ints)

    def _subfield_det_rule(self, xi: int) -> bool:
        """Image PGL2 over a subfield k: coset traces are lines z.k with
        z^2 = det modulo squares, so dets and attained traces decide."""
        spec = self.spec
        q1 = self.cls.subfield_q
        if xi == 0:
            # every coset contains traceless elements
            return False
        if any(spec.pow_i(d, q1 - 1) != 1 for d in self.det_ints):
            # two cosets with trace lines meeting only at 0
            return True
        if spec.pow_i(xi, q1) == xi:
            # x in k: missed exactly by a twisted trace line, if one occurs
            return any(spec.pow_i(t, q1) != t for t in self.trace_ints)
        return True


# ---- theorem-level cross-checks ----------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    group_order: int
    label: str
    checks: tuple[str, ...]


def theorem_crosscheck(G: MatGroup) -> CrosscheckReport:
    """Verify every classification-level prediction against brute force.

    For the single group G this checks: the equivalence of constant-trace
    cosets with Borel conjugacy, the dihedral characterisation of groups
    that are weakly abelian somewhere yet not totally abelian, the same
    for the union verdict, that a nonzero weak class forces Borel, the
    traceless density table, the per-family semi table on every class of
    the field, and agreement of the x = 0 union verdict with its
    projective counterpart.  Failures raise TheoremConsistencyError.
    """
    spec = G.spec
    cls = classify_group(G)
    data = coset_traces(G)
    ell = spec.p
    checks = []

    proper = G.trace_ints()
    totally = is_totally_abelian(G)
    checks.append("totally-borel-equivalence")

    weak = {x for x in proper if data.first_const[x] >= 0}
    union = {x for x in proper if not data.mixed[x]}
    borel = cls.label in ("BorelConjugable", "Cyclic")

    if any(x != 0 for x in weak) and not borel:
        raise TheoremConsistencyError(
            f"weak class x != 0 on a non-triangularisable group {cls.describe()}")
    checks.append("nonzero-weak-forces-borel")

    if cls.label == "Dihedral" and cls.n % ell == 0:
        raise TheoremConsistencyError(
            f"Dihedral({cls.n}) in characteristic {ell} should have been "
            "triangularisable")

    lhs = bool(weak) and not totally
    rhs = cls.label == "Dihedral" and cls.n > 1
    if lhs != rhs:
        raise TheoremConsistencyError(
            f"weak-but-not-totally is {lhs} yet the image is {cls.describe()}")
    if lhs and weak != {0}:
        raise TheoremConsistencyError(
            f"dihedral image must be weakly abelian exactly at 0, got {weak}")
    checks.append("weak-dichotomy")

    lhs = bool(union) and not totally
    rhs = (cls.label == "Dihedral" and cls.n > 1
           and (cls.n == 2 or cls.n % 2 == 1) and ell != 2)
    if lhs != rhs:
        raise TheoremConsistencyError(
            f"abelian-but-not-totally is {lhs} yet the image is "
            f"{cls.describe()} in characteristic {ell}")
    if lhs and union != {0}:
        raise TheoremConsistencyError(
            f"dihedral image must be abelian exactly at 0, got {union}")
    checks.append("union-dichotomy")

    density_c(G)
    checks.append("density-table")

    pred = SemiPredictor(G)
    for xi in range(spec.q):
        want = pred.predict(xi)
        got = bool(data.first_missing[xi] >= 0)
        if got != want:
            raise TheoremConsistencyError(
                f"{cls.describe()}: semi verdict at {xi} computed {got}, "
                f"family table says {want}")
    checks.append("semi-table")

    P = projectivize(G)
    # projection is a surjective homomorphism: [PG, PG] is the image of [G, G]
    part = P.coset_partition(unique_codes(proj_canon(spec, commutator_subgroup(G).codes)))
    sizes = np.bincount(part)
    zeros = np.bincount(part[P.traces == 0], minlength=sizes.size)
    proj_union = bool(((zeros == 0) | (zeros == sizes)).all())
    if proj_union == data.mixed[0]:
        raise TheoremConsistencyError(
            "projective and matrix union verdicts disagree at x = 0")
    checks.append("projective-zero-agreement")

    return CrosscheckReport(G.order, cls.describe(), tuple(checks))


def crosscheck_all_subgroups(ambient: MatGroup) -> int:
    """Run theorem_crosscheck over every subgroup of the ambient group.

    Each subgroup's (coset, trace) pairs are also re-derived by an
    independent grouping of elements (least product encoding per coset) and
    must agree with the pairs the verdicts read, each coset named by its
    least code.  Returns the number of subgroups checked.
    """
    count = 0
    for H in enumerate_subgroups(ambient):
        data = coset_traces(H)
        K = data.commutator
        alt = sorted({(min((g * k).encode() for k in K.elements), g.trace_i())
                      for g in H.elements})
        reps = H.codes[np.unique(data.label, return_index=True)[1]]
        ref = list(zip(reps[data.pair_coset].tolist(), data.pair_trace.tolist()))
        if alt != ref:
            raise TheoremConsistencyError(
                "independent coset partitions produced different (coset, trace) pairs")
        theorem_crosscheck(H)
        count += 1
    return count


# ---- report bundle ------------------------------------------------------------


@dataclass(frozen=True)
class ClassVerdict:
    x: int
    weakly: bool
    semi: bool
    abelian: bool


@dataclass(frozen=True)
class AbelianReport:
    """Everything the engine can say about one group."""

    group: MatGroup
    dickson: DicksonClass
    proper: tuple[int, ...]
    per_class: dict[int, ClassVerdict]
    totally: bool
    density: Fraction
    theorem_consistent: bool

    def verdict(self, x) -> ClassVerdict:
        return self.per_class[_trace_int(self.group.spec, x)]

    def to_json(self) -> dict:
        spec = self.group.spec
        return {
            "field": {"p": spec.p, "r": spec.r},
            "order": self.group.order,
            "dickson": self.dickson.to_json(),
            "proper": list(self.proper),
            "per_class": {
                str(k): {"weak": v.weakly, "semi": v.semi, "abelian": v.abelian}
                for k, v in sorted(self.per_class.items())
            },
            "totally": self.totally,
            "c": f"{self.density.numerator}/{self.density.denominator}",
            "consistent": self.theorem_consistent,
        }


def analyze_group(G: MatGroup, crosscheck: bool = True) -> AbelianReport:
    """Classify G and compute all per-class verdicts, density and totality.

    With crosscheck (the default) the theorem-level consistency checks run
    first and any failure propagates; theorem_consistent records whether
    they ran.
    """
    if crosscheck:
        theorem_crosscheck(G)
    proper = tuple(sorted(G.trace_ints()))
    per = {xi: ClassVerdict(xi, is_weakly_abelian(G, xi)[0], is_semi_abelian(G, xi)[0],
                            is_abelian_class(G, xi)[0])
           for xi in proper}
    return AbelianReport(G, classify_group(G), proper, per,
                         is_totally_abelian(G), density_c(G), crosscheck)


# ---- modulus bounds -----------------------------------------------------------


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    out = 1
    for p in factorize(n):
        out *= p
    return out


def part_supported(n: int, primes) -> int:
    """Largest divisor of n supported at the given primes."""
    out = 1
    for p, e in factorize(n).items():
        if p in primes:
            out *= p ** e
    return out


@dataclass(frozen=True)
class ModulusBound:
    """Bound on the modulus M of a governing congruence on p.

    bound is an integer every valid |M| divides; decomposition is its
    prime factorisation.  two_sided records whether the congruence is an
    equivalence (None when undetermined).  For the quadratic cases,
    m_one_mod_four notes that M must be chosen = 1 mod 4 (a sign choice)
    because the level times the characteristic is odd.
    """

    N: int
    ell: int
    case: str
    bound: int
    decomposition: tuple[tuple[int, int], ...]
    two_sided: bool | None
    m_one_mod_four: bool


def _semisimple_exponent(G: MatGroup) -> int:
    """Exponent of the diagonal-character image of a triangularisable G."""
    witness = classify_group(G).witness
    if witness is None:
        raise ValueError("group has no common eigenline over the quadratic "
                         "extension; no semisimplified diagonal image")
    ext = witness.spec
    emb = embedding_table(G.spec, ext)
    conj = tuple(emb[x] for x in G.entries)
    m, s = ext.mul_a, ext.add_a
    a, _, c, d = mat_product(m, s, mat_product(m, s, witness.inv().e, conj), witness.e)
    assert not c.any(), "conjugated element is not upper triangular"
    return math.lcm(*mult_order(ext, unique_codes(np.concatenate((a, d)))).tolist())


def modulus_bound(G: MatGroup | None, N: int, ell: int, case: str,
                  exp_ss: int | None = None, n: int | None = None) -> ModulusBound:
    """Bound the modulus of the congruence according to the image shape.

    case "Borel" (totally abelian): a_p mod lambda is a function of
    p mod M where M divides rad(N ell) times the part of twice the
    exponent of the semisimplified image supported at primes of N ell.
    Pass the group (triangularisable) or exp_ss directly.

    case "DihedralWeak" (projective dihedral D_n, n > 1, char not
    dividing n): there is an integer M with |M| dividing
    rad(N ell) * gcd(2, N ell)^2 such that (M/p) = -1 forces a_p = 0;
    the implication is an equivalence when ell is odd and n >= 3 is odd.

    case "D2" (projective Klein four-group, odd characteristic): two
    integers M1, M2 of the same bounded shape with gcd(2, N)^2, whose
    symbols jointly decide a_p = 0.
    """
    if N < 1:
        raise ValueError("level must be a positive integer")
    if not is_prime(ell):
        raise ValueError("residue characteristic must be prime")
    if case not in ("Borel", "DihedralWeak", "D2"):
        raise ValueError(f"unknown case {case!r}")
    if G is not None:
        cls = classify_group(G)
        if case == "Borel":
            if cls.label not in ("BorelConjugable", "Cyclic"):
                raise ValueError(f"case Borel does not match {cls.describe()}")
        else:
            if cls.label != "Dihedral" or cls.n < 2:
                raise ValueError(f"case {case} does not match {cls.describe()}")
            if case == "D2" and cls.n != 2:
                raise ValueError(f"case D2 does not match {cls.describe()}")
            n = cls.n
    s_primes = set(factorize(N * ell))
    if case == "Borel":
        if exp_ss is None:
            if G is None:
                raise ValueError("case Borel needs the group or exp_ss")
            exp_ss = _semisimple_exponent(G)
        bound = radical(N * ell) * part_supported(2 * exp_ss, s_primes)
        two_sided: bool | None = True
        sign = False
    elif case == "DihedralWeak":
        bound = radical(N * ell) * math.gcd(2, N * ell) ** 2
        two_sided = None if n is None else (ell != 2 and n % 2 == 1 and n >= 3)
        sign = (N * ell) % 2 == 1
    else:
        if ell == 2:
            raise ValueError("case D2 needs odd characteristic")
        bound = radical(N * ell) * math.gcd(2, N) ** 2
        two_sided = True
        sign = (N * ell) % 2 == 1
    decomposition = tuple(sorted(factorize(bound).items()))
    return ModulusBound(N, ell, case, bound, decomposition, two_sided, sign)
