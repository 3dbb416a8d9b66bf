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
predicts (the weak, semi and abelian columns of the family table over
every class of the field, and the traceless density); a disagreement
raises TheoremConsistencyError rather than returning a silently wrong
answer.

A G that contains SL_2(F_q), q > 3 (`MatGroup.contains_sl2`), is answered
from q and D = det G alone: every coset of [G, G] = SL_2(F_q) has every
trace, the density is counted by determinant fibre and the projective
check by square class of the determinant, and no class of G is built.
Every other G reads its verdicts off the (coset, trace) pairs of its
classes, with the cosets split by products (`coset_split`); that one
route also places elements of an SL_2 overgroup in their cosets
(`coset_of`), whose classes are then built on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .classify import DicksonClass, classify_group
from .ffield import FieldSpec, embedding_table, factorize, is_int, is_prime, mult_order
from .matgrp import (
    MatGroup,
    commutator_subgroup,
    coset_of,
    coset_split,
    enumerate_subgroups,
    mat_product,
    mul_codes,
    split_codes,
    unique_codes,
)


class TheoremConsistencyError(AssertionError):
    """A computed verdict contradicts the classification-driven prediction."""


# ---- coset trace data -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosetTraces:
    """The traces on the cosets of the commutator subgroup.

    Cosets are numbered as coset_split numbers them.  Coset i and trace t
    occur together exactly when (i, t) is one of the pairs
    (pair_coset[k], pair_trace[k]), listed once each in ascending order;
    pairs holds their codes i q + t, or None when every coset has every
    trace, and the two arrays are read off it on request.  Per trace x of
    the field the incidence is summarised once: const is the trace of each
    constant-trace coset (-1 for the others), first_const[x] the first
    coset of constant trace x and first_missing[x] the first coset that
    misses x (-1 if there is none), and mixed[x] whether x lies in a coset
    with two or more traces.
    """

    group: MatGroup
    commutator: MatGroup
    pairs: np.ndarray | None
    const: np.ndarray
    first_const: np.ndarray
    first_missing: np.ndarray
    mixed: np.ndarray

    @cached_property
    def _pair_codes(self) -> np.ndarray:
        if self.pairs is None:
            return np.arange(self.const.size * self.group.spec.q)
        return self.pairs

    @property
    def pair_coset(self) -> np.ndarray:
        return self._pair_codes // self.group.spec.q

    @property
    def pair_trace(self) -> np.ndarray:
        return self._pair_codes % self.group.spec.q


def coset_traces(G: MatGroup) -> CosetTraces:
    return G.memo(_coset_traces)


def _coset_traces(G: MatGroup) -> CosetTraces:
    """The coset traces, in closed form when G contains SL_2(F_q), q > 3:
    [G, G] = SL_2(F_q), so each coset is a whole determinant fibre
    {det = d} of GL_2, which holds (t -d; 1 0) of trace t for every t, and
    every coset has every trace."""
    H = commutator_subgroup(G)
    if G.contains_sl2:
        q, n = G.spec.q, G.order // H.order
        return CosetTraces(G, H, None, np.full(n, -1), np.full(q, -1), np.full(q, -1),
                           np.ones(q, dtype=bool))
    return _class_coset_traces(G, H)


def _class_coset_traces(G: MatGroup, H: MatGroup) -> CosetTraces:
    """The coset traces read off the (coset, trace) pairs of G's classes."""
    label, shift, m = coset_split(G, H)
    spec = G.spec
    q, kh, n = spec.q, H.k, (int(label.max()) + 1) * m
    exp, log = spec._tables
    # g^(k j).reps[i] lies in coset label[i] m + u with u = (shift[i] + j) mod m
    # and has trace g^(k j) t_i, so its trace modulo Z ∩ H = <g^kh> has log
    # tau_i + k u mod kh, with tau_i = log t_i - k shift[i]: the distinct
    # (label, tau) pairs of the classes give every (coset, trace) pair
    t = G.rep_traces
    tau = np.where(t == 0, kh, (log[t] - G.k * shift) % kh)
    cls, tau = np.divmod(unique_codes(label * (kh + 1) + tau), kh + 1)
    u = np.arange(m)
    zero = tau == kh
    trace = exp[((tau[~zero, None] + G.k * u) % kh)[:, :, None]
                + kh * np.arange((q - 1) // kh)]
    coset = np.broadcast_to((cls[~zero, None] * m + u)[:, :, None], trace.shape)
    pairs = np.sort(np.concatenate(((coset * q + trace).ravel(),
                                    (cls[zero, None] * m + u).ravel() * q)))
    coset, trace = np.divmod(pairs, q)
    # split where the coset changes
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
    return CosetTraces(G, H, pairs, const, np.where(first_const < n, first_const, -1),
                       np.where(first_missing < n, first_missing, -1), mixed)


def _trace_int(spec: FieldSpec, x) -> int:
    if not is_int(x):
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
    coset_of numbers the cosets.  Such a coset makes a congruence
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
    by_line = classify_group(G).label == "BorelConjugable"
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
    if G.contains_sl2:
        c = Fraction(int(_traceless_by_square_class(G).sum()), G.order)
    else:
        # tracelessness is scalar-invariant: traceless classes over |PG|
        c = Fraction(int(np.count_nonzero(G.rep_traces == 0)), G.proj_order)
    _check_density(G, classify_group(G), c)
    return c


def _traceless_by_square_class(G: MatGroup) -> np.ndarray:
    """For G ⊇ SL_2(F_q), q > 3: the numbers of traceless elements of G
    whose determinant is a square, and a nonsquare, from the fibre counts.

    G is det^-1(D), D = det G, and (a b; c -a) has det -(a^2 + b c): for
    each a, b c = -d - a^2 has q - 1 solutions, or 2 q - 1 when a^2 = -d.
    So #{tr = 0, det = d} = q^2 + chi(-d) q for odd q, chi the quadratic
    character, and q^2 for even q, where every d is a square.
    """
    q, e = G.spec.q, G.det_exp
    ld = e * np.arange((q - 1) // e)  # the logs of D
    if q % 2 == 0:
        return np.array([q * q * ld.size, 0])
    # chi(-d) = 1 iff log(-d) = (q - 1) / 2 + log d is even
    count = q * q + np.where((ld + (q - 1) // 2) % 2, -q, q)
    square = ld % 2 == 0
    return np.array([count[square].sum(), count[~square].sum()])


def _check_density(G: MatGroup, cls: DicksonClass, c: Fraction) -> None:
    spec = G.spec
    ell = spec.p
    lab = cls.label
    if lab == "BorelConjugable":
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


# ---- the family table -------------------------------------------------------

_COLUMNS = ("weak", "semi", "abelian")


def _attained(G: MatGroup) -> np.ndarray:
    """Whether each class x of the field is a trace on G."""
    mask = np.zeros(G.spec.q, dtype=bool)
    mask[list(G.trace_ints())] = True
    return mask


def _verdict_table(G: MatGroup) -> np.ndarray:
    """The computed weak, semi and abelian verdicts at every class x of the
    field, one row each, read off the coset traces as the public verdicts
    read them; weak and abelian hold only at attained classes."""
    data, attained = coset_traces(G), _attained(G)
    return np.array([attained & (data.first_const >= 0), data.first_missing >= 0,
                     attained & ~data.mixed])


def _family_table(G: MatGroup) -> np.ndarray:
    """The weak, semi and abelian verdicts at every class x of the field,
    one row each as in _verdict_table, from the classified family plus
    scalar, determinant, commutator-trace and attained-trace data, never
    the coset partition: an independent check of the coset computation."""
    spec, cls = G.spec, classify_group(G)
    lab = cls.label
    # two arrays: unpacking one (2, q) array iterates an ndarray, which
    # costs a freshly forked analyze about 0.3 MB of resident memory
    weak, abelian = np.zeros(spec.q, dtype=bool), np.zeros(spec.q, dtype=bool)
    semi = np.ones(spec.q, dtype=bool)
    pm1 = [1, spec.neg_i(1)]
    # three cosets for A4 and two for S4 in characteristic 3 when Z <= {+-1}
    char3_pm1 = spec.p == 3 and set(G.scalars.tolist()) <= set(pm1)
    if lab == "BorelConjugable":
        # constant trace on every coset: weak and abelian at every attained
        # class, and semi unless the whole group sits in the single class x
        weak = abelian = _attained(G)
        if np.count_nonzero(weak) == 1:
            semi = ~weak
    elif lab == "Dihedral":
        # the reflection cosets are entirely traceless; the traceless slice
        # is a union of cosets unless a rotation is traceless too (the
        # half-turn for even n > 2, the identity in characteristic 2)
        weak[0] = True
        abelian[0] = spec.p != 2 and (cls.n == 2 or cls.n % 2 == 1)
        semi[0] = spec.p != 2 or cls.n % 2 == 0
    elif lab == "A4":
        if char3_pm1:
            # commutator traces cover the prime field and the order-3
            # cosets consist of scaled unipotents of trace +-1; nothing
            # misses +-1
            semi[pm1] = False
    elif lab == "S4":
        # the even coset has traceless involutions, the odd coset traceless
        # transposition lifts
        semi[0] = False
        if char3_pm1:
            # the odd coset misses +-1 unless its determinant is -1
            semi[pm1] = G.det_ints() != frozenset(pm1)
    elif lab in ("PSL2", "A5"):
        semi = _scalar_translate_semi(G, cls)
    elif lab == "PGL2":
        semi = _subfield_det_semi(G, cls.subfield_q)
    else:
        raise TheoremConsistencyError(f"no family rule for {cls.describe()}")
    return np.array([weak, semi, abelian])


def _scalar_translate_semi(G: MatGroup, cls: DicksonClass) -> np.ndarray:
    """Projectively perfect image: cosets are scalar translates a.[G, G],
    and x is semi when some translate has no trace x."""
    spec, H, a = G.spec, commutator_subgroup(G), G.scalars
    if a.size * H.order != G.order * H.z_order:
        raise TheoremConsistencyError(
            "scalar translates of the commutator subgroup do not exhaust "
            f"a group classified {cls.describe()}")
    if len(H.trace_ints()) == spec.q:
        # a.F_q = F_q for every scalar a: no translate misses a trace
        return np.zeros(spec.q, dtype=bool)
    t = np.fromiter(H.trace_ints(), dtype=np.int64)
    # hit[i, x]: the translate by a[i] has a trace x
    hit = np.zeros((a.size, spec.q), dtype=bool)
    hit[np.arange(a.size)[:, None], spec.mul_a(a[:, None], t[None, :])] = True
    return ~hit.all(axis=0)


def _subfield_det_semi(G: MatGroup, q1: int) -> np.ndarray:
    """Image PGL2 over the subfield k of order q1: coset traces are lines
    z.k with z^2 = det modulo squares, so dets and attained traces decide.
    Every coset contains traceless elements, so 0 is never semi."""
    spec = G.spec
    x = np.arange(spec.q)
    dets = np.fromiter(G.det_ints(), dtype=np.int64)
    t = np.fromiter(G.trace_ints(), dtype=np.int64)
    if (spec.pow_a(dets, q1 - 1) != 1).any() or (spec.pow_a(t, q1) != t).any():
        # two cosets with trace lines meeting only at 0, or a twisted
        # trace line, which misses every x in k
        return x != 0
    return spec.pow_a(x, q1) != x


# ---- theorem-level cross-checks ----------------------------------------------


def theorem_crosscheck(G: MatGroup) -> None:
    """Verify every classification-level prediction against brute force.

    For the single group G this checks: the equivalence of constant-trace
    cosets with Borel conjugacy, that a dihedral image has order prime to
    the characteristic, the traceless density table, the family table's
    weak, semi and abelian columns on every class of the field, and
    agreement of the x = 0 union verdict with its projective counterpart.
    Failures raise TheoremConsistencyError.
    """
    cls = classify_group(G)
    ell = G.spec.p
    if cls.label == "Dihedral" and cls.n % ell == 0:
        raise TheoremConsistencyError(
            f"Dihedral({cls.n}) in characteristic {ell} should have been "
            "triangularisable")
    is_totally_abelian(G)
    density_c(G)

    got, want = _verdict_table(G), _family_table(G)
    if not np.array_equal(got, want):
        col, xi = np.argwhere(got != want)[0].tolist()
        raise TheoremConsistencyError(
            f"{cls.describe()}: {_COLUMNS[col]} verdict at {xi} computed "
            f"{bool(got[col, xi])}, family table says {bool(want[col, xi])}")

    # projection is a surjective homomorphism: [PG, PG] is the image of [G, G]
    data = coset_traces(G)
    sizes, zeros = _proj_coset_zeros(G, data.commutator)
    proj_union = bool(((zeros == 0) | (zeros == sizes)).all())
    if proj_union == data.mixed[0]:
        raise TheoremConsistencyError(
            "projective and matrix union verdicts disagree at x = 0")


def _proj_coset_zeros(G: MatGroup, H: MatGroup) -> tuple[np.ndarray, np.ndarray]:
    """The number of classes, and of traceless classes, in each coset of PH
    in PG; a class is traceless iff its lift is, since scaling keeps a zero
    trace.

    When G contains SL_2(F_q), q > 3, PH = PSL_2(F_q) and the cosets are
    the square classes of the determinant met by det G: each has |PH|
    classes, and its traceless elements, |Z| to a class, are counted by
    determinant fibre.
    """
    if G.contains_sl2:
        count = _traceless_by_square_class(G)
        zeros = count[count > 0] // G.z_order
        return np.full(zeros.size, H.proj_order), zeros
    part = coset_split(G, H)[0]
    sizes = np.bincount(part)
    return sizes, np.bincount(part[G.rep_traces == 0], minlength=sizes.size)


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
        least = mul_codes(H.spec, H.codes[:, None], K.codes[None, :]).min(axis=1)
        alt = sorted(set(zip(least.tolist(), H.traces.tolist())))
        # the least code of coset i is H.codes at the first index with label i
        reps = H.codes[np.unique(coset_of(H, K, H.codes), return_index=True)[1]]
        ref = sorted(zip(reps[data.pair_coset].tolist(), data.pair_trace.tolist()))
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
            # analyze_group only returns a report once theorem_crosscheck passed
            "consistent": True,
        }


def analyze_group(G: MatGroup) -> AbelianReport:
    """Check G with theorem_crosscheck, which raises on a failure, then
    classify it and compute all per-class verdicts, density and totality."""
    theorem_crosscheck(G)
    proper = tuple(sorted(G.trace_ints()))
    # the columns theorem_crosscheck checked, at every proper class
    table = _verdict_table(G)[:, list(proper)].tolist()
    per = {xi: ClassVerdict(xi, *v) for xi, *v in zip(proper, *table)}
    return AbelianReport(G, classify_group(G), proper, per,
                         is_totally_abelian(G), density_c(G))


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
    conj = tuple(emb[x] for x in split_codes(G.spec, G.reps))
    m, s = ext.mul_a, ext.add_a
    a, _, c, d = mat_product(m, s, mat_product(m, s, witness.inv().e, conj), witness.e)
    if c.any():
        raise RuntimeError("conjugated element is not upper triangular")
    # the diagonal entries of z.l are z a and z d: with Z they generate the
    # group generated by a, d and Z, whose order the lcm is
    orders = mult_order(ext, unique_codes(np.concatenate((a, d)))).tolist()
    return math.lcm(*orders, G.z_order)


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
            if cls.label != "BorelConjugable":
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
