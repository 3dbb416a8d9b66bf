"""Empirical congruence discovery and verification on a_p datasets.

Given reduced coefficient samples, find for each residue class x the sets of
p-residues that empirically govern a_p = x, fit quadratic-symbol criteria,
and check the square/nonsquare vanishing rule.  A synthetic sampler turns
any matrix group into a mock Frobenius data stream so the discovery loop can
be validated against the exact coset verdicts: residues mod M map onto the
cosets of [G, G], each found from powers of G's generators by `coset_of`.

Everything reported here is empirical over the finite sample and is labeled
as such; the group machinery supplies the corresponding exact statements.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .abelian import CosetTraces, _symbol_bound, coset_traces, density_c
from .eigendata import (
    ApDataset,
    EllipticCurve,
    build_dataset,
    curve_datasets,
    delta_coeffs,
)
from .ffield import is_prime, kronecker, legendre, make_field
from .matgrp import MatGroup, _join, coset_of, mul_codes

MIN_SAMPLES_PER_CLASS = 5


class InsufficientDataError(ValueError):
    pass


def _units(M: int) -> list[int]:
    # gcd(0, 1) = 1, so M = 1 has the single class 0
    return np.flatnonzero(np.gcd(np.arange(M), M) == 1).tolist()


# ---------------------------------------------------------------------------
# per-class discovery


@dataclass(frozen=True)
class ClassCongruence:
    """Empirical congruence statement for one residue class.

    sup holds the p-residues all of whose samples land in the class (the
    candidate "p in S implies a_p = x" set); nec holds the residues with at
    least one sample in the class (so "a_p = x implies p in nec" is exact on
    the data).  direction is the strongest statement the sample supports.
    """

    modulus: int
    sup: frozenset[int]
    nec: frozenset[int]
    direction: str  # "iff" | "implied_by" | "implies"
    min_class_count: int

    @property
    def s_x(self) -> frozenset[int]:
        return self.sup if self.direction in ("iff", "implied_by") else self.nec


def _require_reduced(ds: ApDataset) -> None:
    """ValueError for an exact dataset (ell = 0): the classes x are residues."""
    if not ds.ell:
        raise ValueError(f"{ds.label} holds exact a_p (ell = 0); reduce it mod a prime first")


def discover_class(ds: ApDataset, x: int, M: int) -> ClassCongruence:
    """Candidate S_x sets mod M for the class a_p = x; iff needs at least
    MIN_SAMPLES_PER_CLASS samples in every residue class."""
    _require_reduced(ds)
    if M < 1:
        raise ValueError("modulus must be positive")
    if M >= int(ds.p.max(initial=1)) + 2:
        # every sample p is below the unit class M - 1, so it holds none
        raise InsufficientDataError(f"no samples in residue class {M - 1} mod {M}")
    x %= ds.ell
    units = np.array(_units(M))
    # one pass: bin 2 (p mod M) + [a_p = x] gives misses and hits per residue
    key = ds.p % M
    key *= 2
    key += ds.a == x
    table = np.bincount(key, minlength=2 * M)
    hits = table[2 * units + 1]
    total = table[2 * units] + hits
    missing = int(np.count_nonzero(total == 0))
    if missing:
        raise InsufficientDataError(
            f"no samples in {missing} residue classes mod {M}"
        )
    sup = frozenset(units[hits == total].tolist())
    nec = frozenset(units[hits > 0].tolist())
    mn = int(total.min())
    if sup == nec and nec and mn >= MIN_SAMPLES_PER_CLASS:
        direction = "iff"
    elif sup:
        direction = "implied_by"
    else:
        direction = "implies"
    return ClassCongruence(M, sup, nec, direction, mn)


@dataclass(frozen=True)
class CongruenceReport:
    """Discovery results for every attained class of a dataset."""

    label: str
    ell: int
    modulus: int
    per_class: dict[int, ClassCongruence]
    legendre_fits: tuple[tuple[int, str], ...]
    n_samples: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "ell": self.ell,
            "modulus": self.modulus,
            "samples": self.n_samples,
            "classes": {
                str(x): {
                    "direction": e.direction,
                    "s_x": sorted(e.s_x),
                    "sup": sorted(e.sup),
                    "nec": sorted(e.nec),
                }
                for x, e in sorted(self.per_class.items())
            },
            "legendre_fits": [list(f) for f in self.legendre_fits],
        }

    def table(self) -> str:
        arrows = {"iff": "<=>", "implied_by": "<==", "implies": "==>"}
        lines = [
            f"{self.label}: a_p mod {self.ell} vs p mod {self.modulus} "
            f"({self.n_samples} samples)"
        ]
        for x, e in sorted(self.per_class.items()):
            res = ", ".join(str(r) for r in sorted(e.s_x))
            lines.append(f"  a_p = {x} {arrows[e.direction]} p in {{{res}}}")
        for m, direction in self.legendre_fits:
            tail = "iff" if direction == "iff" else "one-way"
            lines.append(f"  ({m}/p) = -1 implies a_p = 0  [{tail}]")
        return "\n".join(lines)


def discover_report(ds: ApDataset, M: int, candidates=()) -> CongruenceReport:
    _require_reduced(ds)
    per = {x: discover_class(ds, x, M) for x in ds.attained()}
    fits = legendre_fit(ds, candidates) if candidates else ()
    return CongruenceReport(ds.label, ds.ell, M, per, fits, len(ds))


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def best_modulus(ds: ApDataset, x: int, bound: int) -> ClassCongruence | None:
    """Least divisor of bound that upgrades the class to an iff statement.
    A modulus past max p + 1 has a unit class with no sample (see
    discover_class), so only the divisors up to there are tried."""
    _require_reduced(ds)
    top = min(bound, int(ds.p.max(initial=1)) + 1)
    for M in (d for d in range(1, top + 1) if bound % d == 0):
        try:
            entry = discover_class(ds, x, M)
        except InsufficientDataError:
            continue
        if entry.direction == "iff":
            return entry
    return None


# ---------------------------------------------------------------------------
# quadratic-symbol fitting


def legendre_candidates(N: int, ell: int) -> list[int]:
    """Signed divisors of rad(N ell) gcd(2, N ell)^2, the symbol moduli a
    congruence of level N and characteristic ell can see: the bound that
    modulus_bound gives a dihedral image, read off N and ell alone, since
    the image of a dataset is not known."""
    out = []
    for d in divisors(_symbol_bound(N, ell)):
        out += [d, -d]
    out.remove(1)
    return sorted(out, key=lambda m: (abs(m), m < 0))


def kronecker_column(m: int, n: np.ndarray) -> np.ndarray:
    """kronecker(m, k) for each k in the positive int array n: for odd k it
    depends only on k mod 4|m|; each even k (of primes, 2) is its own class."""
    period = 4 * abs(m)
    key = np.where(n % 2 == 1, n % period, period + n)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return np.array([kronecker(m, k) for k in n[first].tolist()], dtype=np.int64)[inv]


def legendre_fit(ds: ApDataset, candidates) -> tuple[tuple[int, str], ...]:
    """Candidate discriminants M with zero counterexamples to
    (M/p) = -1 implies a_p = 0, vacuous premises filtered; fits where the
    converse also holds are flagged iff."""
    fits = []
    hits = ds.a == 0
    for m in candidates:
        if m == 0:
            raise ValueError("candidate discriminant 0")
        premise = kronecker_column(m, ds.p) == -1
        if not premise.any() or not hits[premise].all():
            continue
        converse = premise[hits].all()
        fits.append((m, "iff" if converse and hits.any() else "implied_by"))
    return tuple(fits)


# ---------------------------------------------------------------------------
# printed-table verification


@dataclass(frozen=True)
class TableCheck:
    label: str
    name: str
    ok: bool
    violations: tuple[str, ...]
    detail: str = ""


def check_allowed(ds: ApDataset, allowed: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Check samples against a table allowed[r, a] over (p mod M, a_p mod
    ell), M = len(allowed).  Returns one message per sample outside the
    table, in sample order, and seen[r, a]: the pairs that occur."""
    M, ell = allowed.shape
    if ds.ell != ell:
        raise ValueError(f"table is mod {ell}, data mod {ds.ell}")
    r = ds.p % M
    seen = np.zeros_like(allowed)
    seen[r, ds.a] = True
    bad = np.flatnonzero(~allowed[r, ds.a])
    return tuple(
        f"p={p}: a_p={a} not allowed in class {c} mod {M}"
        for p, a, c in zip(ds.p[bad].tolist(), ds.a[bad].tolist(), r[bad].tolist())
    ), seen


# frozen printed tables for the packaged example curves
ROWS_338_MOD5 = {0: {1, 4}, 1: {3, 4}, 4: {3, 4}, 2: {1, 2}, 3: {1, 2}}
ROWS_338_MOD65 = {
    0: {4, 6, 9, 11, 14, 21, 29, 31, 41, 46, 49, 64},
    1: {8, 19, 23, 33, 38, 43, 44, 54, 63},
    2: {1, 2, 12, 16, 17, 32, 57, 61, 62},
    3: {7, 22, 27, 36, 37, 42, 47, 51, 56},
    4: {3, 18, 24, 28, 34, 48, 53, 58, 59},
}
MENU_2450BA1_MOD7 = {3: {0}, 5: {0}, 6: {0}, 2: {1, 3}, 1: {2, 6}, 4: {4, 5}}
ROWS_2450A1_MOD35 = {
    1: {8, 9, 16, 22},
    2: {1, 18, 29, 32},
    3: {9, 18, 32, 16},
    4: {2, 4, 11, 23},
    5: {4, 8, 11, 22},
    6: {1, 2, 23, 29},
}
ROWS_324B1_MOD5 = {1: {1, 3, 4}, 4: {1, 3, 4}, 2: {1, 2, 4}, 3: {1, 2, 4}}
MENU_50700_MOD13 = {
    1: {11, 12, 0, 1, 2},
    2: {11, 0, 2},
    3: {8, 9, 0, 4, 5},
    4: {9, 11, 0, 2, 4},
    5: {7, 0, 6},
    6: {8, 0, 5},
    7: {12, 0, 1},
    8: {9, 0, 4},
    9: {7, 10, 0, 3, 6},
    10: {7, 12, 0, 1, 6},
    11: {10, 0, 3},
    12: {8, 10, 0, 3, 5},
}


def _s0_mod39() -> frozenset[int]:
    return frozenset(
        r
        for r in _units(39)
        if kronecker(-3, r) == -1 or kronecker(13, r) == -1
    )


def _table(M: int, ell: int, allows: Callable[[int, int], bool]) -> np.ndarray:
    out = np.array([[allows(r, a) for a in range(ell)] for r in range(M)])
    out.flags.writeable = False  # shared by every call through _statements
    return out


def _sharp(*groups: list[int]) -> Callable[[np.ndarray, np.ndarray], bool]:
    """Seen-condition: each group of a_p values occurs at exactly the
    residues where the table allows some value of the group."""
    return lambda seen, allowed: all(
        np.array_equal(seen[:, g].any(axis=1), allowed[:, g].any(axis=1)) for g in groups
    )


class Statement(NamedTuple):
    """A printed statement: the table allowed[r, a] of the (p mod M, a_p mod
    ell) pairs it allows, shaped (M, ell), and a condition holds(seen,
    allowed) on the pairs seen (sharpness, or a pair that must occur)."""

    label: str
    name: str
    allowed: np.ndarray
    holds: Callable[[np.ndarray, np.ndarray], bool] = lambda seen, allowed: True
    detail: str = ""  # reported when the statement holds


def vanishing_statement(label: str, ell: int) -> Statement:
    """The square/nonsquare vanishing rule: a_p = 0 mod ell iff p is a
    nonsquare mod ell, verified only when some nonsquare p was checked."""
    nonsq = [r for r in range(ell) if legendre(r, ell) == -1]
    return Statement(label, "square/nonsquare vanishing rule",
                     _table(ell, ell, lambda r, a: (a == 0) == (r in nonsq)),
                     lambda seen, allowed: seen[nonsq].any())


@cache
def _statements() -> tuple[Statement, ...]:
    s0 = _s0_mod39()
    return (
        Statement("338d1", "disc-symbol forces even a_p",
                  _table(104, 2, lambda r, a: a == 0 or kronecker(-26, r) != -1)),
        Statement("338d1", "mod-3 vanishing iff p mod 39",
                  _table(39, 3, lambda r, a: (a == 0) == (r in s0))),
        Statement("338d1", "mod-5 one-way determinant rule",
                  _table(5, 5, lambda r, a: r in ROWS_338_MOD5[a])),
        Statement("338d1", "p + a_p^2 square mod 5",
                  _table(5, 5, lambda r, a: legendre(r + a * a, 5) != -1)),
        # the rows are disjoint, so "a_p = x iff p in row x" allows row x only
        Statement("338d1", "mod-65 five-row table sharp",
                  _table(65, 5, lambda r, a: r in ROWS_338_MOD65[a]), np.array_equal),
        Statement("2450ba1", "mod-7 four-row table sharp",
                  _table(7, 7, lambda r, a: a in MENU_2450BA1_MOD7.get(r, ())),
                  np.array_equal),
        vanishing_statement("2450ba1", 7),
        Statement("2450a1", "mod-35 six-row one-way table",
                  _table(35, 7, lambda r, a: a == 0 or r in ROWS_2450A1_MOD35[a]),
                  _sharp(*([x] for x in ROWS_2450A1_MOD35))),
        Statement("608e1", "p = 3 mod 4 forces vanishing",
                  _table(4, 5, lambda r, a: r != 3 or a == 0)),
        Statement("608e1", "converse fails at p = 1, 9 mod 20",
                  _table(20, 5, lambda r, a: True),
                  lambda seen, allowed: seen[[1, 9], 0].any() and seen[[1, 9], 1:].any(),
                  "both zero and nonzero a_p occur"),
        Statement("324b1", "two exclusion implications mod 5 sharp",
                  _table(5, 5, lambda r, a: a == 0 or r in ROWS_324B1_MOD5[a]),
                  _sharp([1, 4], [2, 3])),
        Statement("50700u1", "mod-13 twelve-row menu sharp",
                  _table(13, 13, lambda r, a: a in MENU_50700_MOD13.get(r, ())),
                  np.array_equal),
    )


def check_statement(st: Statement, ds: ApDataset) -> TableCheck:
    """Check a statement on a dataset reduced mod its ell: it holds when no
    sample lies outside its table and its seen-condition is met."""
    # a statement checked on no prime is not verified
    if not len(ds):
        return TableCheck(st.label, st.name, False, (), "no samples")
    violations, seen = check_allowed(ds, st.allowed)
    ok = not violations and bool(st.holds(seen, st.allowed))
    return TableCheck(st.label, st.name, ok, violations, st.detail if ok else "")


def verify_fixture_tables(
    curves: dict[str, EllipticCurve], p_max: int = 10_000
) -> list[TableCheck]:
    """Re-derive every printed congruence table from point counts."""
    labels = [lab for lab in dict.fromkeys(st.label for st in _statements()) if lab in curves]
    # each curve is point counted once, all in one kernel pass, and every
    # ell reduces the same a_p
    exact = dict(zip(labels, curve_datasets([curves[lab] for lab in labels], p_max)))
    return [check_statement(st, exact[st.label].reduce(st.allowed.shape[1]))
            for st in _statements() if st.label in exact]


# ---------------------------------------------------------------------------
# the weight-12 level-1 partition


@dataclass(frozen=True)
class PartitionResult:
    checked: int
    violations: tuple[str, ...]
    dataset: ApDataset  # the tau(p) mod 23 samples that were checked

    @property
    def ok(self) -> bool:
        return not self.violations


def x2_plus_23y2(n_max: int) -> np.ndarray:
    """The mask over 0..n_max of the n = x^2 + 23 y^2, x, y >= 0: one
    broadcast of the squares against 23 times the squares."""
    x = np.arange(math.isqrt(n_max) + 1) ** 2
    n = x[:, None] + 23 * x[None, :math.isqrt(n_max // 23) + 1]
    out = np.zeros(n_max + 1, dtype=bool)
    out[n[n <= n_max]] = True
    return out


def delta_partition_check(p_max: int = 10_000) -> PartitionResult:
    """tau(p) mod 23 is 0 / 2 / -1 according to (-23/p) = -1, p = x^2+23y^2,
    otherwise; checked for every prime p <= p_max except 23."""
    ds = build_dataset(delta_coeffs(p_max, 23), 23, p_max)
    want = np.where(kronecker_column(-23, ds.p) == -1, 0,
                    np.where(x2_plus_23y2(p_max)[ds.p], 2, 22))
    bad = np.flatnonzero(ds.a != want)
    violations = [f"p={p}: tau={got}, expected {w}" for p, got, w in
                  zip(ds.p[bad].tolist(), ds.a[bad].tolist(), want[bad].tolist())]
    return PartitionResult(len(ds), tuple(violations), ds)


# ---------------------------------------------------------------------------
# synthetic Frobenius streams from matrix groups


@dataclass(frozen=True)
class SyntheticModel:
    """A mock Chebotarev setup: residues mod M mapped onto the commutator
    cosets of G through a unit-group surjection, so that sampling uniform
    residues and uniform coset members mimics Frobenius statistics."""

    group: MatGroup
    ell: int
    modulus: int
    assignment: dict[int, int]  # unit residue -> coset index
    data: CosetTraces

    def predicted(self, x: int) -> tuple[frozenset[int], frozenset[int]]:
        """Exact sup/nec sets the discovery loop should recover."""
        const = self.data.const.tolist()
        holding = set(self.data.pair_coset[self.data.pair_trace == x].tolist())
        sup = frozenset(r for r, i in self.assignment.items() if const[i] == x)
        nec = frozenset(r for r, i in self.assignment.items() if i in holding)
        return sup, nec


def _least_prime_mod(n: int, avoid: list[int]) -> int:
    q = n + 1
    while True:
        if q not in avoid and is_prime(q):
            return q
        q += n


def synthetic_model(G: MatGroup) -> SyntheticModel:
    """Deterministic residue labeling of the commutator cosets of G.

    The coset group G/[G, G] is read off powers of G's recorded generators,
    each power placed by `coset_of`.  Greedily, in descending coset order
    and then coset index, each generator coset outside the span so far is
    chosen, until the span is the whole quotient.  A chosen coset of order
    n gets the least unused prime q = 1 mod n, M is the product of the q,
    and the unit r mod M goes to the product of the chosen cosets c, each
    raised to log r mod q (to the base make_field(q).primitive) mod n.
    """
    if G.spec.r != 1:
        raise ValueError("synthetic sampling expects a prime-field group")
    spec, data = G.spec, coset_traces(G)
    H, one = data.commutator, _join(spec, 1, 0, 0, 1)
    e = int(coset_of(G, H, one))
    powers = {}  # coset of a generator -> the codes of that generator's powers
    for g in G.gens.tolist():
        pw = [one, g]
        while pw[-1] != one:
            pw.append(int(mul_codes(spec, pw[-1], g)))
        lab = coset_of(G, H, pw)
        # g^0, ..., g^(n - 1) for the order n of g's coset
        powers.setdefault(int(lab[1]), np.array(pw[:np.argmax(lab[1:] == e) + 1]))
    chosen, span = [], np.array([one])
    for c in sorted(set(powers) - {e}, key=lambda c: (-powers[c].size, c)):
        if c in coset_of(G, H, span):
            continue
        chosen.append(c)
        # span is a subgroup and the quotient is abelian, so span.<c> is the
        # subgroup generated: one code per coset of the products
        prod = mul_codes(spec, span[:, None], powers[c][None, :]).ravel()
        span = prod[np.unique(coset_of(G, H, prod), return_index=True)[1]]
    if span.size != data.const.size:
        raise RuntimeError("coset group not generated by generator classes")

    qs: list[int] = []  # distinct primes, one per chosen coset
    for c in chosen:
        qs.append(_least_prime_mod(powers[c].size, qs))
    M = math.prod(qs)
    units = np.array(_units(M), dtype=np.int64)
    x = np.full(units.size, one)
    for c, q in zip(chosen, qs):
        x = mul_codes(spec, x, powers[c][make_field(q)._tables[1][units % q] % powers[c].size])
    assignment = dict(zip(units.tolist(), coset_of(G, H, x).tolist()))
    return SyntheticModel(G, spec.p, M, assignment, data)


def _bounded(seed: int, n: int, *bounds: int) -> np.ndarray:
    """For each bound k < 2^32, a row of n integers in [0, k): 32-bit words
    of one stdlib random.Random(seed) byte stream, each taken to
    floor(word k / 2^32), which is uniform up to a relative bias of k / 2^32.
    The rows form one (len(bounds), n) int64 block, mapped in place."""
    if max(bounds) >= 2 ** 32:
        raise ValueError("sampling bound past 2^32")
    words = np.frombuffer(random.Random(seed).randbytes(4 * n * len(bounds)), dtype="<u4")
    out = words.reshape(len(bounds), n).astype(np.uint64)
    out *= np.array(bounds, dtype=np.uint64)[:, None]
    out >>= 32
    return out.view(np.int64)  # every value is below 2^32


def sample_dataset(model: SyntheticModel, n: int, seed: int) -> ApDataset:
    """n synthetic samples (p, trace mod ell) with p equidistributed over
    the units mod M and traces drawn uniformly from the assigned coset.
    Each seed gives one fixed stream, drawn by _bounded from the stdlib
    random.Random(seed), which numpy imports anyway."""
    units = sorted(model.assignment)
    M, ell = model.modulus, model.ell
    hsize = model.data.commutator.order
    # flat row i * hsize + j of the table: trace mod ell of coset i's member
    # j, in increasing code order
    G = model.group
    by_coset = np.argsort(coset_of(G, model.data.commutator, G.codes), kind="stable")
    trace_table = G.traces[by_coset] % ell
    # least representative of each residue class coprime to ell as well
    reps = []
    for r in units:
        t = r if M > 1 else 1
        while math.gcd(t, M * ell) != 1:
            t += M
        reps.append(t)
    step = M * ell
    while step <= max(reps):  # keep the p sequence strictly increasing
        step += M * ell
    # the rows (unit index, member index) of the draws become (p, a) in place
    cols = _bounded(seed, n, len(units), hsize)
    p, a = cols
    a += (np.array([model.assignment[r] for r in units]) * hsize)[p]
    a[:] = trace_table[a]
    p[:] = np.array(reps)[p]
    p += np.arange(step, (n + 1) * step, step)
    return ApDataset(f"synthetic-{model.group.order}", M, ell, cols.T)


@dataclass(frozen=True)
class ClosedLoopResult:
    group_order: int
    modulus: int
    n: int
    matched_classes: int
    mismatches: tuple[str, ...]
    empirical_zero: Fraction
    predicted_zero: Fraction

    @property
    def ok(self) -> bool:
        return not self.mismatches and abs(
            float(self.empirical_zero - self.predicted_zero)
        ) <= 3 / math.sqrt(self.n)


def closed_loop_check(G: MatGroup, n: int = 100_000, seed: int = 0) -> ClosedLoopResult:
    """Sample a synthetic stream from G and require discovery to recover the
    exact per-class residue sets plus the vanishing density."""
    model = synthetic_model(G)
    ds = sample_dataset(model, n, seed)
    mismatches = []
    matched = 0
    for x in range(model.ell):
        sup, nec = model.predicted(x)
        got = discover_class(ds, x, model.modulus)
        if got.sup != sup or got.nec != nec:
            mismatches.append(
                f"x={x}: sup {sorted(got.sup)} vs {sorted(sup)}, "
                f"nec {sorted(got.nec)} vs {sorted(nec)}"
            )
        else:
            matched += 1
    zeros = int(np.count_nonzero(ds.a == 0))
    return ClosedLoopResult(
        G.order,
        model.modulus,
        n,
        matched,
        tuple(mismatches),
        Fraction(zeros, n),
        density_c(G),
    )
