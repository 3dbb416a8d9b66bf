"""Empirical congruence discovery and verification on a_p datasets.

Given reduced coefficient samples, find for each residue class x the sets of
p-residues that empirically govern a_p = x, fit quadratic-symbol criteria,
and check the square/nonsquare vanishing rule.  A synthetic sampler turns
any matrix group into a mock Frobenius data stream so the discovery loop can
be validated against the exact coset verdicts.

Everything reported here is empirical over the finite sample and is labeled
as such; the group machinery supplies the corresponding exact statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import CosetTraces, coset_traces, density_c, radical
from .eigendata import (
    ApDataset,
    EllipticCurve,
    build_dataset,
    curve_dataset,
    delta_coeffs,
)
from .ffield import is_prime, kronecker, legendre, make_field
from .matgrp import MatGroup, generating_set, identity, mul_codes

MIN_SAMPLES_PER_CLASS = 5


class InsufficientDataError(ValueError):
    pass


def _units(M: int) -> list[int]:
    # gcd(0, 1) = 1, so M = 1 has the single class 0
    return np.flatnonzero(np.gcd(np.arange(M), M) == 1).tolist()


def _pairs(ds: ApDataset, M: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The distinct (p mod M, a) pairs of ds, ascending, and the index of
    each sample's pair."""
    codes, inv = np.unique((ds.p % M) * ds.ell + ds.a, return_inverse=True)
    return [divmod(c, ds.ell) for c in codes.tolist()], inv


def _per_sample(ds: ApDataset, inv: np.ndarray, messages: list[list[str]]):
    """Messages found once per distinct pair, repeated for each sample of
    that pair in sample order and prefixed with its p."""
    flagged = np.array([bool(m) for m in messages], dtype=bool)[inv]
    return tuple(
        f"p={ds.p[i]}: {msg}"
        for i in np.flatnonzero(flagged)
        for msg in messages[inv[i]]
    )


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

    x: int
    modulus: int
    sup: frozenset[int]
    nec: frozenset[int]
    direction: str  # "iff" | "implied_by" | "implies"
    n_samples: int
    min_class_count: int

    @property
    def s_x(self) -> frozenset[int]:
        return self.sup if self.direction in ("iff", "implied_by") else self.nec


def discover_class(ds: ApDataset, x: int, M: int) -> ClassCongruence:
    """Candidate S_x sets mod M for the class a_p = x; iff needs at least
    MIN_SAMPLES_PER_CLASS samples in every residue class."""
    if M < 1:
        raise ValueError("modulus must be positive")
    if M >= int(ds.p.max(initial=1)) + 2:
        # every sample p is below the unit class M - 1, so it holds none
        raise InsufficientDataError(f"no samples in residue class {M - 1} mod {M}")
    x %= ds.ell
    units = np.array(_units(M))
    # one pass: bin 2 (p mod M) + [a_p = x] gives misses and hits per residue
    table = np.bincount(2 * (ds.p % M) + (ds.a == x), minlength=2 * M)
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
    return ClassCongruence(x, M, sup, nec, direction, len(ds), mn)


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
# quadratic-symbol fitting and the square/nonsquare rule


def legendre_candidates(N: int, ell: int) -> list[int]:
    """Signed divisors of rad(N ell) gcd(2, N ell)^2, the symbol moduli a
    congruence of level N and characteristic ell can see."""
    bound = radical(N * ell) * math.gcd(2, N * ell) ** 2
    out = []
    for d in divisors(bound):
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


@dataclass(frozen=True)
class VanishingRuleResult:
    """a_p = 0 mod ell vs (p/ell) = -1, counted in both directions; the
    rule holds only when some nonsquare p was checked."""

    ell: int
    holds: bool
    nonsquares: int  # the nonsquare p checked
    forward_violations: tuple[int, ...]  # a_p = 0 but p a square mod ell
    backward_violations: tuple[int, ...]  # p nonsquare but a_p != 0
    zero_classes: frozenset[int]  # p mod ell residues with a_p = 0 seen


def vanishing_rule_check(ds: ApDataset) -> VanishingRuleResult:
    res = ds.p % ds.ell
    classes, inv = np.unique(res, return_inverse=True)
    sym = np.array([legendre(r, ds.ell) for r in classes.tolist()], dtype=np.int64)[inv]
    zero = ds.a == 0
    fwd = ds.p[zero & (sym != -1)].tolist()
    bwd = ds.p[~zero & (sym == -1)].tolist()
    nonsquares = int(np.count_nonzero(sym == -1))
    return VanishingRuleResult(
        ds.ell, nonsquares > 0 and not fwd and not bwd, nonsquares, tuple(fwd),
        tuple(bwd), frozenset(res[zero].tolist()),
    )


# ---------------------------------------------------------------------------
# printed-table verification


@dataclass(frozen=True)
class TableCheck:
    label: str
    name: str
    ok: bool
    violations: tuple[str, ...]
    detail: str = ""


def verify_trace_menu(
    ds: ApDataset, M: int, menu: dict[int, frozenset[int] | set[int]]
) -> tuple[tuple[str, ...], bool]:
    """Rows keyed by p mod M list the allowed a_p values; the flag returned
    says whether every listed value actually occurs in every row."""
    pairs, inv = _pairs(ds, M)
    messages = []
    seen: dict[int, set[int]] = {r: set() for r in menu}
    for r, a in pairs:
        if r not in menu:
            messages.append([f"class {r} mod {M} not in table"])
            continue
        bad = a not in menu[r]
        messages.append([f"a_p={a} not allowed in class {r} mod {M}"] if bad else [])
        seen[r].add(a)
    complete = all(seen[r] == set(menu[r]) for r in menu)
    return _per_sample(ds, inv, messages), complete


def verify_class_rule(
    ds: ApDataset, M: int, rule: dict[int, frozenset[int] | set[int]], two_way: bool
) -> tuple[str, ...]:
    """Rows keyed by a_p value list the allowed p-residues mod M.  One-way
    checks a_p = x implies p mod M in rule[x]; two-way additionally checks
    p mod M in rule[x] implies a_p = x."""
    pairs, inv = _pairs(ds, M)
    messages = []
    for r, a in pairs:
        found = []
        if a in rule and r not in rule[a]:
            found.append(f"a_p={a} but p={r} mod {M} outside row")
        if two_way:
            for x, cls in rule.items():
                if r in cls and a != x:
                    found.append(f"p={r} mod {M} forces a_p={x}, got {a}")
        messages.append(found)
    return _per_sample(ds, inv, messages)


def _residues_by_value(ds: ApDataset, M: int) -> dict[int, set[int]]:
    """Sample value -> the residues p mod M at which it occurs."""
    out: dict[int, set[int]] = {}
    for r, a in _pairs(ds, M)[0]:
        out.setdefault(a, set()).add(r)
    return out


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


def verify_fixture_tables(
    curves: dict[str, EllipticCurve], p_max: int = 10_000
) -> list[TableCheck]:
    """Re-derive every printed congruence table from point counts."""
    out = []
    exact = {}

    def dataset(label, ell):
        # each curve is point counted once; every ell reduces the same a_p
        if label not in exact:
            exact[label] = curve_dataset(curves[label], p_max)
        return exact[label].reduce(ell)

    def add(ds, label, name, violations, extra_ok=True, detail=""):
        # a statement checked on no prime is not verified
        if not len(ds):
            out.append(TableCheck(label, name, False, (), "no samples"))
            return
        ok = not violations and extra_ok
        out.append(TableCheck(label, name, ok, tuple(violations), detail))

    if "338d1" in curves:
        ds2 = dataset("338d1", 2)
        # the mod-2 primes are odd and prime to 26, where (-26/p) is Legendre's
        sym = kronecker_column(-26, ds2.p)
        odd = (sym == -1) & (ds2.a != 0)
        v = [f"p={p}" for p in ds2.p[odd].tolist()]
        add(ds2, "338d1", "disc-symbol forces even a_p", v)
        ds3 = dataset("338d1", 3)
        v = verify_class_rule(ds3, 39, {0: _s0_mod39()}, two_way=True)
        add(ds3, "338d1", "mod-3 vanishing iff p mod 39", v)
        ds5 = dataset("338d1", 5)
        v = verify_class_rule(ds5, 5, ROWS_338_MOD5, two_way=False)
        add(ds5, "338d1", "mod-5 one-way determinant rule", v)
        sym5 = np.array([legendre(r, 5) for r in range(5)], dtype=np.int64)
        nonsq = sym5[(ds5.p + ds5.a * ds5.a) % 5] < 0
        v = [f"p={p}" for p in ds5.p[nonsq].tolist()]
        add(ds5, "338d1", "p + a_p^2 square mod 5", v)
        v = verify_class_rule(ds5, 65, ROWS_338_MOD65, two_way=True)
        attain = _residues_by_value(ds5, 65)
        sharp = all(attain.get(x, set()) == r for x, r in ROWS_338_MOD65.items())
        add(ds5, "338d1", "mod-65 five-row table sharp", v, sharp)
    if "2450ba1" in curves:
        ds7 = dataset("2450ba1", 7)
        v, sharp = verify_trace_menu(ds7, 7, MENU_2450BA1_MOD7)
        add(ds7, "2450ba1", "mod-7 four-row table sharp", v, sharp)
        add(
            ds7,
            "2450ba1",
            "square/nonsquare vanishing rule",
            [] if vanishing_rule_check(ds7).holds else ["vanishing rule fails"],
        )
    if "2450a1" in curves:
        ds7 = dataset("2450a1", 7)
        v = verify_class_rule(ds7, 35, ROWS_2450A1_MOD35, two_way=False)
        attain = _residues_by_value(ds7, 35)
        sharp = all(attain.get(x, set()) == r for x, r in ROWS_2450A1_MOD35.items())
        add(ds7, "2450a1", "mod-35 six-row one-way table", v, sharp)
    if "608e1" in curves:
        ds5 = dataset("608e1", 5)
        v = [f"p={p}" for p in ds5.p[(ds5.p % 4 == 3) & (ds5.a != 0)].tolist()]
        add(ds5, "608e1", "p = 3 mod 4 forces vanishing", v)
        mixed = ds5.a[np.isin(ds5.p % 20, (1, 9))]
        both = bool((mixed == 0).any() and (mixed != 0).any())
        add(
            ds5,
            "608e1",
            "converse fails at p = 1, 9 mod 20",
            [] if both else ["no counterexample below bound"],
            detail="both zero and nonzero a_p occur",
        )
    if "324b1" in curves:
        ds5 = dataset("324b1", 5)
        rule = {1: {1, 3, 4}, 4: {1, 3, 4}, 2: {1, 2, 4}, 3: {1, 2, 4}}
        v = verify_class_rule(ds5, 5, rule, two_way=False)
        hit14 = set((ds5.p[np.isin(ds5.a, (1, 4))] % 5).tolist())
        hit23 = set((ds5.p[np.isin(ds5.a, (2, 3))] % 5).tolist())
        sharp = hit14 == {1, 3, 4} and hit23 == {1, 2, 4}
        add(ds5, "324b1", "two exclusion implications mod 5 sharp", v, sharp)
    if "50700u1" in curves:
        ds13 = dataset("50700u1", 13)
        v, sharp = verify_trace_menu(ds13, 13, MENU_50700_MOD13)
        add(ds13, "50700u1", "mod-13 twelve-row menu sharp", v, sharp)
    return out


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
    ds = build_dataset(delta_coeffs(p_max, 23), 23, p_max, level=1, label="delta")
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


def _least_prime_mod(n: int, avoid: set[int]) -> int:
    q = n + 1
    while True:
        if q not in avoid and is_prime(q):
            return q
        q += n


def synthetic_model(G: MatGroup) -> SyntheticModel:
    """Deterministic residue labeling of the commutator cosets of G."""
    if G.spec.r != 1:
        raise ValueError("synthetic sampling expects a prime-field group")
    ell = G.spec.p
    data = coset_traces(G)
    k = data.const.size

    def where(x):
        return data.label[np.searchsorted(G.codes, x)]

    # coset i is represented by its least code, the first with label i
    reps = G.codes[np.unique(data.label, return_index=True)[1]]
    mul = where(mul_codes(G.spec, reps[:, None], reps[None, :])).tolist()
    e = int(where(identity(G.spec).encode()))

    def order_of(i):
        n, j = 1, i
        while j != e:
            j = mul[j][i]
            n += 1
        return n

    gens = list(G.generators) or generating_set(G)
    cand = sorted(set(where([g.encode() for g in gens]).tolist()) - {e},
                  key=lambda c: (-order_of(c), c))
    chosen: list[int] = []
    span = {e}
    for c in cand:
        if c in span:
            continue
        chosen.append(c)
        # span is a subgroup and the quotient is abelian, so span.<c> is the
        # subgroup generated; build it as literal products
        powers = [e]
        j = c
        while j != e:
            powers.append(j)
            j = mul[j][c]
        span = {mul[s][t] for s in span for t in powers}
    if len(span) != k:
        raise RuntimeError("coset group not generated by generator classes")

    qs, avoid = [], set()
    orders = [order_of(c) for c in chosen]
    for n in orders:
        q = _least_prime_mod(n, avoid)
        avoid.add(q)
        qs.append(q)
    M = math.prod(qs) if qs else 1

    # per-prime discrete logs onto Z/order, combined through the coset table
    logmaps = []
    for q, n in zip(qs, orders):
        g = make_field(q).primitive
        dlog = {pow(g, i, q): i for i in range(q - 1)}
        logmaps.append((q, n, dlog))
    assignment = {}
    for r in _units(M):
        idx = e
        for c, (q, n, dlog) in zip(chosen, logmaps):
            for _ in range(dlog[r % q] % n):
                idx = mul[idx][c]
        assignment[r] = idx
    return SyntheticModel(G, ell, M, assignment, data)


def sample_dataset(model: SyntheticModel, n: int, seed: int) -> ApDataset:
    """n synthetic samples (p, trace mod ell) with p equidistributed over
    the units mod M and traces drawn uniformly from the assigned coset."""
    rng = np.random.default_rng(seed)
    units = sorted(model.assignment)
    M, ell = model.modulus, model.ell
    coset_idx = np.array([model.assignment[r] for r in units])
    hsize = model.data.commutator.order
    # row i: traces of coset i's members in increasing code order
    by_coset = np.argsort(model.data.label, kind="stable")
    trace_table = model.group.traces[by_coset].reshape(-1, hsize)
    draws = rng.integers(0, len(units), size=n)
    members = rng.integers(0, hsize, size=n)
    values = trace_table[coset_idx[draws], members] % ell

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
    ps = np.arange(1, n + 1, dtype=np.int64) * step + np.array(reps)[draws]
    return ApDataset(f"synthetic-{model.group.order}", M, ell,
                     np.column_stack((ps, values)))


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
