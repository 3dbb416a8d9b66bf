"""Helpers that only the tests use: seeded random subgroups, two routes
that cross-check `enumerate_subgroups` (closures of a subgroup with one
more element, and the 2-generated subgroup sweep), every constructions
family over a field, the elements of a group as matrices and the trace
of one, the group and eigenvalue exponents, trace frequencies, unclosed
wrapping of element sets, projective classes, projective orders by powers,
traceless and commutator-trace counts, the classes and the SL_2 cosets
of an SL_2 overgroup read off the determinants with no products, the
eigenline route to the Borel witness, element degrees by Frobenius powers,
the one-prime point count, and the oracles below (primality by trial
division, representation of a prime by a binary quadratic form and the
square/nonsquare vanishing rule sample by sample among them)."""

import math
from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from apcong import constructions
from apcong.eigendata import POINT_COUNT_GUARD, ApDataset, EllipticCurve, _ap_kernel
from apcong.ffield import embedding_table, is_prime, quadratic_extension
from apcong.matgrp import (
    Mat2,
    MatGroup,
    _locate,
    _scalar_mask,
    _scale,
    close_group,
    commutator_subgroup,
    coset_split,
    identity,
    mul_codes,
    proj_canon,
    split_codes,
)


def random_subgroups(spec, count: int, seed: int) -> list[MatGroup]:
    """Deterministic stream of distinct subgroups closed from random pairs."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < count:
        k = 1 + int(rng.integers(0, 2))
        gens = []
        while len(gens) < k:
            m = Mat2(spec, tuple(int(x) for x in rng.integers(0, spec.q, size=4)))
            if m.det_i() != 0:
                gens.append(m)
        G = close_group(spec, gens)
        key = G.codes.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(G)
    return out


def enumerate_subgroups_closure(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, by closing each known subgroup with one more
    element, through close_group: one element per left coset of H outside H
    suffices, since <H, g> = <H, gh> for h in H."""
    trivial = close_group(G.spec, [identity(G.spec)])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            # one code from each left coset of H in G
            label, shift, m = coset_split.__wrapped__(G, H)
            first = np.unique(label, return_index=True)[1]
            j = (np.arange(m) - shift[first][:, None]) % m
            lifts = G.spec._tables[0][G.lift[first][:, None] + G.k * j]
            reps = _scale(G.spec, G.proj[first][:, None], lifts).ravel()
            for g in mats_of(G.spec, reps[~_locate(H, reps)[2]]):
                K = close_group(G.spec, list(H.generators) + [g])
                if K not in found:
                    found.add(K)
                    fresh.append(K)
        frontier = fresh
    return sorted(found, key=lambda H: (H.order, H.codes.tolist()))


def enumerate_subgroups_pairs(G: MatGroup) -> list[MatGroup]:
    """Subgroups generated by at most two elements of G."""
    found = {}
    elems = elements(G)
    trivial = close_group(G.spec, [identity(G.spec)])
    found[trivial.codes.tobytes()] = trivial
    for i, g in enumerate(elems):
        H = close_group(G.spec, [g])
        found.setdefault(H.codes.tobytes(), H)
        for h in elems[i:]:
            K = close_group(G.spec, [g, h])
            found.setdefault(K.codes.tobytes(), K)
    return sorted(found.values(), key=lambda H: (H.order, H.codes.tolist()))


def codes_of(mats) -> np.ndarray:
    """The codes of the matrices mats, in order."""
    return np.array([m.encode() for m in mats], dtype=np.int64)


def mats_of(spec, codes: np.ndarray) -> list[Mat2]:
    """The matrices of the codes, in order."""
    cols = [v.tolist() for v in split_codes(spec, codes)]
    return [Mat2(spec, e) for e in zip(*cols)]


def elements(G: MatGroup) -> list[Mat2]:
    """The elements of G as matrices, in code order."""
    return mats_of(G.spec, G.codes)


def trace_of(m: Mat2) -> int:
    """The integer-encoded trace of one matrix."""
    return m.spec.add_i(m.e[0], m.e[3])


def element_order(m: Mat2) -> int:
    """The order of the cyclic group m generates (ValueError if singular)."""
    return close_group(m.spec, [m]).order


def is_scalar(m: Mat2):
    """The encoding of the scalar lambda with m = lambda*id, or None."""
    a, b, c, d = m.e
    if b == 0 and c == 0 and a == d:
        return a
    return None


def group_exponent(G: MatGroup) -> int:
    exp = 1
    for m in elements(G):
        o = element_order(m)
        exp = exp * o // gcd(exp, o)
    assert G.order % exp == 0
    return exp


def eigenvalue_exponent(G: MatGroup) -> int:
    """The lcm of the multiplicative orders of the eigenvalues of every
    element of G: each eigenvalue is a root of X^2 - t X + d found by trying
    every element of F_{q^2}, and its order by repeated multiplication.
    For a triangularisable G this is the exponent of its diagonal
    characters."""
    spec = G.spec
    ext, emb = quadratic_extension(spec), embedding_table(spec)
    xs = np.arange(ext.q, dtype=np.int64)
    roots = set()
    for a, b, c, d in {m.e for m in elements(G)}:
        t, det = spec.add_i(a, d), spec.sub_i(spec.mul_i(a, d), spec.mul_i(b, c))
        value = ext.add_a(ext.sub_a(ext.mul_a(xs, xs), ext.mul_a(emb[t], xs)), emb[det])
        roots.update(xs[value == 0].tolist())
    exp = 1
    for x in roots:
        y, order = x, 1
        while y != 1:
            y, order = ext.mul_i(y, x), order + 1
        exp = math.lcm(exp, order)
    return exp


def from_elements(spec, elements, generators) -> MatGroup:
    """Wrap an element set as a MatGroup without closing it: the caller
    vouches that the set is a group.  Its scalars Z = <g^k> are the leads
    over the identity class, and each class keeps the log of its first
    element's lead, mod k."""
    codes = np.unique(codes_of(elements))
    canon, log_lead = proj_canon(spec, codes)
    k = (spec.q - 1) // int(np.count_nonzero(canon == identity(spec).encode()))
    proj, first = np.unique(canon, return_index=True)
    return MatGroup(spec, proj, log_lead[first] % k, k, codes_of(generators))


def proj_classes(G: MatGroup) -> frozenset[Mat2]:
    """The canonical representatives of G's projective classes, as matrices."""
    cols = [v.tolist() for v in split_codes(G.spec, G.proj)]
    return frozenset(Mat2(G.spec, e) for e in zip(*cols))


def proj_orders_by_powers(spec, x: np.ndarray) -> np.ndarray:
    """Projective orders of the codes x by powers: taken for all pending
    classes at once; orders in PGL_2(F_q) are at most q + 1."""
    orders = np.zeros(x.size, dtype=np.int64)
    pending = np.arange(x.size)
    power = x
    for n in range(1, spec.q + 2):
        done = _scalar_mask(*split_codes(spec, power))
        orders[pending[done]] = n
        pending, power = pending[~done], power[~done]
        if not pending.size:
            return orders
        power = mul_codes(spec, power, x[pending])
    raise RuntimeError("projective order ran away")


def traceless_count(G: MatGroup) -> int:
    """The number of traceless classes of PG, read on G's lifts: scaling
    multiplies the trace by a unit, so tracelessness is projective."""
    return int(np.count_nonzero(G.rep_traces == 0))


def commutator_trace_set(G: MatGroup) -> frozenset[int]:
    """Integer-encoded traces occurring on the commutator subgroup of G."""
    return commutator_subgroup(G).trace_ints()


def trace_multiset(obj, label=None, i=None) -> Counter:
    """Trace frequencies (keyed by integer encoding) over a MatGroup, over
    its coset i when label is a coset label array of it, or over an
    iterable of matrices."""
    if isinstance(obj, MatGroup):
        items = elements(obj)
        if label is not None:
            items = [m for m, k in zip(items, label.tolist()) if k == i]
    else:
        items = obj
    return Counter(trace_of(m) for m in items)


def family_groups(spec) -> list[tuple[str, MatGroup]]:
    """Every constructions family that exists over spec, with its name."""
    q, odd = spec.q, spec.p != 2
    fams = ["gl2", "sl2", "borel", "unipotent", "split_cartan", "split_cartan_normalizer"]
    if odd:
        fams += ["nonsplit_cartan", "nonsplit_cartan_normalizer", "borel_dihedral",
                 "quaternion_lift", "a4_lift"]
    out = [(fam, getattr(constructions, fam)(spec)) for fam in fams]
    for n in range(2, q + 2):
        if (q - 1) % n == 0 or (odd and (q + 1) % n == 0):
            out.append((f"dihedral_lift({n})", constructions.dihedral_lift(spec, n)))
    if q == 11:
        out.append(("a5_lift_f11", constructions.a5_lift_f11()))
    if q == 13:
        out.append(("s4_lift_f13", constructions.s4_lift_f13()))
    return out


# ---- the former closed-form class route of SL_2 overgroups ----

def det_preimage(spec, e: int):
    """(proj, lift, k) of det^-1(<g^e>), e dividing q - 1, q > 3, with no
    products.

    The canonical classes of PGL_2(F_q) are (0 1; c d) and (1 b; c d), in
    code order of their top rows (0, 1) < (1, 0) < ... < (1, q - 1).  The
    scalar g^t puts class c, of ld = log det c, in G iff 2 t + ld = 0 mod e,
    so with w = gcd(2, e) the classes are those with w | ld, Z = <g^(e/w)>
    and the lift solves 2 t = -ld mod e.  Each top row holds q (q - 1) / w
    classes, since (c, d) -> a d - b c takes every value q times.
    """
    q = spec.q
    w = gcd(2, e)
    log = spec._tables[1]
    x = np.arange(q, dtype=np.int64)
    a, b = np.append(0, np.ones(q, dtype=np.int64)), np.append(1, x)
    # logs[row, c, d] = log det, log 0 = 2 (q - 1) marking the singular ones
    logs = log[spec.sub_a(spec.mul_a(a[:, None], x)[:, None, :],
                          spec.mul_a(b[:, None], x)[:, :, None])]
    keep = (logs < q - 1) & (logs % w == 0)
    proj = (((a[:, None, None] * q + b[:, None, None]) * q + x[:, None]) * q + x)[keep]
    ld = logs[keep]
    k = e // w
    # t = -ld / 2: halve when w = 2, else times the inverse (e + 1) / 2 of 2
    return proj, -(ld // 2 if w == 2 else ld * ((e + 1) // 2)) % k, k


def det_split(G: MatGroup):
    """(label, shift) of the cosets of H = SL_2(F_q) in G ⊇ H, q > 3, read
    off the determinants.

    PH = PSL_2(F_q) holds the classes of square determinant, so a class's
    coset of PH is log det reps[i] = ld_i mod gcd(2, q - 1), numbered by
    least class.  The coset of H holding an element is its determinant, so
    reps[i] lies in g^(k t).reps[base].H, base the least class of its
    coset of PH, for the t in [0, m) with 2 k t = ld_i - ld_base mod q - 1.
    """
    n = G.spec.q - 1
    ld = G.spec._tables[1][G.rep_dets]
    parity = ld % gcd(2, n)
    label = (parity != parity[0]).astype(np.int64)
    diff = (ld - np.where(label, ld[np.argmax(label)], ld[0])) % n
    # halve: diff is even when n is, else times the inverse (n + 1) / 2 of 2
    shift, rest = np.divmod(diff // 2 if n % 2 == 0 else diff * ((n + 1) // 2) % n, G.k)
    if rest.any():
        raise RuntimeError("cosets do not partition G")
    return label, shift


# ---- the classifier's former scalar routes ----

def _eigenlines(ext, me: tuple[int, int, int, int]) -> list[tuple[int, int]]:
    """Invariant lines of a non-scalar matrix with entries encoded over ext,
    each a vector with first nonzero coordinate 1, in increasing order of
    its eigenvalue's encoding (the characteristic polynomial splits over
    ext, a quadratic extension of the entry field)."""
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


def borel_witness_by_eigenlines(G: MatGroup):
    """(flag, witness) as is_borel_conjugable returns them, found one line
    at a time: the eigenlines of the least non-scalar element of G, in
    increasing order of eigenvalue, each tested against every element of G
    with scalar arithmetic over the quadratic extension."""
    ext = quadratic_extension(G.spec)
    emb = embedding_table(G.spec)
    mats = elements(G)
    nonscalar = [m for m in mats if is_scalar(m) is None]
    if not nonscalar:
        return True, Mat2(ext, (1, 0, 0, 1))
    elems = [tuple(int(emb[x]) for x in m.e) for m in mats]
    for v in _eigenlines(ext, tuple(int(emb[x]) for x in nonscalar[0].e)):
        stable = True
        for a, b, c, d in elems:
            w0 = ext.add_i(ext.mul_i(a, v[0]), ext.mul_i(b, v[1]))
            w1 = ext.add_i(ext.mul_i(c, v[0]), ext.mul_i(d, v[1]))
            if ext.sub_i(ext.mul_i(w0, v[1]), ext.mul_i(w1, v[0])) != 0:
                stable = False
                break
        if stable:
            u = (0, 1) if v[0] != 0 else (1, 0)
            return True, Mat2(ext, (v[0], u[0], v[1], u[1]))
    return False, None


def element_degree(spec, x: int) -> int:
    """Degree over the prime field of the element with encoding x: the
    number of Frobenius powers x -> x^p before x returns."""
    d = 1
    y = spec.pow_i(x, spec.p)
    while y != x:
        d += 1
        y = spec.pow_i(y, spec.p)
    return d


# ---- oracles that share no code with apcong's field tables or matrix kernel ----

def quadform_represents(p: int, a: int, b: int, c: int) -> bool:
    """Whether p = a x^2 + b x y + c y^2 has an integer solution; x = 0 or
    y = 0 count.  For each y >= 0 inside the positive-definite value bound,
    solve the quadratic in x exactly."""
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError("form is not positive definite")
    ymax = math.isqrt(4 * a * p // (4 * a * c - b * b))
    for y in range(ymax + 1):
        # a x^2 + (b y) x + (c y^2 - p) = 0
        disc = (b * y) ** 2 - 4 * a * (c * y * y - p)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s == disc and any((-b * y + t) % (2 * a) == 0 for t in (s, -s)):
            return True
    return False


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


def samples(ds: ApDataset) -> tuple[tuple[int, int], ...]:
    """The (p, a) pairs of a dataset, in sample order."""
    return tuple(zip(ds.p.tolist(), ds.a.tolist()))


def vanishing_rule_check(ds: ApDataset) -> VanishingRuleResult:
    """The square/nonsquare vanishing rule on a dataset mod an odd prime
    ell, sample by sample, with the nonsquares found by Euler's criterion."""
    ell = ds.ell
    if ell % 2 == 0:
        raise ValueError(f"the rule needs an odd prime ell, not {ell}")
    fwd, bwd, nonsquares, zeros = [], [], 0, set()
    for p, a in samples(ds):
        nonsquare = pow(p, (ell - 1) // 2, ell) == ell - 1
        nonsquares += nonsquare
        if a == 0:
            zeros.add(p % ell)
            if not nonsquare:
                fwd.append(p)
        elif nonsquare:
            bwd.append(p)
    return VanishingRuleResult(ell, nonsquares > 0 and not fwd and not bwd, nonsquares,
                               tuple(fwd), tuple(bwd), frozenset(zeros))


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division over the odd d <= sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PolyField:
    """F_{p^r} by schoolbook polynomial arithmetic on base-p digit encodings,
    with the modulus read from a FieldSpec."""

    def __init__(self, spec):
        self.p, self.r, self.q = spec.p, spec.r, spec.q
        self.modulus = list(spec.modulus)
        self._inv, self._mul, self._add = {}, {}, {}

    def digits(self, k):
        out = []
        for _ in range(self.r):
            out.append(k % self.p)
            k //= self.p
        return out

    def encode(self, cs):
        return sum(c * self.p ** i for i, c in enumerate(cs))

    def add(self, x, y):
        if (x, y) not in self._add:
            self._add[x, y] = self.encode(
                [(a + b) % self.p for a, b in zip(self.digits(x), self.digits(y))])
        return self._add[x, y]

    def neg(self, x):
        return self.encode([-a % self.p for a in self.digits(x)])

    def mul(self, x, y):
        if (x, y) not in self._mul:
            self._mul[x, y] = self._poly_mul(x, y)
        return self._mul[x, y]

    def _poly_mul(self, x, y):
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(self.digits(x)):
            for j, b in enumerate(self.digits(y)):
                prod[i + j] += a * b
        for top in range(2 * r - 2, r - 1, -1):  # reduce by the monic modulus
            c = prod[top] % p
            for i in range(r + 1):
                prod[top - r + i] -= c * self.modulus[i]
        return self.encode([c % p for c in prod[:r]])

    def inv(self, x):
        if x not in self._inv:
            self._inv[x] = next(y for y in range(1, self.q) if self.mul(x, y) == 1)
        return self._inv[x]


def least_primitive(spec) -> int:
    """The least encoding whose schoolbook powers first return to 1 after
    q - 1 steps: a generator of F_q^x by brute-force orders."""
    F = PolyField(spec)
    for x in range(1, spec.q):
        n, y = 1, x
        while y != 1:
            y, n = F._poly_mul(y, x), n + 1
        if n == spec.q - 1:
            return x
    raise RuntimeError("no generator of the multiplicative group")


def oracle_mat_mul(F: PolyField, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (F.add(F.mul(a, e), F.mul(b, g)), F.add(F.mul(a, f), F.mul(b, h)),
            F.add(F.mul(c, e), F.mul(d, g)), F.add(F.mul(c, f), F.mul(d, h)))


def oracle_code(F: PolyField, m) -> int:
    a, b, c, d = m
    return ((a * F.q + b) * F.q + c) * F.q + d


def oracle_closure(F: PolyField, gens) -> set:
    """Subgroup generated by gens (entry 4-tuples), by a set BFS."""
    one = (1, 0, 0, 1)
    seen, todo = {one}, [one]
    while todo:
        x = todo.pop()
        for g in gens:
            y = oracle_mat_mul(F, x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def oracle_proj_canon(F: PolyField, m):
    lead = next(x for x in m if x)
    s = F.inv(lead)
    return tuple(F.mul(x, s) for x in m)


def oracle_proj_order(F: PolyField, m) -> int:
    n, x = 1, m
    while not (x[1] == 0 and x[2] == 0 and x[0] == x[3]):
        x = oracle_mat_mul(F, x, m)
        n += 1
    return n


def ap_point_count(E: EllipticCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for one prime p of good reduction, p <= the
    point counting guard: the one-lane case of the kernel behind
    curve_dataset."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > POINT_COUNT_GUARD:
        raise ValueError(f"point counting guard exceeded at {p}")
    if not E.has_good_reduction(p):
        raise ValueError(f"bad reduction at {p} for {E.label}")
    ap = int(_ap_kernel([E], np.zeros(1, dtype=np.int64), np.array([p], dtype=np.int64))[0])
    if ap * ap > 4 * p:
        raise RuntimeError(f"Hasse bound violated: a_{p} = {ap}")
    return ap


def char_sum_ap(E, p: int) -> int:
    """a_p of E at a good prime p > 3 by one O(p) numpy pass: minus the sum
    of the quadratic character of 4x^3 + b2 x^2 + 2 b4 x + b6 over F_p."""
    b2, b4, b6, _ = E.b_invariants
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    half = xs[: (p + 1) // 2]
    chi[half * half % p] = 1
    chi[0] = 0
    # Horner with reduced coefficients stays below 5 p^3 < 2^63 for p <= 10^6
    g = 4 * xs
    g += b2 % p
    g *= xs
    g += 2 * b4 % p
    g *= xs
    g += b6 % p
    g %= p
    return -int(chi[g].sum(dtype=np.int64))


# ---- q-expansion oracles: the Euler product of eta and dense products ----

def eta_qexp(T: int, m: int = 0) -> tuple[int, ...]:
    """prod_{n>=1} (1 - q^n) up to q^T via pentagonal numbers, that is eta
    without its q^(1/24), with coefficients mod m (exact for m = 0)."""
    if T < 0:
        raise ValueError("negative truncation")
    coeffs = [0] * (T + 1)
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= T:
                coeffs[e] += -1 if kk % 2 else 1
                done = False
        if done:
            break
        k += 1
    if m:
        coeffs = [c % m for c in coeffs]
    return tuple(coeffs)


def series_mul(a, b, m: int = 0) -> tuple[int, ...]:
    """The product of two coefficient tuples mod m (exact for m = 0),
    truncated to the shorter one.  Mod m it is one int64 convolution, and a
    bound that could overflow int64 raises instead."""
    T = min(len(a), len(b)) - 1
    a, b = a[: T + 1], b[: T + 1]
    if m:
        # each int64 convolution term sums up to T + 1 products < m^2
        if (T + 1) * (m - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"mod-{m} product to q^{T} would overflow int64")
        conv = np.convolve(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        )[: T + 1]
        return tuple(int(c) % m for c in conv)
    out = [0] * (T + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(T + 1 - i):
            out[i + j] += ai * b[j]
    return tuple(out)


def squaring_chain_delta(T: int, m: int = 0) -> tuple[int, ...]:
    """tau(1), ..., tau(T) mod m by the dense route: eta^24 = eta^16 * eta^8
    by repeated squaring of the Euler product."""
    e1 = eta_qexp(T - 1, m)
    e2 = series_mul(e1, e1, m)
    e4 = series_mul(e2, e2, m)
    e8 = series_mul(e4, e4, m)
    e16 = series_mul(e8, e8, m)
    return series_mul(e16, e8, m)
