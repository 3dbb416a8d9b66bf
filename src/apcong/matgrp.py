"""Finite subgroups of GL_2 over a finite field, held modulo their scalars.

A matrix (a b; c d) with int-encoded entries is the int64 code
((a q + b) q + c) q + d (`Mat2.encode`).  Every element of a group G is
z.l with z in the scalar subgroup Z = G ∩ F_q^x and l one lift per class
of the projective image PG, so a MatGroup stores (L, Z) and never G:

* proj, the sorted codes of PG's classes in canonical form (`proj_canon`
  scales the first nonzero entry of (a, b) to 1);
* lift, per class, the log mod k to the base g = spec.primitive of a
  scalar s with s.proj[i] in G, so that reps = g^lift.proj lie in G;
* k, with Z = <g^k>, so |Z| = (q - 1) / k and |G| = |PG| |Z|.

The scalars act in closed form, tr(z l) = z tr(l) and det(z l) = z^2
det(l), so traces, determinants, cosets and orders are read from the
classes.  The closure is a frontier search over classes (`_close`).  The
cosets of a subgroup H are the cosets of PH in PG plus a coordinate in
Z/(Z ∩ H) (`coset_split`).  When G contains SL_2(F_q), q > 3, its
commutator subgroup SL_2(F_q) is read off the classes of determinant 1
with no products; any other G closes the commutators of its generators.
`MatGroup.codes`, the views aligned with it and `coset_label` expand G
on request, for small groups only.
The projective image PG is read off the group: proj and class_orders.
The module constant CLOSURE_GUARD bounds the number of stored classes
|PG|, so GL_2(F_q) closes up to q = 97.  Codes need q^4 < 2^63: a larger
field raises CodeRangeError before any code is formed.  Groups are
immutable, so each derived structure (commutator subgroup, classification,
coset traces) is memoised on the group itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ffield import FieldElement, FieldSpec, is_int, ratio_orders

CLOSURE_GUARD = 10 ** 6


class ClosureGuardError(RuntimeError):
    pass


class CodeRangeError(ValueError):
    """The field is too large for matrix codes to fit in int64."""


# ---- the kernel: codes and entry 4-tuples of int arrays ----

def _check_codes(spec: FieldSpec) -> None:
    if spec.q ** 4 >= 1 << 63:
        raise CodeRangeError(f"matrix codes over F_{spec.q} overflow int64 (q^4 >= 2^63)")


def split_codes(spec: FieldSpec, x):
    q = spec.q
    x, d = np.divmod(x, q)
    x, c = np.divmod(x, q)
    a, b = np.divmod(x, q)
    return a, b, c, d


def _join(spec: FieldSpec, a, b, c, d):
    q = spec.q
    return ((a * q + b) * q + c) * q + d


def mat_product(m, s, x, y):
    """(a b; c d)(e f; g h) on entry 4-tuples, with field product m and sum
    s: the scalar *_i methods for ints, the *_a methods for int arrays."""
    a, b, c, d = x
    e, f, g, h = y
    return (s(m(a, e), m(b, g)), s(m(a, f), m(b, h)),
            s(m(c, e), m(d, g)), s(m(c, f), m(d, h)))


def mul_codes(spec: FieldSpec, x, y):
    xs, ys = split_codes(spec, x), split_codes(spec, y)
    return _join(spec, *mat_product(spec.mul_a, spec.add_a, xs, ys))


def _det4(spec: FieldSpec, a, b, c, d):
    return spec.sub_a(spec.mul_a(a, d), spec.mul_a(b, c))


def _inv4(spec: FieldSpec, a, b, c, d):
    di = spec.inv_a(_det4(spec, a, b, c, d))
    m = spec.mul_a
    return m(d, di), m(spec.neg_a(b), di), m(spec.neg_a(c), di), m(a, di)


def _scalar_mask(a, b, c, d):
    return (b == 0) & (c == 0) & (a == d)


def _scale(spec: FieldSpec, x, s):
    """The codes s.x of the scalar multiples, s broadcast against x."""
    return _join(spec, *(spec.mul_a(e, s) for e in split_codes(spec, x)))


def _canon(spec: FieldSpec, a, b, c, d):
    """(canon, log lead) for the matrices with entries a, b, c, d: the codes
    scaled so that the first nonzero entry in (a, b, c, d) order is 1, and
    the log of that entry, lead, so the matrix is lead.canon.

    An invertible matrix has (a, b) != (0, 0), so that entry is a or b.
    """
    exp, log = spec._tables
    logs = [log[x] for x in (a, b, c, d)]
    log_lead = np.where(a != 0, logs[0], logs[1])
    inv = spec.q - 1 - log_lead  # log 0 + inv lands on exp's zero tail
    return _join(spec, *(exp[x + inv] for x in logs)), log_lead


def proj_canon(spec: FieldSpec, x):
    """_canon of the codes x."""
    return _canon(spec, *split_codes(spec, x))


def unique_codes(x) -> np.ndarray:
    """Sorted distinct values of an int array: np.unique, less the masked
    array check that costs a numpy.ma import in every fresh process."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _close(spec: FieldSpec, gens: np.ndarray):
    """The subgroup generated by the codes gens, as (proj, lift, k); more
    than CLOSURE_GUARD classes raise ClosureGuardError.

    A search over projective classes that keeps the lift each class was
    first reached with (inverses are powers); each step multiplies up to
    `batch` queued classes by every generator.  Every edge
    (class, generator) reaches a class with some lift; the ratio to that
    class's kept lift is a scalar of G, a Schreier generator of Z, so k is
    the gcd of q - 1 and all the lift differences.
    """
    n = spec.q - 1
    exp, log = spec._tables
    # the products on logs of entries: each entry's log is read once
    gen_logs = tuple(log[e] for e in split_codes(spec, gens[None, :]))
    proj = queue = np.array([_join(spec, 1, 0, 0, 1)], dtype=np.int64)
    lift = queue_lift = np.zeros(1, dtype=np.int64)
    k = n
    batch = max(1, 2 ** 18 // max(1, gens.size))  # bounds the products in memory
    while queue.size and gens.size:
        logs = tuple(log[e] for e in split_codes(spec, queue[:batch, None]))
        canon, lead = _canon(spec, *mat_product(lambda u, v: exp[u + v], spec.add_a,
                                                logs, gen_logs))
        at = np.argsort(canon, axis=None)  # sorted, so the search runs in order
        canon = canon.ravel()[at]
        # lifts stay unreduced logs until the final mod k
        lifts = (queue_lift[:batch, None] + lead).ravel()[at]
        first = np.empty(canon.size, dtype=bool)
        first[0] = True
        np.not_equal(canon[1:], canon[:-1], out=first[1:])
        hit = np.minimum(np.searchsorted(proj, canon), proj.size - 1)
        known = proj[hit] == canon
        # the lift each edge's class keeps: its known one, or that of the
        # first edge to reach it
        kept = np.where(known, lift[hit], lifts[first][np.cumsum(first) - 1])
        k = math.gcd(k, int(np.gcd.reduce(lifts - kept)))
        fresh = first & ~known
        new, new_lift = canon[fresh], lifts[fresh]
        if proj.size + new.size > CLOSURE_GUARD:
            raise ClosureGuardError(f"closure exceeded guard {CLOSURE_GUARD}")
        merged = np.concatenate((proj, new))
        at = np.argsort(merged, kind="stable")  # a merge
        proj, lift = merged[at], np.concatenate((lift, new_lift))[at]
        queue = np.concatenate((queue[batch:], new))
        queue_lift = np.concatenate((queue_lift[batch:], new_lift))
    return proj, lift % k, k


# ---- matrices at the edges ----

@dataclass(frozen=True)
class Mat2:
    """2x2 matrix (a b; c d) with int-encoded entries over spec."""

    spec: FieldSpec
    e: tuple[int, int, int, int]

    @staticmethod
    def from_entries(spec: FieldSpec, rows) -> "Mat2":
        """Parse [[a, b], [c, d]]; ValueError names the first bad part."""
        if not (isinstance(rows, (list, tuple)) and len(rows) == 2 and all(
                isinstance(row, (list, tuple)) and len(row) == 2 for row in rows)):
            raise ValueError(f"matrix {rows!r} is not a list of two rows of two entries")
        return Mat2(spec, tuple(_parse_entry(spec, x) for row in rows for x in row))

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("field mismatch")
        return Mat2(self.spec, mat_product(self.spec.mul_i, self.spec.add_i, self.e, other.e))

    def det_i(self) -> int:
        return int(_det4(self.spec, *self.e))

    def trace_i(self) -> int:
        return self.spec.add_i(self.e[0], self.e[3])

    def inv(self) -> "Mat2":
        """The inverse; ZeroDivisionError when the matrix is singular."""
        return Mat2(self.spec, tuple(int(v) for v in _inv4(self.spec, *self.e)))

    def encode(self) -> int:
        """Canonical integer: entries as base-q digits in (a, b, c, d) order."""
        return _join(self.spec, *self.e)

    def entries(self) -> list[list[FieldElement]]:
        a, b, c, d = (FieldElement(self.spec, x) for x in self.e)
        return [[a, b], [c, d]]

    def rows_json(self) -> list:
        """Entries as coefficient lists, the form group JSON stores."""
        return [[list(x.coeffs) for x in row] for row in self.entries()]

    def __repr__(self):
        a, b, c, d = (FieldElement(self.spec, x) for x in self.e)
        return f"[[{a},{b}],[{c},{d}]]"


def _parse_entry(spec: FieldSpec, x) -> int:
    """The encoding of a matrix entry: an int is a prime-field element, a
    list holds at most r int coefficients over F_p, lowest degree first."""
    if is_int(x):
        return x % spec.p
    if isinstance(x, (list, tuple)) and len(x) <= spec.r and all(map(is_int, x)):
        return sum(c % spec.p * spec.p ** i for i, c in enumerate(x))
    raise ValueError(f"matrix entry {x!r} is not an int or a list of at most "
                     f"{spec.r} int coefficients")


def identity(spec: FieldSpec) -> Mat2:
    return Mat2(spec, (1, 0, 0, 1))


def _codes_of(mats) -> np.ndarray:
    return np.array([m.encode() for m in mats], dtype=np.int64)


def _mats_of(spec: FieldSpec, codes: np.ndarray) -> list[Mat2]:
    cols = [v.tolist() for v in split_codes(spec, codes)]
    return [Mat2(spec, e) for e in zip(*cols)]


# ---- groups ----

class MatGroup:
    """A finite subgroup of GL_2(spec), closed by construction and held as
    (proj, lift, k), read-only (see the module docstring)."""

    def __init__(self, spec: FieldSpec, proj: np.ndarray, lift: np.ndarray, k: int,
                 generators: tuple[Mat2, ...]):
        self.spec = spec
        self.proj, self.lift, self.k = proj, lift, k
        proj.flags.writeable = False
        lift.flags.writeable = False
        self.generators = generators
        self._derived: dict = {}
        # Lagrange sanity: |G| divides |GL_2(F_q)|
        q = spec.q
        if ((q * q - 1) * (q * q - q)) % self.order != 0:
            raise RuntimeError("order does not divide |GL_2|; closure is broken")

    @property
    def z_order(self) -> int:
        """|Z|, the number of scalar matrices in G."""
        return (self.spec.q - 1) // self.k

    @property
    def order(self) -> int:
        return int(self.proj.size) * self.z_order

    def memo(self, fn, *args):
        """fn(self, *args), computed once per argument tuple and stored."""
        key = (fn, *args)
        if key not in self._derived:
            self._derived[key] = fn(self, *args)
        return self._derived[key]

    @cached_property
    def scalars(self) -> np.ndarray:
        """The encodings of the scalars g^(k j) of Z, for j = 0, ..., |Z| - 1."""
        return self.spec._tables[0][self.k * np.arange(self.z_order)]

    @cached_property
    def reps(self) -> np.ndarray:
        """The codes of the lifts g^lift[i].proj[i], one element per class."""
        return _scale(self.spec, self.proj, self.spec._tables[0][self.lift])

    @cached_property
    def rep_traces(self) -> np.ndarray:
        a, _, _, d = split_codes(self.spec, self.reps)
        return self.spec.add_a(a, d)

    @cached_property
    def rep_dets(self) -> np.ndarray:
        return _det4(self.spec, *split_codes(self.spec, self.reps))

    @cached_property
    def class_orders(self) -> np.ndarray:
        """The order in PGL_2 of every class, aligned with proj."""
        return proj_orders(self.spec, self.proj)

    def trace_ints(self) -> frozenset[int]:
        """Integer-encoded traces attained on the group."""
        return self.memo(_trace_ints)

    # -- G itself, expanded on request (small groups) --

    @cached_property
    def codes(self) -> np.ndarray:
        """The sorted codes of all |G| elements."""
        codes = np.sort(_expand(self), axis=None)
        codes.flags.writeable = False
        return codes

    @cached_property
    def traces(self) -> np.ndarray:
        """The trace of every element, aligned with codes."""
        a, _, _, d = split_codes(self.spec, self.codes)
        return self.spec.add_a(a, d)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> list[Mat2]:
        return _mats_of(self.spec, self.codes)

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        """Whether Z lies in other's scalars and each class of self lies in
        other with a lift in other's scalar coset."""
        if self.spec != other.spec or self.k % other.k:
            return False
        i = np.minimum(np.searchsorted(other.proj, self.proj), other.proj.size - 1)
        return bool(((other.proj[i] == self.proj)
                     & ((self.lift - other.lift[i]) % other.k == 0)).all())

    def __eq__(self, other):
        return (isinstance(other, MatGroup) and self.spec == other.spec
                and self.k == other.k and np.array_equal(self.proj, other.proj)
                and np.array_equal(self.lift, other.lift))

    def __hash__(self):
        return hash((self.spec, self.k, self.proj.size, self.proj[-1].item(),
                     self.lift[-1].item()))

    def __repr__(self):
        return f"MatGroup(q={self.spec.q}, order={self.order})"


def _expand(G: MatGroup) -> np.ndarray:
    """The codes of G as an array whose entry [i, j] is g^(k j).reps[i]."""
    return _scale(G.spec, G.reps[:, None], G.scalars[None, :])


def _in_code_order(G: MatGroup, values: np.ndarray) -> np.ndarray:
    """values[i, j], given per element g^(k j).reps[i], aligned with G.codes."""
    return values.ravel()[np.argsort(_expand(G), axis=None)]


def _contains(G: MatGroup, x: np.ndarray) -> np.ndarray:
    """Membership in G of each code in x: its class is in PG and its
    scalar lies in g^lift Z."""
    canon, lead = proj_canon(G.spec, x)
    i = np.minimum(np.searchsorted(G.proj, canon), G.proj.size - 1)
    return (G.proj[i] == canon) & ((lead - G.lift[i]) % G.k == 0)


def _scalar_orbits(spec: FieldSpec, x: np.ndarray, e: int) -> np.ndarray:
    """The sorted distinct values z.x for x in the int array x and z in
    <g^e>, e dividing q - 1: the nonzero x fill whole classes of log mod e."""
    exp, log = spec._tables
    r = unique_codes(log[x[x != 0]] % e)
    out = exp[(r[:, None] + e * np.arange((spec.q - 1) // e)).ravel()]
    return unique_codes(out if x.all() else np.append(out, 0))


def _trace_ints(G: MatGroup) -> frozenset[int]:
    # tr(z l) = z tr(l)
    return frozenset(_scalar_orbits(G.spec, G.rep_traces, G.k).tolist())


def close_group(spec: FieldSpec, generators) -> MatGroup:
    """Subgroup generated by the given matrices (breadth-first closure on
    projective classes); CLOSURE_GUARD bounds |PG|."""
    gens = []
    for g in generators:
        m = g if isinstance(g, Mat2) else Mat2.from_entries(spec, g)
        if m.spec != spec:
            raise ValueError("generator over the wrong field")
        if m.det_i() == 0:
            raise ValueError(f"generator {m} is singular")
        gens.append(m)
    _check_codes(spec)
    return MatGroup(spec, *_close(spec, _codes_of(gens)), tuple(gens))


def generating_set(G: MatGroup) -> list[Mat2]:
    """G's recorded generators, or a small set found greedily: the least
    element outside the subgroup generated so far, until it is all of G."""
    if G.generators:
        return list(G.generators)
    gens = np.zeros(0, dtype=np.int64)
    while (H := MatGroup(G.spec, *_close(G.spec, gens), ())).order < G.order:
        gens = np.append(gens, G.codes[np.argmax(~_contains(H, G.codes))])
    return _mats_of(G.spec, gens) or [identity(G.spec)]


def commutator_subgroup(G: MatGroup) -> MatGroup:
    """[G, G]: the subgroup generated by all commutators xyx^-1y^-1.

    When G contains SL_2(F_q) and q > 3, [G, G] = G ∩ SL_2 = SL_2(F_q),
    since SL_2(F_q) is perfect (Huppert, Endliche Gruppen I, ch. II), and it
    is read off G's classes with no products (`_sl2_read_off`).  Any other
    G takes the normal closure of the commutators of a generating set,
    which equals the full commutator subgroup.  Either way every element is
    verified to have determinant 1.  A commutator does not depend on the
    lifts, since [zx, z'y] = [x, y] for scalars z, z'.
    """
    return G.memo(_commutator_subgroup)


def _commutator_subgroup(G: MatGroup) -> MatGroup:
    H = _sl2_read_off(G)
    if H is None:
        H = _commutator_closure(G)
    # det(z l) = z^2 det(l): every det is 1 when the lifts have det 1 and z^2 = 1
    if (H.rep_dets != 1).any() or (2 * H.k) % (G.spec.q - 1):
        raise RuntimeError("commutator subgroup contains det != 1 element")
    return H


def _sl2_read_off(G: MatGroup) -> MatGroup | None:
    """K = G ∩ SL_2 when it is all of SL_2(F_q) and q > 3, else None.

    The element z.reps[i], z = g^(k j) in Z, has det g^(2 k j + ld_i) with
    ld_i = log det reps[i], so class i meets SL_2 iff gcd(2k, q - 1) = k w
    divides ld_i, w = |Z ∩ {±1}| = gcd(2, |Z|), and then in w elements.
    The lift of class i in K is lift_i - k j for the j with 2 j = ld_i / k
    mod |Z|, and Z ∩ K = Z ∩ {±1} = <g^((q - 1) / w)>.
    """
    spec, q = G.spec, G.spec.q
    if q <= 3 or G.proj.size < q * (q * q - 1) // math.gcd(2, q - 1):
        return None  # |PG| < |PSL_2(F_q)|
    n, z = q - 1, G.z_order
    w = math.gcd(2, z)
    ld = spec._tables[1][G.rep_dets]
    meets = ld % (G.k * w) == 0
    if np.count_nonzero(meets) * w != q * (q * q - 1):
        return None
    # 2 j = m mod |Z|: halve m when |Z| is even (m is then even), else
    # multiply by the inverse (|Z| + 1) / 2 of 2
    m = ld[meets] // G.k % z
    j = m // 2 if w == 2 else m * ((z + 1) // 2) % z
    lift = (G.lift[meets] - G.k * j) % (n // w)
    # the upper and lower unipotents with entries g^i, i < r, an F_p-basis
    # of F_q, generate SL_2(F_q)
    powers = spec._tables[0][:spec.r].tolist()
    gens = tuple(Mat2(spec, e) for s in powers for e in ((1, s, 0, 1), (1, 0, s, 1)))
    return MatGroup(spec, G.proj[meets], lift, n // w, gens)


def _commutator_closure(G: MatGroup) -> MatGroup:
    """[G, G] as the normal closure of the commutators of G's generators."""
    spec = G.spec
    g = _codes_of(generating_set(G))
    gi = _join(spec, *_inv4(spec, *split_codes(spec, g)))
    # x y x^-1 y^-1 for the pairs of generators x before y: [y, x] is the
    # inverse of [x, y], and each seed costs |PH| products in the closure
    x, y = np.triu_indices(g.size, 1)
    seeds = unique_codes(mul_codes(spec, mul_codes(spec, g[x], g[y]),
                                   mul_codes(spec, gi[x], gi[y])))
    seeds = seeds[seeds != identity(spec).encode()]
    # normal closure: conjugate the generating commutators until stable
    while True:
        H = MatGroup(spec, *_close(spec, seeds), tuple(_mats_of(spec, seeds)))
        conj = mul_codes(spec, mul_codes(spec, g[:, None], seeds[None, :]), gi[:, None])
        new = unique_codes(conj[~_contains(H, conj)])
        if not new.size:
            return H
        seeds = np.concatenate((seeds, new))


def coset_split(G: MatGroup, H: MatGroup) -> tuple[np.ndarray, np.ndarray, int]:
    """The left cosets of the subgroup H in G, as (label, shift, m).

    label[i] is the coset of PH in PG that holds class i, numbered by least
    canonical code; m = |Z : Z ∩ H|; the element g^(k j).reps[i] lies in
    the coset label[i] m + (shift[i] + j) mod m of H.
    """
    if not H.is_subgroup_of(G):  # also false over another field
        raise ValueError("H is not a subgroup of G")
    return G.memo(_coset_split, H)


def _coset_split(G: MatGroup, H: MatGroup) -> tuple[np.ndarray, np.ndarray, int]:
    spec = G.spec
    label = np.full(G.proj.size, -1, dtype=np.int64)
    shift = np.zeros(G.proj.size, dtype=np.int64)
    batch, count = max(1, 4096 // H.proj.size), 0  # about 4096 products a batch
    while (free := np.flatnonzero(label < 0)).size:
        # x.PH for the least unlabelled classes x: a row's least class names
        # its coset, and the first row of each coset is that class's own
        canon, lead = proj_canon(spec, mul_codes(spec, G.reps[free[:batch], None],
                                                 H.reps[None, :]))
        first = np.unique(canon.min(axis=1), return_index=True)[1]
        canon, lead = canon[first], lead[first]
        rows = np.broadcast_to(count + np.arange(first.size)[:, None], canon.shape)
        at = np.argsort(canon, axis=None)  # sorted, so the search runs in order
        canon, lead = canon.ravel()[at], lead.ravel()[at]
        pos = np.minimum(np.searchsorted(G.proj, canon), G.proj.size - 1)
        if (G.proj[pos] != canon).any():
            raise RuntimeError("cosets do not partition G")
        label[pos] = rows.ravel()[at]
        # reps[c] = s.x.h with s = g^(lift[c] - lead) in Z; its place in
        # Z/(Z ∩ H), Z ∩ H = <g^(H.k)>, is the shift of class c
        shift[pos] = (G.lift[pos] - lead) % H.k // G.k
        count += first.size
    if np.bincount(label).tolist() != [H.proj.size] * count:
        raise RuntimeError("cosets do not partition G")
    label.flags.writeable = False
    shift.flags.writeable = False
    return label, shift, H.k // G.k


def coset_label(G: MatGroup, H: MatGroup) -> np.ndarray:
    """Index of the left coset of H holding each element of G.codes, as
    coset_split numbers the cosets; built on request (small groups)."""
    coset_split(G, H)  # checks that H is a subgroup
    return G.memo(_coset_label, H)


def _coset_label(G: MatGroup, H: MatGroup) -> np.ndarray:
    label, shift, m = coset_split(G, H)
    j = np.arange(G.z_order)
    out = _in_code_order(G, label[:, None] * m + (shift[:, None] + j) % m)
    out.flags.writeable = False
    return out


def proj_orders(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Orders in PGL_2 of the classes of the codes x, in closed form.

    A scalar has order 1 and a non-scalar with tr^2 = 4 det, a scalar times
    a unipotent, has order p.  Otherwise the order is that of the ratio r
    of the two eigenvalues, a root of X^2 - (u - 2) X + 1 with
    u = tr^2 / det, which ratio_orders tabulates once per field.
    """
    a, b, c, d = split_codes(spec, x)
    t = spec.add_a(a, d)
    t2, det = spec.mul_a(t, t), _det4(spec, a, b, c, d)
    out = ratio_orders(spec)[spec.mul_a(t2, spec.inv_a(det))]
    out = np.where(t2 == spec.mul_a(4 % spec.p, det), spec.p, out)
    return np.where(_scalar_mask(a, b, c, d), 1, out)


# ---- exhaustive subgroup enumeration (small ambient groups only) ----

def _grouped_min(x: np.ndarray, group: np.ndarray) -> np.ndarray:
    """out[i], the least x[j] over the j with group[j] == group[i]; the
    values of x and group are indices below x.size."""
    out = np.full(x.size, x.size)
    np.minimum.at(out, group, x)
    return out[group]


def _cyclic_labels(T: np.ndarray, e: int) -> np.ndarray:
    """For each index g of the Cayley table T with identity e, the least
    index among the generators g^j (j prime to ord g) of <g>."""
    g = x = np.arange(T.shape[0])
    powers, done = [g], g == e
    while not done.all():
        x = T[x, g]
        powers.append(x)
        done |= x == e
    P = np.stack(powers, axis=1)  # P[g, j - 1] = g^j
    j = np.arange(1, P.shape[1] + 1)
    order = np.argmax(P == e, axis=1)[:, None] + 1
    return np.where((j <= order) & (np.gcd(j, order) == 1), P, g.size).min(axis=1)


def _table_join(T: np.ndarray, H: np.ndarray, gens: list[int], g: int) -> np.ndarray:
    """The mask of <H, g>, for the subgroup mask H generated by the indices
    gens: the coset Hg, then every new element times gens and g, until
    nothing new appears (inverses are powers)."""
    K = H.copy()
    step = np.array(gens + [g])
    new = T[np.flatnonzero(H), g]
    K[new] = True
    while new.size:
        x = T[new[:, None], step].ravel()
        new = unique_codes(x[~K[x]])
        K[new] = True
    return K


def _cayley_table(spec: FieldSpec, codes: np.ndarray, block: int = 1 << 16) -> np.ndarray:
    """T[i, j], the index in the sorted codes of codes[i] codes[j], filled
    in blocks of rows of about `block` products each."""
    n = codes.size
    T = np.empty((n, n), dtype=np.int64)
    step = max(1, block // n)
    for i in range(0, n, step):
        prod = mul_codes(spec, codes[i:i + step, None], codes[None, :])
        T[i:i + step] = np.minimum(np.searchsorted(codes, prod), n - 1)
        if (codes[T[i:i + step]] != prod).any():
            raise RuntimeError("the Cayley table leaves G; closure is broken")
    return T


def enumerate_subgroups(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, sorted by (order, codes), found on G's Cayley table.

    T[i, j] is the index in G.codes of the product of the i-th and j-th
    elements, and a subgroup is a boolean mask over those indices.  From
    the trivial group, each subgroup H found is joined with one element g
    per class outside H, and the fixed point is the whole lattice: any
    subgroup <g1, ..., gk> is reached by adding its generators one at a
    time.  <H, g> is the same group for every g in the double coset HgH
    and for every generator of <g>, so a class is an equivalence class of
    the relation these two generate.  Only the distinct subgroups become
    MatGroups, through one close_group each, checked against their mask.

    T holds |G|^2 int64 (1.8 MB for GL_2(F_5), |G| = 480; 32 MB for
    GL_2(F_7)), built in row blocks so that the peak stays near T itself;
    the number of joins grows with the lattice.  Meant for ambient groups
    of order up to about 10^3, such as GL_2(F_q), q <= 5.
    """
    spec, codes, n = G.spec, G.codes, G.order
    T = _cayley_table(spec, codes)
    e = int(np.searchsorted(codes, identity(spec).encode()))
    cyclic = _cyclic_labels(T, e)
    trivial = np.arange(n) == e
    found = {trivial.tobytes(): (trivial, [])}
    frontier = [(trivial, [])]
    while frontier:
        fresh = []
        for H, gens in frontier:
            at = np.flatnonzero(H)
            # the least index of each double coset HgH: of the cosets hgH
            double = label = T[:, at].min(axis=1)[T[at]].min(axis=0)
            # merge across cyclic groups and double cosets until stable
            while not np.array_equal(label, merged := _grouped_min(
                    _grouped_min(label, cyclic), double)):
                label = merged
            for g in unique_codes(label[~H]).tolist():
                K = _table_join(T, H, gens, g)
                if (key := K.tobytes()) not in found:
                    found[key] = (K, gens + [g])
                    fresh.append(found[key])
        frontier = fresh
    out = []
    for K, gens in sorted(found.values(),
                          key=lambda t: (np.count_nonzero(t[0]), np.flatnonzero(t[0]).tolist())):
        H = close_group(spec, _mats_of(spec, codes[gens]) or [identity(spec)])
        if not np.array_equal(H.codes, codes[K]):
            raise RuntimeError("table and closure disagree on a subgroup")
        out.append(H)
    return out


# ---- serialization ----

def group_to_json(G: MatGroup) -> dict:
    gens = [m.rows_json() for m in generating_set(G)]
    return {"field": G.spec.to_json(), "generators": gens}


def group_from_json(obj) -> MatGroup:
    """Parse {"field": field, "generators": [matrix, ...]}, the field as
    FieldSpec.from_json and each matrix as Mat2.from_entries reads it;
    malformed input raises ValueError naming the part at fault."""
    if not (isinstance(obj, dict) and "field" in obj and "generators" in obj):
        raise ValueError("group JSON must be an object with field and generators")
    spec, gens = FieldSpec.from_json(obj["field"]), obj["generators"]
    if not isinstance(gens, list):
        raise ValueError(f"generators {gens!r} is not a list")
    return close_group(spec, [Mat2.from_entries(spec, rows) for rows in gens])
