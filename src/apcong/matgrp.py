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
Z/(Z ∩ H) (`coset_split`).

A G that contains SL_2(F_q), q > 3, is det^-1(D) for its determinant
image D = <g^e>, and it is held as e alone (`MatGroup.det_exp`).  The
search recognises it, and records `MatGroup.contains_sl2`, once it holds
more than B(q) classes (`_dickson_bound`) and the generators fix no common
point of P^1(F_q): by Dickson's list PG then contains PSL_2(F_q).  Its
order, |PG|, Z, trace set F_q, determinant set D and [G, G] = SL_2(F_q)
are closed forms in (q, e).  Its classes proj and lift are built only on
request, by the same search run to the end and checked against those
closed forms, and so are the views read off them.  One class lookup
(`_locate`) places a code for membership, coset splits and `coset_of`.
`MatGroup.codes` and views aligned with it expand small groups on request.
The module constant CLOSURE_GUARD bounds the classes a search stores, and
an SL_2 overgroup checks its |PG| against it before its search starts.
Codes need q^4 < 2^63: a larger field raises CodeRangeError before any
code is formed, so SL_2 overgroups are held up to q = 55 103.

A group records its generators once, as the read-only code array `gens`;
`Mat2` matrices appear only at the edges (parsing, output, constructions,
the Borel witness).  Groups are immutable, so each derived structure is a
function decorated `memoised`, computed once per group and argument tuple
and stored on the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .ffield import FieldElement, FieldSpec, is_int, ratio_orders

CLOSURE_GUARD = 10 ** 6
# entries per row block of the Cayley table and of its double-coset labels
_ROW_BLOCK = 1 << 16


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


def _dickson_bound(spec: FieldSpec) -> float:
    """B(q), the most classes a subgroup of PGL_2(F_q), q > 3, can have
    while it fixes no point of P^1(F_q) and does not contain PSL_2(F_q).

    By Dickson's list (Huppert, Endliche Gruppen I, II.8.27) such a group
    is cyclic of order dividing q + 1, dihedral of order at most 2 (q + 1),
    A_4, S_4 or A_5 (12, 24 and 60 classes, A_5 only where 5 divides
    q (q^2 - 1)), or PSL_2 or PGL_2 over a proper subfield F_q'.  A group
    that fixes a point lies in a Borel group, of q (q - 1) classes, and its
    search runs to the end.  At q = 4 and 5, A_5 is PSL_2(F_q) itself, so
    B(q) is there the exact bound max(q (q - 1), 24) on every subgroup
    without PSL_2 (S_4 in PGL_2(F_5)).  Infinite for q <= 3, where
    SL_2(F_q) is not perfect and the search always runs to the end.
    """
    q, p, r = spec.q, spec.p, spec.r
    if q <= 3:
        return math.inf
    if q <= 5:
        return max(q * (q - 1), 24)
    subfield = max((p ** d * (p ** (2 * d) - 1) for d in range(1, r) if r % d == 0),
                   default=0)
    return max(2 * (q + 1), 60 if q * (q * q - 1) % 5 == 0 else 24, subfield)


def _fixed_points(spec: FieldSpec, a, b, c, d) -> np.ndarray:
    """Mask over the points (1 : t) of P^1(F_q), t in encoding order, then
    (0 : 1): whether every matrix (a b; c d) of the entry columns fixes it.

    (a b; c d) fixes (1 : t) iff b t^2 + (a - d) t - c = 0, and (0 : 1) iff
    b = 0: one (#matrices, q + 1) array.
    """
    t = np.arange(spec.q, dtype=np.int64)
    f = spec.sub_a(spec.add_a(spec.mul_a(b, spec.mul_a(t, t)),
                              spec.mul_a(spec.sub_a(a, d), t)), c)
    return ~np.concatenate((f, np.broadcast_to(b, (b.shape[0], 1))), axis=1).any(axis=0)


def _close(spec: FieldSpec, gens: np.ndarray, full: bool = False) -> "MatGroup":
    """The subgroup generated by the codes gens, recorded as its generators;
    more than CLOSURE_GUARD stored classes raise ClosureGuardError.

    A search over projective classes that keeps the lift each class was
    first reached with (inverses are powers); each step multiplies up to
    `batch` queued classes by every generator.  Every edge
    (class, generator) reaches a class with some lift; the ratio to that
    class's kept lift is a scalar of G, a Schreier generator of Z, so k is
    the gcd of q - 1 and all the lift differences.

    Once the search holds more than B(q) classes (`_dickson_bound`), the
    generators are tested once for a common fixed point of P^1(F_q).  With
    none, PG contains PSL_2(F_q), so G contains [G, G] ⊇ SL_2(F_q) (perfect
    for q > 3) and is det^-1(det G): the search stops and G is held as its
    determinant image (`_sl2_overgroup`).  With one, G lies in a Borel group
    and the search runs to the end.  With full, it runs to the end
    regardless, and G is held as its classes (`MatGroup._classes`).
    """
    n = spec.q - 1
    bound = math.inf if full else _dickson_bound(spec)
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
        merged = np.concatenate((proj, new))
        at = np.argsort(merged, kind="stable")  # a merge
        proj, lift = merged[at], np.concatenate((lift, new_lift))[at]
        queue = np.concatenate((queue[batch:], new))
        queue_lift = np.concatenate((queue_lift[batch:], new_lift))
        if proj.size > bound:
            if not _fixed_points(spec, *split_codes(spec, gens[:, None])).any():
                return _sl2_overgroup(spec, gens, proj, lift)
            bound = math.inf
        if proj.size > CLOSURE_GUARD:
            raise ClosureGuardError(f"closure exceeded guard {CLOSURE_GUARD}")
    return MatGroup(spec, proj, lift % k, k, gens)


def _sl2_overgroup(spec: FieldSpec, gens: np.ndarray, proj: np.ndarray,
                   lift: np.ndarray) -> "MatGroup":
    """det^-1(<det gens>), held as its determinant image, once the classes
    proj with the unreduced lifts lift, found by the search, prove that it
    contains SL_2(F_q).  Each of them is checked to lie in it: g^lift.proj
    has log det 2 lift + log det proj, a multiple of e."""
    log = spec._tables[1]
    e = math.gcd(spec.q - 1, *log[_det4(spec, *split_codes(spec, gens))].tolist())
    if ((2 * lift + log[_det4(spec, *split_codes(spec, proj))]) % e).any():
        raise RuntimeError("the search left det^-1(det G); closure is broken")
    return MatGroup._from_det(spec, e, gens)


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
        (a, b), (c, d) = self.entries()
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


# ---- groups ----

def memoised(fn):
    """fn(G, *args) for a MatGroup G, computed once per group and argument
    tuple and stored on G.  Each call reads the body as `__wrapped__`, so a
    substitute set there takes effect."""
    @wraps(fn)
    def once(G, *args):
        key = (once, *args)
        if key not in G._derived:
            G._derived[key] = once.__wrapped__(G, *args)
        return G._derived[key]
    return once


class MatGroup:
    """A finite subgroup of GL_2(spec), closed by construction and
    read-only: held as (proj, lift, k), or, when it contains SL_2(F_q),
    q > 3, as the exponent det_exp = e of its determinant image <g^e>
    (None otherwise; see the module docstring).  gens holds the codes of
    its recorded generators."""

    def __init__(self, spec: FieldSpec, proj: np.ndarray, lift: np.ndarray, k: int,
                 gens: np.ndarray):
        self.spec, self.k, self.gens = spec, k, gens
        self.proj, self.lift = proj, lift
        for x in (proj, lift, gens):
            x.flags.writeable = False
        self.proj_order = int(proj.size)
        self.det_exp = None
        self._derived: dict = {}
        if not gens.size and self.order > 1:
            raise ValueError("a non-trivial group must record its generators")
        # Lagrange sanity: |G| divides |GL_2(F_q)|
        q = spec.q
        if ((q * q - 1) * (q * q - q)) % self.order != 0:
            raise RuntimeError("order does not divide |GL_2|; closure is broken")

    @classmethod
    def _from_det(cls, spec: FieldSpec, e: int, gens: np.ndarray) -> "MatGroup":
        """det^-1(<g^e>), e dividing q - 1, q > 3, held as e: with
        w = gcd(2, e), |PG| = q (q^2 - 1) / w and Z = <g^(e / w)>, the
        scalars whose square lies in <g^e>."""
        G = cls.__new__(cls)
        w = math.gcd(2, e)
        gens.flags.writeable = False
        G.spec, G.k, G.gens, G.det_exp = spec, e // w, gens, e
        G.proj_order = spec.q * (spec.q ** 2 - 1) // w
        G._derived = {}
        return G

    @cached_property
    def generators(self) -> tuple[Mat2, ...]:
        """The recorded generators as matrices, for output."""
        cols = [v.tolist() for v in split_codes(self.spec, self.gens)]
        return tuple(Mat2(self.spec, e) for e in zip(*cols))

    @property
    def contains_sl2(self) -> bool:
        """Whether G contains SL_2(F_q), q > 3, recorded when G is built:
        close_group holds every such G as det_exp, and every question the
        analysis asks of it has a closed form in q and det_exp."""
        return self.det_exp is not None

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(proj, lift) of a G held as det_exp, built on request by the
        search run to the end; |PG| > CLOSURE_GUARD raises before it starts."""
        if self.proj_order > CLOSURE_GUARD:
            raise ClosureGuardError(f"closure exceeded guard {CLOSURE_GUARD}")
        G = _close(self.spec, self.gens, full=True)
        if (G.k, G.proj_order) != (self.k, self.proj_order):
            raise RuntimeError("the search left det^-1(det G); closure is broken")
        return G.proj, G.lift

    @cached_property
    def proj(self) -> np.ndarray:
        return self._classes[0]

    @cached_property
    def lift(self) -> np.ndarray:
        return self._classes[1]

    @property
    def z_order(self) -> int:
        """|Z|, the number of scalar matrices in G."""
        return (self.spec.q - 1) // self.k

    @property
    def order(self) -> int:
        return self.proj_order * self.z_order

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

    @memoised
    def trace_ints(self) -> frozenset[int]:
        """Integer-encoded traces attained on the group."""
        if self.contains_sl2:
            # SL_2(F_q) holds (t -1; 1 0) of trace t for every t
            return frozenset(range(self.spec.q))
        # tr(z l) = z tr(l)
        return frozenset(_scalar_orbits(self.spec, self.rep_traces, self.k).tolist())

    @memoised
    def det_ints(self) -> frozenset[int]:
        """Integer-encoded determinants attained on the group."""
        spec = self.spec
        if self.contains_sl2:
            e = self.det_exp
            return frozenset(spec._tables[0][e * np.arange((spec.q - 1) // e)].tolist())
        # det(z l) = z^2 det(l), and <z^2 : z in Z> = <g^gcd(2k, q - 1)>
        return frozenset(_scalar_orbits(spec, self.rep_dets,
                                        math.gcd(2 * self.k, spec.q - 1)).tolist())

    # -- G itself, expanded on request (small groups) --

    @cached_property
    def codes(self) -> np.ndarray:
        """The sorted codes of all |G| elements."""
        codes = np.sort(_scale(self.spec, self.reps[:, None], self.scalars[None, :]), axis=None)
        codes.flags.writeable = False
        return codes

    @cached_property
    def traces(self) -> np.ndarray:
        """The trace of every element, aligned with codes."""
        a, _, _, d = split_codes(self.spec, self.codes)
        return self.spec.add_a(a, d)

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        """Whether Z lies in other's scalars and each class of self lies in
        other with a lift in other's scalar coset."""
        return bool(self.spec == other.spec and self.k % other.k == 0
                    and _locate(other, self.reps)[2].all())

    def __eq__(self, other):
        if not (isinstance(other, MatGroup) and self.spec == other.spec
                and self.k == other.k and self.proj_order == other.proj_order):
            return False
        if self.contains_sl2 and other.contains_sl2:
            return self.det_exp == other.det_exp
        return np.array_equal(self.proj, other.proj) and np.array_equal(self.lift, other.lift)

    def __hash__(self):
        return hash((self.spec, self.k, self.proj_order))

    def __repr__(self):
        return f"MatGroup(q={self.spec.q}, order={self.order})"


def _locate(G: MatGroup, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, inside) for the codes x: the class index i and scalar index j
    with x = g^(k j).reps[i], and whether x lies in G, that is, its class
    is in PG and its scalar in g^lift[i] Z."""
    canon, lead = proj_canon(G.spec, np.asarray(x, dtype=np.int64))
    i = np.minimum(np.searchsorted(G.proj, canon), G.proj.size - 1)
    d = (lead - G.lift[i]) % (G.spec.q - 1)
    return i, d // G.k, (G.proj[i] == canon) & (d % G.k == 0)


def _scalar_orbits(spec: FieldSpec, x: np.ndarray, e: int) -> np.ndarray:
    """The sorted distinct values z.x for x in the int array x and z in
    <g^e>, e dividing q - 1: the nonzero x fill whole classes of log mod e."""
    exp, log = spec._tables
    r = unique_codes(log[x[x != 0]] % e)
    out = exp[(r[:, None] + e * np.arange((spec.q - 1) // e)).ravel()]
    return unique_codes(out if x.all() else np.append(out, 0))


def close_group(spec: FieldSpec, generators) -> MatGroup:
    """Subgroup generated by the given matrices (breadth-first closure on
    projective classes, `_close`); CLOSURE_GUARD bounds the classes the
    search stores for a group that does not contain SL_2(F_q)."""
    gens = []
    for g in generators:
        m = g if isinstance(g, Mat2) else Mat2.from_entries(spec, g)
        if m.spec != spec:
            raise ValueError("generator over the wrong field")
        if m.det_i() == 0:
            raise ValueError(f"generator {m} is singular")
        gens.append(m)
    _check_codes(spec)
    return _close(spec, np.array([m.encode() for m in gens], dtype=np.int64))


@memoised
def commutator_subgroup(G: MatGroup) -> MatGroup:
    """[G, G]: the subgroup generated by all commutators xyx^-1y^-1.

    When G contains SL_2(F_q) and q > 3 (`MatGroup.contains_sl2`),
    [G, G] = G ∩ SL_2 = SL_2(F_q), since SL_2(F_q) is perfect (Huppert,
    Endliche Gruppen I, ch. II), and it is held as det^-1(1), with no
    product and no class built.  Any other G takes the normal closure of
    the commutators of a generating set, which equals the full commutator
    subgroup.  Either way every determinant is checked to be 1.  A
    commutator does not depend on the lifts, since [zx, z'y] = [x, y] for
    scalars z, z'.
    """
    spec = G.spec
    if G.contains_sl2:
        # the upper and lower unipotents with entries g^i, i < r, an F_p-basis
        # of F_q, generate SL_2(F_q)
        s = spec._tables[0][:spec.r]
        gens = np.stack((_join(spec, 1, s, 0, 1), _join(spec, 1, 0, s, 1)), axis=1).ravel()
        H = MatGroup._from_det(spec, spec.q - 1, gens)
    else:
        H = _commutator_closure(G)
    if H.det_ints() != {1}:
        raise RuntimeError("commutator subgroup contains det != 1 element")
    return H


def _commutator_closure(G: MatGroup) -> MatGroup:
    """[G, G] as the normal closure of the commutators of G's generators."""
    spec, g = G.spec, G.gens
    gi = _join(spec, *_inv4(spec, *split_codes(spec, g)))
    # x y x^-1 y^-1 for the pairs of generators x before y: [y, x] is the
    # inverse of [x, y], and each seed costs |PH| products in the closure
    x, y = np.triu_indices(g.size, 1)
    seeds = unique_codes(mul_codes(spec, mul_codes(spec, g[x], g[y]),
                                   mul_codes(spec, gi[x], gi[y])))
    seeds = seeds[seeds != _join(spec, 1, 0, 0, 1)]
    # normal closure: conjugate the generating commutators until stable
    while True:
        H = _close(spec, seeds)
        conj = mul_codes(spec, mul_codes(spec, g[:, None], seeds[None, :]), gi[:, None])
        new = unique_codes(conj[~_locate(H, conj)[2]])
        if not new.size:
            return H
        seeds = np.concatenate((seeds, new))


@memoised
def coset_split(G: MatGroup, H: MatGroup) -> tuple[np.ndarray, np.ndarray, int]:
    """The left cosets of the subgroup H in G, as (label, shift, m).

    label[i] is the coset of PH in PG that holds class i, numbered by least
    canonical code; m = |Z : Z ∩ H|; the element g^(k j).reps[i] lies in
    the coset label[i] m + (shift[i] + j) mod m of H (`coset_of`).  They
    are found by products: each least unlabelled class of G times PH.
    """
    if not H.is_subgroup_of(G):  # also false over another field
        raise ValueError("H is not a subgroup of G")
    label = np.full(G.proj.size, -1, dtype=np.int64)
    shift = np.zeros(G.proj.size, dtype=np.int64)
    m = H.k // G.k
    batch, count = max(1, 4096 // H.proj.size), 0  # about 4096 products a batch
    while (free := np.flatnonzero(label < 0)).size:
        # x.PH for the least unlabelled classes x: a row's least class names
        # its coset, and the first row of each coset is that class's own
        i, j, inside = _locate(G, mul_codes(G.spec, G.reps[free[:batch], None],
                                            H.reps[None, :]))
        if not inside.all():
            raise RuntimeError("cosets do not partition G")
        first = np.unique(i.min(axis=1), return_index=True)[1]
        i, j = i[first], j[first]
        label[i] = count + np.arange(first.size)[:, None]
        # reps[i] = g^(-k j).x.h: its place in Z/(Z ∩ H), Z ∩ H = <g^(H.k)>,
        # is the shift of class i
        shift[i] = -j % m
        count += first.size
    if np.bincount(label).tolist() != [H.proj_order] * count:
        raise RuntimeError("cosets do not partition G")
    label.flags.writeable = False
    shift.flags.writeable = False
    return label, shift, m


def coset_of(G: MatGroup, H: MatGroup, x) -> np.ndarray:
    """The index of the left coset of the subgroup H holding each code in
    x, as coset_split numbers the cosets; ValueError for a code outside G."""
    label, shift, m = coset_split(G, H)
    i, j, inside = _locate(G, x)
    if not inside.all():
        raise ValueError("code outside G")
    return label[i] * m + (shift[i] + j) % m


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


def _cayley_table(spec: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """T[i, j], the index in the sorted codes of codes[i] codes[j], filled
    in blocks of rows of about _ROW_BLOCK products each."""
    n = codes.size
    T = np.empty((n, n), dtype=np.int64)
    step = max(1, _ROW_BLOCK // n)
    for i in range(0, n, step):
        prod = mul_codes(spec, codes[i:i + step, None], codes[None, :])
        T[i:i + step] = np.minimum(np.searchsorted(codes, prod), n - 1)
        if (codes[T[i:i + step]] != prod).any():
            raise RuntimeError("the Cayley table leaves G; closure is broken")
    return T


def _double_coset_labels(T: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each index g of the Cayley table T, the least index of the double
    coset HgH of the subgroup H with indices at: the least index of each
    coset gH, then the least of those over the cosets hgH.  Both are taken
    in blocks of rows of about _ROW_BLOCK entries, as `_cayley_table` fills T,
    so that no |G| x |H| temporary is formed."""
    n = T.shape[0]
    left = np.empty(n, dtype=np.int64)
    step = max(1, _ROW_BLOCK // at.size)
    for i in range(0, n, step):
        left[i:i + step] = T[i:i + step, at].min(axis=1)
    out = np.full(n, n, dtype=np.int64)
    step = max(1, _ROW_BLOCK // n)
    for i in range(0, at.size, step):
        np.minimum(out, left[T[at[i:i + step]]].min(axis=0), out=out)
    return out


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
    MatGroups, through one `_close` of their codes each, checked against
    their mask.

    T holds |G|^2 int64 (1.8 MB for GL_2(F_5), |G| = 480; 32 MB for
    GL_2(F_7)), built in row blocks, and the double-coset labels are taken
    in row blocks too (`_double_coset_labels`), so that the peak stays near
    T itself; the number of joins grows with the lattice.  Meant for
    ambient groups of order up to a few thousand, such as GL_2(F_q),
    q <= 7.
    """
    spec, codes, n = G.spec, G.codes, G.order
    T = _cayley_table(spec, codes)
    e = int(np.searchsorted(codes, _join(spec, 1, 0, 0, 1)))
    cyclic = _cyclic_labels(T, e)
    trivial = np.arange(n) == e
    found = {trivial.tobytes(): (trivial, [])}
    frontier = [(trivial, [])]
    while frontier:
        fresh = []
        for H, gens in frontier:
            double = label = _double_coset_labels(T, np.flatnonzero(H))
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
        H = _close(spec, codes[gens])
        if not np.array_equal(H.codes, codes[K]):
            raise RuntimeError("table and closure disagree on a subgroup")
        out.append(H)
    return out


# ---- serialization ----

def group_to_json(G: MatGroup) -> dict:
    gens = [m.rows_json() for m in G.generators or (identity(G.spec),)]
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
