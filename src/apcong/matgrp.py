"""Finite subgroups of GL_2 over a finite field, as sorted arrays of int codes.

A matrix (a b; c d) with int-encoded entries is the int64 code
((a q + b) q + c) q + d (`Mat2.encode`); a MatGroup holds the sorted code
array of its elements.  Products, inverses, traces, determinants and
projective canonical forms are array operations gathering through the
field's exp/log tables.  A coset decomposition is one label array aligned
with the codes (`coset_label`).  Mat2 is the type at the edges
(generators, witnesses, JSON); `MatGroup.elements` is a view built on
request.  Codes need q^4 < 2^63: a larger field raises CodeRangeError
before any code is formed.  Groups are immutable, so each derived
structure (commutator subgroup, projective image, classification, coset
traces) is memoised on the group itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ffield import FieldElement, FieldSpec, is_int

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


def proj_canon(spec: FieldSpec, x):
    """Codes scaled so the first nonzero entry in (a, b, c, d) order is 1.

    An invertible matrix has (a, b) != (0, 0), so that entry is a or b.
    """
    a, b, c, d = split_codes(spec, x)
    s = spec.inv_a(np.where(a != 0, a, b))
    m = spec.mul_a
    return _join(spec, m(a, s), m(b, s), m(c, s), m(d, s))


def unique_codes(x) -> np.ndarray:
    """Sorted distinct values of an int array: np.unique, less the masked
    array check that costs a numpy.ma import in every fresh process."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _isin(sorted_codes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership of each x in a nonempty sorted code array."""
    i = np.minimum(np.searchsorted(sorted_codes, x), sorted_codes.size - 1)
    return sorted_codes[i] == x


def _close(spec: FieldSpec, gens: np.ndarray, guard: int = CLOSURE_GUARD):
    """Sorted codes of the subgroup generated by gens (inverses are powers)."""
    seen = frontier = np.array([_join(spec, 1, 0, 0, 1)], dtype=np.int64)
    while frontier.size:
        new = unique_codes(mul_codes(spec, frontier[:, None], gens[None, :]))
        new = new[~_isin(seen, new)]
        if seen.size + new.size > guard:
            raise ClosureGuardError(f"closure exceeded guard {guard}")
        seen = np.sort(np.concatenate((seen, new)), kind="stable")  # a merge
        frontier = new
    return seen


def _coset_labels(spec: FieldSpec, g: np.ndarray, h: np.ndarray, product=mul_codes):
    """Left cosets x.H of the sorted codes h inside the sorted codes g.

    Returns the coset index of every element of g, numbered by least code:
    each batch multiplies the least unlabelled elements by all of H, a row's
    minimum names its coset, and that minimum lies in the batch.
    """
    label = np.full(g.size, -1, dtype=np.int64)
    batch, count = max(1, 4096 // h.size), 0  # about 4096 products a batch
    while (free := np.flatnonzero(label < 0)).size:
        rows = product(spec, g[free[:batch], None], h[None, :])
        members = rows[np.unique(rows.min(axis=1), return_index=True)[1]]
        pos = np.minimum(np.searchsorted(g, members), g.size - 1)
        if (g[pos] != members).any():
            raise RuntimeError("cosets do not partition G")
        label[pos] = count + np.arange(len(members))[:, None]
        count += len(members)
    if np.bincount(label).tolist() != [h.size] * count:
        raise RuntimeError("cosets do not partition G")
    label.flags.writeable = False
    return label


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
    """A finite subgroup of GL_2(spec), closed by construction; codes is the
    sorted, read-only int64 array of its elements."""

    def __init__(self, spec: FieldSpec, codes: np.ndarray,
                 generators: tuple[Mat2, ...]):
        self.spec = spec
        self.codes = codes
        codes.flags.writeable = False
        self.generators = generators
        self._derived: dict = {}
        # Lagrange sanity: |G| divides |GL_2(F_q)|
        q = spec.q
        if ((q * q - 1) * (q * q - q)) % codes.size != 0:
            raise RuntimeError("order does not divide |GL_2|; closure is broken")

    @property
    def order(self) -> int:
        return int(self.codes.size)

    def memo(self, fn, *args):
        """fn(self, *args), computed once per argument tuple and stored."""
        key = (fn, *args)
        if key not in self._derived:
            self._derived[key] = fn(self, *args)
        return self._derived[key]

    @cached_property
    def entries(self) -> tuple[np.ndarray, ...]:
        """The (a, b, c, d) entry arrays, aligned with codes."""
        return split_codes(self.spec, self.codes)

    @cached_property
    def traces(self) -> np.ndarray:
        a, _, _, d = self.entries
        return self.spec.add_a(a, d)

    @cached_property
    def dets(self) -> np.ndarray:
        return _det4(self.spec, *self.entries)

    @cached_property
    def scalar_mask(self) -> np.ndarray:
        return _scalar_mask(*self.entries)

    def trace_ints(self) -> frozenset[int]:
        """Integer-encoded traces attained on the group."""
        return self.memo(_trace_ints)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> list[Mat2]:
        return _mats_of(self.spec, self.codes)

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        return self.spec == other.spec and bool(_isin(other.codes, self.codes).all())

    def __eq__(self, other):
        return isinstance(other, MatGroup) and self.spec == other.spec \
            and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash((self.spec, self.codes.tobytes()))

    def __repr__(self):
        return f"MatGroup(q={self.spec.q}, order={self.order})"


def _trace_ints(G: MatGroup) -> frozenset[int]:
    return frozenset(unique_codes(G.traces).tolist())


def close_group(spec: FieldSpec, generators, guard: int = CLOSURE_GUARD) -> MatGroup:
    """Subgroup generated by the given matrices (breadth-first closure)."""
    gens = []
    for g in generators:
        m = g if isinstance(g, Mat2) else Mat2.from_entries(spec, g)
        if m.spec != spec:
            raise ValueError("generator over the wrong field")
        if m.det_i() == 0:
            raise ValueError(f"generator {m} is singular")
        gens.append(m)
    _check_codes(spec)
    return MatGroup(spec, _close(spec, _codes_of(gens), guard=guard), tuple(gens))


def generating_set(G: MatGroup) -> list[Mat2]:
    """G's recorded generators, or a small set found greedily: the least
    element outside the subgroup generated so far, until it is all of G."""
    if G.generators:
        return list(G.generators)
    gens = np.zeros(0, dtype=np.int64)
    while (have := _close(G.spec, gens)).size < G.order:
        gens = np.append(gens, G.codes[np.argmax(~_isin(have, G.codes))])
    return _mats_of(G.spec, gens) or [identity(G.spec)]


def commutator_subgroup(G: MatGroup) -> MatGroup:
    """[G, G]: the subgroup generated by all commutators xyx^-1y^-1.

    Computed as the normal closure of the commutators of a generating set,
    which equals the full commutator subgroup; each element is verified to
    have determinant 1.
    """
    return G.memo(_commutator_subgroup)


def _commutator_subgroup(G: MatGroup) -> MatGroup:
    spec = G.spec
    g = _codes_of(generating_set(G))
    gi = _join(spec, *_inv4(spec, *split_codes(spec, g)))
    # x y x^-1 y^-1 for every pair of generators, x the row
    seeds = unique_codes(mul_codes(spec, mul_codes(spec, g[:, None], g[None, :]),
                                mul_codes(spec, gi[:, None], gi[None, :])))
    h = _close(spec, seeds)
    # normal closure: conjugate the generating commutators until stable
    while True:
        conj = mul_codes(spec, mul_codes(spec, g[:, None], seeds[None, :]), gi[:, None])
        new = unique_codes(conj[~_isin(h, conj)])
        if not new.size:
            break
        seeds = np.concatenate((seeds, new))
        h = _close(spec, seeds)
    H = MatGroup(spec, h, tuple(_mats_of(spec, seeds)))
    if (H.dets != 1).any():
        raise RuntimeError("commutator subgroup contains det != 1 element")
    return H


def coset_label(G: MatGroup, H: MatGroup) -> np.ndarray:
    """Index of the left coset g.H holding each element of G.codes.

    Cosets are numbered by their least code, which is their representative:
    the representative of coset i is G.codes at the first index with label i.
    """
    if not H.is_subgroup_of(G):  # also false over another field
        raise ValueError("H is not a subgroup of G")
    return G.memo(_coset_label, H)


def _coset_label(G: MatGroup, H: MatGroup) -> np.ndarray:
    return _coset_labels(G.spec, G.codes, H.codes)


# ---- projective groups ----

class ProjGroup:
    """Image of a MatGroup in PGL_2; codes is the sorted array of canonical
    class representatives (see proj_canon)."""

    def __init__(self, base: MatGroup):
        self.base = base
        self.spec = base.spec
        self.codes = unique_codes(proj_canon(self.spec, base.codes))

    @property
    def order(self) -> int:
        return int(self.codes.size)

    @cached_property
    def traces(self) -> np.ndarray:
        a, _, _, d = split_codes(self.spec, self.codes)
        return self.spec.add_a(a, d)

    @cached_property
    def class_orders(self) -> np.ndarray:
        """Projective order of every class, aligned with codes."""
        return _proj_orders(self.spec, self.codes)

    def coset_partition(self, sub: np.ndarray) -> np.ndarray:
        """Left coset index of every class modulo the projective subgroup
        with sorted codes sub, cosets numbered by least representative."""
        return _coset_labels(self.spec, self.codes, sub,
                             lambda spec, x, y: proj_canon(spec, mul_codes(spec, x, y)))

    def __repr__(self):
        return f"ProjGroup(q={self.spec.q}, order={self.order})"


def _proj_orders(spec: FieldSpec, x: np.ndarray) -> np.ndarray:
    """Projective orders of the codes x: powers are taken for all pending
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


def projectivize(G: MatGroup) -> ProjGroup:
    return G.memo(ProjGroup)


# ---- exhaustive subgroup enumeration (small ambient groups only) ----

def enumerate_subgroups(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, by closing each known subgroup with one more element.

    Any subgroup <g1,...,gk> is reached from the trivial group by adding
    generators one at a time, so the fixed point of this loop is provably
    the full subgroup lattice; <H, g> = <H, gh> for h in H, so one g per
    coset of H suffices.
    Intended for tiny ambient groups such as GL_2(F_2), GL_2(F_3).
    """
    trivial = close_group(G.spec, [identity(G.spec)])
    found = {trivial.codes.tobytes(): trivial}
    elems = G.sorted_elements()
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            label = _coset_labels(G.spec, G.codes, H.codes)
            first = np.unique(label, return_index=True)[1]
            own = label[np.searchsorted(G.codes, H.codes[0])]  # the coset H
            for g in (elems[i] for i in np.delete(first, own)):
                K = close_group(G.spec, list(H.generators) + [g])
                if K.codes.tobytes() not in found:
                    found[K.codes.tobytes()] = K
                    fresh.append(K)
        frontier = fresh
    return sorted(found.values(), key=lambda H: (H.order, H.codes.tolist()))


# ---- serialization ----

def group_to_json(G: MatGroup) -> dict:
    gens = [m.rows_json() for m in generating_set(G)]
    return {"field": G.spec.to_json(), "generators": gens}


def group_from_json(obj, guard: int = CLOSURE_GUARD) -> MatGroup:
    """Parse {"field": field, "generators": [matrix, ...]}, the field as
    FieldSpec.from_json and each matrix as Mat2.from_entries reads it;
    malformed input raises ValueError naming the part at fault."""
    if not (isinstance(obj, dict) and "field" in obj and "generators" in obj):
        raise ValueError("group JSON must be an object with field and generators")
    spec, gens = FieldSpec.from_json(obj["field"]), obj["generators"]
    if not isinstance(gens, list):
        raise ValueError(f"generators {gens!r} is not a list")
    return close_group(spec, [Mat2.from_entries(spec, rows) for rows in gens], guard=guard)
