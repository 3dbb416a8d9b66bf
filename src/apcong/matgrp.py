"""Finite subgroups of GL_2 over a small finite field.

Matrices keep their entries as integer-encoded field elements (base-p digit
strings), which makes the breadth-first closure and the coset bookkeeping
cheap dictionary work.  Everything here is immutable: groups are frozensets
of matrices and may be shared freely between computations.  Because a group
never changes, every structure derived from it (commutator subgroup,
projective image, classification, coset traces, attained traces) is
memoised on the group itself: it is computed on first use and shared by
every later caller.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import gcd

from .ffield import FieldElement, FieldSpec

CLOSURE_GUARD = 10 ** 6


class ClosureGuardError(RuntimeError):
    pass


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix (a b; c d) with int-encoded entries over spec."""

    spec: FieldSpec
    e: tuple[int, int, int, int]

    @staticmethod
    def from_entries(spec: FieldSpec, rows) -> "Mat2":
        (a, b), (c, d) = rows
        ents = tuple(spec.element(x).as_int() for x in (a, b, c, d))
        return Mat2(spec, ents)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.spec != other.spec:
            raise ValueError("field mismatch")
        s = self.spec
        a, b, c, d = self.e
        e, f, g, h = other.e
        return Mat2(s, (
            s.add_i(s.mul_i(a, e), s.mul_i(b, g)),
            s.add_i(s.mul_i(a, f), s.mul_i(b, h)),
            s.add_i(s.mul_i(c, e), s.mul_i(d, g)),
            s.add_i(s.mul_i(c, f), s.mul_i(d, h)),
        ))

    def det_i(self) -> int:
        s = self.spec
        a, b, c, d = self.e
        return s.sub_i(s.mul_i(a, d), s.mul_i(b, c))

    def trace_i(self) -> int:
        s = self.spec
        return s.add_i(self.e[0], self.e[3])

    def det(self) -> FieldElement:
        return self.spec.from_int(self.det_i())

    def trace(self) -> FieldElement:
        return self.spec.from_int(self.trace_i())

    def inv(self) -> "Mat2":
        s = self.spec
        det = self.det_i()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        di = s.inv_i(det)
        a, b, c, d = self.e
        return Mat2(s, (s.mul_i(d, di), s.mul_i(s.neg_i(b), di),
                        s.mul_i(s.neg_i(c), di), s.mul_i(a, di)))

    def scale_i(self, k: int) -> "Mat2":
        s = self.spec
        return Mat2(s, tuple(s.mul_i(x, k) for x in self.e))

    def is_identity(self) -> bool:
        return self.e == (1, 0, 0, 1)

    def encode(self) -> int:
        """Canonical integer: entries as base-q digits in (a, b, c, d) order."""
        q = self.spec.q
        a, b, c, d = self.e
        return ((a * q + b) * q + c) * q + d

    def entries(self) -> list[list[FieldElement]]:
        a, b, c, d = (self.spec.from_int(x) for x in self.e)
        return [[a, b], [c, d]]

    def __repr__(self):
        a, b, c, d = (self.spec.from_int(x) for x in self.e)
        return f"[[{a},{b}],[{c},{d}]]"


def identity(spec: FieldSpec) -> Mat2:
    return Mat2(spec, (1, 0, 0, 1))


def is_scalar(m: Mat2) -> FieldElement | None:
    """The scalar lambda with m = lambda*id, or None."""
    a, b, c, d = m.e
    if b == 0 and c == 0 and a == d:
        return m.spec.from_int(a)
    return None


def element_order(m: Mat2) -> int:
    if m.det_i() == 0:
        raise ValueError("singular matrix has no order")
    n = 1
    x = m
    ident = identity(m.spec)
    while x != ident:
        x = x * m
        n += 1
        if n > m.spec.q ** 2:  # orders in GL_2(F_q) divide q(q-1)(q^2-1)
            raise RuntimeError("order computation ran away")
    return n


class MatGroup:
    """A finite subgroup of GL_2(spec), closed by construction."""

    def __init__(self, spec: FieldSpec, elements: frozenset[Mat2],
                 generators: tuple[Mat2, ...]):
        self.spec = spec
        self.elements = elements
        self.generators = generators
        self._sorted = None
        self._derived: dict = {}
        # Lagrange sanity: |G| divides |GL_2(F_q)|
        q = spec.q
        if ((q * q - 1) * (q * q - q)) % len(elements) != 0:
            raise RuntimeError("order does not divide |GL_2|; closure is broken")

    @property
    def order(self) -> int:
        return len(self.elements)

    def memo(self, fn):
        """fn(self), computed on the first call for this fn and stored."""
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]

    def trace_ints(self) -> frozenset[int]:
        """Integer-encoded traces attained on the group."""
        return self.memo(_trace_ints)

    def sorted_elements(self) -> list[Mat2]:
        if self._sorted is None:
            self._sorted = sorted(self.elements, key=Mat2.encode)
        return self._sorted

    def __contains__(self, m: Mat2) -> bool:
        return m in self.elements

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        return self.elements <= other.elements

    def is_abelian(self) -> bool:
        gens = self.generators or tuple(self.elements)
        return all(x * y == y * x for x in gens for y in gens)

    def scalars(self) -> set[FieldElement]:
        out = set()
        for m in self.elements:
            s = is_scalar(m)
            if s is not None:
                out.add(s)
        return out

    def det_image(self) -> set[FieldElement]:
        return {m.det() for m in self.elements}

    def __eq__(self, other):
        return isinstance(other, MatGroup) and self.spec == other.spec \
            and self.elements == other.elements

    def __hash__(self):
        return hash((self.spec, self.elements))

    def __repr__(self):
        return f"MatGroup(q={self.spec.q}, order={self.order})"


def _trace_ints(G: MatGroup) -> frozenset[int]:
    return frozenset(m.trace_i() for m in G.elements)


def close_group(spec: FieldSpec, generators, guard: int = CLOSURE_GUARD) -> MatGroup:
    """Subgroup generated by the given matrices (breadth-first closure).

    In a finite group closure under right-multiplication by the generators
    already yields the full subgroup (inverses are positive powers).
    """
    gens = []
    for g in generators:
        m = g if isinstance(g, Mat2) else Mat2.from_entries(spec, g)
        if m.spec != spec:
            raise ValueError("generator over the wrong field")
        if m.det_i() == 0:
            raise ValueError(f"generator {m} is singular")
        gens.append(m)
    seen = {identity(spec)}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y not in seen:
                if len(seen) >= guard:
                    raise ClosureGuardError(f"closure exceeded guard {guard}")
                seen.add(y)
                queue.append(y)
    return MatGroup(spec, frozenset(seen), tuple(gens))


def from_elements(spec: FieldSpec, elements, generators=()) -> MatGroup:
    """Wrap an already-closed element set (used by direct constructions)."""
    return MatGroup(spec, frozenset(elements), tuple(generators))


def generating_set(G: MatGroup) -> list[Mat2]:
    """G's recorded generators, or a small set found greedily."""
    if G.generators:
        return list(G.generators)
    gens: list[Mat2] = []
    have = {identity(G.spec)}
    for g in G.sorted_elements():
        if g not in have:
            gens.append(g)
            have = close_group(G.spec, gens).elements
            if len(have) == G.order:
                break
    return gens or [identity(G.spec)]


def commutator_subgroup(G: MatGroup) -> MatGroup:
    """[G, G]: the subgroup generated by all commutators xyx^-1y^-1.

    Computed as the normal closure of the commutators of a generating set,
    which equals the full commutator subgroup; each element is verified to
    have determinant 1.
    """
    return G.memo(_commutator_subgroup)


def _commutator_subgroup(G: MatGroup) -> MatGroup:
    gens = generating_set(G)
    seeds = []
    seen_seed = set()
    for x in gens:
        xi = x.inv()
        for y in gens:
            c = x * y * xi * y.inv()
            if c not in seen_seed:
                seen_seed.add(c)
                seeds.append(c)
    H = close_group(G.spec, seeds) if seeds else close_group(G.spec, [identity(G.spec)])
    # normal closure: conjugate the generating commutators until stable
    while True:
        new = []
        for g in gens:
            gi = g.inv()
            for s in seeds:
                c = g * s * gi
                if c not in H.elements:
                    new.append(c)
        if not new:
            break
        seeds.extend(new)
        H = close_group(G.spec, seeds)
    for m in H.elements:
        if m.det_i() != 1:
            raise RuntimeError("commutator subgroup contains det != 1 element")
    return H


@dataclass(frozen=True)
class Coset:
    """A left coset g.H inside a parent group."""

    subgroup: MatGroup
    representative: Mat2
    members: frozenset[Mat2]

    @property
    def size(self) -> int:
        return len(self.members)

    def traces(self) -> set[FieldElement]:
        return {m.trace() for m in self.members}

    def trace_ints(self) -> set[int]:
        return {m.trace_i() for m in self.members}


def cosets(G: MatGroup, H: MatGroup) -> list[Coset]:
    """Left cosets of H in G, sorted by their least-encoded representative."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not contained in G")
    if H.spec != G.spec:
        raise ValueError("field mismatch")
    unassigned = set(G.elements)
    out = []
    for g in G.sorted_elements():
        if g not in unassigned:
            continue
        members = frozenset(g * h for h in H.elements)
        rep = min(members, key=Mat2.encode)
        out.append(Coset(H, rep, members))
        unassigned -= members
    out.sort(key=lambda c: c.representative.encode())
    if sum(c.size for c in out) != G.order:
        raise RuntimeError("cosets do not partition G")
    return out


# ---- projective groups ----

def proj_canon(m: Mat2) -> Mat2:
    """Scale so the first nonzero entry in (a, b, c, d) order equals 1."""
    for x in m.e:
        if x != 0:
            return m.scale_i(m.spec.inv_i(x))
    raise ValueError("zero matrix has no projective class")


class ProjGroup:
    """Image of a MatGroup in PGL_2, as canonical class representatives."""

    def __init__(self, base: MatGroup):
        self.base = base
        self.spec = base.spec
        classes = {proj_canon(m) for m in base.elements}
        self.classes = frozenset(classes)
        self.scalar_kernel_size = base.order // len(classes)
        self._sorted = None
        self._orders = None

    @property
    def order(self) -> int:
        return len(self.classes)

    def sorted_classes(self) -> list[Mat2]:
        if self._sorted is None:
            self._sorted = sorted(self.classes, key=Mat2.encode)
        return self._sorted

    def mul(self, x: Mat2, y: Mat2) -> Mat2:
        return proj_canon(x * y)

    def proj_order(self, m: Mat2) -> int:
        n = 1
        x = m
        while is_scalar(x) is None:
            x = x * m
            n += 1
            if n > self.order + 1:
                raise RuntimeError("projective order ran away")
        return n

    def class_orders(self) -> dict[Mat2, int]:
        """Projective order of every class, computed on first use."""
        if self._orders is None:
            self._orders = {m: self.proj_order(m) for m in self.classes}
        return self._orders

    def is_abelian(self) -> bool:
        cls = self.sorted_classes()
        return all(self.mul(x, y) == self.mul(y, x) for x in cls for y in cls)

    def subgroup_closure(self, gens) -> set[Mat2]:
        """Closure inside this projective group (canonical representatives)."""
        seen = {proj_canon(identity(self.spec))}
        queue = deque(seen)
        gens = [proj_canon(g) for g in gens]
        while queue:
            x = queue.popleft()
            for g in gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def coset_partition(self, sub: set[Mat2]) -> list[frozenset[Mat2]]:
        """Left cosets of a projective subgroup, sorted by least representative."""
        unassigned = set(self.classes)
        out = []
        for g in self.sorted_classes():
            if g not in unassigned:
                continue
            mem = frozenset(self.mul(g, h) for h in sub)
            out.append(mem)
            unassigned -= mem
        out.sort(key=lambda c: min(m.encode() for m in c))
        return out

    def traceless_classes(self) -> set[Mat2]:
        # scaling multiplies the trace by a unit, so tracelessness is projective
        return {m for m in self.classes if m.trace_i() == 0}

    def commutator_classes(self) -> set[Mat2]:
        """Commutator subgroup of the projective group, as canonical reps.

        Projection is a surjective homomorphism, so [PG, PG] is the image
        of [G, G].
        """
        return {proj_canon(m) for m in commutator_subgroup(self.base).elements}

    def __repr__(self):
        return f"ProjGroup(q={self.spec.q}, order={self.order})"


def projectivize(G: MatGroup) -> ProjGroup:
    return G.memo(ProjGroup)


def trace_multiset(obj) -> Counter:
    """Trace frequencies (keyed by integer encoding) over a MatGroup, Coset,
    or iterable of matrices."""
    if isinstance(obj, MatGroup):
        items = obj.elements
    elif isinstance(obj, Coset):
        items = obj.members
    else:
        items = obj
    return Counter(m.trace_i() for m in items)


def group_exponent(G: MatGroup) -> int:
    exp = 1
    for m in G.elements:
        o = element_order(m)
        exp = exp * o // gcd(exp, o)
    assert G.order % exp == 0
    return exp


# ---- exhaustive subgroup enumeration (small ambient groups only) ----

def enumerate_subgroups(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, by closing each known subgroup with one more element.

    Any subgroup <g1,...,gk> is reached from <g1> by adding generators one at
    a time, so the fixed point of this loop is provably the full subgroup
    lattice.  Intended for tiny ambient groups such as GL_2(F_2), GL_2(F_3).
    """
    trivial = close_group(G.spec, [identity(G.spec)])
    found = {trivial.elements: trivial}
    for g in G.sorted_elements():
        H = close_group(G.spec, [g])
        found.setdefault(H.elements, H)
    frontier = list(found.values())
    while frontier:
        fresh = []
        for H in frontier:
            for g in G.sorted_elements():
                if g in H.elements:
                    continue
                K = close_group(G.spec, list(H.generators) + [g])
                if K.elements not in found:
                    found[K.elements] = K
                    fresh.append(K)
        frontier = fresh
    return sorted(found.values(), key=lambda H: (H.order, [m.encode() for m in H.sorted_elements()]))


def enumerate_subgroups_pairs(G: MatGroup) -> list[MatGroup]:
    """Subgroups generated by at most two elements of G."""
    found = {}
    elems = G.sorted_elements()
    trivial = close_group(G.spec, [identity(G.spec)])
    found[trivial.elements] = trivial
    for i, g in enumerate(elems):
        H = close_group(G.spec, [g])
        found.setdefault(H.elements, H)
        for h in elems[i:]:
            K = close_group(G.spec, [g, h])
            found.setdefault(K.elements, K)
    return sorted(found.values(), key=lambda H: (H.order, [m.encode() for m in H.sorted_elements()]))


# ---- serialization ----

def group_to_json(G: MatGroup) -> dict:
    gens = []
    for m in generating_set(G):
        rows = m.entries()
        gens.append([[list(rows[0][0].coeffs), list(rows[0][1].coeffs)],
                     [list(rows[1][0].coeffs), list(rows[1][1].coeffs)]])
    return {"field": G.spec.to_json(), "generators": gens}


def group_from_json(obj: dict, guard: int = CLOSURE_GUARD) -> MatGroup:
    spec = FieldSpec.from_json(obj["field"])
    gens = []
    for rows in obj["generators"]:
        gens.append(Mat2.from_entries(spec, rows))
    return close_group(spec, gens, guard=guard)
