"""Group helpers that only the tests use: seeded random subgroups, the
2-generated subgroup sweep that cross-checks `enumerate_subgroups`, the
group exponent and trace frequencies."""

from collections import Counter
from math import gcd

import numpy as np

from apcong.matgrp import Coset, Mat2, MatGroup, close_group, element_order, identity


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
        key = frozenset(m.encode() for m in G.elements)
        if key in seen:
            continue
        seen.add(key)
        out.append(G)
    return out


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


def group_exponent(G: MatGroup) -> int:
    exp = 1
    for m in G.elements:
        o = element_order(m)
        exp = exp * o // gcd(exp, o)
    assert G.order % exp == 0
    return exp


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
