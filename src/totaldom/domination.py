"""Total domination: S-TD-sets, minimality, and enumeration.

A set D totally dominates a target S when N(D) covers S, so the minimal
S-TD-sets are exactly the minimal transversals of the open-neighborhood
hypergraph {N(v) : v in S}. The transversal engine below (Berge
multiplication with exact private-hitter pruning) is also reused by the
ideal and complex modules. It keeps its family as a product over the
vertex-disjoint parts of the edges seen so far, so on a tree the two colour
classes are enumerated apart, and folds the one-vertex edges (the
neighbourhoods of leaves) into one forced mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import EnumerationCapExceeded, TheoremViolation
from .graphs import Graph, Ground, VertexSet, _bit_indices, _graph_of


# ---------------------------------------------------------------------------
# Generic minimal-transversal engine (bitmask core)
# ---------------------------------------------------------------------------

def _minimalize_masks(masks) -> list[int]:
    """Inclusion-minimal members, smallest-popcount first.

    The filter of the all-pairs reference Berge round in ``tests/oracles.py``;
    ``perfbench/tracer.py`` also looks it up by name.
    """
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def minimal_transversal_masks(edges: list[int], cap: int | None = None) -> list[int]:
    """All inclusion-minimal hitting sets of the given bitmask hyperedges.

    An empty hyperedge kills every transversal (it sorts first, and its
    round keeps no member); no hyperedges leaves only the empty set. ``cap``
    bounds the working family size and raises EnumerationCapExceeded rather
    than truncating.

    Each Berge round keeps the members of the family F that hit the new edge
    e and extends each member t that misses it by every b in e. F is an
    antichain, so no member that hits e is dominated, and no extension t|b
    is dominated by another extension. An extension t|b is dominated exactly
    by a member h with h & e == b and h - b inside t, so each extension is
    tested only against the members that meet e in b alone: one AND and one
    compare per such member, stopping at the first that dominates it.

    F is held as a product. The edges added so far split into parts with
    no vertex in common, and the minimal transversals of a vertex-disjoint
    union are the ORs of one per part (Eiter & Gottlob 1995), so each part
    ``[span, members]`` in ``parts`` keeps its own family and a round
    touches only the part of its edge. An edge that meets no part starts
    one; an edge that meets several merges them first, multiplying their
    families by OR. ``size`` is the product of the part family sizes, which
    is |F|, so the cap trips at the edge and with the message of a single
    working family. Every part holds at least two members: by duality, the
    only hypergraphs with a single minimal transversal T have the
    one-vertex edges of T as their minimal edges, and no part holds a
    one-vertex edge. So there are at most log2 |F| parts, and finding the
    parts an edge meets is a short scan. The one-vertex edges sort first
    and put their vertex in every member: they are kept as one ``forced``
    mask, and a later edge that meets it is hit by every member and
    skipped. A round walks the set bits of its edge, not every position
    below its top bit. The edges are sorted by value and then, stably, by
    size, with no set: hashing n-bit masks cost more than sorting them at
    10^5 vertices, and a repeated edge is hit by every member, so its round
    changes nothing.
    """
    forced = 0
    size = 1
    parts: list[list] = []
    order = sorted(edges)
    order.sort(key=int.bit_count)
    for e in order:
        if not e:
            size = 0
        elif not e & (e - 1):
            forced |= e
        elif e & forced:
            continue
        else:
            touched = [p for p in parts if p[0] & e]
            if not touched:
                part = [e, [0]]
                parts.append(part)
            else:
                part = touched[0]
                part[0] |= e
                for other in touched[1:]:
                    part[0] |= other[0]
                    part[1] = [t | u for t in part[1] for u in other[1]]
                    parts.remove(other)
            family = part[1]
            hit = []
            miss = []
            for t in family:
                (hit if t & e else miss).append(t)
            if not miss:
                continue
            private: dict[int, list[int]] = {}
            for h in hit:
                b = h & e
                if b & (b - 1) == 0:
                    private.setdefault(b, []).append(h ^ b)
            kept = hit
            rest = e
            while rest:
                b = rest & -rest
                rest ^= b
                rests = private.get(b)
                if rests is None:
                    kept.extend([t | b for t in miss])
                    continue
                for t in miss:
                    for r in rests:
                        if r & t == r:
                            break
                    else:
                        kept.append(t | b)
            part[1] = kept
            size = size // len(family) * len(kept)
        if cap is not None and size > cap:
            raise EnumerationCapExceeded(
                f"transversal family grew past cap={cap}"
            )
        if not size:
            return []
    out = [forced]
    for part in parts:
        out = [t | u for t in out for u in part[1]]
    return sorted(out)


def minimal_transversals(sets, cap: int | None = None) -> tuple[tuple, ...]:
    """Label-level wrapper around the bitmask engine, canonically sorted.
    ``sets`` is read once, so any iterable of label collections works."""
    sets = [set(s) for s in sets]
    universe = Ground(set().union(*sets))
    edges = [universe.mask_of(s) for s in sets]
    found = minimal_transversal_masks(edges, cap=cap)
    return tuple(sorted(map(universe.labels_of, found)))


# ---------------------------------------------------------------------------
# S-TD-sets
# ---------------------------------------------------------------------------

def _is_minimal_s_td(masks, dmask: int, smask: int) -> bool:
    """D totally dominates S and is minimal among S-TD-sets, in O(|D|) mask
    operations. ``masks[i]`` is N(i) as a bitmask, for each bit i of D.

    S must lie inside N(D), and every v in D needs an S-private neighbor:
    some u in S with N(u) & D = {v}; without one, D - v still dominates S.
    One pass over the bits of D ORs their neighbor masks into ``once`` and
    keeps in ``twice`` what a mask meets again, so the vertices with exactly
    one neighbor in D are once & ~twice.
    """
    nbrs = []
    once = twice = 0
    rest = dmask
    while rest:
        low = rest & -rest
        m = masks[low.bit_length() - 1]
        nbrs.append(m)
        twice |= once & m
        once |= m
        rest ^= low
    if smask & ~once:
        return False
    private = once & ~twice & smask
    for m in nbrs:
        if not m & private:
            return False
    return True


def _neighborhood(g: Graph, dmask: int) -> int:
    """N(D): the bits of the neighbors of the set bits of ``dmask``."""
    adj = g.adj
    out = 0
    for i in _bit_indices(dmask):
        for j in adj[i]:
            out |= 1 << j
    return out


def is_s_td_set(g, d, s) -> bool:
    g = _graph_of(g)
    return g.mask_of(s) & ~_neighborhood(g, g.mask_of(d)) == 0


def is_minimal_set(g, d) -> bool:
    """Minimality with respect to open neighborhoods: no proper subset of D
    has the same N(D), so every v in D has a private neighbor anywhere in
    N(D). That is minimality among the N(D)-TD-sets."""
    g = _graph_of(g)
    dmask = g.mask_of(d)
    masks = {i: sum(1 << j for j in g.adj[i]) for i in _bit_indices(dmask)}
    return _is_minimal_s_td(masks, dmask, _neighborhood(g, dmask))


# ---------------------------------------------------------------------------
# Families of minimal (S-)TD-sets
# ---------------------------------------------------------------------------

def _lex_before(a: int, b: int) -> bool:
    """For distinct masks of one size: the index tuple of ``a`` comes first,
    as the lowest index where they differ is in ``a``."""
    x = a ^ b
    return bool(x & -x & a)


@dataclass(frozen=True)
class MinimalSetFamily:
    """The members as bitmasks over the vertex indices of ``graph``.

    Index order is label order, so the lexicographic order of index tuples
    is that of label tuples. ``sizes``, ``is_unmixed`` and ``witness`` read
    popcounts and masks; the label tuples are built only when ``sets`` or
    iteration asks for them.
    """

    graph: Graph = field(repr=False)
    masks: tuple[int, ...]

    @cached_property
    def sets(self) -> tuple[VertexSet, ...]:
        """The members as label tuples, lexicographically sorted."""
        return tuple(sorted(map(self.graph.labels_of, self.masks)))

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.sets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self.masks}))

    def is_unmixed(self) -> bool:
        return len(self.sizes()) <= 1

    def witness(self) -> tuple[VertexSet, VertexSet] | None:
        """Two members of different sizes, or None when every member has one
        size: the lexicographically first of the smallest size and the
        lexicographically last of the largest size."""
        sizes = self.sizes()
        if len(sizes) <= 1:
            return None
        lo, hi = sizes[0], sizes[-1]
        first = last = None
        for m in self.masks:
            k = m.bit_count()
            if k == lo and (first is None or _lex_before(m, first)):
                first = m
            elif k == hi and (last is None or _lex_before(last, m)):
                last = m
        return self.graph.labels_of(first), self.graph.labels_of(last)


def minimal_s_td_sets(g, s, cap: int | None = None) -> MinimalSetFamily:
    """All minimal S-TD-sets, each re-verified against the definitions.

    ``s`` is any iterable of labels of ``g``; an unknown label raises
    KeyError. The recheck of a transversal D (``_is_minimal_s_td``) is one
    pass over the bits of D: N(D) and the vertices with exactly one neighbor
    in D come from |D| neighbor masks, S inside N(D) is one AND, and each v
    in D needs a neighbor among those vertices inside S. The first set in
    mask order that fails raises TheoremViolation.
    """
    g = _graph_of(g)
    index = g.index
    return _minimal_s_td_family(g, sorted({index[v] for v in s}), cap)


def minimal_td_sets(g, cap: int | None = None) -> MinimalSetFamily:
    g = _graph_of(g)
    return _minimal_s_td_family(g, range(g.n), cap)


def _minimal_s_td_family(g: Graph, target, cap: int | None) -> MinimalSetFamily:
    """``minimal_s_td_sets`` for the sorted, distinct vertex indices
    ``target``."""
    # N(v) as a bitmask per vertex: O(n^2) bits, so built here, not kept
    masks = []
    for nb in g.adj:
        m = 0
        for j in nb:
            m |= 1 << j
        masks.append(m)
    edges = []
    smask = 0
    for i in target:
        edges.append(masks[i])
        smask |= 1 << i
    found = minimal_transversal_masks(edges, cap=cap)
    for m in found:
        if not _is_minimal_s_td(masks, m, smask):
            raise TheoremViolation(
                f"transversal {g.labels_of(m)} is not a verified minimal S-TD-set"
            )
    return MinimalSetFamily(graph=g, masks=tuple(found))


def is_unmixed_bruteforce(g) -> bool:
    """Unmixedness by full, uncapped enumeration; vacuously true with no
    TD-set."""
    return minimal_td_sets(g).is_unmixed()
