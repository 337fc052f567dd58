"""Total domination: S-TD-sets, minimality, and enumeration.

A set D totally dominates a target S when N(D) covers S, so the minimal
S-TD-sets are exactly the minimal transversals of the open-neighborhood
hypergraph {N(v) : v in S}. The transversal engine below (Berge
multiplication with exact private-hitter pruning) is also reused by the
ideal and complex modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationCapExceeded, TheoremViolation
from .graphs import VertexSet, _graph_of, vset


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

    An empty hyperedge kills every transversal; no hyperedges leaves only the
    empty set. ``cap`` bounds the working family size and raises
    EnumerationCapExceeded rather than truncating.

    Each Berge round keeps the members of the family F that hit the new edge
    e and extends each member t that misses it by every b in e. F is an
    antichain, so no member that hits e is dominated, and no extension t|b
    is dominated by another extension. An extension t|b is dominated exactly
    by a member h with h & e == b and h - b inside t, so each extension is
    tested only against the members that meet e in b alone: one AND and one
    compare per such member, stopping at the first that dominates it.
    """
    if any(e == 0 for e in edges):
        return []
    family = [0]
    for e in sorted(set(edges), key=lambda m: (bin(m).count("1"), m)):
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
        family = hit
        for i in range(e.bit_length()):
            if not e >> i & 1:
                continue
            b = 1 << i
            rests = private.get(b)
            if rests is None:
                family.extend([t | b for t in miss])
                continue
            for t in miss:
                for r in rests:
                    if r & t == r:
                        break
                else:
                    family.append(t | b)
        if cap is not None and len(family) > cap:
            raise EnumerationCapExceeded(
                f"transversal family grew past cap={cap}"
            )
    return sorted(family)


def minimal_transversals(sets, cap: int | None = None) -> tuple[tuple, ...]:
    """Label-level wrapper around the bitmask engine, canonically sorted."""
    universe = sorted(set().union(*map(set, sets))) if sets else []
    pos = {v: i for i, v in enumerate(universe)}
    edges = [sum(1 << pos[v] for v in s) for s in sets]
    out = []
    for m in minimal_transversal_masks(edges, cap=cap):
        out.append(tuple(universe[i] for i in range(len(universe)) if m >> i & 1))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# S-TD-sets
# ---------------------------------------------------------------------------

def _is_minimal_s_td(g, dmask: int, smask: int) -> bool:
    """D totally dominates S and is minimal, on masks in one pass.

    S must lie inside N(D), and every v in D needs a private neighbor: some
    u in N(D) with N(u) & D = {v}. The witnesses come from one walk over the
    bits of N(D); every such u meets D, so its hit is never empty.
    """
    nd = g.neighborhood_mask(dmask)
    if smask & ~nd:
        return False
    masks = g.masks
    witnessed = 0
    while nd:
        low = nd & -nd
        hit = masks[low.bit_length() - 1] & dmask
        if hit & (hit - 1) == 0:
            witnessed |= hit
        nd ^= low
    return witnessed == dmask


def is_s_td_set(g, d, s) -> bool:
    g = _graph_of(g)
    return g.mask_of(s) & ~g.neighborhood_mask(g.mask_of(d)) == 0


def is_minimal_set(g, d) -> bool:
    """Minimality with respect to open neighborhoods: the private-neighbor
    criterion of ``_is_minimal_s_td`` with an empty target."""
    g = _graph_of(g)
    return _is_minimal_s_td(g, g.mask_of(d), 0)


# ---------------------------------------------------------------------------
# Families of minimal (S-)TD-sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSetFamily:
    target: VertexSet
    sets: tuple[VertexSet, ...]

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted({len(s) for s in self.sets}))

    def is_unmixed(self) -> bool:
        return len(self.sizes()) <= 1

    def witness(self) -> tuple[VertexSet, VertexSet] | None:
        """Two members of different sizes, or None when every member has one
        size: the lexicographically first of the smallest size and the
        lexicographically last of the largest size."""
        if self.is_unmixed():
            return None
        by_size = sorted(self.sets, key=lambda s: (len(s), s))
        return by_size[0], by_size[-1]


def minimal_s_td_sets(g, s, cap: int | None = None) -> MinimalSetFamily:
    """All minimal S-TD-sets, each re-verified against the definitions.

    The recheck of a transversal D is one pass on masks
    (``_is_minimal_s_td``): N(D) is the OR of |D| neighbor masks, S inside
    N(D) is one AND, and the private-neighbor witnesses take one walk over
    the bits of N(D). The first set in mask order that fails raises
    TheoremViolation; each set is converted to labels once.
    """
    g = _graph_of(g)
    target = vset(s)
    masks = g.masks
    edges = [masks[g.index[v]] for v in target]
    smask = g.mask_of(target)
    sets = []
    for m in minimal_transversal_masks(edges, cap=cap):
        d = g.labels_of(m)
        if not _is_minimal_s_td(g, m, smask):
            raise TheoremViolation(
                f"transversal {d} is not a verified minimal S-TD-set"
            )
        sets.append(d)
    return MinimalSetFamily(target=target, sets=tuple(sorted(sets)))


def minimal_td_sets(g, cap: int | None = None) -> MinimalSetFamily:
    g = _graph_of(g)
    return minimal_s_td_sets(g, g.labels, cap=cap)


def is_unmixed_bruteforce(g, cap: int | None = None) -> bool:
    """Unmixedness by full enumeration; vacuously true with no TD-set."""
    return minimal_td_sets(g, cap=cap).is_unmixed()
