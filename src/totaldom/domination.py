"""Total domination: S-TD-sets, minimality, selectors, and enumeration.

A set D totally dominates a target S when N(D) covers S, so the minimal
S-TD-sets are exactly the minimal transversals of the open-neighborhood
hypergraph {N(v) : v in S}. The transversal engine below (Berge
multiplication with minimality pruning) is also reused by the ideal and
complex modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationCapExceeded, TheoremViolation
from .graphs import VertexSet, _graph_of, vset


# ---------------------------------------------------------------------------
# Generic minimal-transversal engine (bitmask core)
# ---------------------------------------------------------------------------

def _minimalize_masks(masks) -> list[int]:
    """Inclusion-minimal members, smallest-popcount first."""
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
    """
    if any(e == 0 for e in edges):
        return []
    family = [0]
    for e in sorted(set(edges), key=lambda m: (bin(m).count("1"), m)):
        hit = []
        miss = []
        for t in family:
            (hit if t & e else miss).append(t)
        cands = list(hit)
        bits = [1 << i for i in range(e.bit_length()) if e >> i & 1]
        for t in miss:
            for b in bits:
                cands.append(t | b)
        family = _minimalize_masks(cands)
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
# Neighborhood hypergraphs and S-TD-sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborhoodHypergraph:
    """The deduplicated family {N(v) : v in S} with witness vertices."""

    target: VertexSet
    edges: tuple[VertexSet, ...]
    witnesses: tuple[tuple[VertexSet, VertexSet], ...]  # edge -> the v's owning it


def neighborhood_hypergraph(g, s) -> NeighborhoodHypergraph:
    g = _graph_of(g)
    target = vset(s)
    by_edge: dict[VertexSet, list[str]] = {}
    for v in target:
        edge = g.neighbors(v)
        by_edge.setdefault(edge, []).append(v)
    edges = tuple(sorted(by_edge))
    wit = tuple((e, vset(by_edge[e])) for e in edges)
    return NeighborhoodHypergraph(target=target, edges=edges, witnesses=wit)


def open_neighborhood(g, s) -> VertexSet:
    g = _graph_of(g)
    return g.labels_of(g.neighborhood_mask(g.mask_of(s)))


def is_s_td_set(g, d, s) -> bool:
    g = _graph_of(g)
    nd = g.neighborhood_mask(g.mask_of(d))
    return g.mask_of(s) & ~nd == 0


def is_td_set(g, d) -> bool:
    g = _graph_of(g)
    return is_s_td_set(g, d, g.labels)


def is_minimal_set(g, d) -> bool:
    """Minimality with respect to open neighborhoods.

    Uses the private-neighbor criterion: every v in D needs a witness
    u in N(D) with N(u) & D = {v}.
    """
    g = _graph_of(g)
    dmask = g.mask_of(d)
    if dmask == 0:
        return True
    nd = g.neighborhood_mask(dmask)
    masks = g.masks
    witnessed = 0
    for i in range(g.n):
        if nd >> i & 1:
            hit = masks[i] & dmask
            if hit and hit & (hit - 1) == 0:
                witnessed |= hit
    return witnessed == dmask


@dataclass(frozen=True)
class DominationSelector:
    """Injective choice of a private witness for each member of a minimal set."""

    assignment: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def domination_selector(g, d) -> DominationSelector | None:
    """The lexicographically smallest valid selector, or None if not minimal."""
    g = _graph_of(g)
    dmask = g.mask_of(d)
    nd = g.neighborhood_mask(dmask)
    masks = g.masks
    chosen: dict[str, str] = {}
    for v in vset(d):
        vbit = 1 << g.index[v]
        pick = None
        for i in range(g.n):
            if nd >> i & 1 and masks[i] & dmask == vbit:
                pick = g.labels[i]
                break
        if pick is None:
            return None
        chosen[v] = pick
    return DominationSelector(tuple(sorted(chosen.items())))


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


def minimal_s_td_sets(g, s, cap: int | None = None) -> MinimalSetFamily:
    """All minimal S-TD-sets, each re-verified against the definitions."""
    g = _graph_of(g)
    target = vset(s)
    masks = g.masks
    edges = [masks[g.index[v]] for v in target]
    sets = tuple(
        g.labels_of(m) for m in minimal_transversal_masks(edges, cap=cap)
    )
    for d in sets:
        if not is_s_td_set(g, d, target) or not is_minimal_set(g, d):
            raise TheoremViolation(
                f"transversal {d} is not a verified minimal S-TD-set"
            )
    return MinimalSetFamily(target=target, sets=tuple(sorted(sets)))


def minimal_td_sets(g, cap: int | None = None) -> MinimalSetFamily:
    g = _graph_of(g)
    return minimal_s_td_sets(g, g.labels, cap=cap)


def is_unmixed_bruteforce(g, cap: int | None = None) -> bool:
    """Unmixedness by full enumeration; vacuously true with no TD-set."""
    return minimal_td_sets(g, cap=cap).is_unmixed()
