"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's transversal engine and canonical
forms: domination facts come from raw subset enumeration, isomorphism from
permutation backtracking, heights from per-vertex searches. Expected values
frozen in the tests were computed with these.

The last section keeps the earlier, straightforward versions of the
near-linear polynomial paths (recursive AHU codes, whisker growth and
peeling by whole-tree rebuilds) as references for differential tests.
"""

from __future__ import annotations

from itertools import combinations

from totaldom.construct import (
    _KIND_BY_HEIGHT,
    KIND_LEAF,
    KIND_WHISKER3,
    KIND_WHISKER4,
    ConstructionTrace,
    TraceStep,
    _path_order,
    apply_o,
    base_tree,
    leaf_normalize,
)
from totaldom.errors import MixedTreeError, TheoremViolation
from totaldom.graphs import Graph, Tree, branch, heights, is_isomorphic, vset
from totaldom.treegen import Lcg64
from totaldom.unmixed import characterize_balanced_unmixed


def neighborhood_by_scan(g: Graph, subset) -> tuple[str, ...]:
    out = set()
    for v in subset:
        out.update(g.neighbors(v))
    return vset(out)


def td_sets_by_subsets(g: Graph, target=None) -> list[tuple[str, ...]]:
    """All S-TD-sets by checking every one of the 2^n subsets."""
    target = set(g.labels if target is None else target)
    out = []
    for k in range(g.n + 1):
        for combo in combinations(g.labels, k):
            if target <= set(neighborhood_by_scan(g, combo)):
                out.append(vset(combo))
    return out


def minimal_td_sets_by_subsets(g: Graph, target=None) -> tuple[tuple[str, ...], ...]:
    """Minimal S-TD-sets: S-TD and no co-singleton subset is S-TD."""
    target = set(g.labels if target is None else target)

    def is_td(subset) -> bool:
        return target <= set(neighborhood_by_scan(g, subset))

    out = []
    for k in range(g.n + 1):
        for combo in combinations(g.labels, k):
            if not is_td(combo):
                continue
            if all(not is_td(tuple(set(combo) - {v})) for v in combo):
                out.append(vset(combo))
    return tuple(sorted(out))


def minimal_by_definition(g: Graph, subset) -> bool:
    """No proper subset has the same open neighborhood (co-singletons suffice
    by monotonicity)."""
    nd = neighborhood_by_scan(g, subset)
    return all(
        neighborhood_by_scan(g, tuple(set(subset) - {v})) != nd for v in subset
    )


def heights_by_vertex_search(g: Graph) -> dict[str, int]:
    leaves = [v for v in g.labels if g.degree(v) == 1]
    out = {}
    for v in g.labels:
        if g.degree(v) == 0:
            out[v] = 0
            continue
        dist = g.distances_from(v)
        out[v] = min(dist[ell] for ell in leaves if ell in dist)
    return out


def isomorphic_by_backtracking(g1: Graph, g2: Graph) -> bool:
    """Permutation search with degree pruning; independent of canonical forms."""
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return False
    if sorted(len(a) for a in g1.adj) != sorted(len(a) for a in g2.adj):
        return False
    n = g1.n
    order = sorted(range(n), key=lambda i: -len(g1.adj[i]))
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or len(g2.adj[j]) != len(g1.adj[i]):
                continue
            ok = True
            for k in g1.adj[i]:
                if mapping[k] != -1 and mapping[k] not in g2.adj[j]:
                    ok = False
                    break
            if not ok:
                continue
            # also reject images adjacent to mapped non-neighbors
            for jj in g2.adj[j]:
                back = mapping.index(jj) if jj in mapping else -1
                if back != -1 and back not in g1.adj[i]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used[j] = True
            if extend(pos + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return extend(0)


def faces_by_divisibility(ideal) -> set[frozenset[str]]:
    """Stanley-Reisner faces of a square-free ideal, by definition."""
    ground = ideal.variables
    from totaldom.ideals import Monomial

    out = set()
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            if not ideal.contains(Monomial.of(*combo)):
                out.add(frozenset(combo))
    return out


def complex_faces(cx) -> set[frozenset[str]]:
    out = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            out.update(frozenset(c) for c in combinations(f, k))
    return out


# ---------------------------------------------------------------------------
# Reference versions of the near-linear polynomial paths
# ---------------------------------------------------------------------------

def ahu_recursive(adj, root: int, parent: int) -> str:
    """AHU code by plain recursion (depth bounded by the recursion limit)."""
    kids = sorted(ahu_recursive(adj, j, root) for j in adj[root] if j != parent)
    return "(" + "".join(kids) + ")"


def generate_by_apply_o(seed: int, steps: int):
    """``construct.generate`` as a loop of whole-tree ``apply_o`` rebuilds,
    with heights recomputed by BFS before every step."""
    rng = Lcg64(seed)
    t = base_tree()
    recorded = []
    for _ in range(steps):
        hmap = heights(t)
        eligible = [v for v in t.graph.labels if hmap[v] in _KIND_BY_HEIGHT]
        v = eligible[rng.randrange(len(eligible))]
        recorded.append(TraceStep(attach=v, kind=_KIND_BY_HEIGHT[hmap[v]]))
        t = apply_o(t, v)
    return t, ConstructionTrace(steps=tuple(recorded))


def replay_by_apply_o(trace):
    """``construct.replay`` as a loop of whole-tree ``apply_o`` rebuilds."""
    t = base_tree()
    for step in trace.steps:
        h = heights(t)[step.attach]
        if _KIND_BY_HEIGHT.get(h) != step.kind:
            raise ValueError(
                f"step kind {step.kind} does not match height {h} of {step.attach!r}"
            )
        t = apply_o(t, step.attach)
    return t


def _peel_by_rebuild(current):
    """One deconstruction round with heights, branches and distances
    recomputed over the whole current tree."""
    hmap = heights(current)
    v3 = set(hmap.level(3))
    g = current.graph
    pick = None
    for u in hmap.level(2):
        ups = [w for w in g.neighbors(u) if w in v3]
        if len(ups) == 1:
            pick = (u, ups[0])
            break
    if pick is None:
        raise TheoremViolation("no height-2 vertex with a unique height-3 neighbor exists")
    u, r = pick
    if g.degree(r) > 2:
        cut = branch(current, r, u)
        attach, kind, want = r, KIND_WHISKER3, 3
    elif len(v3) > 1:
        u_other = next(w for w in g.neighbors(r) if w != u)
        cut = branch(current, u_other, r)
        attach, kind, want = u_other, KIND_WHISKER4, 4
    else:
        if not is_isomorphic(current, base_tree()):
            raise TheoremViolation("terminal deconstruction case reached away from the base path")
        return None
    if len(cut) != want:
        raise TheoremViolation(f"peeled branch has {len(cut)} vertices, expected {want}")
    dist = g.distances_from(attach)
    chain = tuple(sorted(cut, key=lambda v: dist[v]))
    keep = [v for v in g.labels if v not in set(cut)]
    return attach, kind, chain, Tree(g.induced(keep))


def deconstruct_by_rebuilds(t):
    """``construct.deconstruct`` with a fresh tree and fresh heights after
    every peel, instead of one mutable adjacency with carried heights."""
    if not characterize_balanced_unmixed(t).unmixed:
        raise MixedTreeError("deconstruction requires an unmixed balanced tree")
    if heights(t).graph_height() != 3:
        raise ValueError("deconstruction requires height exactly 3")
    current, extra_leaves = leaf_normalize(t)
    peeled = []
    while (round_ := _peel_by_rebuild(current)) is not None:
        attach, kind, chain, current = round_
        peeled.append((attach, kind, chain))
    base_order = _path_order(current)
    if tuple(reversed(base_order)) < base_order:
        base_order = tuple(reversed(base_order))
    rename = {orig: str(i) for i, orig in enumerate(base_order)}
    counter = 0
    steps = []
    for attach, kind, chain in reversed(peeled):
        steps.append(TraceStep(attach=rename[attach], kind=kind))
        for orig in chain:
            counter += 1
            rename[orig] = f"w{counter}"
    for s in sorted(extra_leaves):
        steps.extend(TraceStep(attach=rename[s], kind=KIND_LEAF) for _ in range(extra_leaves[s]))
    return ConstructionTrace(steps=tuple(steps))
