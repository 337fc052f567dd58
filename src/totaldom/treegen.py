"""Tree corpora: exhaustive free trees up to isomorphism and seeded random trees.

Exhaustive generation enumerates parent arrays with non-decreasing parents
(every rooted tree has a BFS labeling of that form, so each free tree occurs)
and dedups through the canonical form. Random trees come from uniform Prufer
sequences driven by the pinned 64-bit LCG.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, Tree, _component_code

# Knuth's MMIX multiplier/increment; state and outputs documented in README.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_M = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state' = (A*state + C) mod 2^64 with A = 6364136223846793005 and
    C = 1442695040888963407; draws use the top 32 bits of the new state.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _LCG_M

    def next_u32(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _LCG_M
        return self.state >> 32

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u32() % n


def _parent_arrays(n: int):
    """Yield non-decreasing parent arrays p[1..n-1] with p[i] < i."""
    parents = [0] * n

    def rec(i: int):
        if i == n:
            yield tuple(parents[1:])
            return
        lo = parents[i - 1] if i > 1 else 0
        for p in range(lo, i):
            parents[i] = p
            yield from rec(i + 1)

    yield from rec(1)


def _tree_labels(n: int) -> list[str]:
    width = len(str(n - 1)) if n > 1 else 1
    return [f"t{i:0{width}d}" for i in range(n)]


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Tree, ...]:
    """All free trees on n vertices, one per isomorphism class."""
    if n < 1:
        return ()
    labels = _tree_labels(n)
    if n == 1:
        return (Tree(Graph(labels, [])),)
    seen = {}
    for parents in _parent_arrays(n):
        adj = [[] for _ in range(n)]
        for i, p in enumerate(parents, start=1):
            adj[i].append(p)
            adj[p].append(i)
        key = _component_code(adj, list(range(n)), [0] * n)
        if key not in seen:
            seen[key] = parents
    out = []
    for key in sorted(seen):
        parents = seen[key]
        edges = [(labels[i], labels[p]) for i, p in enumerate(parents, start=1)]
        out.append(Tree.from_edges(edges))
    return tuple(out)


def trees_up_to(n: int):
    """All free trees on 1..n vertices up to isomorphism."""
    for k in range(1, n + 1):
        yield from all_trees(k)


def random_tree(rng: Lcg64, n: int) -> Tree:
    """Uniform random labeled tree on n vertices via a Prufer sequence.

    The sequence is decoded straight into index adjacency, always removing
    the smallest current leaf, in one forward scan for the next leaf. The
    labels of ``_tree_labels`` are in index order and the decoded graph is a
    tree, so the graph is built as ``Graph.subgraph`` builds its result, with
    no label sort, index dict or cycle check.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = tuple(_tree_labels(n))
    # one int object per index, shared by the neighbor lists as in a parsed
    # graph; a fresh int per entry would take 32 bytes
    vertex = list(range(n))
    nbrs = [[] for _ in labels]
    if n > 1:
        prufer = [vertex[rng.randrange(n)] for _ in range(n - 2)]
        degree = [1] * n
        for p in prufer:
            degree[p] += 1
        scan = degree.index(1)
        leaf = vertex[scan]
        for p in prufer:
            nbrs[leaf].append(p)
            nbrs[p].append(leaf)
            degree[p] -= 1
            if degree[p] == 1 and p < scan:
                leaf = p
            else:
                scan += 1
                while degree[scan] != 1:
                    scan += 1
                leaf = vertex[scan]
        nbrs[leaf].append(vertex[-1])
        nbrs[-1].append(leaf)
    for nb in nbrs:
        nb.sort()
    g = Graph.__new__(Graph)
    g._set(labels, None, tuple([tuple(nb) for nb in nbrs]))
    return Tree.with_components(g, [vertex])
