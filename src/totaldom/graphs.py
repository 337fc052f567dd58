"""Labeled simple graphs, forests, heights, 2-colorings, and canonical forms.

Vertices carry external string labels; internally every vertex is a dense
index into the sorted label list, and vertex subsets travel as int bitmasks.
All public functions report vertex sets as sorted label tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    EdgeListParseError,
    NotAForestError,
    NotATreeError,
)

VertexSet = tuple[str, ...]


def vset(labels) -> VertexSet:
    """Canonical vertex set: sorted, duplicate-free label tuple."""
    return tuple(sorted(set(labels)))


class Graph:
    """Immutable labeled simple graph.

    Labels are stored sorted; ``adj[i]`` lists the neighbor indices of the
    i-th label in increasing order and ``masks[i]`` is the same set as a
    bitmask. The masks take O(n^2) bits and only the domination engine reads
    them, so they are built lazily on first use. No self-loops, adjacency
    symmetric by construction.
    """

    __slots__ = ("labels", "index", "adj", "_masks")

    def __init__(self, labels, edges):
        labs = tuple(sorted(set(labels)))
        index = {v: i for i, v in enumerate(labs)}
        nbrs = [set() for _ in labs]
        for a, b in edges:
            if a == b:
                raise EdgeListParseError(f"self-loop at {a!r}")
            ia, ib = index[a], index[b]
            nbrs[ia].add(ib)
            nbrs[ib].add(ia)
        self._set(labs, index, tuple(tuple(sorted(s)) for s in nbrs))

    def _set(self, labels, index, adj) -> None:
        self.labels = labels
        self.index = index
        self.adj = adj
        self._masks = None

    @property
    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(sum(1 << j for j in nb) for nb in self.adj)
        return self._masks

    @classmethod
    def from_edges(cls, edges, extra_vertices=()) -> Graph:
        edges = [tuple(e) for e in edges]
        labels = set(extra_vertices)
        for a, b in edges:
            labels.add(a)
            labels.add(b)
        return cls(labels, edges)

    # -- basics ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for i, nb in enumerate(self.adj):
            for j in nb:
                if i < j:
                    out.append((self.labels[i], self.labels[j]))
        return tuple(out)

    def neighbors(self, v: str) -> VertexSet:
        return tuple(self.labels[j] for j in self.adj[self.index[v]])

    def degree(self, v: str) -> int:
        return len(self.adj[self.index[v]])

    # -- bitmask helpers --------------------------------------------------

    def mask_of(self, labels) -> int:
        m = 0
        for v in labels:
            m |= 1 << self.index[v]
        return m

    def labels_of(self, mask: int) -> VertexSet:
        """The labels of the set bits, in index (so label) order."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def neighborhood_mask(self, mask: int) -> int:
        """Open neighborhood N(S) of the subset given as a bitmask."""
        masks = self.masks
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= masks[i]
            mask >>= 1
            i += 1
        return out

    # -- structure --------------------------------------------------------

    def component_labels(self) -> tuple[VertexSet, ...]:
        """Connected components as sorted label tuples, sorted themselves."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in self.adj[i]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            comps.append(tuple(self.labels[i] for i in sorted(comp)))
        return tuple(sorted(comps))

    def num_edges(self) -> int:
        return sum(len(nb) for nb in self.adj) // 2

    def induced(self, labels) -> Graph:
        """Induced subgraph, built from the kept vertices' own adjacency.

        Labels unknown to this graph become isolated vertices. Relabeling
        keeps the label order, so neighbor lists stay sorted.
        """
        labs = tuple(sorted(set(labels)))
        old_index, old_adj = self.index, self.adj
        new_of = {old_index[v]: k for k, v in enumerate(labs) if v in old_index}
        adj = tuple(
            tuple([new_of[j] for j in old_adj[old_index[v]] if j in new_of])
            if v in old_index else ()
            for v in labs
        )
        sub = Graph.__new__(Graph)
        sub._set(labs, {v: i for i, v in enumerate(labs)}, adj)
        return sub

    def distances_from(self, v: str) -> dict[str, int]:
        """BFS distances from ``v``; unreachable vertices are absent."""
        dist = {v: 0}
        q = deque([self.index[v]])
        di = {self.index[v]: 0}
        while q:
            i = q.popleft()
            for j in self.adj[i]:
                if j not in di:
                    di[j] = di[i] + 1
                    dist[self.labels[j]] = di[j]
                    q.append(j)
        return dist

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self):
        return hash((self.labels, self.adj))

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.num_edges()} edges)"


class Forest:
    """A validated acyclic graph plus its components and a component index
    per vertex."""

    __slots__ = ("graph", "component_of", "ncomponents", "_components")

    def __init__(self, graph: Graph):
        comps = graph.component_labels()
        if graph.num_edges() != graph.n - len(comps):
            raise NotAForestError("graph contains a cycle")
        comp_of = {}
        for c, labs in enumerate(comps):
            for v in labs:
                comp_of[v] = c
        self.graph = graph
        self.component_of = comp_of
        self.ncomponents = len(comps)
        self._components = comps

    @classmethod
    def from_edges(cls, edges, extra_vertices=()) -> Forest:
        return cls(Graph.from_edges(edges, extra_vertices))

    @classmethod
    def with_components(cls, graph: Graph, components: tuple[VertexSet, ...]) -> Forest:
        """The forest (or tree) of an acyclic ``graph`` whose components are
        known already, as sorted label tuples in sorted order: no search and
        no cycle check."""
        f = cls.__new__(cls)
        f.graph = graph
        f.component_of = {v: c for c, labs in enumerate(components) for v in labs}
        f.ncomponents = len(components)
        f._components = components
        return f

    def components(self) -> tuple[VertexSet, ...]:
        return self._components

    def component_trees(self) -> tuple[Tree, ...]:
        return tuple(Tree.with_components(self.graph.induced(c), (c,)) for c in self.components())

    @property
    def labels(self) -> VertexSet:
        return self.graph.labels

    def __repr__(self):
        return f"Forest({self.graph.n} vertices, {self.ncomponents} components)"


class Tree(Forest):
    """A nonempty connected forest."""

    def __init__(self, graph: Graph):
        super().__init__(graph)
        if self.ncomponents != 1:
            raise NotATreeError(f"expected a tree, got {self.ncomponents} components")

    def __repr__(self):
        return f"Tree({self.graph.n} vertices)"


def _graph_of(g) -> Graph:
    return g.graph if isinstance(g, Forest) else g


# ---------------------------------------------------------------------------
# Parsing and named small graphs
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list source: one edge per line, '#' comments, blanks ok."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 2 labels, got {len(tokens)}")
        a, b = tokens
        if a == b:
            raise EdgeListParseError(f"line {lineno}: self-loop at {a!r}")
        edges.append((a, b))
    return Graph.from_edges(edges)


def render_edge_list(g: Graph) -> str:
    """Inverse of parse_graph up to ordering: sorted 'a b' lines."""
    return "".join(f"{a} {b}\n" for a, b in g.edges())


def path_graph(n: int) -> Tree:
    """The path with n edges on labels "0".."n"."""
    if n == 0:
        return Tree(Graph(["0"], []))
    return Tree.from_edges([(str(i), str(i + 1)) for i in range(n)])


def star_graph(k: int) -> Tree:
    """A support vertex "s" with leaves "l1".."lk" (k >= 1)."""
    return Tree.from_edges([("s", f"l{i}") for i in range(1, k + 1)])


# ---------------------------------------------------------------------------
# Heights
# ---------------------------------------------------------------------------

class HeightMap:
    """Per-vertex distance to the nearest leaf of its component.

    Isolated vertices get height 0 by convention.
    """

    __slots__ = ("_heights",)

    def __init__(self, heights: dict[str, int]):
        self._heights = dict(heights)

    def __getitem__(self, v: str) -> int:
        return self._heights[v]

    def items(self):
        return sorted(self._heights.items())

    def as_dict(self) -> dict[str, int]:
        return dict(self._heights)

    def level(self, k: int) -> VertexSet:
        return vset(v for v, h in self._heights.items() if h == k)

    def even(self) -> VertexSet:
        return vset(v for v, h in self._heights.items() if h % 2 == 0)

    def odd(self) -> VertexSet:
        return vset(v for v, h in self._heights.items() if h % 2 == 1)

    def graph_height(self) -> int:
        return max(self._heights.values(), default=0)


def leaf_distances(nbrs, kept) -> list[int]:
    """Per vertex index, the distance to the nearest leaf of its component,
    by multi-source BFS over the neighbor lists ``nbrs`` of the indices in
    ``kept``; isolated vertices get 0 and indices not kept -1."""
    dist = [-1] * len(nbrs)
    order = [i for i in kept if len(nbrs[i]) <= 1]
    for i in order:
        dist[i] = 0
    for i in order:  # grows while it is walked: breadth-first
        d = dist[i] + 1
        for j in nbrs[i]:
            if dist[j] < 0:
                dist[j] = d
                order.append(j)
    return dist


def heights(f: Forest) -> HeightMap:
    """Multi-source BFS from all leaves; isolated vertices map to 0."""
    g = f.graph
    return HeightMap(dict(zip(g.labels, leaf_distances(g.adj, range(g.n)))))


@dataclass(frozen=True)
class Classification:
    leaves: VertexSet
    supports: VertexSet
    supported: VertexSet
    isolated: VertexSet


def classify_vertices(f: Forest) -> Classification:
    """Leaves by degree, supports by adjacency-to-leaf (not by height)."""
    g = f.graph
    leaves = [i for i, nb in enumerate(g.adj) if len(nb) == 1]
    isolated = [i for i, nb in enumerate(g.adj) if len(nb) == 0]
    supports = {g.adj[i][0] for i in leaves}
    supported = {j for i in supports for j in g.adj[i]}
    lab = g.labels
    return Classification(
        leaves=vset(lab[i] for i in leaves),
        supports=vset(lab[i] for i in supports),
        supported=vset(lab[i] for i in supported),
        isolated=vset(lab[i] for i in isolated),
    )


# ---------------------------------------------------------------------------
# 2-colorings
# ---------------------------------------------------------------------------

class Coloring:
    """A proper 2-coloring, stored as the two color classes."""

    __slots__ = ("blue", "red")

    def __init__(self, blue, red):
        self.blue = vset(blue)
        self.red = vset(red)

    def __eq__(self, other):
        return isinstance(other, Coloring) and (self.blue, self.red) == (other.blue, other.red)

    def __repr__(self):
        return f"Coloring(blue={self.blue}, red={self.red})"


def two_coloring(f: Forest) -> Coloring:
    """Deterministic proper 2-coloring of a forest: in each component the
    lexicographically smallest label is blue."""
    g = f.graph
    adj = g.adj
    side = [-1] * g.n
    for comp in f.components():
        # side = distance parity from comp[0], by breadth-first search
        root = g.index[comp[0]]
        side[root] = 0
        order = [root]
        for i in order:
            s = 1 - side[i]
            for j in adj[i]:
                if side[j] < 0:
                    side[j] = s
                    order.append(j)
    return Coloring(
        [v for v, s in zip(g.labels, side) if s == 0],
        [v for v, s in zip(g.labels, side) if s == 1],
    )


# ---------------------------------------------------------------------------
# Branch
# ---------------------------------------------------------------------------

def branch(t: Forest, r: str, x: str) -> VertexSet:
    """Vertices y whose path to r passes through x (x included, r excluded
    unless r == x)."""
    g = _graph_of(t)
    dist = g.distances_from(r)
    if x not in dist:
        raise ValueError(f"{r!r} and {x!r} lie in different components")
    if r == x:
        return vset(dist)
    # walk outward from x away from r: children in the BFS tree rooted at r
    out = {x}
    q = deque([x])
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if w not in out and dist[w] == dist[v] + 1:
                out.add(w)
                q.append(w)
    return vset(out)


# ---------------------------------------------------------------------------
# Canonical forms (AHU at tree centers)
# ---------------------------------------------------------------------------

def _centers(adj: list[list[int]], comp: list[int]) -> list[int]:
    """Center vertices of one tree component, by iterated leaf removal."""
    if len(comp) == 1:
        return [comp[0]]
    deg = {i: len(adj[i]) for i in comp}
    layer = [i for i in comp if deg[i] == 1]
    remaining = len(comp)
    removed = set()
    while remaining > 2:
        nxt = []
        for i in layer:
            removed.add(i)
        remaining -= len(layer)
        for i in layer:
            for j in adj[i]:
                if j not in removed:
                    deg[j] -= 1
                    if deg[j] == 1:
                        nxt.append(j)
        layer = nxt
    return sorted(set(comp) - removed)


def _ahu(adj, root: int, parent: int) -> str:
    """AHU code of the subtree at ``root`` away from ``parent``: each vertex
    is "(" + its children's codes, sorted, + ")".

    Iterative, so depth is not bounded by the recursion limit: ``order``
    grows while it is walked (breadth-first), and walking it backwards
    finishes every child before its parent.
    """
    order = [root]
    up = {root: parent}
    kids = {root: []}
    for v in order:
        p = up[v]
        for w in adj[v]:
            if w != p:
                up[w] = v
                kids[w] = []
                order.append(w)
    for v in order[:0:-1]:
        codes = kids[v]
        codes.sort()
        kids[up[v]].append("(" + "".join(codes) + ")")
    codes = kids[root]
    codes.sort()
    return "(" + "".join(codes) + ")"


def _component_code(adj, comp: list[int]) -> str:
    centers = _centers(adj, comp)
    if len(centers) == 1:
        return "C" + _ahu(adj, centers[0], -1)
    a, b = centers
    ca = _ahu(adj, a, b)
    cb = _ahu(adj, b, a)
    lo, hi = sorted((ca, cb))
    return "E" + lo + hi


def canonical_form(f: Forest) -> str:
    """Canonical encoding: equal strings iff the forests are isomorphic.

    Each tree component is AHU-encoded at its center ("C" + code) or, when
    bicentral, at the central edge ("E" + smaller code + larger code);
    component codes are sorted and joined inside brackets.
    """
    g = f.graph
    adj = [list(nb) for nb in g.adj]
    codes = []
    for comp in f.components():
        idx = [g.index[v] for v in comp]
        codes.append(_component_code(adj, idx))
    return "[" + ";".join(sorted(codes)) + "]"


def is_isomorphic(f1: Forest, f2: Forest) -> bool:
    return canonical_form(f1) == canonical_form(f2)
