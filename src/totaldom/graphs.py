"""Labeled simple graphs, forests, heights, 2-colorings, and canonical forms.

Vertices carry external string labels; internally every vertex is a dense
index into the sorted label list, and vertex subsets travel as int bitmasks.
All public functions report vertex sets as sorted label tuples. ``Ground``
is the one codec between the two: label v of a sorted ground is bit
``index[v]``. Graphs are grounds over their vertices, and the ideal and
complex modules build one over their variables or ground sets.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress
from operator import not_

from .errors import (
    EdgeListParseError,
    NotAForestError,
    NotATreeError,
)

VertexSet = tuple[str, ...]


def vset(labels) -> VertexSet:
    """Canonical vertex set: sorted, duplicate-free label tuple."""
    return tuple(sorted(set(labels)))


class _Record:
    """Base of the package's record classes: what a frozen dataclass
    generates, written once. ``repr`` shows the fields named in ``_fields``,
    in constructor order, and ``==`` and ``hash`` compare them as a tuple
    (``_key``); a field left out of ``_fields`` is left out of all three
    unless ``_key`` names it. A subclass writes its fields into its
    ``__dict__`` (or its slots through ``object.__setattr__``) in
    ``__init__``; assignment and deletion raise ``FrozenInstanceError``,
    whose module is imported on that error path only."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bit_indices(m: int) -> tuple[int, ...]:
    """The indices of the set bits of ``m``, ascending, one step per set bit."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _lift(mask: int, index) -> int:
    """``mask`` moved to another index space: bit i goes to bit index[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << index[low.bit_length() - 1]
        mask ^= low
    return out


def _columns(masks, width: int) -> list[int]:
    """The family ``masks`` transposed: ``width`` ints of len(masks) bits,
    with bit r of column v set when ``masks[r]`` has bit v. Every mask lies
    below ``1 << width``. Each mask is written as a fixed-width binary
    string, most significant bit first, over the reversed family, so
    ``zip`` reads column v, member len(masks) - 1 first, as one binary
    string: the transpose runs in C string operations, not per bit."""
    if not masks or not width:
        return [0] * width
    rows = [format(m, f"0{width}b") for m in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)]
    cols.reverse()
    return cols


class Ground:
    """A sorted, duplicate-free label tuple and its index dict: the codec
    between label sets and bitmasks, with label ``labels[i]`` as bit i."""

    __slots__ = ("labels", "index")

    def __init__(self, labels):
        labs = tuple(sorted(set(labels)))
        self.labels = labs
        self.index = dict(zip(labs, range(len(labs))))

    def mask_of(self, labels) -> int:
        """The bitmask of ``labels``; KeyError on a label outside the ground."""
        index = self.index
        m = 0
        for v in labels:
            m |= 1 << index[v]
        return m

    def labels_of(self, mask: int) -> VertexSet:
        """The labels of the set bits, in index (so label) order, one step
        per set bit."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


class Graph(Ground):
    """Immutable labeled simple graph.

    Labels are stored sorted; ``adj[i]`` lists the neighbor indices of the
    i-th label in increasing order, and that is all the graph keeps beside
    its labels and index. No self-loops, adjacency symmetric by construction.
    """

    __slots__ = ("adj",)

    def __init__(self, labels, edges):
        super().__init__(labels)
        labs, index = self.labels, self.index
        nbrs = [[] for _ in labs]
        for a, b in edges:
            if a == b:
                raise EdgeListParseError(f"self-loop at {a!r}")
            ia = index[a]
            ib = index[b]
            nbrs[ia].append(ib)
            nbrs[ib].append(ia)
        adj = []
        for nb in nbrs:
            if len(nb) > 1:
                nb.sort()
                prev = -1
                for j in nb:  # a repeated edge shows as two equal neighbors
                    if j == prev:
                        nb = sorted(set(nb))
                        break
                    prev = j
            adj.append(tuple(nb))
        self._set(labs, index, tuple(adj))

    def _set(self, labels, index, adj) -> None:
        self.labels = labels
        self.index = index
        self.adj = adj

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

    # -- structure --------------------------------------------------------

    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def subgraph(self, kept) -> Graph:
        """The subgraph induced on the increasing indices ``kept``: its
        vertex k is vertex ``kept[k]`` here. Label order is kept, so the
        labels and the neighbor lists stay sorted with no sort and no label
        lookup."""
        labels, adj = self.labels, self.adj
        vertex = list(range(len(kept)))
        new_of = dict(zip(kept, vertex))
        labs = tuple([labels[i] for i in kept])
        sub = Graph.__new__(Graph)
        sub._set(labs, dict(zip(labs, vertex)), tuple([
            tuple([new_of[j] for j in adj[i] if j in new_of]) for i in kept
        ]))
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


def index_components(nbrs, kept) -> list[list[int]]:
    """The components of the indices in ``kept`` (in increasing order) under
    the neighbor lists ``nbrs``, as sorted index lists. A component is found
    from its smallest index, so they come in the order of their smallest
    indices, which is label order."""
    seen = [False] * len(nbrs)
    components = []
    for s in kept:
        if not seen[s]:
            seen[s] = True
            reached = [s]
            for i in reached:  # grows while it is walked
                for j in nbrs[i]:
                    if not seen[j]:
                        seen[j] = True
                        reached.append(j)
            if len(reached) == len(kept):
                return [list(kept)]
            reached.sort()
            components.append(reached)
    return components


class Forest:
    """A validated acyclic graph plus its components, both as sorted index
    lists (``component_indices``) and as sorted label tuples."""

    __slots__ = ("graph", "ncomponents", "component_indices", "_components")

    def __init__(self, graph: Graph):
        comps = index_components(graph.adj, range(graph.n))
        if graph.num_edges() != graph.n - len(comps):
            raise NotAForestError("graph contains a cycle")
        self._set(graph, comps)

    def _set(self, graph: Graph, component_indices: list[list[int]]) -> None:
        labels = graph.labels
        self.graph = graph
        self.ncomponents = len(component_indices)
        self.component_indices = component_indices
        if len(component_indices) == 1:
            self._components = (labels,)
        else:
            self._components = tuple([
                tuple([labels[i] for i in c]) for c in component_indices
            ])

    @classmethod
    def from_edges(cls, edges, extra_vertices=()) -> Forest:
        return cls(Graph.from_edges(edges, extra_vertices))

    @classmethod
    def with_components(cls, graph: Graph, component_indices: list[list[int]]) -> Forest:
        """The forest (or tree) of an acyclic ``graph`` whose components are
        known already, as sorted index lists in the order of their smallest
        indices: no search and no cycle check."""
        f = cls.__new__(cls)
        f._set(graph, component_indices)
        return f

    def components(self) -> tuple[VertexSet, ...]:
        return self._components

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
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if len(tokens) != 2:
            if not tokens:
                continue
            raise EdgeListParseError(f"line {lineno}: expected 2 labels, got {len(tokens)}")
        a, b = tokens
        if a == b:
            raise EdgeListParseError(f"line {lineno}: self-loop at {a!r}")
        edges.append(tokens)
    return Graph(chain.from_iterable(edges), edges)


def render_edge_list(g: Graph) -> str:
    """Inverse of parse_graph up to ordering: sorted 'a b' lines."""
    labels = g.labels
    return "".join([
        f"{a} {labels[j]}\n"
        for i, (a, nb) in enumerate(zip(labels, g.adj)) for j in nb if j > i
    ])


def _created(labels, nbrs, tree: bool = True) -> Tree | Graph:
    """The graph on the distinct ``labels``, listed in the order the caller
    created them, whose vertex at creation position p has the neighbors at
    the positions ``nbrs[p]``, with no repeated edge and no self-loop.

    The labels are sorted once and each position is mapped to its rank, so
    the neighbor lists come out as sorted tuples of the int objects that the
    index dict holds. With ``tree`` the caller built a tree, which is
    returned through ``Tree.with_components`` with no search; else the
    graph itself.
    """
    if tree and not labels:
        raise NotATreeError("expected a tree, got 0 components")
    order = sorted(range(len(labels)), key=labels.__getitem__)
    vertex = list(range(len(labels)))
    rank = [0] * len(labels)
    for r, p in zip(vertex, order):
        rank[p] = r
    labs = tuple([labels[p] for p in order])
    adj = []
    for p in order:
        nb = [rank[q] for q in nbrs[p]]
        nb.sort()
        adj.append(tuple(nb))
    g = Graph.__new__(Graph)
    g._set(labs, dict(zip(labs, vertex)), tuple(adj))
    return Tree.with_components(g, [vertex]) if tree else g


def path_graph(n: int) -> Tree:
    """The path with n edges on labels "0".."n"."""
    if n < 1:  # the single vertex "0", or no vertex and no tree
        return _created(["0"] * (n + 1), [[]] * (n + 1))
    inner = [[i - 1, i + 1] for i in range(1, n)]
    return _created([str(i) for i in range(n + 1)], [[1], *inner, [n - 1]])


def star_graph(k: int) -> Tree:
    """A support vertex "s" with leaves "l1".."lk" (k >= 1)."""
    if k < 1:
        raise NotATreeError("expected a tree, got 0 components")
    return _created(["s"] + [f"l{i}" for i in range(1, k + 1)],
                    [list(range(1, k + 1))] + [[0]] * k)


# ---------------------------------------------------------------------------
# Heights
# ---------------------------------------------------------------------------

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


def heights(f: Forest) -> dict[str, int]:
    """Each label's distance to the nearest leaf of its component, in label
    order, by multi-source BFS from all leaves; isolated vertices map to 0."""
    g = f.graph
    return dict(zip(g.labels, leaf_distances(g.adj, range(g.n))))


class Classification(_Record):
    _fields = ("leaves", "supports", "supported", "isolated")

    def __init__(self, leaves: VertexSet, supports: VertexSet, supported: VertexSet,
                 isolated: VertexSet):
        d = self.__dict__
        d["leaves"] = leaves
        d["supports"] = supports
        d["supported"] = supported
        d["isolated"] = isolated


def classify_vertices(f: Forest) -> Classification:
    """Leaves by degree, supports by adjacency-to-leaf (not by height).
    Each class is marked on an index array and read off in index order,
    which is label order, so no label is sorted."""
    g = f.graph
    adj = g.adj
    degree = list(map(len, adj))
    support = [False] * g.n
    for i, d in enumerate(degree):
        if d == 1:
            support[adj[i][0]] = True
    supported = [False] * g.n
    for i in compress(range(g.n), support):
        for j in adj[i]:
            supported[j] = True
    lab = g.labels
    return Classification(
        leaves=tuple([v for v, d in zip(lab, degree) if d == 1]),
        supports=tuple(compress(lab, support)),
        supported=tuple(compress(lab, supported)),
        isolated=tuple([v for v, d in zip(lab, degree) if d == 0]),
    )


# ---------------------------------------------------------------------------
# 2-colorings
# ---------------------------------------------------------------------------

class Coloring:
    """A proper 2-coloring, stored as the two color classes, each a sorted
    label tuple as given."""

    __slots__ = ("blue", "red")

    def __init__(self, blue: VertexSet, red: VertexSet):
        self.blue = blue
        self.red = red

    @classmethod
    def of_flags(cls, labels, blue) -> Coloring:
        """Blue the labels whose flag in ``blue`` is set, red the rest,
        both in the order of ``labels``."""
        return cls(tuple(compress(labels, blue)), tuple(compress(labels, map(not_, blue))))

    def __eq__(self, other):
        return isinstance(other, Coloring) and (self.blue, self.red) == (other.blue, other.red)

    def __repr__(self):
        return f"Coloring(blue={self.blue}, red={self.red})"


def _blue_flags(f: Forest) -> list[bool]:
    """Per vertex index, whether ``two_coloring`` makes it blue: the parity
    of the distance from the smallest index of its component, by one
    breadth-first search per component."""
    adj = f.graph.adj
    blue = [None] * f.graph.n
    for comp in f.component_indices:
        root = comp[0]
        blue[root] = True
        order = [root]
        for i in order:  # grows while it is walked: breadth-first
            s = not blue[i]
            for j in adj[i]:
                if blue[j] is None:
                    blue[j] = s
                    order.append(j)
    return blue


def two_coloring(f: Forest) -> Coloring:
    """Deterministic proper 2-coloring of a forest: in each component the
    lexicographically smallest label is blue. Both classes come out in
    label order."""
    return Coloring.of_flags(f.graph.labels, _blue_flags(f))


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

def _centers(adj, comp: list[int], deg: list[int]) -> list[int]:
    """Center vertices of one tree component, given as its sorted indices,
    by iterated leaf removal. ``deg`` is a per-index list that this call
    overwrites at ``comp``: a vertex's count of neighbors not yet removed,
    set to 0 when it is removed. The vertices whose count fell to 1 in the
    last round are the centers."""
    layer = []
    for i in comp:
        d = deg[i] = len(adj[i])
        if d <= 1:
            layer.append(i)
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        for i in layer:
            deg[i] = 0
        nxt = []
        for i in layer:
            for j in adj[i]:
                if deg[j]:
                    deg[j] -= 1
                    if deg[j] == 1:
                        nxt.append(j)
        layer = nxt
    layer.sort()
    return layer


def _ahu(adj, root: int, parent: int) -> str:
    """AHU code of the subtree at ``root`` away from ``parent``: each vertex
    is "(" + its children's codes, sorted, + ")".

    Iterative, so depth is not bounded by the recursion limit: ``order``
    grows while it is walked (breadth-first), so the children of
    ``order[k]`` are the slice ``order[first[k]:first[k + 1]]``, and walking
    it backwards finishes every child before its parent.
    """
    order = [root]
    up = [parent]  # up[k] is the parent of order[k]
    first = []
    for k, v in enumerate(order):
        first.append(len(order))
        p = up[k]
        for w in adj[v]:
            if w != p:
                order.append(w)
                up.append(v)
    first.append(len(order))
    codes = [""] * len(order)
    for k in range(len(order) - 1, -1, -1):
        lo, hi = first[k], first[k + 1]
        if lo == hi:  # a leaf
            codes[k] = "()"
        elif hi - lo == 1:  # one child: nothing to sort
            codes[k] = "(" + codes[lo] + ")"
        else:
            kids = codes[lo:hi]
            kids.sort()
            codes[k] = "(" + "".join(kids) + ")"
    return codes[0]


def _component_code(adj, comp: list[int], deg: list[int]) -> str:
    centers = _centers(adj, comp, deg)
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
    adj = f.graph.adj
    deg = [0] * f.graph.n
    codes = [_component_code(adj, comp, deg) for comp in f.component_indices]
    return "[" + ";".join(sorted(codes)) + "]"


def is_isomorphic(f1: Forest, f2: Forest) -> bool:
    return canonical_form(f1) == canonical_form(f2)
