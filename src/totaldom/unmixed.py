"""Balanced trees, interior graphs, and the polynomial-time unmixedness test.

A tree is unmixed exactly when every component of both interior graphs has
height at most 3, every height-2 vertex has a unique height-1 neighbor, and
every height-1 vertex has at most one height-2 neighbor. The brute-force
counterpart lives in the domination module; the two are cross-checked by the
verification suite. ``Analysis`` holds these facts for one request.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, compress
from operator import not_

from .domination import MinimalSetFamily, minimal_td_sets
from .errors import (
    EnumerationCapExceeded,
    InputError,
    MixedTreeError,
    NotATreeError,
    NotBalancedError,
    TheoremViolation,
)
from .graphs import (
    Classification,
    Coloring,
    Forest,
    Graph,
    Tree,
    VertexSet,
    _blue_flags,
    _Record,
    classify_vertices,
    leaf_distances,
)


def is_balanced(f: Forest | Analysis) -> bool:
    """No two same-height vertices are adjacent, per component.

    The two equivalent criteria (same height implies same color, all leaves
    share one color) are evaluated as well and must agree; a disagreement
    would falsify the equivalence and is surfaced loudly.
    """
    return Analysis.of(f).balanced


class InteriorGraphs(_Record):
    """Induced subforests after deleting each color's support vertices with
    their neighbors, plus the deletion ledgers: ``deleted_for_blue`` is the
    closed neighborhood of the blue supports."""

    _fields = ("blue", "red", "deleted_for_blue", "deleted_for_red")

    def __init__(self, blue: Forest, red: Forest, deleted_for_blue: VertexSet,
                 deleted_for_red: VertexSet):
        d = self.__dict__
        d["blue"] = blue
        d["red"] = red
        d["deleted_for_blue"] = deleted_for_blue
        d["deleted_for_red"] = deleted_for_red


def interior_graphs(t: Tree | Analysis) -> InteriorGraphs:
    """Both interior graphs of a tree under its 2-coloring (``two_coloring``).

    "Support vertex" is read as adjacency-to-a-leaf, which differs from
    height 1 only on the 2-vertex tree. Every component of either side must
    come out balanced; anything else falsifies the interior lemma.
    """
    return Analysis.of(t).interiors


# ---------------------------------------------------------------------------
# The descriptive characterization
# ---------------------------------------------------------------------------

class ComponentCheck(namedtuple("ComponentCheck", (
    "side", "vertices", "height", "height_ok", "v2_unique_v1_ok", "v1_at_most_one_v2_ok",
    "offending_vertex",
))):
    """Checklist for one balanced component: height bound plus the two local
    matching conditions between heights 1 and 2. ``side`` is "blue", "red"
    or "self"; ``offending_vertex`` is a label or None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.height_ok and self.v2_unique_v1_ok and self.v1_at_most_one_v2_ok

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "vertices": list(self.vertices),
            "height": self.height,
            "height_ok": self.height_ok,
            "v2_unique_v1_ok": self.v2_unique_v1_ok,
            "v1_at_most_one_v2_ok": self.v1_at_most_one_v2_ok,
            "offending_vertex": self.offending_vertex,
        }


class UnmixedCertificate(_Record):
    """An unmixedness verdict with its component checklists. Immutable;
    equal when verdict and checklists are. Its JSON form keeps a
    ``"witness": null`` slot, which reports fill in themselves.

    ``checks`` may also be given as a function that returns the tuple; it
    runs on the first read of ``checks`` (or of ``to_json_dict`` or ``==``).
    ``Analysis`` does so, so reading the verdict alone builds no
    ComponentCheck."""

    __slots__ = ("unmixed", "_checks")
    _fields = ("unmixed", "checks")

    def __init__(self, unmixed: bool, checks: tuple[ComponentCheck, ...]):
        object.__setattr__(self, "unmixed", unmixed)
        object.__setattr__(self, "_checks", checks)

    @property
    def checks(self) -> tuple[ComponentCheck, ...]:
        checks = self._checks
        if callable(checks):
            checks = checks()
            object.__setattr__(self, "_checks", checks)
        return checks

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which the frozen
        # __setattr__ leaves as the only way in; reading ``checks`` resolves
        # a lazy tuple, whose function could not be pickled
        return self.__class__, (self.unmixed, self.checks)

    def to_json_dict(self) -> dict:
        return {
            "unmixed": self.unmixed,
            "checks": [c.to_json_dict() for c in self.checks],
            "witness": None,
        }


def _check_component(layer: _Layer, comp: list[int], marks) -> ComponentCheck:
    """The checklist of one component of a layer, given as the sorted indices
    of its vertices, read off the marks that its walk left (greatest height,
    first failing height-2 and height-1 vertex). The offending vertex is the
    first height-2 vertex that fails, else the first height-1 vertex that
    fails, else the first vertex of greatest height if that exceeds 3."""
    top, bad2, bad1 = marks
    offending = bad2 if bad2 is not None else bad1
    if top > 3 and offending is None:
        height = layer.height
        offending = next(i for i in comp if height[i] == top)
    labels = layer.graph.labels
    return ComponentCheck(
        side=layer.side,
        vertices=tuple([labels[i] for i in comp]),
        height=top,
        height_ok=top <= 3,
        v2_unique_v1_ok=bad2 is None,
        v1_at_most_one_v2_ok=bad1 is None,
        offending_vertex=None if offending is None else labels[offending],
    )


def characterize_balanced_unmixed(t: Tree | Analysis) -> UnmixedCertificate:
    """Linear-time unmixedness test for a balanced tree. A balanced forest
    of 0 or at least 2 components raises NotATreeError."""
    return Analysis.of(t).characterization


def is_unmixed_fast(t: Tree | Analysis) -> UnmixedCertificate:
    """Polynomial-time unmixedness test for an arbitrary tree via interiors."""
    return Analysis.of(t).certificate


def mixedness_witness(t: Tree, cap: int | None = None):
    """Two minimal TD-sets of different sizes, or None when unmixed.

    Found by enumeration, so this is the concrete refutation object backing a
    "mixed" verdict at desk scale.
    """
    return minimal_td_sets(t, cap=cap).witness()


# ---------------------------------------------------------------------------
# One analysis per request
# ---------------------------------------------------------------------------

class _fact:
    """A lazily computed attribute: the first read computes the value and
    stores it on the instance, where later reads find it. This is
    ``functools.cached_property`` without the lock that Python 3.10 and 3.11
    take on every first read."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _walk(layer: _Layer, kept: list[int]) -> tuple[bool, bool, bool]:
    """One breadth-first walk per component of a layer, each started from
    the component's smallest index in ``kept`` (increasing), so components
    come in label order. Returns the three balancedness criteria over all
    components: no two adjacent vertices of the same height, same height
    implies same color, all leaves (the height-0 vertices) of one color.

    Each walk appends its component, in walk order, to ``layer.parts`` and
    its marks to ``layer.marks``: its greatest height, the smallest height-2
    vertex without a unique height-1 neighbor and the smallest height-1
    vertex with two height-2 neighbors (None when there is none)."""
    nbrs, height, blue = layer.nbrs, layer.height, layer.blue
    parts, marks = layer.parts, layer.marks
    n = len(nbrs)
    seen = [False] * n
    # color_at[h] is the color of the first vertex of height h met in the
    # component whose start is at_start[h]
    at_start = [-1] * n
    color_at = [False] * n
    adjacency = colors = leaves = True
    for s in kept:
        if seen[s]:
            continue
        seen[s] = True
        part = [s]
        append = part.append
        leaf_color = None
        top = 0
        bad2 = bad1 = None
        for i in part:  # grows while it is walked: breadth-first
            h, c = height[i], blue[i]
            if at_start[h] != s:
                at_start[h] = s
                color_at[h] = c
                if h > top:
                    top = h
            elif color_at[h] != c:
                colors = False
            if h == 1 or h == 2:
                across = 0  # neighbors at height 3 - h, the other of 1 and 2
                for j in nbrs[i]:
                    if not seen[j]:
                        seen[j] = True
                        append(j)
                    hj = height[j]
                    if hj == h:
                        adjacency = False
                    elif hj + h == 3:
                        across += 1
                if h == 2:
                    if across != 1 and (bad2 is None or i < bad2):
                        bad2 = i
                elif across > 1 and (bad1 is None or i < bad1):
                    bad1 = i
            else:
                if h == 0:
                    if leaf_color is None:
                        leaf_color = c
                    elif leaf_color != c:
                        leaves = False
                # each edge is compared once, from the end that finds the other
                for j in nbrs[i]:
                    if not seen[j]:
                        seen[j] = True
                        append(j)
                        if height[j] == h:
                            adjacency = False
        parts.append(part)
        marks.append((top, bad2, bad1))
    return adjacency, colors, leaves


class _Layer:
    """The vertices of ``graph`` left after removing the indices ``dropped``
    (none for a whole forest). One pass over the index arrays finds their
    heights; then ``_walk`` makes one breadth-first walk per component,
    which finds the component, evaluates the three balance criteria (they
    must agree) and leaves the component's marks. The unmixed verdict is
    read off the marks; the components as sorted index lists (index order
    is label order, so these come in ``Forest.components()`` order) and
    their checklists are built on first use.

    ``blue`` flags the blue vertices of a 2-coloring of ``graph`` and
    ``side`` labels the checks. A layer of a tree serves its interior side
    in the tree's own indices: the side's V3-TD-sets are found on ``nbrs``
    and ``height``, and the Analysis of each component is built straight
    from ``graph`` (``component_facts``), with the component's sorted
    indices as its map into ``graph``. The forest of the kept vertices
    (``forest``) is built only for the label view, the Analysis of an
    interior forest, which takes the layer's heights at the kept indices.
    """

    __slots__ = ("graph", "side", "blue", "keep", "nbrs", "height", "parts",
                 "marks", "balanced", "_sorted", "_checks", "_facts")

    def __init__(self, graph: Graph, blue: list[bool], side: str, dropped: list[int]):
        adj = graph.adj
        # only the neighbors of dropped vertices lose neighbors
        keep = [True] * graph.n
        for i in dropped:
            keep[i] = False
        kept = list(compress(range(graph.n), keep))
        nbrs = list(adj)
        for i in dropped:
            nbrs[i] = ()
        for i in dropped:
            for j in adj[i]:
                if keep[j] and nbrs[j] is adj[j]:  # each list is filtered once
                    nbrs[j] = [k for k in adj[j] if keep[k]]
        self.graph = graph
        self.side = side
        self.blue = blue
        self.keep = keep
        self.nbrs = nbrs
        self.height = leaf_distances(nbrs, kept)
        self.parts = []
        self.marks = []
        self._sorted = False
        self._checks = self._facts = None
        c1, c2, c3 = _walk(self, kept)
        if not (c1 == c2 == c3):
            raise TheoremViolation(
                f"balancedness criteria disagree: adjacency={c1}, colors={c2}, leaves={c3}"
            )
        self.balanced = c1

    def unmixed(self) -> bool:
        """Every component has height at most 3 and no bad vertex."""
        return all(top <= 3 and bad2 is None and bad1 is None for top, bad2, bad1 in self.marks)

    def components(self) -> list[list[int]]:
        """The components as sorted index lists, in the order of their
        smallest indices."""
        if not self._sorted:
            for part in self.parts:
                part.sort()
            self._sorted = True
        return self.parts

    def checks(self) -> tuple[ComponentCheck, ...]:
        """The checklist of each component, built on the first call."""
        if self._checks is None:
            self._checks = tuple([_check_component(self, comp, marks)
                                  for comp, marks in zip(self.components(), self.marks)])
        return self._checks

    def component_facts(self) -> tuple[Analysis, ...]:
        """Analyses of the component trees, built on the first call. The
        tree of a component is ``graph.subgraph`` of its sorted indices (or
        ``graph`` itself when it holds every vertex), so vertex k of the
        tree is vertex ``components()[k]`` of ``graph``. A height is the
        distance to the nearest leaf of the vertex's own component, so each
        component's heights and checklist are the layer's restricted to it;
        the criteria hold per component, so those of a balanced layer are
        balanced, and their characterization is read off their checklist
        with no layer of their own."""
        if self._facts is None:
            graph, height = self.graph, self.height
            balanced = bool(self.parts) and self.balanced
            facts = []
            for comp, check in zip(self.components(), self.checks()):
                sub = graph if len(comp) == graph.n else graph.subgraph(comp)
                c = Analysis(Tree.with_components(sub, [list(range(sub.n))]), side=self.side)
                c.height = [height[i] for i in comp]
                if balanced:
                    c.balanced = True
                    c.characterization = UnmixedCertificate(check.ok, (check,))
                facts.append(c)
            self._facts = tuple(facts)
        return self._facts

    def dropped(self) -> VertexSet:
        """The dropped vertices, as a sorted label tuple."""
        return tuple(compress(self.graph.labels, map(not_, self.keep)))

    def to_json_dict(self) -> dict:
        """The kept vertices, the components and the dropped vertices, in
        labels: the fields ``interior_graphs`` gives a side."""
        labels = self.graph.labels
        return {
            "vertices": list(compress(labels, self.keep)),
            "components": [[labels[i] for i in comp] for comp in self.components()],
            "deleted": list(self.dropped()),
        }

    def forest(self) -> Forest:
        """The induced forest on the kept vertices, whose index of a kept
        vertex is the count of kept vertices before it."""
        kept = list(compress(range(self.graph.n), self.keep))
        rank = list(accumulate(self.keep))
        components = [[rank[i] - 1 for i in comp] for comp in self.components()]
        return Forest.with_components(self.graph.subgraph(kept), components)


class Analysis:
    """The facts one request reads about one tree or forest.

    Each fact is computed on its first read and kept on this object, which
    the request drops with its report. No fact is stored on the tree, in a
    module or in a cache keyed by trees, so no fact outlives its request and
    a function patched between two requests is seen by the second.
    ``is_unmixed_fast``, ``stable_shelling``, ``cm_type`` and the functions
    they call take an Analysis wherever they take the tree (through
    ``Analysis.of``), so one request computes each fact once.

    Heights, the balanced verdict and the checklists come from one ``_Layer``
    of the whole forest, and the certificate from one layer per interior
    side, all on the forest's index arrays: one walk per component of a
    layer evaluates the balance criteria and leaves the marks that the
    verdicts of ``certificate`` and ``characterization`` are read from.
    Their checklists are built from the marks only when ``checks`` (or the
    JSON or ``==``) reads them. The shelling, the type and the report read
    the interior sides off ``interior_layers`` in the forest's indices; the
    component trees and their Analyses are built from a layer only when
    ``components`` (``_Layer.component_facts``) is read, and the interior
    forests only when the label view, ``interiors`` or ``sides``, is read.

    Per-vertex facts, ``height`` and ``support_rows``, are index arrays
    aligned with ``forest.graph``; labels are read only by reports.

    The 2-coloring is always ``two_coloring`` of the forest. ``side`` is
    "blue" or "red" for an interior forest and its components (it labels
    their component checks) and "self" otherwise.
    """

    def __init__(self, forest: Forest, side: str = "self"):
        self.forest = forest
        self.side = side
        self._td_families: dict = {}

    @classmethod
    def of(cls, t: Forest | Analysis) -> Analysis:
        """``t`` itself when it is an Analysis, else a new one of the forest ``t``."""
        return t if isinstance(t, Analysis) else cls(t)

    @_fact
    def coloring(self) -> Coloring:
        """``two_coloring`` of the forest, read off ``_blue``."""
        return Coloring.of_flags(self.forest.graph.labels, self._blue)

    @_fact
    def _blue(self) -> list[bool]:
        """Per vertex index, whether ``coloring`` makes it blue: the side
        array of its breadth-first search."""
        return _blue_flags(self.forest)

    @_fact
    def classification(self) -> Classification:
        return classify_vertices(self.forest)

    @_fact
    def _layer(self) -> _Layer:
        return _Layer(self.forest.graph, self._blue, self.side, [])

    @_fact
    def height(self) -> list[int]:
        """Per vertex index of the forest's graph, the distance to the
        nearest leaf of its component; isolated vertices have height 0."""
        return self._layer.height

    @_fact
    def balanced(self) -> bool:
        """The three balancedness criteria, which must agree (``is_balanced``)."""
        return self._layer.balanced

    def _tree_layer(self) -> _Layer:
        """The layer of this forest; NotATreeError unless it has one component."""
        layer = self._layer
        if len(layer.parts) != 1:
            raise NotATreeError(f"expected a tree, got {len(layer.parts)} components")
        return layer

    @property
    def components(self) -> tuple[Analysis, ...]:
        """Analyses of the component trees (``_Layer.component_facts``): an
        interior side's are those of its layer of the tree, the very
        objects that the shelling and the type read."""
        return self._layer.component_facts()

    @_fact
    def interior_layers(self) -> tuple[_Layer, _Layer]:
        """The blue and the red interior forest as layers of this forest:
        each drops the support vertices of its color with their neighbors.
        "Support vertex" is read as adjacency-to-a-leaf. The shelling, the
        type and the report read the sides off these, in this forest's
        indices; ``interiors`` and ``sides`` are their label view."""
        g = self.forest.graph
        adj, blue = g.adj, self._blue
        support = [False] * g.n
        for nb in adj:
            if len(nb) == 1:
                support[nb[0]] = True
        layers = []
        for name, color in (("blue", True), ("red", False)):
            dropped = []
            for i in compress(range(g.n), support):
                if blue[i] == color:
                    dropped.append(i)
                    dropped.extend(adj[i])
            layer = _Layer(g, blue, name, dropped)
            if layer.parts and not layer.balanced:
                raise TheoremViolation("interior component is not balanced")
            layers.append(layer)
        return tuple(layers)

    @_fact
    def interiors(self) -> InteriorGraphs:
        """Both interior graphs (``interior_graphs``)."""
        blue, red = self.interior_layers
        return InteriorGraphs(
            blue=blue.forest(),
            red=red.forest(),
            deleted_for_blue=blue.dropped(),
            deleted_for_red=red.dropped(),
        )

    @_fact
    def sides(self) -> tuple[Analysis, Analysis]:
        """Analyses of the blue and the red interior forest, the label view
        of ``interior_layers``: each reads its layer's heights, and its
        ``components`` are its layer's."""
        interiors = self.interiors
        out = []
        for forest, layer in zip((interiors.blue, interiors.red), self.interior_layers):
            side = Analysis(forest, side=layer.side)
            side._layer = layer
            side.height = list(compress(layer.height, layer.keep))
            out.append(side)
        return tuple(out)

    @_fact
    def certificate(self) -> UnmixedCertificate:
        """The interior-graph unmixedness test (``is_unmixed_fast``)."""
        blue, red = self.interior_layers
        return UnmixedCertificate(blue.unmixed() and red.unmixed(),
                                  lambda: blue.checks() + red.checks())

    @_fact
    def characterization(self) -> UnmixedCertificate:
        """The test for a balanced tree (``characterize_balanced_unmixed``)."""
        if not self.balanced:
            raise NotBalancedError("characterization requires a balanced tree")
        layer = self._tree_layer()
        return UnmixedCertificate(layer.unmixed(), layer.checks)

    @_fact
    def support_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per support in index (so label) order, as indices of the
        forest's graph: its unique height-2 partner, then its leaves in
        index order; empty at height 0 or 1. Raises MixedTreeError unless
        the tree is unmixed balanced, and TheoremViolation when its height
        is not 0, 1 or 3 or a support has no unique partner."""
        if not self.characterization.unmixed:
            raise MixedTreeError("support rows require an unmixed balanced tree")
        height = self.height
        h = max(height, default=0)
        if h <= 1:
            return ()
        if h != 3:
            raise TheoremViolation(f"unmixed balanced tree of height {h} should not exist")
        g = self.forest.graph
        rows = []
        for s, nb in enumerate(g.adj):
            if height[s] == 1:
                partners = [w for w in nb if height[w] == 2]
                if len(partners) != 1:
                    raise TheoremViolation(
                        f"support {g.labels[s]!r} has {len(partners)} height-2 partners"
                    )
                rows.append((partners[0], *[w for w in nb if height[w] == 0]))
        return tuple(rows)

    def require_edge(self) -> None:
        """Raise InputError on the one-vertex tree, the one tree with no
        total dominating set: its N(G) is the unit ideal, so it has neither
        a stable complex to shell nor a Cohen-Macaulay type."""
        if self.forest.graph.n == 1:
            raise InputError(
                "the one-vertex tree has no total dominating set (N(G) is the unit ideal)"
            )

    def td_family(self, cap: int | None = None) -> MinimalSetFamily:
        """The minimal TD-sets at ``cap``: the same family, or the same
        EnumerationCapExceeded, on every call."""
        outcome = self._td_families.get(cap)
        if outcome is None:
            try:
                outcome = minimal_td_sets(self.forest, cap=cap)
            except EnumerationCapExceeded as exc:
                outcome = exc.with_traceback(None)  # its frames would hold self
            self._td_families[cap] = outcome
        if isinstance(outcome, EnumerationCapExceeded):
            raise EnumerationCapExceeded(*outcome.args)
        return outcome
