"""Balanced trees, interior graphs, and the polynomial-time unmixedness test.

A tree is unmixed exactly when every component of both interior graphs has
height at most 3, every height-2 vertex has a unique height-1 neighbor, and
every height-1 vertex has at most one height-2 neighbor. The brute-force
counterpart lives in the domination module; the two are cross-checked by the
verification suite. ``Analysis`` holds these facts for one request.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import MinimalSetFamily, minimal_td_sets
from .errors import EnumerationCapExceeded, NotBalancedError, TheoremViolation
from .graphs import (
    Classification,
    Coloring,
    Forest,
    HeightMap,
    Tree,
    VertexSet,
    classify_vertices,
    heights,
    two_coloring,
    vset,
)


def is_balanced(f: Forest | Analysis) -> bool:
    """No two same-height vertices are adjacent, per component.

    The two equivalent criteria (same height implies same color, all leaves
    share one color) are evaluated as well and must agree; a disagreement
    would falsify the equivalence and is surfaced loudly.
    """
    return Analysis.of(f).balanced


@dataclass(frozen=True)
class InteriorGraphs:
    """Induced subforests after deleting each color's support vertices with
    their neighbors, plus the deletion ledgers."""

    blue: Forest
    red: Forest
    deleted_for_blue: VertexSet  # closed neighborhood of the blue supports
    deleted_for_red: VertexSet
    coloring: Coloring


def interior_graphs(t: Tree | Analysis) -> InteriorGraphs:
    """Both interior graphs of a tree under its analysis's 2-coloring (the
    default one unless the Analysis was given another).

    "Support vertex" is read as adjacency-to-a-leaf, which differs from
    height 1 only on the 2-vertex tree. Every component of either side must
    come out balanced; anything else falsifies the interior lemma.
    """
    return Analysis.of(t).interiors


# ---------------------------------------------------------------------------
# The descriptive characterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentCheck:
    """Checklist for one balanced component: height bound plus the two local
    matching conditions between heights 1 and 2."""

    side: str  # "blue", "red", or "self"
    vertices: VertexSet
    height: int
    height_ok: bool
    v2_unique_v1_ok: bool
    v1_at_most_one_v2_ok: bool
    offending_vertex: str | None

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


@dataclass(frozen=True)
class UnmixedCertificate:
    unmixed: bool
    checks: tuple[ComponentCheck, ...]
    witness: tuple[VertexSet, VertexSet] | None = None

    def to_json_dict(self) -> dict:
        return {
            "unmixed": self.unmixed,
            "checks": [c.to_json_dict() for c in self.checks],
            "witness": [list(w) for w in self.witness] if self.witness else None,
        }


def _check_component(comp: Tree | Analysis, side: str) -> ComponentCheck:
    """The checklist of one component tree, read off its Analysis when given
    one, so that the heights it reads are the ones the request shares."""
    facts = Analysis.of(comp)
    hmap = facts.heights
    height = hmap.graph_height()
    g = facts.forest.graph
    v1 = set(hmap.level(1))
    v2 = set(hmap.level(2))
    offending = None
    height_ok = height <= 3
    v2_ok = True
    for v in sorted(v2):
        if sum(1 for w in g.neighbors(v) if w in v1) != 1:
            v2_ok = False
            offending = offending or v
    v1_ok = True
    for v in sorted(v1):
        if sum(1 for w in g.neighbors(v) if w in v2) > 1:
            v1_ok = False
            offending = offending or v
    if not height_ok and offending is None:
        offending = min(hmap.level(height))
    return ComponentCheck(
        side=side,
        vertices=g.labels,
        height=height,
        height_ok=height_ok,
        v2_unique_v1_ok=v2_ok,
        v1_at_most_one_v2_ok=v1_ok,
        offending_vertex=offending,
    )


def characterize_balanced_unmixed(t: Tree | Analysis) -> UnmixedCertificate:
    """Linear-time unmixedness test for a balanced tree."""
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


class Analysis:
    """The facts one request reads about one tree or forest.

    Each fact is computed on its first read and kept on this object, which
    the request drops with its report. Nothing is stored on the tree, in a
    module or in a cache keyed by trees, so no fact outlives its request and
    a function patched between two requests is seen by the second.
    ``is_unmixed_fast``, ``stable_shelling``, ``cm_type`` and the functions
    they call take an Analysis wherever they take the tree (through
    ``Analysis.of``), so one request computes each fact once.

    ``coloring`` replaces the default ``two_coloring`` of the forest; this
    is the one place a coloring enters. ``side`` is "blue" or "red" for an
    interior forest and its components (it labels their component checks)
    and "self" otherwise.
    """

    def __init__(self, forest: Forest, coloring: Coloring | None = None, side: str = "self"):
        self.forest = forest
        self.side = side
        if coloring is not None:
            self.coloring = coloring
        self._td_families: dict = {}

    @classmethod
    def of(cls, t: Forest | Analysis) -> Analysis:
        """``t`` itself when it is an Analysis, else a new one of the forest ``t``."""
        return t if isinstance(t, Analysis) else cls(t)

    @_fact
    def heights(self) -> HeightMap:
        return heights(self.forest)

    @_fact
    def coloring(self) -> Coloring:
        return two_coloring(self.forest)

    @_fact
    def classification(self) -> Classification:
        return classify_vertices(self.forest)

    @_fact
    def balanced(self) -> bool:
        """The three balancedness criteria, which must agree (``is_balanced``)."""
        col = self.coloring
        hmap = self.heights
        g = self.forest.graph
        lab = g.labels
        c1 = all(hmap[lab[i]] != hmap[lab[j]] for i, nb in enumerate(g.adj) for j in nb)
        c2 = True
        c3 = True
        for comp in self.forest.components():
            by_height: dict[int, set[str]] = {}
            leaf_colors = set()
            for v in comp:
                by_height.setdefault(hmap[v], set()).add(col.color_of(v))
                if g.degree(v) <= 1:
                    leaf_colors.add(col.color_of(v))
            if any(len(cols) > 1 for cols in by_height.values()):
                c2 = False
            if len(leaf_colors) > 1:
                c3 = False
        if not (c1 == c2 == c3):
            raise TheoremViolation(
                f"balancedness criteria disagree: adjacency={c1}, colors={c2}, leaves={c3}"
            )
        return c1

    @_fact
    def component_trees(self) -> tuple[Tree, ...]:
        return self.forest.component_trees()

    @_fact
    def component_checks(self) -> tuple[ComponentCheck, ...]:
        """The checklist of each component tree, labelled with this side."""
        return tuple(c.check for c in self.components)

    @_fact
    def components(self) -> tuple[Analysis, ...]:
        """Analyses of the component trees. A height is the distance to the
        nearest leaf of the vertex's own component, so each component's
        heights are the forest's restricted to it; the criteria hold per
        component, so those of a balanced forest are balanced."""
        height = self.heights.as_dict()
        comps = tuple(Analysis(t, side=self.side) for t in self.component_trees)
        balanced = bool(comps) and self.balanced
        for c in comps:
            c.heights = HeightMap({v: height[v] for v in c.forest.graph.labels})
            if balanced:
                c.balanced = True
        return comps

    @_fact
    def _interior(self) -> tuple[InteriorGraphs, tuple[Analysis, Analysis]]:
        col = self.coloring
        g = self.forest.graph
        supports = set(self.classification.supports)

        def one_side(side_labels, name: str) -> tuple[Analysis, VertexSet]:
            side_supports = [v for v in side_labels if v in supports]
            closed = set(side_supports)
            for v in side_supports:
                closed.update(g.neighbors(v))
            keep = [v for v in g.labels if v not in closed]
            return Analysis(Forest(g.induced(keep)), side=name), vset(closed)

        blue, blue_deleted = one_side(col.blue, "blue")
        red, red_deleted = one_side(col.red, "red")
        for side in (blue, red):
            if side.forest.graph.n and not side.balanced:
                raise TheoremViolation("interior component is not balanced")
        interiors = InteriorGraphs(
            blue=blue.forest,
            red=red.forest,
            deleted_for_blue=blue_deleted,
            deleted_for_red=red_deleted,
            coloring=col,
        )
        return interiors, (blue, red)

    @property
    def interiors(self) -> InteriorGraphs:
        """Both interior graphs (``interior_graphs``)."""
        return self._interior[0]

    @property
    def sides(self) -> tuple[Analysis, Analysis]:
        """Analyses of the blue and the red interior forest."""
        return self._interior[1]

    @_fact
    def check(self) -> ComponentCheck:
        """The height and matching checklist of this tree, labelled with its side."""
        return _check_component(self, side=self.side)

    @_fact
    def certificate(self) -> UnmixedCertificate:
        """The interior-graph unmixedness test (``is_unmixed_fast``)."""
        checks = tuple(check for side in self.sides for check in side.component_checks)
        return UnmixedCertificate(unmixed=all(c.ok for c in checks), checks=checks)

    @_fact
    def characterization(self) -> UnmixedCertificate:
        """The test for a balanced tree (``characterize_balanced_unmixed``)."""
        if not self.balanced:
            raise NotBalancedError("characterization requires a balanced tree")
        return UnmixedCertificate(unmixed=self.check.ok, checks=(self.check,))

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
