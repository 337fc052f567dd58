"""Balanced trees, interior graphs, and the polynomial-time unmixedness test.

A tree is unmixed exactly when every component of both interior graphs has
height at most 3, every height-2 vertex has a unique height-1 neighbor, and
every height-1 vertex has at most one height-2 neighbor. The brute-force
counterpart lives in the domination module; the two are cross-checked by the
verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import minimal_s_td_sets, minimal_td_sets
from .errors import NotBalancedError, TheoremViolation
from .graphs import (
    Coloring,
    Forest,
    Tree,
    VertexSet,
    classify_vertices,
    heights,
    two_coloring,
    vset,
)


def is_balanced(f: Forest, coloring: Coloring | None = None) -> bool:
    """No two same-height vertices are adjacent, per component.

    The two equivalent criteria (same height implies same color, all leaves
    share one color) are evaluated as well and must agree; a disagreement
    would falsify the equivalence and is surfaced loudly.
    """
    col = coloring if coloring is not None else two_coloring(f)
    hmap = heights(f)
    g = f.graph
    lab = g.labels
    c1 = all(hmap[lab[i]] != hmap[lab[j]] for i, nb in enumerate(g.adj) for j in nb)
    c2 = True
    c3 = True
    for comp in f.components():
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


@dataclass(frozen=True)
class InteriorGraphs:
    """Induced subforests after deleting each color's support vertices with
    their neighbors, plus the deletion ledgers."""

    blue: Forest
    red: Forest
    deleted_for_blue: VertexSet  # closed neighborhood of the blue supports
    deleted_for_red: VertexSet
    coloring: Coloring


def interior_graphs(t: Tree, coloring: Coloring | None = None) -> InteriorGraphs:
    """Both interior graphs of a tree under the given (default) 2-coloring.

    "Support vertex" is read as adjacency-to-a-leaf, which differs from
    height 1 only on the 2-vertex tree. Every component of either side must
    come out balanced; anything else falsifies the interior lemma.
    """
    col = coloring if coloring is not None else two_coloring(t)
    g = t.graph
    supports = set(classify_vertices(t).supports)

    def one_side(side_labels) -> tuple[Forest, VertexSet]:
        side_supports = [v for v in side_labels if v in supports]
        closed = set(side_supports)
        for v in side_supports:
            closed.update(g.neighbors(v))
        keep = [v for v in g.labels if v not in closed]
        return Forest(g.induced(keep)), vset(closed)

    blue_forest, blue_deleted = one_side(col.blue)
    red_forest, red_deleted = one_side(col.red)
    for side in (blue_forest, red_forest):
        if side.graph.n and not is_balanced(side):
            raise TheoremViolation("interior component is not balanced")
    return InteriorGraphs(
        blue=blue_forest,
        red=red_forest,
        deleted_for_blue=blue_deleted,
        deleted_for_red=red_deleted,
        coloring=col,
    )


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

    def failing(self) -> tuple[ComponentCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json_dict(self) -> dict:
        return {
            "unmixed": self.unmixed,
            "checks": [c.to_json_dict() for c in self.checks],
            "witness": [list(w) for w in self.witness] if self.witness else None,
        }


def _check_component(comp_tree: Tree, side: str) -> ComponentCheck:
    hmap = heights(comp_tree)
    height = hmap.graph_height()
    g = comp_tree.graph
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
        vertices=comp_tree.graph.labels,
        height=height,
        height_ok=height_ok,
        v2_unique_v1_ok=v2_ok,
        v1_at_most_one_v2_ok=v1_ok,
        offending_vertex=offending,
    )


def characterize_balanced_unmixed(t: Tree) -> UnmixedCertificate:
    """Linear-time unmixedness test for a balanced tree."""
    if not is_balanced(t):
        raise NotBalancedError("characterization requires a balanced tree")
    check = _check_component(t, side="self")
    return UnmixedCertificate(unmixed=check.ok, checks=(check,))


def is_unmixed_fast(t: Tree, coloring: Coloring | None = None) -> UnmixedCertificate:
    """Polynomial-time unmixedness test for an arbitrary tree via interiors."""
    interiors = interior_graphs(t, coloring)
    checks = []
    for side, forest in (("blue", interiors.blue), ("red", interiors.red)):
        for comp in forest.component_trees():
            checks.append(_check_component(comp, side=side))
    return UnmixedCertificate(unmixed=all(c.ok for c in checks), checks=tuple(checks))


def mixedness_witness(t: Tree, cap: int | None = None):
    """Two minimal TD-sets of different sizes, or None when unmixed.

    Found by enumeration, so this is the concrete refutation object backing a
    "mixed" verdict at desk scale.
    """
    family = minimal_td_sets(t, cap=cap)
    if family.is_unmixed():
        return None
    smallest = min(family.sets, key=lambda s: (len(s), s))
    largest = max(family.sets, key=lambda s: (len(s), s))
    return (smallest, largest)


# ---------------------------------------------------------------------------
# RD/BD views (S-TD-sets targeted at one color class)
# ---------------------------------------------------------------------------

def minimal_rd_sets(t: Forest, coloring: Coloring | None = None, cap: int | None = None):
    """Minimal sets dominating every red vertex (subsets of the blue class)."""
    col = coloring if coloring is not None else two_coloring(t)
    return minimal_s_td_sets(t, col.red, cap=cap)


def minimal_bd_sets(t: Forest, coloring: Coloring | None = None, cap: int | None = None):
    col = coloring if coloring is not None else two_coloring(t)
    return minimal_s_td_sets(t, col.blue, cap=cap)
