"""Artinian reductions of odd neighborhood ideals and the Cohen-Macaulay type.

For an unmixed balanced height-3 tree the regular sequence identifies each
leaf with the height-2 partner of its support, collapsing the odd
neighborhood ideal to an ideal in one variable per support that contains the
pure powers u_i^{|N(s_i)|}. Its socle dimension equals the number of minimal
V3-TD-sets, which multiplies across components and across the two interior
forests to give the type of the full tree's open neighborhood ideal.

A reduction is held as index data over its component: the support rows
as index tuples, whose lengths are the exponents of the pure powers, and a
square-free mask over the rows per height-3 vertex. Its socle is counted as
the corners of its staircase, which are row sets: the maximal sets of rows
with p_i >= 2 that contain no generator mask. The parametric decomposition
holds its supports as masks over the rows, and the text of the reduced ideal
is rendered from the rows; no labelled monomial is built.
"""

from __future__ import annotations

from functools import cached_property

from .domination import MinimalSetFamily, _minimal_s_td_family
from .errors import MixedTreeError, TheoremViolation
from .graphs import Forest, Graph, Ground, Tree, _bit_indices, _lift, _Record
from .ideals import PrimeDecomposition, _render, validate_decomposition
from .unmixed import Analysis


class ArtinianReduction(_Record):
    """Result of quotienting by the leaf-identification regular sequence,
    held as index data over its component.

    ``labels`` are the component's sorted vertex labels and ``rows`` its
    support rows as index tuples over them, sorted by their first index.
    Each row collapses onto its first vertex, the row's variable, whose
    pure power is the row length; so variable k is row k, and the variables
    are in label order. ``masks`` holds the square-free monomial of each
    height-3 vertex as the mask of the rows its neighbors lie in. The texts
    of the reduced ideal and of its pure powers are rendered from these on
    first read.
    """

    _fields = ("labels", "rows", "masks")

    def __init__(self, labels: tuple[str, ...], rows: tuple[tuple[int, ...], ...],
                 masks: tuple[int, ...]):
        d = self.__dict__
        d["labels"] = labels
        d["rows"] = rows
        d["masks"] = masks

    @cached_property
    def variables(self) -> tuple[str, ...]:
        labels = self.labels
        return tuple([labels[row[0]] for row in self.rows])

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """The exponent of each variable's pure power: its row length."""
        return tuple([len(row) for row in self.rows])

    @cached_property
    def pure_powers(self) -> str:
        """The text of the ideal of the pure powers."""
        return _render(self.variables, self.powers, ())

    @cached_property
    def ideal(self) -> str:
        """The text of the reduced ideal, which contains a pure power of
        every variable."""
        return _render(self.variables, self.powers, self.masks)


def artinian_reduction(t: Tree | Analysis) -> ArtinianReduction:
    """Reduce the odd neighborhood ideal of an unmixed balanced tree. At
    height 3 each support row (``Analysis.support_rows``) collapses onto its
    partner u, whose pure power is the row length |N(s)|; the rows are put
    in the order of their partners. At height 0 or 1 the leaves collapse
    onto the first, as one row."""
    facts = Analysis.of(t)
    rows = sorted(facts.support_rows)
    height = facts.height
    g = facts.forest.graph
    if not rows:  # height 0 or 1
        leaves = tuple([i for i, h in enumerate(height) if h == 0])
        return ArtinianReduction(g.labels, (leaves,), ())
    row_of = [0] * g.n
    for k, row in enumerate(rows):
        for w in row:
            row_of[w] = 1 << k
    masks = []
    for r, h in enumerate(height):
        if h == 3:
            m = 0
            for j in g.adj[r]:
                m |= row_of[j]
            masks.append(m)
    return ArtinianReduction(g.labels, tuple(rows), tuple(masks))


# ---------------------------------------------------------------------------
# Socle dimension
# ---------------------------------------------------------------------------

def _corner_count(start: int, gens) -> int:
    """The number of staircase corners of the ideal of the pure powers
    x_i^p_i and the square-free generators ``gens``, each a bitmask over the
    row indices, taken in the given order (smallest degree first keeps the
    corner family small).

    A corner is an exponent vector a outside the ideal with a + e_i inside
    it for every i. The pure powers leave one, p - 1, and a split only sets
    an entry to 0, so every corner has each entry at 0 or at p_i - 1 and is
    held as the mask of its nonzero rows, starting from ``start``, the rows
    with p_i >= 2. A generator g takes in the corners that contain it; each
    of them splits into the sets with one bit of g removed, and the
    contained ones are dropped. The corners are an antichain, so the split
    sets of one bit are too, and a split set of a bit can be contained only
    in a corner that g leaves and that lacks the bit: each is tested
    against those alone.
    """
    corners = [start]
    for g in gens:
        split = [a for a in corners if a & g == g]
        if not split:
            continue
        kept = [a for a in corners if a & g != g]
        corners = kept.copy()
        for i in _bit_indices(g):
            bit = 1 << i
            blockers = [c for c in kept if not c & bit]
            for s in split:
                a = s ^ bit
                for c in blockers:
                    if c & a == a:
                        break
                else:
                    corners.append(a)
    return len(corners)


def socle_dimension(a: ArtinianReduction) -> int:
    """The socle dimension of the Artinian quotient of a reduction: the
    number of corners of its staircase (Miller & Sturmfels, Combinatorial
    Commutative Algebra, Ch. 5).

    The socle of S/I is spanned by the monomials x^a outside I that every
    variable takes into I, the corners; x^(a+1) are the irreducible
    components of I, one per corner. Every corner is x^(p-1) on a row set,
    and the corners are the maximal row sets that contain no generator
    mask, among the rows with p_i >= 2. They are counted by splitting
    corners on each generator in turn (``_corner_count``), so the cost
    follows the corners found, not the exponent box.

    There is no cap: ``cm_type`` counts corners only after the V3-TD-sets,
    whose number the socle must equal, have fit under its cap. Before the
    last generator the corner family can be larger than the final count
    (on 30 of the 2287 interior components of the corpora README's cost
    table names, by up to 8), so a cap on it would refuse types that the
    capped count reports. ``tests/oracles.py`` keeps the walk over the
    exponent box and the count on exponent vectors.
    """
    start = sum(1 << i for i, row in enumerate(a.rows) if len(row) > 1)
    return _corner_count(start, sorted(a.masks, key=int.bit_count))


# ---------------------------------------------------------------------------
# Parametric decomposition
# ---------------------------------------------------------------------------

def minimal_v3_td_sets(f: Forest | Analysis, cap: int | None = None) -> MinimalSetFamily:
    """Minimal S-TD-sets with S the height-3 vertices of a balanced forest.

    With no height-3 vertices the empty set is the unique member; across
    components the family is the cross product of the component families.
    """
    facts = Analysis.of(f)
    g = facts.forest.graph
    if g.n and not facts.balanced:
        raise MixedTreeError("V3 domination targets are defined on balanced forests")
    return _v3_family(g, g.adj, facts.height, cap)


def _v3_family(g: Graph, adj, height: list[int], cap: int | None) -> MinimalSetFamily:
    """The minimal S-TD-sets over the neighbor lists ``adj`` by index of
    ``g``, with S the indices of height 3 in ``height`` (a vertex left out
    has height -1). ``cm_type`` passes an interior layer's lists and
    heights over the tree's indices: a side's index k is the k-th kept
    tree index, an increasing map, so the engine meets the same edges in
    the same order as on the interior forest, trips a cap at the same edge
    and finds the same label sets."""
    v3 = [i for i, h in enumerate(height) if h == 3]
    return _minimal_s_td_family(g, v3, cap, adj)


def parametric_decomposition(a: ArtinianReduction, t: Tree | Analysis) -> PrimeDecomposition:
    """Express the reduced ideal ``a`` of ``t`` as an intersection over the
    minimal V3-TD-sets of ``t``.

    Components are the variable primes of the V3-TD-sets shifted by the
    shared pure-power ideal: each set collapses onto the mask of the rows
    its vertices lie in, over a ``Ground`` of the variables.
    ``validate_decomposition`` checks irredundancy and equality with the
    reduced ideal exactly, by duality on these masks, and surfaces a
    mismatch as a theorem violation.
    """
    row_of = [0] * len(a.labels)
    for k, row in enumerate(a.rows):
        for w in row:
            row_of[w] = k
    supports = sorted([_lift(d, row_of) for d in minimal_v3_td_sets(t).masks])
    dec = PrimeDecomposition(Ground(a.variables), tuple(supports), a.powers)
    validate_decomposition(dec, a)
    return dec


# ---------------------------------------------------------------------------
# Type report
# ---------------------------------------------------------------------------

def _component_depth(height: list[int]) -> int:
    n0 = height.count(0)
    if max(height, default=0) == 1:
        return n0 - 1
    return n0


class TypeReport(_Record):
    """The CM-type with its factors; ``blue_family`` and ``red_family`` hold
    the minimal V3-TD-sets of each interior forest as masks over the tree's
    indices, and ``blue_reductions`` and ``red_reductions`` the reduction of
    each interior component, in component order."""

    _fields = ("cm_type", "m_blue", "m_red", "depth", "dim", "blue_family", "red_family",
               "socle_blue", "socle_red", "blue_reductions", "red_reductions")

    def __init__(self, cm_type: int, m_blue: int, m_red: int, depth: int, dim: int,
                 blue_family: MinimalSetFamily, red_family: MinimalSetFamily,
                 socle_blue: int, socle_red: int,
                 blue_reductions: tuple[ArtinianReduction, ...] = (),
                 red_reductions: tuple[ArtinianReduction, ...] = ()):
        d = self.__dict__
        d["cm_type"] = cm_type
        d["m_blue"] = m_blue
        d["m_red"] = m_red
        d["depth"] = depth
        d["dim"] = dim
        d["blue_family"] = blue_family
        d["red_family"] = red_family
        d["socle_blue"] = socle_blue
        d["socle_red"] = socle_red
        d["blue_reductions"] = blue_reductions
        d["red_reductions"] = red_reductions


def _forest_side(components: tuple[Analysis, ...]):
    """(socle product, depth sum, reductions) over the components of one
    interior forest."""
    socle = 1
    depth = 0
    reductions = []
    for comp in components:
        reduction = artinian_reduction(comp)
        reductions.append(reduction)
        socle *= socle_dimension(reduction)
        depth += _component_depth(comp.height)
    return socle, depth, tuple(reductions)


def cm_type(t: Tree | Analysis, cap: int | None = None) -> TypeReport:
    """Cohen-Macaulay type of the open neighborhood ideal of an unmixed tree.

    The counting route (minimal V3-TD-sets of the interiors, multiplied) and
    the socle (staircase corners of each component's Artinian reduction,
    multiplied) must agree; disagreement is escalated rather than reported.
    Only the counting route is capped, and the corners are counted after
    both of its families have fit. The one-vertex tree raises InputError.
    """
    facts = Analysis.of(t)
    facts.require_edge()
    if not facts.certificate.unmixed:
        raise MixedTreeError("type is defined for unmixed trees only")
    g = facts.forest.graph
    blue, red = facts.interior_layers
    blue_family = _v3_family(g, blue.nbrs, blue.height, cap)
    red_family = _v3_family(g, red.nbrs, red.height, cap)
    socle_blue, depth_blue, blue_reductions = _forest_side(blue.component_facts())
    socle_red, depth_red, red_reductions = _forest_side(red.component_facts())
    m_blue, m_red = len(blue_family), len(red_family)
    if (m_blue, m_red) != (socle_blue, socle_red):
        raise TheoremViolation(
            f"V3-TD-set counts ({m_blue},{m_red}) disagree with socle "
            f"dimensions ({socle_blue},{socle_red})"
        )
    depth = depth_blue + depth_red
    return TypeReport(
        cm_type=m_blue * m_red,
        m_blue=m_blue,
        m_red=m_red,
        depth=depth,
        dim=depth,
        blue_family=blue_family,
        red_family=red_family,
        socle_blue=socle_blue,
        socle_red=socle_red,
        blue_reductions=blue_reductions,
        red_reductions=red_reductions,
    )
