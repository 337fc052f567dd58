"""Artinian reductions of odd neighborhood ideals and the Cohen-Macaulay type.

For an unmixed balanced height-3 tree the regular sequence identifies each
leaf with the height-2 partner of its support, collapsing the odd
neighborhood ideal to an ideal in one variable per support that contains the
pure powers u_i^{|N(s_i)|}. Its socle dimension equals the number of minimal
V3-TD-sets, which multiplies across components and across the two interior
forests to give the type of the full tree's open neighborhood ideal.

A reduction is held as a pure power per support row and a square-free row
bitmask per height-3 vertex. Its socle is counted as the corners of its
staircase, which are row sets: the maximal sets of rows with p_i >= 2 that
contain no generator mask. The labelled monomial ideals are built only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .domination import MinimalSetFamily, _minimal_s_td_family
from .errors import MixedTreeError, TheoremViolation
from .graphs import Forest, Tree, VertexSet, _bit_indices, vset
from .ideals import (
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    validate_decomposition,
)
from .unmixed import Analysis


@dataclass(frozen=True)
class ArtinianReduction:
    """Result of quotienting by the leaf-identification regular sequence,
    held as label rows and row bitmasks.

    Each row collapses onto its first vertex, the row's variable, whose
    pure power is the row length; each height-3 vertex gives the
    square-free monomial of the rows its neighbors lie in, as a bitmask
    over the row indices. The labelled ideals are built from these on
    first read.
    """

    rows: tuple[VertexSet, ...]
    masks: tuple[int, ...]

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return vset(row[0] for row in self.rows)

    @cached_property
    def pure_powers(self) -> MonomialIdeal:
        return MonomialIdeal.from_gens(
            self.variables, [Monomial.from_dict({row[0]: len(row)}) for row in self.rows]
        )

    @cached_property
    def ideal(self) -> MonomialIdeal:
        """Contains a pure power of every variable."""
        rows = self.rows
        gens = list(self.pure_powers.gens)
        for m in self.masks:
            gens.append(Monomial.of(*(rows[i][0] for i in _bit_indices(m))))
        return MonomialIdeal.from_gens(self.variables, gens)

    @cached_property
    def substitution(self) -> tuple[tuple[str, str], ...]:
        """Each even vertex with its surviving variable."""
        return tuple(sorted((w, row[0]) for row in self.rows for w in row))

    def substitution_map(self) -> dict[str, str]:
        return dict(self.substitution)


def artinian_reduction(t: Tree | Analysis) -> ArtinianReduction:
    """Reduce the odd neighborhood ideal of an unmixed balanced tree. At
    height 3 each support row (``Analysis.support_rows``) collapses onto its
    partner u, whose pure power is the row length |N(s)|; at height 0 or 1
    the leaves collapse onto the first, as one row."""
    facts = Analysis.of(t)
    rows = facts.support_rows
    height = facts.height
    g = facts.forest.graph
    labels = g.labels
    if not rows:  # height 0 or 1
        leaves = tuple([v for v, h in zip(labels, height) if h == 0])
        return ArtinianReduction(rows=(leaves,), masks=())
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
    return ArtinianReduction(
        rows=tuple([tuple([labels[w] for w in row]) for row in rows]), masks=tuple(masks)
    )


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
    if facts.forest.graph.n and not facts.balanced:
        raise MixedTreeError("V3 domination targets are defined on balanced forests")
    v3 = [i for i, h in enumerate(facts.height) if h == 3]
    return _minimal_s_td_family(facts.forest.graph, v3, cap)


def parametric_decomposition(a: ArtinianReduction, t: Tree | Analysis) -> PrimeDecomposition:
    """Express the reduced ideal ``a`` of ``t`` as an intersection over the
    minimal V3-TD-sets of ``t``.

    Components are the variable primes of the V3-TD-sets shifted by the
    shared pure-power ideal; ``validate_decomposition`` checks irredundancy
    and equality with the reduced ideal exactly, by duality, and surfaces a
    mismatch as a theorem violation.
    """
    subst = a.substitution_map()
    supports = tuple([vset([subst[v] for v in d]) for d in minimal_v3_td_sets(t)])
    dec = PrimeDecomposition(
        variables=a.variables, supports=tuple(sorted(supports)), pure_powers=a.pure_powers
    )
    validate_decomposition(dec, a.ideal)
    return dec


# ---------------------------------------------------------------------------
# Type report
# ---------------------------------------------------------------------------

def _component_depth(height: list[int]) -> int:
    n0 = height.count(0)
    if max(height, default=0) == 1:
        return n0 - 1
    return n0


@dataclass(frozen=True)
class TypeReport:
    cm_type: int
    m_blue: int
    m_red: int
    depth: int
    dim: int
    blue_family: MinimalSetFamily
    red_family: MinimalSetFamily
    socle_blue: int
    socle_red: int
    # the reduction of each interior component, in component order
    blue_reductions: tuple[ArtinianReduction, ...] = ()
    red_reductions: tuple[ArtinianReduction, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "type": self.cm_type,
            "m_blue": self.m_blue,
            "m_red": self.m_red,
            "depth": self.depth,
            "dim": self.dim,
            "blue_v3_td_sets": [list(s) for s in self.blue_family.sets],
            "red_v3_td_sets": [list(s) for s in self.red_family.sets],
            "socle_blue": self.socle_blue,
            "socle_red": self.socle_red,
        }


def _forest_side(side: Analysis):
    """(socle product, depth sum, reductions) for one interior forest."""
    socle = 1
    depth = 0
    reductions = []
    for comp in side.components:
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
    blue, red = facts.sides
    blue_family = minimal_v3_td_sets(blue, cap=cap)
    red_family = minimal_v3_td_sets(red, cap=cap)
    socle_blue, depth_blue, blue_reductions = _forest_side(blue)
    socle_red, depth_red, red_reductions = _forest_side(red)
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
