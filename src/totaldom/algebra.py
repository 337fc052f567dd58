"""Artinian reductions of odd neighborhood ideals and the Cohen-Macaulay type.

For an unmixed balanced height-3 tree the regular sequence identifies each
leaf with the height-2 partner of its support, collapsing the odd
neighborhood ideal to an ideal in one variable per support that contains the
pure powers u_i^{|N(s_i)|}. Its socle dimension equals the number of minimal
V3-TD-sets, which multiplies across components and across the two interior
forests to give the type of the full tree's open neighborhood ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .domination import MinimalSetFamily, minimal_s_td_sets
from .errors import EnumerationCapExceeded, MixedTreeError, TheoremViolation
from .graphs import Forest, HeightMap, Tree, vset
from .ideals import (
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    validate_decomposition,
)
from .unmixed import Analysis

SOCLE_BOX_CAP = 10**7


@dataclass(frozen=True)
class ArtinianReduction:
    """Result of quotienting by the leaf-identification regular sequence."""

    height: int
    variables: tuple[str, ...]
    ideal: MonomialIdeal  # contains a pure power of every variable
    pure_powers: MonomialIdeal
    substitution: tuple[tuple[str, str], ...]  # even vertex -> surviving variable

    def substitution_map(self) -> dict[str, str]:
        return dict(self.substitution)


def artinian_reduction(t: Tree | Analysis) -> ArtinianReduction:
    """Reduce the odd neighborhood ideal of an unmixed balanced tree. At
    height 3 each support row (``Analysis.support_rows``) collapses onto its
    partner u, whose pure power is the row length |N(s)|."""
    facts = Analysis.of(t)
    rows = facts.support_rows
    hmap = facts.heights
    h = hmap.graph_height()
    g = facts.forest.graph

    if h <= 1:
        # the leaves (at height 0, the one vertex) collapse onto the first
        leaves = hmap.level(0)
        rep = leaves[0]
        ideal = MonomialIdeal.from_gens((rep,), [Monomial.from_dict({rep: len(leaves)})])
        return ArtinianReduction(
            height=h,
            variables=(rep,),
            ideal=ideal,
            pure_powers=ideal,
            substitution=tuple((v, rep) for v in leaves),
        )

    subst: dict[str, str] = {}
    powers: dict[str, int] = {}
    for row in rows:
        u = row[0]
        powers[u] = len(row)
        for w in row:
            subst[w] = u
    variables = vset(powers)
    gens = [Monomial.from_dict({u: k}) for u, k in powers.items()]
    pure = MonomialIdeal.from_gens(variables, gens)
    for r in hmap.level(3):
        gens.append(Monomial.of(*sorted({subst[w] for w in g.neighbors(r)})))
    ideal = MonomialIdeal.from_gens(variables, gens)
    return ArtinianReduction(
        height=3,
        variables=variables,
        ideal=ideal,
        pure_powers=pure,
        substitution=tuple(sorted(subst.items())),
    )


# ---------------------------------------------------------------------------
# Socle oracle
# ---------------------------------------------------------------------------

def _pure_power_bounds(i: MonomialIdeal) -> dict[str, int]:
    bounds: dict[str, int] = {}
    for m in i.gens:
        if len(m.exps) == 1:
            v, e = m.exps[0]
            bounds[v] = min(bounds.get(v, e), e)
    missing = [v for v in i.variables if v not in bounds]
    if missing:
        raise ValueError(
            f"no pure power of {missing} (quotient is not finite-dimensional)"
        )
    return bounds


def socle_dimension(a) -> int:
    """Count the monomials outside the ideal killed by every variable.

    Accepts an ArtinianReduction or a bare MonomialIdeal that contains a
    pure power of each variable; enumerates the finite exponent box. Box
    points are exponent vectors over ``ideal.variables`` and each generator
    is its list of (variable index, exponent) pairs, so membership is a
    componentwise comparison.
    """
    ideal = a.ideal if isinstance(a, ArtinianReduction) else a
    bounds = _pure_power_bounds(ideal)
    variables = ideal.variables
    box = prod(bounds[v] for v in variables)
    if box > SOCLE_BOX_CAP:
        raise EnumerationCapExceeded(f"socle box of size {box} exceeds {SOCLE_BOX_CAP}")
    pos = {v: k for k, v in enumerate(variables)}
    gens = [tuple((pos[v], e) for v, e in m.exps) for m in ideal.gens]

    def inside(x) -> bool:
        return any(all(x[k] >= e for k, e in gen) for gen in gens)

    count = 0
    for x in product(*(range(bounds[v]) for v in variables)):
        if not inside(x) and all(
            inside(x[:k] + (x[k] + 1,) + x[k + 1:]) for k in range(len(x))
        ):
            count += 1
    return count


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
    return minimal_s_td_sets(facts.forest, facts.heights.level(3), cap=cap)


def parametric_decomposition(a: ArtinianReduction, t: Tree | Analysis) -> PrimeDecomposition:
    """Express the reduced ideal ``a`` of ``t`` as an intersection over the
    minimal V3-TD-sets of ``t``.

    Components are the variable primes of the V3-TD-sets shifted by the
    shared pure-power ideal; ``validate_decomposition`` checks irredundancy
    and equality with the reduced ideal exactly, by duality, and surfaces a
    mismatch as a theorem violation.
    """
    subst = a.substitution_map()
    supports = tuple(vset(subst[v] for v in d) for d in minimal_v3_td_sets(t))
    dec = PrimeDecomposition(
        variables=a.variables, supports=tuple(sorted(supports)), pure_powers=a.pure_powers
    )
    validate_decomposition(dec, a.ideal)
    return dec


# ---------------------------------------------------------------------------
# Type report
# ---------------------------------------------------------------------------

def _component_depth(hmap: HeightMap) -> int:
    h = hmap.graph_height()
    n0 = len(hmap.level(0))
    if h == 1:
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


def _forest_side(side: Analysis, cap: int | None):
    """(V3 family, socle product, depth sum, reductions) for one interior forest."""
    family = minimal_v3_td_sets(side, cap=cap)
    socle = 1
    depth = 0
    reductions = []
    for comp in side.components:
        reduction = artinian_reduction(comp)
        reductions.append(reduction)
        socle *= socle_dimension(reduction)
        depth += _component_depth(comp.heights)
    return family, socle, depth, tuple(reductions)


def cm_type(t: Tree | Analysis, cap: int | None = None) -> TypeReport:
    """Cohen-Macaulay type of the open neighborhood ideal of an unmixed tree.

    The counting route (minimal V3-TD-sets of the interiors, multiplied) and
    the socle oracle (box enumeration per component, multiplied) must agree;
    disagreement is escalated rather than reported. The one-vertex tree
    raises InputError.
    """
    facts = Analysis.of(t)
    facts.require_edge()
    if not facts.certificate.unmixed:
        raise MixedTreeError("type is defined for unmixed trees only")
    blue, red = facts.sides
    blue_family, socle_blue, depth_blue, blue_reductions = _forest_side(blue, cap)
    red_family, socle_red, depth_red, red_reductions = _forest_side(red, cap)
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
