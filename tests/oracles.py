"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's transversal engine and canonical
forms: domination facts come from raw subset enumeration, isomorphism from
permutation backtracking, heights from per-vertex searches. Label-level
helpers beside them give vertex degrees, the edges as label pairs, the
height levels of a label -> height dict and the support rows on labels.
Expected values frozen in the tests were computed with these.

The label twins of the package's ideals follow: ``Monomial`` with
``minimalize`` and ``grlex_key``, ``LabelIdeal`` (``from_gens``, ``unit``
and ``AmbientMismatchError`` for a generator outside the variables), the
codecs between them and the package's index objects (``label_ideal``,
``squarefree_ideal``, ``label_decomposition``) and the reduced ideal, pure
powers and substitution of an Artinian reduction built as labels.

The middle section holds second routes to objects the package computes
(colorings, selectors, shellings, facet vectors on labels, the Analyses of
the interior forests, the join order
of ``stable_shelling`` lifted from interior forests through labels,
parametric supports, edge and odd neighborhood ideals) that the package itself does
not need, the pairwise shelling scan that restriction sets replaced, and
the label-form complex builder (deduplication, ground check and pairwise
maximality filter), shelling check and purity test of a complex, which the
package computes on facet masks only.

A third section reads the text formats the package only writes: the
ideal text and construction traces, each with the input checks the
package once applied.

The last section keeps the earlier, straightforward versions of the
near-linear polynomial paths (recursive AHU codes, the graph core on
per-vertex sets, dicts and sorts, whisker growth and
peeling by whole-tree rebuilds, N(G) minimalized against every kept
generator, the interior-graph test through a Tree per component), of the
transversal engine (a Berge round that minimalizes every candidate against
every other), of the Stanley-Reisner sweep (faces tested as label sets), of
the socle count (a walk over the exponent box, and corners split as
exponent vectors rather than row sets), of the re-expansion of
a decomposition (sums and intersections of ideals through lcms of exponent
dicts, which the package no longer has) and of the seeded inputs of
``verify`` (Prufer trees through ``Tree.from_edges``, sample corpora read
through label -> height dicts and label-keyed distances, and the
distance-4 test on each edge subdivision) and of the
package's own tree builders (label edge lists through ``Tree.from_edges``,
induced subgraphs on label sets) as references for differential tests.
"""

from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress, product
from math import prod

from totaldom.complexes import (
    ShellingCheck,
    ShellingOrder,
    SimplicialComplex,
    _composed_order,
    _facet_vector_order,
    verify_shelling,
)
from totaldom.construct import (
    _KIND_BY_HEIGHT,
    _WHISKER_HEIGHTS,
    KIND_LEAF,
    KIND_WHISKER3,
    KIND_WHISKER4,
    ConstructionTrace,
    TraceStep,
    apply_o,
    base_tree,
    edge_subdivision,
    fresh_labels,
    generate,
    leaf_normalize,
)
from totaldom.domination import _minimalize_masks, minimal_transversals
from totaldom.errors import (
    EdgeListParseError,
    EnumerationCapExceeded,
    InputError,
    MixedTreeError,
    NotAForestError,
    NotBalancedError,
    NotSquareFreeError,
    TheoremViolation,
    TotaldomError,
)
from totaldom.graphs import (
    Classification,
    Coloring,
    Forest,
    Graph,
    Ground,
    Tree,
    _graph_of,
    _lift,
    _Record,
    branch,
    classify_vertices,
    heights,
    is_isomorphic,
    path_graph,
    two_coloring,
    vset,
)
from totaldom.ideals import MonomialIdeal, PrimeDecomposition
from totaldom.treegen import Lcg64, _tree_labels
from totaldom.unmixed import (
    Analysis,
    ComponentCheck,
    InteriorGraphs,
    UnmixedCertificate,
    characterize_balanced_unmixed,
    interior_graphs,
    is_balanced,
)
from totaldom.verify import _spider


def neighbor_masks(g: Graph) -> list[int]:
    """N(v) as a bitmask over ``g``, per vertex index, built through the
    labels of its neighbors."""
    return [g.mask_of(g.neighbors(v)) for v in g.labels]


def neighborhood_by_scan(g: Graph, subset) -> tuple[str, ...]:
    out = set()
    for v in subset:
        out.update(g.neighbors(v))
    return vset(out)


def minimal_s_td_by_subsets(g: Graph, subset, target) -> bool:
    """D is S-TD and no co-singleton subset is S-TD (co-singletons suffice
    by monotonicity)."""
    target = set(target)

    def is_td(d) -> bool:
        return target <= set(neighborhood_by_scan(g, d))

    return is_td(subset) and all(not is_td(tuple(set(subset) - {v})) for v in subset)


def minimal_td_sets_by_subsets(g: Graph, target=None) -> tuple[tuple[str, ...], ...]:
    """Minimal S-TD-sets: every subset that passes ``minimal_s_td_by_subsets``."""
    target = g.labels if target is None else target
    out = []
    for k in range(g.n + 1):
        for combo in combinations(g.labels, k):
            if minimal_s_td_by_subsets(g, combo, target):
                out.append(vset(combo))
    return tuple(sorted(out))


def family_readers_by_labels(sets) -> tuple:
    """``MinimalSetFamily``'s sizes, unmixed verdict and witness read off
    label tuples: the witness pairs the first of the smallest size with the
    last of the largest in (size, tuple) order."""
    sizes = tuple(sorted({len(s) for s in sets}))
    if len(sizes) <= 1:
        return sizes, True, None
    by_size = sorted(sets, key=lambda s: (len(s), s))
    return sizes, False, (by_size[0], by_size[-1])


def minimal_by_definition(g: Graph, subset) -> bool:
    """No proper subset has the same open neighborhood (co-singletons suffice
    by monotonicity)."""
    nd = neighborhood_by_scan(g, subset)
    return all(
        neighborhood_by_scan(g, tuple(set(subset) - {v})) != nd for v in subset
    )


def degree(g: Graph, v: str) -> int:
    """The number of neighbors of the vertex ``v``."""
    return len(g.adj[g.index[v]])


def label_edges(g: Graph) -> tuple[tuple[str, str], ...]:
    """The edges as label pairs (a, b) with a < b, in label order: the
    label view of the neighbor lists, which the package writes from its
    indices."""
    labels = g.labels
    return tuple([(labels[i], labels[j]) for i, nb in enumerate(g.adj) for j in nb if i < j])


def level(hmap: dict[str, int], k: int) -> tuple[str, ...]:
    """The labels of height ``k`` in a label -> height dict, sorted."""
    return vset(v for v, h in hmap.items() if h == k)


def even_heights(hmap: dict[str, int]) -> tuple[str, ...]:
    """The labels of even height in a label -> height dict, sorted."""
    return vset(v for v, h in hmap.items() if h % 2 == 0)


def odd_heights(hmap: dict[str, int]) -> tuple[str, ...]:
    """The labels of odd height in a label -> height dict, sorted."""
    return vset(v for v, h in hmap.items() if h % 2 == 1)


def forest_height(f) -> int:
    """The greatest height of a vertex of the forest ``f``; 0 when empty."""
    return max(heights(f).values(), default=0)


def support_rows_by_labels(facts):
    """``Analysis.support_rows`` on labels, read off ``heights`` of the
    forest with the same checks and messages: per support in label order,
    its unique height-2 partner, then its leaves in label order."""
    if not facts.characterization.unmixed:
        raise MixedTreeError("support rows require an unmixed balanced tree")
    hmap = heights(facts.forest)
    h = max(hmap.values(), default=0)
    if h <= 1:
        return ()
    if h != 3:
        raise TheoremViolation(f"unmixed balanced tree of height {h} should not exist")
    g = facts.forest.graph
    rows = []
    for s in level(hmap, 1):
        nbrs = g.neighbors(s)  # in label order
        partners = [w for w in nbrs if hmap[w] == 2]
        if len(partners) != 1:
            raise TheoremViolation(f"support {s!r} has {len(partners)} height-2 partners")
        rows.append((partners[0], *[w for w in nbrs if hmap[w] == 0]))
    return tuple(rows)


def heights_by_vertex_search(g: Graph) -> dict[str, int]:
    leaves = [v for v in g.labels if degree(g, v) == 1]
    out = {}
    for v in g.labels:
        if degree(g, v) == 0:
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
    out = set()
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            if not ideal_contains(ideal, Monomial.of(*combo)):
                out.add(frozenset(combo))
    return out


def complex_faces(cx) -> set[frozenset[str]]:
    out = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            out.update(frozenset(c) for c in combinations(f, k))
    return out


# ---------------------------------------------------------------------------
# Label monomials and ideals
# ---------------------------------------------------------------------------

class AmbientMismatchError(TotaldomError):
    """A generator or a prime support names a variable outside the ambient
    variable list; raised by the label constructors below."""


class Monomial(_Record):
    """Exponent list sorted by variable name; exponents are positive."""

    _fields = ("exps",)

    def __init__(self, exps: tuple[tuple[str, int], ...]):
        self.__dict__["exps"] = exps

    @classmethod
    def one(cls) -> Monomial:
        return cls(())

    @classmethod
    def of(cls, *variables: str) -> Monomial:
        """Square-free product of the given variables."""
        return cls.from_dict({v: 1 for v in variables})

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> Monomial:
        for v, e in d.items():
            if e < 0:
                raise ValueError(f"negative exponent for {v!r}")
        return cls(tuple(sorted([(v, e) for v, e in d.items() if e > 0])))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple([v for v, _ in self.exps])

    @property
    def is_one(self) -> bool:
        return not self.exps

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def divides(self, other: Monomial) -> bool:
        od = dict(other.exps)
        return all(od.get(v, 0) >= e for v, e in self.exps)

    def render(self) -> str:
        if self.is_one:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def __repr__(self):
        return f"Monomial({self.render()})"


def grlex_key(m: Monomial, variables: tuple[str, ...]):
    """Degree, then the exponent vector over ``variables``, negated."""
    exps = dict(m.exps)
    vec = tuple([-exps.get(v, 0) for v in variables])
    return (m.degree, vec)


def minimalize(gens) -> tuple[Monomial, ...]:
    """Drop every generator divisible by another; dedups equal monomials."""
    kept: list[Monomial] = []
    for m in sorted(set(gens), key=lambda m: (m.degree, m.exps)):
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


class LabelIdeal:
    """The label twin of ``ideals.MonomialIdeal``: an ambient variable list
    and the minimal generators as ``Monomial``s in grlex order, with any
    exponents. ``==`` compares the variables and the generator tuples, so
    it also checks the order."""

    __slots__ = ("variables", "gens")

    def __init__(self, variables: tuple[str, ...], gens: tuple[Monomial, ...]):
        self.variables = variables
        self.gens = gens

    @classmethod
    def from_gens(cls, variables, gens) -> LabelIdeal:
        variables = vset(variables)
        ambient = set(variables)
        gens = minimalize(gens)
        for m in gens:
            stray = [v for v in m.support if v not in ambient]
            if stray:
                raise AmbientMismatchError(f"generator uses unknown variables {stray}")
        return cls(variables, tuple(sorted(gens, key=lambda m: grlex_key(m, variables))))

    @classmethod
    def unit(cls, variables) -> LabelIdeal:
        return cls.from_gens(variables, [Monomial.one()])

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_squarefree(self) -> bool:
        return all(m.is_squarefree for m in self.gens)

    def generator_strings(self) -> list[str]:
        return [m.render() for m in self.gens]

    def render(self) -> str:
        return ", ".join(self.generator_strings()) if self.gens else "0"

    def __eq__(self, other):
        if isinstance(other, MonomialIdeal):
            # never equal by type alone: compare through label_ideal
            raise TypeError("compare a MonomialIdeal with its label_ideal")
        if not isinstance(other, LabelIdeal):
            return NotImplemented
        return (self.variables, self.gens) == (other.variables, other.gens)

    def __hash__(self):
        return hash((self.variables, self.gens))

    def __repr__(self):
        return f"MonomialIdeal<{self.render()}>"


def label_ideal(ideal) -> LabelIdeal:
    """A ``MonomialIdeal`` decoded to its label twin, one ``Monomial`` per
    row; a ``LabelIdeal`` as it is."""
    if isinstance(ideal, LabelIdeal):
        return ideal
    labels = ideal.variables
    gens = [Monomial(tuple([(labels[j], 1) for j in row])) for row in ideal.rows]
    return LabelIdeal(labels, tuple(gens))


def squarefree_ideal(ideal: LabelIdeal) -> MonomialIdeal:
    """A square-free label ideal encoded as a ``MonomialIdeal`` over
    ``Ground(variables)``, each generator's support in label order, so its
    indices are sorted; NotSquareFreeError on an exponent above 1."""
    if not ideal.is_squarefree:
        raise NotSquareFreeError(f"not square-free: {ideal.render()}")
    ground = Ground(ideal.variables)
    index = ground.index
    return MonomialIdeal(ground, tuple([tuple([index[v] for v in m.support]) for m in ideal.gens]))


def label_decomposition(variables, supports, pure_powers=None) -> PrimeDecomposition:
    """A ``PrimeDecomposition`` from label supports, each encoded as a mask
    over ``Ground(variables)`` and kept in sorted label order (so a repeated
    support stays repeated); ``pure_powers`` are the exponents in sorted
    variable order. AmbientMismatchError names the least label of a support
    that is not a variable."""
    ground = Ground(variables)
    masks = []
    for sup in supports:
        stray = sorted(set(sup) - set(ground.labels))
        if stray:
            raise AmbientMismatchError(f"generator uses unknown variables {stray[:1]}")
        masks.append(ground.mask_of(sup))
    return PrimeDecomposition(ground, tuple(sorted(masks)), pure_powers)


def reduction_ideal(red) -> LabelIdeal:
    """The reduced ideal of an ``ArtinianReduction`` built as label
    monomials: the pure power of each row's variable, its row length, and
    the product of the variables of each mask's rows."""
    variables = [red.labels[row[0]] for row in red.rows]
    gens = list(reduction_pure_powers(red).gens)
    for m in red.masks:
        gens.append(Monomial.of(*[variables[k] for k in range(len(variables)) if m >> k & 1]))
    return LabelIdeal.from_gens(variables, gens)


def reduction_pure_powers(red) -> LabelIdeal:
    """The pure powers of an ``ArtinianReduction`` as label monomials."""
    return pure_power_ideal([red.labels[row[0]] for row in red.rows], map(len, red.rows))


def substitution_map(red) -> dict[str, str]:
    """Each even vertex of a reduction's component with its surviving
    variable, the first label of its row."""
    labels = red.labels
    return {labels[w]: labels[row[0]] for row in red.rows for w in row}


# ---------------------------------------------------------------------------
# Second routes to the package's objects
# ---------------------------------------------------------------------------

def even_blue_coloring(f) -> Coloring:
    """The 2-coloring with the even-height vertices blue.

    On a balanced forest adjacent heights differ by exactly 1, so the height
    parity classes are the color classes; other forests have no such coloring.
    """
    if not is_balanced(f):
        raise NotBalancedError("even-height-blue convention requested on a non-balanced forest")
    hmap = heights(f)
    return Coloring(even_heights(hmap), odd_heights(hmap))


def swapped_coloring_tree(t: Tree) -> Tree:
    """``t`` relabelled so that ``two_coloring`` swaps its color classes:
    each red vertex gets the prefix "a" and each blue one "b", so on at
    least two vertices the red class holds the smallest label."""
    col = two_coloring(t)
    name = {v: "a" + v for v in col.red} | {v: "b" + v for v in col.blue}
    return Tree(Graph([name[v] for v in t.graph.labels],
                      [(name[a], name[b]) for a, b in label_edges(t.graph)]))


@dataclass(frozen=True)
class DominationSelector:
    """Injective choice of a private witness for each member of a minimal set."""

    assignment: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def domination_selector(g, d) -> DominationSelector | None:
    """The lexicographically smallest valid selector, or None if not minimal:
    a second minimality test beside ``domination.is_minimal_set``."""
    g = _graph_of(g)
    dmask = g.mask_of(d)
    nd = g.mask_of(neighborhood_by_scan(g, d))
    masks = neighbor_masks(g)
    chosen: dict[str, str] = {}
    for v in vset(d):
        vbit = 1 << g.index[v]
        pick = None
        for i in range(g.n):
            if nd >> i & 1 and masks[i] & dmask == vbit:
                pick = g.labels[i]
                break
        if pick is None:
            return None
        chosen[v] = pick
    return DominationSelector(tuple(sorted(chosen.items())))


def complex_from_facets(ground, facets) -> SimplicialComplex:
    """The complex on ``ground`` generated by arbitrary label facets: they
    are deduplicated and sorted, a vertex outside the ground raises
    ValueError, and a facet inside another is dropped by a pairwise mask
    scan. The package builds its complexes from antichains of masks, which
    need none of this."""
    ground = Ground(ground)
    cleaned = sorted({vset(f) for f in facets})
    for f in cleaned:
        stray = [v for v in f if v not in ground.index]
        if stray:
            raise ValueError(f"facet uses vertices outside the ground set: {stray}")
    masks = [ground.mask_of(f) for f in cleaned]
    maximal = [
        f for f, m in zip(cleaned, masks)
        if not any(m != o and m & o == m for o in masks)
    ]
    return SimplicialComplex(ground=ground.labels, facets=tuple(maximal))


def is_pure(d: SimplicialComplex) -> bool:
    """All facets of ``d`` have one size; the void complex is pure."""
    return len({len(f) for f in d.facets}) <= 1


def labelled_order(d: SimplicialComplex, order) -> ShellingOrder:
    """The ShellingOrder of an order of the facets of ``d`` as label tuples,
    checked by ``complexes.verify_shelling`` on their masks over
    ``d.ground``. ValueError unless ``order`` is a permutation of the
    facets."""
    order = tuple(vset(f) for f in order)
    if sorted(order) != sorted(d.facets):
        raise ValueError("order is not a permutation of the facets")
    ground = Ground(d.ground)
    masks = tuple(map(ground.mask_of, order))
    check = verify_shelling(ground.mask_of(d.ground), list(masks))
    return ShellingOrder(d.ground, order, None, check, masks, ground)


def verify_labelled(d: SimplicialComplex, order) -> ShellingCheck:
    """``complexes.verify_shelling`` on an order of the facets of ``d`` as
    label tuples (``labelled_order``'s check)."""
    return labelled_order(d, order).check


def brute_force_shellable(d: SimplicialComplex, max_facets: int = 12):
    """Backtracking search for any shelling order; None when none exists.

    Whether a facet can extend a prefix depends only on the prefix as a set,
    so dead prefix sets are memoized.
    """
    if len(d.facets) > max_facets:
        raise EnumerationCapExceeded(
            f"{len(d.facets)} facets exceeds the search cap {max_facets}"
        )
    if not is_pure(d):
        return None
    m = len(d.facets)
    if m <= 1:
        return tuple(d.facets)
    pos = {v: i for i, v in enumerate(d.ground)}
    masks = [sum(1 << pos[v] for v in f) for f in d.facets]
    size = len(d.facets[0])
    full = (1 << m) - 1
    dead: set[int] = set()
    order: list[int] = []

    def can_append(used: list[int], f: int) -> bool:
        good = [masks[k] for k in used if bin(masks[k] & f).count("1") == size - 1]
        for i in used:
            fi = masks[i]
            if not any((f & ~gk) & ~fi for gk in good):
                return False
        return True

    def dfs(used_bits: int) -> bool:
        if used_bits == full:
            return True
        if used_bits in dead:
            return False
        for idx in range(m):
            if used_bits >> idx & 1:
                continue
            if can_append(order, masks[idx]):
                order.append(idx)
                if dfs(used_bits | 1 << idx):
                    return True
                order.pop()
        dead.add(used_bits)
        return False

    if dfs(0):
        return tuple(d.facets[i] for i in order)
    return None


def shelling_by_pairs(d: SimplicialComplex, order):
    """``complexes.verify_shelling`` by a scan per facet pair: condition (ii)
    and its intersection reformulation are evaluated separately over the
    earlier facets that meet F_j in codimension 1, and must agree.

    Returns ``(ok, pure, failure_pair, witnesses)``, where the witnesses are
    the ``shelling --json`` dicts of the first k each pair's scan finds, or
    an empty list unless the order shells.
    """
    order = [vset(f) for f in order]
    if sorted(order) != sorted(d.facets):
        raise ValueError("order is not a permutation of the facets")
    if not is_pure(d):
        return False, False, None, []
    pos = {v: k for k, v in enumerate(d.ground)}
    masks = [sum(1 << pos[v] for v in f) for f in order]
    size = len(order[0]) if order else 0
    witnesses = []
    for j in range(1, len(masks)):
        fj = masks[j]
        good = [k for k in range(j) if bin(masks[k] & fj).count("1") == size - 1]
        for i in range(j):
            fi = masks[i]
            hit = None
            for k in good:
                vbit = fj & ~masks[k]
                if vbit & ~fi:
                    hit = (k, vbit)
                    break
            inter = fi & fj
            reform_ok = (
                bin(inter).count("1") == size - 1
                or any(inter & ~masks[k] == 0 for k in good)
            )
            if (hit is not None) != reform_ok:
                raise TheoremViolation(
                    "shelling condition (ii) and its reformulation disagree"
                )
            if hit is None:
                return False, True, (i, j), []
            k, vbit = hit
            witnesses.append({"i": i, "j": j, "k": k, "v": d.ground[vbit.bit_length() - 1]})
    return True, True, None, witnesses


def facet_vector(rows, even, facet) -> tuple[int, ...]:
    """The facet vector of ``complexes._facet_vector_order`` on labels: the
    tuple (a_1..a_p) with D = even - facet meeting support row i at entry
    a_i, for the rows of ``Analysis.support_rows``."""
    d = set(even) - set(facet)
    vec = []
    for row in rows:
        picks = [a for a, u in enumerate(row, start=1) if u in d]
        if len(picks) != 1:
            raise TheoremViolation(
                f"facet complement meets a support row {len(picks)} times"
            )
        vec.append(picks[0])
    return tuple(vec)


def vector_facet(rows, even, vec) -> tuple[str, ...]:
    """Inverse of ``facet_vector``: the facet whose complement in the even
    vertices picks entry a_i of support row i."""
    dropped = {rows[i][a - 1] for i, a in enumerate(vec)}
    return vset(set(even) - dropped)


def even_stable_shelling(f):
    """Shelling of the even-stable complex of an unmixed balanced forest, by
    the join composition ``stable_shelling`` applies to interior forests."""
    facts = Analysis(f)
    components = facts.components
    for c in components:
        if not c.characterization.unmixed:
            raise MixedTreeError("even-stable shelling requires an unmixed forest")
    g = facts.forest.graph
    ground, facets, check = _composed_order([facts._layer])
    return ShellingOrder(ground, None, None, check, tuple(facets), g)


def composed_facets_by_labels(t: Tree, cap: int | None = None) -> tuple[int, list[int]]:
    """The ground mask and the product facets of the join order that
    ``stable_shelling`` verifies, by the earlier route: each interior forest
    of ``interior_graphs`` split by ``component_trees``, each component
    given an Analysis of its own, and its even mask and ordered facet masks
    lifted into the tree's indices through its labels."""
    index = t.graph.index
    interiors = interior_graphs(t)
    ground = 0
    facets = [0]
    for forest in (interiors.blue, interiors.red):
        for tree in component_trees(forest):
            even, order, _ = _facet_vector_order(Analysis(tree), cap)
            lift = [index[v] for v in tree.labels]
            ground |= _lift(even, lift)
            parts = [_lift(m, lift) for m in order]
            facets = [f | m for f in facets for m in parts]
    return ground, facets


def parametric_supports_from_ideal(a) -> tuple[tuple[str, ...], ...]:
    """Supports of the parametric decomposition of a reduction, read off the
    text of the reduced ideal alone: the minimal transversals of the
    supports of its generators that are not pure powers."""
    non_pure = [m.support for m in parse_ideal(a.ideal, a.variables).gens if len(m.exps) > 1]
    return tuple(sorted(minimal_transversals(non_pure)))


def edge_ideal(g) -> LabelIdeal:
    """The ideal of the edge monomials x_a x_b, over all vertices."""
    g = _graph_of(g)
    return LabelIdeal.from_gens(g.labels, [Monomial.of(a, b) for a, b in label_edges(g)])


def odd_open_neighborhood_ideal(f, variables) -> LabelIdeal:
    """The neighborhood monomials of the odd-height vertices of a forest, over
    ``variables``."""
    gens = [Monomial.of(*f.graph.neighbors(v)) for v in odd_heights(heights(f))]
    return LabelIdeal.from_gens(variables, gens)


# ---------------------------------------------------------------------------
# Readers for the ideal text and construction traces
# ---------------------------------------------------------------------------

def parse_monomial(text: str) -> Monomial:
    """Inverse of ``Monomial.render``: ``1``, or ``*``-joined factors ``var``
    or ``var^k``; a repeated variable adds its exponents."""
    text = text.strip()
    if text == "1":
        return Monomial.one()
    d: dict[str, int] = {}
    for part in text.split("*"):
        var, _, exp = part.strip().partition("^")
        d[var] = d.get(var, 0) + (int(exp) if exp else 1)
    return Monomial.from_dict(d)


def parse_ideal(text: str, variables) -> LabelIdeal:
    """Inverse of ``MonomialIdeal.render`` and of the reduction texts over
    ``variables``: ``0`` or no text is the zero ideal, otherwise
    ``,``-separated monomials."""
    text = text.strip()
    if text == "0" or not text:
        return LabelIdeal.from_gens(variables, [])
    return LabelIdeal.from_gens(variables, [parse_monomial(p) for p in text.split(",")])


def ideal_contains(ideal, m: Monomial) -> bool:
    """Membership of a monomial: some generator divides it."""
    return any(g.divides(m) for g in label_ideal(ideal).gens)


def trace_from_json(text: str) -> ConstructionTrace:
    """Inverse of ``ConstructionTrace.to_json``; ValueError on a base other
    than P6 or an unknown step kind."""
    payload = json.loads(text)
    if payload.get("base") != "P6":
        raise ValueError(f"unsupported trace base {payload.get('base')!r}")
    steps = tuple(
        TraceStep(attach=s["attach_label"], kind=s["kind"])
        for s in payload["steps"]
    )
    for s in steps:
        if s.kind not in _WHISKER_HEIGHTS:
            raise ValueError(f"unknown step kind {s.kind!r}")
    return ConstructionTrace(steps=steps)


# ---------------------------------------------------------------------------
# Reference versions of the near-linear polynomial paths
# ---------------------------------------------------------------------------

def ahu_recursive(adj, root: int, parent: int) -> str:
    """AHU code by plain recursion (depth bounded by the recursion limit)."""
    kids = sorted(ahu_recursive(adj, j, root) for j in adj[root] if j != parent)
    return "(" + "".join(kids) + ")"


# The graph core on per-vertex sets, dicts and sorts, as it was before the
# package moved to flat per-index lists.

def graph_by_sets(labels, edges) -> Graph:
    """A Graph whose neighbor lists come from one set per vertex, sorted."""
    labs = tuple(sorted(set(labels)))
    index = {v: i for i, v in enumerate(labs)}
    nbrs = [set() for _ in labs]
    for a, b in edges:
        if a == b:
            raise EdgeListParseError(f"self-loop at {a!r}")
        ia, ib = index[a], index[b]
        nbrs[ia].add(ib)
        nbrs[ib].add(ia)
    g = Graph.__new__(Graph)
    g._set(labs, index, tuple(tuple(sorted(s)) for s in nbrs))
    return g


def parse_graph_by_sets(text: str) -> Graph:
    """``parse_graph`` through ``graph_by_sets``, stripping each line first."""
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
    return graph_by_sets({v for e in edges for v in e}, edges)


def component_labels(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Connected components as sorted label tuples, sorted themselves."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in g.adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(g.labels[i] for i in sorted(comp)))
    return tuple(sorted(comps))


def forest_by_sorting(g: Graph) -> tuple[tuple[str, ...], ...]:
    """The components of a forest by ``component_labels``, with the edge
    count check for a cycle."""
    comps = component_labels(g)
    if g.num_edges() != g.n - len(comps):
        raise NotAForestError("graph contains a cycle")
    return comps


def two_coloring_by_vset(f: Forest) -> Coloring:
    """Breadth-first parity from each component's smallest label, with both
    classes sorted by ``vset``."""
    g = f.graph
    side = [-1] * g.n
    for comp in f.components():
        root = g.index[comp[0]]
        side[root] = 0
        order = [root]
        for i in order:
            for j in g.adj[i]:
                if side[j] < 0:
                    side[j] = 1 - side[i]
                    order.append(j)
    return Coloring(
        vset(v for v, s in zip(g.labels, side) if s == 0),
        vset(v for v, s in zip(g.labels, side) if s == 1),
    )


def classify_by_vset(f: Forest) -> Classification:
    """``classify_vertices`` with each class gathered as a label set and
    sorted by ``vset``."""
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


def centers_by_dicts(adj, comp: list[int]) -> list[int]:
    """Center vertices of one tree component by leaf removal, with a degree
    dict and a removed set."""
    if len(comp) == 1:
        return [comp[0]]
    deg = {i: len(adj[i]) for i in comp}
    layer = [i for i in comp if deg[i] == 1]
    remaining = len(comp)
    removed = set()
    while remaining > 2:
        nxt = []
        removed.update(layer)
        remaining -= len(layer)
        for i in layer:
            for j in adj[i]:
                if j not in removed:
                    deg[j] -= 1
                    if deg[j] == 1:
                        nxt.append(j)
        layer = nxt
    return sorted(set(comp) - removed)


def ahu_by_dicts(adj, root: int, parent: int) -> str:
    """Iterative AHU code with a parent dict and a child-code list per
    vertex."""
    order = [root]
    up = {root: parent}
    kids = {root: []}
    for v in order:
        for w in adj[v]:
            if w != up[v]:
                up[w] = v
                kids[w] = []
                order.append(w)
    for v in order[:0:-1]:
        kids[v].sort()
        kids[up[v]].append("(" + "".join(kids[v]) + ")")
    kids[root].sort()
    return "(" + "".join(kids[root]) + ")"


def canonical_form_by_dicts(f: Forest) -> str:
    """``canonical_form`` through ``centers_by_dicts`` and ``ahu_by_dicts``
    on copied neighbor lists."""
    g = f.graph
    adj = [list(nb) for nb in g.adj]
    codes = []
    for comp in f.components():
        idx = [g.index[v] for v in comp]
        centers = centers_by_dicts(adj, idx)
        if len(centers) == 1:
            codes.append("C" + ahu_by_dicts(adj, centers[0], -1))
        else:
            a, b = centers
            lo, hi = sorted((ahu_by_dicts(adj, a, b), ahu_by_dicts(adj, b, a)))
            codes.append("E" + lo + hi)
    return "[" + ";".join(sorted(codes)) + "]"


def berge_by_minimalize(edges: list[int], cap: int | None = None) -> list[int]:
    """``domination.minimal_transversal_masks`` with each Berge round
    filtered by ``_minimalize_masks`` over all candidates, members that hit
    the new edge included; same edge order and cap checks."""
    if any(e == 0 for e in edges):
        return []
    family = [0]
    for e in sorted(set(edges), key=lambda m: (bin(m).count("1"), m)):
        cands = [t for t in family if t & e]
        bits = [1 << i for i in range(e.bit_length()) if e >> i & 1]
        for t in family:
            if not t & e:
                cands.extend(t | b for b in bits)
        family = _minimalize_masks(cands)
        if cap is not None and len(family) > cap:
            raise EnumerationCapExceeded(f"transversal family grew past cap={cap}")
    return sorted(family)


def minimal_transversals_by_subsets(edges: list[int]) -> list[int]:
    """Minimal hitting sets of bitmask edges by checking every subset of
    their union: a hitting set is minimal when no one-element-smaller
    subset still hits every edge."""
    union = 0
    for e in edges:
        union |= e
    bits = [1 << i for i in range(union.bit_length()) if union >> i & 1]

    def hits(m: int) -> bool:
        return all(m & e for e in edges)

    out = []
    for k in range(len(bits) + 1):
        for combo in combinations(bits, k):
            m = sum(combo)
            if hits(m) and not any(hits(m ^ b) for b in combo):
                out.append(m)
    return sorted(out)


SOCLE_BOX_CAP = 10**7


def socle_by_box(ideal: LabelIdeal) -> int:
    """``algebra.socle_dimension`` by a walk over the exponent box below the
    pure powers: count the points outside the ideal that every variable
    takes into it. Membership is a componentwise comparison with each
    generator's (variable index, exponent) pairs. A box larger than
    SOCLE_BOX_CAP raises EnumerationCapExceeded; an ideal without a pure
    power of some variable raises ValueError."""
    bounds: dict[str, int] = {}
    for m in ideal.gens:
        if len(m.exps) == 1:
            v, e = m.exps[0]
            bounds[v] = min(bounds.get(v, e), e)
    variables = ideal.variables
    missing = [v for v in variables if v not in bounds]
    if missing:
        raise ValueError(f"no pure power of {missing} (quotient is not finite-dimensional)")
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


def socle_by_exponent_corners(red) -> int:
    """``algebra.socle_dimension`` on exponent vectors: the corners of the
    staircase of an Artinian reduction, split on its row masks in order of
    popcount. A generator takes in the corners a with a_i >= 1 on its
    rows; each splits into the vectors with one such entry set to 0, and a
    split vector is kept unless a corner that the generator left with
    entry 0 there, or a larger split vector of the same row, dominates it
    componentwise."""
    corners = [tuple(len(row) - 1 for row in red.rows)]
    for gen in sorted(red.masks, key=int.bit_count):
        support = [i for i in range(len(red.rows)) if gen >> i & 1]
        split = [a for a in corners if all(a[i] for i in support)]
        if not split:
            continue
        kept = [a for a in corners if not all(a[i] for i in support)]
        corners = kept.copy()
        for i in support:
            blockers = [c for c in kept if not c[i]]
            for a in sorted({a[:i] + (0,) + a[i + 1:] for a in split}, key=sum, reverse=True):
                if not any(all(x >= y for x, y in zip(c, a)) for c in blockers):
                    blockers.append(a)
                    corners.append(a)
    return len(corners)


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = max(d.get(v, 0), e)
    return Monomial.from_dict(d)


def _check_ambient(a: LabelIdeal, b: LabelIdeal) -> None:
    if a.variables != b.variables:
        raise AmbientMismatchError(f"ambient mismatch: {a.variables} vs {b.variables}")


def ideal_sum(a: LabelIdeal, b: LabelIdeal) -> LabelIdeal:
    _check_ambient(a, b)
    return LabelIdeal.from_gens(a.variables, a.gens + b.gens)


def ideal_intersection(ideals) -> LabelIdeal:
    """The intersection of ideals over one ambient list, folded pairwise:
    each step minimalizes the lcms of all pairs of generators."""
    def meet(a: LabelIdeal, b: LabelIdeal) -> LabelIdeal:
        _check_ambient(a, b)
        return LabelIdeal.from_gens(a.variables, [monomial_lcm(x, y) for x in a.gens for y in b.gens])

    return reduce(meet, ideals)


def variable_ideal(variables, subset) -> LabelIdeal:
    """The monomial prime generated by the given variables."""
    return LabelIdeal.from_gens(variables, [Monomial.of(v) for v in subset])


def pure_power_ideal(variables, powers) -> LabelIdeal:
    """The ideal of the pure powers v^p, one per variable."""
    return LabelIdeal.from_gens(
        variables, [Monomial.from_dict({v: p}) for v, p in zip(variables, powers)]
    )


def to_ideal_by_lcm(dec) -> LabelIdeal:
    """The intersection of a decomposition's primes P_S, each plus the pure
    powers Q of a parametric one, through ``ideal_intersection``. It is
    ``PrimeDecomposition.to_ideal`` on a square-free decomposition and the
    only re-expansion of a parametric one."""
    if not dec.supports:
        return LabelIdeal.unit(dec.variables)
    parts = []
    for sup in dec.supports:
        p = variable_ideal(dec.variables, sup)
        if dec.pure_powers is not None:
            p = ideal_sum(p, pure_power_ideal(dec.variables, dec.pure_powers))
        parts.append(p)
    return ideal_intersection(parts)


def stanley_reisner_ideal_by_faces(d: SimplicialComplex) -> LabelIdeal:
    """``complexes.stanley_reisner_ideal`` on label tuples: each subset of the
    ground set, in ``combinations`` order, is a face when its label set lies
    inside some facet's label set."""
    if d.is_void:
        return LabelIdeal.unit(d.ground)

    def has_face(face) -> bool:
        fs = set(face)
        return any(fs <= set(f) for f in d.facets)

    gens = []
    for k in range(1, d.dim + 3):
        for sub in combinations(d.ground, k):
            if has_face(sub):
                continue
            if all(has_face(sub[:i] + sub[i + 1:]) for i in range(k)):
                gens.append(Monomial.of(*sub))
    return LabelIdeal.from_gens(d.ground, gens)


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
    v3 = set(level(hmap, 3))
    g = current.graph
    pick = None
    for u in level(hmap, 2):
        ups = [w for w in g.neighbors(u) if w in v3]
        if len(ups) == 1:
            pick = (u, ups[0])
            break
    if pick is None:
        raise TheoremViolation("no height-2 vertex with a unique height-3 neighbor exists")
    u, r = pick
    if degree(g, r) > 2:
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
    return attach, kind, chain, Tree(induced_by_labels(g, keep))


def _path_order(t):
    """Vertex labels of a path graph in path order, from its smaller end."""
    g = t.graph
    ends = [v for v in g.labels if degree(g, v) == 1]
    start = min(ends)
    order = [start]
    prev = None
    cur = start
    while len(order) < g.n:
        nxt = next(w for w in g.neighbors(cur) if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def deconstruct_by_rebuilds(t):
    """``construct.deconstruct`` with a fresh tree and fresh heights after
    every peel, instead of one mutable adjacency with carried heights."""
    if not characterize_balanced_unmixed(t).unmixed:
        raise MixedTreeError("deconstruction requires an unmixed balanced tree")
    if forest_height(t) != 3:
        raise InputError("deconstruction requires height exactly 3")
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


def open_neighborhood_ideal_by_scan(g, s=None) -> LabelIdeal:
    """``ideals.open_neighborhood_ideal`` with each neighborhood mask tested
    against every kept mask, not only against those of its own bits."""
    g = _graph_of(g)
    targets = range(g.n) if s is None else [g.index[v] for v in vset(s)]
    masks = neighbor_masks(g)
    supports = {masks[i]: g.adj[i] for i in targets}
    kept: list[int] = []
    gens = []
    for mask, nbrs in sorted(supports.items(), key=lambda item: (len(item[1]), item[1])):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
            gens.append(Monomial(tuple((g.labels[j], 1) for j in nbrs)))
    return LabelIdeal(variables=g.labels, gens=tuple(gens))


# The package's own builders through label edge lists: each collects its
# edges as label pairs and hands them to ``Tree.from_edges`` (label sort,
# two dict lookups per edge, a component search), as they did before they
# built from creation positions; and the induced subgraph on a label set.

def induced_by_labels(g: Graph, labels) -> Graph:
    """``Graph.subgraph`` on a label set: the subgraph induced on the
    sorted ``labels``, built from the kept vertices' own adjacency; labels
    unknown to ``g`` become isolated vertices."""
    labs = tuple(sorted(set(labels)))
    old_index, old_adj = g.index, g.adj
    new_of = {old_index[v]: k for k, v in enumerate(labs) if v in old_index}
    adj = tuple(
        tuple([new_of[j] for j in old_adj[old_index[v]] if j in new_of])
        if v in old_index else ()
        for v in labs
    )
    sub = Graph.__new__(Graph)
    sub._set(labs, {v: i for i, v in enumerate(labs)}, adj)
    return sub


def path_graph_by_edges(n: int) -> Tree:
    if n == 0:
        return Tree(Graph(["0"], []))
    return Tree.from_edges([(str(i), str(i + 1)) for i in range(n)])


def star_graph_by_edges(k: int) -> Tree:
    return Tree.from_edges([("s", f"l{i}") for i in range(1, k + 1)])


def apply_o_by_edges(t: Tree, v: str) -> Tree:
    h = heights(t)[v]
    if h not in _KIND_BY_HEIGHT:
        raise ValueError(f"whisker attachment needs height 1..3, got height {h} at {v!r}")
    kind = _KIND_BY_HEIGHT[h]
    fresh = fresh_labels(t.graph.labels, len(_WHISKER_HEIGHTS[kind]))
    edges = list(label_edges(t.graph))
    chain = [v] + fresh
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Tree.from_edges(edges)


def suspension_by_edges(t: Tree) -> Tree:
    g = t.graph
    fresh = fresh_labels(g.labels, g.n)
    return Tree.from_edges(list(label_edges(g)) + list(zip(g.labels, fresh)))


def edge_subdivision_by_edges(g) -> Graph:
    g = _graph_of(g)
    edges = label_edges(g)
    fresh = fresh_labels(g.labels, len(edges))
    out = []
    for (a, b), m in zip(edges, fresh):
        out.append((a, m))
        out.append((m, b))
    return Graph.from_edges(out, extra_vertices=g.labels)


class _GrowthByEdges:
    """Whisker growth with a label edge list and a label -> height dict,
    the base path rebuilt by ``path_graph_by_edges`` on every growth."""

    def __init__(self):
        base = path_graph_by_edges(6)
        self.edges = list(label_edges(base.graph))
        self.height = heights(base)
        self.eligible = [v for v in base.graph.labels if self.height[v] in _KIND_BY_HEIGHT]
        self.fresh = 0

    def attach(self, v: str) -> TraceStep:
        kind = _KIND_BY_HEIGHT[self.height[v]]
        prev = v
        for h in _WHISKER_HEIGHTS[kind]:
            self.fresh += 1
            w = f"w{self.fresh}"
            self.edges.append((prev, w))
            self.height[w] = h
            if h in _KIND_BY_HEIGHT:
                bisect.insort(self.eligible, w)
            prev = w
        return TraceStep(attach=v, kind=kind)


def replay_by_edges(trace: ConstructionTrace) -> Tree:
    growth = _GrowthByEdges()
    for step in trace.steps:
        h = growth.height[step.attach]
        if _KIND_BY_HEIGHT.get(h) != step.kind:
            raise ValueError(
                f"step kind {step.kind} does not match height {h} of {step.attach!r}"
            )
        growth.attach(step.attach)
    return Tree.from_edges(growth.edges)


def generate_by_edges(seed: int, steps: int):
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = Lcg64(seed)
    growth = _GrowthByEdges()
    recorded = []
    for _ in range(steps):
        eligible = growth.eligible
        recorded.append(growth.attach(eligible[rng.randrange(len(eligible))]))
    return Tree.from_edges(growth.edges), ConstructionTrace(steps=tuple(recorded))


# The interior-graph test by objects: a Forest per interior side, a Tree and
# fresh heights per component, and the criteria read through label lookups.

def balanced_by_criteria(f: Forest) -> bool:
    """The three balancedness criteria on a forest; they must agree."""
    blue = set(two_coloring(f).blue)
    hmap = heights(f)
    g = f.graph
    c1 = all(hmap[a] != hmap[b] for a, b in label_edges(g))
    c2 = c3 = True
    for comp in f.components():
        by_height: dict[int, set[str]] = {}
        leaf_colors = set()
        for v in comp:
            by_height.setdefault(hmap[v], set()).add(v in blue)
            if degree(g, v) <= 1:
                leaf_colors.add(v in blue)
        c2 = c2 and all(len(cols) == 1 for cols in by_height.values())
        c3 = c3 and len(leaf_colors) <= 1
    if not (c1 == c2 == c3):
        raise TheoremViolation(
            f"balancedness criteria disagree: adjacency={c1}, colors={c2}, leaves={c3}"
        )
    return c1


def check_component_by_tree(comp: Tree, side: str) -> ComponentCheck:
    """The checklist of one component tree, from its own heights."""
    hmap = heights(comp)
    height = max(hmap.values())
    g = comp.graph
    v1 = set(level(hmap, 1))
    v2 = set(level(hmap, 2))
    offending = None
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
    if height > 3 and offending is None:
        offending = min(level(hmap, height))
    return ComponentCheck(
        side=side,
        vertices=g.labels,
        height=height,
        height_ok=height <= 3,
        v2_unique_v1_ok=v2_ok,
        v1_at_most_one_v2_ok=v1_ok,
        offending_vertex=offending,
    )


def interiors_by_forests(t: Tree) -> InteriorGraphs:
    """Both interior graphs as induced forests, each checked to be balanced."""
    col = two_coloring(t)
    g = t.graph
    supports = set(classify_vertices(t).supports)
    sides = []
    for side_labels in (col.blue, col.red):
        closed = {v for v in side_labels if v in supports}
        for v in list(closed):
            closed.update(g.neighbors(v))
        forest = Forest(induced_by_labels(g, [v for v in g.labels if v not in closed]))
        if forest.graph.n and not balanced_by_criteria(forest):
            raise TheoremViolation("interior component is not balanced")
        sides.append((forest, vset(closed)))
    (blue, blue_deleted), (red, red_deleted) = sides
    return InteriorGraphs(blue, red, blue_deleted, red_deleted)


def component_trees(f: Forest) -> tuple[Tree, ...]:
    """The components of a forest as trees, each induced on its sorted
    indices by ``Graph.subgraph``: the route from an interior forest to its
    components that the package took before it built them from the tree."""
    return tuple([
        Tree.with_components(sub, [list(range(sub.n))])
        for sub in map(f.graph.subgraph, f.component_indices)
    ])


def sides(facts: Analysis) -> tuple[Analysis, Analysis]:
    """Analyses of the blue and the red interior forest, the label view of
    ``facts.interior_layers``: each reads its layer's heights, and its
    ``components`` are its layer's, the very objects that the shelling and
    the type read."""
    interiors = facts.interiors
    out = []
    for forest, layer in zip((interiors.blue, interiors.red), facts.interior_layers):
        side = Analysis(forest, side=layer.side)
        side._layer = layer
        side.height = list(compress(layer.height, layer.keep))
        out.append(side)
    return tuple(out)


def certificate_by_component_trees(t: Tree) -> UnmixedCertificate:
    """``is_unmixed_fast`` through a Tree and a checklist per interior component."""
    interiors = interiors_by_forests(t)
    checks = tuple(
        check_component_by_tree(comp, side)
        for side, forest in (("blue", interiors.blue), ("red", interiors.red))
        for comp in component_trees(forest)
    )
    return UnmixedCertificate(unmixed=all(c.ok for c in checks), checks=checks)


# The seeded inputs of ``verify``: Prufer trees through an edge list, and
# the sample corpora read through height maps and label-keyed distances.

def random_tree_by_edges(rng: Lcg64, n: int) -> Tree:
    """``treegen.random_tree`` through a heap of leaves, an edge list and
    ``Tree.from_edges``."""
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = _tree_labels(n)
    if n == 1:
        return Tree(Graph(labels, []))
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for p in prufer:
        degree[p] += 1
    edges = []
    leaf_heap = sorted(i for i in range(n) if degree[i] == 1)
    heapq.heapify(leaf_heap)
    for p in prufer:
        leaf = heapq.heappop(leaf_heap)
        edges.append((labels[leaf], labels[p]))
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(leaf_heap, p)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((labels[u], labels[v]))
    return Tree.from_edges(edges)


def balanced_corpus_by_height_map(seed: int, count: int, max_steps: int = 15,
                                  facet_cap: int = 240):
    """``verify.balanced_corpus`` with the facet count read off the
    height-1 labels of a label -> height dict and each support's
    label-level neighbors."""
    out = []
    attempt = 0
    while len(out) < count:
        steps = attempt % (max_steps + 1)
        t, trace = generate(seed + attempt, steps)
        attempt += 1
        hmap = heights(t)
        g = t.graph
        facets = 1
        for s in level(hmap, 1):
            facets *= len(g.neighbors(s))
        if facets > facet_cap:
            continue
        out.append((t, trace))
    return out


def mixedness_samples_by_labels(seed: int, per_family: int = 25):
    """``verify.mixedness_samples`` with paths re-validated as trees, heights
    as label -> height dicts and leaves at distance 4 found by a label-keyed
    ``distances_from`` per leaf, drawing Prufer trees through
    ``random_tree_by_edges``."""
    rng = Lcg64(seed)
    dist4, height2, height4 = [], [], []
    while len(height2) < per_family:
        t = _spider(2 + rng.randrange(7))
        hmap = heights(t)
        for _ in range(rng.randrange(3)):
            supports = level(hmap, 1)
            t = apply_o(t, supports[rng.randrange(len(supports))])
        height2.append(t)
    while len(height4) < per_family:
        if rng.randrange(2):
            t = Tree(path_graph(8 + 2 * rng.randrange(3)).graph)
        else:
            base = random_tree_by_edges(rng, 5 + rng.randrange(6))
            t = Tree(edge_subdivision(Tree(edge_subdivision(base))))
        if forest_height(t) >= 4:
            height4.append(t)
    while len(dist4) < per_family:
        base = random_tree_by_edges(rng, 4 + rng.randrange(7))
        t = Tree(edge_subdivision(base))
        hmap = heights(t)
        leaves = level(hmap, 0)
        g = t.graph
        found = False
        for a in leaves:
            dist = g.distances_from(a)
            if any(b != a and dist.get(b) == 4 for b in leaves):
                found = True
                break
        if found:
            dist4.append(t)
    return [("distance-4-leaves", t) for t in dist4] + [
        ("height-2", t) for t in height2
    ] + [("height>=4", t) for t in height4]


def _leaves_at_distance_4(adj) -> bool:
    """Whether two leaves of the tree with neighbor lists ``adj`` lie at
    distance 4: the fourth ring of a breadth-first walk from some leaf holds
    a leaf. ``verify.mixedness_samples`` once tested each edge subdivision
    with it; it now tests the tree before subdividing."""
    for a, nb in enumerate(adj):
        if len(nb) != 1:
            continue
        prev, ring = [a], [a]
        for _ in range(4):
            prev, ring = ring, [j for i in ring for j in adj[i] if j not in prev]
        if any(len(adj[b]) == 1 for b in ring):
            return True
    return False
