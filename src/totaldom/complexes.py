"""Simplicial complexes: stable complexes, joins, Stanley-Reisner, shellings.

Facets live over an explicit ground set. The stable complex of a graph has
the complements of its minimal TD-sets as facets; for a balanced tree the
even-stable complex plays the same role with the odd-height vertices as the
domination target. Facets are worked on as bitmasks over a
``graphs.Ground`` (a graph's vertices, or a complex's ground set). The
stable complex and the complex of a square-free ideal keep the masks they
were computed on, over their whole ground, and decode label tuples only
when ``facets`` is read; the Stanley-Reisner pair reads and writes index
data, so ``verify`` compares the two sides with no label in between. The
even-stable complex, whose ground is part of a graph's vertices, and a join
are built as label tuples. Every complex is built from an antichain (the
complements of a family of minimal sets, or a join's products of two
antichains over disjoint grounds), so no facet is filtered. Shellings are
verified by restriction sets, on an order of facet masks only.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import combinations

from .domination import _minimal_s_td_family, minimal_td_sets, minimal_transversal_masks
from .errors import MixedTreeError, NotBalancedError, TheoremViolation
from .graphs import (
    Forest,
    Ground,
    Tree,
    VertexSet,
    _bit_indices,
    _columns,
    _graph_of,
    _lift,
    _Record,
    vset,
)
from .ideals import MonomialIdeal, _row_masks
from .unmixed import Analysis

# Orders of at least this many facets test each R_j on the columns of the
# order (``verify_shelling``); below it the scan over the earlier facets is
# cheaper. Taken from timings on subfamilies of the stable complex of
# ``generate(7, 16)``.
_COLUMNS_FROM = 64


class SimplicialComplex:
    """Ground set plus the pairwise-incomparable facet list.

    The void complex (no facets) and the complex whose only facet is the
    empty set are distinct values. A complex built from labels holds its
    facets as given. One built by ``_of_masks`` holds them as masks over
    ``codec``, a ``Ground`` whose labels are the ground set, sorted by
    value, and decodes them on the first read of ``facets`` (sorted label
    tuples). Two complexes with masks are equal when their grounds and
    masks are; otherwise ``==`` compares the grounds and the facet tuples.
    """

    __slots__ = ("ground", "_facets", "_codec", "_masks")

    def __init__(self, ground: tuple[str, ...], facets: tuple[VertexSet, ...]):
        self.ground = ground
        self._facets = facets
        self._codec = self._masks = None

    @classmethod
    def _of_masks(cls, codec: Ground, masks: tuple[int, ...]) -> SimplicialComplex:
        """The complex on the labels of ``codec`` whose facets are the
        ``masks``, an antichain sorted by value."""
        d = cls(codec.labels, None)
        d._codec = codec
        d._masks = masks
        return d

    @property
    def facets(self) -> tuple[VertexSet, ...]:
        if self._facets is None:
            self._facets = tuple(sorted(map(self._codec.labels_of, self._masks)))
        return self._facets

    def _facet_masks(self) -> tuple[Ground, Sequence[int]]:
        """A ground of the ground set and each facet as a mask over it. A
        complex built from labels is encoded over ``Ground(ground)`` here;
        a facet outside the ground raises KeyError."""
        if self._masks is not None:
            return self._codec, self._masks
        codec = Ground(self.ground)
        return codec, [codec.mask_of(f) for f in self._facets]

    @property
    def is_void(self) -> bool:
        return not (self._facets if self._masks is None else self._masks)

    @property
    def dim(self) -> int:
        """Dimension; the void complex reports -2 by convention."""
        if self.is_void:
            return -2
        if self._masks is None:
            return max(len(f) for f in self._facets) - 1
        return max(map(int.bit_count, self._masks)) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self.ground != other.ground:
            return False
        if self._masks is not None and other._masks is not None:
            return self._masks == other._masks
        return self.facets == other.facets

    def __hash__(self):
        return hash((self.ground, self.facets))

    def __repr__(self):
        count = len(self._facets if self._masks is None else self._masks)
        return f"SimplicialComplex({len(self.ground)} vertices, {count} facets)"


def _complements(codec: Ground, family) -> SimplicialComplex:
    """The complex on the labels of ``codec`` whose facets are the
    complements of the masks of ``family``, an antichain sorted by value as
    the engine returns it; the complements are an antichain too, and in
    reverse order they are sorted by value."""
    full = (1 << len(codec.labels)) - 1
    return SimplicialComplex._of_masks(codec, tuple([full ^ d for d in reversed(family)]))


def stable_complex(g) -> SimplicialComplex:
    """Facets are the complements of the minimal TD-sets, enumerated without
    a cap; void if none exist."""
    g = _graph_of(g)
    return _complements(g, minimal_td_sets(g).masks)


def _even_family(facts: Analysis, cap: int | None) -> tuple[int, tuple[int, ...]]:
    """The mask of the even-height vertices of a balanced forest over the
    indices of its graph, and its minimal odd-TD-sets as masks, which lie
    inside it."""
    even = 0
    odd = []
    for i, h in enumerate(facts.height):
        if h & 1:
            odd.append(i)
        else:
            even |= 1 << i
    return even, _minimal_s_td_family(facts.forest.graph, odd, cap).masks


def even_stable_complex(t: Forest | Analysis) -> SimplicialComplex:
    """Complements of the minimal odd-TD-sets inside the even-height
    vertices, decoded here: the ground is only part of the graph's
    vertices."""
    facts = Analysis.of(t)
    if not facts.balanced:
        raise NotBalancedError("even-stable complex requires a balanced tree/forest")
    even, family = _even_family(facts, None)
    labels_of = facts.forest.graph.labels_of
    return SimplicialComplex(
        ground=labels_of(even),
        facets=tuple(sorted([labels_of(even & ~d) for d in family])),
    )


def join(d1: SimplicialComplex, d2: SimplicialComplex) -> SimplicialComplex:
    """Facets are the unions of one facet of each, an antichain over disjoint grounds."""
    if set(d1.ground) & set(d2.ground):
        raise ValueError("join requires disjoint ground sets")
    return SimplicialComplex(
        ground=vset(d1.ground + d2.ground),
        facets=tuple(sorted(vset(a + b) for a in d1.facets for b in d2.facets)),
    )


# ---------------------------------------------------------------------------
# Stanley-Reisner translation
# ---------------------------------------------------------------------------

def stanley_reisner_ideal(d: SimplicialComplex) -> MonomialIdeal:
    """Generated by the minimal non-faces (size at most dim+2), over the
    ground of ``d``.

    Subsets of the ground set are walked in ``combinations`` order of their
    bits, as masks. A subset is a face when its mask lies inside one of the
    facet masks; a k-subset costs at most k+1 such tests of one AND per
    facet. The minimal non-faces form an antichain, and over the sorted
    ground set the ``combinations`` order (size, then lexicographic) is
    grlex order, so their index tuples are the rows of the ideal as they
    come. The void complex has every subset as a non-face, the empty one
    first: its ideal is the unit ideal, the one empty row.
    """
    codec, facets = d._facet_masks()
    if d.is_void:
        return MonomialIdeal(codec, ((),))

    def is_face(m: int) -> bool:
        for f in facets:
            if m & f == m:
                return True
        return False

    powers = [1 << i for i in range(len(codec.labels))]
    rows = []
    for k in range(1, d.dim + 3):
        for bits in combinations(powers, k):
            m = sum(bits)
            if is_face(m):
                continue
            for b in bits:
                if not is_face(m ^ b):
                    break
            else:
                rows.append(_bit_indices(m))
    return MonomialIdeal(codec, tuple(rows))


def stanley_reisner_complex(i: MonomialIdeal) -> SimplicialComplex:
    """Faces are the subsets whose monomial avoids the ideal.

    The maximal ones are the complements of the minimal transversals of the
    generator supports, so the transversal engine applies directly, on the
    supports' masks over the ideal's ground.
    """
    edges = _row_masks(i.rows, range(len(i.variables)))
    return _complements(i.ground, minimal_transversal_masks(edges))


# ---------------------------------------------------------------------------
# Shelling verification
# ---------------------------------------------------------------------------

class ShellingCheck(_Record):
    _fields = ("ok", "pure", "witness_count", "failure_pair")

    def __init__(self, ok: bool, pure: bool, witness_count: int = 0,
                 failure_pair: tuple[int, int] | None = None):
        d = self.__dict__
        d["ok"] = ok
        d["pure"] = pure
        d["witness_count"] = witness_count
        d["failure_pair"] = failure_pair

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pure": self.pure,
            "reformulation_agrees": True,  # by the proof in verify_shelling
            "witness_count": self.witness_count,
            "failure_pair": list(self.failure_pair) if self.failure_pair else None,
        }


def _restrictions(masks: list[int]) -> list[dict[int, int]]:
    """For each F_j of a pure order of facet masks, its restriction R_j as
    a map from each vertex bit v of R_j to the first k < j with F_j - v
    inside F_k. One dict of the codimension-1 faces seen so far, each with
    the first facet that contains it, gives all of them."""
    first: dict[int, int] = {}
    restrictions = []
    for j, fj in enumerate(masks):
        rj = {}
        rest = fj
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            k = first.setdefault(fj ^ vbit, j)
            if k != j:
                rj[vbit] = k
        restrictions.append(rj)
    return restrictions


def verify_shelling(ground: int, order: list[int]) -> ShellingCheck:
    """Check condition (ii) for a facet order by restriction sets.

    ``order`` lists distinct facet bitmasks inside the ground bitmask
    ``ground``, the facets of the complex they generate. (Two equal masks
    fail the check: the later one's restriction set is all of it.)

    Condition (ii): for i < j there are v in F_j - F_i and k < j with
    F_j - F_k = {v}. The restriction R_j of F_j is the set of v in F_j with
    F_j - v inside an earlier facet; in a shelling the faces F_j adds are
    the interval [R_j, F_j] (Bjorner 1992; Ziegler, Lectures on Polytopes,
    8.1). The order fails at the first (j, i) with R_j inside F_i.

    Both forms of the codimension-one condition are this one predicate,
    R_j not inside F_i, for facets of one size s:

    - Condition (ii): F_j - F_k = {v} exactly when F_j - v lies in F_k, as
      |F_k| = |F_j|. So the v it asks for are the members of R_j - F_i.
    - The reformulation asks that |F_i & F_j| = s - 1, or that F_i & F_j
      lie in some earlier F_k with |F_k & F_j| = s - 1. Such a k meets F_j
      in F_j - v_k with v_k in R_j, and F_i & F_j lies in F_k exactly when
      v_k is not in F_i. If |F_i & F_j| = s - 1, the vertex v of F_j - F_i
      is in R_j, because F_j - v lies in F_i; it is not in F_i.

    So the reformulation agrees by proof; ``tests/oracles.py`` keeps the
    pairwise evaluation of both as the reference. The restriction sets cost
    O(F * s) dict lookups. An order of fewer than ``_COLUMNS_FROM`` facets
    then tests R_j against each earlier facet, O(F^2) mask ANDs in all. A
    longer one ANDs the columns of the order (``graphs._columns``, bit i of
    column v set when F_i holds v) over the bits of R_j, masked to the
    facets before j: the lowest bit left is the first i with R_j inside
    F_i, so both find the same failure pair with O(F * s) ANDs of F-bit
    ints for the second. Per-pair witnesses are built only by
    ``ShellingOrder.to_json_dict``, and a passing check counts F(F-1)/2.
    """
    if any(m & ~ground for m in order):
        raise ValueError("facet mask outside the ground mask")
    if len({m.bit_count() for m in order}) > 1:
        return ShellingCheck(ok=False, pure=False)
    restrictions = _restrictions(order)
    n = len(order)
    if n < _COLUMNS_FROM:
        for j in range(1, n):
            rj = sum(restrictions[j])
            for i in range(j):
                if rj & order[i] == rj:
                    return ShellingCheck(ok=False, pure=True, failure_pair=(i, j))
    else:
        cols = _columns(order, ground.bit_length())
        for j in range(1, n):
            cover = (1 << j) - 1
            for vbit in restrictions[j]:
                cover &= cols[vbit.bit_length() - 1]
                if not cover:
                    break
            if cover:
                i = (cover & -cover).bit_length() - 1
                return ShellingCheck(ok=False, pure=True, failure_pair=(i, j))
    return ShellingCheck(ok=True, pure=True, witness_count=n * (n - 1) // 2)


def _witnesses(codec: Ground, masks) -> list[dict]:
    """For each pair i < j of a shelling order of facet masks over
    ``codec``, the first k < j and the v with v in F_j - F_i and
    F_j - F_k = {v}: the smallest first index over v in R_j - F_i. Distinct
    v in R_j have distinct first indices, since a facet holding F_j - v and
    F_j - v' would hold F_j."""
    labels = codec.labels
    restrictions = _restrictions(masks)
    out = []
    for j in range(1, len(masks)):
        for i in range(j):
            k, vbit = min((k, v) for v, k in restrictions[j].items() if v & ~masks[i])
            out.append({"i": i, "j": j, "k": k, "v": labels[vbit.bit_length() - 1]})
    return out


# ---------------------------------------------------------------------------
# Facet vectors and the explicit shelling order
# ---------------------------------------------------------------------------

def ones_count(vec) -> int:
    return sum(1 for a in vec if a == 1)


def shelling_sort_key(vec):
    """More 1-entries first, then ascending lexicographic."""
    return (-ones_count(vec), vec)


class ShellingOrder(_Record):
    """A verified facet order as label tuples; ``masks`` holds the same
    facets as the bitmasks over ``codec`` that were verified, and the
    witnesses are read off them. ``ground`` may be given as its mask over
    ``codec`` and ``facets`` as None: each is then decoded on its first
    read. ``==``, ``hash`` and ``repr`` leave ``masks`` and ``codec`` out."""

    _fields = ("ground", "facets", "vectors", "check")

    def __init__(self, ground: tuple[str, ...] | int, facets: tuple[VertexSet, ...] | None,
                 vectors: tuple[tuple[int, ...], ...] | None, check: ShellingCheck,
                 masks: tuple[int, ...], codec: Ground):
        d = self.__dict__
        d["_ground" if type(ground) is int else "ground"] = ground
        if facets is not None:
            d["facets"] = facets
        d["vectors"] = vectors
        d["check"] = check
        d["masks"] = masks
        d["codec"] = codec

    @cached_property
    def ground(self) -> tuple[str, ...]:
        return self.codec.labels_of(self._ground)

    @cached_property
    def facets(self) -> tuple[VertexSet, ...]:
        return tuple(map(self.codec.labels_of, self.masks))

    def to_json_dict(self) -> dict:
        return {
            "ground": list(self.ground),
            "facets": [list(f) for f in self.facets],
            "vectors": [list(v) for v in self.vectors] if self.vectors else None,
            "check": self.check.to_json_dict(),
            "witnesses": _witnesses(self.codec, self.masks) if self.check.ok else [],
        }


def _facet_vector_order(facts: Analysis, cap: int | None):
    """The even-stable complex of an unmixed balanced tree on the indices of
    its graph: the mask of its even vertices, its facets as masks sorted by
    ``shelling_sort_key`` of their facet vectors, and those vectors.

    Each facet is even ^ d for a minimal odd-TD-set d, which lies in the
    even vertices. Its facet vector (a_1..a_p) says where d meets the
    support rows of ``Analysis.support_rows`` (support i's height-2
    partner, then its leaves in index order): at entry a_i of row i, found
    by one AND of d with the row's bits. d must meet every row once. At
    height 0 or 1 there are no support rows, so every vector is empty and
    the facets stay in label order.
    """
    rows = facts.support_rows
    row_masks = []
    entry: dict[int, int] = {}
    for row in rows:
        m = 0
        for a, v in enumerate(row, start=1):
            bit = 1 << v
            entry[bit] = a
            m |= bit
        row_masks.append(m)
    even, family = _even_family(facts, cap)
    tagged = []
    for d in family:
        vec = []
        for m in row_masks:
            hit = d & m
            if not hit or hit & (hit - 1):
                raise TheoremViolation(
                    f"facet complement meets a support row {hit.bit_count()} times"
                )
            vec.append(entry[hit])
        tagged.append((tuple(vec), even ^ d))
    if not rows:
        tagged.sort(key=lambda pair: _bit_indices(pair[1]))
    tagged.sort(key=lambda pair: shelling_sort_key(pair[0]))
    return even, [f for _, f in tagged], tuple([v for v, _ in tagged])


def shelling_order(t: Tree | Analysis) -> ShellingOrder:
    """The facet-vector order on the even-stable complex of a height-3 tree,
    verified to be a shelling. An unmixed balanced tree of height 0 or 1
    raises ValueError, after the support rows have raised MixedTreeError or
    TheoremViolation on any other tree."""
    facts = Analysis.of(t)
    # an unmixed balanced tree has support rows exactly at height 3
    if not facts.support_rows:
        raise ValueError("facet vectors are defined for height-3 trees")
    even, facets, vectors = _facet_vector_order(facts, None)
    check = verify_shelling(even, facets)
    if not check.ok:
        raise TheoremViolation("the facet-vector order failed shelling verification")
    return ShellingOrder(even, None, vectors, check, tuple(facets), facts.forest.graph)


def _composed_order(layers, cap: int | None = None) -> tuple[int, list[int], ShellingCheck]:
    """The ground mask and the product of the component orders of the
    ``layers`` of one graph over its indices, and its check: the product is
    verified once as a shelling of the join.

    Each component's Analysis (``_Layer.component_facts``) is lifted
    through its sorted indices in the graph (``_Layer.components``), which
    its own indices 0, 1, ... stand for: its even mask and ordered facet
    masks are lifted once. The grounds are disjoint, so a product facet is
    the OR of its parts. A component of height 0 or 1 keeps its facets in
    label order; its even-stable complex is a simplex or the boundary of
    one, which any facet order shells.

    Joins of shellable complexes are shellable (Provan & Billera 1980), and
    this one check also covers every component order. Fix every factor but
    one at its first facet. For two such product facets F_i before F_j,
    condition (ii) gives an earlier F_k with F_j - F_k = {v} for some v in
    F_j - F_i; the join is pure, so F_k agrees with F_j off the free factor
    and comes before it there. That is condition (ii) for the free factor's
    pair, so a component order that fails shelling makes the product fail.
    """
    ground = 0
    facets = [0]
    for layer in layers:
        for c, lift in zip(layer.component_facts(), layer.components()):
            even, order, _ = _facet_vector_order(c, cap)
            if lift[-1] != len(lift) - 1:  # else the lift is the identity
                even = _lift(even, lift)
                order = [_lift(m, lift) for m in order]
            ground |= even
            facets = [f | m for f in facets for m in order]
    check = verify_shelling(ground, facets)
    if not check.ok:
        raise TheoremViolation("composed join order failed shelling verification")
    return ground, facets, check


def stable_shelling(t: Tree | Analysis, cap: int | None = None) -> ShellingOrder:
    """Shelling of the stable complex of an unmixed tree.

    Composes the interior forests' component orders across the join, on
    facet masks over the tree's indices: each component comes from its
    interior layer with its sorted tree indices as its lift, and no
    interior forest is built. The resulting facet family equals
    the facets of the stable complex, the complements of the minimal
    TD-sets, which is asserted before the labels are read. The one-vertex
    tree raises InputError.
    """
    facts = Analysis.of(t)
    facts.require_edge()
    if not facts.certificate.unmixed:
        raise MixedTreeError("stable-complex shelling requires an unmixed tree")
    g = facts.forest.graph
    ground, facets, check = _composed_order(facts.interior_layers, cap=cap)
    full = (1 << g.n) - 1
    if set(facets) != {full ^ d for d in facts.td_family(cap).masks}:
        raise TheoremViolation(
            "join of interior even-stable complexes does not match the stable complex"
        )
    return ShellingOrder(ground, None, None, check, tuple(facets), g)
