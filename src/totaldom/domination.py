"""Total domination: S-TD-sets, minimality, and enumeration.

A set D totally dominates a target S when N(D) covers S, so the minimal
S-TD-sets are exactly the minimal transversals of the open-neighborhood
hypergraph {N(v) : v in S}. The transversal engine below (Berge
multiplication with exact private-hitter pruning) is also reused by the
ideal and complex modules. It keeps its family as a product over the
vertex-disjoint parts of the edges seen so far, so on a tree the two colour
classes are enumerated apart, and folds the one-vertex edges (the
neighbourhoods of leaves) into one forced mask.
"""

from __future__ import annotations

from .errors import EnumerationCapExceeded, TheoremViolation
from .graphs import Graph, Ground, VertexSet, _bit_indices, _columns, _fact, _graph_of, _Record

# Families of at least this many members are rechecked column-wise
# (``_failing_members``); below it the per-member ``_is_minimal_s_td`` is
# cheaper, since the columns cost a pass over every vertex whatever the
# family size. Taken from timings of verify's rechecks by family size.
_COLUMNS_FROM = 16


# ---------------------------------------------------------------------------
# Generic minimal-transversal engine (bitmask core)
# ---------------------------------------------------------------------------

def _minimalize_masks(masks) -> list[int]:
    """Inclusion-minimal members, smallest-popcount first.

    The filter of the all-pairs reference Berge round in ``tests/oracles.py``;
    ``perfbench/tracer.py`` also looks it up by name.
    """
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def minimal_transversal_masks(edges: list[int], cap: int | None = None) -> list[int]:
    """All inclusion-minimal hitting sets of the given bitmask hyperedges.

    An empty hyperedge kills every transversal (it sorts first, and its
    round keeps no member); no hyperedges leaves only the empty set. ``cap``
    bounds the working family size and raises EnumerationCapExceeded rather
    than truncating.

    Each Berge round keeps the members of the family F that hit the new edge
    e and extends each member t that misses it by every b in e. F is an
    antichain, so no member that hits e is dominated, and no extension t|b
    is dominated by another extension. An extension t|b is dominated exactly
    by a member h with h & e == b and h - b inside t, so each extension is
    tested only against the members that meet e in b alone: one AND and one
    compare per such member, stopping at the first that dominates it.

    F is held as a product. The edges added so far split into parts with
    no vertex in common, and the minimal transversals of a vertex-disjoint
    union are the ORs of one per part (Eiter & Gottlob 1995), so each part
    ``[span, members]`` in ``parts`` keeps its own family and a round
    touches only the part of its edge. An edge that meets no part starts
    one; an edge that meets several merges them first, multiplying their
    families by OR. ``size`` is the product of the part family sizes, which
    is |F|, so the cap trips at the edge and with the message of a single
    working family. Every part holds at least two members: by duality, the
    only hypergraphs with a single minimal transversal T have the
    one-vertex edges of T as their minimal edges, and no part holds a
    one-vertex edge. So there are at most log2 |F| parts, and finding the
    parts an edge meets is a short scan. The one-vertex edges sort first
    and put their vertex in every member: they are kept as one ``forced``
    mask, and a later edge that meets it is hit by every member and
    skipped. A round walks the set bits of its edge, not every position
    below its top bit. The edges are sorted by value and then, stably, by
    size, with no set: hashing n-bit masks cost more than sorting them at
    10^5 vertices, and a repeated edge is hit by every member, so its round
    changes nothing.
    """
    forced = 0
    size = 1
    parts: list[list] = []
    order = sorted(edges)
    order.sort(key=int.bit_count)
    for e in order:
        if not e:
            size = 0
        elif not e & (e - 1):
            forced |= e
        elif e & forced:
            continue
        else:
            touched = [p for p in parts if p[0] & e]
            if not touched:
                part = [e, [0]]
                parts.append(part)
            else:
                part = touched[0]
                part[0] |= e
                for other in touched[1:]:
                    part[0] |= other[0]
                    part[1] = [t | u for t in part[1] for u in other[1]]
                    parts.remove(other)
            family = part[1]
            hit = []
            miss = []
            for t in family:
                (hit if t & e else miss).append(t)
            if not miss:
                continue
            private: dict[int, list[int]] = {}
            for h in hit:
                b = h & e
                if b & (b - 1) == 0:
                    private.setdefault(b, []).append(h ^ b)
            kept = hit
            rest = e
            while rest:
                b = rest & -rest
                rest ^= b
                rests = private.get(b)
                if rests is None:
                    kept.extend([t | b for t in miss])
                    continue
                for t in miss:
                    for r in rests:
                        if r & t == r:
                            break
                    else:
                        kept.append(t | b)
            part[1] = kept
            size = size // len(family) * len(kept)
        if cap is not None and size > cap:
            raise EnumerationCapExceeded(
                f"transversal family grew past cap={cap}"
            )
        if not size:
            return []
    out = [forced]
    for part in parts:
        out = [t | u for t in out for u in part[1]]
    return sorted(out)


def minimal_transversals(sets, cap: int | None = None) -> tuple[tuple, ...]:
    """Label-level wrapper around the bitmask engine, canonically sorted.
    ``sets`` is read once, so any iterable of label collections works."""
    sets = [set(s) for s in sets]
    universe = Ground(set().union(*sets))
    edges = [universe.mask_of(s) for s in sets]
    found = minimal_transversal_masks(edges, cap=cap)
    return universe.sets_of(found)


# ---------------------------------------------------------------------------
# S-TD-sets
# ---------------------------------------------------------------------------

def _is_minimal_s_td(masks, dmask: int, smask: int) -> bool:
    """D totally dominates S and is minimal among S-TD-sets, in O(|D|) mask
    operations. ``masks[i]`` is N(i) as a bitmask, for each bit i of D.

    S must lie inside N(D), and every v in D needs an S-private neighbor:
    some u in S with N(u) & D = {v}; without one, D - v still dominates S.
    One pass over the bits of D ORs their neighbor masks into ``once`` and
    keeps in ``twice`` what a mask meets again, so the vertices with exactly
    one neighbor in D are once & ~twice.
    """
    nbrs = []
    once = twice = 0
    rest = dmask
    while rest:
        low = rest & -rest
        m = masks[low.bit_length() - 1]
        nbrs.append(m)
        twice |= once & m
        once |= m
        rest ^= low
    if smask & ~once:
        return False
    private = once & ~twice & smask
    for m in nbrs:
        if not m & private:
            return False
    return True


def _neighborhood(g: Graph, dmask: int) -> int:
    """N(D): the bits of the neighbors of the set bits of ``dmask``."""
    adj = g.adj
    out = 0
    for i in _bit_indices(dmask):
        for j in adj[i]:
            out |= 1 << j
    return out


def is_s_td_set(g, d, s) -> bool:
    g = _graph_of(g)
    return g.mask_of(s) & ~_neighborhood(g, g.mask_of(d)) == 0


def is_minimal_set(g, d) -> bool:
    """Minimality with respect to open neighborhoods: no proper subset of D
    has the same N(D), so every v in D has a private neighbor anywhere in
    N(D). That is minimality among the N(D)-TD-sets."""
    g = _graph_of(g)
    dmask = g.mask_of(d)
    masks = {i: sum(1 << j for j in g.adj[i]) for i in _bit_indices(dmask)}
    return _is_minimal_s_td(masks, dmask, _neighborhood(g, dmask))


# ---------------------------------------------------------------------------
# Families of minimal (S-)TD-sets
# ---------------------------------------------------------------------------

def _lex_before(a: int, b: int) -> bool:
    """For distinct masks of one size: the index tuple of ``a`` comes first,
    as the lowest index where they differ is in ``a``."""
    x = a ^ b
    return bool(x & -x & a)


class MinimalSetFamily(_Record):
    """The members as bitmasks over the vertex indices of ``graph``.

    Index order is label order, so the lexicographic order of index tuples
    is that of label tuples. ``sizes``, ``is_unmixed`` and ``witness`` read
    popcounts and masks; the label tuples are built only when ``sets`` or
    iteration asks for them. ``repr`` leaves the graph out; ``==`` and
    ``hash`` compare it.
    """

    _fields = ("masks",)

    def __init__(self, graph: Graph, masks: tuple[int, ...]):
        d = self.__dict__
        d["graph"] = graph
        d["masks"] = masks

    def _key(self) -> tuple:
        return self.graph, self.masks

    @_fact
    def sets(self) -> tuple[VertexSet, ...]:
        """The members as label tuples, lexicographically sorted."""
        return self.graph.sets_of(self.masks)

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.sets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self.masks}))

    def is_unmixed(self) -> bool:
        return len(self.sizes()) <= 1

    def witness(self) -> tuple[VertexSet, VertexSet] | None:
        """Two members of different sizes, or None when every member has one
        size: the lexicographically first of the smallest size and the
        lexicographically last of the largest size."""
        sizes = self.sizes()
        if len(sizes) <= 1:
            return None
        lo, hi = sizes[0], sizes[-1]
        first = last = None
        for m in self.masks:
            k = m.bit_count()
            if k == lo and (first is None or _lex_before(m, first)):
                first = m
            elif k == hi and (last is None or _lex_before(last, m)):
                last = m
        return self.graph.labels_of(first), self.graph.labels_of(last)


def minimal_s_td_sets(g, s, cap: int | None = None) -> MinimalSetFamily:
    """All minimal S-TD-sets, each re-verified against the definitions.

    ``s`` is any iterable of labels of ``g``; an unknown label raises
    KeyError. The recheck of a transversal D (``_is_minimal_s_td``) is one
    pass over the bits of D: N(D) and the vertices with exactly one neighbor
    in D come from |D| neighbor masks, S inside N(D) is one AND, and each v
    in D needs a neighbor among those vertices inside S. A family of
    ``_COLUMNS_FROM`` members or more is rechecked whole, one operation per
    vertex and neighbor on an int with a bit per member
    (``_failing_members``). The first set in mask order that fails raises
    TheoremViolation.
    """
    g = _graph_of(g)
    index = g.index
    return _minimal_s_td_family(g, sorted({index[v] for v in s}), cap)


def minimal_td_sets(g, cap: int | None = None) -> MinimalSetFamily:
    g = _graph_of(g)
    return _minimal_s_td_family(g, range(g.n), cap)


def _minimal_s_td_family(g: Graph, target, cap: int | None, adj=None) -> MinimalSetFamily:
    """``minimal_s_td_sets`` for the sorted, distinct vertex indices
    ``target``, over the neighbor lists ``adj`` by index of ``g`` (``g.adj``
    when None): a layer of a tree passes those of an interior side, whose
    sets are then found in the tree's indices."""
    if adj is None:
        adj = g.adj
    masks = _neighbor_masks(adj)
    edges = []
    smask = 0
    for i in target:
        edges.append(masks[i])
        smask |= 1 << i
    found = minimal_transversal_masks(edges, cap=cap)
    failed = _first_failing(adj, found, target, smask, masks)
    if failed is not None:
        raise TheoremViolation(
            f"transversal {g.labels_of(failed)} is not a verified minimal S-TD-set"
        )
    return MinimalSetFamily(graph=g, masks=tuple(found))


def _neighbor_masks(adj) -> list[int]:
    """N(v) as a bitmask per vertex: O(n^2) bits, so built per call, not
    kept."""
    masks = []
    for nb in adj:
        m = 0
        for j in nb:
            m |= 1 << j
        masks.append(m)
    return masks


def _first_failing(adj, found, target, smask: int, masks=None) -> int | None:
    """The first member of ``found``, in its order, that is not a minimal
    S-TD-set for the vertex indices ``target`` (the bits of ``smask``), or
    None. Below ``_COLUMNS_FROM`` members each is tested by
    ``_is_minimal_s_td`` over the neighbor masks ``masks``, built from
    ``adj`` when not given; from there the family is tested whole on the
    neighbor lists ``adj`` (``_failing_members``)."""
    if len(found) < _COLUMNS_FROM:
        if masks is None:
            masks = _neighbor_masks(adj)
        return next((m for m in found if not _is_minimal_s_td(masks, m, smask)), None)
    bad = _failing_members(adj, found, target)
    return found[(bad & -bad).bit_length() - 1] if bad else None


def _failing_members(adj, family: list[int], target) -> int:
    """The members of ``family`` that are not minimal S-TD-sets, as a bitset
    over their positions: ``_is_minimal_s_td`` for the whole family at once.

    Column v of the family (``graphs._columns``) holds the members that
    contain vertex v. For each u in S, folding the columns of N(u) into
    ``once`` and ``twice`` gives the members that dominate u and those that
    dominate it twice or more; a member missing from ``once`` does not
    dominate S, and ``exact[u]`` marks the members in which u has exactly
    one neighbor. A member containing v needs some u in S inside N(v) with
    that member in ``exact[u]``, as then N(u) & D = {v}. Each step is one
    operation on a len(family)-bit int.
    """
    cols = _columns(family, len(adj))
    full = (1 << len(family)) - 1
    bad = 0
    exact = [0] * len(adj)
    for u in target:
        once = twice = 0
        for w in adj[u]:
            c = cols[w]
            twice |= once & c
            once |= c
        bad |= full ^ once
        exact[u] = once ^ twice  # once & ~twice, as twice lies in once
    for v, c in enumerate(cols):
        if c:
            private = 0
            for u in adj[v]:
                private |= exact[u]
            bad |= c & ~private
    return bad


# The running counts of ``_count_minimal_s_td`` for a vertex with no child
# folded in: z0, z1, z1e, zall, then a0..aall and n0..nall
_NO_CHILD = (1, 0, 0, 1) * 3


def _count_minimal_s_td(adj, target) -> int | None:
    """The number of minimal S-TD-sets of the forest with neighbor lists
    ``adj`` by index, for the vertex indices ``target``; None when the graph
    has a cycle. No enumeration, no recursion and no labels: one search and
    one pass over the vertices, children before parents, with a product
    over the components.

    D is a minimal S-TD-set when every u in S has a neighbor in D and every
    v in D has a private neighbor: some u in S with N(u) & D = {v}. On a
    rooted tree that u is v's parent or one of its children. Once its
    children are folded in, a vertex v sends its parent p the number of ways
    to choose D inside its subtree with every condition settled except those
    that wait on p, in three kinds:
    - ``a``: v is not in D;
    - ``b``: v is in D and has a private child, a child in S with no child
      in D;
    - ``e``: v is in D with no private child, so it needs p as its private
      neighbor: p in S, with v its only neighbor in D.
    It sends one table for p out of D (``out_``) and one for p in D
    (``in_``). With p out of D, v in S needs a child in D. With p in D, the
    ways in which v, in S with no child in D, is a private child of p are
    counted apart (``in_give_``).

    A vertex folds its children's tables into four running counts for each
    of its own choices: no child in D (``z0``), one child in D that does not
    need it (``z1``) or does (``z1e``), and no child needing it (``zall``,
    so ``zall - z0 - z1`` ways have two or more children in D). The ``z``
    counts are for v out of D, the ``a`` counts for v in D, and the ``n``
    counts for v in D over the ways with no private child. A child may need
    v only when v is in S and that child is its one neighbor in D, so those
    ways reach the table for p out of D only.
    """
    n = len(adj)
    in_s = [False] * n
    for u in target:
        in_s[u] = True
    parent = [-1] * n
    seen = [False] * n
    acc: list = [None] * n
    total = 1
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:  # grows while it is walked
            p = parent[v]
            for w in adj[v]:
                if w != p:
                    if seen[w]:
                        return None
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        for v in reversed(order):
            z0, z1, z1e, zall, a0, a1, a1e, aall, n0, n1, n1e, nall = acc[v] or _NO_CHILD
            z2 = zall - z0 - z1
            a2 = aall - a0 - a1
            n2 = nall - n0 - n1
            if in_s[v]:
                # out of D: needs a child in D or p in D; private to p alone
                out_a = z1 + z1e + z2
                in_give_a, in_a = z0, z1 + z2
                # in D: a child needing v needs p out of D
                every, none = a1 + a1e + a2, n1 + n1e + n2
                out_b, out_e = every - none, none
                in_give_b, in_give_e = a0 - n0, n0
                in_b, in_e = a1 + a2 - n1 - n2, n1 + n2
            else:
                # no child in D may need v
                out_a = z0 + z1 + z2
                in_give_a, in_a = 0, out_a
                every, none = a0 + a1 + a2, n0 + n1 + n2
                out_b, out_e = every - none, none
                in_give_b = in_give_e = 0
                in_b, in_e = out_b, out_e
            p = parent[v]
            if p < 0:
                # a root in D needs a private neighbor below it
                total *= out_a + out_b
                continue
            z0, z1, z1e, zall, a0, a1, a1e, aall, n0, n1, n1e, nall = acc[p] or _NO_CHILD
            all_a, all_b, all_e = in_a + in_give_a, in_b + in_give_b, in_e + in_give_e
            acc[p] = (
                z0 * out_a, z1 * out_a + z0 * out_b, z1e * out_a + z0 * out_e,
                zall * (out_a + out_b),
                a0 * all_a, a1 * all_a + a0 * all_b, a1e * all_a + a0 * all_e,
                aall * (all_a + all_b),
                n0 * in_a, n1 * in_a + n0 * in_b, n1e * in_a + n0 * in_e,
                nall * (in_a + in_b),
            )
    return total


def is_unmixed_bruteforce(g) -> bool:
    """Unmixedness by full, uncapped enumeration; vacuously true with no
    TD-set."""
    return minimal_td_sets(g).is_unmixed()
