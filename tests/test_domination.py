from __future__ import annotations

from itertools import combinations

import pytest

from oracles import (
    domination_selector,
    label_edges,
    level,
    minimal_by_definition,
    minimal_s_td_by_subsets,
    minimal_td_sets_by_subsets,
    neighbor_masks,
    neighborhood_by_scan,
    odd_heights,
)
from totaldom import domination
from totaldom.domination import (
    _is_minimal_s_td,
    is_minimal_set,
    is_s_td_set,
    is_unmixed_bruteforce,
    minimal_s_td_sets,
    minimal_td_sets,
    minimal_transversals,
)
from totaldom.errors import EnumerationCapExceeded, TheoremViolation
from totaldom.graphs import Graph, Tree, heights, path_graph, star_graph, two_coloring, vset
from totaldom.treegen import Lcg64, random_tree, trees_up_to


# ---------------------------------------------------------------------------
# open neighborhoods
# ---------------------------------------------------------------------------

def test_open_neighborhood_paper_path(paper_p4):
    assert neighborhood_by_scan(paper_p4.graph, ("s1", "s2", "u")) == ("l1", "l2", "s1", "s2", "u")


def test_open_neighborhood_empty(paper_p4):
    assert neighborhood_by_scan(paper_p4.graph, ()) == ()


def test_open_neighborhood_p5(paper_p5):
    assert neighborhood_by_scan(paper_p5.graph, ("v1", "v5")) == ("v2", "v4", "v6")


def test_open_neighborhood_matches_scan(trees8):
    # the mask N(D) that is_s_td_set and is_minimal_set read
    for t in trees8[::3]:
        g = t.graph
        for size in (0, 1, g.n // 2):
            subset = g.labels[:size]
            got = g.labels_of(domination._neighborhood(g, g.mask_of(subset)))
            assert got == neighborhood_by_scan(g, subset)


# ---------------------------------------------------------------------------
# S-TD-sets
# ---------------------------------------------------------------------------

def test_is_s_td_set_p5(paper_p5):
    assert is_s_td_set(paper_p5, ("v1", "v5"), ("v2", "v4", "v6"))
    assert is_s_td_set(paper_p5, ("v3", "v5"), ("v2", "v4", "v6"))
    assert not is_s_td_set(paper_p5, ("v1", "v3"), ("v2", "v4", "v6"))


def test_is_td_set_paper_path(paper_p4):
    assert is_s_td_set(paper_p4, ("s1", "s2", "u"), paper_p4.labels)
    assert not is_s_td_set(paper_p4, ("s1", "s2"), paper_p4.labels)


def test_isolated_vertex_blocks_td():
    g = Graph.from_edges([("a", "b")], extra_vertices=["w"])
    for k in range(4):
        for d in combinations(g.labels, k):
            assert not is_s_td_set(g, d, g.labels)


# ---------------------------------------------------------------------------
# minimality and selectors
# ---------------------------------------------------------------------------

def test_empty_set_is_minimal(paper_p4):
    assert is_minimal_set(paper_p4, ())
    sel = domination_selector(paper_p4, ())
    assert sel is not None and sel.assignment == ()


def test_paper_path_minimality(paper_p4):
    assert not is_minimal_set(paper_p4, ("l1", "u"))
    assert is_minimal_set(paper_p4, ("s1", "s2", "u"))


def test_selector_deterministic_smallest_witness(paper_p4):
    sel = domination_selector(paper_p4, ("s1", "s2", "u"))
    assert sel is not None
    assert sel.as_dict() == {"s1": "l1", "s2": "l2", "u": "s1"}


def test_selector_absent_for_non_minimal(paper_p4):
    assert domination_selector(paper_p4, ("l1", "u")) is None


def test_minimality_matches_definition_oracle(trees8):
    for t in trees8:
        labs = t.graph.labels
        for k in range(len(labs) + 1):
            for d in combinations(labs, k):
                assert is_minimal_set(t, d) == minimal_by_definition(t.graph, d)


def test_selector_exists_iff_minimal(trees8):
    for t in trees8:
        labs = t.graph.labels
        for k in range(len(labs) + 1):
            for d in combinations(labs, k):
                assert (domination_selector(t, d) is not None) == is_minimal_set(t, d)


def test_selector_is_injective_private_witness(trees8):
    for t in trees8:
        for d in minimal_td_sets(t):
            sel = domination_selector(t, d)
            assert sel is not None
            images = [w for _, w in sel.assignment]
            assert len(set(images)) == len(images)
            for v, w in sel.assignment:
                assert set(t.graph.neighbors(w)) & set(d) == {v}


# ---------------------------------------------------------------------------
# transversals
# ---------------------------------------------------------------------------

def test_transversals_p5_hypergraph():
    got = minimal_transversals([("v1", "v3"), ("v3", "v5"), ("v5",)])
    assert got == (("v1", "v5"), ("v3", "v5"))


def test_transversals_read_an_iterator_once():
    edges = [("a",), ("b", "c")]
    assert minimal_transversals(iter(edges)) == minimal_transversals(edges)
    assert minimal_transversals(iter(edges)) == (("a", "b"), ("a", "c"))


def test_transversals_no_constraints():
    assert minimal_transversals([]) == ((),)


def test_transversals_empty_edge_kills_family():
    assert minimal_transversals([("a",), ()]) == ()


@pytest.mark.parametrize("edges", [[0], [0b1, 0], [0b11, 0b101, 0b110, 0]])
def test_transversal_masks_empty_edge_never_reaches_a_cap(edges):
    # the empty edge sorts first and empties the family; later edges add none
    assert domination.minimal_transversal_masks(edges, cap=1) == []


def test_transversals_paper_path_neighborhoods(paper_p4):
    edges = [paper_p4.graph.neighbors(v) for v in paper_p4.graph.labels]
    got = minimal_transversals(edges)
    assert got == (("l1", "l2", "s1", "s2"), ("s1", "s2", "u"))


def test_transversal_cap():
    # n disjoint pairs have 2^n minimal transversals
    edges = [(f"a{i}", f"b{i}") for i in range(6)]
    with pytest.raises(EnumerationCapExceeded):
        minimal_transversals(edges, cap=10)
    assert len(minimal_transversals(edges)) == 64


def test_transversals_are_minimal_hitting_sets(trees8):
    for t in trees8[::4]:
        edges = [t.graph.neighbors(v) for v in t.graph.labels]
        for tr in minimal_transversals(edges):
            assert all(set(tr) & set(e) for e in edges)
            for v in tr:
                smaller = set(tr) - {v}
                assert any(not (smaller & set(e)) for e in edges)


# ---------------------------------------------------------------------------
# minimal TD-set families
# ---------------------------------------------------------------------------

def test_minimal_td_sets_p6():
    fam = minimal_td_sets(path_graph(6))
    assert fam.sets == (
        ("0", "1", "4", "5"),
        ("1", "2", "4", "5"),
        ("1", "2", "5", "6"),
    )
    assert fam.is_unmixed()


def test_minimal_td_sets_paper_path(paper_p4):
    fam = minimal_td_sets(paper_p4)
    assert fam.sets == (("l1", "l2", "s1", "s2"), ("s1", "s2", "u"))
    assert fam.sizes() == (3, 4)
    assert not fam.is_unmixed()


def test_minimal_td_sets_isolated_vertex_empty_family():
    g = Graph.from_edges([("a", "b")], extra_vertices=["w"])
    assert len(minimal_td_sets(g)) == 0
    assert is_unmixed_bruteforce(g)  # vacuously


def test_minimal_s_td_sets_p5(paper_p5):
    fam = minimal_s_td_sets(paper_p5, ("v2", "v4", "v6"))
    assert fam.sets == (("v1", "v5"), ("v3", "v5"))
    assert fam.is_unmixed()


def test_family_matches_subset_oracle(trees8):
    for t in trees8:
        assert minimal_td_sets(t).sets == minimal_td_sets_by_subsets(t.graph)


def test_s_family_matches_subset_oracle(trees8):
    rng = Lcg64(7)
    for t in trees8[::2]:
        labs = t.graph.labels
        target = tuple(v for v in labs if rng.randrange(2))
        got = minimal_s_td_sets(t, target).sets
        assert got == minimal_td_sets_by_subsets(t.graph, target)


def test_s_family_reads_any_label_iterable(trees8):
    # a target is a set of labels, however it is given
    rng = Lcg64(11)
    for t in trees8:
        labs = t.graph.labels
        picked = [v for v in labs if rng.randrange(2)]
        for target, labels in (
            (picked[::-1], picked),
            (picked + picked[:2], picked),
            ((v for v in picked), picked),
            ([], []),
            (list(labs), labs),
        ):
            got = minimal_s_td_sets(t, target)
            want = minimal_s_td_sets(t, vset(labels))
            assert got.masks == want.masks and got.sets == want.sets
        assert minimal_td_sets(t).masks == minimal_s_td_sets(t, labs[::-1]).masks
        with pytest.raises(KeyError):
            minimal_s_td_sets(t, [*picked, "not-a-vertex"])


def test_neighborhood_hypergraph_witnesses(paper_p4):
    g = paper_p4.graph
    assert ("s1",) in {g.neighbors(v) for v in g.labels}  # N(l1)
    assert tuple(v for v in g.labels if g.neighbors(v) == ("s1", "s2")) == ("u",)


# ---------------------------------------------------------------------------
# the recheck of each transversal
# ---------------------------------------------------------------------------

# Masks over the sorted labels l1, l2, s1, s2, u of the paper path.
P4_MINIMAL = 0b11100  # {s1, s2, u}: a minimal TD-set
P4_MISSES = 0b01100  # {s1, s2}: N(D) misses s1 and s2
P4_NOT_MINIMAL = 0b11101  # {l1, s1, s2, u}: TD, but l1 has no private neighbor


# Each family is in mask order, as the engine returns it.
@pytest.mark.parametrize(("family", "target", "reported"), [
    ([P4_MISSES, P4_MINIMAL], None, "('s1', 's2')"),
    ([P4_MINIMAL, P4_NOT_MINIMAL], None, "('l1', 's1', 's2', 'u')"),
    ([0, P4_MINIMAL], None, "()"),
    ([0], ("u",), "()"),
    ([P4_MISSES, P4_MINIMAL, P4_NOT_MINIMAL], None, "('s1', 's2')"),
    ([P4_MISSES, P4_NOT_MINIMAL], ("l1", "l2"), "('l1', 's1', 's2', 'u')"),
])
def test_recheck_reports_first_failing_transversal(monkeypatch, paper_p4, family, target, reported):
    monkeypatch.setattr(domination, "minimal_transversal_masks", lambda edges, cap=None: family)
    with pytest.raises(TheoremViolation) as exc:
        minimal_s_td_sets(paper_p4, paper_p4.labels if target is None else target)
    assert str(exc.value) == f"transversal {reported} is not a verified minimal S-TD-set"


def test_mask_recheck_matches_definitions_on_every_subset():
    # the recheck is S-minimality: no co-singleton subset still dominates S;
    # targets V, the odd heights, V3 and one leaf
    for t in trees_up_to(7):
        g = t.graph
        masks = neighbor_masks(g)
        hmap = heights(t)
        for target in (g.labels, odd_heights(hmap), level(hmap, 3), level(hmap, 0)[:1]):
            smask = g.mask_of(target)
            covered = set(target)
            for dmask in range(1 << g.n):
                d = g.labels_of(dmask)
                dominates = covered <= set(neighborhood_by_scan(g, d))
                assert is_s_td_set(t, d, target) == dominates
                assert is_minimal_set(t, d) == minimal_by_definition(g, d)
                assert _is_minimal_s_td(masks, dmask, smask) == minimal_s_td_by_subsets(
                    g, d, target
                )


def test_mask_recheck_wants_the_private_neighbor_inside_the_target():
    # on a-b-c-x with S = {a}, {b, c} dominates S and c has the private
    # neighbor x, but x is outside S, so {b} alone still dominates S
    t = Tree.from_edges([("a", "b"), ("b", "c"), ("c", "x")])
    g = t.graph
    masks = neighbor_masks(g)
    assert not _is_minimal_s_td(masks, g.mask_of(("b", "c")), g.mask_of(("a",)))
    assert _is_minimal_s_td(masks, g.mask_of(("b",)), g.mask_of(("a",)))
    assert is_minimal_set(t, ("b", "c"))
    assert minimal_s_td_sets(t, ("a",)).sets == (("b",),)


# ---------------------------------------------------------------------------
# fact-level properties
# ---------------------------------------------------------------------------

def test_superset_closure_of_td_sets():
    rng = Lcg64(2024)
    for _ in range(60):
        t = random_tree(rng, 4 + rng.randrange(9))
        labs = t.graph.labels
        d = tuple(v for v in labs if rng.randrange(2))
        if not is_s_td_set(t, d, t.labels):
            continue
        extra = tuple(set(d) | {labs[rng.randrange(len(labs))]})
        assert is_s_td_set(t, extra, t.labels)


def test_every_td_set_contains_a_minimal_one(trees8):
    for t in trees8[::5]:
        family = minimal_td_sets(t).sets
        labs = t.graph.labels
        for k in range(len(labs) + 1):
            for d in combinations(labs, k):
                if is_s_td_set(t, d, t.labels):
                    assert any(set(m) <= set(d) for m in family)
            if k > 4:
                break


def test_leaf_count_per_support_in_minimal_sets(trees8):
    from totaldom.graphs import classify_vertices

    for t in trees8:
        cls = classify_vertices(t)
        leaves = set(cls.leaves)
        for d in minimal_td_sets(t):
            for s in cls.supports:
                near_leaves = set(t.graph.neighbors(s)) & leaves & set(d)
                assert len(near_leaves) <= 1


def test_disjoint_union_lemma(trees8):
    # selectors avoiding the shared neighborhood certify the union minimal
    for t in trees8[::3]:
        labs = t.graph.labels
        g = t.graph
        small = [d for k in range(1, 3) for d in combinations(labs, k) if is_minimal_set(t, d)]
        for d1 in small[:6]:
            for d2 in small[:6]:
                if set(d1) & set(d2):
                    continue
                shared = set(neighborhood_by_scan(g, d1)) & set(neighborhood_by_scan(g, d2))

                def avoids(dset):
                    for v in dset:
                        opts = [
                            u
                            for u in labs
                            if set(g.neighbors(u)) & set(dset) == {v} and u not in shared
                        ]
                        if not opts:
                            return False
                    return True

                if avoids(d1) and avoids(d2):
                    assert is_minimal_set(t, tuple(set(d1) | set(d2)))


def test_disjoint_neighborhood_corollary(trees8):
    for t in trees8[::3]:
        labs = t.graph.labels
        g = t.graph
        small = [d for k in range(1, 3) for d in combinations(labs, k) if is_minimal_set(t, d)]
        for d1 in small[:8]:
            for d2 in small[:8]:
                if set(d1) & set(d2):
                    continue
                if set(neighborhood_by_scan(g, d1)) & set(neighborhood_by_scan(g, d2)):
                    continue
                assert is_minimal_set(t, tuple(set(d1) | set(d2)))


def test_leaf_adding_preserves_mixedness(trees8):
    from totaldom.graphs import classify_vertices

    for t in trees8:
        if t.graph.n < 2 or t.graph.n > 8:
            continue
        cls = classify_vertices(t)
        if not cls.supports:
            continue
        s = cls.supports[0]
        bigger = Tree.from_edges(list(label_edges(t.graph)) + [(s, "zz_new")])
        assert is_unmixed_bruteforce(t) == is_unmixed_bruteforce(bigger)


def test_rd_bd_split(trees8):
    # D is a minimal TD-set iff its color classes minimally dominate the
    # opposite classes
    from totaldom.domination import minimal_s_td_sets

    for t in trees8[::2]:
        if t.graph.n < 2:
            continue
        col = two_coloring(t)
        rd = set(minimal_s_td_sets(t, col.red).sets)
        bd = set(minimal_s_td_sets(t, col.blue).sets)
        family = set(minimal_td_sets(t).sets)
        blue, red = set(col.blue), set(col.red)
        for d in family:
            dprime = tuple(sorted(set(d) & blue))
            dsecond = tuple(sorted(set(d) & red))
            assert dprime in rd and dsecond in bd
        crossed = {tuple(sorted(a + b)) for a in rd for b in bd}
        assert crossed == family


def test_minimal_rd_sets_live_in_blue(trees8):
    for t in trees8[::4]:
        if t.graph.n < 2:
            continue
        col = two_coloring(t)
        for d in minimal_s_td_sets(t, col.red):
            assert set(d) <= set(col.blue)


def test_star_unique_td_set():
    fam = minimal_td_sets(star_graph(4))
    assert all("s" in d for d in fam)
    assert fam.sizes() == (2,)
    assert is_unmixed_bruteforce(star_graph(4))


def test_single_edge_unique_td_set():
    fam = minimal_td_sets(path_graph(1))
    assert fam.sets == (("0", "1"),)
