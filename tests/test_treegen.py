from __future__ import annotations

from oracles import label_edges, random_tree_by_edges, label_components
from totaldom.domination import is_unmixed_bruteforce
from totaldom.graphs import canonical_form
from totaldom.treegen import Lcg64, _parent_arrays, all_trees, random_tree
from totaldom.unmixed import is_unmixed_fast

# free trees up to isomorphism, n = 1..11 (OEIS A000055)
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}
# the unmixed ones among them, by the interior-graph test
UNMIXED_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 5, 7: 8, 8: 17, 9: 31, 10: 69, 11: 143}


def test_exhaustive_counts():
    for n, expected in FREE_TREE_COUNTS.items():
        assert len(all_trees(n)) == expected


def test_unmixed_class_counts():
    for n, expected in UNMIXED_TREE_COUNTS.items():
        assert sum(is_unmixed_fast(t).unmixed for t in all_trees(n)) == expected


def test_unmixed_class_counts_by_enumeration():
    for n in range(1, 11):
        assert sum(map(is_unmixed_bruteforce, all_trees(n))) == UNMIXED_TREE_COUNTS[n]


def test_exhaustive_distinct_classes():
    for n in range(1, 9):
        forms = [canonical_form(t) for t in all_trees(n)]
        assert len(set(forms)) == len(forms)


def test_lcg_is_deterministic():
    a, b = Lcg64(99), Lcg64(99)
    assert [a.next_u32() for _ in range(5)] == [b.next_u32() for _ in range(5)]


def test_lcg_pinned_stream():
    # frozen from the documented constants; guards cross-version drift
    rng = Lcg64(1)
    assert [rng.next_u32() for _ in range(3)] == [
        1817669548,
        2187888307,
        2784682393,
    ]


def test_random_tree_is_tree_and_seeded():
    rng = Lcg64(5)
    trees = [random_tree(rng, n) for n in (1, 2, 7, 12)]
    assert [t.graph.n for t in trees] == [1, 2, 7, 12]
    rng2 = Lcg64(5)
    again = [random_tree(rng2, n) for n in (1, 2, 7, 12)]
    assert [label_edges(t.graph) for t in trees] == [label_edges(t.graph) for t in again]


def test_random_tree_on_two_vertices_draws_nothing():
    # the Prufer sequence is empty: no draw, and the two leaves are joined
    rng = Lcg64(5)
    assert label_edges(random_tree(rng, 2).graph) == (("t0", "t1"),)
    assert rng.state == 5


def test_parent_arrays_of_one_vertex():
    assert list(_parent_arrays(1)) == [()]
    assert list(_parent_arrays(3)) == [(0, 0), (0, 1)]


def test_random_trees_spread_over_classes():
    # uniform labeled trees: enough draws must land in many isomorphism
    # classes (stars are rare, so full coverage is not expected here)
    rng = Lcg64(31337)
    forms = {canonical_form(random_tree(rng, 7)) for _ in range(300)}
    known = {canonical_form(t) for t in all_trees(7)}
    assert forms <= known
    assert len(forms) >= 8


def test_random_tree_matches_edge_list_decode():
    # the index-space decode gives the tree, the labels and the components of
    # the edge-list route, and leaves the generator in the same state
    for n in range(1, 65):
        for seed in range(25):
            a, b = Lcg64(seed * 1000 + n), Lcg64(seed * 1000 + n)
            got, want = random_tree(a, n), random_tree_by_edges(b, n)
            assert got.graph.labels == want.graph.labels
            assert got.graph.index == want.graph.index
            assert got.graph.adj == want.graph.adj
            assert got.component_indices == want.component_indices
            assert label_components(got) == label_components(want)
            assert a.state == b.state
