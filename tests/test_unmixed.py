from __future__ import annotations

import statistics
import time

import pytest

from oracles import (
    even_blue_coloring,
    even_heights,
    forest_height,
    level,
    support_rows_by_labels,
    swapped_coloring_tree,
)
from totaldom.construct import generate
from totaldom.domination import is_unmixed_bruteforce, minimal_s_td_sets
from totaldom.errors import (
    InputError,
    MixedTreeError,
    NotATreeError,
    NotBalancedError,
    TheoremViolation,
    TotaldomError,
)
from totaldom.graphs import (
    Forest,
    Graph,
    Tree,
    classify_vertices,
    heights,
    path_graph,
    star_graph,
    two_coloring,
)
from totaldom.treegen import Lcg64, random_tree
from totaldom.unmixed import (
    Analysis,
    characterize_balanced_unmixed,
    interior_graphs,
    is_balanced,
    is_unmixed_fast,
    mixedness_witness,
)
from totaldom.verify import unmixed_corpus


def spider(k: int) -> Tree:
    edges = []
    for i in range(k):
        edges += [("c", f"m{i}"), (f"m{i}", f"l{i}")]
    return Tree.from_edges(edges)


# ---------------------------------------------------------------------------
# balancedness
# ---------------------------------------------------------------------------

def test_p6_balanced_p5_not(paper_p5):
    assert is_balanced(path_graph(6))
    assert not is_balanced(paper_p5)  # heights 0,1,2,2,1,0


def test_single_vertex_balanced():
    assert is_balanced(path_graph(0))


def test_balanced_criteria_consistency(trees8):
    # the three equivalent criteria are asserted inside is_balanced; run it
    # everywhere so a disagreement would explode
    flags = [is_balanced(t) for t in trees8]
    assert any(flags) and not all(flags)


def test_adjacent_heights_differ_by_one_in_balanced(trees10):
    for t in trees10:
        if not is_balanced(t):
            continue
        h = heights(t)
        for a, b in t.graph.edges():
            assert abs(h[a] - h[b]) == 1


def test_top_level_smaller_than_next(trees10):
    for t in trees10:
        if not is_balanced(t):
            continue
        h = heights(t)
        d = max(h.values())
        if d > 0:
            assert len(level(h, d - 1)) > len(level(h, d))


def test_same_height_even_distance_same_color(trees10):
    for t in trees10[::4]:
        if not is_balanced(t):
            continue
        h = heights(t)
        col = two_coloring(t)
        g = t.graph
        for v in g.labels:
            dist = g.distances_from(v)
            for w in g.labels:
                if h[v] == h[w]:
                    assert dist[w] % 2 == 0
                    assert (v in col.blue) == (w in col.blue)


# ---------------------------------------------------------------------------
# interior graphs
# ---------------------------------------------------------------------------

def test_interiors_p6():
    t = path_graph(6)
    assert two_coloring(t) == even_blue_coloring(t)
    ig = interior_graphs(t)
    assert ig.blue.labels == t.graph.labels  # no blue supports
    assert ig.red.labels == ("3",)


def test_interiors_single_edge_both_empty():
    ig = interior_graphs(path_graph(1))
    assert ig.blue.labels == () and ig.red.labels == ()


def test_interiors_star():
    t = star_graph(3)
    assert two_coloring(t) == even_blue_coloring(t)
    ig = interior_graphs(t)
    # the support is red, so the blue side keeps everything
    assert ig.blue.labels == t.graph.labels
    assert ig.red.labels == ()


def test_interior_components_balanced(trees10):
    for t in trees10[::2]:
        if t.graph.n < 2:
            continue
        ig = interior_graphs(t)
        for side in (ig.blue, ig.red):
            for comp in side.component_trees():
                assert is_balanced(comp)


def test_interior_components_share_the_side_heights(trees10):
    # each component's Analysis takes its heights from its interior forest;
    # they must be the heights of the component tree on its own
    rng = Lcg64(31)
    trees = [t for t in trees10 if t.graph.n > 1] + [random_tree(rng, 60) for _ in range(20)]
    for t in trees:
        for side in Analysis(t).sides:
            for comp in side.components:
                assert dict(zip(comp.forest.labels, comp.height)) == heights(comp.forest)


def _outcome(read, facts):
    """What ``read(facts)`` returns, or the type and message of the
    package error it raises."""
    try:
        return read(facts)
    except TotaldomError as exc:
        return type(exc), str(exc)


def _support_rows_as_labels(facts):
    labels = facts.forest.labels
    return tuple([tuple([labels[i] for i in row]) for row in facts.support_rows])


def test_index_heights_and_support_rows_match_the_label_oracle():
    # the tree, each interior side and each of its components hold heights
    # and support rows in their own index space; their label images are the
    # label-level computations, errors included
    trees = unmixed_corpus(5, 60) + [generate(s, s % 9)[0] for s in range(100)]
    rows = errors = 0
    for t in trees:
        facts = Analysis(t)
        for a in (facts, *[x for side in facts.sides for x in (side, *side.components)]):
            assert dict(zip(a.forest.labels, a.height)) == heights(a.forest)
            got = _outcome(_support_rows_as_labels, a)
            assert got == _outcome(support_rows_by_labels, a)
            if got and isinstance(got[0], type):
                errors += 1
            else:
                rows += len(got)
    assert rows > 1000 and errors > 50


def test_vertex_partition(trees10):
    # V(T) splits into the two even interiors and the supports
    for t in trees10[::2]:
        if t.graph.n < 2:
            continue
        ig = interior_graphs(t)
        blue_even = set(even_heights(heights(ig.blue)))
        red_even = set(even_heights(heights(ig.red)))
        supports = set(classify_vertices(t).supports)
        assert blue_even | red_even | supports == set(t.graph.labels)
        assert not (blue_even & red_even)
        assert not (blue_even & supports)
        assert not (red_even & supports)


def test_bd_sets_factor_through_red_interior(trees8):
    # minimal BD-sets = (red supports) u (minimal BD-set of the red interior)
    for t in trees8[::2]:
        if t.graph.n < 2:
            continue
        col = two_coloring(t)
        ig = interior_graphs(t)
        red_supports = set(classify_vertices(t).supports) & set(col.red)
        # BD-sets of the red interior, under the restriction of T's coloring
        restricted_blue = [v for v in col.blue if v in set(ig.red.labels)]
        inner_sets = set(minimal_s_td_sets(ig.red, restricted_blue).sets)
        expected = {tuple(sorted(red_supports | set(d))) for d in inner_sets}
        assert set(minimal_s_td_sets(t, col.blue).sets) == expected


# ---------------------------------------------------------------------------
# the characterization
# ---------------------------------------------------------------------------

def test_characterize_p6():
    cert = characterize_balanced_unmixed(path_graph(6))
    assert cert.unmixed
    assert cert.checks[0].height == 3


def test_characterize_rejects_unbalanced(paper_p5):
    with pytest.raises(NotBalancedError):
        characterize_balanced_unmixed(paper_p5)


def test_characterize_star():
    for k in (2, 3, 6):
        assert characterize_balanced_unmixed(star_graph(k)).unmixed


def test_characterize_rejects_forests():
    # a balanced forest of two components, and the empty forest
    two = Forest.from_edges([("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")])
    assert is_balanced(two)
    for f, count in ((two, 2), (Forest(Graph([], [])), 0)):
        with pytest.raises(NotATreeError, match=f"expected a tree, got {count} components"):
            characterize_balanced_unmixed(f)


def test_characterize_mixed_spider():
    cert = characterize_balanced_unmixed(spider(3))
    assert not cert.unmixed
    bad = tuple(c for c in cert.checks if not c.ok)
    assert bad and not bad[0].v2_unique_v1_ok
    assert bad[0].offending_vertex == "c"


def test_fast_p6_p4(paper_p4):
    assert is_unmixed_fast(path_graph(6)).unmixed
    assert not is_unmixed_fast(paper_p4).unmixed


def test_fast_trivial_trees():
    assert is_unmixed_fast(path_graph(0)).unmixed
    assert is_unmixed_fast(path_graph(1)).unmixed
    assert is_unmixed_fast(path_graph(3)).unmixed


def test_one_vertex_tree_has_no_shelling_or_type():
    # K1 has no total dominating set and N(K1) is the unit ideal: an input
    # error, not a failed self-check
    from totaldom.algebra import cm_type
    from totaldom.complexes import stable_shelling

    for run in (stable_shelling, cm_type):
        with pytest.raises(InputError, match="one-vertex tree") as exc:
            run(path_graph(0))
        assert not isinstance(exc.value, TheoremViolation)
        assert not isinstance(exc.value, MixedTreeError)


def test_fast_agrees_with_bruteforce_small(trees10):
    for t in trees10:
        assert is_unmixed_fast(t).unmixed == is_unmixed_bruteforce(t)


def test_fast_agrees_on_random_trees():
    rng = Lcg64(4242)
    for _ in range(120):
        t = random_tree(rng, 11 + rng.randrange(4))
        assert is_unmixed_fast(t).unmixed == is_unmixed_bruteforce(t)


def test_fast_coloring_invariance(trees8):
    for t in trees8[::2]:
        if t.graph.n < 2:
            continue
        # relabelled so that the default coloring swaps the two classes
        swapped = swapped_coloring_tree(t)
        assert two_coloring(swapped).blue == tuple("a" + v for v in two_coloring(t).red)
        assert is_unmixed_fast(swapped).unmixed == is_unmixed_fast(t).unmixed


# ---------------------------------------------------------------------------
# witnesses and mixedness theorems
# ---------------------------------------------------------------------------

def test_witness_paper_path(paper_p4):
    w = mixedness_witness(paper_p4)
    assert w == (("s1", "s2", "u"), ("l1", "l2", "s1", "s2"))


def test_witness_absent_for_unmixed():
    assert mixedness_witness(path_graph(6)) is None


def test_witness_spider():
    w = mixedness_witness(spider(2))
    assert w is not None and len(w[0]) < len(w[1])


def test_distance4_leaves_imply_mixed(trees10):
    for t in trees10:
        if not is_balanced(t):
            continue
        leaves = level(heights(t), 0)
        g = t.graph
        has_d4 = any(
            g.distances_from(a).get(b) == 4 for a in leaves for b in leaves if a < b
        )
        if has_d4:
            assert not is_unmixed_fast(t).unmixed
            assert mixedness_witness(t) is not None


def test_height2_balanced_trees_are_mixed(trees10):
    for t in trees10:
        if is_balanced(t) and forest_height(t) == 2:
            assert not is_unmixed_fast(t).unmixed


def test_height_at_least_4_balanced_trees_are_mixed(trees10):
    found = 0
    for t in trees10:
        if is_balanced(t) and forest_height(t) >= 4:
            found += 1
            assert not is_unmixed_fast(t).unmixed
    assert found  # P_8 is in range


def test_unmixed_balanced_heights_are_0_1_3(trees10):
    for t in trees10:
        if is_balanced(t) and is_unmixed_fast(t).unmixed:
            assert forest_height(t) in (0, 1, 3)


def test_unique_bd_set_for_unmixed_blue_leaf_trees(trees10):
    # with leaves blue, the supports form the only minimal BD-set
    for t in trees10[::2]:
        if t.graph.n < 3 or not is_balanced(t):
            continue
        if not is_unmixed_fast(t).unmixed:
            continue
        col = even_blue_coloring(t)
        fam = minimal_s_td_sets(t, col.blue)
        assert fam.sets == (classify_vertices(t).supports,)


def test_rd_unmixedness_decides(trees10):
    # a balanced blue-leaf tree is unmixed iff its minimal RD-sets are equisized
    for t in trees10[::3]:
        if t.graph.n < 2 or not is_balanced(t):
            continue
        col = even_blue_coloring(t)
        rd = minimal_s_td_sets(t, col.red)
        assert rd.is_unmixed() == is_unmixed_fast(t).unmixed


# ---------------------------------------------------------------------------
# scaling of the polynomial test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["prufer", "path"])
def test_is_unmixed_fast_scales_near_linearly(kind):
    # ten times the vertices: a linear test takes about ten times as long,
    # one rescanning the whole graph per interior component about 100 times
    def make(n):
        return random_tree(Lcg64(2024), n) if kind == "prufer" else path_graph(n - 1)

    trees = (make(2000), make(20000))
    times = ([], [])
    for _ in range(3):  # interleaved, so a drift in machine speed hits both
        for t, runs in zip(trees, times):
            start = time.perf_counter()
            is_unmixed_fast(t)
            runs.append(time.perf_counter() - start)
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    assert ratio < 30, f"n=20000 took {ratio:.1f} times as long as n=2000"
