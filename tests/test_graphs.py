from __future__ import annotations

import itertools
import tracemalloc

import networkx as nx
import pytest

from oracles import (
    ahu_recursive,
    classify_by_vset,
    even_blue_coloring,
    forest_height,
    heights_by_vertex_search,
    induced_by_labels,
    isomorphic_by_backtracking,
    label_edges,
    label_components,
)
from totaldom.errors import EdgeListParseError, NotAForestError, NotATreeError
from totaldom.graphs import (
    Coloring,
    Forest,
    Graph,
    Tree,
    _ahu,
    branch,
    canonical_form,
    classify_vertices,
    heights,
    is_isomorphic,
    parse_graph,
    path_graph,
    render_edge_list,
    star_graph,
    two_coloring,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import Analysis, interior_graphs


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.labels)
    out.add_edges_from(label_edges(g))
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_paper_path():
    g = parse_graph("l1 s1\ns1 u\nu s2\ns2 l2")
    assert g.n == 5
    assert label_edges(g) == (("l1", "s1"), ("l2", "s2"), ("s1", "u"), ("s2", "u"))


def test_parse_empty_and_comments():
    assert parse_graph("").n == 0
    g = parse_graph("# header\n\na b  # trailing\n")
    assert label_edges(g) == (("a", "b"),)


def test_parse_duplicate_edge_collapses():
    g = parse_graph("a b\nb a")
    assert label_edges(g) == (("a", "b"),)


def test_parse_reordering_idempotent():
    lines = ["a b", "b c", "c d"]
    graphs = {parse_graph("\n".join(p)) for p in itertools.permutations(lines)}
    assert len(graphs) == 1


def test_parse_errors():
    with pytest.raises(EdgeListParseError):
        parse_graph("a a")
    with pytest.raises(EdgeListParseError):
        parse_graph("a b c")
    with pytest.raises(EdgeListParseError):
        parse_graph("lonely")


def test_render_round_trip():
    g = parse_graph("a b\nc b\nd a")
    assert parse_graph(render_edge_list(g)) == g


# ---------------------------------------------------------------------------
# forest/tree validation
# ---------------------------------------------------------------------------

def test_forest_rejects_cycle():
    with pytest.raises(NotAForestError):
        Forest.from_edges([("a", "b"), ("b", "c"), ("c", "a")])


def test_tree_rejects_disconnected():
    with pytest.raises(NotATreeError):
        Tree.from_edges([("a", "b"), ("c", "d")])


def test_component_index():
    f = Forest.from_edges([("a", "b"), ("c", "d")])
    assert f.ncomponents == 2
    assert label_components(f) == (("a", "b"), ("c", "d"))
    assert f.component_indices == [[0, 1], [2, 3]]


# ---------------------------------------------------------------------------
# heights and classification
# ---------------------------------------------------------------------------

def test_heights_p6():
    h = heights(path_graph(6))
    assert [h[str(i)] for i in range(7)] == [0, 1, 2, 3, 2, 1, 0]


def test_height_single_vertex_is_zero():
    assert forest_height(path_graph(0)) == 0


def test_heights_star():
    h = heights(star_graph(3))
    assert h["s"] == 1
    assert all(h[f"l{i}"] == 0 for i in (1, 2, 3))


def test_heights_match_vertex_search_oracle(trees8):
    for t in trees8:
        h = heights(t)
        assert h == heights_by_vertex_search(t.graph)
        assert list(h) == list(t.labels)  # label order


def test_classify_paper_path(paper_p4):
    cls = classify_vertices(paper_p4)
    assert cls.leaves == ("l1", "l2")
    assert cls.supports == ("s1", "s2")
    assert cls.supported == ("l1", "l2", "u")


def test_classify_single_edge():
    cls = classify_vertices(path_graph(1))
    assert cls.leaves == ("0", "1")
    assert cls.supports == ("0", "1")


def test_classify_p6_supports():
    assert classify_vertices(path_graph(6)).supports == ("1", "5")


def test_classify_matches_vset_oracle(trees8):
    """The index-order classes equal the ``vset`` route on every tree up to
    8 vertices, on random trees and on forests with isolated vertices."""
    rng = Lcg64(29)
    forests = [
        *trees8,
        *(random_tree(rng, n) for n in (2, 3, 17, 60, 250)),
        Forest.from_edges([("b", "a"), ("a", "c"), ("x", "y")], extra_vertices=("m", "d")),
        Forest.from_edges([], extra_vertices=("z", "k")),
    ]
    for f in forests:
        assert classify_vertices(f) == classify_by_vset(f)
    assert classify_vertices(forests[-2]).isolated == ("d", "m")


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def test_two_coloring_proper(trees8):
    for t in trees8:
        col = two_coloring(t)
        blue = set(col.blue)
        for a, b in label_edges(t.graph):
            assert (a in blue) != (b in blue)


def test_two_coloring_deterministic_smallest_blue():
    f = Forest.from_edges([("b", "a"), ("c", "d")])
    col = two_coloring(f)
    assert "a" in col.blue and "c" in col.blue


def test_two_coloring_bipartition_of_path(paper_p4):
    col = two_coloring(paper_p4)
    assert set(col.blue) in ({"l1", "u", "l2"}, {"s1", "s2"})


def test_balanced_convention_p6():
    col = even_blue_coloring(path_graph(6))
    assert col.blue == ("0", "2", "4", "6")
    assert col.red == ("1", "3", "5")


def test_swap_flag():
    col = even_blue_coloring(path_graph(6))
    col = Coloring(col.red, col.blue)
    assert col.red == ("0", "2", "4", "6")


# ---------------------------------------------------------------------------
# distances and branch
# ---------------------------------------------------------------------------

def test_radar_distance_zero():
    assert sorted(v for v, k in path_graph(6).graph.distances_from("3").items() if k == 0) == ["3"]


def test_radar_p6():
    assert sorted(v for v, k in path_graph(6).graph.distances_from("3").items() if k == 2) == ["1", "5"]


def test_branch_p6():
    assert branch(path_graph(6), "3", "1") == ("0", "1")


def test_branch_excludes_root(trees8):
    for t in trees8[:20]:
        labs = t.graph.labels
        r, x = labs[0], labs[-1]
        if r != x:
            assert r not in branch(t, r, x)
            assert x in branch(t, r, x)


def test_branch_requires_same_component():
    f = Forest.from_edges([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        branch(f, "a", "c")


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_relabeled_path_isomorphic(paper_p4):
    other = Tree.from_edges([("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")])
    assert is_isomorphic(paper_p4, other)


def test_path_vs_star_not_isomorphic():
    assert not is_isomorphic(path_graph(4), star_graph(4))


def test_extra_leaf_changes_class():
    p = path_graph(4)
    bigger = Tree.from_edges(list(label_edges(p.graph)) + [("2", "x")])
    assert not is_isomorphic(p, bigger)


def test_canonical_form_matches_backtracking_oracle(trees8):
    by_size: dict[int, list] = {}
    for t in trees8:
        by_size.setdefault(t.graph.n, []).append(t)
    for group in by_size.values():
        for t1 in group:
            for t2 in group:
                expected = isomorphic_by_backtracking(t1.graph, t2.graph)
                assert is_isomorphic(t1, t2) == expected


def test_canonical_form_matches_networkx(trees8):
    for t1 in trees8:
        for t2 in trees8:
            if t1.graph.n != t2.graph.n:
                assert canonical_form(t1) != canonical_form(t2)
                continue
            expected = nx.is_isomorphic(to_nx(t1.graph), to_nx(t2.graph))
            assert (canonical_form(t1) == canonical_form(t2)) == expected


def test_forest_canonical_component_order():
    f1 = Forest.from_edges([("a", "b"), ("x", "y"), ("y", "z")])
    f2 = Forest.from_edges([("p", "q"), ("q", "r"), ("m", "n")])
    assert canonical_form(f1) == canonical_form(f2)


# ---------------------------------------------------------------------------
# near-linear building blocks
# ---------------------------------------------------------------------------

def test_iterative_ahu_matches_recursive():
    # every root, and every (root, excluded neighbor) split as at a central edge
    count = 0
    for t in trees_up_to(9):
        adj = [list(nb) for nb in t.graph.adj]
        for r in range(len(adj)):
            assert _ahu(adj, r, -1) == ahu_recursive(adj, r, -1)
            for p in adj[r]:
                assert _ahu(adj, r, p) == ahu_recursive(adj, r, p)
            count += 1
    assert count == sum(t.graph.n for t in trees_up_to(9))


def test_canonical_form_of_long_path():
    # 10^4 and 10^5 vertices, far beyond the default recursion limit;
    # bicentral, so the code is "E" plus the two equal halves (nested n/2 deep)
    for n in (10_000, 10**5):
        half = "(" * (n // 2) + ")" * (n // 2)
        assert canonical_form(path_graph(n - 1)) == "[E" + half + half + "]"
    n = 10_000
    labels = [f"p{(i * 7919) % n}" for i in range(n)]
    shuffled = Tree.from_edges(zip(labels, labels[1:]))
    assert is_isomorphic(shuffled, path_graph(n - 1))


def test_canonical_form_of_long_caterpillar():
    # 9001-vertex spine in shuffled label order with a leg at every 9th
    # spine vertex: 10^4 vertices
    spine = [f"c{(i * 7919) % 9001}" for i in range(9001)]
    legs = [(v, f"{v}x") for v in spine[9:-1:9]]
    t = Tree.from_edges(list(zip(spine, spine[1:])) + legs)
    assert t.graph.n == 10_000
    rename = {v: f"r{i}" for i, v in enumerate(reversed(t.graph.labels))}
    relabeled = Tree.from_edges((rename[a], rename[b]) for a, b in label_edges(t.graph))
    assert canonical_form(relabeled) == canonical_form(t)
    moved = Tree.from_edges(list(zip(spine, spine[1:])) + legs[1:] + [(spine[10], "extra")])
    assert canonical_form(moved) != canonical_form(t)


def _peak_bytes(call, *args) -> int:
    """The tracemalloc peak of ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spine_caterpillar(m: int) -> Tree:
    spine = [f"c{i}" for i in range(m)]
    return Tree.from_edges(list(zip(spine, spine[1:])) + [(v, f"{v}x") for v in spine[9:-1:9]])


@pytest.mark.parametrize("shape", [lambda n: path_graph(n - 1), _spine_caterpillar],
                         ids=["path", "caterpillar"])
def test_canonical_form_memory_is_linear(shape):
    # a child's code is freed once its parent's code is built, so the peak
    # grows as n; keeping every code to the end made it grow as n^2 on long
    # paths (a ratio of about 16 between these two sizes)
    small, large = (_peak_bytes(canonical_form, shape(n)) for n in (10_000, 40_000))
    assert large <= 6 * small


def test_component_trees_and_interiors_never_scan_all_edges(monkeypatch):
    # induced subgraphs come from the kept vertices' own adjacency, one
    # Graph.subgraph call per interior side and one per interior component
    # (none for a component that is the whole tree); a scan of the whole
    # edge list per component made both quadratic. Graph has no label edge
    # list (oracles.label_edges) to scan.
    subgraph = Graph.subgraph
    calls = []

    def counted(self, kept):
        calls.append(len(kept))
        return subgraph(self, kept)

    corpus = [random_tree(Lcg64(seed), 300) for seed in range(3)] + list(trees_up_to(7))
    assert not hasattr(Graph, "edges")
    monkeypatch.setattr(Graph, "subgraph", counted)
    for t in corpus:
        calls.clear()
        interiors = interior_graphs(t)
        assert calls == [interiors.blue.graph.n, interiors.red.graph.n]
        for layer, side in zip(Analysis(t).interior_layers, (interiors.blue, interiors.red)):
            calls.clear()
            comps = [c.forest for c in layer.component_facts]
            assert calls == [comp.graph.n for comp in comps if comp.graph.n < t.graph.n]
            for comp in comps:
                assert set(comp.graph.labels) <= set(side.labels)


def test_induced_matches_edge_filter():
    t = random_tree(Lcg64(5), 60)
    g = t.graph
    for k in range(0, 60, 7):
        keep = g.labels[k:] + ("isolated",)
        want = Graph(keep, [(a, b) for a, b in label_edges(g) if a in keep and b in keep])
        got = induced_by_labels(g, keep)
        assert (got.labels, got.index, got.adj) == (want.labels, want.index, want.adj)


def test_labels_of_matches_a_walk_over_all_labels():
    g = random_tree(Lcg64(3), 9).graph
    for mask in range(1 << g.n):
        want = tuple(v for i, v in enumerate(g.labels) if mask >> i & 1)
        assert g.labels_of(mask) == want
        assert g.mask_of(want) == mask
