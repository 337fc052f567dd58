"""Differential and scaling tests of the graph core on flat index lists.

``Graph``, ``parse_graph``, ``Forest``, ``two_coloring`` and
``canonical_form`` read each fact off per-index lists in one pass. The
oracles in ``oracles.py`` reach the same objects the earlier way: a set per
vertex sorted into each neighbor list, components sorted as label tuples, a
coloring re-sorted through ``Coloring``, and centers and AHU codes kept in
dicts. Both must give the same adjacency, equality and hash, components,
colorings, canonical codes and errors on every input.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ahu_by_dicts,
    canonical_form_by_dicts,
    centers_by_dicts,
    check_component_by_tree,
    forest_by_sorting,
    graph_by_sets,
    parse_graph_by_sets,
    two_coloring_by_vset,
)
from test_interior_pass import caterpillar, shuffled_path
from totaldom.errors import EdgeListParseError, NotAForestError, NotATreeError
from totaldom.graphs import (
    Forest,
    Graph,
    Tree,
    _ahu,
    _centers,
    canonical_form,
    parse_graph,
    path_graph,
    render_edge_list,
    two_coloring,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import Analysis, is_unmixed_fast

# Derandomized with a fixed example count, as in test_transversal_engine.py.
TIER1 = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def outcome(run, *args):
    """The value of ``run(*args)``, or the type and message it raised."""
    try:
        return run(*args)
    except (EdgeListParseError, NotAForestError, NotATreeError) as exc:
        return type(exc), str(exc)


def assert_graph_matches(labels, edges) -> Graph:
    g = Graph(labels, edges)
    want = graph_by_sets(labels, edges)
    assert (g.labels, g.index, g.adj) == (want.labels, want.index, want.adj)
    assert g == want and hash(g) == hash(want)
    return g


def assert_forest_matches(g: Graph) -> None:
    f = Forest(g)
    comps = forest_by_sorting(g)
    assert f.components() == comps and f.ncomponents == len(comps)
    assert f.component_indices == [[g.index[v] for v in c] for c in comps]
    col, want = two_coloring(f), two_coloring_by_vset(f)
    assert (col.blue, col.red) == (want.blue, want.red) and col == want
    assert canonical_form(f) == canonical_form_by_dicts(f)


def assert_codes_match(t: Tree) -> None:
    """Centers of the tree, and the AHU code at every root and at every
    (root, excluded neighbor) split as at a central edge."""
    adj = t.graph.adj
    comp = list(range(t.graph.n))
    assert _centers(adj, comp, [0] * len(adj)) == centers_by_dicts(adj, comp)
    for r in comp:
        assert _ahu(adj, r, -1) == ahu_by_dicts(adj, r, -1)
        for p in adj[r]:
            assert _ahu(adj, r, p) == ahu_by_dicts(adj, r, p)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_core_matches_oracles_on_small_trees():
    count = 0
    for t in trees_up_to(9):
        g = assert_graph_matches(t.graph.labels, t.graph.edges())
        assert parse_graph(render_edge_list(g)) == parse_graph_by_sets(render_edge_list(g))
        assert_forest_matches(g)
        assert_codes_match(t)
        count += 1
    assert count == 95


def test_core_matches_oracles_on_large_shapes():
    n = 10**4
    rng = random.Random(n)
    for t in (shuffled_path(rng, n), caterpillar(rng, n), random_tree(Lcg64(n), n)):
        text = render_edge_list(t.graph)
        g = parse_graph(text)
        assert g == parse_graph_by_sets(text) == t.graph
        assert_forest_matches(g)
        adj = g.adj
        comp = list(range(g.n))
        centers = _centers(adj, comp, [0] * g.n)
        assert centers == centers_by_dicts(adj, comp)
        for c in centers:
            assert _ahu(adj, c, -1) == ahu_by_dicts(adj, c, -1)


@st.composite
def edge_lists(draw):
    """A forest on shuffled labels as an edge list with repeated edges in
    both orientations, isolated extra vertices, and one more edge between
    two distinct labels (it may close a cycle)."""
    n = draw(st.integers(2, 30))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = []
    for i in range(1, n):
        p = draw(st.integers(-1, i - 1))  # -1 starts a new component
        if p >= 0:
            edges.append((labels[p], labels[i]))
    if edges:
        edges += [(b, a) for a, b in draw(st.lists(st.sampled_from(edges), max_size=10))]
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    edges = draw(st.permutations(edges))
    extra = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    more = tuple(draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)))
    return edges, extra, more


def components_of(g: Graph):
    return Forest(g).components()


@TIER1
@given(edge_lists())
def test_core_matches_oracles_on_edge_lists(drawn):
    edges, extra, more = drawn
    g = assert_graph_matches({v for e in edges for v in e} | set(extra), edges)
    assert Graph.from_edges(edges, extra_vertices=extra) == g
    assert all(not g.adj[g.index[v]] for v in extra)
    text = "".join(f"{a} {b}  # edge {k}\n\n" for k, (a, b) in enumerate(edges))
    assert outcome(parse_graph, text) == outcome(parse_graph_by_sets, text)
    assert_forest_matches(g)
    comps = forest_by_sorting(g)
    want = (NotATreeError, f"expected a tree, got {len(comps)} components")
    assert outcome(lambda h: Tree(h).components(), g) == (comps if len(comps) == 1 else want)
    looped = Graph.from_edges([*edges, more], extra_vertices=extra)
    assert outcome(components_of, looped) == outcome(forest_by_sorting, looped)
    # only a tree has a checklist of its own
    checks = outcome(lambda h: Analysis(Tree(h))._layer.checks(), g)
    assert checks == ((check_component_by_tree(Tree(g), "self"),) if len(comps) == 1 else want)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_errors_match_oracles():
    texts = [
        "a b\nb b\n",
        "# header\n\na b  # first\nc c # loop\n",
        "a b\nb c d\n",
        "a\n",
        "a b\n\t\n  x   y  \nz\n",
        "a b # c c\nb c\n",
    ]
    for text in texts:
        assert outcome(parse_graph, text) == outcome(parse_graph_by_sets, text)
    assert outcome(parse_graph, texts[1]) == (EdgeListParseError, "line 4: self-loop at 'c'")
    assert outcome(Graph, ["a"], [("a", "a")]) == outcome(graph_by_sets, ["a"], [("a", "a")])
    assert outcome(Graph, ["a"], [("a", "a")]) == (EdgeListParseError, "self-loop at 'a'")
    cycle = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")])
    assert outcome(Forest, cycle) == outcome(forest_by_sorting, cycle)
    assert outcome(Forest, cycle) == (NotAForestError, "graph contains a cycle")
    assert outcome(Tree, Graph.from_edges([("a", "b"), ("c", "d")])) == (
        NotATreeError, "expected a tree, got 2 components"
    )
    assert outcome(Tree, Graph([], [])) == (NotATreeError, "expected a tree, got 0 components")


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def ratio_of_medians(make, run) -> float:
    """Median time of ``run`` at n = 2*10^4 over its median at 2*10^3,
    interleaved so that a drift in machine speed hits both. The cyclic
    collector is paused while a run is timed: its full passes walk every
    object the test session holds, which says nothing about ``run``."""
    inputs = (make(2000), make(20000))
    times = ([], [])
    for _ in range(3):
        for x, runs in zip(inputs, times):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                run(x)
                runs.append(time.perf_counter() - start)
            finally:
                gc.enable()
    return statistics.median(times[1]) / statistics.median(times[0])


def prufer(n: int) -> Tree:
    return random_tree(Lcg64(2024), n)


@pytest.mark.parametrize("kind", ["prufer", "path"])
def test_parse_and_split_scale_near_linearly(kind):
    # ten times the vertices: linear work takes about ten times as long
    make = prufer if kind == "prufer" else (lambda n: path_graph(n - 1))
    ratio = ratio_of_medians(
        lambda n: render_edge_list(make(n).graph),
        lambda text: Tree(parse_graph(text)),
    )
    assert ratio < 30, f"n=20000 took {ratio:.1f} times as long as n=2000"


def test_canonical_form_scales_near_linearly_on_prufer_trees():
    # a path's code still copies O(n * depth) characters, so paths are left out
    ratio = ratio_of_medians(prufer, canonical_form)
    assert ratio < 30, f"n=20000 took {ratio:.1f} times as long as n=2000"


def spider(n: int) -> Tree:
    """A hub with legs of length 3: every leg's middle vertex is dropped
    from the interior forest of the supports' color, and the hub is not."""
    legs = (n - 1) // 3
    return Tree.from_edges(
        edge for i in range(legs) for edge in (("h", f"a{i}"), (f"a{i}", f"s{i}"), (f"s{i}", f"l{i}"))
    )


def test_interior_split_scales_near_linearly_at_a_hub():
    # the hub's neighbor list is filtered once, not once per dropped neighbor
    ratio = ratio_of_medians(spider, is_unmixed_fast)
    assert ratio < 30, f"n=20000 took {ratio:.1f} times as long as n=2000"


def test_core_at_ten_to_the_five_vertices():
    # parse, split and the fast test on 10^5 vertices, with no recursion
    spine = [f"c{i:05d}" for i in range(10**5 - 10**4)]
    legs = [(v, f"{v}x") for v in spine[1:-1:10]]
    shapes = (random_tree(Lcg64(5), 10**5), Tree.from_edges(list(zip(spine, spine[1:])) + legs))
    for t in shapes:
        tree = Tree(parse_graph(render_edge_list(t.graph)))
        assert tree.graph == t.graph and tree.ncomponents == 1
        cert = is_unmixed_fast(tree)
        assert not cert.unmixed and len(cert.checks) > 1
