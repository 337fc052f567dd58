"""Differential tests of the builders that create their own vertices.

The package builds the trees it grows or derives (paths, stars, whisker
growth, suspensions, subdivisions) from labels in creation order and
neighbor lists by creation position, and its induced subgraphs from
increasing indices. The oracles in ``oracles.py`` build the same objects
the earlier way, through label edge lists and ``Tree.from_edges`` or label
sets. Both must give the same labels, index, adjacency, components and
result type, or the same exception type and message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_o_by_edges,
    edge_subdivision_by_edges,
    generate_by_edges,
    induced_by_labels,
    path_graph_by_edges,
    replay_by_edges,
    star_graph_by_edges,
    suspension_by_edges,
    component_facts,
    label_components,
)
from totaldom.construct import (
    KIND_LEAF,
    ConstructionTrace,
    TraceStep,
    apply_o,
    edge_subdivision,
    generate,
    replay,
    suspension,
)
from totaldom.graphs import (
    Forest,
    Graph,
    Tree,
    parse_graph,
    path_graph,
    render_edge_list,
    star_graph,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import Analysis, interior_graphs
from totaldom.verify import unmixed_corpus


def _outcome(build, *args):
    """What ``build(*args)`` gives: the type and the parts of the graph or
    forest it returns, or the type and message of what it raises."""
    try:
        got = build(*args)
    except Exception as exc:  # compared, not swallowed
        return ("raises", type(exc), str(exc))
    if isinstance(got, tuple):  # generate: (tree, trace)
        return (_outcome(lambda: got[0]), got[1])
    g = got.graph if isinstance(got, Forest) else got
    comps = got.component_indices if isinstance(got, Forest) else None
    return (type(got), g.labels, g.index, g.adj, comps)


def _same(build, oracle, *args):
    assert _outcome(build, *args) == _outcome(oracle, *args)


def test_paths_and_stars_match_their_edge_lists():
    for n in range(-2, 41):
        _same(path_graph, path_graph_by_edges, n)
    for k in range(-1, 21):
        _same(star_graph, star_graph_by_edges, k)


def test_growth_and_replay_match_the_edge_list_growth():
    for s in range(300):
        _same(generate, generate_by_edges, s, s % 61)
        _same(replay, replay_by_edges, generate(s, s % 61)[1])
    _same(generate, generate_by_edges, 0, -1)


def test_replay_rejects_bad_steps_as_the_edge_list_growth_did():
    _, trace = generate(4, 6)
    bad_label = ConstructionTrace(steps=trace.steps[:2] + (TraceStep("x9", KIND_LEAF),))
    bad_kind = ConstructionTrace(steps=(TraceStep("3", KIND_LEAF),))
    _same(replay, replay_by_edges, bad_label)
    _same(replay, replay_by_edges, bad_kind)


def test_whiskers_at_every_vertex_match_the_edge_list_rebuild():
    for s in range(60):
        t, _ = generate(s, s % 9)
        for v in t.graph.labels:
            _same(apply_o, apply_o_by_edges, t, v)
    _same(apply_o, apply_o_by_edges, path_graph(6), "missing")


def test_suspensions_and_subdivisions_of_all_small_trees():
    for t in trees_up_to(9):
        _same(suspension, suspension_by_edges, t)
        _same(edge_subdivision, edge_subdivision_by_edges, t)
        _same(edge_subdivision, edge_subdivision_by_edges, t.graph)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_suspensions_and_subdivisions_of_random_trees(seed, n):
    t = random_tree(Lcg64(seed), n)
    _same(suspension, suspension_by_edges, t)
    _same(edge_subdivision, edge_subdivision_by_edges, t)


def test_subdivision_keeps_isolated_vertices_and_cycles():
    g = Graph(["a", "b", "c", "d", "z"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    _same(edge_subdivision, edge_subdivision_by_edges, g)


def test_subgraph_matches_the_label_induced_graph():
    for t in unmixed_corpus(5, 60):
        g = t.graph
        interiors = interior_graphs(t)
        for side in (interiors.blue, interiors.red):
            kept = [g.index[v] for v in side.labels]
            assert _outcome(g.subgraph, kept) == _outcome(induced_by_labels, g, side.labels)
            sub = side.graph
            trees = [c.forest for c in component_facts(Analysis(side))]
            assert len(trees) == side.ncomponents
            for comp, labels, tree in zip(side.component_indices, label_components(side), trees):
                assert _outcome(sub.subgraph, comp) == _outcome(induced_by_labels, sub, labels)
                assert _outcome(lambda: tree) == _outcome(Tree, induced_by_labels(sub, labels))


def test_built_graphs_hold_one_int_per_vertex_and_no_index_until_read():
    built = [t.graph for t in (path_graph(600), generate(3, 200)[0],
                               suspension(random_tree(Lcg64(1), 300)),
                               random_tree(Lcg64(2), 700))]
    parsed = parse_graph(render_edge_list(built[1]))
    for g in built + [parsed, parsed.subgraph(list(range(0, parsed.n, 2)))]:
        assert g._index is None
        # one int object per vertex: a fresh int per entry would take 32 bytes
        first = {}
        assert all(first.setdefault(j, j) is j for nb in g.adj for j in nb)
        assert sorted(first) == [j for j in range(g.n) if g.adj[j]]
        index = g.index
        assert index == dict(zip(g.labels, range(g.n)))
        assert g.index is index
