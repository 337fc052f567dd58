from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    component_labels,
    deconstruct_by_rebuilds,
    degree,
    forest_height,
    generate_by_apply_o,
    label_edges,
    level,
    replay_by_apply_o,
    trace_from_json,
)
from totaldom import construct
from totaldom.construct import (
    KIND_LEAF,
    ConstructionTrace,
    TraceStep,
    _peel,
    apply_o,
    base_tree,
    deconstruct,
    edge_subdivision,
    generate,
    leaf_normalize,
    replay,
    suspension,
)
from totaldom.domination import is_unmixed_bruteforce
from totaldom.errors import InputError, MixedTreeError, TheoremViolation
from totaldom.graphs import (
    Graph,
    Tree,
    canonical_form,
    classify_vertices,
    heights,
    is_isomorphic,
    path_graph,
    star_graph,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import characterize_balanced_unmixed, is_unmixed_fast


# ---------------------------------------------------------------------------
# the whisker operator
# ---------------------------------------------------------------------------

def test_whisker_at_support_gives_paper_tree8(paper_tree8):
    got = apply_o(base_tree(), "1")
    assert got.graph.n == 8
    assert is_isomorphic(got, paper_tree8)


def test_whisker_sizes_by_height():
    t = base_tree()
    assert apply_o(t, "1").graph.n == 8  # height 1: one leaf
    assert apply_o(t, "2").graph.n == 11  # height 2: four vertices
    assert apply_o(t, "3").graph.n == 10  # height 3: three vertices


def test_whisker_preserves_existing_heights():
    t = base_tree()
    before = heights(t)
    for v in ("1", "2", "3"):
        after = heights(apply_o(t, v))
        assert all(after[w] == h for w, h in before.items())


def test_whisker_rejects_leaves():
    with pytest.raises(ValueError):
        apply_o(base_tree(), "0")


def test_whisker_preserves_unmixedness_both_ways():
    rng = Lcg64(6)
    for _ in range(20):
        t, _ = generate(rng.next_u32(), rng.randrange(4))
        hmap = heights(t)
        eligible = [v for v in t.graph.labels if hmap[v] in (1, 2, 3)]
        v = eligible[rng.randrange(len(eligible))]
        bigger = apply_o(t, v)
        assert is_unmixed_fast(bigger).unmixed == is_unmixed_fast(t).unmixed
        if bigger.graph.n <= 13:
            assert is_unmixed_bruteforce(bigger)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_zero_steps_is_base():
    t, trace = generate(0, 0)
    assert len(trace) == 0
    assert t.graph == base_tree().graph


def test_generate_deterministic_and_replayable():
    t1, trace1 = generate(42, 9)
    t2, trace2 = generate(42, 9)
    assert trace1 == trace2
    assert t1.graph == t2.graph
    assert replay(trace1).graph == t1.graph


def test_generate_outputs_pass_characterization():
    for seed in range(12):
        t, _ = generate(seed, 2 + seed % 7)
        cert = characterize_balanced_unmixed(t)
        assert cert.unmixed
        assert forest_height(t) == 3


def test_generate_small_outputs_pass_bruteforce():
    for seed in range(8):
        t, _ = generate(seed, seed % 3)
        assert is_unmixed_bruteforce(t)


def test_trace_json_round_trip():
    _, trace = generate(5, 6)
    again = trace_from_json(trace.to_json())
    assert again == trace
    assert replay(again).graph == replay(trace).graph


def test_trace_rejects_bad_kind():
    with pytest.raises(ValueError):
        trace_from_json('{"base": "P6", "steps": [{"attach_label": "1", "kind": "nope"}]}')
    with pytest.raises(ValueError):
        trace_from_json('{"base": "P7", "steps": []}')


def test_replay_validates_heights():
    trace = ConstructionTrace(steps=(TraceStep(attach="0", kind=KIND_LEAF),))
    with pytest.raises(ValueError):
        replay(trace)  # "0" is a leaf, not a support


# ---------------------------------------------------------------------------
# leaf normalization
# ---------------------------------------------------------------------------

def test_leaf_normalize_counts():
    t = star_graph(3)
    core, removed = leaf_normalize(t)
    assert core.graph.n == 2
    assert removed == {"s": 2}


def test_leaf_normalize_identity_when_normalized():
    t = base_tree()
    core, removed = leaf_normalize(t)
    assert core.graph == t.graph and removed == {}


def test_leaf_normalize_preserves_unmixedness():
    rng = Lcg64(17)
    checked = 0
    for _ in range(500):
        t = random_tree(rng, 2 + rng.randrange(10))
        core, _ = leaf_normalize(t)
        if core.graph.n < 2:
            continue
        checked += 1
        assert is_unmixed_fast(core).unmixed == is_unmixed_fast(t).unmixed
    assert checked > 400


# ---------------------------------------------------------------------------
# deconstruction
# ---------------------------------------------------------------------------

def test_deconstruct_base_is_empty_trace():
    assert deconstruct(base_tree()).steps == ()


def test_deconstruct_rejects_mixed(paper_p4):
    with pytest.raises((MixedTreeError, Exception)):
        deconstruct(paper_p4)


def test_deconstruct_rejects_low_height():
    with pytest.raises(InputError, match="^deconstruction requires height exactly 3$"):
        deconstruct(star_graph(3))


def test_deconstruct_seven_step_example_shape():
    # stand-in for the worked 7-step construction: a fixed-seed tree built
    # from exactly seven whisker steps deconstructs to a 7-step trace
    t, trace = generate(2026, 7)
    got = deconstruct(t)
    assert len(got) == 7
    assert is_isomorphic(replay(got), t)


def test_deconstruct_step_counts_match_generation():
    for seed in (1, 5, 9):
        for steps in (0, 1, 4, 8):
            t, _ = generate(seed, steps)
            assert len(deconstruct(t)) == steps


def test_roundtrip_many_seeds():
    for seed in range(40):
        t, _ = generate(seed, seed % 11)
        rebuilt = replay(deconstruct(t))
        assert canonical_form(rebuilt) == canonical_form(t)


def test_deconstruct_is_deterministic():
    t, _ = generate(13, 10)
    assert deconstruct(t) == deconstruct(t)


def test_v2_v3_subgraph_connected():
    # the induced graph on heights 2 and 3 of an unmixed balanced height-3
    # tree stays connected
    for seed in range(12):
        t, _ = generate(seed, 2 + seed % 9)
        hmap = heights(t)
        keep = [i for i, v in enumerate(t.graph.labels) if hmap[v] in (2, 3)]
        sub = t.graph.subgraph(keep)
        assert len(component_labels(sub)) == 1


def test_some_v2_vertex_has_unique_v3_neighbor():
    for seed in range(12):
        t, _ = generate(seed, 1 + seed % 8)
        hmap = heights(t)
        v3 = set(level(hmap, 3))
        found = any(
            sum(1 for w in t.graph.neighbors(u) if w in v3) == 1
            for u in level(hmap, 2)
        )
        assert found


# ---------------------------------------------------------------------------
# suspension and subdivision
# ---------------------------------------------------------------------------

def test_suspension_single_vertex():
    got = suspension(path_graph(0))
    assert got.graph.n == 2


def test_suspension_every_vertex_gets_leaf():
    t = path_graph(3)
    sigma = suspension(t)
    assert sigma.graph.n == 8
    cls = classify_vertices(sigma)
    assert set(t.graph.labels) <= set(cls.supports)


def test_subdivision_single_edge():
    got = edge_subdivision(path_graph(1))
    assert got.n == 3
    assert sorted(d for d in (degree(got, v) for v in got.labels)) == [1, 1, 2]


def test_subdivided_suspension_is_unmixed_balanced():
    rng = Lcg64(8)
    for _ in range(20):
        t = random_tree(rng, 1 + rng.randrange(7))
        es = Tree(edge_subdivision(suspension(t)))
        h = forest_height(es)
        if t.graph.n == 1:
            assert h == 1  # the 3-vertex path
        else:
            assert h == 3
            assert characterize_balanced_unmixed(es).unmixed


def test_fresh_labels_avoid_collisions():
    t = Tree.from_edges([("w1", "w2"), ("w2", "x")])
    sigma = suspension(t)
    assert sigma.graph.n == 6
    assert len(set(sigma.graph.labels)) == 6


# ---------------------------------------------------------------------------
# incremental growth and peeling against whole-tree rebuilds
# ---------------------------------------------------------------------------

GRID_STEPS = (0, 1, 5, 30, 150)


@pytest.fixture(scope="module")
def grid():
    """(seed, steps, reference tree, reference trace) over seeds 0..39."""
    return [
        (seed, steps, *generate_by_apply_o(seed, steps))
        for seed in range(40)
        for steps in GRID_STEPS
    ]


def test_generate_and_replay_match_apply_o_loop(grid):
    for seed, steps, want, want_trace in grid:
        t, trace = generate(seed, steps)
        assert (t.graph.labels, t.graph.adj) == (want.graph.labels, want.graph.adj)
        assert trace.to_json() == want_trace.to_json()
        again = replay(trace).graph
        assert (again.labels, again.adj) == (want.graph.labels, want.graph.adj)
        if steps <= 30:
            assert replay_by_apply_o(trace).graph == again


def test_replay_errors_match_apply_o_loop():
    # a kind that does not match the height, and a label not yet drawn
    grown = generate(3, 6)[1].steps
    for step in (TraceStep(attach="2", kind=KIND_LEAF), TraceStep(attach="w99", kind=KIND_LEAF)):
        bad = ConstructionTrace(steps=grown + (step,))
        with pytest.raises((ValueError, KeyError)) as want:
            replay_by_apply_o(bad)
        with pytest.raises(want.type) as got:
            replay(bad)
        assert str(got.value) == str(want.value)


def _shuffled_with_extra_leaves(t, rng, extra):
    """``t`` with its labels shuffled and ``extra`` leaves at random
    supports."""
    labels = list(t.graph.labels)
    order = sorted(labels, key=lambda _: rng.next_u32())
    rename = {v: f"x{rng.randrange(1000)}_{w}" for v, w in zip(labels, order)}
    edges = [(rename[a], rename[b]) for a, b in label_edges(t.graph)]
    supports = [rename[v] for v in classify_vertices(t).supports]
    edges += [(supports[rng.randrange(len(supports))], f"e{k}") for k in range(extra)]
    return Tree.from_edges(edges)


def test_deconstruct_matches_rebuild_peeling(grid):
    rng = Lcg64(17)
    for seed, steps, t, _ in grid:
        assert deconstruct(t).to_json() == deconstruct_by_rebuilds(t).to_json()
        if steps == 30 and seed % 4 == 0:
            other = _shuffled_with_extra_leaves(t, rng, 3)
            assert deconstruct(other).to_json() == deconstruct_by_rebuilds(other).to_json()


def _outcome(fn, t):
    try:
        return fn(t).to_json()
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


def test_deconstruct_outcomes_match_on_all_small_trees():
    # every tree on at most 11 vertices: traces, and on the rest the same
    # exception type and message
    traced = 0
    for t in trees_up_to(11):
        got = _outcome(deconstruct, t)
        assert got == _outcome(deconstruct_by_rebuilds, t)
        traced += isinstance(got, str)
    assert traced > 0


def test_peel_checks_that_heights_stay_exact():
    # neither tree is balanced, so deconstruct never peels them; the check
    # must stop a peel that would leave the carried heights stale
    p8 = path_graph(7)  # 4-vertex whisker at "4" would leave "4" a leaf
    # "r" has height 3 through two 3-vertex whiskers and neighbors "x0",
    # "y0" at height 4; after the first whisker, peeling the second would
    # leave "r" no neighbor at height 2
    spider = Tree.from_edges(
        [(c, f"{c}2") for c in "ab"] + [(f"{c}2", f"{c}3") for c in "ab"]
        + [(f"{x}{i}", f"{x}{i + 1}") for x in "xy" for i in range(5)]
        + [("r", c) for c in ("a", "b", "x0", "y0")]
    )
    for t, attach in ((p8, "'4'"), (spider, "'r'")):
        g, hmap = t.graph, heights(t)
        with pytest.raises(TheoremViolation, match=f"whisker peeled at {attach} would change"):
            _peel(g, [hmap[v] for v in g.labels], [True] * g.n)


def test_deconstruct_reads_its_analysis_heights_and_induces_once(monkeypatch):
    # the heights come from the height-3 check, extra leaves are set aside
    # in place, and the one induced subgraph is the base path's isomorphism
    # check
    t = generate(5, 40)[0]

    def refuse(*args):
        raise AssertionError("deconstruct recomputed a fact of the tree")

    monkeypatch.setattr(construct, "leaf_distances", refuse)
    monkeypatch.setattr(construct, "leaf_normalize", refuse)
    subgraph = Graph.subgraph
    calls = []

    def counted(self, kept):
        calls.append(self.n)
        return subgraph(self, kept)

    monkeypatch.setattr(Graph, "subgraph", counted)
    assert len(deconstruct(t)) == 40
    assert calls == [t.graph.n]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_generated_trees_replay_and_deconstruct(seed, steps):
    t, trace = generate(seed, steps)
    again = replay(trace).graph
    assert (again.labels, again.adj) == (t.graph.labels, t.graph.adj)
    peeled = deconstruct(t)
    assert len(peeled) == steps
    assert is_isomorphic(replay(peeled), t)
    # deconstruct(replay(peeled)) may differ from peeled: replay relabels
    # and tie-breaks follow labels, so peelings of one tree are compared
    rng = Lcg64(seed)
    other = _shuffled_with_extra_leaves(t, rng, rng.randrange(4))
    assert deconstruct(other).to_json() == deconstruct_by_rebuilds(other).to_json()
