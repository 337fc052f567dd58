"""The tree count of minimal S-TD-sets (``domination._count_minimal_s_td``)
against the enumeration, and the route of ``ideals.validate_decomposition``
that reads it.

The count is a dynamic program over a rooted forest that shares no code with
the transversal engine, so ``minimal_s_td_sets`` is its oracle: on every
tree up to 10 vertices, on drawn trees and forests beyond them, and on paths,
whose counts have a closed form. A graph with a cycle gets None.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totaldom import ideals
from totaldom.construct import generate
from totaldom.domination import (
    _count_minimal_s_td,
    minimal_s_td_sets,
    minimal_td_sets,
    minimal_transversal_masks,
)
from totaldom.graphs import Graph, path_graph
from totaldom.ideals import decompose_squarefree, open_neighborhood_ideal
from totaldom.treegen import Lcg64, random_tree

TIER1 = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _enumerated(g: Graph, target) -> int:
    return len(minimal_s_td_sets(g, [g.labels[i] for i in target]))


def _random_target(rng: Lcg64, n: int) -> list[int]:
    return [i for i in range(n) if rng.randrange(2)]


def test_count_matches_enumeration_on_every_tree_up_to_10(trees10):
    rng = Lcg64(37)
    zero = 0
    for t in trees10:
        g = t.graph
        for target in (range(g.n), _random_target(rng, g.n), _random_target(rng, g.n)):
            want = _enumerated(g, target)
            assert _count_minimal_s_td(g.adj, target) == want, (g.adj, list(target))
            zero += not want
    # the one-vertex tree, and targets holding a vertex with no neighbor
    # among the others, have no S-TD-set
    assert zero


@st.composite
def forests(draw):
    """A random tree of 11-20 vertices, cut into a forest by dropping some
    edges, with up to two isolated vertices added, and a random target."""
    n = draw(st.integers(11, 20))
    g = random_tree(Lcg64(draw(st.integers(0, 2**32))), n).graph
    labels = g.labels
    edges = [(labels[i], labels[j]) for i, nb in enumerate(g.adj) for j in nb if i < j]
    cut = draw(st.lists(st.sampled_from(range(len(edges))), max_size=3, unique=True))
    kept = [e for k, e in enumerate(edges) if k not in cut]
    extra = [f"z{k}" for k in range(draw(st.integers(0, 2)))]
    forest = Graph.from_edges(kept, extra)
    inside = draw(st.lists(st.booleans(), min_size=forest.n, max_size=forest.n))
    return forest, [i for i in range(forest.n) if inside[i]]


@TIER1
@given(forests())
def test_count_matches_enumeration_on_drawn_forests(case):
    g, target = case
    assert _count_minimal_s_td(g.adj, target) == _enumerated(g, target)


def test_count_is_a_product_over_components():
    path = [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")]
    star = [("s", "a"), ("s", "b"), ("s", "c")]
    g = Graph.from_edges(path + star, ["w"])
    w = g.index["w"]
    # P6 has 4 minimal TD-sets and the star 3; the isolated vertex w in S
    # leaves no TD-set at all, and outside S it leaves the product unchanged
    assert _count_minimal_s_td(g.adj, range(g.n)) == 0
    assert _count_minimal_s_td(g.adj, [i for i in range(g.n) if i != w]) == 12


@pytest.mark.parametrize("edges", [
    [("a", "b"), ("b", "c"), ("c", "a")],
    # a tree plus one edge closing a cycle
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "b"), ("a", "f")],
    # a first component with no TD-set, then a square
    [("x", "y"), ("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")],
])
def test_count_refuses_a_graph_with_a_cycle(edges):
    g = Graph.from_edges(edges, ["w"])
    assert _count_minimal_s_td(g.adj, range(g.n)) is None
    assert _count_minimal_s_td(g.adj, ()) is None


def _path_halves(m: int) -> int:
    """a(m) of the closed form: a = 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, ... with
    a(m) = a(m - 2) + a(m - 3)."""
    a = [1, 1, 2]
    while len(a) < m:
        a.append(a[-2] + a[-3])
    return a[m - 1]


def test_path_closed_form_by_enumeration():
    # the 2m-vertex path has a(m)^2 minimal TD-sets: its two colour classes
    # are dominated apart, each like a path on m vertices
    assert [_path_halves(m) for m in range(1, 11)] == [1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
    for m in range(1, 21):
        g = path_graph(2 * m - 1).graph
        want = _path_halves(m) ** 2
        assert len(minimal_td_sets(g)) == want
        assert _count_minimal_s_td(g.adj, range(g.n)) == want


def test_path_closed_form_by_count_at_10_4_vertices():
    # the count has thousands of bits: compared as ints, never as decimal
    # strings, which Python refuses past 4300 digits
    g = path_graph(10**4 - 1).graph
    start = time.perf_counter()
    got = _count_minimal_s_td(g.adj, range(g.n))
    assert time.perf_counter() - start < 5
    assert got == _path_halves(5000) ** 2
    assert got.bit_length() > 700


# ---------------------------------------------------------------------------
# the route of validate_decomposition
# ---------------------------------------------------------------------------

def _refuse(dec, ideal):
    raise AssertionError("checked by duality")


def _minimal_transversals(ideal) -> list[int]:
    return minimal_transversal_masks([sum(1 << j for j in row) for row in ideal.rows])


def test_forest_decompositions_past_the_threshold_are_counted(monkeypatch, trees10):
    monkeypatch.setattr(ideals, "_check_by_duality", _refuse)
    rng = Lcg64(41)
    trees = [t.graph for t in trees10] + [generate(s, s % 6)[0].graph for s in range(12)]
    counted = 0
    for g in trees:
        target = [g.labels[i] for i in _random_target(rng, g.n)]
        for ideal in (open_neighborhood_ideal(g), open_neighborhood_ideal(g, target)):
            if len(_minimal_transversals(ideal)) >= ideals._COUNT_FROM:
                decompose_squarefree(ideal)
                counted += 1
    assert counted > 50


def test_graphs_with_cycles_and_small_families_keep_the_duality_check(monkeypatch):
    seen = []
    duality = ideals._check_by_duality

    def traced(dec, ideal):
        seen.append(len(dec))
        duality(dec, ideal)

    monkeypatch.setattr(ideals, "_check_by_duality", traced)
    t, _ = generate(3, 6)
    labels = t.graph.labels
    edges = [(labels[i], labels[j]) for i, nb in enumerate(t.graph.adj) for j in nb if i < j]
    far = next(j for j in range(1, t.graph.n) if 0 not in t.graph.adj[j])
    cyclic = Graph.from_edges(edges + [(labels[0], labels[far])])
    dec = decompose_squarefree(open_neighborhood_ideal(cyclic))
    assert len(dec) >= ideals._COUNT_FROM
    assert seen == [len(dec)]
    small = decompose_squarefree(open_neighborhood_ideal(path_graph(4).graph))
    assert len(small) < ideals._COUNT_FROM
    assert seen == [len(dec), len(small)]
