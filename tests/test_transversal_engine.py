"""Differential tests of the Berge transversal engine.

``minimal_transversal_masks`` prunes each round against the members that
meet the new edge in one vertex only, keeps its family as a product over
the vertex-disjoint parts of the edges seen so far, and folds the one-vertex
edges into one forced mask. It must give the same family and the same cap
outcome as the reference round in ``oracles.berge_by_minimalize``, which
holds one family and minimalizes every candidate against every other, and
the same family as plain subset enumeration.
"""

from __future__ import annotations

import time
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import berge_by_minimalize, minimal_transversals_by_subsets, neighbor_masks
from totaldom.domination import minimal_td_sets, minimal_transversal_masks
from totaldom.errors import EnumerationCapExceeded
from totaldom.graphs import Graph

CAPS = (None, 0, 1, 2, 3, 8, 20)

# Derandomized with a fixed example count, so every run checks the same
# hypergraphs and Tier-1 stays deterministic; no example database is kept.
TIER1 = settings(derandomize=True, max_examples=400, deadline=None, database=None)


@st.composite
def hypergraphs(draw, max_vertices: int = 10, max_edges: int = 9):
    n = draw(st.integers(1, max_vertices))
    low = draw(st.sampled_from((0, 1)))  # edge 0 (empty) only sometimes
    return draw(st.lists(st.integers(low, (1 << n) - 1), max_size=max_edges))


@st.composite
def block_hypergraphs(draw):
    """Edges inside 2-4 disjoint vertex blocks, so the engine keeps several
    parts, plus up to two edges that join subsets of several blocks: they
    are wider, sort late and merge parts mid-run. One-vertex edges and the
    empty edge come in sometimes; block edges have two or more vertices,
    so these are the only one-vertex edges."""
    widths = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    blocks = []
    offset = 0
    for w in widths:
        wide = st.integers(3, (1 << w) - 1).filter(lambda m: m & (m - 1))
        blocks.append(wide.map(lambda m, o=offset: m << o))
        offset += w
    inner = st.one_of(blocks)
    edges = draw(st.lists(inner, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        pieces = draw(st.lists(inner, min_size=2, max_size=3))
        edges.append(reduce(or_, pieces))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        edges.append(1 << draw(st.integers(0, offset - 1)))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        edges.append(0)
    return draw(st.permutations(edges))


def outcome(engine, edges, cap):
    try:
        return engine(edges, cap=cap)
    except EnumerationCapExceeded as exc:
        return ("cap", str(exc))


@TIER1
@given(hypergraphs())
def test_engine_matches_reference_round(edges):
    for cap in CAPS:
        assert outcome(minimal_transversal_masks, edges, cap) == outcome(
            berge_by_minimalize, edges, cap
        )


@TIER1
@given(block_hypergraphs())
def test_engine_matches_reference_round_across_parts(edges):
    for cap in CAPS:
        assert outcome(minimal_transversal_masks, edges, cap) == outcome(
            berge_by_minimalize, edges, cap
        )


@TIER1
@given(hypergraphs())
def test_engine_matches_subset_enumeration(edges):
    assert minimal_transversal_masks(edges) == minimal_transversals_by_subsets(edges)


def test_cap_trips_on_a_product_family():
    # four disjoint pairs have 16 minimal transversals, so cap 8 must raise
    edges = [0b11, 0b1100, 0b110000, 0b11000000]
    for engine in (minimal_transversal_masks, berge_by_minimalize):
        with pytest.raises(EnumerationCapExceeded, match="cap=8"):
            engine(edges, cap=8)
        assert len(engine(edges, cap=20)) == 16


def test_engine_matches_reference_on_tree_neighborhoods(trees8):
    for t in trees8:
        g = t.graph
        edges = neighbor_masks(g)
        for cap in CAPS:
            assert outcome(minimal_transversal_masks, edges, cap) == outcome(
                berge_by_minimalize, edges, cap
            )


def test_perfect_matching_has_its_one_set_fast():
    # every open neighbourhood is one vertex, so the only minimal TD-set is
    # all 10^4 vertices: 0.06 s, where 5000 rounds that each walked every bit
    # position up to the top one took 11.6 s (shared 2-core VM, Python 3.11)
    g = Graph([f"v{i:05d}" for i in range(10**4)], [(f"v{i:05d}", f"v{i + 1:05d}") for i in range(0, 10**4, 2)])
    start = time.perf_counter()
    family = minimal_td_sets(g)
    assert time.perf_counter() - start < 2
    assert family.masks == ((1 << 10**4) - 1,)
