"""Differential tests of the Berge transversal engine.

``minimal_transversal_masks`` prunes each round against the members that
meet the new edge in one vertex only. It must give the same family and the
same cap outcome as the reference round in ``oracles.berge_by_minimalize``,
which minimalizes every candidate against every other, and the same family
as plain subset enumeration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import berge_by_minimalize, minimal_transversals_by_subsets
from totaldom.domination import minimal_transversal_masks
from totaldom.errors import EnumerationCapExceeded

CAPS = (None, 1, 2, 3, 8, 20)

# Derandomized with a fixed example count, so every run checks the same
# hypergraphs and Tier-1 stays deterministic; no example database is kept.
TIER1 = settings(derandomize=True, max_examples=400, deadline=None, database=None)


@st.composite
def hypergraphs(draw, max_vertices: int = 10, max_edges: int = 9):
    n = draw(st.integers(1, max_vertices))
    low = draw(st.sampled_from((0, 1)))  # edge 0 (empty) only sometimes
    return draw(st.lists(st.integers(low, (1 << n) - 1), max_size=max_edges))


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
        edges = list(g.masks)
        for cap in CAPS:
            assert outcome(minimal_transversal_masks, edges, cap) == outcome(
                berge_by_minimalize, edges, cap
            )
