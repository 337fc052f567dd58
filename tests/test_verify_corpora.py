"""The seeded corpora of ``verify`` against their first versions.

The oracle lines ``verify`` prints, and the digests a benchmark pins on
them, hash the outcomes over these corpora, so the corpora must stay the
same trees, in the same order, with the same traces.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _leaves_at_distance_4,
    balanced_corpus_by_height_map,
    mixedness_samples_by_labels,
)
from totaldom.construct import edge_subdivision
from totaldom.graphs import Tree
from totaldom.treegen import Lcg64, random_tree
from totaldom.verify import _leaves_share_a_neighbor, balanced_corpus, mixedness_samples


def _same_tree(a, b) -> bool:
    return (
        a.graph.labels == b.graph.labels
        and a.graph.adj == b.graph.adj
        and a.component_indices == b.component_indices
    )


def test_mixedness_samples_match_label_route():
    for seed in range(51):
        for per_family in (4, 10) if seed % 10 == 0 else (4,):
            got = mixedness_samples(seed, per_family)
            want = mixedness_samples_by_labels(seed, per_family)
            assert [f for f, _ in got] == [f for f, _ in want]
            assert all(_same_tree(a, b) for (_, a), (_, b) in zip(got, want))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_distance_4_samples_are_decided_before_subdividing(seed, per_family):
    # the label route subdivides every drawn tree and then looks for two
    # leaves at distance 4 in the subdivision
    got = mixedness_samples(seed, per_family)
    want = mixedness_samples_by_labels(seed, per_family)
    assert [f for f, _ in got] == [f for f, _ in want]
    assert all(_same_tree(a, b) for (_, a), (_, b) in zip(got, want))
    for family, t in got:
        if family == "distance-4-leaves":
            assert _leaves_at_distance_4(t.graph.adj)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 14))
def test_shared_leaf_neighbor_is_distance_4_after_subdividing(seed, n):
    base = random_tree(Lcg64(seed), n)
    sub = Tree(edge_subdivision(base))
    assert _leaves_share_a_neighbor(base.graph.adj) == _leaves_at_distance_4(sub.graph.adj)


def test_balanced_corpus_matches_height_map_route():
    # four trees per seed as the benchmark's requests draw them, and forty
    # on some seeds, which reach the steps whose facet counts pass the cap
    for seed in range(51):
        count = 40 if seed % 10 == 0 else 4
        for kwargs in ({}, {"facet_cap": 10**6}, {"max_steps": 12}):
            got = balanced_corpus(seed, count, **kwargs)
            want = balanced_corpus_by_height_map(seed, count, **kwargs)
            assert len(got) == len(want) == count
            for (a, ta), (b, tb) in zip(got, want):
                assert _same_tree(a, b) and ta == tb
