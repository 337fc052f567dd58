"""Differential tests of the interior-graph test on index arrays.

``Analysis`` evaluates heights, the balance criteria and the component
checklists in one pass per interior side over the tree's index arrays. The
oracles in ``oracles.py`` reach the same certificate the earlier way: an
induced ``Forest`` per side, a ``Tree`` and fresh heights per component, and
the criteria read through label lookups. Both must give the same
certificate, interior graphs and balanced verdict on every tree, and on
every tree relabelled so that its default coloring swaps its classes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totaldom.graphs as graphs
import totaldom.unmixed as unmixed
from oracles import (
    balanced_by_criteria,
    certificate_by_component_trees,
    check_component_by_tree,
    interiors_by_forests,
    swapped_coloring_tree,
)
from totaldom.errors import TheoremViolation
from totaldom.graphs import Tree, heights, path_graph, two_coloring
from totaldom.treegen import Lcg64, random_tree
from totaldom.unmixed import (
    Analysis,
    characterize_balanced_unmixed,
    interior_graphs,
    is_balanced,
    is_unmixed_fast,
)
from totaldom.verify import mixedness_samples

# Derandomized with a fixed example count, as in test_transversal_engine.py.
TIER1 = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def interiors_key(ig):
    return tuple(
        (side.graph, side.components(), deleted)
        for side, deleted in ((ig.blue, ig.deleted_for_blue), (ig.red, ig.deleted_for_red))
    )


def assert_matches_oracle(t: Tree) -> None:
    facts = Analysis(t)
    assert facts.coloring == two_coloring(t)
    assert facts.certificate == certificate_by_component_trees(t)
    assert interiors_key(facts.interiors) == interiors_key(interiors_by_forests(t))
    assert facts.balanced == balanced_by_criteria(t)
    assert dict(zip(t.labels, facts.height)) == heights(t)
    assert facts._layer.checks() == (check_component_by_tree(t, "self"),)
    # the side and component objects built later carry the same facts
    for side in facts.sides:
        for comp, check in zip(side.components, side._layer.checks()):
            assert comp._layer.checks() == (check,)
            assert dict(zip(comp.forest.labels, comp.height)) == heights(comp.forest)


def caterpillar(rng: random.Random, n: int) -> Tree:
    spine = [f"c{i}" for i in range(n)]
    rng.shuffle(spine)
    legs = [v for v in spine[1:-1] if rng.randrange(8) == 0]
    return Tree.from_edges(list(zip(spine, spine[1:])) + [(v, f"{v}x") for v in legs])


def shuffled_path(rng: random.Random, n: int) -> Tree:
    labels = [f"p{i}" for i in range(n)]
    rng.shuffle(labels)
    return Tree.from_edges(zip(labels, labels[1:]))


class _Sequence:
    """Stands in for ``Lcg64`` so ``random_tree`` decodes a given Prufer
    sequence."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, n: int) -> int:
        return next(self.values) % n


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_matches_oracle_on_all_small_trees(trees10):
    for t in trees10:
        assert_matches_oracle(t)
        if t.graph.n > 1:
            # the other class is blue: the interiors trade sides, the verdict stays
            swapped = swapped_coloring_tree(t)
            col = two_coloring(t)
            assert two_coloring(swapped).blue == tuple("a" + v for v in col.red)
            assert_matches_oracle(swapped)
            assert is_unmixed_fast(swapped).unmixed == is_unmixed_fast(t).unmixed


def test_matches_oracle_on_random_trees():
    rng = Lcg64(808)
    for _ in range(150):
        assert_matches_oracle(random_tree(rng, 11 + rng.randrange(50)))


def test_matches_oracle_on_mixedness_samples():
    for _, t in mixedness_samples(20240, per_family=10):
        assert_matches_oracle(t)


def test_matches_oracle_on_large_shapes():
    rng = random.Random(1000)
    for t in (shuffled_path(rng, 1000), caterpillar(rng, 1000), random_tree(Lcg64(7), 1000)):
        assert_matches_oracle(t)


@TIER1
@given(st.integers(3, 40).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
def test_matches_oracle_on_prufer_sequences(sequence):
    assert_matches_oracle(random_tree(_Sequence(sequence), len(sequence) + 2))


# ---------------------------------------------------------------------------
# the self-checks of the pass
# ---------------------------------------------------------------------------

def _walk_returning(criteria):
    """The walk of ``unmixed``, but reporting ``criteria`` as its verdicts."""
    walk = unmixed._walk

    def patched(layer, kept):
        walk(layer, kept)
        return criteria

    return patched


def test_disagreeing_criteria_raise(monkeypatch):
    monkeypatch.setattr(unmixed, "_walk", _walk_returning((True, False, True)))
    t = path_graph(6)
    for run in (is_balanced, is_unmixed_fast, interior_graphs, characterize_balanced_unmixed):
        with pytest.raises(TheoremViolation, match="criteria disagree"):
            run(t)


def test_unbalanced_interior_raises(monkeypatch):
    monkeypatch.setattr(unmixed, "_walk", _walk_returning((False, False, False)))
    with pytest.raises(TheoremViolation, match="interior component is not balanced"):
        is_unmixed_fast(path_graph(6))


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _shapes(n: int) -> list[Tree]:
    rng = random.Random(n)
    return [shuffled_path(rng, n), caterpillar(rng, n), random_tree(Lcg64(n), n)]


def test_is_unmixed_fast_at_ten_to_the_five_vertices():
    # no recursion at 10^5 vertices; at 10^4 the verdict and the checks are
    # the oracle's
    for t in _shapes(10**4):
        assert is_unmixed_fast(t) == certificate_by_component_trees(t)
    spine = [f"c{i:05d}" for i in range(10**5 - 10**4)]
    legs = [(v, f"{v}x") for v in spine[1:-1:10]]
    large = (path_graph(10**5 - 1), Tree.from_edges(list(zip(spine, spine[1:])) + legs),
             random_tree(Lcg64(5), 10**5))
    for t in large:
        cert = is_unmixed_fast(t)
        assert not cert.unmixed and len(cert.checks) > 1


def test_verdict_builds_no_checklist(monkeypatch):
    t = random_tree(Lcg64(3), 1000)
    calls = []
    original = unmixed._check_component

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(unmixed, "_check_component", counted)
    cert = is_unmixed_fast(t)
    cert.unmixed
    assert calls == []
    assert cert == certificate_by_component_trees(t) and calls  # == reads the checks


def _assert_verdicts_match_checks(t: Tree) -> None:
    cert = is_unmixed_fast(t)
    assert cert.unmixed == all(c.ok for c in cert.checks)
    facts = Analysis(t)
    if facts.balanced:
        char = facts.characterization
        assert char.unmixed == char.checks[0].ok
        assert char.checks == (check_component_by_tree(t, "self"),)


def test_verdict_matches_checks_on_small_trees(trees10):
    for t in trees10:
        _assert_verdicts_match_checks(t)


def test_verdict_matches_checks_on_mixedness_samples():
    for _, t in mixedness_samples(20240, per_family=10):
        _assert_verdicts_match_checks(t)


def test_verdict_matches_checks_on_large_shapes():
    for t in _shapes(10**4):
        _assert_verdicts_match_checks(t)


def test_certificate_is_immutable_and_compares_by_value():
    t = path_graph(6)
    cert, oracle = is_unmixed_fast(t), certificate_by_component_trees(t)
    assert cert == oracle and hash(cert) == hash(oracle)
    assert cert != unmixed.UnmixedCertificate(not cert.unmixed, oracle.checks)
    assert cert.to_json_dict() == oracle.to_json_dict()
    assert repr(cert) == repr(oracle)
    for target, name in ((cert, "unmixed"), (cert, "checks"), (cert.checks[0], "height")):
        with pytest.raises(AttributeError):
            setattr(target, name, None)


def test_certificate_builds_no_trees(monkeypatch):
    t = random_tree(Lcg64(3), 1000)
    calls = []
    for cls, name in ((graphs.Tree, "__init__"), (graphs.Forest, "__init__"), (graphs.Graph, "subgraph")):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=f"{cls.__name__}.{name}", **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    cert = is_unmixed_fast(t)
    assert cert.checks and calls == []
