"""The interior sides as the shelling, the type and the report read them.

``stable_shelling``, ``cm_type``, ``type --reduction`` and the report's
``interiors`` section read each interior side off its layer of the tree
(``Analysis.interior_layers``): the components come straight from the
tree's graph with their sorted tree indices as their lifts, and the
V3-TD-sets are found on the layer's neighbor lists over the tree's
indices. The label view, ``interior_graphs`` and the forests it builds, is
the reference they are checked against here, caps included.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import totaldom.graphs as graphs
import totaldom.unmixed as unmixed
from oracles import composed_facets_by_labels, sides, component_facts, label_components
from test_report_identity import corpus
from totaldom.algebra import _v3_family, cm_type, minimal_v3_td_sets
from totaldom.cli import main
from totaldom.complexes import _composed_order, stable_shelling
from totaldom.construct import generate
from totaldom.errors import EnumerationCapExceeded
from totaldom.graphs import render_edge_list
from totaldom.treegen import Lcg64, random_tree
from totaldom.unmixed import Analysis, interior_graphs
from totaldom.verify import unmixed_corpus

CAPS = (1, 2, 3, 8, None)


def _run(argv, t) -> str:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(render_edge_list(t.graph))
    try:
        with redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _outcome(compute):
    """What ``compute()`` returns, or the message of the cap it trips."""
    try:
        return compute()
    except EnumerationCapExceeded as exc:
        return ("cap", str(exc))


def test_report_interiors_match_interior_graphs():
    # an edge list cannot carry the one-vertex tree
    trees = [t for t in corpus() if t.graph.n > 1]
    trees += [random_tree(Lcg64(seed), 2 + seed % 39) for seed in range(200)]
    for t in trees:
        report = json.loads(_run(["analyze", "-", "--json", "--max-sets", "1"], t))
        ig = interior_graphs(t)
        want = {
            side: {
                "vertices": list(forest.labels),
                "components": [list(c) for c in label_components(forest)],
                "deleted": list(deleted),
            }
            for side, forest, deleted in (
                ("blue", ig.blue, ig.deleted_for_blue), ("red", ig.red, ig.deleted_for_red),
            )
        }
        assert report["interiors"] == want


def test_layer_v3_families_match_the_interior_forests():
    tripped = fit = 0
    for t in unmixed_corpus(5, 60):
        facts = Analysis(t)
        ig = interior_graphs(t)
        for cap in CAPS:
            want = []
            for layer, forest in zip(facts.interior_layers, (ig.blue, ig.red)):
                got = _outcome(lambda: _v3_family(t.graph, layer.nbrs, layer.height, cap).sets)
                expected = _outcome(lambda: minimal_v3_td_sets(forest, cap).sets)
                assert got == expected
                want.append(expected)
            # cm_type finds the blue family first, so a blue cap trips first
            first_cap = next((w for w in want if w[0] == "cap"), None)
            report = _outcome(lambda: cm_type(facts, cap))
            if first_cap is not None:
                assert report == first_cap
                tripped += 1
            else:
                assert (report.blue_family.sets, report.red_family.sets) == tuple(want)
                fit += 1
    assert tripped and fit


def test_composed_facets_match_the_label_lift():
    tripped = fit = 0
    for t in unmixed_corpus(5, 60):
        facts = Analysis(t)
        for cap in CAPS:
            got = _outcome(lambda: _composed_order(facts.interior_layers, cap)[:2])
            want = _outcome(lambda: composed_facets_by_labels(t, cap))
            assert got == want
            if want[0] == "cap":
                tripped += 1
            else:
                fit += 1
        ground, facets = composed_facets_by_labels(t)
        order = stable_shelling(facts)
        assert order.masks == tuple(facets)
        assert order.ground == t.graph.labels_of(ground)
    assert tripped and fit


def test_sides_hold_the_components_of_their_layers():
    # the label view shares the component Analyses that the shelling and
    # the type read, and each component's labels are its lift's
    t = graphs.path_graph(9)
    facts = Analysis(t)
    for side, layer in zip(sides(facts), facts.interior_layers):
        assert component_facts(side) is layer.component_facts
        for comp, lift in zip(component_facts(side), layer.components):
            assert comp.forest.labels == tuple([t.graph.labels[i] for i in lift])


def test_shelling_type_and_report_build_no_interior_forest(monkeypatch):
    # the interior forests come only from _Layer.forest; every other
    # induced subgraph is one interior component smaller than the tree
    def refuse(*args):
        raise AssertionError("an interior forest was built")

    subgraph = graphs.Graph.subgraph
    induced = []

    def counted(self, kept):
        induced.append(list(kept))
        return subgraph(self, kept)

    monkeypatch.setattr(unmixed._Layer, "forest", refuse)
    monkeypatch.setattr(graphs.Graph, "subgraph", counted)
    for seed, steps in ((0, 0), (1, 2), (3, 4), (11, 6)):
        t = generate(seed, steps)[0]
        components = [c for layer in Analysis(t).interior_layers for c in layer.components
                      if len(c) < t.graph.n]
        induced.clear()
        report = json.loads(_run(["analyze", "-", "--json"], t))
        assert report["shelling"]["verified"] is True
        assert report["type"]["applicable"] is True
        order = stable_shelling(t)
        assert order.check.ok
        assert cm_type(t).cm_type == report["type"]["type"]
        reduced = json.loads(_run(["type", "-", "--json", "--reduction"], t))
        assert reduced["type"] == report["type"]["type"]
        # four requests, each inducing every smaller component once
        assert sorted(induced) == sorted(components * 4)
    with pytest.raises(AssertionError, match="interior forest"):
        interior_graphs(t)
