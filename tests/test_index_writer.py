"""The reports written from index data, against their label view.

``analyze`` and ``ideal`` hold their vertex sets as ``jsontext.Fragment``s
over the graph's labels. Each report is decoded in full (every fragment
replaced by the plain value it stands for) and must give the same text
through ``jsontext.dumps``, through ``json.dumps(indent=2)``, through the
sectioned ``jsontext.dump`` and on the command's stdout. The decoded
families must also equal what the package's label APIs give. The corpus is
the report-identity corpus (mixed trees with witnesses among it), capped
and uncapped, plus a forest, graphs with a cycle and trees whose labels
need escaping.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from oracles import label_edges, label_components
from test_report_identity import corpus
from totaldom.algebra import cm_type
from totaldom.cli import _analyze_report, _ideal_report, main
from totaldom.complexes import stable_shelling
from totaldom.construct import generate
from totaldom.domination import minimal_td_sets
from totaldom.errors import EnumerationCapExceeded, TotaldomError
from totaldom.graphs import Forest, Graph, Tree, heights, parse_graph, render_edge_list, two_coloring
from totaldom.ideals import decompose_squarefree, open_neighborhood_ideal
from totaldom.jsontext import Fragment, dump, dumps
from totaldom.unmixed import interior_graphs

CAPS = (None, 3, 32)
ODD_LABELS = ('"', "\\", "é", "😀", 'x"\\y')


def graphs() -> list[Graph]:
    out = [t.graph for t in corpus()]
    out.append(parse_graph("l1 s1\ns1 u\nu s2\ns2 l2\nx y\n"))  # a forest
    out.append(parse_graph("a b\nb c\nc a\n"))
    out.append(parse_graph("a b\nb c\nc d\nd a\nd e\n"))
    for k, prefix in enumerate(ODD_LABELS):
        g = generate(k, 2 + k % 3)[0].graph
        name = {v: prefix + v for v in g.labels}
        out.append(Graph.from_edges([(name[a], name[b]) for a, b in label_edges(g)]))
    return out


def _decoded(x):
    """``x`` with every Fragment replaced by the plain value it stands for."""
    if type(x) is Fragment:
        return x.decode()
    if type(x) is dict:
        return {k: _decoded(v) for k, v in x.items()}
    if type(x) in (list, tuple):
        return type(x)(map(_decoded, x))
    return x


def _stdout(argv, text: str) -> str:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _outcome(compute):
    try:
        return compute()
    except TotaldomError as exc:
        return type(exc)


def assert_writes_its_decoded_value(report: dict) -> dict:
    plain = _decoded(report)
    text = dumps(plain)
    assert text == json.dumps(plain, indent=2)  # which takes no Fragment
    assert dumps(report) == text
    pieces = []
    dump(report, pieces.append)
    assert "".join(pieces) == text and len(pieces) == len(report) + 1
    assert report == plain
    return plain


def test_analyze_writes_its_label_view():
    fragments = 0
    for g in graphs():
        for cap in CAPS:
            report = _analyze_report(g, cap, True, False)
            fragments += sum(type(s) is Fragment for s in report["graph"].values())
            plain = assert_writes_its_decoded_value(report)
            argv = ["analyze", "-", "--json"] + ([] if cap is None else ["--max-sets", str(cap)])
            if all(g.adj):  # an edge list cannot carry a lone vertex
                assert _stdout(argv, render_edge_list(g)) == dumps(plain) + "\n"

            assert plain["graph"] == {
                "vertices": list(g.labels), "edges": [list(e) for e in label_edges(g)],
            }
            family = _outcome(lambda: minimal_td_sets(g, cap))
            if family is not EnumerationCapExceeded:
                sets = [list(s) for s in family.sets]
                assert plain["minimal_td_sets"]["sets"] == sets
                assert plain["ideal"]["decomposition"]["components"] == sets
            if not plain["forest"]:
                continue
            col = two_coloring(Forest(g))
            assert plain["heights"] == heights(Forest(g))
            assert plain["coloring"] == {"blue": list(col.blue), "red": list(col.red)}
            if not plain["tree"]:
                continue
            tree = Tree(g)
            ig = interior_graphs(tree)
            for side, forest, deleted in (("blue", ig.blue, ig.deleted_for_blue),
                                          ("red", ig.red, ig.deleted_for_red)):
                assert plain["interiors"][side] == {
                    "vertices": list(forest.labels),
                    "components": [list(c) for c in label_components(forest)],
                    "deleted": list(deleted),
                }
            if plain["shelling"]["applicable"]:
                order = stable_shelling(tree, cap)
                assert plain["shelling"]["facets"] == [list(f) for f in order.facets]
            if plain["type"]["applicable"]:
                ty = cm_type(tree, cap)
                assert plain["type"]["blue_v3_td_sets"] == [list(s) for s in ty.blue_family.sets]
                assert plain["type"]["red_v3_td_sets"] == [list(s) for s in ty.red_family.sets]
    assert fragments


def test_ideal_writes_its_label_view():
    for g in graphs():
        supports = [g.labels[i] for i, nb in enumerate(g.adj)
                    if any(len(g.adj[j]) == 1 for j in nb)]
        for target in (None, supports or None):
            for cap in CAPS:
                report = _outcome(lambda: _ideal_report(g, target, cap))
                dec = _outcome(lambda: decompose_squarefree(open_neighborhood_ideal(g, target), cap))
                if report is EnumerationCapExceeded:
                    assert dec is EnumerationCapExceeded
                    continue
                plain = assert_writes_its_decoded_value(report)
                assert plain["decomposition"]["components"] == [list(s) for s in dec.supports]
                argv = ["ideal", "-", "--json"] + ([] if cap is None else ["--max-sets", str(cap)])
                if target:
                    argv += ["--subset", ",".join(target)]
                if all(g.adj):
                    assert _stdout(argv, render_edge_list(g)) == dumps(plain) + "\n"


def test_fragments_read_as_their_plain_values():
    report = _analyze_report(parse_graph("b a\na c\n"), None, True, False)
    vertices, edges = report["graph"]["vertices"], report["graph"]["edges"]
    assert vertices == ["a", "b", "c"] and ["a", "b", "c"] == vertices
    assert list(edges) == [["a", "b"], ["a", "c"]] and len(edges) == 2
    assert repr(vertices) == "['a', 'b', 'c']" and vertices != ["a", "b"]
    assert report["heights"] == {"a": 1, "b": 0, "c": 0} and len(report["heights"]) == 3
    assert report["graph"] == {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"]]}
