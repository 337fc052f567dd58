"""Metamorphic relations over whole reports.

The package works in index space, on the invariant that index order is
label order. These tests change what should not matter and compare whole
reports:

- relabelling: a bijective relabelling of a tree, with labels that sort in
  a different order, gives the same ``analyze`` report once every label is
  mapped back. The coloring picks its blue side by label, so the two sides
  are compared as an unordered pair, and the witness, whose tie-break is
  label order, is left out;
- input order: shuffling the edge lines and writing some edges backwards
  leaves the output of ``analyze --json``, ``ideal --json``, ``shelling``,
  ``type --json --reduction`` and ``deconstruct --json`` byte-identical;
- disjoint union: for two trees relabelled apart, the ``analyze`` report of
  their union counts count1 * count2 minimal TD-sets, and they are the
  unions of one set of each tree, as its decomposition's components are;
  the decomposition check proves a large union's family by the tree count,
  which is a product over the components;
- operation o: attaching its whisker at a support vertex of an unmixed tree
  (a leaf, as the vertex has height 1) keeps the tree unmixed, by the
  polynomial test and by enumeration.

No relation needs an oracle.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from totaldom import ideals
from totaldom.cli import main
from totaldom.construct import apply_o, generate
from totaldom.domination import is_unmixed_bruteforce
from totaldom.graphs import classify_vertices, render_edge_list
from totaldom.treegen import trees_up_to
from totaldom.unmixed import is_unmixed_fast
from totaldom.verify import balanced_corpus, unmixed_corpus

TIER1 = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _edges(t) -> list[tuple[str, str]]:
    labels = t.graph.labels
    return [(labels[i], labels[j]) for i, nb in enumerate(t.graph.adj) for j in nb if i < j]


# every tree of 2-9 vertices, and unmixed and balanced trees beyond them
TREES = [_edges(t) for t in trees_up_to(9) if t.graph.n > 1]
TREES += [_edges(t) for t in unmixed_corpus(5, 25)]
TREES += [_edges(t) for t, _ in balanced_corpus(7, 20)]
GROWN = [render_edge_list(generate(s, s % 7)[0].graph) for s in range(24)]

# no whitespace, '#' or '*' (the generator separator); digits, '_', '0' and
# '1', and characters that sort after every ASCII one
ALPHABET = "01_79aZzé漢Ω"
LABEL = st.one_of(st.sampled_from(["0", "1", "_", "00", "é"]),
                  st.text(ALPHABET, min_size=1, max_size=3))


def _run(argv, text: str) -> str:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code == 0, (argv, out.getvalue())
    return out.getvalue()


def _mapped_back(report: dict, back: dict[str, str]) -> dict:
    """The fields of an ``analyze`` report with every label mapped through
    ``back``, vertex sets as frozensets, and the two colour sides as an
    unordered pair of everything the report says about each side."""
    m = back.__getitem__

    def vs(labels):
        return frozenset(map(m, labels))

    def family(sets):
        return frozenset(map(vs, sets))

    out = {
        "keys": sorted(report),
        "input": (report["input"]["vertices"], report["input"]["edges"]),
        "graph": (vs(report["graph"]["vertices"]), family(report["graph"]["edges"])),
        "forest": (report["forest"], report["tree"]),
        "heights": {m(v): h for v, h in report["heights"].items()},
        "height": (report["height"], report["balanced"]),
        "classification": {k: vs(v) for k, v in report["classification"].items()},
        "minimal_td_sets": {k: family(v) if k == "sets" else v
                            for k, v in report["minimal_td_sets"].items()},
        "generators": family(g.split("*") for g in report["ideal"]["generators"]),
        "decomposition": {k: family(v) if k == "components" else v
                          for k, v in report["ideal"]["decomposition"].items()},
    }
    unmixed = dict(report["unmixed"])
    unmixed.pop("witness")
    checks = unmixed.pop("checks")
    out["unmixed"] = unmixed
    shelling = dict(report["shelling"])
    if "facets" in shelling:
        shelling["facets"] = family(shelling["facets"])
    out["shelling"] = shelling
    ty = dict(report["type"])
    per_side = {}
    for side in ("blue", "red"):
        interior = report["interiors"][side]
        side_checks = frozenset(
            (vs(c["vertices"]), c["height"], c["height_ok"], c["v2_unique_v1_ok"],
             c["v1_at_most_one_v2_ok"], c["offending_vertex"] is None)
            for c in checks if c["side"] == side
        )
        side_type = None
        if ty["applicable"]:
            side_type = (ty.pop(f"m_{side}"), ty.pop(f"socle_{side}"),
                         family(ty.pop(f"{side}_v3_td_sets")))
        per_side[side] = (vs(interior["vertices"]), family(interior["components"]),
                          vs(interior["deleted"]), side_checks, side_type)
    out["coloring"] = Counter([vs(report["coloring"]["blue"]), vs(report["coloring"]["red"])])
    out["sides"] = Counter(per_side.values())
    out["type"] = ty
    return out


@TIER1
@given(st.sampled_from(TREES), st.data())
def test_analyze_is_invariant_under_relabelling(edges, data):
    labels = sorted({v for e in edges for v in e})
    new = data.draw(st.lists(LABEL, min_size=len(labels), max_size=len(labels), unique=True))
    to = dict(zip(labels, new))
    back = dict(zip(new, labels))
    argv = ["analyze", "-", "--json"]
    before = json.loads(_run(argv, "".join(f"{a} {b}\n" for a, b in edges)))
    after = json.loads(_run(argv, "".join(f"{to[a]} {to[b]}\n" for a, b in edges)))
    assert _mapped_back(after, back) == _mapped_back(before, dict(zip(labels, labels)))


COMMANDS = (
    ["analyze", "-", "--json"],
    ["ideal", "-", "--json"],
    ["shelling", "-"],
    ["type", "-", "--json", "--reduction"],
    ["deconstruct", "-", "--json"],
)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.sampled_from(GROWN), st.randoms(use_true_random=False))
def test_outputs_are_invariant_under_edge_line_order(text, rng):
    lines = text.splitlines()
    rng.shuffle(lines)
    lines = [" ".join(reversed(line.split())) if rng.random() < 0.5 else line
             for line in lines]
    moved = "\n".join(lines) + "\n"
    for argv in COMMANDS:
        assert _run(argv, moved) == _run(argv, text), argv


# twelve small trees and two whisker trees
SMALL = TREES[:95:8] + [_edges(generate(s, 2)[0]) for s in (1, 2)]


def _analyze(edges) -> dict:
    return json.loads(_run(["analyze", "-", "--json"], "".join(f"{a} {b}\n" for a, b in edges)))


def test_analyze_of_a_disjoint_union_multiplies_the_families(monkeypatch):
    # a union's family past ideals._COUNT_FROM is proved by the tree count,
    # a product over the components, and never reaches the duality check
    duality = ideals._check_by_duality
    checked = []

    def traced(dec, ideal):
        checked.append(len(dec))
        duality(dec, ideal)

    monkeypatch.setattr(ideals, "_check_by_duality", traced)
    families = [(edges, _analyze(edges)["minimal_td_sets"]) for edges in SMALL]
    past = 0
    for e1, r1 in families:
        for e2, r2 in families:
            union = _analyze([("x" + a, "x" + b) for a, b in e1]
                             + [("y" + a, "y" + b) for a, b in e2])
            got = union["minimal_td_sets"]
            assert got["count"] == r1["count"] * r2["count"]
            want = {frozenset(["x" + v for v in d1] + ["y" + v for v in d2])
                    for d1 in r1["sets"] for d2 in r2["sets"]}
            assert set(map(frozenset, got["sets"])) == want
            assert union["ideal"]["decomposition"]["components"] == got["sets"]
            past += got["count"] >= 5
    assert past > 50
    assert all(k < ideals._COUNT_FROM for k in checked)


def test_operation_o_at_a_support_keeps_a_tree_unmixed():
    # on the 2-vertex tree both ends are supports of height 0, where o is
    # not defined
    pairs = [
        (t, v) for t in unmixed_corpus(424242, 100) if t.graph.n > 2
        for v in classify_vertices(t).supports
    ]
    assert len(pairs) == 320
    for t, v in pairs:
        grown = apply_o(t, v)
        assert grown.graph.n == t.graph.n + 1
        assert is_unmixed_fast(grown).unmixed, (render_edge_list(t.graph), v)
        assert is_unmixed_bruteforce(grown), (render_edge_list(t.graph), v)
