"""Pinned `ideal` output over the report-identity corpus.

One sha256 covers the exit code, stdout and stderr of `ideal` (JSON and
human output; uncapped, at cap 3, and with `--subset` set to the tree's
supports, the vertices next to a leaf) on every tree of
``test_report_identity.corpus()``. The pin was recorded before N(G), its
decomposition and their renderings moved to index space; any change to a
generator string, a component, a cap outcome or an error changes it.
"""

from __future__ import annotations

import hashlib

from test_report_identity import _run, corpus
from totaldom.graphs import render_edge_list

PINNED_SHA256 = "3c6054f080b1fec9cbf11d835227eece50819efdc689c0e3e7556f93a8b37d84"


def _supports(g) -> list[str]:
    adj = g.adj
    return [g.labels[i] for i, nb in enumerate(adj) if any(len(adj[j]) == 1 for j in nb)]


def test_ideal_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    outputs = 0
    for t in corpus():
        text = render_edge_list(t.graph)
        variants = [[], ["--max-sets", "3"]]
        supports = _supports(t.graph)
        if supports:
            variants.append(["--subset", ",".join(supports)])
        for v in variants:
            for j in ([], ["--json"]):
                digest.update(_run(["ideal", "-", *v, *j], text).encode())
                outputs += 1
    assert outputs > 300
    assert digest.hexdigest() == PINNED_SHA256
