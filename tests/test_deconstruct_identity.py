"""Pinned `deconstruct` output over the report-identity corpus.

One sha256 covers the exit code, stdout and stderr of `deconstruct --json`
and of the human `deconstruct` on every tree of
`test_report_identity.corpus()`: the whisker traces of its unmixed members
and the rejections of the mixed trees and of the unmixed trees whose height
is not 3. The pin was recorded before `deconstruct` read its heights as an
index list; any change to a trace, a step order or an error message
changes it.
"""

from __future__ import annotations

import hashlib

from test_report_identity import _run, corpus

from totaldom.graphs import render_edge_list

PINNED_SHA256 = "d80e80067250d70203a7637efcab8821a859ce2e6f037b27d7acc85a1d0e466d"


def test_deconstruct_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    codes = set()
    for t in corpus():
        text = render_edge_list(t.graph)
        for argv in (["deconstruct", "-", "--json"], ["deconstruct", "-"]):
            out = _run(argv, text)
            codes.add(out.split("\n", 2)[1])
            digest.update(out.encode())
    assert codes == {"0", "2"}
    assert digest.hexdigest() == PINNED_SHA256
