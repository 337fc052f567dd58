"""Pinned CLI output over a fixed corpus.

One sha256 covers the exit code, stdout and stderr of `analyze` (JSON and
human output, at caps none/32/3 and with --no-witness) on every tree of the
corpus, and of `shelling --json` and `type --json --reduction` (uncapped and
at cap 3) on its unmixed members. The pin was recorded before analyze,
shelling and type began to share one analysis per request; any change to a
report, a verdict or a cap outcome changes it.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from totaldom.cli import main
from totaldom.construct import generate
from totaldom.graphs import render_edge_list
from totaldom.treegen import trees_up_to
from totaldom.unmixed import is_unmixed_fast
from totaldom.verify import mixedness_samples

PINNED_SHA256 = "0ccfe4f6175209d84946bfadad38ddef6f18dbf91231df63cbf4ce82f677c3b8"

ANALYZE_VARIANTS = ([], ["--max-sets", "32"], ["--max-sets", "3"], ["--no-witness"])


def corpus():
    """trees_up_to(8), 20 whisker-generated trees and 9 mixedness samples."""
    trees = list(trees_up_to(8))
    trees += [generate(seed, seed % 5)[0] for seed in range(20)]
    trees += [t for _, t in mixedness_samples(5150, 3)]
    return trees


def _run(argv, text: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def test_cli_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    outputs = 0
    for t in corpus():
        text = render_edge_list(t.graph)
        runs = [["analyze", "-", *v, *j] for v in ANALYZE_VARIANTS for j in ([], ["--json"])]
        if is_unmixed_fast(t).unmixed:
            for cap in ([], ["--max-sets", "3"]):
                runs.append(["shelling", "-", "--json", *cap])
                runs.append(["type", "-", "--json", "--reduction", *cap])
        for argv in runs:
            digest.update(_run(argv, text).encode())
            outputs += 1
    assert outputs > 616
    assert digest.hexdigest() == PINNED_SHA256
