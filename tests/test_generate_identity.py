"""Pinned `generate` output.

One sha256 covers the exit code, stdout and stderr of `generate --json` for
three (seed, steps, count) settings, and the name and bytes of every file
each run writes: the edge lists, the replay traces and nothing else. A
second pin covers the edge list of the 78,245-vertex `generate(7, 30000)`.
Both were recorded before the whisker growth built its trees from creation
positions; any change to a label, an edge, a trace step or a manifest row
changes them.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from totaldom.cli import main
from totaldom.construct import generate
from totaldom.graphs import render_edge_list

PINNED_SHA256 = "d5a77940022bf682d43a6df11e2c4465d033284da91800ceb7f08ef4e512ec35"
LARGE_SHA256 = "ed3d5087870c4b9128de80a066d17ffc14606bb7a4c01b66bb40d652b3161995"

SETTINGS = ((0, 0, 3), (3, 6, 10), (11, 60, 4))


def test_generate_outputs_match_the_pinned_digest(tmp_path):
    digest = hashlib.sha256()
    for seed, steps, count in SETTINGS:
        outdir = tmp_path / f"s{seed}"
        argv = ["generate", "--seed", str(seed), "--steps", str(steps),
                "--count", str(count), "--json"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--out", str(outdir)])
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        written = sorted(outdir.iterdir())
        assert len(written) == 2 * count
        for path in written:
            digest.update(f"{path.name}\n".encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_SHA256


def test_large_generated_tree_matches_the_pinned_digest():
    text = render_edge_list(generate(7, 30000)[0].graph)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_SHA256
