"""The command line as a contract: one-pass dispatch and a closed stdout.

``main`` parses a subcommand's arguments with that subcommand's parser
alone. Over a table of command lines, valid and not, it must give the exit
code, stdout and stderr of the route it replaced, the top-level parser
parsing the whole command line. A closed stdout pipe, as under ``| head``,
ends the command with exit code 141 and nothing on stderr.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from totaldom.cli import build_parser, main
from totaldom.construct import generate
from totaldom.errors import TotaldomError
from totaldom.graphs import render_edge_list

P6_TEXT = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def _top_level(argv) -> int:
    """The route ``main`` took before: the top-level parser parses all of argv."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TotaldomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(route, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(P6_TEXT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = route(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    # verify prints each check's wall time
    return code, re.sub(r"\d+\.\ds\)", "s)", out.getvalue()), err.getvalue()


def _table(tmp: Path) -> list[list[str]]:
    path = tmp / "p6.edges"
    path.write_text(P6_TEXT)
    p = str(path)
    return [
        ["analyze", p, "--json"],
        ["analyze", "-", "--json", "--max-sets", "3", "--no-witness"],
        ["analyze", p, "--timings"],  # the text report prints no timings
        ["ideal", p, "--json", "--subset", "1,5"],
        ["ideal", p, "--max-sets", "1"],  # the cap is exceeded: exit 2
        ["shelling", p, "--json", "--max-sets", "100"],
        ["type", p, "--json", "--reduction"],
        ["deconstruct", p, "--json"],
        ["generate", "--seed", "3", "--steps", "2", "--count", "2", "--out", str(tmp / "g"),
         "--json"],
        ["verify", "--max-n", "4", "--samples", "2", "--seed", "5"],
        ["analyze", str(tmp / "missing.edges")],
        ["analyze", p, "--max-sets", "0"],
        ["analyze", p, "--json", "--bogus"],  # left over by analyze's parser
        ["analyze", p, "extra"],
        ["analyse", p],
        ["verify", "--max-n"],
        [],
        ["--help"],
        ["-h", "analyze"],
        ["analyze", "--help"],
    ]


def test_dispatch_matches_the_top_level_parser(tmp_path):
    codes = set()
    for argv in _table(tmp_path):
        got = _outcome(main, argv)
        assert got == _outcome(_top_level, argv), argv
        codes.add(got[0])
    assert codes == {0, 2}


def test_closed_stdout_pipe_exits_quietly_with_141(tmp_path):
    # about 300 KB of JSON, more than a pipe holds, so the write must fail
    path = tmp_path / "tree.edges"
    path.write_text(render_edge_list(generate(5, 10)[0].graph))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "totaldom", "analyze", str(path), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.read(100).startswith(b'{\n  "schema"')
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (141, b"")
