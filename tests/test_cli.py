from __future__ import annotations

import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import trace_from_json
from test_interior_pass import caterpillar
import totaldom.cli as cli
import totaldom.complexes as complexes
import totaldom.domination as domination
import totaldom.graphs as graphs
from totaldom.cli import build_parser, main
from totaldom.construct import generate, replay
from totaldom.errors import TheoremViolation
from totaldom.graphs import Graph, canonical_form, parse_graph, path_graph, render_edge_list
from totaldom.treegen import Lcg64, random_tree
from totaldom.unmixed import UnmixedCertificate

P6_TEXT = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"
P4_TEXT = "l1 s1\ns1 u\nu s2\ns2 l2\n"


@pytest.fixture()
def p6_file(tmp_path):
    path = tmp_path / "p6.edges"
    path.write_text(P6_TEXT)
    return str(path)


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(P4_TEXT)
    return str(path)


def run_json(capsys, argv) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_p6(capsys, p6_file):
    report = run_json(capsys, ["analyze", p6_file, "--json"])
    assert report["schema"] == "wtd-report/1"
    assert report["tree"] and report["balanced"]
    assert report["minimal_td_sets"]["count"] == 3
    assert report["unmixed"]["unmixed"] is True
    assert report["type"]["type"] == 2
    assert report["shelling"]["verified"] is True


def test_analyze_p4_mixed(capsys, p4_file):
    report = run_json(capsys, ["analyze", p4_file, "--json"])
    assert report["minimal_td_sets"]["sizes"] == [3, 4]
    assert report["unmixed"]["unmixed"] is False
    assert report["unmixed"]["witness"] == [["s1", "s2", "u"], ["l1", "l2", "s1", "s2"]]
    assert report["shelling"] == {"applicable": False, "reason": "tree is mixed"}
    assert report["type"]["applicable"] is False


def test_analyze_enumerates_td_sets_once_on_mixed_trees(capsys, p4_file, monkeypatch):
    # the witness comes from the family already enumerated for the report;
    # every (S-)TD family is enumerated by the index-level core
    calls = []
    original = domination._minimal_s_td_family

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(domination, "_minimal_s_td_family", counted)
    report = run_json(capsys, ["analyze", p4_file, "--json"])
    assert report["unmixed"]["witness"] == [["s1", "s2", "u"], ["l1", "l2", "s1", "s2"]]
    assert len(calls) == 1


def test_analyze_runs_one_coloring_search(capsys, monkeypatch, p6_file):
    # the reported coloring is read off the blue flags the layers use
    calls = []
    original = graphs._blue_flags

    def counted(f):
        calls.append(f)
        return original(f)

    for module in [m for n, m in sys.modules.items() if n.startswith("totaldom")]:
        if getattr(module, "_blue_flags", None) is original:
            monkeypatch.setattr(module, "_blue_flags", counted)
    report = run_json(capsys, ["analyze", p6_file, "--json"])
    assert report["coloring"]["blue"] and len(calls) == 1


def test_analyze_reads_the_decomposition_off_the_td_family(capsys, p4_file, monkeypatch):
    # the prime supports are the minimal TD-sets, so analyze does not
    # enumerate them a second time; the duality check still runs
    checked = []
    original = cli.validate_decomposition

    def refuse(*args, **kwargs):
        raise AssertionError("decompose_squarefree called on the analyze path")

    def counted(dec, ideal):
        checked.append(dec.supports)
        return original(dec, ideal)

    monkeypatch.setattr(cli, "decompose_squarefree", refuse)
    monkeypatch.setattr(cli, "validate_decomposition", counted)
    report = run_json(capsys, ["analyze", p4_file, "--json"])
    components = report["ideal"]["decomposition"]["components"]
    assert components == report["minimal_td_sets"]["sets"]
    assert checked == [tuple(map(tuple, components))]
    capped = run_json(capsys, ["analyze", p4_file, "--json", "--max-sets", "1"])
    assert capped["ideal"]["decomposition"] == {"unit": False, "cap_exceeded": True}
    assert len(checked) == 1


@pytest.mark.parametrize("extra", [[], ["--max-sets", "2"]])
@pytest.mark.parametrize("text", [P4_TEXT, P6_TEXT, "a b\nc d\n", "a b\nb c\nc a\n"])
def test_analyze_json_leaves_no_cyclic_garbage(capsys, monkeypatch, text, extra):
    # json.dumps(indent=2) leaves 33 objects per call for the collector
    argv = ["analyze", "-", "--json", *extra]
    for _ in range(2):  # the first request also builds the cached parser
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            code = main(argv)
            garbage = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
    capsys.readouterr()
    assert code == 0 and garbage == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    helped = subprocess.run(
        [sys.executable, "-m", "totaldom", "--help"], capture_output=True, text=True, env=env
    )
    assert helped.returncode == 0 and helped.stdout.startswith("usage: totaldom")
    analyzed = subprocess.run(
        [sys.executable, "-m", "totaldom", "analyze", "-", "--json"],
        input=P6_TEXT, capture_output=True, text=True, env=env,
    )
    assert analyzed.returncode == 0, analyzed.stderr
    assert json.loads(analyzed.stdout)["minimal_td_sets"]["count"] == 3


# the spider with three legs of length 3: exactly 7 minimal TD-sets
SPIDER_TEXT = "t0 t1\nt0 t2\nt0 t3\nt1 t4\nt2 t5\nt3 t6\nt4 t7\nt5 t8\nt6 t9\n"


def _analyze_spider(cap: int) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "totaldom", "analyze", "-", "--max-sets", str(cap)],
        input=SPIDER_TEXT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    # analyze reports an exceeded cap in its report, with no error exit
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_spider_family_above_the_cap_is_reported_exceeded():
    assert len(domination.minimal_td_sets(parse_graph(SPIDER_TEXT))) == 7
    out = _analyze_spider(6)
    assert "minimal TD-sets: enumeration cap exceeded" in out
    assert "decomposition: enumeration cap exceeded" in out


@pytest.mark.xfail(strict=True, reason="the cap bounds the engine's working family, "
                   "which peaks above the spider's 7 sets (ROADMAP item 18)")
def test_spider_family_at_the_cap_is_reported_in_full():
    out = _analyze_spider(7)
    assert "minimal TD-sets (7, sizes [6]):" in out
    assert "cap exceeded" not in out


def test_analyze_shares_one_analysis_on_unmixed_trees(capsys, tmp_path, monkeypatch):
    # shelling and type read the facts the report already computed: one
    # fast test, one interior split, one component check per interior
    # component and one enumeration of the full TD family
    import totaldom.unmixed as unmixed
    from totaldom.construct import generate

    t, _ = generate(1, 5)
    path = tmp_path / "whisker.edges"
    path.write_text(render_edge_list(t.graph))
    calls = {"is_unmixed_fast": 0, "interior_graphs": 0, "_check_component": 0}
    for name in calls:
        original = getattr(unmixed, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.startswith("totaldom")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    full_targets = []
    original_s = domination._minimal_s_td_family

    def counted_s(g, target, *args, **kwargs):
        if tuple(g.labels[i] for i in target) == t.graph.labels:
            full_targets.append(target)
        return original_s(g, target, *args, **kwargs)

    monkeypatch.setattr(domination, "_minimal_s_td_family", counted_s)
    report = run_json(capsys, ["analyze", str(path), "--json"])
    assert report["height"] == 3 and report["unmixed"]["unmixed"] is True
    assert report["shelling"]["verified"] is True and report["type"]["applicable"]
    assert calls["is_unmixed_fast"] <= 1 and calls["interior_graphs"] <= 1
    assert calls["_check_component"] == len(report["unmixed"]["checks"]) == 5
    assert len(full_targets) == 1


def test_analyze_witness_matches_mixedness_witness(capsys, monkeypatch, trees8):
    from totaldom.unmixed import mixedness_witness

    mixed = 0
    for t in trees8:
        witness = mixedness_witness(t)
        monkeypatch.setattr("sys.stdin", io.StringIO(render_edge_list(t.graph)))
        report = run_json(capsys, ["analyze", "-", "--json"])
        if witness is None:
            assert report["unmixed"].get("witness") is None
        else:
            mixed += 1
            assert report["unmixed"]["witness"] == [list(w) for w in witness]
    assert mixed > 10


def test_analyze_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("")
    report = run_json(capsys, ["analyze", str(path), "--json"])
    assert report["input"]["vertices"] == 0
    assert report["minimal_td_sets"]["count"] == 1  # the empty set covers nothing
    assert report["ideal"]["generators"] == []


def test_analyze_human_output(capsys, p6_file):
    assert main(["analyze", p6_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: unmixed" in out
    assert "type: 2" in out


def test_analyze_reports_are_reproducible(capsys, p6_file):
    a = run_json(capsys, ["analyze", p6_file, "--json"])
    b = run_json(capsys, ["analyze", p6_file, "--json"])
    assert a == b
    assert "timings_ms" not in a


def test_analyze_timings_flag(capsys, p6_file):
    report = run_json(capsys, ["analyze", p6_file, "--json", "--timings"])
    assert "timings_ms" in report


def test_analyze_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(P6_TEXT))
    report = run_json(capsys, ["analyze", "-", "--json"])
    assert report["input"]["vertices"] == 7


def test_analyze_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("a a\n")
    assert main(["analyze", str(path), "--json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_cap(capsys, p6_file):
    assert main(["analyze", p6_file, "--json", "--max-sets", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["minimal_td_sets"]["cap_exceeded"] is True


def test_analyze_long_path_at_a_cap(capsys, tmp_path):
    # N(G), the interior-graph test and the report stay near-linear on a
    # 10^4-vertex path; the cap only stops the TD-set enumeration
    path = tmp_path / "path.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(10**4 - 1)))
    report = run_json(capsys, ["analyze", str(path), "--json", "--max-sets", "1"])
    assert report["input"]["vertices"] == 10**4
    assert report["minimal_td_sets"] == {"cap_exceeded": True}
    assert len(report["ideal"]["generators"]) == 10**4 - 2
    assert report["unmixed"]["unmixed"] is False
    assert report["shelling"] == {"applicable": False, "reason": "tree is mixed"}


@pytest.mark.parametrize("shape", ["prufer", "caterpillar"])
def test_analyze_large_tree_at_cap_one(capsys, tmp_path, shape):
    # the supports' one-vertex neighbourhoods are folded into one mask and
    # each Berge round walks only the bits of its edge, so the cap trips
    # within about a second on 2*10^4 vertices (26 s and 14 s when every
    # round walked all bit positions up to its top one; shared 2-core VM)
    if shape == "prufer":
        tree = random_tree(Lcg64(2), 20000)
    else:
        tree = caterpillar(random.Random(2), 20000)
    path = tmp_path / f"{shape}.edges"
    path.write_text(render_edge_list(tree.graph))
    start = time.perf_counter()
    report = run_json(capsys, ["analyze", str(path), "--json", "--max-sets", "1"])
    assert time.perf_counter() - start < 10
    assert report["input"]["vertices"] == tree.graph.n
    assert report["minimal_td_sets"] == {"cap_exceeded": True}


def test_analyze_one_vertex_tree_has_no_shelling_or_type():
    # an edge list cannot hold a lone vertex, so the report is built directly
    report = cli._analyze_report(path_graph(0).graph, None, True, False)
    assert report["ideal"]["decomposition"] == {"unit": True, "components": []}
    assert report["unmixed"]["unmixed"] is True
    for key in ("shelling", "type"):
        assert report[key]["applicable"] is False
        assert "one-vertex tree" in report[key]["reason"]


def test_analyze_self_check_raises_theorem_violation(capsys, monkeypatch, p6_file):
    # a certificate that disagrees with the enumerated family is a bug
    fast = cli.is_unmixed_fast

    def flipped(facts):
        cert = fast(facts)
        return UnmixedCertificate(not cert.unmixed, cert.checks)

    monkeypatch.setattr(cli, "is_unmixed_fast", flipped)
    message = "characterization disagrees with enumeration; this is a bug"
    with pytest.raises(TheoremViolation, match=message):
        cli._analyze_report(path_graph(6).graph, None, True, False)
    assert main(["analyze", p6_file, "--json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("g, cap", [
    (Graph(["a", "b", "c"], [("a", "b")]), None),  # an edge and a lone vertex
    (Graph(["a", "b", "c"], [("a", "b")]), 1),
    (Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a")]), 1),  # with a triangle
])
def test_analyze_isolated_vertex_gives_the_unit_ideal(g, cap):
    # the lone vertex leaves no TD-set, and N(G) = <1> decomposes into no prime
    report = cli._analyze_report(g, cap, True, False)
    assert report["minimal_td_sets"] == {"cap_exceeded": False, "count": 0, "sizes": [], "sets": []}
    assert report["ideal"] == {"generators": ["1"], "decomposition": {"unit": True, "components": []}}
    assert report["unmixed"] == {"bruteforce": True}


@pytest.mark.parametrize("extra", [[], ["--max-sets", "1"], ["--subset", "c"]])
def test_ideal_isolated_vertex_gives_the_unit_ideal(capsys, monkeypatch, extra):
    # an edge list cannot hold a lone vertex, so the graph is handed in
    monkeypatch.setattr(cli, "_read_graph", lambda path: Graph(["a", "b", "c"], [("a", "b")]))
    report = run_json(capsys, ["ideal", "-", "--json", *extra])
    assert report["generators"] == ["1"]
    assert report["decomposition"] == {"unit": True, "components": []}
    assert main(["ideal", "-", *extra]) == 0
    assert capsys.readouterr().out == "N_S(G) = <1>\ndecomposition: unit ideal\n"


@pytest.mark.parametrize("text, forest, bruteforce", [
    ("a b\nb c\nc a\n", False, True),  # a triangle
    ("l1 s1\ns1 u\nu s2\ns2 l2\nx y\n", True, False),  # the mixed P4 and an edge
    ("a b\nb c\nc d\nd a\nd e\n", False, True),  # a 4-cycle with a pendant vertex
])
def test_analyze_non_tree(capsys, tmp_path, text, forest, bruteforce):
    # off trees the verdict is the enumeration's, and a cap leaves none
    path = tmp_path / "g.edges"
    path.write_text(text)
    not_a_tree = {"applicable": False, "reason": "input is not a tree"}
    for cap, unmixed in (([], {"bruteforce": bruteforce}),
                         (["--max-sets", "1"], {"applicable": False, "reason": "enumeration cap exceeded"})):
        report = run_json(capsys, ["analyze", str(path), "--json", *cap])
        assert (report["forest"], report["tree"]) == (forest, False)
        assert report["unmixed"] == unmixed
        assert report["shelling"] == report["type"] == not_a_tree
        # a capped family sets "unmixed" before the ideal, the enumeration after it
        keys = list(report)
        assert keys.index("unmixed") - keys.index("ideal") == (-1 if cap else 1)


def test_analyze_rejects_nonpositive_cap(capsys, p6_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", p6_file, "--json", "--max-sets", "0"])
    assert exc.value.code == 2
    assert "--max-sets: must be at least 1" in capsys.readouterr().err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "absent.edges")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read ")
    assert "absent.edges" in captured.err and captured.out == ""


def test_non_utf8_file_is_an_input_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "latin1.edges"
    path.write_bytes("caf\xe9 b\n".encode("latin-1"))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n"
    # standard input decodes undecodable bytes to lone surrogates
    monkeypatch.setattr(sys, "stdin", io.StringIO("caf\udce9 b\n"))
    assert main(["analyze", "-"]) == 2
    assert capsys.readouterr().err == "error: stdin is not UTF-8 text\n"


# ---------------------------------------------------------------------------
# ideal / shelling / type / deconstruct
# ---------------------------------------------------------------------------

def test_ideal_subset(capsys, tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text("v1 v2\nv2 v3\nv3 v4\nv4 v5\nv5 v6\n")
    report = run_json(capsys, ["ideal", str(path), "--subset", "v2,v4,v6", "--json"])
    assert report["generators"] == ["v5", "v1*v3"]
    assert report["decomposition"]["components"] == [["v1", "v5"], ["v3", "v5"]]
    # the target is reported as a sorted set, whatever order and repeats --subset has
    assert run_json(capsys, ["ideal", str(path), "--subset", "v6,v2,v4,v2", "--json"]) == report


def test_shelling_command(capsys, p6_file):
    report = run_json(capsys, ["shelling", p6_file, "--json"])
    assert report["check"]["ok"] is True
    assert len(report["facets"]) == 3


def count_witness_builds(monkeypatch) -> list:
    """Count the witness lists built through ``cli._witnesses``, the one
    binding of the builder."""
    built = []
    original = cli._witnesses

    def counted(masks):
        built.append(len(masks))
        return original(masks)

    monkeypatch.setattr(cli, "_witnesses", counted)
    return built


def test_only_shelling_json_builds_per_pair_witnesses(capsys, tmp_path, monkeypatch):
    t, _ = generate(3, 4)
    path = tmp_path / "gen.edges"
    path.write_text(render_edge_list(t.graph))
    built = count_witness_builds(monkeypatch)
    order = complexes.stable_shelling(t)
    assert order.check.ok and built == []
    report = run_json(capsys, ["analyze", str(path), "--json"])
    assert report["shelling"]["verified"] is True and built == []
    report = run_json(capsys, ["shelling", str(path), "--json"])
    n = len(report["facets"])
    assert built == [n]
    assert report["check"]["witness_count"] == len(report["witnesses"]) == n * (n - 1) // 2


def test_shelling_text_builds_no_witnesses(capsys, tmp_path, monkeypatch):
    t, _ = generate(3, 4)
    path = tmp_path / "gen.edges"
    path.write_text(render_edge_list(t.graph))
    calls = count_witness_builds(monkeypatch)
    assert main(["shelling", str(path)]) == 0
    text = capsys.readouterr().out
    assert calls == []
    report = run_json(capsys, ["shelling", str(path), "--json"])
    assert len(calls) == 1
    # the text is the one the report-based printer wrote
    want = [f"shelling of the stable complex ({len(report['facets'])} facets), "
            f"verified: {report['check']['ok']}"]
    want += ["  {" + ", ".join(f) + "}" for f in report["facets"]]
    assert text == "\n".join(want) + "\n"


def test_shelling_json_witnesses_honour_max_sets(capsys, tmp_path, monkeypatch):
    t, _ = generate(3, 4)
    path = tmp_path / "gen.edges"
    path.write_text(render_edge_list(t.graph))
    full = run_json(capsys, ["shelling", str(path), "--json"])
    n = len(full["facets"])
    pairs = n * (n - 1) // 2
    assert n < pairs  # the facets fit under a cap that the witnesses exceed
    calls = count_witness_builds(monkeypatch)
    assert main(["shelling", str(path), "--json", "--max-sets", str(pairs - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: shelling witness list of {pairs} facet pairs exceeds cap={pairs - 1}\n"
    )
    assert captured.out == "" and calls == []
    # the text output builds no witness, so the same cap lets it through
    assert main(["shelling", str(path), "--max-sets", str(pairs - 1)]) == 0
    assert capsys.readouterr().out.startswith(f"shelling of the stable complex ({n} facets)")
    monkeypatch.undo()
    assert run_json(capsys, ["shelling", str(path), "--json", "--max-sets", str(pairs)]) == full


def test_ideal_rejects_unknown_subset_vertex(capsys, p6_file):
    assert main(["ideal", p6_file, "--subset", "0,zz"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --subset names unknown vertices: 'zz'\n"
    assert captured.out == ""


def test_ideal_rejects_empty_subset(capsys, p6_file):
    # an empty --subset used to mean "all vertices"
    for subset in ("", "0,,1"):
        with pytest.raises(SystemExit) as exc:
            main(["ideal", p6_file, "--subset", subset])
        assert exc.value.code == 2
        assert "error: argument --subset: expected comma-separated vertex labels" in (
            capsys.readouterr().err
        )


def test_shelling_rejects_mixed(capsys, p4_file):
    assert main(["shelling", p4_file, "--json"]) == 2


def test_type_command(capsys, p6_file):
    report = run_json(capsys, ["type", p6_file, "--json", "--reduction"])
    assert report["type"] == 2
    assert report["m_blue"] * report["m_red"] == 2
    assert "reductions" in report


def test_deconstruct_command(capsys, p6_file):
    report = run_json(capsys, ["deconstruct", p6_file, "--json"])
    assert report == {"base": "P6", "steps": []}


def test_deconstruct_rejects_a_star_as_an_input_error(capsys, tmp_path):
    # the star is unmixed and balanced, but of height 1
    path = tmp_path / "star.edges"
    path.write_text("s a\ns b\ns c\n")
    assert main(["deconstruct", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: deconstruction requires height exactly 3\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# generate / verify
# ---------------------------------------------------------------------------

def test_generate_writes_reproducible_corpus(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "generate", "--seed", "3", "--steps", "4", "--count", "2",
            "--out", str(out), "--json",
        ]) == 0
        capsys.readouterr()
    for name in ("tree_000.edges", "tree_001.edges", "trace_000.json", "trace_001.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    tree = parse_graph((out1 / "tree_000.edges").read_text())
    trace = trace_from_json((out1 / "trace_000.json").read_text())
    assert replay(trace).graph == tree
    assert render_edge_list(tree) == (out1 / "tree_000.edges").read_text()


def test_generate_zero_steps_base(tmp_path, capsys):
    from totaldom.graphs import Tree

    assert main(["generate", "--steps", "0", "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    tree = Tree(parse_graph((tmp_path / "g" / "tree_000.edges").read_text()))
    assert canonical_form(tree) == canonical_form(path_graph(6))


def test_generate_rejects_negative_steps(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--steps", "-1", "--out", str(tmp_path / "g")])
    assert exc.value.code == 2
    assert "--steps: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_generate_rejects_negative_count(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--count", "-1", "--json", "--out", str(tmp_path / "g")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--count: must be at least 0" in captured.err and captured.out == ""
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("under, reason", [("", "File exists"), ("sub", "Not a directory")])
def test_generate_reports_unwritable_out(tmp_path, capsys, under, reason):
    blocker = tmp_path / "f"
    blocker.write_text("")
    out = blocker / under if under else blocker
    assert main(["generate", "--out", str(out), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert captured.out == ""


def test_generated_outputs_analyze_unmixed(tmp_path, capsys):
    assert main([
        "generate", "--seed", "11", "--steps", "6", "--count", "2",
        "--out", str(tmp_path / "g"),
    ]) == 0
    capsys.readouterr()
    for i in range(2):
        report = run_json(capsys, ["analyze", str(tmp_path / "g" / f"tree_{i:03d}.edges"), "--json"])
        assert report["unmixed"]["unmixed"] is True
        assert report["type"]["applicable"] is True


def test_verify_quick_run(capsys):
    code = main(["verify", "--max-n", "6", "--samples", "20"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("[PASS]") == 10
    assert "10/10 checks passed" in out


def test_verify_marks_empty_checks_vacuous(capsys, monkeypatch):
    from totaldom.verify import CheckResult

    results = [
        CheckResult("some", True, 3, "all agree", 0.04),
        CheckResult("none", True, 0, "all agree", 0.0),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda **kwargs: results)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] some: all agree (3 cases, 0.0s)",
        "[VACUOUS] none: all agree (0 cases, 0.0s)",
        "1/2 checks passed, 1 vacuous (0 cases)",
    ]

    results.append(CheckResult("broken", False, 0, "boom", 0.0))
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "[FAIL] broken: boom (0 cases, 0.0s)",
        "1/3 checks passed, 1 vacuous (0 cases)",
    ]


def test_verify_checks_without_cases_are_vacuous():
    from totaldom.verify import check_characterization, check_decomposition, check_stanley_reisner

    for result in (
        check_characterization(max_n=0, samples=0),
        check_decomposition(max_n=0),
        check_stanley_reisner(max_n=0),
    ):
        assert result.passed and result.vacuous
        assert result.line().startswith(f"[VACUOUS] {result.name}: ")


@pytest.mark.parametrize("flag", ["--max-n", "--samples"])
def test_verify_rejects_negative_sizes(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "-1"])
    assert exc.value.code == 2
    assert f"{flag}: must be at least 0" in capsys.readouterr().err


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "Exit codes: 0 success" in helps[0]
    # a usage error leaves the shared parser usable
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert build_parser().parse_args(["verify", "--max-n", "3"]).max_n == 3


def test_verify_detects_injected_mutant(monkeypatch):
    # drop the "each support sees at most one height-2 vertex" condition and
    # the characterization check must flag the disagreement
    import totaldom.unmixed as unmixed_mod
    import totaldom.verify as verify_mod

    walk = unmixed_mod._walk

    def mutant(layer, kept):
        criteria = walk(layer, kept)
        # condition (3) skipped: no height-1 vertex is marked bad
        layer.marks[:] = [(top, bad2, None) for top, bad2, _ in layer.marks]
        return criteria

    # the smallest balanced tree separating condition (3) has 12 vertices
    from totaldom.graphs import Tree

    fig3 = Tree.from_edges(
        [
            ("s", "l"), ("s", "va"), ("s", "vb"),
            ("va", "ua"), ("ua", "vpa"), ("vpa", "sa"), ("sa", "la"),
            ("vb", "ub"), ("ub", "vpb"), ("vpb", "sb"), ("sb", "lb"),
        ]
    )
    # the exhaustive corpus of both runs is that one tree
    monkeypatch.setattr(verify_mod, "trees_up_to", lambda max_n: iter([fig3]))
    honest = verify_mod.check_characterization(max_n=1, samples=0)
    assert honest.passed and honest.checked == 1

    monkeypatch.setattr(unmixed_mod, "_walk", mutant)
    mutated = verify_mod.check_characterization(max_n=1, samples=0)
    assert not mutated.passed and mutated.checked == 1
