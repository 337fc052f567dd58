from __future__ import annotations

import io
import json
import sys

import pytest

import totaldom.cli as cli
import totaldom.domination as domination
from totaldom.cli import build_parser, main
from totaldom.construct import ConstructionTrace, replay
from totaldom.graphs import canonical_form, parse_graph, path_graph, render_edge_list

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
    # the witness comes from the family already enumerated for the report
    calls = []
    original = domination.minimal_s_td_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(domination, "minimal_s_td_sets", counted)
    report = run_json(capsys, ["analyze", p4_file, "--json"])
    assert report["unmixed"]["witness"] == [["s1", "s2", "u"], ["l1", "l2", "s1", "s2"]]
    assert len(calls) == 1


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


def test_shelling_command(capsys, p6_file):
    report = run_json(capsys, ["shelling", p6_file, "--json"])
    assert report["check"]["ok"] is True
    assert len(report["facets"]) == 3


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
    trace = ConstructionTrace.from_json((out1 / "trace_000.json").read_text())
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


def test_verify_detects_injected_mutant(capsys, monkeypatch):
    # drop the "each support sees at most one height-2 vertex" condition and
    # the characterization check must flag the disagreement
    import totaldom.unmixed as unmixed_mod
    from totaldom.unmixed import ComponentCheck
    from totaldom.graphs import heights as _heights
    from totaldom.verify import check_characterization

    def mutant(comp_tree, side):
        hmap = _heights(comp_tree)
        height = hmap.graph_height()
        g = comp_tree.graph
        v1 = set(hmap.level(1))
        v2 = set(hmap.level(2))
        v2_ok = all(
            sum(1 for w in g.neighbors(v) if w in v1) == 1 for v in v2
        )
        return ComponentCheck(
            side=side,
            vertices=comp_tree.graph.labels,
            height=height,
            height_ok=height <= 3,
            v2_unique_v1_ok=v2_ok,
            v1_at_most_one_v2_ok=True,  # condition (3) skipped
            offending_vertex=None,
        )

    # the smallest balanced tree separating condition (3) has 12 vertices
    from totaldom.graphs import Tree

    fig3 = Tree.from_edges(
        [
            ("s", "l"), ("s", "va"), ("s", "vb"),
            ("va", "ua"), ("ua", "vpa"), ("vpa", "sa"), ("sa", "la"),
            ("vb", "ub"), ("ub", "vpb"), ("vpb", "sb"), ("sb", "lb"),
        ]
    )
    honest = check_characterization(max_n=1, samples=0, extra_trees=[fig3])
    assert honest.passed

    monkeypatch.setattr(unmixed_mod, "_check_component", mutant)
    mutated = check_characterization(max_n=1, samples=0, extra_trees=[fig3])
    assert not mutated.passed
