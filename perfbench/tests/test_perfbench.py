"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests -q`."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def td():
    return run.load_package()


def test_instrument_rebinds_every_importing_module_and_restores(td):
    import totaldom

    modules = tracer._package_modules()
    originals = {}
    for short, names in tracer.SPANNED.items():
        for fname in names:
            originals[id(getattr(getattr(td, short), fname))] = fname
    bound_before = {
        (m.__name__, attr): value
        for m in modules for attr, value in vars(m).items() if id(value) in originals
    }
    assert ("totaldom.cli", "decompose_squarefree") in bound_before
    assert ("totaldom.ideals", "decompose_squarefree") in bound_before
    assert ("totaldom", "decompose_squarefree") in bound_before
    to_ideal = td.ideals.PrimeDecomposition.__dict__["to_ideal"]

    rec = tracer.Recorder()
    with tracer.instrument(rec):
        for (mod_name, attr), value in bound_before.items():
            now = getattr(sys.modules[mod_name], attr)
            assert now is not value, f"{mod_name}.{attr} was not rebound"
            assert now.__perfbench_original__ is value
        assert td.ideals.PrimeDecomposition.to_ideal.__perfbench_original__ is to_ideal
        assert totaldom.decompose_squarefree is td.cli.decompose_squarefree

    for (mod_name, attr), value in bound_before.items():
        assert getattr(sys.modules[mod_name], attr) is value
    assert td.ideals.PrimeDecomposition.__dict__["to_ideal"] is to_ideal
    assert td.domination._minimalize_masks.__name__ == "_minimalize_masks"
    assert not hasattr(td.domination._minimalize_masks, "__perfbench_original__")


@pytest.mark.parametrize("name, limit", [("analyze", 9), ("verify", 10)])
def test_self_times_of_nested_spans_fit_in_wall_time(td, name, limit):
    workload = WORKLOADS[name]
    reqs = workload.build(td, 3)[:limit]
    rec = tracer.Recorder()
    t0 = time.perf_counter()
    with tracer.instrument(rec):
        p = run.run_pass(workload, td, reqs, rec)
    wall = time.perf_counter() - t0
    assert not p.errors and rec.open_spans == 0
    assert len(rec.spans) > len(reqs)
    assert all(t >= -1e-9 for t in rec.self_time.values())
    assert sum(rec.self_time.values()) <= wall
    by_id = {s[0]: s for s in rec.spans}
    assert len(by_id) == len(rec.spans) == rec.started
    for _, _, start, end, parent, request in rec.spans:
        assert end >= start and request in range(len(reqs))
        if parent >= 0:
            _, _, pstart, pend, _, prequest = by_id[parent]
            assert pstart <= start and end <= pend and prequest == request
    # a request's spans all hang under its root span
    roots = [s for s in rec.spans if s[4] == -1]
    assert [s[1] for s in roots] == ["bench.request"] * len(reqs)


@pytest.mark.parametrize("name, limit", [("analyze", 12), ("verify", 10), ("large-trees", 4)])
def test_same_seed_gives_identical_digests(td, name, limit):
    workload = WORKLOADS[name]
    digests = []
    for _ in range(2):
        reqs = workload.build(td, 5)[:limit]
        p = run.run_pass(workload, td, reqs)
        assert p.check_failed == 0
        digests.append(run.digest(p.hashes))
    assert digests[0] == digests[1]


def _inputs(td, name, reqs):
    if name == "large-trees":
        return [r.arg if r.kind == "whisker" else td.graphs.render_edge_list(r.arg.graph)
                for r in reqs]
    return [r.arg for r in reqs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_inputs(td, name):
    a = _inputs(td, name, WORKLOADS[name].build(td, 1))
    b = _inputs(td, name, WORKLOADS[name].build(td, 2))
    again = _inputs(td, name, WORKLOADS[name].build(td, 1))
    assert a == again
    assert len(a) == len(b)
    differing = sum(x != y for x, y in zip(a, b))
    # seed-free slots: verify's exhaustive checks (2 of 10) and analyze's
    # zero-step whisker tree, the base path itself (1 of 15)
    assert differing >= len(a) * {"verify": 0.8, "analyze": 0.9}.get(name, 0.95)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(52) == 80
    assert run.tail_percentile(302) == 95
    assert run.tail_percentile(1000) == 95
    assert run.tail_percentile(15) is None
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    # the large-trees corpus: its slowest requests stay in reach of the tail
    n = len(WORKLOADS["large-trees"].build(run.load_package(), 0)) * run.MIN_PASSES
    assert run.tail_percentile(n) >= 90


def test_missing_pins_are_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "BASELINE", tmp_path / "baseline.json")
    with pytest.raises(SystemExit, match="missing"):
        run.pinned("verify")
    (tmp_path / "baseline.json").write_text('{"digests": {"analyze": {}}}')
    with pytest.raises(SystemExit, match="no pinned digest for verify"):
        run.pinned("verify")


def test_error_key_names_innermost_layer(td):
    with pytest.raises(RecursionError) as info:
        td.graphs.canonical_form(td.graphs.path_graph(3000))
    assert run.error_key(info.value) == "graphs.errors.RecursionError"


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify", "--seconds", "1"]) == 2
