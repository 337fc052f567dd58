"""Seeded benchmark of the totaldom package built from this checkout's src/.

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                           # every workload, one process each

Load model: closed loop, one client, single-threaded. A run sets up its
corpus (fresh import of the package plus seeded input generation) several
times and reports the median as ``setup_s``. It then replays whole passes
over the corpus while another pass still fits in ``--seconds`` (at least
MIN_PASSES). Each request's latency is the median over its passes;
``latency_p50_ms`` is the median of those and ``requests_per_s`` the corpus
size over their sum. The tail is taken over every request-by-pass sample, at
the highest of TAIL_PERCENTILES with at least ten samples beyond it in
MIN_PASSES passes, so a workload's tail percentile is fixed by its corpus
size and does not move with the number of passes a run holds. Every
timing is scaled to a nominal machine speed (see REF_NOMINAL_S); the
unscaled figures are printed too. A request fails when it raises; its
latency still counts, and ``ok_ratio`` is the share that did not fail.

Every output is checked and hashed. Repeated passes must reproduce the first
pass's hashes, and at PINNED_SEED the workload digest must match the one
pinned in ``baseline.json``; a run without a pin to compare against stops
with an error. ``--trace 1`` runs untraced and traced
passes in alternation and reports per-layer metrics from the traced ones
plus the tracing overhead; spans go to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, short_hash  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
PINNED_SEED = 0
# No p99: over analyze's 601 inputs it rests on the few that land just under
# the enumeration cap, a number that varies with the seed (across ten seeds
# its spread between quartiles was 0.17 of the median, and 0.09 at p95).
TAIL_PERCENTILES = (50, 75, 80, 90, 95)
TAIL_MIN_BEYOND = 10
MODULES = ("errors", "graphs", "treegen", "domination", "ideals", "unmixed",
           "complexes", "algebra", "construct", "verify", "cli")
# Machine-speed calibration: a fixed pure-Python reference runs every
# CAL_EVERY_S during a pass, and each timing is scaled by REF_NOMINAL_S over
# the reference time measured around it. On a shared host the speed of one
# core drifts by a third over seconds; the scaled figures follow the program,
# not the neighbours. REF_NOMINAL_S is the reference's time on an idle core of
# the 2.1 GHz Xeon the baseline was recorded on.
REF_NOMINAL_S = 0.0013
CAL_EVERY_S = 0.25
OUT_DIR = ROOT / ".perfbench-out"
BASELINE = HERE / "baseline.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: time metrics named after a function are the inclusive
# time of its outermost calls; `<layer>.self_s` is the layer's self time.
INCLUSIVE_S = {
    "domination.engine_s": ("domination.minimal_transversal_masks",),
    "domination.recheck_s": ("domination.is_s_td_set", "domination.is_minimal_set"),
    "complexes.verify_shelling_s": ("complexes.verify_shelling",),
    "complexes.stable_complex_s": ("complexes.stable_complex",),
    "complexes.stanley_reisner_s": ("complexes.stanley_reisner_ideal",
                                    "complexes.stanley_reisner_complex"),
    "algebra.socle_s": ("algebra.socle_dimension",),
    "unmixed.witness_s": ("unmixed.mixedness_witness",),
    "unmixed.fast_s": ("unmixed.is_unmixed_fast",),
    "construct.generate_s": ("construct.generate",),
    "construct.deconstruct_s": ("construct.deconstruct",),
    "graphs.canonical_form_s": ("graphs.canonical_form",),
}
INCLUSIVE_S.update({
    f"verify.{name}_s": (f"verify.{name}",)
    for name in tracer.SPANNED["verify"]
    if name.startswith("check_") and name != "check_mixedness_theorems"
})
INCLUSIVE_S["verify.mixedness_samples_s"] = ("verify.mixedness_samples",)
CALLS = {
    "domination.engine_calls": "domination.minimal_transversal_masks",
    "algebra.socle_calls": "algebra.socle_dimension",
    "unmixed.fast_calls": "unmixed.is_unmixed_fast",
    "unmixed.interiors_calls": "unmixed.interior_graphs",
    "unmixed.balanced_calls": "unmixed.is_balanced",
}
COUNTS = ("ideals.primes_reexpanded", "domination.sets_out", "domination.berge_rounds",
          "complexes.facets_checked", "construct.steps")
PER_REQUEST = ("domination.engine_calls", "unmixed.interiors_calls", "unmixed.fast_calls",
               "unmixed.balanced_calls", "ideals.primes_reexpanded",
               "complexes.facets_checked", "algebra.socle_calls")
LAYERS = ("cli", "verify", "graphs", "treegen", "domination", "ideals", "unmixed",
          "complexes", "algebra", "construct")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_package() -> SimpleNamespace:
    """Import totaldom afresh from this checkout's src/ (no cached modules)."""
    for name in [n for n in sys.modules if n == "totaldom" or n.startswith("totaldom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("totaldom")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: totaldom imported from {origin}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"totaldom.{m}") for m in MODULES})


def reference_work() -> int:
    """Fixed interpreter work of the program's kind: tuples, dicts, sets, sorting."""
    total = 0
    for r in range(6):
        adj = {i: ((i * 7 + r) % 400, (i * 13 + 5) % 400, (i + 1) % 400) for i in range(400)}
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen) + len(sorted(adj.values()))
    return total


def calibrate() -> float:
    """Current seconds per reference run (median of five)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(workload, seed: int):
    """Fresh import plus seeded input generation, repeated; the last one is kept.

    The kept corpus is then frozen out of the garbage collector: a user's
    process never holds it, and its thousands of graph objects would
    otherwise add a collection cost to every request that the program itself
    does not have.
    """
    times = []
    td = reqs = None
    for _ in range(SETUP_REPEATS):
        td = reqs = None
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        td = load_package()
        reqs = workload.build(td, seed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * REF_NOMINAL_S / ((before + calibrate()) / 2))
    gc.collect()
    gc.freeze()
    return td, reqs, times


# ---------------------------------------------------------------------------
# requests and passes
# ---------------------------------------------------------------------------

def error_key(exc: BaseException) -> str:
    """`<layer>.errors.<Type>`, the layer being the innermost totaldom module."""
    layer = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("totaldom."):
            layer = mod.split(".", 1)[1]
    return f"{layer}.errors.{type(exc).__name__}"


class Pass:
    """One pass over the corpus: latencies, outcomes and output hashes."""

    def __init__(self):
        self.latency: list[float] = []  # scaled to the nominal machine speed
        self.raw_latency: list[float] = []
        self.hashes: list[str | None] = []
        self.errors: Counter = Counter()
        self.messages: list[str] = []
        self.cap_exceeded = 0
        self.check_failed = 0
        self.wall = 0.0
        self.speed = 1.0  # nominal over measured reference time


def run_pass(workload, td, reqs, rec: tracer.Recorder | None = None) -> Pass:
    p = Pass()
    t_pass = time.perf_counter()
    cals = [calibrate()]
    segment = []
    next_cal = time.perf_counter() + CAL_EVERY_S
    for req in reqs:
        if time.perf_counter() >= next_cal:
            cals.append(calibrate())
            next_cal = time.perf_counter() + CAL_EVERY_S
        segment.append(len(cals) - 1)
        exc = raw = None
        if rec is not None:
            rec.request = req.rid
            rec.active = True
            frame = rec.enter("bench.request")
        t0 = time.perf_counter()
        try:
            raw = workload.execute(td, req)
        except Exception as e:  # a failed request is counted, never fatal
            exc = e
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.exit(frame)
            rec.active = False
        p.raw_latency.append(dt)
        if exc is None:
            try:
                out = workload.check(td, req, raw)
            except Exception as e:  # a malformed output fails its check, not the run
                exc = e if isinstance(e, CheckFailed) else CheckFailed(f"{type(e).__name__}: {e}")
                p.check_failed += 1
        if exc is not None:
            key = error_key(exc) if not isinstance(exc, CheckFailed) else "bench.errors.CheckFailed"
            p.errors[key] += 1
            p.hashes.append(None)
            if len(p.messages) < 3:
                p.messages.append(f"request {req.rid} ({req.kind}): {key}: {exc}"[:300])
            continue
        p.cap_exceeded += out.cap_exceeded
        p.hashes.append(short_hash(out.text))
    cals.append(calibrate())
    p.wall = time.perf_counter() - t_pass
    p.latency = [
        dt * REF_NOMINAL_S / ((cals[k] + cals[k + 1]) / 2)
        for dt, k in zip(p.raw_latency, segment)
    ]
    p.speed = REF_NOMINAL_S / statistics.median(cals)
    return p


def digest(hashes, skip=()) -> str:
    skip = set(skip)
    lines = [f"{i} {h}\n" for i, h in enumerate(hashes) if h is not None and i not in skip]
    return short_hash("".join(lines))


def _rank(p: float, n: int) -> int:
    """Number of samples at or below the nearest-rank p-th percentile."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(sorted_values, p: float) -> float:
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    usable = [p for p in TAIL_PERCENTILES if n - _rank(p, n) >= TAIL_MIN_BEYOND]
    return max(usable) if usable else None


def pinned(workload_name: str) -> dict:
    """The workload's pinned digest at PINNED_SEED; missing pins are an error."""
    if not BASELINE.is_file():
        raise SystemExit(f"error: {BASELINE} is missing; no pinned digests")
    pins = json.loads(BASELINE.read_text(encoding="utf-8")).get("digests", {})
    if workload_name not in pins:
        raise SystemExit(f"error: no pinned digest for {workload_name} in {BASELINE}")
    return pins[workload_name]


def judge(workload, seed: int, passes: list[Pass],
          pin: dict | None) -> tuple[bool, list[str], str]:
    """Correctness across passes plus, at PINNED_SEED, the pinned digest."""
    problems = []
    first = passes[0].hashes
    for p in passes:
        if p.check_failed:
            problems.append(f"{p.check_failed} outputs failed their check")
        if p.hashes != first:
            problems.append("a repeated pass produced different outputs")
    dig = digest(first)
    if pin is not None and seed == PINNED_SEED:
        failed_now = {i for i, h in enumerate(first) if h is None}
        new_failures = failed_now - set(pin["failed"])
        if new_failures:
            problems.append(f"requests {sorted(new_failures)[:5]} fail but pass at the pin")
        if digest(first, skip=pin["failed"]) != pin["digest"]:
            problems.append(f"digest differs from the pinned {pin['digest']}")
    return not problems, problems, dig


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, pin: dict | None):
    td, reqs, setup_times = setup(workload, seed)
    passes: list[Pass] = []
    t_begin = time.perf_counter()
    while True:
        passes.append(run_pass(workload, td, reqs))
        elapsed = time.perf_counter() - t_begin
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            break
    per_request = sorted(
        statistics.median(p.latency[i] for p in passes) for i in range(len(reqs))
    )
    samples = sorted(dt for p in passes for dt in p.latency)
    attempted = len(reqs) * len(passes)
    failed = sum(sum(p.errors.values()) for p in passes)
    tail_p = tail_percentile(len(reqs) * MIN_PASSES)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(reqs) / sum(per_request),
        "latency_p50_ms": 1000 * statistics.median(per_request),
        "latency_tail_ms": 1000 * percentile(samples, tail_p),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = sorted(
        statistics.median(p.raw_latency[i] for p in passes) for i in range(len(reqs))
    )
    raw_samples = sorted(dt for p in passes for dt in p.raw_latency)
    ok, problems, dig = judge(workload, seed, passes, pin)
    errors = sum((p.errors for p in passes), Counter())
    info = {
        "requests": len(reqs),
        "passes": len(passes),
        "raw": f"requests_per_s {len(reqs) / sum(raw):.4g}, latency_p50_ms "
               f"{1000 * statistics.median(raw):.4g}, latency_tail_ms "
               f"{1000 * percentile(raw_samples, tail_p):.4g}; machine speed "
               + ", ".join(f"{p.speed:.3f}" for p in passes) + " of nominal by pass",
        "tail_percentile": tail_p,
        "samples": len(samples),
        "beyond_tail": len(samples) - _rank(tail_p, len(samples)),
        "digest": dig,
        "failed_ids": [i for i, h in enumerate(passes[0].hashes) if h is None],
        "cap_exceeded": passes[0].cap_exceeded,
        "errors": dict(errors),
        "problems": problems,
        "messages": passes[0].messages,
        "setup_runs_s": setup_times,
    }
    return ok, attempted, failed, metrics, info


def layer_metrics(rec: tracer.Recorder, n_requests: int, speed: float) -> dict:
    """Per-layer figures of one traced pass; times scaled like the latencies."""
    m = {}
    m["ideals.selfcheck_s"] = rec.self_time.get(tracer.SELFCHECK, 0.0)
    for name, spans in INCLUSIVE_S.items():
        m[name] = sum(rec.inclusive.get(s, 0.0) for s in spans)
    for name, span in CALLS.items():
        m[name] = rec.calls.get(span, 0)
    for name in COUNTS:
        m[name] = rec.counts.get(name, 0)
    m["domination.peak_family"] = rec.peak_family
    m["domination.cap_exceeded"] = rec.cap_exceeded
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for s, t in rec.self_time.items() if tracer.layer_of(s) == layer
        )
    for name in PER_REQUEST:
        m[f"{name}_per_request"] = m[name] / n_requests
    return {k: v * speed if k.endswith("_s") else v for k, v in m.items()}


def write_spans(workload, seed: int, rec: tracer.Recorder, reqs) -> Path:
    """Spans as JSON lines, plus the exact work counts of every request."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in rec.spans:
            fh.write(json.dumps(span) + "\n")
    rows = {}
    for r in reqs:
        counter = rec.request_counts.get(r.rid, Counter())
        rows[str(r.rid)] = {"kind": r.kind}
        rows[str(r.rid)].update({name: counter[span] for name, span in CALLS.items()})
        rows[str(r.rid)].update({name: counter[name] for name in COUNTS})
    counts = OUT_DIR / f"counts-{workload.name}-seed{seed}.json"
    counts.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return path


def traced(workload, seed: int, seconds: float, pin: dict | None):
    td, reqs, _ = setup(workload, seed)
    untraced, traced_passes, recorders = [], [], []
    t_begin = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, td, reqs))
        rec = tracer.Recorder(keep_spans=2_000_000 if not recorders else 0)
        with tracer.instrument(rec):
            traced_passes.append(run_pass(workload, td, reqs, rec))
        if rec.open_spans:
            raise RuntimeError("spans left open after a pass")
        recorders.append(rec)
        pair = untraced[-1].wall + traced_passes[-1].wall
        if time.perf_counter() - t_begin + pair > seconds:
            break
    per_pass = [layer_metrics(r, len(reqs), p.speed) for r, p in zip(recorders, traced_passes)]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
    repeatable = all(
        {k: v for k, v in m.items() if not k.endswith("_s")}
        == {k: v for k, v in per_pass[0].items() if not k.endswith("_s")}
        for m in per_pass
    )
    passes = untraced + traced_passes
    errors = traced_passes[0].errors
    metrics["graphs.errors.RecursionError"] = errors.get("graphs.errors.RecursionError", 0)
    metrics["errors.other"] = sum(errors.values()) - metrics["graphs.errors.RecursionError"]
    # each traced pass against the untraced pass just before it
    pairs = [(sum(u.latency), sum(t.latency)) for u, t in zip(untraced, traced_passes)]
    metrics["trace.untraced_s"] = statistics.median(u for u, _ in pairs)
    metrics["trace.traced_s"] = statistics.median(t for _, t in pairs)
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    metrics["trace.spans"] = recorders[0].started
    ok, problems, dig = judge(workload, seed, passes, pin)
    if not repeatable:
        ok = False
        problems.append("per-layer counts differ between traced passes")
    spans_path = write_spans(workload, seed, recorders[0], reqs)
    attempted = len(reqs) * len(passes)
    failed = sum(sum(p.errors.values()) for p in passes)
    info = {
        "requests": len(reqs),
        "passes": len(passes),
        "digest": dig,
        "errors": dict(errors),
        "problems": problems,
        "messages": passes[0].messages,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_time": dict(recorders[0].self_time),
    }
    return ok, attempted, failed, metrics, info


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "count/request" if name.endswith("_per_request") else "count"


def print_report(workload, seed, trace, ok, attempted, failed, metrics, info) -> None:
    mode = "traced" if trace else "untraced"
    print(f"workload {workload.name} seed {seed} ({mode}): {info['requests']} requests x "
          f"{info['passes']} passes, digest {info['digest']}")
    if not trace:
        print(f"  failed_ratio {failed / attempted:.4f} ({failed} of {attempted}); "
              f"cap exceeded on {info['cap_exceeded']} requests; tail is "
              f"p{info['tail_percentile']:g} over {info['samples']} request-by-pass samples "
              f"({info['beyond_tail']} beyond it)")
        print(f"  failed_ids {json.dumps(info['failed_ids'])}")
        print(f"  unscaled: {info['raw']}")
    for key, n in sorted(info["errors"].items()):
        print(f"  {key}: {n}")
    for msg in info["messages"]:
        print(f"  e.g. {msg}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit_of(name)}")
    if trace:
        top = sorted(info["self_time"].items(), key=lambda kv: -kv[1])[:12]
        total = sum(info["self_time"].values()) or 1.0
        print("  self time by span (first traced pass):")
        for name, t in top:
            print(f"    {name:50s} {t:9.4f} s {100 * t / total:5.1f}%")
        print(f"  spans written to {info['spans_file']}")
    for problem in info["problems"]:
        print(f"  INCORRECT: {problem}")


def run_one(name: str, seed: int, seconds: float, trace: bool, unpinned: bool) -> int:
    workload = WORKLOADS[name]
    pin = None if unpinned else pinned(name)
    if sys.getrecursionlimit() != 1000:
        print(f"note: recursion limit is {sys.getrecursionlimit()}, not the default 1000",
              file=sys.stderr)
    fn = traced if trace else measure
    ok, attempted, failed, metrics, info = fn(workload, seed, seconds, pin)
    print_report(workload, seed, trace, ok, attempted, failed, metrics, info)
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: bool, unpinned: bool) -> int:
    """Each workload in its own fresh process, one after another.

    The last line has the shape of a single run's, with the metrics named
    ``<workload>/<metric>``.
    """
    import subprocess

    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if unpinned:
            cmd.append("--unpinned")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = code or proc.returncode
    names = list(next(r for r in results.values() if r)["metrics"]) if any(results.values()) else []
    print()
    print(f"{'metric':44s}" + "".join(f"{n:>16s}" for n in results))
    for m in names:
        row = [results[n]["metrics"][m]["value"] if results[n] else float("nan") for n in results]
        print(f"{m + ' [' + unit_of(m) + ']':44s}" + "".join(f"{v:16.6g}" for v in row))
    done = {n: r for n, r in results.items() if r}
    print(json.dumps({
        "correct": code == 0,
        "attempted": sum(r["attempted"] for r in done.values()),
        "failed": sum(r["failed"] for r in done.values()),
        "metrics": {f"{n}/{m}": v for n, r in done.items() for m, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--unpinned", action="store_true",
                    help="skip the comparison with the pinned digests (for making new pins)")
    args = ap.parse_args(argv)
    if not (SRC / "totaldom" / "__init__.py").is_file():
        print(f"error: no totaldom package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.unpinned)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.unpinned)


if __name__ == "__main__":
    sys.exit(main())
