"""Steadiness check: repeated runs of one or more workloads over several seeds.

    python3 perfbench/prove.py --workloads large-trees --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --record     # writes baseline.json
    python3 perfbench/prove.py --seeds 1-3 --trace --record

Each run is a fresh ``run.py`` process, one at a time. For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json. ``--record`` stores the
figures as the baseline and pins the digests of run.PINNED_SEED; with
``--trace`` the runs are traced and the per-layer figures are recorded.
Recording runs skip the old pins and write baseline.json once, after every
run has succeeded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BASELINE, PINNED_SEED  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int,
        unpinned: bool) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if unpinned:
        cmd.append("--unpinned")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), proc.stdout


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    figures = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            result, _ = run(workload, seed, args.seconds, int(args.trace), args.record)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        figures[workload] = {name: summary(v) for name, v in values.items()}
        for name, s in figures[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:16s} median {s['median']:12.6g} q1 {s['q1']:12.6g} "
                  f"q3 {s['q3']:12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
    if not args.record:
        return 0
    baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    if args.trace:
        baseline.setdefault("baseline_traced", {}).update(figures)
    else:
        pins = {}
        for workload in args.workloads.split(","):
            _, out = run(workload, PINNED_SEED, args.seconds, 0, True)
            head = out.splitlines()[0]
            pins[workload] = {
                "digest": head.rsplit("digest ", 1)[1].strip(),
                "failed": _failed_ids(out),
            }
        baseline["digests_seed"] = PINNED_SEED
        baseline.setdefault("digests", {}).update(pins)
        baseline.setdefault("baseline", {}).update(figures)
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {BASELINE.relative_to(ROOT)}")
    return 0


def _failed_ids(out: str) -> list[int]:
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("failed_ids "):
            return json.loads(line[len("failed_ids "):])
    return []


if __name__ == "__main__":
    sys.exit(main())
