"""The three seeded workloads: corpus built at set-up, one request, its check.

A workload's corpus is a fixed schedule of input kinds and sizes; the seed
picks the random structure inside each slot (Prufer sequences, whisker
choices, label permutations, verify seeds), so every seed yields a corpus of
the same shape and a run's figures compare across seeds. Requests call the
program only through module attributes looked up at call time, so the traced
run's rebinding sees every call. ``execute`` is the timed part; ``check`` runs
untimed (and untraced) and returns the text hashed into the workload digest.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from hashlib import sha256

# `analyze --max-sets`: bounds every request without dropping inputs; a
# family past the cap is the documented "enumeration cap exceeded" outcome.
ANALYZE_CAP = 32
# Cap on the witness enumeration in the verify workload's mixedness request.
WITNESS_CAP = 400


class CheckFailed(Exception):
    """A request's output is wrong."""


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str
    arg: object


@dataclass(frozen=True)
class Outcome:
    text: str
    cap_exceeded: bool = False


def short_hash(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


def _interleave(groups: list[list[tuple[str, object]]]) -> list[Request]:
    """Round-robin over the kind groups so each kind spreads over the pass."""
    out: list[Request] = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                kind, arg = g[i]
                out.append(Request(len(out), kind, arg))
    return out


# ---------------------------------------------------------------------------
# analyze: the full CLI pipeline on small trees
# ---------------------------------------------------------------------------

@contextmanager
def _stdin(text: str):
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


class Analyze:
    name = "analyze"
    per_kind = 200
    whisker_steps = tuple(range(5))
    prufer_sizes = tuple(range(8, 18, 2))

    def build(self, td, seed: int) -> list[Request]:
        """Edge-list texts, fed to `analyze -` on stdin (no disk in the loop)."""
        rng = random.Random(f"analyze/{seed}")
        whisker = []
        for i in range(self.per_kind):
            steps = self.whisker_steps[i % len(self.whisker_steps)]
            whisker.append(("whisker", td.construct.generate(rng.randrange(1 << 31), steps)[0]))
        prufer = []
        for i in range(self.per_kind):
            lcg = td.treegen.Lcg64(rng.randrange(1 << 63))
            n = self.prufer_sizes[i % len(self.prufer_sizes)]
            prufer.append(("prufer", td.treegen.random_tree(lcg, n)))
        per_family = -(-self.per_kind // 3)
        mixed = [
            ("mixed", t)
            for _, t in td.verify.mixedness_samples(rng.randrange(1 << 31), per_family)
        ]
        return [
            Request(r.rid, r.kind, td.graphs.render_edge_list(r.arg.graph))
            for r in _interleave([whisker, prufer, mixed])
        ]

    def execute(self, td, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with _stdin(req.arg), redirect_stdout(out), redirect_stderr(err):
            rc = td.cli.main(["analyze", "-", "--json", "--max-sets", str(ANALYZE_CAP)])
        return rc, out.getvalue(), err.getvalue()

    def check(self, td, req: Request, raw) -> Outcome:
        rc, text, err = raw
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {err.strip()}")
        rep = json.loads(text)
        if rep.get("schema") != "wtd-report/1":
            raise CheckFailed("missing wtd-report/1 schema")
        capped = rep["minimal_td_sets"]["cap_exceeded"]
        verdict = rep["unmixed"].get("unmixed")
        if req.kind == "whisker" and verdict is not True:
            raise CheckFailed("whisker-generated tree not reported unmixed")
        if req.kind == "mixed" and verdict is not False:
            raise CheckFailed("mixedness sample not reported mixed")
        if not capped:
            if not rep["unmixed"].get("bruteforce_agrees"):
                raise CheckFailed("enumerated family without bruteforce_agrees")
            if verdict is False:
                small, large = rep["unmixed"]["witness"]
                if len(small) == len(large):
                    raise CheckFailed("mixed verdict without a two-size witness")
        if verdict is True and rep["shelling"].get("applicable") and not rep["shelling"]["verified"]:
            raise CheckFailed("shelling order not verified")
        ty = rep["type"]
        if ty.get("applicable") and not (
            ty["type"] == ty["m_blue"] * ty["m_red"] == ty["socle_blue"] * ty["socle_red"]
        ):
            raise CheckFailed("type disagrees with its socle product")
        return Outcome(text, cap_exceeded=capped)


# ---------------------------------------------------------------------------
# verify: the oracle cross-checks, one check per request
# ---------------------------------------------------------------------------

_TIMING = re.compile(r", \d+(\.\d+)?s\)$")


def _mixedness(td, seed: int):
    """check_mixedness_theorems on four samples per family, witness capped."""
    failures, capped = [], 0
    samples = td.verify.mixedness_samples(seed, 4)
    for family, t in samples:
        if td.unmixed.is_unmixed_fast(t).unmixed:
            failures.append(f"{family} sample reported unmixed")
            continue
        try:
            witness = td.unmixed.mixedness_witness(t, cap=WITNESS_CAP)
        except td.errors.EnumerationCapExceeded:
            capped += 1
            continue
        if witness is None or len(witness[0]) == len(witness[1]):
            failures.append(f"{family} sample lacks a two-size witness")
    detail = "; ".join(failures) or "all mixed with witnesses"
    status = "FAIL" if failures else "PASS"
    return (not failures, f"[{status}] mixedness-theorems: {detail} "
            f"({len(samples)} cases, {capped} capped)", capped > 0)


# (name, call) in run_suite order; sizes are small so one request is one
# check on a corpus of a few trees, not a whole suite.
VERIFY_CHECKS = (
    ("characterization", lambda td, s: td.verify.check_characterization(max_n=7, seed=s, samples=12)),
    ("decomposition", lambda td, s: td.verify.check_decomposition(max_n=6)),
    ("stanley_reisner", lambda td, s: td.verify.check_stanley_reisner(max_n=6)),
    ("vector_shelling", lambda td, s: td.verify.check_vector_shelling(seed=s, count=4)),
    ("join_shelling", lambda td, s: td.verify.check_join_shelling(seed=s, count=3)),
    ("join_theorem", lambda td, s: td.verify.check_join_theorem(seed=s, count=3)),
    ("type_agreement", lambda td, s: td.verify.check_type_agreement(seed=s, count=3)),
    ("roundtrip", lambda td, s: td.verify.check_roundtrip(seed=s, count=4)),
    ("mixedness", None),
    ("generated_unmixed", lambda td, s: td.verify.check_generated_unmixed(seed=s, count=4)),
)


class Verify:
    name = "verify"
    sweeps = 90
    max_n = 7

    def build(self, td, seed: int) -> list[Request]:
        rng = random.Random(f"verify/{seed}")
        # fill the exhaustive-corpus cache now: a fresh `verify` process pays
        # it once, so timed requests should not
        list(td.treegen.trees_up_to(self.max_n))
        reqs = []
        for _ in range(self.sweeps):
            for name, _call in VERIFY_CHECKS:
                reqs.append(Request(len(reqs), name, rng.randrange(1 << 31)))
        return reqs

    def execute(self, td, req: Request):
        if req.kind == "mixedness":
            return _mixedness(td, req.arg)
        call = dict(VERIFY_CHECKS)[req.kind]
        r = call(td, req.arg)
        return r.passed, r.line(), False

    def check(self, td, req: Request, raw) -> Outcome:
        passed, line, capped = raw
        if not passed or not line.startswith("[PASS]"):
            raise CheckFailed(line)
        return Outcome(_TIMING.sub(")", line), cap_exceeded=capped)


# ---------------------------------------------------------------------------
# large-trees: the polynomial paths at 10^3 vertices and beyond
# ---------------------------------------------------------------------------

def _permuted(rng: random.Random, n: int, prefix: str) -> list[str]:
    labels = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


class LargeTrees:
    name = "large-trees"
    prufer_sizes = tuple(range(1000, 1500, 50))
    spine_sizes = tuple(range(1500, 2000, 50))
    whisker_steps = tuple(range(100, 150, 5))

    def build(self, td, seed: int) -> list[Request]:
        rng = random.Random(f"large-trees/{seed}")
        Tree = td.graphs.Tree
        prufer = [
            ("prufer", td.treegen.random_tree(td.treegen.Lcg64(rng.randrange(1 << 63)), n))
            for n in self.prufer_sizes
        ]
        paths = []
        for n in self.spine_sizes:
            lab = _permuted(rng, n, "p")
            paths.append(("path", Tree.from_edges(zip(lab, lab[1:]))))
        caterpillars = []
        for n in self.spine_sizes:
            spine = _permuted(rng, n, "c")
            legs = [v for v in spine[1:-1] if rng.randrange(8) == 0]
            edges = list(zip(spine, spine[1:])) + [(v, f"{v}x") for v in legs]
            caterpillars.append(("caterpillar", Tree.from_edges(edges)))
        whisker = [("whisker", (rng.randrange(1 << 31), k)) for k in self.whisker_steps]
        return _interleave([prufer, paths, caterpillars, whisker])

    def execute(self, td, req: Request):
        graphs = td.graphs
        if req.kind == "whisker":
            seed, steps = req.arg
            t, trace = td.construct.generate(seed, steps)
            back = td.construct.deconstruct(t)
            rebuilt = td.construct.replay(back)
            return t, trace, back, graphs.canonical_form(t), graphs.canonical_form(rebuilt)
        text = graphs.render_edge_list(req.arg.graph)
        g = graphs.parse_graph(text)
        tree = graphs.Tree(g)
        cert = td.unmixed.is_unmixed_fast(tree)
        return g, cert, graphs.canonical_form(tree)

    def check(self, td, req: Request, raw) -> Outcome:
        if req.kind == "whisker":
            t, trace, back, canon, canon_back = raw
            if canon != canon_back:
                raise CheckFailed("replay(deconstruct(T)) is not isomorphic to T")
            if len(trace) != req.arg[1]:
                raise CheckFailed("generate recorded the wrong number of steps")
            if not td.unmixed.characterize_balanced_unmixed(t).unmixed:
                raise CheckFailed("generated tree does not certify as unmixed")
            return Outcome(f"whisker n={t.graph.n} trace={short_hash(back.to_json())} "
                           f"canon={short_hash(canon)}")
        g, cert, canon = raw
        if g != req.arg.graph:
            raise CheckFailed("parse_graph(render_edge_list(T)) differs from T")
        return Outcome(f"{req.kind} n={g.n} unmixed={cert.unmixed} canon={short_hash(canon)}")


WORKLOADS = {w.name: w for w in (Analyze(), Verify(), LargeTrees())}
