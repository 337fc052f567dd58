"""Command-line interface.

Subcommands
-----------
analyze      full pipeline on an edge-list file: heights, coloring,
             interiors, minimal TD-sets, ideal with decomposition,
             unmixedness certificate, shelling and type when applicable
ideal        open-neighborhood ideal (optionally S-restricted) + decomposition
shelling     shelling order of the stable complex of an unmixed tree
type         Cohen-Macaulay type report of an unmixed tree
deconstruct  whisker trace of an unmixed balanced height-3 tree
generate     seeded corpus of whisker-generated trees with replay traces
verify       oracle cross-check suite; nonzero exit on any disagreement

Edge-list files hold one edge per line ("labelA labelB"), '#' comments and
blank lines ignored; "-" reads from stdin. All reports are integer-exact;
--json emits the versioned wtd-report/1 schema with every set sorted.

Exit codes: 0 success; 1 a failed verify check; 2 bad input (usage, an
unreadable or non-UTF-8 file, an unknown vertex, a malformed edge list, an
unwritable output directory) or a theorem error, reported as "error: ..."
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .algebra import cm_type, parametric_decomposition
from .complexes import stable_shelling
from .construct import deconstruct, generate
from .domination import minimal_td_sets
from .errors import EnumerationCapExceeded, InputError, TheoremViolation, TotaldomError
from .graphs import (
    Forest,
    Graph,
    Tree,
    canonical_form,
    parse_graph,
    render_edge_list,
    vset,
)
from .ideals import (
    PrimeDecomposition,
    decompose_squarefree,
    open_neighborhood_ideal,
    validate_decomposition,
)
from .jsontext import dumps
from .unmixed import Analysis, interior_graphs, is_balanced, is_unmixed_fast
from .verify import run_suite

SCHEMA = "wtd-report/1"


def _read_graph(path: str) -> Graph:
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")  # non-UTF-8 bytes arrive surrogate-escaped
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror or exc}") from exc
    except UnicodeError as exc:
        raise InputError(f"{name} is not UTF-8 text") from exc
    return parse_graph(text)


def _digest(g: Graph) -> str:
    return hashlib.sha256(render_edge_list(g).encode()).hexdigest()[:16]


def _emit(report: dict, as_json: bool, human) -> None:
    if as_json:
        print(dumps(report))
    else:
        human(report)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_report(g: Graph, cap: int | None, with_witness: bool, timings: bool) -> dict:
    t0 = time.monotonic()
    report: dict = {
        "schema": SCHEMA,
        "input": {"digest": _digest(g), "vertices": g.n, "edges": g.num_edges()},
        "graph": {"vertices": list(g.labels), "edges": [list(e) for e in g.edges()]},
    }
    try:
        forest = Forest(g)
    except TotaldomError:
        forest = None
    is_tree = forest is not None and forest.ncomponents == 1
    report["forest"] = forest is not None
    report["tree"] = is_tree
    clocks = {}

    # one analysis per request: each fact below is computed once and shared
    facts = Analysis(forest) if forest is not None else None
    if facts is not None:
        height = facts.height
        cls = facts.classification
        col = facts.coloring
        report["heights"] = dict(zip(g.labels, height))
        report["height"] = max(height, default=0)
        report["balanced"] = is_balanced(facts)
        report["coloring"] = {"blue": list(col.blue), "red": list(col.red)}
        report["classification"] = {
            "leaves": list(cls.leaves),
            "supports": list(cls.supports),
            "supported": list(cls.supported),
            "isolated": list(cls.isolated),
        }

    t1 = time.monotonic()
    try:
        family = facts.td_family(cap) if facts is not None else minimal_td_sets(g, cap=cap)
    except EnumerationCapExceeded:
        family = None
    if family is None:
        report["minimal_td_sets"] = {"cap_exceeded": True}
        report["unmixed"] = {"applicable": False, "reason": "enumeration cap exceeded"}
    else:
        report["minimal_td_sets"] = {
            "cap_exceeded": False,
            "count": len(family),
            "sizes": list(family.sizes()),
            "sets": [list(s) for s in family.sets],
        }
    clocks["td_sets"] = time.monotonic() - t1

    t1 = time.monotonic()
    ideal = open_neighborhood_ideal(g)
    entry = {"generators": ideal.generator_strings()}
    if family is None:
        entry["decomposition"] = {"unit": False, "cap_exceeded": True}
    else:
        # the prime supports of N(G) are exactly the minimal TD-sets, and
        # validate_decomposition checks them against N(G) by duality; an
        # isolated vertex makes N(G) the unit ideal and the family empty
        validate_decomposition(PrimeDecomposition.from_family(family), ideal)
        entry["decomposition"] = {
            "unit": ideal.is_unit,
            "components": [list(s) for s in family.sets],
        }
    report["ideal"] = entry
    clocks["ideal"] = time.monotonic() - t1

    if is_tree:
        interiors = interior_graphs(facts)
        report["interiors"] = {
            "blue": {
                "vertices": list(interiors.blue.labels),
                "components": [list(c) for c in interiors.blue.components()],
                "deleted": list(interiors.deleted_for_blue),
            },
            "red": {
                "vertices": list(interiors.red.labels),
                "components": [list(c) for c in interiors.red.components()],
                "deleted": list(interiors.deleted_for_red),
            },
        }
        cert = is_unmixed_fast(facts)
        cert_dict = cert.to_json_dict()
        if family is not None:
            if family.is_unmixed() != cert.unmixed:
                raise TheoremViolation(
                    "characterization disagrees with enumeration; this is a bug"
                )
            # the family agrees, so a mixed tree's family has two sizes
            if not cert.unmixed and with_witness:
                cert_dict["witness"] = [list(w) for w in family.witness()]
            cert_dict["bruteforce_agrees"] = True
        report["unmixed"] = cert_dict

        if cert.unmixed:
            t1 = time.monotonic()
            try:
                order = stable_shelling(facts, cap=cap)
                report["shelling"] = {
                    "applicable": True,
                    "facets": [list(f) for f in order.facets],
                    "verified": order.check.ok,
                }
            except EnumerationCapExceeded:
                report["shelling"] = {"applicable": False, "reason": "enumeration cap exceeded"}
            except InputError as exc:
                report["shelling"] = {"applicable": False, "reason": str(exc)}
            clocks["shelling"] = time.monotonic() - t1
            t1 = time.monotonic()
            try:
                report["type"] = {"applicable": True} | cm_type(facts, cap=cap).to_json_dict()
            except EnumerationCapExceeded:
                report["type"] = {"applicable": False, "reason": "enumeration cap exceeded"}
            except InputError as exc:
                report["type"] = {"applicable": False, "reason": str(exc)}
            clocks["type"] = time.monotonic() - t1
        else:
            report["shelling"] = {"applicable": False, "reason": "tree is mixed"}
            report["type"] = {"applicable": False, "reason": "tree is mixed"}
    else:
        # a capped family has set "unmixed" already
        if family is not None:
            report["unmixed"] = {"bruteforce": family.is_unmixed()}
        report["shelling"] = {"applicable": False, "reason": "input is not a tree"}
        report["type"] = {"applicable": False, "reason": "input is not a tree"}

    clocks["total"] = time.monotonic() - t0
    if timings:
        report["timings_ms"] = {k: int(v * 1000) for k, v in clocks.items()}
    return report


def _print_analyze(report: dict) -> None:
    print(f"input digest {report['input']['digest']}: "
          f"{report['input']['vertices']} vertices, {report['input']['edges']} edges")
    if report.get("heights"):
        print(f"height {report['height']}, balanced: {report['balanced']}")
        print(f"supports: {' '.join(report['classification']['supports']) or '-'}")
    tds = report["minimal_td_sets"]
    if tds.get("cap_exceeded"):
        print("minimal TD-sets: enumeration cap exceeded")
    else:
        print(f"minimal TD-sets ({tds['count']}, sizes {tds['sizes']}):")
        for s in tds["sets"]:
            print("  {" + ", ".join(s) + "}")
    print(f"N(G) = <{', '.join(report['ideal']['generators'])}>")
    dec = report["ideal"]["decomposition"]
    if dec["unit"]:
        print("decomposition: unit ideal (isolated vertex)")
    elif dec.get("cap_exceeded"):
        print("decomposition: enumeration cap exceeded")
    else:
        print("decomposition: " + " n ".join("<" + ", ".join(c) + ">" for c in dec["components"]))
    unmixed = report.get("unmixed", {})
    if "unmixed" in unmixed:
        verdict = "unmixed" if unmixed["unmixed"] else "mixed"
        print(f"verdict: {verdict}")
        if unmixed.get("witness"):
            a, b = unmixed["witness"]
            print("  witness sizes: "
                  f"{{{', '.join(a)}}} ({len(a)}) vs {{{', '.join(b)}}} ({len(b)})")
    if report["shelling"].get("applicable"):
        print(f"shelling: {len(report['shelling']['facets'])} facets, "
              f"verified: {report['shelling']['verified']}")
    if report["type"].get("applicable"):
        ty = report["type"]
        print(f"type: {ty['type']} = {ty['m_blue']} * {ty['m_red']} "
              f"(depth {ty['depth']}, dim {ty['dim']})")


def cmd_analyze(args) -> int:
    g = _read_graph(args.path)
    report = _analyze_report(g, args.max_sets, not args.no_witness, args.timings)
    _emit(report, args.json, _print_analyze)
    return 0


# ---------------------------------------------------------------------------
# ideal / shelling / type / deconstruct
# ---------------------------------------------------------------------------

def cmd_ideal(args) -> int:
    g = _read_graph(args.path)
    target = args.subset
    if target is not None:
        unknown = sorted(set(target) - set(g.labels))
        if unknown:
            raise InputError(f"--subset names unknown vertices: {', '.join(map(repr, unknown))}")
    ideal = open_neighborhood_ideal(g, target)
    report: dict = {
        "schema": SCHEMA,
        "input": {"digest": _digest(g)},
        "target": list(vset(target) if target else g.labels),
        "generators": ideal.generator_strings(),
    }
    dec = decompose_squarefree(ideal, cap=args.max_sets)
    report["decomposition"] = {
        "unit": ideal.is_unit,
        "components": [list(s) for s in dec.supports],
    }

    def human(rep):
        print(f"N_S(G) = <{', '.join(rep['generators'])}>")
        if rep["decomposition"]["unit"]:
            print("decomposition: unit ideal")
        else:
            print(" n ".join("<" + ", ".join(c) + ">" for c in rep["decomposition"]["components"]))

    _emit(report, args.json, human)
    return 0


def cmd_shelling(args) -> int:
    g = _read_graph(args.path)
    order = stable_shelling(Tree(g), cap=args.max_sets)
    if not args.json:
        # the per-pair witnesses are printed in JSON only, so none is built
        print(f"shelling of the stable complex ({len(order.facets)} facets), "
              f"verified: {order.check.ok}")
        for f in order.facets:
            print("  {" + ", ".join(f) + "}")
        return 0
    # one witness per facet pair: the list grows quadratically in the facets
    pairs = order.check.witness_count
    if args.max_sets is not None and pairs > args.max_sets:
        raise EnumerationCapExceeded(
            f"shelling witness list of {pairs} facet pairs exceeds cap={args.max_sets}"
        )
    print(dumps({"schema": SCHEMA, "input": {"digest": _digest(g)}} | order.to_json_dict()))
    return 0


def cmd_type(args) -> int:
    g = _read_graph(args.path)
    facts = Analysis(Tree(g))
    type_report = cm_type(facts, cap=args.max_sets)
    report = {"schema": SCHEMA, "input": {"digest": _digest(g)}} | type_report.to_json_dict()
    if args.reduction:
        sides = {}
        for name, side, reductions in (
            ("blue", facts.sides[0], type_report.blue_reductions),
            ("red", facts.sides[1], type_report.red_reductions),
        ):
            comps = []
            for comp, red in zip(side.components, reductions):
                pdec = parametric_decomposition(red, comp)
                comps.append({
                    "vertices": list(comp.forest.labels),
                    "ideal": red.ideal.render(),
                    "pure_powers": red.pure_powers.render(),
                    "parametric_components": [list(s) for s in pdec.supports],
                })
            sides[name] = comps
        report["reductions"] = sides

    def human(rep):
        print(f"type {rep['type']} = m_blue {rep['m_blue']} * m_red {rep['m_red']}")
        print(f"depth {rep['depth']}, dim {rep['dim']}")
        print(f"socle dimensions: blue {rep['socle_blue']}, red {rep['socle_red']}")

    _emit(report, args.json, human)
    return 0


def cmd_deconstruct(args) -> int:
    g = _read_graph(args.path)
    trace = deconstruct(Tree(g))
    if args.json:
        print(trace.to_json(), end="")
    else:
        print(f"{len(trace)} whisker steps from the base path:")
        for s in trace.steps:
            print(f"  attach {s.attach} ({s.kind})")
    return 0


# ---------------------------------------------------------------------------
# generate / verify
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    import pathlib

    outdir = pathlib.Path(args.out)
    manifest = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            t, trace = generate(args.seed + i, args.steps)
            tree_path = outdir / f"tree_{i:03d}.edges"
            trace_path = outdir / f"trace_{i:03d}.json"
            tree_path.write_text(render_edge_list(t.graph), encoding="utf-8")
            trace_path.write_text(trace.to_json(), encoding="utf-8")
            manifest.append({
                "seed": args.seed + i,
                "steps": len(trace),
                "vertices": t.graph.n,
                "tree": tree_path.name,
                "trace": trace_path.name,
                "canonical": canonical_form(t),
            })
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename or outdir}: {exc.strerror or exc}") from exc
    payload = {"schema": SCHEMA, "trees": manifest}
    if args.json:
        print(dumps(payload))
    else:
        for row in manifest:
            print(f"{row['tree']}: {row['vertices']} vertices, {row['steps']} steps")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(max_n=args.max_n, seed=args.seed, samples=args.samples)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    vacuous = sum(r.vacuous for r in results)
    summary = f"{len(results) - failed - vacuous}/{len(results)} checks passed"
    if vacuous:
        summary += f", {vacuous} vacuous (0 cases)"
    print(summary)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type for integers >= low; a smaller value exits with code 2."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _vertex_list(text: str) -> list[str]:
    """argparse type for a nonempty comma-separated list of vertex labels."""
    labels = text.split(",")
    if not all(labels):
        raise argparse.ArgumentTypeError(f"expected comma-separated vertex labels, got {text!r}")
    return labels


def _add_common(p, max_sets=True):
    p.add_argument("path", help="edge-list file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    if max_sets:
        p.add_argument("--max-sets", type=_int_at_least(1), default=None,
                       help="cap on enumerated set families (error when exceeded)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="totaldom", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an edge-list file")
    _add_common(p)
    p.add_argument("--no-witness", action="store_true",
                   help="omit the two-size witness of a mixed tree from the report")
    p.add_argument("--timings", action="store_true",
                   help="include timings_ms in the report (breaks bit-reproducibility)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ideal", help="open-neighborhood ideal and decomposition")
    _add_common(p)
    p.add_argument("--subset", type=_vertex_list, default=None,
                   help="comma-separated target S (default: all vertices)")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("shelling", help="shelling order of the stable complex")
    _add_common(p)
    p.set_defaults(func=cmd_shelling)

    p = sub.add_parser("type", help="Cohen-Macaulay type report")
    _add_common(p)
    p.add_argument("--reduction", action="store_true",
                   help="include per-component reduced ideals and parametric decompositions")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("deconstruct", help="whisker trace of an unmixed balanced height-3 tree")
    _add_common(p, max_sets=False)
    p.set_defaults(func=cmd_deconstruct)

    p = sub.add_parser("generate", help="write seeded generated trees + traces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_int_at_least(0), default=5)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p.add_argument("--out", default="generated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--max-n", type=_int_at_least(0), default=8,
                   help="exhaustive tree size bound (default 8)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--samples", type=_int_at_least(0), default=150,
                   help="random large-tree samples for the characterization check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TotaldomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
