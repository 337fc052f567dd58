"""Outside-in span recorder for the totaldom layers.

Nothing under ``src/`` is edited. ``instrument`` rebinds each listed public
function in every ``totaldom`` module whose namespace holds it (so that
``cli.decompose_squarefree`` is wrapped as well as
``ideals.decompose_squarefree``), wraps the method
``PrimeDecomposition.to_ideal``, and restores every original on exit.

Each wrapped call records a span ``(id, name, start, end, parent, request)``
in memory; ids count calls in the order they start, spans are stored in the
order they end, and ``parent`` is the id of the enclosing span or -1. Self time is a span's duration minus the time its child spans cover;
the run is single-threaded, so child spans never overlap and that cover is
the plain sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions wrapped in spans, by defining module. Every module of the
# package is searched for other names bound to the same function objects.
SPANNED = {
    "cli": ("main",),
    "graphs": (
        "parse_graph", "render_edge_list", "canonical_form", "heights",
        "two_coloring", "classify_vertices", "branch", "is_isomorphic",
    ),
    "treegen": ("random_tree", "all_trees"),
    "domination": (
        "minimal_transversal_masks", "minimal_transversals", "minimal_s_td_sets",
        "minimal_td_sets", "is_s_td_set", "is_minimal_set", "is_unmixed_bruteforce",
    ),
    "ideals": ("open_neighborhood_ideal", "decompose_squarefree"),
    "unmixed": (
        "is_balanced", "interior_graphs", "is_unmixed_fast",
        "characterize_balanced_unmixed", "mixedness_witness",
    ),
    "complexes": (
        "stable_complex", "even_stable_complex", "join", "stanley_reisner_ideal",
        "stanley_reisner_complex", "verify_shelling", "shelling_order",
        "stable_shelling",
    ),
    "algebra": (
        "artinian_reduction", "socle_dimension", "minimal_v3_td_sets",
        "parametric_decomposition", "cm_type",
    ),
    "construct": ("apply_o", "replay", "generate", "deconstruct", "leaf_normalize"),
    "verify": (
        "balanced_corpus", "unmixed_corpus", "mixedness_samples",
        "check_characterization", "check_decomposition", "check_stanley_reisner",
        "check_vector_shelling", "check_join_shelling", "check_join_theorem",
        "check_type_agreement", "check_roundtrip", "check_mixedness_theorems",
        "check_generated_unmixed",
    ),
}

SELFCHECK = "ideals.PrimeDecomposition.to_ideal"
ENGINE = "domination.minimal_transversal_masks"


# Exact work counts taken from arguments or results at the layer boundary.
# Each maps a span name to (counter, function(args, result) -> int).
COUNTED = {
    SELFCHECK: ("ideals.primes_reexpanded", lambda a, r: len(a[0].supports)),
    ENGINE: ("domination.sets_out", lambda a, r: len(r)),
    "complexes.verify_shelling": ("complexes.facets_checked", lambda a, r: len(a[1])),
    "construct.generate": ("construct.steps", lambda a, r: len(r[1])),
    "construct.deconstruct": ("construct.steps", lambda a, r: len(r)),
    "construct.replay": ("construct.steps", lambda a, r: len(a[0])),
}


class Recorder:
    """In-memory spans plus per-name call, inclusive-time and self-time sums."""

    def __init__(self, keep_spans: int = 2_000_000):
        self.active = False
        self.request = None
        self.spans: list[tuple] = []
        self.started = 0
        self.dropped = 0
        self.keep_spans = keep_spans
        self.calls: Counter = Counter()
        self.inclusive: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request_counts: dict = defaultdict(Counter)
        self.cap_exceeded = 0
        self.peak_family = 0
        # open spans: [id, name, start, child_seconds, parent_id]
        self._stack: list[list] = []
        self._open_names: Counter = Counter()

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self.started, name, time.perf_counter(), 0.0, parent]
        self.started += 1
        self._stack.append(frame)
        self._open_names[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        idx, name, start, child, parent = frame
        dur = end - start
        self._open_names[name] -= 1
        self.calls[name] += 1
        self.request_counts[self.request][name] += 1
        if self._open_names[name] == 0:
            # only the outermost of nested same-name spans adds inclusive time
            self.inclusive[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < self.keep_spans:
            self.spans.append((idx, name, start, end, parent, self.request))
        else:
            self.dropped += 1

    def count(self, name: str, k: int) -> None:
        self.counts[name] += k
        self.request_counts[self.request][name] += k

    @property
    def open_spans(self) -> int:
        return len(self._stack)


def _spanned(rec: Recorder, name: str, fn):
    counted = COUNTED.get(name)
    from_engine = name == ENGINE

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if from_engine and type(exc).__name__ == "EnumerationCapExceeded":
                rec.cap_exceeded += 1
            raise
        finally:
            rec.exit(frame)
        if counted is not None:
            rec.count(counted[0], counted[1](args, result))
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _family_probe(rec: Recorder, fn):
    """Counts the Berge working family after each round (no span)."""

    @functools.wraps(fn)
    def wrapper(masks):
        out = fn(masks)
        if rec.active:
            rec.count("domination.berge_rounds", 1)
            if len(out) > rec.peak_family:
                rec.peak_family = len(out)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "totaldom" or name.startswith("totaldom."))
    ]


@contextmanager
def instrument(rec: Recorder):
    """Rebind the listed functions in every importing module; restore on exit."""
    modules = _package_modules()
    by_name = {m.__name__: m for m in modules}
    replacements: dict[int, object] = {}
    for short, names in SPANNED.items():
        mod = by_name[f"totaldom.{short}"]
        for fname in names:
            fn = getattr(mod, fname)
            replacements[id(fn)] = _spanned(rec, f"{short}.{fname}", fn)
    dom = by_name["totaldom.domination"]
    replacements[id(dom._minimalize_masks)] = _family_probe(rec, dom._minimalize_masks)

    undo: list[tuple] = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None and getattr(new, "__perfbench_original__", None) is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, new)

    cls = by_name["totaldom.ideals"].PrimeDecomposition
    original_to_ideal = cls.__dict__["to_ideal"]
    cls.to_ideal = _spanned(rec, SELFCHECK, original_to_ideal)
    undo.append((cls, "to_ideal", original_to_ideal))
    try:
        yield undo
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
