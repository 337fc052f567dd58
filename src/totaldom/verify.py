"""Oracle cross-checks: every structural theorem against its brute-force twin.

Each check runs an enumeration-backed oracle against the corresponding
polynomial-time construction over an exhaustive small-tree corpus and seeded
generated corpora, and reports pass/fail with counts. The CLI ``verify``
subcommand and the acceptance test module both run through these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import unmixed as unmixed_mod
from .algebra import cm_type
from .complexes import (
    even_stable_complex,
    join,
    shelling_order,
    stable_complex,
    stable_shelling,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    verify_shelling,
)
from .construct import apply_o, deconstruct, edge_subdivision, generate, replay, suspension
from .domination import is_unmixed_bruteforce, minimal_td_sets
from .errors import EnumerationCapExceeded
from .graphs import (
    Tree,
    canonical_form,
    heights,
    path_graph,
    star_graph,
)
from .ideals import decompose_squarefree, open_neighborhood_ideal
from .treegen import Lcg64, random_tree, trees_up_to
from .unmixed import interior_graphs, mixedness_witness


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str
    seconds: float

    @property
    def vacuous(self) -> bool:
        """Passed without checking a single case."""
        return self.passed and self.checked == 0

    def line(self) -> str:
        status = "FAIL" if not self.passed else "VACUOUS" if self.vacuous else "PASS"
        return f"[{status}] {self.name}: {self.detail} ({self.checked} cases, {self.seconds:.1f}s)"


def _result(name: str, start: float, failures: list[str], checked: int, ok_detail: str) -> CheckResult:
    passed = not failures
    detail = ok_detail if passed else "; ".join(failures[:3])
    return CheckResult(name, passed, checked, detail, time.monotonic() - start)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def balanced_corpus(seed: int, count: int, max_steps: int = 15, facet_cap: int = 240):
    """Seeded unmixed balanced height-3 trees with bounded facet counts."""
    out = []
    attempt = 0
    while len(out) < count:
        steps = attempt % (max_steps + 1)
        t, trace = generate(seed + attempt, steps)
        attempt += 1
        hmap = heights(t)
        g = t.graph
        facets = 1
        for s in hmap.level(1):
            facets *= len(g.neighbors(s))
        if facets > facet_cap:
            continue
        out.append((t, trace))
    return out


def _double_star(a: int, b: int) -> Tree:
    edges = [("c1", "c2")]
    edges += [("c1", f"a{i}") for i in range(a)]
    edges += [("c2", f"b{i}") for i in range(b)]
    return Tree.from_edges(edges)


def unmixed_corpus(seed: int, count: int, facet_cap: int = 240):
    """Seeded mix of unmixed trees: whisker-generated, stars, double stars,
    subdivided suspensions, and leaf-added variants."""
    rng = Lcg64(seed)
    out: list[Tree] = [path_graph(1), path_graph(3), path_graph(6)]
    attempt = 0
    while len(out) < count:
        attempt += 1
        style = rng.randrange(5)
        if style == 0:
            t, _ = generate(seed * 1000 + attempt, rng.randrange(9))
        elif style == 1:
            t = star_graph(2 + rng.randrange(6))
        elif style == 2:
            t = _double_star(1 + rng.randrange(4), 1 + rng.randrange(4))
        elif style == 3:
            base = random_tree(rng, 2 + rng.randrange(5))
            t = Tree(edge_subdivision(suspension(base)))
        else:
            t, _ = generate(seed * 2000 + attempt, rng.randrange(7))
            hmap = heights(t)
            for _ in range(rng.randrange(3)):
                supports = hmap.level(1)
                t = apply_o(t, supports[rng.randrange(len(supports))])
        try:
            family = minimal_td_sets(t, cap=facet_cap)
        except EnumerationCapExceeded:
            continue
        if len(family) > facet_cap:
            continue
        out.append(t)
    return out[:count]


def random_trees(seed: int, count: int, nmin: int, nmax: int):
    rng = Lcg64(seed)
    for _ in range(count):
        yield random_tree(rng, nmin + rng.randrange(nmax - nmin + 1))


def _spider(k: int) -> Tree:
    edges = []
    for i in range(k):
        edges += [("c", f"m{i}"), (f"m{i}", f"l{i}")]
    return Tree.from_edges(edges)


def mixedness_samples(seed: int, per_family: int = 25):
    """Balanced trees falling under the three mixedness theorems.

    Yields (family, tree) pairs: two leaves at distance 4, height exactly 2,
    height at least 4.
    """
    rng = Lcg64(seed)
    dist4, height2, height4 = [], [], []
    while len(height2) < per_family:
        t = _spider(2 + rng.randrange(7))
        hmap = heights(t)
        for _ in range(rng.randrange(3)):
            supports = hmap.level(1)
            t = apply_o(t, supports[rng.randrange(len(supports))])
        height2.append(t)
    while len(height4) < per_family:
        if rng.randrange(2):
            t = Tree(path_graph(8 + 2 * rng.randrange(3)).graph)
        else:
            base = random_tree(rng, 5 + rng.randrange(6))
            t = Tree(edge_subdivision(Tree(edge_subdivision(base))))
        if heights(t).graph_height() >= 4:
            height4.append(t)
    while len(dist4) < per_family:
        base = random_tree(rng, 4 + rng.randrange(7))
        t = Tree(edge_subdivision(base))
        hmap = heights(t)
        leaves = hmap.level(0)
        g = t.graph
        found = False
        for a in leaves:
            dist = g.distances_from(a)
            if any(b != a and dist.get(b) == 4 for b in leaves):
                found = True
                break
        if found:
            dist4.append(t)
    return [("distance-4-leaves", t) for t in dist4] + [
        ("height-2", t) for t in height2
    ] + [("height>=4", t) for t in height4]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_characterization(
    max_n: int = 10,
    seed: int = 20240,
    samples: int = 1000,
    nmin: int = 11,
    nmax: int = 16,
    extra_trees=(),
) -> CheckResult:
    """Fast interior-graph test vs enumeration, exhaustive then sampled."""
    start = time.monotonic()
    failures = []
    checked = 0
    corpus = list(trees_up_to(max_n)) + list(extra_trees)
    for t in corpus:
        checked += 1
        if unmixed_mod.is_unmixed_fast(t).unmixed != is_unmixed_bruteforce(t):
            failures.append(f"disagreement on {canonical_form(t)}")
    for t in random_trees(seed, samples, nmin, nmax):
        checked += 1
        if unmixed_mod.is_unmixed_fast(t).unmixed != is_unmixed_bruteforce(t):
            failures.append(f"disagreement on {canonical_form(t)}")
    return _result("characterization-vs-bruteforce", start, failures, checked, "all agree")


def check_decomposition(max_n: int = 10) -> CheckResult:
    """Prime supports equal the minimal TD-sets and re-expand to the ideal."""
    start = time.monotonic()
    failures = []
    checked = 0
    for t in trees_up_to(max_n):
        checked += 1
        ideal = open_neighborhood_ideal(t.graph)
        dec = decompose_squarefree(ideal)
        family = minimal_td_sets(t)
        if dec.supports != family.sets:
            failures.append(f"supports mismatch on {canonical_form(t)}")
        if dec.to_ideal() != ideal:
            failures.append(f"re-expansion mismatch on {canonical_form(t)}")
    return _result("ideal-decomposition", start, failures, checked, "supports == minimal TD-sets")


def check_stanley_reisner(max_n: int = 9) -> CheckResult:
    """I_{S(G)} == N(G) plus both round trips on every small tree."""
    start = time.monotonic()
    failures = []
    checked = 0
    for t in trees_up_to(max_n):
        checked += 1
        ideal = open_neighborhood_ideal(t.graph)
        cx = stable_complex(t.graph)
        if stanley_reisner_ideal(cx) != ideal:
            failures.append(f"I_S(G) != N(G) on {canonical_form(t)}")
        if stanley_reisner_complex(ideal) != cx:
            failures.append(f"complex(N(G)) != S(G) on {canonical_form(t)}")
        back = stanley_reisner_complex(stanley_reisner_ideal(cx))
        if back != cx:
            failures.append(f"round trip failed on {canonical_form(t)}")
    return _result("stanley-reisner", start, failures, checked, "translation inverts")


def check_vector_shelling(seed: int = 31337, count: int = 200, max_steps: int = 15) -> CheckResult:
    """The facet-vector order shells every generated balanced tree."""
    start = time.monotonic()
    failures = []
    corpus = balanced_corpus(seed, count, max_steps=max_steps)
    for t, _ in corpus:
        order = shelling_order(t)
        check = verify_shelling(order.complex(), order.facets)
        if not (check.ok and check.reformulation_agrees):
            failures.append("vector order rejected")
    return _result("facet-vector-shelling", start, failures, len(corpus), "all orders shell")


def check_join_shelling(seed: int = 424242, count: int = 100) -> CheckResult:
    """Composed interior orders shell the stable complex of unmixed trees."""
    start = time.monotonic()
    failures = []
    corpus = unmixed_corpus(seed, count)
    for t in corpus:
        order = stable_shelling(t)
        check = verify_shelling(order.complex(), order.facets)
        if not (check.ok and check.reformulation_agrees):
            failures.append("join order rejected")
    return _result("join-shelling", start, failures, len(corpus), "all orders shell")


def check_join_theorem(seed: int = 424242, count: int = 100) -> CheckResult:
    """S(T) facets equal the join of the interior even-stable complexes."""
    start = time.monotonic()
    failures = []
    corpus = unmixed_corpus(seed, count)
    for t in corpus:
        interiors = interior_graphs(t)
        joined = join(
            even_stable_complex(interiors.blue), even_stable_complex(interiors.red)
        )
        direct = stable_complex(t.graph)
        if set(joined.facets) != set(direct.facets):
            failures.append(f"facet mismatch on {canonical_form(t)}")
    return _result("join-theorem", start, failures, len(corpus), "facet sets equal")


def check_type_agreement(seed: int = 99991, count: int = 100) -> CheckResult:
    """Counting route and socle oracle agree on the generated corpus."""
    start = time.monotonic()
    failures = []
    corpus = unmixed_corpus(seed, count)
    for t in corpus:
        report = cm_type(t)
        if report.cm_type != report.m_blue * report.m_red:
            failures.append("type != m_B * m_R")
        if report.cm_type != report.socle_blue * report.socle_red:
            failures.append("type != socle product")
    return _result("cm-type-agreement", start, failures, len(corpus), "type == socle product")


def check_roundtrip(seed: int = 777, count: int = 200, max_steps: int = 15) -> CheckResult:
    """replay(deconstruct(T)) is isomorphic to T on the generated corpus."""
    start = time.monotonic()
    failures = []
    corpus = balanced_corpus(seed, count, max_steps=max_steps, facet_cap=10**6)
    for t, trace in corpus:
        rebuilt = replay(deconstruct(t))
        if canonical_form(rebuilt) != canonical_form(t):
            failures.append(f"roundtrip broke a {len(trace)}-step tree")
    return _result("construction-roundtrip", start, failures, len(corpus), "all roundtrips isomorphic")


def check_mixedness_theorems(seed: int = 5150, per_family: int = 25) -> CheckResult:
    """The three mixedness conditions force a two-size witness every time."""
    start = time.monotonic()
    failures = []
    samples = mixedness_samples(seed, per_family)
    for family, t in samples:
        if unmixed_mod.is_unmixed_fast(t).unmixed:
            failures.append(f"{family} sample reported unmixed")
            continue
        witness = mixedness_witness(t)
        if witness is None or len(witness[0]) == len(witness[1]):
            failures.append(f"{family} sample lacks a two-size witness")
    return _result("mixedness-theorems", start, failures, len(samples), "all mixed with witnesses")


def check_generated_unmixed(seed: int = 31337, count: int = 60, max_steps: int = 12) -> CheckResult:
    """Generated trees pass the characterization and (small ones) brute force."""
    start = time.monotonic()
    failures = []
    corpus = balanced_corpus(seed, count, max_steps=max_steps)
    for t, _ in corpus:
        cert = unmixed_mod.is_unmixed_fast(t)
        if not cert.unmixed:
            failures.append("generated tree reported mixed")
        if t.graph.n <= 14 and not is_unmixed_bruteforce(t):
            failures.append("generated tree fails brute force")
    return _result("generator-unmixedness", start, failures, len(corpus), "all generated trees unmixed")


def run_suite(
    max_n: int = 8,
    seed: int = 12345,
    samples: int = 150,
    shelling_count: int = 50,
    join_count: int = 30,
    roundtrip_count: int = 50,
) -> list[CheckResult]:
    """The default verification sweep used by the CLI."""
    return [
        check_characterization(max_n=max_n, seed=seed, samples=samples),
        check_decomposition(max_n=max_n),
        check_stanley_reisner(max_n=min(max_n, 9)),
        check_vector_shelling(seed=seed, count=shelling_count),
        check_join_shelling(seed=seed, count=join_count),
        check_join_theorem(seed=seed, count=join_count),
        check_type_agreement(seed=seed, count=join_count),
        check_roundtrip(seed=seed, count=roundtrip_count),
        check_mixedness_theorems(seed=seed, per_family=10),
        check_generated_unmixed(seed=seed, count=30),
    ]
