"""Oracle cross-checks: every structural theorem against its brute-force twin.

Each check runs an enumeration-backed oracle against the corresponding
polynomial-time construction over an exhaustive small-tree corpus and seeded
generated corpora, and reports pass/fail with counts. The CLI ``verify``
subcommand and the acceptance test module both run through these functions.
"""

from __future__ import annotations

import time
from itertools import chain

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
)
from .construct import apply_o, deconstruct, edge_subdivision, generate, replay, suspension
from .domination import is_unmixed_bruteforce, minimal_td_sets
from .errors import EnumerationCapExceeded
from .graphs import (
    Tree,
    _created,
    _Record,
    canonical_form,
    heights,
    leaf_distances,
    path_graph,
    star_graph,
)
from .ideals import PrimeDecomposition, decompose_squarefree, open_neighborhood_ideal
from .treegen import Lcg64, random_tree, trees_up_to
from .unmixed import interior_graphs, mixedness_witness


class CheckResult(_Record):
    """One check's outcome. Mutable and so unhashable, unlike the other
    records."""

    _fields = ("name", "passed", "checked", "detail", "seconds")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, name: str, passed: bool, checked: int, detail: str, seconds: float):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.detail = detail
        self.seconds = seconds

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
        adj = t.graph.adj
        facets = 1
        for s, h in enumerate(leaf_distances(adj, range(len(adj)))):
            if h == 1:
                facets *= len(adj[s])
        if facets > facet_cap:
            continue
        out.append((t, trace))
    return out


def _double_star(a: int, b: int) -> Tree:
    """Adjacent centers "c1" and "c2" with leaves "a0".. and "b0".. ."""
    labels = ["c1", "c2"] + [f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)]
    nbrs = [[1, *range(2, 2 + a)], [0, *range(2 + a, 2 + a + b)]] + [[0]] * a + [[1]] * b
    return _created(labels, nbrs)


def unmixed_corpus(seed: int, count: int):
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
            supports = [v for v, h in heights(t).items() if h == 1]
            for _ in range(rng.randrange(3)):
                t = apply_o(t, supports[rng.randrange(len(supports))])
        try:
            minimal_td_sets(t, cap=240)  # at most 240 sets, or it raises
        except EnumerationCapExceeded:
            continue
        out.append(t)
    return out[:count]


def _spider(k: int) -> Tree:
    """A center "c" with k legs "c"-"m<i>"-"l<i>"."""
    labels = ["c"]
    nbrs = [list(range(1, 2 * k, 2))]
    for i in range(k):
        labels += [f"m{i}", f"l{i}"]
        nbrs += [[0, 2 * i + 2], [2 * i + 1]]
    return _created(labels, nbrs)


def _leaves_share_a_neighbor(adj) -> bool:
    """Whether two leaves of the tree with neighbor lists ``adj`` have a
    common neighbor, that is, lie at distance 2."""
    return any(sum(len(adj[j]) == 1 for j in nb) >= 2 for nb in adj)


def mixedness_samples(seed: int, per_family: int = 25):
    """Balanced trees falling under the three mixedness theorems.

    Yields (family, tree) pairs: two leaves at distance 4, height exactly 2,
    height at least 4. A distance-4 sample is the edge subdivision of a
    random tree, which doubles every distance and keeps the leaves, so it
    has two leaves at distance 4 exactly when two leaves of the random tree
    share a neighbor; that is tested first, and only kept samples are
    subdivided.
    """
    rng = Lcg64(seed)
    dist4, height2, height4 = [], [], []
    while len(height2) < per_family:
        t = _spider(2 + rng.randrange(7))
        supports = [v for v, h in heights(t).items() if h == 1]
        for _ in range(rng.randrange(3)):
            t = apply_o(t, supports[rng.randrange(len(supports))])
        height2.append(t)
    while len(height4) < per_family:
        if rng.randrange(2):
            t = path_graph(8 + 2 * rng.randrange(3))
        else:
            base = random_tree(rng, 5 + rng.randrange(6))
            t = Tree(edge_subdivision(Tree(edge_subdivision(base))))
        adj = t.graph.adj
        if max(leaf_distances(adj, range(len(adj)))) >= 4:
            height4.append(t)
    while len(dist4) < per_family:
        base = random_tree(rng, 4 + rng.randrange(7))
        if _leaves_share_a_neighbor(base.graph.adj):
            dist4.append(Tree(edge_subdivision(base)))
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
) -> CheckResult:
    """Fast interior-graph test vs enumeration, exhaustive then sampled
    (random trees on 11 to 16 vertices)."""
    start = time.monotonic()
    failures = []
    checked = 0
    rng = Lcg64(seed)
    sampled = (random_tree(rng, 11 + rng.randrange(6)) for _ in range(samples))
    for t in chain(trees_up_to(max_n), sampled):
        checked += 1
        if unmixed_mod.is_unmixed_fast(t).unmixed != is_unmixed_bruteforce(t):
            failures.append(f"disagreement on {canonical_form(t)}")
    return _result("characterization-vs-bruteforce", start, failures, checked, "all agree")


def check_decomposition(max_n: int = 10) -> CheckResult:
    """Prime supports equal the minimal TD-sets and re-expand to the ideal.

    Both sides of each comparison are built in index space over the tree's
    graph, so they are compared by their masks and index tuples."""
    start = time.monotonic()
    failures = []
    checked = 0
    for t in trees_up_to(max_n):
        checked += 1
        ideal = open_neighborhood_ideal(t.graph)
        dec = decompose_squarefree(ideal)
        if dec != PrimeDecomposition.from_family(minimal_td_sets(t)):
            failures.append(f"supports mismatch on {canonical_form(t)}")
        if dec.to_ideal() != ideal:
            failures.append(f"re-expansion mismatch on {canonical_form(t)}")
    return _result("ideal-decomposition", start, failures, checked, "supports == minimal TD-sets")


def check_stanley_reisner(max_n: int = 9) -> CheckResult:
    """I_{S(G)} == N(G) plus both round trips on every small tree.

    I_S(G) is computed once per tree; when it equals N(G), the round trip
    complex(I_S(G)) is complex(N(G)), already computed.
    """
    start = time.monotonic()
    failures = []
    checked = 0
    for t in trees_up_to(max_n):
        checked += 1
        ideal = open_neighborhood_ideal(t.graph)
        cx = stable_complex(t.graph)
        sr_ideal = stanley_reisner_ideal(cx)
        ideal_holds = sr_ideal == ideal
        if not ideal_holds:
            failures.append(f"I_S(G) != N(G) on {canonical_form(t)}")
        sr_complex = stanley_reisner_complex(ideal)
        if sr_complex != cx:
            failures.append(f"complex(N(G)) != S(G) on {canonical_form(t)}")
        back = sr_complex if ideal_holds else stanley_reisner_complex(sr_ideal)
        if back != cx:
            failures.append(f"round trip failed on {canonical_form(t)}")
    return _result("stanley-reisner", start, failures, checked, "translation inverts")


def check_vector_shelling(seed: int = 31337, count: int = 200) -> CheckResult:
    """The facet-vector order shells every generated balanced tree;
    ``shelling_order`` raises TheoremViolation on an order that fails."""
    start = time.monotonic()
    corpus = balanced_corpus(seed, count)
    for t, _ in corpus:
        shelling_order(t)
    return _result("facet-vector-shelling", start, [], len(corpus), "all orders shell")


def check_join_shelling(seed: int = 424242, count: int = 100) -> CheckResult:
    """Composed interior orders shell the stable complex of unmixed trees;
    ``stable_shelling`` raises TheoremViolation on an order that fails."""
    start = time.monotonic()
    corpus = unmixed_corpus(seed, count)
    for t in corpus:
        stable_shelling(t)
    return _result("join-shelling", start, [], len(corpus), "all orders shell")


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
    """Counting route and socle oracle agree on the generated corpus;
    ``cm_type`` raises TheoremViolation when they do not."""
    start = time.monotonic()
    corpus = unmixed_corpus(seed, count)
    for t in corpus:
        cm_type(t)
    return _result("cm-type-agreement", start, [], len(corpus), "type == socle product")


def check_roundtrip(seed: int = 777, count: int = 200) -> CheckResult:
    """replay(deconstruct(T)) is isomorphic to T on the generated corpus."""
    start = time.monotonic()
    failures = []
    corpus = balanced_corpus(seed, count, facet_cap=10**6)
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


def check_generated_unmixed(seed: int = 31337, count: int = 60) -> CheckResult:
    """Generated trees pass the characterization and (small ones) brute force."""
    start = time.monotonic()
    failures = []
    corpus = balanced_corpus(seed, count, max_steps=12)
    for t, _ in corpus:
        cert = unmixed_mod.is_unmixed_fast(t)
        if not cert.unmixed:
            failures.append("generated tree reported mixed")
        if t.graph.n <= 14 and not is_unmixed_bruteforce(t):
            failures.append("generated tree fails brute force")
    return _result("generator-unmixedness", start, failures, len(corpus), "all generated trees unmixed")


def run_suite(max_n: int = 8, seed: int = 12345, samples: int = 150):
    """The default verification sweep used by the CLI: each check's result
    as soon as the check has run."""
    yield check_characterization(max_n=max_n, seed=seed, samples=samples)
    yield check_decomposition(max_n=max_n)
    yield check_stanley_reisner(max_n=min(max_n, 9))
    yield check_vector_shelling(seed=seed, count=50)
    yield check_join_shelling(seed=seed, count=30)
    yield check_join_theorem(seed=seed, count=30)
    yield check_type_agreement(seed=seed, count=30)
    yield check_roundtrip(seed=seed, count=50)
    yield check_mixedness_theorems(seed=seed, per_family=10)
    yield check_generated_unmixed(seed=seed, count=30)
