from __future__ import annotations

import random
import tracemalloc

import pytest

from oracles import (
    AmbientMismatchError,
    LabelIdeal,
    Monomial,
    edge_ideal,
    even_heights,
    grlex_key,
    ideal_contains,
    ideal_intersection,
    ideal_sum,
    label_decomposition,
    label_ideal,
    minimal_td_sets_by_subsets,
    minimalize,
    monomial_lcm,
    odd_open_neighborhood_ideal,
    open_neighborhood_ideal_by_scan,
    parse_ideal,
    parse_monomial,
    reduction_ideal,
    reduction_pure_powers,
    squarefree_ideal,
    to_ideal_by_lcm,
    variable_ideal,
)
from totaldom.algebra import ArtinianReduction, artinian_reduction, parametric_decomposition
from totaldom.construct import generate
from totaldom.domination import minimal_td_sets
from totaldom.errors import (
    EnumerationCapExceeded,
    NotSquareFreeError,
    TheoremViolation,
)
from totaldom.graphs import Graph, path_graph, star_graph
from totaldom.ideals import (
    MonomialIdeal,
    PrimeDecomposition,
    decompose_squarefree,
    open_neighborhood_ideal,
    validate_decomposition,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import Analysis

U123 = ("u1", "u2", "u3")


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def test_monomial_render_parse_round_trip():
    for text in ("1", "x", "x^3", "x*y^2", "a*b*c"):
        assert parse_monomial(text).render() == text


def test_monomial_divides():
    assert parse_monomial("x").divides(parse_monomial("x^2"))
    assert not parse_monomial("x^3").divides(parse_monomial("x^2"))
    assert Monomial.one().divides(parse_monomial("x*y"))


def test_monomial_lcm():
    got = monomial_lcm(parse_monomial("x^2*y"), parse_monomial("y^3*z"))
    assert got.render() == "x^2*y^3*z"


def test_monomial_of_is_squarefree():
    m = Monomial.of("b", "a")
    assert m.render() == "a*b"
    assert m.is_squarefree


# ---------------------------------------------------------------------------
# minimalization and ideal basics
# ---------------------------------------------------------------------------

def test_minimalize_p5_generators():
    gens = [parse_monomial(t) for t in ("v1*v3", "v3*v5", "v5")]
    assert tuple(m.render() for m in minimalize(gens)) == ("v5", "v1*v3")


def test_minimalize_singleton_and_powers():
    m = parse_monomial("x*y")
    assert minimalize([m]) == (m,)
    assert tuple(x.render() for x in minimalize([parse_monomial("x"), parse_monomial("x^2")])) == ("x",)


def test_ideal_requires_known_variables():
    with pytest.raises(AmbientMismatchError):
        LabelIdeal.from_gens(("x",), [parse_monomial("y")])


def test_ideal_render_parse_round_trip():
    text = "u2, u1^4, u1*u2"
    ideal = parse_ideal(text, ("u1", "u2"))
    assert parse_ideal(ideal.render(), ("u1", "u2")) == ideal
    assert parse_ideal("0", ("x",)).is_zero
    assert parse_ideal("1", ("x",)).is_unit


def test_membership():
    ideal = parse_ideal("x*y, z^2", ("x", "y", "z"))
    assert ideal_contains(ideal, parse_monomial("x*y*z"))
    assert ideal_contains(ideal, parse_monomial("z^3"))
    assert not ideal_contains(ideal, parse_monomial("x*z"))
    assert parse_monomial("m") in [g for g in parse_ideal("m", ("m",)).gens]


def test_zero_ideal_contains_nothing():
    zero = LabelIdeal.from_gens(("x",), [])
    assert not ideal_contains(zero, parse_monomial("x"))


def test_sum_and_ambient_mismatch():
    a = parse_ideal("x", ("x", "y"))
    b = parse_ideal("y", ("x", "y"))
    assert ideal_sum(a, b).render() == "x, y"
    for combine in (ideal_sum, lambda a, b: ideal_intersection([a, b])):
        with pytest.raises(AmbientMismatchError):
            combine(a, parse_ideal("z", ("z",)))


def test_intersection_p5_example():
    a = variable_ideal(("v1", "v3", "v5"), ("v1", "v5"))
    b = variable_ideal(("v1", "v3", "v5"), ("v3", "v5"))
    assert ideal_intersection([a, b]).render() == "v5, v1*v3"


def test_intersection_with_pure_powers_paper_example():
    u = parse_ideal("u1^4, u2^2, u3^3", U123)
    left = ideal_sum(variable_ideal(U123, ("u1", "u3")), u)
    right = ideal_sum(variable_ideal(U123, ("u2",)), u)
    got = ideal_intersection([left, right])
    assert got == parse_ideal("u1^4, u2^2, u3^3, u1*u2, u2*u3", U123)


def test_equality_is_mutual_membership():
    a = parse_ideal("x, x*y", ("x", "y"))
    b = parse_ideal("x", ("x", "y"))
    assert a == b
    assert all(ideal_contains(b, m) for m in a.gens)
    assert all(ideal_contains(a, m) for m in b.gens)


# ---------------------------------------------------------------------------
# open-neighborhood ideals
# ---------------------------------------------------------------------------

def test_oni_p5_with_target(paper_p5):
    ideal = open_neighborhood_ideal(paper_p5, ("v2", "v4", "v6"))
    assert ideal.render() == "v5, v1*v3"


def test_oni_paper_path(paper_p4):
    ideal = open_neighborhood_ideal(paper_p4)
    assert {m.render() for m in label_ideal(ideal).gens} == {"s1", "s2", "l1*u", "l2*u"}


def test_oni_isolated_vertex_unit():
    g = Graph.from_edges([("a", "b")], extra_vertices=["w"])
    assert open_neighborhood_ideal(g).is_unit


def test_oni_matches_scan_over_every_kept_generator():
    # bucketing the kept neighbor lists by their lowest vertex keeps the
    # generators and their order; graphs with isolated vertices give the
    # unit ideal
    graphs = [t.graph for t in trees_up_to(9)]
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 12)
        labels = [f"x{i}" for i in rng.sample(range(40), n)]
        edges = [(a, b) for a in labels for b in labels if a < b and rng.random() < 0.3]
        graphs.append(Graph(labels, edges))
    for g in graphs:
        targets = [None, [v for v in g.labels if rng.random() < 0.5]]
        for s in targets:
            got = open_neighborhood_ideal(g, s)
            want = open_neighborhood_ideal_by_scan(g, s)
            assert label_ideal(got) == want and got == squarefree_ideal(want)
    assert any(open_neighborhood_ideal(g).is_unit for g in graphs)


@pytest.mark.parametrize("tree", [
    lambda: path_graph(29999), lambda: random_tree(Lcg64(1), 30000),
], ids=["path", "prufer"])
def test_oni_allocates_no_neighbor_masks(tree):
    # N(G) is minimalized on the neighbor lists: one n-bit mask per vertex
    # would take about 60 MB here on its own
    g = tree().graph
    tracemalloc.start()
    try:
        ideal = open_neighborhood_ideal(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ideal.rows) > 0 and peak < 32 * 2**20


def test_oni_paper_tree8(paper_tree8):
    ideal = open_neighborhood_ideal(paper_tree8)
    assert {m.render() for m in label_ideal(ideal).gens} == {
        "v4",
        "v5",
        "v1*v2*v6",
        "v3*v7",
        "v6*v7",
    }


def test_edge_ideal():
    assert edge_ideal(path_graph(1)).render() == "0*1"
    p4 = path_graph(4).graph
    assert len(edge_ideal(p4).gens) == 4
    assert edge_ideal(Graph.from_edges([])).is_zero


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_p5(paper_p5):
    dec = decompose_squarefree(open_neighborhood_ideal(paper_p5, ("v2", "v4", "v6")))
    assert dec.supports == (("v1", "v5"), ("v3", "v5"))


def test_decompose_paper_path(paper_p4):
    dec = decompose_squarefree(open_neighborhood_ideal(paper_p4))
    assert dec.supports == (("l1", "l2", "s1", "s2"), ("s1", "s2", "u"))


def test_decompose_paper_tree8(paper_tree8):
    dec = decompose_squarefree(open_neighborhood_ideal(paper_tree8))
    assert dec.supports == (
        ("v1", "v4", "v5", "v7"),
        ("v2", "v4", "v5", "v7"),
        ("v3", "v4", "v5", "v6"),
        ("v4", "v5", "v6", "v7"),
    )


def test_decompose_principal():
    dec = decompose_squarefree(squarefree_ideal(parse_ideal("x", ("x",))))
    assert dec.supports == (("x",),)


def test_decompose_rejects_non_squarefree():
    # a MonomialIdeal is square-free by construction: the label ideal is
    # refused where it is encoded
    with pytest.raises(NotSquareFreeError, match="^not square-free: x\\^2$"):
        squarefree_ideal(parse_ideal("x^2", ("x",)))


def test_decompose_unit_flagged():
    dec = decompose_squarefree(squarefree_ideal(LabelIdeal.unit(("x",))))
    assert dec.supports == ()
    assert dec.to_ideal().is_unit


@pytest.mark.parametrize("variables", [(), ("x",), ("y", "x", "z")])
def test_unit_ideal_is_the_empty_decomposition(variables):
    # the unit generator's one support is empty, so the engine finds no
    # prime at any cap, and the fold over no prime stays the unit ideal
    unit = squarefree_ideal(LabelIdeal.unit(variables))
    dec = decompose_squarefree(unit, cap=1)
    assert dec == label_decomposition(unit.variables, ())
    assert dec.to_ideal() == unit
    assert label_decomposition(variables, ()).to_ideal() == unit


def test_containment_iff_std_set(trees8):
    # N_S(G) sits inside the prime of V' exactly when V' S-dominates
    from totaldom.domination import is_s_td_set

    rng = Lcg64(11)
    for t in trees8[::3]:
        labs = t.graph.labels
        target = tuple(v for v in labs if rng.randrange(2)) or labs[:1]
        ideal = open_neighborhood_ideal(t, target)
        if ideal.is_unit:
            continue
        for _ in range(8):
            vprime = tuple(v for v in labs if rng.randrange(2))
            prime = variable_ideal(labs, vprime)
            contained = all(ideal_contains(prime, m) for m in label_ideal(ideal).gens)
            assert contained == is_s_td_set(t, vprime, target)


def test_decomposition_supports_are_minimal_td_sets(trees8):
    for t in trees8:
        ideal = open_neighborhood_ideal(t)
        if ideal.is_unit:
            continue
        dec = decompose_squarefree(ideal)
        assert dec.supports == minimal_td_sets(t).sets
        assert dec.supports == minimal_td_sets_by_subsets(t.graph)
        assert dec.to_ideal() == ideal


def _decomposition_cases(trees8):
    """(decomposition, ideal) pairs: N(T) and an S-restricted N_S(T) for
    every tree on at most 8 vertices, and the parametric decompositions of
    the reductions of generated trees, each with its reduction."""
    rng = Lcg64(5)
    for t in trees8:
        labs = t.graph.labels
        target = tuple(v for v in labs if rng.randrange(2)) or labs[:1]
        for ideal in (open_neighborhood_ideal(t), open_neighborhood_ideal(t, target)):
            if not ideal.is_unit:
                yield decompose_squarefree(ideal), ideal
    for seed in range(12):
        t, _ = generate(seed, seed % 5)
        red = artinian_reduction(t)
        yield parametric_decomposition(red, t), red


def _corruptions(dec: PrimeDecomposition, rng: Lcg64):
    """``dec`` with one support dropped, one non-minimal superset added, and
    one spurious support added."""
    sups = dec.supports
    out = [sups[1:]]
    for s in sups:
        extra = [v for v in dec.variables if v not in s]
        if extra:
            out.append(sups + (tuple(sorted(s + (extra[0],))),))
            break
    while True:
        spurious = tuple(v for v in dec.variables if rng.randrange(2))
        if spurious not in sups:
            out.append(sups + (spurious,))
            break
    return [_with_supports(dec, tuple(sorted(c))) for c in out]


def _with_supports(dec: PrimeDecomposition, supports) -> PrimeDecomposition:
    """``dec`` with other label supports, encoded by the oracle constructor."""
    return label_decomposition(dec.variables, supports, dec.pure_powers)


def _as_labels(ideal) -> LabelIdeal:
    """A ``MonomialIdeal`` or the reduced ideal of a reduction, as labels."""
    if isinstance(ideal, ArtinianReduction):
        return reduction_ideal(ideal)
    return label_ideal(ideal)


def _larger(ideal) -> list:
    """The same generators over a larger ambient ring, and a strictly larger
    ideal (the sum with a variable outside it) when there is one. A
    reduction gets a new variable "zz" as one more row, or one more mask:
    a variable x_k outside the reduced ideal."""
    if isinstance(ideal, ArtinianReduction):
        labels = ideal.labels
        out = [ArtinianReduction(labels + ("zz",), ideal.rows + ((len(labels),),), ideal.masks)]
        outside = [k for k, p in enumerate(ideal.powers) if p > 1 and 1 << k not in ideal.masks]
        if outside:
            out.append(ArtinianReduction(labels, ideal.rows, ideal.masks + (1 << outside[0],)))
        return out
    label = label_ideal(ideal)
    out = [squarefree_ideal(LabelIdeal.from_gens(ideal.variables + ("zz",), label.gens))]
    outside = [v for v in ideal.variables if not ideal_contains(label, Monomial.of(v))]
    if outside:
        out.append(squarefree_ideal(ideal_sum(label, variable_ideal(ideal.variables, outside[:1]))))
    return out


def _oracle_holds(dec: PrimeDecomposition, ideal) -> bool:
    """Pairwise incomparable supports that re-expand to the ideal."""
    redundant = any(a != b and set(a) <= set(b) for a in dec.supports for b in dec.supports)
    return not redundant and to_ideal_by_lcm(dec) == _as_labels(ideal)


def _duality_holds(dec: PrimeDecomposition, ideal) -> bool:
    try:
        validate_decomposition(dec, ideal)
    except TheoremViolation:
        return False
    return True


def test_duality_check_agrees_with_reexpansion(trees8):
    rng = Lcg64(17)
    cases = list(_decomposition_cases(trees8))
    assert any(dec.pure_powers is not None for dec, _ in cases)
    grown = 0
    for dec, ideal in cases:
        assert _oracle_holds(dec, ideal)
        assert _duality_holds(dec, ideal)
        for bad in _corruptions(dec, rng):
            assert not _oracle_holds(bad, ideal), bad
            assert not _duality_holds(bad, ideal), bad
        # the true decomposition against a strictly larger ideal, and
        # against the same generators over a larger ambient ring
        others = _larger(ideal)
        grown += len(others) == 2 and dec.pure_powers is not None
        for other in others:
            assert not _oracle_holds(dec, other)
            assert not _duality_holds(dec, other)
    assert grown


def test_duality_check_rejects_a_repeated_prime():
    ideal = open_neighborhood_ideal(path_graph(6).graph)
    dec = decompose_squarefree(ideal)
    twice = PrimeDecomposition(dec.ground, dec.masks + dec.masks[:1])
    with pytest.raises(TheoremViolation, match="^decomposition is not irredundant"):
        validate_decomposition(twice, ideal)


def test_duality_check_rejects_a_repeated_parametric_prime():
    t = path_graph(6)
    red = artinian_reduction(t)
    dec = parametric_decomposition(red, t)
    twice = _with_supports(dec, dec.supports + dec.supports[:1])
    with pytest.raises(TheoremViolation, match="parametric decomposition is not irredundant"):
        validate_decomposition(twice, red)


NOT_IRREDUNDANT = "^parametric decomposition is not irredundant$"
NOT_REEXPANDED = "^parametric decomposition does not re-expand to the ideal$"


def _parametric_corruptions(dec: PrimeDecomposition, red):
    """(message, corrupted decomposition) pairs built on masks: a repeated
    support, a dropped one, an incomparable extra one, a superset of one,
    and one pure power whose exponent is one too high where that power is
    a minimal generator of the reduced ideal."""
    masks, powers = dec.masks, dec.pure_powers
    full = (1 << len(powers)) - 1
    out = [
        (NOT_IRREDUNDANT, sorted(masks + masks[:1]), powers),
        (NOT_REEXPANDED, masks[1:], powers),
    ]
    extra = [m for m in range(1, full + 1)
             if not any(m & s == s or m & s == m for s in masks)]
    if extra:
        out.append((NOT_REEXPANDED, sorted(masks + (extra[0],)), powers))
    bigger = [m | 1 << k for m in masks for k in range(len(powers)) if not m >> k & 1]
    if bigger:
        out.append((NOT_IRREDUNDANT, sorted(masks + (bigger[0],)), powers))
    kept = [k for k, p in enumerate(powers) if p > 1 and 1 << k not in red.masks]
    if kept:
        wrong = tuple(p + (k == kept[0]) for k, p in enumerate(powers))
        out.append((NOT_REEXPANDED, masks, wrong))
    return [(msg, PrimeDecomposition(dec.ground, tuple(m), p)) for msg, m, p in out]


def test_parametric_mask_check_rejects_each_corruption():
    # each corruption must raise with its message: a check stubbed out or
    # answering on the wrong half fails here
    trees = [path_graph(6), path_graph(9), star_graph(4)]
    trees += [generate(seed, seed % 7)[0] for seed in range(16)]
    seen = set()
    for t in trees:
        for layer in Analysis(t).interior_layers:
            for comp in layer.component_facts:
                red = artinian_reduction(comp)
                dec = parametric_decomposition(red, comp)
                validate_decomposition(dec, red)
                for message, bad in _parametric_corruptions(dec, red):
                    with pytest.raises(TheoremViolation, match=message):
                        validate_decomposition(bad, red)
                    seen.add((message, bad.pure_powers == dec.pure_powers, len(bad) - len(dec)))
    # both messages, each kind of corruption: repeated or superset (+1,
    # not irredundant), dropped (-1), extra (+1), wrong exponent (0)
    assert seen == {
        (NOT_IRREDUNDANT, True, 1), (NOT_REEXPANDED, True, -1),
        (NOT_REEXPANDED, True, 1), (NOT_REEXPANDED, False, 0),
    }


def test_duality_check_edge_cases():
    dec = decompose_squarefree(squarefree_ideal(parse_ideal("x", ("x",))))
    # the reduction of a two-vertex row is <x^2>
    square = ArtinianReduction(("x", "y"), ((0, 1),), ())
    assert square.ideal == "x^2"
    with pytest.raises(TheoremViolation, match="^decomposition of x\\^2 does not re-expand"):
        validate_decomposition(dec, square)
    # a support outside the variables is refused where it is encoded
    with pytest.raises(AmbientMismatchError, match="unknown variables \\['y'\\]"):
        _with_supports(dec, (("y",),))


def test_decomposition_never_reexpands(monkeypatch):
    # 37 vertices and 402 primes: re-expansion through pairwise lcms takes
    # seconds, the duality check a small fraction of one
    def refuse(self):
        raise AssertionError("decomposition was checked by re-expansion")

    t, _ = generate(7, 9)
    monkeypatch.setattr(PrimeDecomposition, "to_ideal", refuse)
    dec = decompose_squarefree(open_neighborhood_ideal(t))
    assert (t.graph.n, len(dec)) == (37, 402)
    assert len(parametric_decomposition(artinian_reduction(t), t)) >= 1


def test_three_ideal_sum_on_unmixed_trees(fence_tree):
    # N(T) = N_odd(T_B) + N_odd(T_R) + <supports> for unmixed trees
    from totaldom.graphs import classify_vertices
    from totaldom.unmixed import interior_graphs, is_unmixed_fast

    rng = Lcg64(23)
    samples = [fence_tree, path_graph(6), star_graph(3), path_graph(3), path_graph(1)]
    for _ in range(40):
        t = random_tree(rng, 2 + rng.randrange(11))
        if is_unmixed_fast(t).unmixed:
            samples.append(t)
    for t in samples:
        assert is_unmixed_fast(t).unmixed
        ambient = t.graph.labels
        interiors = interior_graphs(t)
        total = ideal_sum(
            ideal_sum(
                odd_open_neighborhood_ideal(interiors.blue, ambient),
                odd_open_neighborhood_ideal(interiors.red, ambient),
            ),
            variable_ideal(ambient, classify_vertices(t).supports),
        )
        assert total == label_ideal(open_neighborhood_ideal(t))


def test_fence_tree_generators_match_frozen(fence_tree):
    ideal = open_neighborhood_ideal(fence_tree)
    expected = {f"s{i}" for i in range(1, 6)}
    expected |= {f"l{i}*u{i}" for i in range(1, 6)}
    expected |= {"u1*u2", "u3*u4", "u4*u5"}
    assert {m.render() for m in label_ideal(ideal).gens} == expected


def test_suspension_subdivision_edge_ideal_identity():
    # the edge ideal of a suspended tree equals the odd-neighborhood ideal
    # of its complete edge subdivision, over the suspended tree's variables
    from totaldom.construct import edge_subdivision, suspension
    from totaldom.graphs import Forest, heights

    rng = Lcg64(99)
    for _ in range(25):
        t = random_tree(rng, 1 + rng.randrange(8))
        sigma = suspension(t)
        subdivided = Forest(edge_subdivision(sigma))
        lhs = edge_ideal(sigma)
        rhs = odd_open_neighborhood_ideal(subdivided, even_heights(heights(subdivided)))
        assert lhs == rhs


def test_grlex_key_matches_per_variable_exponents(trees8):
    # the key reads each exponent from one dict per monomial; it must equal
    # the per-variable exponent formula it replaced
    ideals = [label_ideal(open_neighborhood_ideal(t.graph)) for t in trees8]
    for seed in range(12):
        red = artinian_reduction(generate(seed, 4)[0])
        ideals += [reduction_ideal(red), reduction_pure_powers(red)]
    assert any(m.degree > len(m.exps) for i in ideals for m in i.gens)
    for ideal in ideals:
        for m in ideal.gens:
            want = (m.degree, tuple(-dict(m.exps).get(v, 0) for v in ideal.variables))
            assert grlex_key(m, ideal.variables) == want


# ---------------------------------------------------------------------------
# the analyze path: N(G) from neighbor lists, one TD family per request
# ---------------------------------------------------------------------------

def _random_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded simple graphs on 2 to 10 vertices, some with isolated vertices
    and some with nested neighborhoods."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randrange(2, 11)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(f"v{a}", f"v{b}") for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(edges, extra_vertices=[f"v{a}" for a in range(n)]))
    return graphs


def _outcome(enumerate_sets):
    try:
        return enumerate_sets()
    except EnumerationCapExceeded:
        return "cap exceeded"


def test_td_family_is_the_decomposition_at_every_cap():
    # analyze reads the prime supports off the minimal TD-set family, so the
    # two enumerations must give the same sets and hit a cap together
    graphs = [t.graph for t in trees_up_to(9)] + _random_graphs(2026, 200)
    capped = 0
    for g in graphs:
        ideal = open_neighborhood_ideal(g)
        for cap in [*range(1, 41), None]:
            family = _outcome(lambda: minimal_td_sets(g, cap).sets)
            primes = _outcome(lambda: decompose_squarefree(ideal, cap).supports)
            assert family == primes, (g, cap)
            capped += family == "cap exceeded"
    assert capped > 1000  # of 12,095 cases


def _ideal_by_monomials(g: Graph, s=None) -> MonomialIdeal:
    target = g.labels if s is None else s
    label = LabelIdeal.from_gens(g.labels, [Monomial.of(*g.neighbors(v)) for v in target])
    return squarefree_ideal(label)


def test_mask_built_ideal_matches_monomial_route(trees8):
    rng = random.Random(11)
    graphs = [t.graph for t in trees8] + _random_graphs(7, 80)
    for g in graphs:
        assert open_neighborhood_ideal(g) == _ideal_by_monomials(g)
        for _ in range(4):
            s = rng.sample(g.labels, rng.randrange(len(g.labels) + 1))
            assert open_neighborhood_ideal(g, s) == _ideal_by_monomials(g, s)
    assert any(open_neighborhood_ideal(g).is_unit for g in graphs)
