from __future__ import annotations

from dataclasses import replace

import pytest

from oracles import minimal_td_sets_by_subsets
from totaldom.algebra import artinian_reduction, parametric_decomposition
from totaldom.construct import generate
from totaldom.domination import minimal_td_sets
from totaldom.errors import AmbientMismatchError, NotSquareFreeError, TheoremViolation
from totaldom.graphs import Graph, path_graph, star_graph
from totaldom.ideals import (
    _grlex_key,
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    decompose_squarefree,
    edge_ideal,
    ideal_sum,
    minimalize,
    open_neighborhood_ideal,
    validate_decomposition,
    variable_ideal,
)
from totaldom.treegen import Lcg64, random_tree

U123 = ("u1", "u2", "u3")


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def test_monomial_render_parse_round_trip():
    for text in ("1", "x", "x^3", "x*y^2", "a*b*c"):
        assert Monomial.parse(text).render() == text


def test_monomial_divides():
    assert Monomial.parse("x").divides(Monomial.parse("x^2"))
    assert not Monomial.parse("x^3").divides(Monomial.parse("x^2"))
    assert Monomial.one().divides(Monomial.parse("x*y"))


def test_monomial_lcm():
    got = Monomial.parse("x^2*y").lcm(Monomial.parse("y^3*z"))
    assert got.render() == "x^2*y^3*z"


def test_monomial_of_is_squarefree():
    m = Monomial.of("b", "a")
    assert m.render() == "a*b"
    assert m.is_squarefree


# ---------------------------------------------------------------------------
# minimalization and ideal basics
# ---------------------------------------------------------------------------

def test_minimalize_p5_generators():
    gens = [Monomial.parse(t) for t in ("v1*v3", "v3*v5", "v5")]
    assert tuple(m.render() for m in minimalize(gens)) == ("v5", "v1*v3")


def test_minimalize_singleton_and_powers():
    m = Monomial.parse("x*y")
    assert minimalize([m]) == (m,)
    assert tuple(x.render() for x in minimalize([Monomial.parse("x"), Monomial.parse("x^2")])) == ("x",)


def test_ideal_requires_known_variables():
    with pytest.raises(AmbientMismatchError):
        MonomialIdeal.from_gens(("x",), [Monomial.parse("y")])


def test_ideal_render_parse_round_trip():
    text = "u2, u1^4, u1*u2"
    ideal = MonomialIdeal.parse(text, ("u1", "u2"))
    assert MonomialIdeal.parse(ideal.render(), ("u1", "u2")) == ideal
    assert MonomialIdeal.parse("0", ("x",)).is_zero
    assert MonomialIdeal.parse("1", ("x",)).is_unit


def test_membership():
    ideal = MonomialIdeal.parse("x*y, z^2", ("x", "y", "z"))
    assert ideal.contains(Monomial.parse("x*y*z"))
    assert ideal.contains(Monomial.parse("z^3"))
    assert not ideal.contains(Monomial.parse("x*z"))
    assert Monomial.parse("m") in [g for g in MonomialIdeal.parse("m", ("m",)).gens]


def test_zero_ideal_contains_nothing():
    zero = MonomialIdeal.zero(("x",))
    assert not zero.contains(Monomial.parse("x"))


def test_sum_and_ambient_mismatch():
    a = MonomialIdeal.parse("x", ("x", "y"))
    b = MonomialIdeal.parse("y", ("x", "y"))
    assert a.sum_with(b).render() == "x, y"
    with pytest.raises(AmbientMismatchError):
        a.sum_with(MonomialIdeal.parse("z", ("z",)))


def test_intersection_p5_example():
    a = variable_ideal(("v1", "v3", "v5"), ("v1", "v5"))
    b = variable_ideal(("v1", "v3", "v5"), ("v3", "v5"))
    assert a.intersect(b).render() == "v5, v1*v3"


def test_intersection_with_pure_powers_paper_example():
    u = MonomialIdeal.parse("u1^4, u2^2, u3^3", U123)
    left = variable_ideal(U123, ("u1", "u3")).sum_with(u)
    right = variable_ideal(U123, ("u2",)).sum_with(u)
    got = left.intersect(right)
    assert got == MonomialIdeal.parse("u1^4, u2^2, u3^3, u1*u2, u2*u3", U123)


def test_equality_is_mutual_membership():
    a = MonomialIdeal.parse("x, x*y", ("x", "y"))
    b = MonomialIdeal.parse("x", ("x", "y"))
    assert a == b
    assert all(b.contains(m) for m in a.gens)
    assert all(a.contains(m) for m in b.gens)


# ---------------------------------------------------------------------------
# open-neighborhood ideals
# ---------------------------------------------------------------------------

def test_oni_p5_with_target(paper_p5):
    ideal = open_neighborhood_ideal(paper_p5, ("v2", "v4", "v6"))
    assert ideal.render() == "v5, v1*v3"


def test_oni_paper_path(paper_p4):
    ideal = open_neighborhood_ideal(paper_p4)
    assert {m.render() for m in ideal.gens} == {"s1", "s2", "l1*u", "l2*u"}


def test_oni_isolated_vertex_unit():
    g = Graph.from_edges([("a", "b")], extra_vertices=["w"])
    assert open_neighborhood_ideal(g).is_unit


def test_oni_paper_tree8(paper_tree8):
    ideal = open_neighborhood_ideal(paper_tree8)
    assert {m.render() for m in ideal.gens} == {
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
    dec = decompose_squarefree(MonomialIdeal.parse("x", ("x",)))
    assert dec.supports == (("x",),)


def test_decompose_rejects_non_squarefree():
    with pytest.raises(NotSquareFreeError):
        decompose_squarefree(MonomialIdeal.parse("x^2", ("x",)))


def test_decompose_unit_flagged():
    dec = decompose_squarefree(MonomialIdeal.unit(("x",)))
    assert dec.is_unit_source and dec.supports == ()
    assert dec.to_ideal().is_unit


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
            contained = all(prime.contains(m) for m in ideal.gens)
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
    the reductions of generated trees."""
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
        yield parametric_decomposition(red, t), red.ideal


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
    return [replace(dec, supports=tuple(sorted(c))) for c in out]


def _oracle_holds(dec: PrimeDecomposition, ideal: MonomialIdeal) -> bool:
    """Pairwise incomparable supports that re-expand to the ideal."""
    redundant = any(a != b and set(a) <= set(b) for a in dec.supports for b in dec.supports)
    return not redundant and dec.to_ideal() == ideal


def _duality_holds(dec: PrimeDecomposition, ideal: MonomialIdeal) -> bool:
    try:
        validate_decomposition(dec, ideal)
    except TheoremViolation:
        return False
    return True


def test_duality_check_agrees_with_reexpansion(trees8):
    rng = Lcg64(17)
    cases = list(_decomposition_cases(trees8))
    assert any(dec.pure_powers is not None for dec, _ in cases)
    for dec, ideal in cases:
        assert _oracle_holds(dec, ideal)
        assert _duality_holds(dec, ideal)
        for bad in _corruptions(dec, rng):
            assert not _oracle_holds(bad, ideal), bad
            assert not _duality_holds(bad, ideal), bad
        # the true decomposition against a strictly larger ideal, and
        # against the same generators over a larger ambient ring
        others = [MonomialIdeal.from_gens(ideal.variables + ("zz",), ideal.gens)]
        outside = [v for v in ideal.variables if not ideal.contains(Monomial.of(v))]
        if outside:
            others.append(ideal.sum_with(variable_ideal(ideal.variables, outside[:1])))
        for other in others:
            assert not _oracle_holds(dec, other)
            assert not _duality_holds(dec, other)


def test_duality_check_edge_cases():
    dec = decompose_squarefree(MonomialIdeal.parse("x", ("x",)))
    with pytest.raises(TheoremViolation):
        validate_decomposition(dec, MonomialIdeal.parse("x^2", ("x",)))
    stray = replace(dec, supports=(("y",),))
    for check in (stray.to_ideal, lambda: validate_decomposition(stray, dec.to_ideal())):
        with pytest.raises(AmbientMismatchError):
            check()


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
    from totaldom.algebra import odd_open_neighborhood_ideal
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
            [
                odd_open_neighborhood_ideal(interiors.blue, variables=ambient),
                odd_open_neighborhood_ideal(interiors.red, variables=ambient),
                variable_ideal(ambient, classify_vertices(t).supports),
            ]
        )
        assert total == open_neighborhood_ideal(t)


def test_fence_tree_generators_match_frozen(fence_tree):
    ideal = open_neighborhood_ideal(fence_tree)
    expected = {f"s{i}" for i in range(1, 6)}
    expected |= {f"l{i}*u{i}" for i in range(1, 6)}
    expected |= {"u1*u2", "u3*u4", "u4*u5"}
    assert {m.render() for m in ideal.gens} == expected


def test_suspension_subdivision_edge_ideal_identity():
    # the edge ideal of a suspended tree equals the odd-neighborhood ideal
    # of its complete edge subdivision, over the suspended tree's variables
    from totaldom.algebra import odd_open_neighborhood_ideal
    from totaldom.construct import edge_subdivision, suspension
    from totaldom.graphs import Forest

    rng = Lcg64(99)
    for _ in range(25):
        t = random_tree(rng, 1 + rng.randrange(8))
        sigma = suspension(t)
        subdivided = Forest(edge_subdivision(sigma))
        lhs = edge_ideal(sigma)
        rhs = odd_open_neighborhood_ideal(subdivided)
        assert lhs == rhs


def test_grlex_key_matches_per_variable_exponents(trees8):
    # the key reads each exponent from one dict per monomial; it must equal
    # the per-variable Monomial.exponent formula it replaced
    ideals = [open_neighborhood_ideal(t.graph) for t in trees8]
    for seed in range(12):
        red = artinian_reduction(generate(seed, 4)[0])
        ideals += [red.ideal, red.pure_powers]
    assert any(m.degree > len(m.exps) for i in ideals for m in i.gens)
    for ideal in ideals:
        for m in ideal.gens:
            want = (m.degree, tuple(-m.exponent(v) for v in ideal.variables))
            assert _grlex_key(m, ideal.variables) == want
