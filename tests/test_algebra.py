from __future__ import annotations

import gc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    even_heights,
    level,
    odd_heights,
    parametric_supports_from_ideal,
    parse_ideal,
    parse_monomial,
    reduction_ideal,
    reduction_pure_powers,
    sides,
    socle_by_box,
    socle_by_exponent_corners,
    substitution_map,
    to_ideal_by_lcm,
)
from totaldom import algebra
from totaldom.algebra import (
    ArtinianReduction,
    artinian_reduction,
    cm_type,
    minimal_v3_td_sets,
    parametric_decomposition,
    socle_dimension,
)
from totaldom.construct import generate
from totaldom.domination import minimal_td_sets
from totaldom.complexes import stable_shelling
from totaldom.errors import (
    EnumerationCapExceeded,
    MixedTreeError,
    NotSquareFreeError,
    TheoremViolation,
)
from totaldom.graphs import Forest, Tree, heights, path_graph, star_graph, vset
from totaldom.treegen import trees_up_to
from totaldom.unmixed import Analysis, is_unmixed_fast
from totaldom.verify import balanced_corpus, check_type_agreement, unmixed_corpus

U123 = ("u1", "u2", "u3")
PAPER_J = parse_ideal("u1^4, u2^2, u3^3, u1*u2, u2*u3", U123)


def paper_labeled_tree() -> Tree:
    """Height-3 tree with supports s1,s2,s3 (3,1,2 leaves) on two top vertices."""
    edges = [("s1", "u1"), ("s2", "u2"), ("s3", "u3"), ("r1", "u1"), ("r1", "u2"), ("r2", "u2"), ("r2", "u3")]
    edges += [("s1", f"la{i}") for i in range(3)]
    edges += [("s2", "lb0")]
    edges += [("s3", f"lc{i}") for i in range(2)]
    return Tree.from_edges(edges)


def example_tb_forest() -> Forest:
    """Three-component balanced forest: a 3-leaf star, an 8-vertex height-3
    tree with top vertices v19/v20, and an isolated vertex."""
    edges = [("x1", "v1"), ("x1", "v2"), ("x1", "v9")]
    edges += [
        ("v4", "y1"),
        ("y1", "v19"),
        ("v19", "z"),
        ("z", "v20"),
        ("v20", "y2"),
        ("y2", "v5"),
        ("y2", "v14"),
    ]
    return Forest.from_edges(edges, extra_vertices=["v24"])


# ---------------------------------------------------------------------------
# artinian reduction
# ---------------------------------------------------------------------------

def test_reduction_paper_tree():
    red = artinian_reduction(paper_labeled_tree())
    assert len(red.masks) == 2  # one per height-3 vertex
    assert reduction_ideal(red) == PAPER_J
    assert red.ideal == PAPER_J.render() == "u1*u2, u2^2, u2*u3, u3^3, u1^4"
    assert reduction_pure_powers(red) == parse_ideal("u1^4, u2^2, u3^3", U123)
    assert red.pure_powers == "u2^2, u3^3, u1^4"
    sub = substitution_map(red)
    assert sub["la0"] == "u1" and sub["lb0"] == "u2" and sub["lc1"] == "u3"


def test_reduction_p6():
    red = artinian_reduction(path_graph(6))
    assert len(red.masks) == 1  # one per height-3 vertex
    assert reduction_ideal(red) == parse_ideal("2^2, 4^2, 2*4", ("2", "4"))
    assert red.ideal == "2^2, 2*4, 4^2"


def test_reduction_star():
    red = artinian_reduction(star_graph(3))
    assert (len(red.rows), red.masks) == (1, ())  # the leaves as one row
    assert red.ideal == "l1^3"
    assert set(substitution_map(red)) == {"l1", "l2", "l3"}


def test_reduction_single_vertex():
    red = artinian_reduction(path_graph(0))
    assert (len(red.rows), red.masks) == (1, ())
    assert red.ideal == "0"  # the only vertex is labeled "0"
    assert socle_dimension(red) == 1


def test_reduction_rejects_mixed(paper_p4):
    with pytest.raises(MixedTreeError):
        artinian_reduction(paper_p4)


def test_reduction_substitution_covers_even_vertices():
    for seed in range(8):
        t, _ = generate(seed, seed % 6)
        red = artinian_reduction(t)
        assert set(substitution_map(red)) == set(even_heights(heights(t)))


def test_reduction_collapses_each_support_row_onto_its_partner():
    checked = 0
    for t in unmixed_corpus(5, 40):
        for side in sides(Analysis(t)):
            for comp in side.components:
                if max(comp.height) != 3:
                    continue
                red = artinian_reduction(comp.forest)
                subst = substitution_map(red)
                pure_powers = parse_ideal(red.pure_powers, red.variables).gens
                labels = comp.forest.labels
                for indices in comp.support_rows:
                    row = [labels[i] for i in indices]
                    checked += 1
                    assert {subst[w] for w in row} == {row[0]}
                    assert parse_monomial(f"{row[0]}^{len(row)}") in pure_powers
    assert checked


def test_support_rows_computed_once_when_shelling_and_type_share_an_analysis(monkeypatch):
    fact = Analysis.__dict__["support_rows"]
    computed = []
    compute = fact.compute

    def counted(facts):
        computed.append(facts)
        return compute(facts)

    monkeypatch.setattr(fact, "compute", counted)
    facts = Analysis(path_graph(9))
    stable_shelling(facts)
    cm_type(facts)
    components = [c for side in sides(facts) for c in side.components]
    assert len(components) == 2
    assert sorted(map(id, computed)) == sorted(map(id, components))


# ---------------------------------------------------------------------------
# socle dimension
# ---------------------------------------------------------------------------

def test_socle_paper_ideal():
    red = artinian_reduction(paper_labeled_tree())
    assert reduction_ideal(red) == PAPER_J
    assert socle_dimension(red) == socle_by_box(PAPER_J) == 2


def test_socle_p6_ideal():
    red = artinian_reduction(path_graph(6))
    assert reduction_ideal(red) == parse_ideal("2^2, 4^2, 2*4", ("2", "4"))
    assert socle_dimension(red) == socle_by_box(reduction_ideal(red)) == 2


def test_socle_principal_power():
    red = artinian_reduction(star_graph(5))
    assert reduction_ideal(red) == parse_ideal("l1^5", ("l1",))
    assert socle_dimension(red) == socle_by_box(reduction_ideal(red)) == 1


def test_socle_box_cap():
    # the corner count does not walk the box; the box oracle refuses it
    labels = tuple(f"{x}{i:04d}" for x in "xy" for i in range(4000))
    rows = (tuple(range(4000)), tuple(range(4000, 8000)))
    big = ArtinianReduction(labels=labels, rows=rows, masks=())
    assert reduction_ideal(big) == parse_ideal("x0000^4000, y0000^4000", ("x0000", "y0000"))
    assert big.ideal == "x0000^4000, y0000^4000"
    assert socle_dimension(big) == 1
    assert socle_dimension(ArtinianReduction(labels=labels, rows=rows, masks=(0b11,))) == 2
    with pytest.raises(EnumerationCapExceeded):
        socle_by_box(reduction_ideal(big))


def _interior_reductions(trees):
    for t in trees:
        for side in sides(Analysis(t)):
            for comp in side.components:
                yield artinian_reduction(comp)


def test_socle_corners_match_the_box_on_interior_components():
    trees = [*unmixed_corpus(5, 60), *(t for t, _ in balanced_corpus(7, 60))]
    trees += [generate(seed, seed % 12)[0] for seed in range(40)]
    checked = 0
    for red in _interior_reductions(trees):
        if prod(map(len, red.rows)) > 10**6:
            continue
        box = socle_by_box(reduction_ideal(red))
        assert socle_dimension(red) == socle_by_exponent_corners(red) == box
        checked += 1
    assert checked >= 500


def test_socle_row_sets_match_exponent_corners_past_the_box():
    # the box walk refuses or skips the largest components here (boxes of
    # 1.6*10^6 and 3.8*10^8); the corners on exponent vectors still run
    for seed, steps, big in ((7, 20, 126), (8, 40, 146)):
        reds = list(_interior_reductions([generate(seed, steps)[0]]))
        assert max(prod(map(len, red.rows)) for red in reds) > 10**6
        socles = [socle_dimension(red) for red in reds]
        assert socles == [socle_by_exponent_corners(red) for red in reds]
        assert max(socles) == big


def test_cm_type_of_a_mid_size_generated_tree():
    # 155 vertices; its largest interior component has socle dimension 6344
    assert cm_type(generate(9, 50)[0]).cm_type == 6344


def _reduction(lengths, masks) -> ArtinianReduction:
    """The reduction whose row i holds lengths[i] vertices x{i}_{k}, with
    the given row masks."""
    labels = tuple(f"x{i}_{k}" for i, n in enumerate(lengths) for k in range(n))
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    rows = tuple(tuple(range(start, start + n)) for start, n in zip(starts, lengths))
    return ArtinianReduction(labels=labels, rows=rows, masks=tuple(masks))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 5), min_size=n, max_size=n),
    st.lists(st.integers(1, (1 << n) - 1), max_size=6),
)))
def test_socle_corners_match_the_box_on_random_artinian_ideals(case):
    # random reductions: row i has length lengths[i], and a row mask of no
    # bits would be the unit monomial, which leaves no pure power
    lengths, masks = case
    red = _reduction(lengths, masks)
    assert socle_dimension(red) == socle_by_exponent_corners(red) == socle_by_box(reduction_ideal(red))


def test_socle_matches_counting_on_generated_trees():
    for seed in range(14):
        t, _ = generate(seed, seed % 8)
        red = artinian_reduction(t)
        assert socle_dimension(red) == len(minimal_v3_td_sets(t))


# ---------------------------------------------------------------------------
# parametric decomposition
# ---------------------------------------------------------------------------

def test_parametric_paper_example():
    red = artinian_reduction(paper_labeled_tree())
    dec = parametric_decomposition(red, paper_labeled_tree())
    assert dec.supports == (("u1", "u3"), ("u2",))
    assert dec.pure_powers == red.powers == (4, 2, 3)
    assert to_ideal_by_lcm(dec) == PAPER_J


def test_parametric_p6():
    t = path_graph(6)
    red = artinian_reduction(t)
    dec = parametric_decomposition(red, t)
    assert dec.supports == (("2",), ("4",))


def test_parametric_one_vertex():
    # no height-3 vertex: the empty set is the one V3-TD-set
    t = path_graph(0)
    dec = parametric_decomposition(artinian_reduction(t), t)
    assert dec.supports == ((),)


def test_parametric_height1_single_component():
    t = star_graph(4)
    red = artinian_reduction(t)
    dec = parametric_decomposition(red, t)
    assert dec.supports == ((),)
    assert to_ideal_by_lcm(dec) == reduction_ideal(red)


def test_to_ideal_refuses_a_parametric_decomposition():
    # pure powers are re-expanded only by the test oracle
    for t in (paper_labeled_tree(), star_graph(4), path_graph(6)):
        red = artinian_reduction(t)
        dec = parametric_decomposition(red, t)
        with pytest.raises(NotSquareFreeError) as exc:
            dec.to_ideal()
        want = reduction_pure_powers(red).render()
        assert str(exc.value) == f"not square-free: pure powers {want}"


def test_parametric_with_and_without_tree_agree():
    for seed in range(10):
        t, _ = generate(seed, 1 + seed % 6)
        red = artinian_reduction(t)
        assert parametric_supports_from_ideal(red) == parametric_decomposition(red, t).supports


def _reductions_for_the_renderer():
    """(reduction, Analysis) of every balanced unmixed tree on at most 10
    vertices, of the balanced trees of ``unmixed_corpus(5, 60)`` and of
    ``generate`` trees, and of every interior component of each."""
    trees = [t for t in trees_up_to(10) if t.graph.n and is_unmixed_fast(t).unmixed]
    trees += list(unmixed_corpus(5, 60))
    trees += [generate(seed, k)[0] for seed in range(10) for k in (seed % 5, 10)]
    for t in trees:
        facts = Analysis(t)
        if facts.balanced:
            yield artinian_reduction(facts), facts
        for layer in facts.interior_layers:
            for comp in layer.component_facts():
                yield artinian_reduction(comp), comp


def test_reduction_texts_and_supports_match_the_label_twins():
    # the texts are rendered from the rows and the supports collapsed on
    # masks; the twins build label monomials and substitute labels
    heights_seen = set()
    for red, facts in _reductions_for_the_renderer():
        assert red.variables == vset(red.variables) and len(red.variables) == len(red.rows)
        assert red.ideal == reduction_ideal(red).render()
        assert red.pure_powers == reduction_pure_powers(red).render()
        dec = parametric_decomposition(red, facts)
        subst = substitution_map(red)
        by_labels = sorted(vset(subst[v] for v in d) for d in minimal_v3_td_sets(facts))
        assert dec.supports == tuple(by_labels) == parametric_supports_from_ideal(red)
        assert dec.pure_powers == red.powers
        heights_seen.add(max(facts.height))
    # the one leaf row of height 0 or 1, and the support rows of height 3
    assert heights_seen == {0, 1, 3}


# ---------------------------------------------------------------------------
# V3 families
# ---------------------------------------------------------------------------

def test_v3_family_empty_target():
    fam = minimal_v3_td_sets(Forest(path_graph(0).graph))
    assert fam.sets == ((),)


def test_v3_family_p6():
    fam = minimal_v3_td_sets(Forest(path_graph(6).graph))
    assert fam.sets == (("2",), ("4",))


def test_v3_family_example_tb_forest():
    fam = minimal_v3_td_sets(example_tb_forest())
    assert fam.sets == (("v19",), ("v20",))


def test_v3_family_is_componentwise_product():
    f = example_tb_forest()
    per_component = [
        minimal_v3_td_sets(comp).sets for comp in Analysis(f).components
    ]
    combos = {()}
    for fam in per_component:
        combos = {tuple(sorted(a + b)) for a in combos for b in fam}
    assert set(minimal_v3_td_sets(f).sets) == combos


def test_example_tb_forest_component_socles():
    socles = [
        socle_dimension(artinian_reduction(comp))
        for comp in Analysis(example_tb_forest()).components
    ]
    assert sorted(socles) == [1, 1, 2]


# ---------------------------------------------------------------------------
# type reports
# ---------------------------------------------------------------------------

def test_type_p6():
    rep = cm_type(path_graph(6))
    assert rep.cm_type == 2
    assert {rep.m_blue, rep.m_red} == {1, 2}
    assert rep.depth == rep.dim == 3


def test_type_star():
    rep = cm_type(star_graph(4))
    assert rep.cm_type == 1
    # whole star on one interior side (depth n0 - 1), other side empty
    assert rep.depth == 3


def test_component_depth_of_low_components():
    assert algebra._component_depth([0]) == 1
    assert algebra._component_depth(list(heights(star_graph(4)).values())) == 3
    # path_graph(3) has a one-vertex interior component on each side
    assert cm_type(path_graph(3)).depth == 2


def test_type_fence_tree(fence_tree):
    rep = cm_type(fence_tree)
    assert rep.cm_type == 4
    assert (rep.m_blue, rep.m_red) == (2, 2)
    assert rep.socle_blue * rep.socle_red == 4


def test_type_rejects_mixed(paper_p4):
    with pytest.raises(MixedTreeError):
        cm_type(paper_p4)


def test_type_dim_matches_td_set_size():
    # dim(R/N(T)) = |V| - |minimal TD-set| for unmixed trees
    samples = [path_graph(6), path_graph(1), path_graph(3), star_graph(5)]
    for seed in range(8):
        t, _ = generate(seed, seed % 5)
        samples.append(t)
    for t in samples:
        rep = cm_type(t)
        family = minimal_td_sets(t)
        sizes = family.sizes()
        assert len(sizes) == 1
        assert rep.dim == t.graph.n - sizes[0]


def test_type_agreement_check_raises_on_a_wrong_socle(monkeypatch):
    socle = algebra.socle_dimension
    monkeypatch.setattr(algebra, "socle_dimension", lambda a: socle(a) + 1)
    with pytest.raises(TheoremViolation, match="disagree with socle"):
        check_type_agreement(seed=99991, count=3)


@pytest.mark.parametrize("seed, steps, expected", [(7, 20, 126), (8, 40, 146)])
def test_type_of_larger_generated_trees(seed, steps, expected):
    # generate(8, 40) has 91 vertices; its socle box is 3.76 * 10^8
    rep = cm_type(generate(seed, steps)[0])
    assert rep.cm_type == expected
    assert rep.cm_type == rep.m_blue * rep.m_red == rep.socle_blue * rep.socle_red


def test_type_multiplicative_over_interiors():
    for seed in range(10):
        t, _ = generate(seed, seed % 7)
        rep = cm_type(t)
        assert rep.cm_type == rep.m_blue * rep.m_red == rep.socle_blue * rep.socle_red


def test_minimal_td_sets_are_supports_plus_odd_family():
    # for height-3 unmixed balanced trees every minimal TD-set is the
    # supports together with a minimal odd-TD-set
    from totaldom.domination import minimal_s_td_sets
    from totaldom.graphs import classify_vertices

    for seed in range(8):
        t, _ = generate(seed, seed % 5)
        supports = set(classify_vertices(t).supports)
        odd_family = minimal_s_td_sets(t, odd_heights(heights(t)))
        expected = {tuple(sorted(supports | set(d))) for d in odd_family}
        assert set(minimal_td_sets(t).sets) == expected


def test_dim_of_odd_quotient():
    # dim(R/N_odd) = |V_even| - n2 on height-3 unmixed balanced trees,
    # matching the uniform size of the minimal odd-TD-sets
    from totaldom.domination import minimal_s_td_sets

    for seed in range(8):
        t, _ = generate(seed, 1 + seed % 5)
        hmap = heights(t)
        odd_family = minimal_s_td_sets(t, odd_heights(hmap))
        sizes = odd_family.sizes()
        assert sizes == (len(level(hmap, 2)),)


def test_socle_dimension_leaves_no_cyclic_garbage():
    # the corner count must free its vectors by reference counting alone
    red = artinian_reduction(paper_labeled_tree())
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert socle_dimension(red) == 2
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found == 0
