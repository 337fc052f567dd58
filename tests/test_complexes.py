from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_shellable,
    complex_faces,
    complex_from_facets,
    even_stable_shelling,
    LabelIdeal,
    Monomial,
    faces_by_divisibility,
    facet_vector,
    is_pure,
    labelled_order,
    shelling_by_pairs,
    sides,
    label_ideal,
    squarefree_ideal,
    stanley_reisner_ideal_by_faces,
    support_rows_by_labels,
    vector_facet,
    verify_labelled,
)
from totaldom import complexes, verify
from totaldom.complexes import (
    SimplicialComplex,
    even_stable_complex,
    join,
    ones_count,
    shelling_order,
    shelling_sort_key,
    stable_complex,
    stable_shelling,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    verify_shelling,
)
from totaldom.construct import generate
from totaldom.domination import MinimalSetFamily, minimal_td_sets
from totaldom.errors import (
    EnumerationCapExceeded,
    MixedTreeError,
    NotBalancedError,
    TheoremViolation,
)
from totaldom.graphs import Graph, path_graph, star_graph, vset
from totaldom.ideals import open_neighborhood_ideal
from totaldom.treegen import Lcg64
from totaldom.unmixed import Analysis, interior_graphs, is_balanced, is_unmixed_fast


def cx(ground, facets) -> SimplicialComplex:
    return complex_from_facets(ground, facets)


# ---------------------------------------------------------------------------
# stable complexes
# ---------------------------------------------------------------------------

def test_stable_complex_paper_path(paper_p4):
    sc = stable_complex(paper_p4)
    assert sc.facets == (("l1", "l2"), ("u",))
    assert not is_pure(sc)


def test_stable_complex_p6_pure():
    sc = stable_complex(path_graph(6))
    assert len(sc.facets) == 3
    assert is_pure(sc) and sc.dim == 2


def test_stable_complex_void_with_isolated_vertex():
    g = Graph.from_edges([("a", "b")], extra_vertices=["w"])
    sc = stable_complex(g)
    assert sc.is_void


def test_stable_complex_single_edge_empty_facet():
    sc = stable_complex(path_graph(1))
    assert sc.facets == ((),)
    assert not sc.is_void


def test_purity_iff_unmixed(trees10):
    for t in trees10[::2]:
        sc = stable_complex(t)
        assert is_pure(sc) == is_unmixed_fast(t).unmixed


def test_even_stable_star():
    sc = even_stable_complex(star_graph(4))
    assert sc.ground == ("l1", "l2", "l3", "l4")
    assert all(len(f) == 3 for f in sc.facets) and len(sc.facets) == 4


def test_even_stable_single_vertex():
    sc = even_stable_complex(path_graph(0))
    assert sc.facets == (("0",),)


def test_even_stable_p6():
    sc = even_stable_complex(path_graph(6))
    assert sc.ground == ("0", "2", "4", "6")
    assert sc.facets == (("0", "4"), ("0", "6"), ("2", "6"))


def test_even_stable_rejects_unbalanced(paper_p5):
    with pytest.raises(NotBalancedError):
        even_stable_complex(paper_p5)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def test_join_identity():
    d = cx(("a", "b"), [("a",), ("b",)])
    unit = cx((), [()])
    assert join(d, unit) == d


def test_join_distributes():
    got = join(cx(("a",), [("a",)]), cx(("b", "c"), [("b",), ("c",)]))
    assert got.facets == (("a", "b"), ("a", "c"))


def test_join_rejects_overlap():
    with pytest.raises(ValueError):
        join(cx(("a",), [("a",)]), cx(("a", "b"), [("b",)]))


def test_join_theorem_on_unmixed_samples(trees10):
    for t in trees10[::2]:
        if t.graph.n < 2 or not is_unmixed_fast(t).unmixed:
            continue
        ig = interior_graphs(t)
        joined = join(even_stable_complex(ig.blue), even_stable_complex(ig.red))
        assert set(joined.facets) == set(stable_complex(t).facets)


def test_package_complexes_need_no_cleaning(trees9):
    # facets are the complements of an antichain of masks, or a join's
    # products of two antichains over disjoint grounds, so deduplication,
    # the ground check and the maximality filter change nothing
    built = []
    for t in trees9:
        built += [stable_complex(t), stanley_reisner_complex(open_neighborhood_ideal(t))]
        if is_balanced(t):
            built.append(even_stable_complex(t))
    for t in verify.unmixed_corpus(424242, 30):
        ig = interior_graphs(t)
        built.append(join(even_stable_complex(ig.blue), even_stable_complex(ig.red)))
    for d in built:
        assert d == complex_from_facets(d.ground, d.facets)


# ---------------------------------------------------------------------------
# Stanley-Reisner
# ---------------------------------------------------------------------------

def test_sr_ideal_of_stable_complex_is_oni(paper_p4):
    assert stanley_reisner_ideal(stable_complex(paper_p4)) == open_neighborhood_ideal(paper_p4)


def test_sr_full_simplex_zero_ideal():
    full = cx(("a", "b"), [("a", "b")])
    assert stanley_reisner_ideal(full).is_zero
    assert stanley_reisner_complex(squarefree_ideal(LabelIdeal.from_gens(("a", "b"), []))) == full


def test_sr_unit_ideal_void_complex():
    got = stanley_reisner_complex(squarefree_ideal(LabelIdeal.unit(("a", "b"))))
    assert got.is_void
    assert stanley_reisner_ideal(got).is_unit


def test_sr_random_round_trips():
    rng = Lcg64(314)
    for _ in range(100):
        n = 1 + rng.randrange(8)
        ground = tuple(f"x{i}" for i in range(n))
        facets = []
        for _ in range(1 + rng.randrange(4)):
            f = tuple(v for v in ground if rng.randrange(2))
            facets.append(f)
        d = cx(ground, facets)
        ideal = stanley_reisner_ideal(d)
        back = stanley_reisner_complex(ideal)
        assert back == d
        assert stanley_reisner_ideal(back) == ideal
        # face sets agree with the divisibility definition
        assert complex_faces(d) == faces_by_divisibility(ideal)


def test_sr_sweep_matches_label_oracle_on_tree_complexes(trees9):
    # == on MonomialIdeal compares the ordered generator tuples
    for t in trees9:
        complexes_ = [stable_complex(t)]
        if is_balanced(t):
            complexes_.append(even_stable_complex(t))
        for d in complexes_:
            assert label_ideal(stanley_reisner_ideal(d)) == stanley_reisner_ideal_by_faces(d)


def test_sr_sweep_matches_label_oracle_on_void_and_empty_face():
    for ground in ((), ("a",), ("a", "b", "c")):
        void = cx(ground, [])
        empty_face = cx(ground, [()])
        assert void.is_void and not empty_face.is_void
        assert label_ideal(stanley_reisner_ideal(void)) == stanley_reisner_ideal_by_faces(void)
        assert stanley_reisner_ideal(void).is_unit
        got = stanley_reisner_ideal(empty_face)
        assert label_ideal(got) == stanley_reisner_ideal_by_faces(empty_face)
        assert label_ideal(got).gens == tuple(Monomial.of(v) for v in ground)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
))
def test_sr_sweep_matches_label_oracle_on_facet_lists(case):
    n, facet_masks = case
    ground = tuple(f"x{i}" for i in range(n))
    d = cx(ground, [
        tuple(v for i, v in enumerate(ground) if m >> i & 1) for m in facet_masks
    ])
    assert label_ideal(stanley_reisner_ideal(d)) == stanley_reisner_ideal_by_faces(d)


# ---------------------------------------------------------------------------
# shelling verification
# ---------------------------------------------------------------------------

def test_single_facet_trivially_shellable():
    d = cx(("a", "b"), [("a", "b")])
    assert verify_labelled(d, d.facets).ok


def test_disjoint_vertices_shellable():
    d = cx(("a", "b"), [("a",), ("b",)])
    assert verify_labelled(d, d.facets).ok


def test_disjoint_edges_not_shellable():
    d = cx(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    check = verify_labelled(d, d.facets)
    assert not check.ok and check.failure_pair == (0, 1)
    assert brute_force_shellable(d) is None


def test_impure_rejected_immediately():
    d = cx(("a", "b", "c"), [("a", "b"), ("c",)])
    assert not verify_labelled(d, d.facets).ok


def test_order_must_be_permutation():
    d = cx(("a", "b"), [("a",), ("b",)])
    with pytest.raises(ValueError):
        verify_labelled(d, [("a",), ("a",)])


def test_bad_order_on_shellable_complex():
    # a new facet must meet the earlier ones in codimension 1, so walking a
    # path out of order breaks exactly at the detached step
    d = cx(
        ("a", "b", "c", "d"),
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    good = verify_labelled(d, [("a", "b"), ("b", "c"), ("c", "d")])
    assert good.ok
    bad = verify_labelled(d, [("a", "b"), ("c", "d"), ("b", "c")])
    assert not bad.ok and bad.failure_pair == (0, 1)
    assert brute_force_shellable(d) is not None


def test_witnesses_certify_condition():
    d = cx(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    order = labelled_order(d, d.facets)
    check = order.check
    assert check.ok
    facets = d.facets
    witnesses = order.to_json_dict()["witnesses"]
    assert len(witnesses) == check.witness_count == 3
    for w in witnesses:
        diff = set(facets[w["j"]]) - set(facets[w["k"]])
        assert diff == {w["v"]}
        assert w["v"] not in set(facets[w["i"]])


def assert_matches_pairwise_scan(d, order):
    """Restriction sets and the pairwise oracle agree on the verdict, the
    failing pair and the full witness list ``shelling --json`` prints."""
    labelled = labelled_order(d, order)
    check = labelled.check
    ok, pure, failure_pair, witnesses = shelling_by_pairs(d, order)
    assert (check.ok, check.pure, check.failure_pair) == (ok, pure, failure_pair)
    emitted = labelled.to_json_dict()
    assert emitted["check"]["reformulation_agrees"] is True
    assert emitted["witnesses"] == witnesses
    assert emitted["check"]["witness_count"] == len(witnesses)
    return check


def test_restriction_sets_match_pairwise_scan_on_verify_orders(monkeypatch):
    # every order the facet-vector and join shelling checks of ``verify``
    # produce at their default seeds
    orders = []
    original = complexes.verify_shelling

    def recorded(ground, order):
        orders.append((ground, tuple(order)))
        return original(ground, order)

    monkeypatch.setattr(complexes, "verify_shelling", recorded)
    assert verify.check_vector_shelling().passed
    assert verify.check_join_shelling().passed
    monkeypatch.undo()
    assert len(orders) == 300
    for ground, order in orders:
        # an order of facet masks in a ground mask: label bit i by i
        bits = [i for i in range(ground.bit_length()) if ground >> i & 1]
        order = [tuple(f"v{i:04d}" for i in bits if m >> i & 1) for m in order]
        d = cx([f"v{i:04d}" for i in bits], order)
        assert assert_matches_pairwise_scan(d, order).ok


def test_restriction_sets_match_pairwise_scan_on_reordered_stable_complexes(trees8):
    # forward, reversed and shuffled facet orders, so failing pairs occur
    rng = Lcg64(8)
    failing = 0
    for t in trees8:
        if t.graph.n < 2 or not is_unmixed_fast(t).unmixed:
            continue
        d = stable_complex(t)
        shuffled = list(d.facets)
        for i in range(len(shuffled) - 1, 0, -1):
            k = rng.randrange(i + 1)
            shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
        for order in (stable_shelling(t).facets, d.facets, d.facets[::-1], shuffled):
            failing += not assert_matches_pairwise_scan(d, order).ok
    assert failing


def test_stable_shelling_witnesses_match_pairwise_scan(trees8):
    # the witnesses are read off the facet masks the order keeps over the
    # tree's vertices, not off its label facets
    checked = 0
    for t in trees8:
        if t.graph.n < 2 or not is_unmixed_fast(t).unmixed:
            continue
        order = stable_shelling(t)
        want = shelling_by_pairs(stable_complex(t), order.facets)[3]
        assert order.to_json_dict()["witnesses"] == want
        checked += 1
    assert checked


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
))
def test_restriction_sets_match_pairwise_scan_on_facet_lists(case):
    n, facet_masks = case
    ground = tuple(f"x{i}" for i in range(n))
    d = cx(ground, [
        tuple(v for i, v in enumerate(ground) if m >> i & 1) for m in facet_masks
    ])
    assert_matches_pairwise_scan(d, d.facets)
    assert_matches_pairwise_scan(d, d.facets[::-1])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, n),
        st.lists(st.permutations(range(n)), min_size=1, max_size=8),
    )
))
def test_restriction_sets_match_pairwise_scan_on_pure_facet_lists(case):
    # facets of one size, in the order drawn
    n, size, perms = case
    ground = tuple(f"x{i}" for i in range(n))
    order = list(dict.fromkeys(vset(ground[i] for i in p[:size]) for p in perms))
    assert_matches_pairwise_scan(cx(ground, order), order)


def test_brute_force_matches_exhaustive_verification():
    rng = Lcg64(2718)
    for _ in range(40):
        n = 3 + rng.randrange(4)
        ground = tuple(f"x{i}" for i in range(n))
        k = 2 + rng.randrange(2)
        facets = set()
        for _ in range(2 + rng.randrange(4)):
            from itertools import combinations

            combos = list(combinations(ground, k))
            facets.add(combos[rng.randrange(len(combos))])
        d = cx(ground, sorted(facets))
        if not is_pure(d) or len(d.facets) > 6:
            continue
        found = brute_force_shellable(d)
        some_order_works = any(
            verify_labelled(d, p).ok for p in permutations(d.facets)
        )
        assert (found is not None) == some_order_works
        if found is not None:
            assert verify_labelled(d, found).ok


def test_brute_force_cap():
    d = cx(tuple("abcdefghijklmn"), [(c,) for c in "abcdefghijklmn"])
    with pytest.raises(EnumerationCapExceeded):
        brute_force_shellable(d, max_facets=5)


# ---------------------------------------------------------------------------
# facet vectors and the explicit order
# ---------------------------------------------------------------------------

def test_vector_order_example_from_text():
    # same 1-count, so lexicographic comparison decides
    assert shelling_sort_key((1, 2, 1, 2)) < shelling_sort_key((3, 1, 2, 1))
    assert ones_count((1, 2, 1, 2)) == ones_count((3, 1, 2, 1)) == 2


def test_all_ones_vector_first():
    vecs = [(2, 1), (1, 1), (1, 2), (2, 2)]
    assert sorted(vecs, key=shelling_sort_key)[0] == (1, 1)


def test_p6_shelling_order():
    order = shelling_order(path_graph(6))
    assert order.vectors == ((1, 1), (1, 2), (2, 1))
    assert order.check.ok


def test_facet_vector_round_trip():
    t, _ = generate(12, 6)
    rows = support_rows_by_labels(Analysis(t))
    sc = even_stable_complex(t)
    for f in sc.facets:
        vec = facet_vector(rows, sc.ground, f)
        assert all(1 <= a <= len(row) for a, row in zip(vec, rows))
        assert vector_facet(rows, sc.ground, vec) == f


def test_facet_intersection_cardinality():
    t, _ = generate(3, 5)
    rows = support_rows_by_labels(Analysis(t))
    sc = even_stable_complex(t)
    vecs = {f: facet_vector(rows, sc.ground, f) for f in sc.facets}
    for f1 in sc.facets:
        for f2 in sc.facets:
            differing = sum(1 for a, b in zip(vecs[f1], vecs[f2]) if a != b)
            assert len(set(f1) & set(f2)) == sc.dim + 1 - differing


def test_entry_replacement_stays_facet():
    t, _ = generate(21, 5)
    rows = support_rows_by_labels(Analysis(t))
    sc = even_stable_complex(t)
    facets = set(sc.facets)
    for f in sc.facets:
        vec = list(facet_vector(rows, sc.ground, f))
        for i, a in enumerate(vec):
            if a == 1:
                continue
            for c in range(1, len(rows[i]) + 1):
                replaced = vec.copy()
                replaced[i] = c
                assert vector_facet(rows, sc.ground, tuple(replaced)) in facets


def test_shelling_order_rejects_mixed(paper_p4):
    with pytest.raises((MixedTreeError, NotBalancedError)):
        shelling_order(paper_p4)


@pytest.mark.parametrize("t", [path_graph(0), star_graph(3)])
def test_shelling_order_rejects_low_height(t):
    with pytest.raises(ValueError, match="defined for height-3 trees"):
        shelling_order(t)


def test_vector_order_agrees_with_brute_force_search():
    for seed in range(6):
        t, _ = generate(seed, 3)
        sc = even_stable_complex(t)
        if len(sc.facets) > 9:
            continue
        order = shelling_order(t)
        assert order.check.ok
        assert brute_force_shellable(sc) is not None


# ---------------------------------------------------------------------------
# composed shellings
# ---------------------------------------------------------------------------

def test_forest_shelling_two_stars():
    from totaldom.graphs import Forest

    edges = [("s", f"l{i}") for i in (1, 2, 3)]
    edges += [("t", f"m{i}") for i in (1, 2)]
    f = Forest.from_edges(edges)
    order = even_stable_shelling(f)
    assert order.check.ok
    assert len(order.facets) == 3 * 2


@pytest.mark.parametrize("t, facets", [
    # one height-1 interior component, the other side empty
    (star_graph(3), (("l1", "l2"), ("l1", "l3"), ("l2", "l3"))),
    # a one-vertex interior component on each side
    (path_graph(3), (("0", "3"),)),
])
def test_stable_shelling_of_low_interior_components(t, facets):
    order = stable_shelling(t)
    assert order.facets == facets
    assert order.vectors is None and order.check.ok


def test_low_interior_components_keep_label_order():
    # no support rows: every facet vector is empty, so the order is sorted
    checked = 0
    for t in verify.unmixed_corpus(7, 40):
        for side in sides(Analysis(t)):
            for c in side.components:
                if max(c.height) > 1:
                    continue
                d = even_stable_complex(c)
                even, facets, _ = complexes._facet_vector_order(c, None)
                labels_of = c.forest.graph.labels_of
                assert labels_of(even) == d.ground
                assert [labels_of(f) for f in facets] == sorted(d.facets)
                checked += 1
    assert checked >= 10


def test_stable_shelling_single_component_reduces():
    t = path_graph(6)
    order = stable_shelling(t)
    sc = stable_complex(t)
    assert set(order.facets) == set(sc.facets)
    assert order.check.ok


@pytest.mark.parametrize("n", [6, 9])
def test_stable_shelling_verifies_one_order(monkeypatch, n):
    # path_graph(6) has one height-3 interior component, path_graph(9) two;
    # only their composed order is verified
    calls = []

    def counted(d, order):
        calls.append(d)
        return verify_shelling(d, order)

    monkeypatch.setattr(complexes, "verify_shelling", counted)
    assert stable_shelling(path_graph(n)).check.ok
    assert len(calls) == 1


def test_stable_shelling_rejects_a_failing_component_order(monkeypatch):
    # reverse the blue component's facet-vector order of path_graph(9); the
    # red component keeps its order, and the composed check must fail
    vector_order = complexes._facet_vector_order
    patched = []

    def reversed_once(facts, cap):
        d, facets, vectors = vector_order(facts, cap)
        if patched:
            return d, facets, vectors
        patched.append(facts.side)
        assert not verify_shelling(d, facets[::-1]).ok
        return d, facets[::-1], vectors[::-1]

    monkeypatch.setattr(complexes, "_facet_vector_order", reversed_once)
    with pytest.raises(TheoremViolation, match="composed join order"):
        stable_shelling(path_graph(9))
    assert patched == ["blue"]


def test_facet_vectors_reject_a_complement_meeting_a_row_twice(monkeypatch):
    # add the whole first support row of path_graph(6), ("2", "0"), to every
    # minimal odd-TD-set
    facts = Analysis(path_graph(6))
    row = sum(1 << i for i in facts.support_rows[0])
    family = complexes._minimal_s_td_family

    def widened(g, target, cap):
        found = family(g, target, cap)
        return MinimalSetFamily(graph=found.graph, masks=tuple(m | row for m in found.masks))

    monkeypatch.setattr(complexes, "_minimal_s_td_family", widened)
    with pytest.raises(TheoremViolation, match="meets a support row 2 times"):
        shelling_order(facts)


def test_stable_shelling_rejects_a_join_that_misses_a_facet(monkeypatch):
    # one TD-set replaced by a copy of another: as many sets, one missing
    facts = Analysis(path_graph(9))
    found = facts.td_family(None)
    masks = (found.masks[1], *found.masks[1:])
    other = MinimalSetFamily(graph=found.graph, masks=masks)
    monkeypatch.setattr(facts, "td_family", lambda cap=None: other)
    with pytest.raises(TheoremViolation, match="does not match the stable complex"):
        stable_shelling(facts)


def test_stable_shelling_rejects_mixed(paper_p4):
    with pytest.raises(MixedTreeError):
        stable_shelling(paper_p4)


def test_stable_shelling_matches_td_count():
    t, _ = generate(77, 4)
    order = stable_shelling(t)
    assert len(order.facets) == len(minimal_td_sets(t))
