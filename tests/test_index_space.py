"""Square-free ideals, decompositions and complexes in index space against
their label-built twins.

The package builds N(G), the decompositions of ``decompose_squarefree`` and
``PrimeDecomposition.from_family``, the ideals of ``to_ideal`` and
``stanley_reisner_ideal`` and the complexes of ``stable_complex`` and
``stanley_reisner_complex`` on index data over one ``Ground`` and decodes
labels only when they are read. Each is compared here with the same object
built from labels by an oracle of ``tests/oracles.py``: ``==`` both ways,
before and after either side has decoded anything, ``hash``, the renderings
and the label readers. A label ideal (``LabelIdeal``) must decode from the
package's ideal and encode to it (``label_ideal``, ``squarefree_ideal``),
and the package's own functions also take the encoded label-built objects
as input.
"""

from __future__ import annotations

import pytest

from oracles import (
    LabelIdeal,
    Monomial,
    complex_from_facets,
    label_decomposition,
    label_ideal,
    minimal_td_sets_by_subsets,
    open_neighborhood_ideal_by_scan,
    squarefree_ideal,
    stanley_reisner_ideal_by_faces,
    to_ideal_by_lcm,
)
from totaldom.complexes import stable_complex, stanley_reisner_complex, stanley_reisner_ideal
from totaldom.domination import minimal_s_td_sets, minimal_td_sets
from totaldom.graphs import Graph, Tree
from totaldom.ideals import (
    MonomialIdeal,
    PrimeDecomposition,
    decompose_squarefree,
    open_neighborhood_ideal,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to


def _cases():
    """(graph, target) pairs: every tree on at most 8 vertices and seeded
    random trees on 9 to 11, each with every vertex, its supports (the
    ``--subset`` a report names) and a seeded random subset as target."""
    rng = Lcg64(27)
    graphs = [t.graph for t in trees_up_to(8)]
    graphs += [random_tree(rng, 9 + rng.randrange(3)).graph for _ in range(12)]
    for g in graphs:
        adj = g.adj
        supports = [g.labels[i] for i, nb in enumerate(adj) if any(len(adj[j]) == 1 for j in nb)]
        picked = [v for v in g.labels if rng.randrange(2)]
        yield g, None
        for target in (supports, picked):
            if target:
                yield g, target


CASES = list(_cases())
EDGE_CASES = {
    "empty graph": Graph((), ()),
    "isolated vertex": Graph(("a",), ()),
    "isolated vertex and an edge": Graph(("a", "b", "c"), [("b", "c")]),
    "single edge": Tree.from_edges([("a", "b")]).graph,
}


def _ideal_by_monomials(g: Graph, target) -> LabelIdeal:
    target = g.labels if target is None else target
    return LabelIdeal.from_gens(g.labels, [Monomial.of(*g.neighbors(v)) for v in target])


def _assert_same(built, twin, readers):
    """``built`` and ``twin`` equal both ways, before and after each is read,
    with equal hashes and equal ``readers``."""
    assert built == twin and twin == built
    assert not built != twin
    for read in readers:
        assert read(built) == read(twin)
    assert built == twin and twin == built
    assert hash(built) == hash(twin)


IDEAL_READERS = (
    lambda i: i.variables,
    lambda i: i.is_zero,
    lambda i: i.is_unit,
    lambda i: i.generator_strings(),
    lambda i: i.render(),
    repr,
    lambda i: label_ideal(i).gens,
)
DEC_READERS = (len, lambda d: d.variables, lambda d: d.supports, repr)
COMPLEX_READERS = (
    lambda d: d.ground, lambda d: d.is_void, lambda d: d.dim, repr, lambda d: d.facets,
)


def _assert_same_ideal(built: MonomialIdeal, twin):
    """``built`` against another ``MonomialIdeal``, or against a
    ``LabelIdeal`` that must decode from it, read the same and encode to
    an ideal equal to it."""
    if isinstance(twin, LabelIdeal):
        assert label_ideal(built) == twin
        for read in IDEAL_READERS:
            assert read(built) == read(twin)
        twin = squarefree_ideal(twin)
    _assert_same(built, twin, IDEAL_READERS)


def _check_ideal(g, target):
    for twin in (open_neighborhood_ideal_by_scan(g, target), _ideal_by_monomials(g, target)):
        _assert_same_ideal(open_neighborhood_ideal(g, target), twin)
    # a generator's string is the rendering of its decoded monomial
    ideal = open_neighborhood_ideal(g, target)
    assert ideal.generator_strings() == [m.render() for m in label_ideal(ideal).gens]


def _check_decomposition(g, target):
    ideal = open_neighborhood_ideal(g, target)
    twin = label_decomposition(g.labels, minimal_td_sets_by_subsets(g, target))
    dec = decompose_squarefree(ideal)
    _assert_same(decompose_squarefree(open_neighborhood_ideal(g, target)), twin, DEC_READERS)
    # the package's decomposition of an encoded label-built ideal
    assert decompose_squarefree(squarefree_ideal(open_neighborhood_ideal_by_scan(g, target))) == dec
    family = minimal_td_sets(g) if target is None else minimal_s_td_sets(g, target)
    assert PrimeDecomposition.from_family(family) == dec
    _assert_same(PrimeDecomposition.from_family(family), twin, DEC_READERS)
    # the re-expansion of both routes and of the lcm fold
    _assert_same_ideal(dec.to_ideal(), to_ideal_by_lcm(twin))
    _assert_same_ideal(decompose_squarefree(ideal).to_ideal(), ideal)
    assert twin.to_ideal() == ideal


def _complex_twin(g) -> object:
    """The stable complex from labels: the complements of the minimal
    TD-sets by subsets, cleaned by ``complex_from_facets``."""
    sets = minimal_td_sets_by_subsets(g)
    return complex_from_facets(g.labels, [[v for v in g.labels if v not in s] for s in sets])


def _check_stanley_reisner(g):
    twin = _complex_twin(g)
    ideal = open_neighborhood_ideal(g)
    by_scan = open_neighborhood_ideal_by_scan(g)
    _assert_same(stable_complex(g), twin, COMPLEX_READERS)
    _assert_same(stanley_reisner_complex(ideal), twin, COMPLEX_READERS)
    _assert_same(stanley_reisner_complex(squarefree_ideal(by_scan)), stable_complex(g),
                 COMPLEX_READERS)
    _assert_same_ideal(stanley_reisner_ideal(stable_complex(g)), by_scan)
    _assert_same_ideal(stanley_reisner_ideal(stable_complex(g)), stanley_reisner_ideal_by_faces(twin))
    # the package's translation of the label-built complex
    _assert_same_ideal(stanley_reisner_ideal(twin), ideal)


def test_ideals_match_label_routes():
    for g, target in CASES:
        _check_ideal(g, target)


def test_decompositions_match_label_routes():
    for g, target in CASES:
        _check_decomposition(g, target)


def test_stanley_reisner_pair_matches_label_routes():
    for g, target in CASES:
        if target is None:
            _check_stanley_reisner(g)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_label_routes(name):
    g = EDGE_CASES[name]
    _check_ideal(g, None)
    _check_decomposition(g, None)
    _check_stanley_reisner(g)


def test_edge_case_values():
    empty = open_neighborhood_ideal(EDGE_CASES["empty graph"])
    assert empty.is_zero and empty.render() == "0" and empty.rows == ()
    assert decompose_squarefree(empty).supports == ((),)
    assert decompose_squarefree(empty).to_ideal() == empty
    assert stable_complex(EDGE_CASES["empty graph"]).facets == ((),)
    for name in ("isolated vertex", "isolated vertex and an edge"):
        unit = open_neighborhood_ideal(EDGE_CASES[name])
        assert unit.is_unit and unit.render() == "1" and unit.rows == ((),)
        assert label_ideal(unit).gens == (Monomial.one(),)
        assert decompose_squarefree(unit).supports == ()
        assert stable_complex(EDGE_CASES[name]).is_void
        assert stanley_reisner_ideal(stable_complex(EDGE_CASES[name])) == unit
    edge = open_neighborhood_ideal(EDGE_CASES["single edge"])
    assert edge.render() == "a, b"
    assert decompose_squarefree(edge).supports == (("a", "b"),)
    assert stable_complex(EDGE_CASES["single edge"]).facets == ((),)


def test_objects_over_other_variables_differ():
    # the same index data over other labels is another object
    a = open_neighborhood_ideal(Tree.from_edges([("a", "b"), ("b", "c")]))
    b = open_neighborhood_ideal(Tree.from_edges([("x", "y"), ("y", "z")]))
    assert a.rows == b.rows
    assert a != b and b != a
    # and other index data over the same labels too
    assert MonomialIdeal(a.ground, a.rows[1:]) != a
    assert decompose_squarefree(a) != decompose_squarefree(b)
    assert stable_complex(Tree.from_edges([("a", "b"), ("b", "c")])) != stable_complex(
        Tree.from_edges([("x", "y"), ("y", "z")])
    )
