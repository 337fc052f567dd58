"""Differential tests of the bitmask kernels behind ``totaldom verify``.

Each kernel is compared with the label-level route it replaced, kept in
``tests/oracles.py``. ``==`` on ``MonomialIdeal`` compares the variables
and the ordered generator tuples, so it also checks the grlex order.

- ``PrimeDecomposition.to_ideal`` folds the primes on masks; the reference
  intersects them through lcms of exponent dicts (``to_ideal_by_lcm``).
- ``MinimalSetFamily`` reads sizes and the witness off masks; the reference
  reads them off label tuples.
- ``check_stanley_reisner`` computes I_S(G) once per tree and reuses
  complex(N(G)) for the round trip; a wrong translation in either direction
  must still fail it with the lines of the check that computes everything.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    berge_by_minimalize,
    family_readers_by_labels,
    level,
    neighbor_masks,
    odd_heights,
    to_ideal_by_lcm,
)
from totaldom import verify
from totaldom.complexes import (
    SimplicialComplex,
    stable_complex,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from totaldom.domination import minimal_s_td_sets, minimal_td_sets
from totaldom.errors import AmbientMismatchError, EnumerationCapExceeded
from totaldom.graphs import canonical_form, heights
from totaldom.ideals import (
    Monomial,
    MonomialIdeal,
    PrimeDecomposition,
    decompose_squarefree,
    open_neighborhood_ideal,
)
from totaldom.treegen import Lcg64, trees_up_to

TIER1 = settings(derandomize=True, max_examples=300, deadline=None, database=None)
# Caps up to the one the benchmark's mixedness requests use.
CAPS = (1, 4, 16, 60, 400)


@st.composite
def support_families(draw, max_vars: int = 7, max_supports: int = 6):
    """Variables in a shuffled order and supports over them, possibly empty,
    repeated or unsorted."""
    n = draw(st.integers(1, max_vars))
    variables = draw(st.permutations([f"x{i}" for i in range(n)]))
    supports = draw(st.lists(
        st.lists(st.sampled_from(variables), max_size=n), max_size=max_supports
    ))
    return tuple(variables), tuple(tuple(s) for s in supports)


# ---------------------------------------------------------------------------
# re-expansion of a decomposition
# ---------------------------------------------------------------------------

def test_to_ideal_matches_lcm_fold_on_trees(trees9):
    rng = Lcg64(9)
    for t in trees9:
        labs = t.graph.labels
        target = tuple(v for v in labs if rng.randrange(2)) or labs[:1]
        for ideal in (open_neighborhood_ideal(t), open_neighborhood_ideal(t, target)):
            dec = decompose_squarefree(ideal)
            got = dec.to_ideal()
            assert got == to_ideal_by_lcm(dec) == ideal


@TIER1
@given(support_families())
def test_to_ideal_matches_lcm_fold_on_support_families(case):
    variables, supports = case
    dec = PrimeDecomposition(variables=variables, supports=supports)
    assert dec.to_ideal() == to_ideal_by_lcm(dec)


def test_to_ideal_of_no_primes_is_the_unit_ideal():
    dec = PrimeDecomposition(variables=("b", "a"), supports=())
    assert dec.to_ideal() == to_ideal_by_lcm(dec)
    assert dec.to_ideal().is_unit


def test_to_ideal_names_the_same_unknown_variable():
    dec = PrimeDecomposition(variables=("a", "b"), supports=(("a",), ("z", "b", "y")))
    messages = []
    for route in (PrimeDecomposition.to_ideal, to_ideal_by_lcm):
        with pytest.raises(AmbientMismatchError) as exc:
            route(dec)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "generator uses unknown variables ['y']"


# ---------------------------------------------------------------------------
# family readers and the enumeration cap
# ---------------------------------------------------------------------------

def _family_outcome(t, cap):
    try:
        family = minimal_td_sets(t, cap=cap)
    except EnumerationCapExceeded as exc:
        return ("cap", str(exc)), None
    return sorted(family.masks), family


def _check_family(t, cap) -> bool:
    """The family's readers against label tuples, and its cap outcome
    against the reference Berge round; True when the cap was hit."""
    got, family = _family_outcome(t, cap)
    try:
        want = berge_by_minimalize(neighbor_masks(t.graph), cap=cap)
    except EnumerationCapExceeded as exc:
        want = ("cap", str(exc))
    assert got == want
    if family is None:
        return True
    readers = (family.sizes(), family.is_unmixed(), family.witness())
    assert readers == family_readers_by_labels(family.sets)
    assert len(family) == len(family.sets) == len(list(family))
    return False


def test_family_readers_match_label_tuples_on_trees(trees9):
    mixed = 0
    for t in trees9:
        _check_family(t, None)
        mixed += not minimal_td_sets(t).is_unmixed()
        hmap = heights(t)
        for target in (odd_heights(hmap), level(hmap, 3)):
            family = minimal_s_td_sets(t, target)
            readers = (family.sizes(), family.is_unmixed(), family.witness())
            assert readers == family_readers_by_labels(family.sets)
    assert mixed == 27  # the mixed trees among them


def test_family_readers_and_caps_match_on_mixedness_samples():
    capped = 0
    cases = 0
    for seed in range(20):
        for _, t in verify.mixedness_samples(seed, 4):
            for cap in CAPS:
                cases += 1
                capped += _check_family(t, cap)
    # both outcomes occur
    assert 0 < capped < cases


# ---------------------------------------------------------------------------
# the Stanley-Reisner check still catches a wrong translation
# ---------------------------------------------------------------------------

def _check_by_recompute(max_n: int):
    """``check_stanley_reisner`` computing each side of each condition anew,
    through the functions ``verify`` sees: (passed, checked, detail)."""
    failures = []
    checked = 0
    for t in trees_up_to(max_n):
        checked += 1
        ideal = open_neighborhood_ideal(t.graph)
        cx = stable_complex(t.graph)
        if verify.stanley_reisner_ideal(cx) != ideal:
            failures.append(f"I_S(G) != N(G) on {canonical_form(t)}")
        if verify.stanley_reisner_complex(ideal) != cx:
            failures.append(f"complex(N(G)) != S(G) on {canonical_form(t)}")
        if verify.stanley_reisner_complex(verify.stanley_reisner_ideal(cx)) != cx:
            failures.append(f"round trip failed on {canonical_form(t)}")
    detail = "; ".join(failures[:3]) if failures else "translation inverts"
    return not failures, checked, detail


def _extra_generator(d):
    i = stanley_reisner_ideal(d)
    return MonomialIdeal.from_gens(i.variables, i.gens + (Monomial.of(i.variables[0]),))


def _dropped_generator(d):
    i = stanley_reisner_ideal(d)
    return MonomialIdeal(variables=i.variables, gens=i.gens[1:])


def _dropped_facet(i):
    d = stanley_reisner_complex(i)
    return SimplicialComplex(ground=d.ground, facets=d.facets[1:])


def _dropped_facet_when_large(i):
    d = stanley_reisner_complex(i)
    return d if len(d.facets) < 3 else SimplicialComplex(ground=d.ground, facets=d.facets[:1])


@pytest.mark.parametrize(("name", "wrong"), [
    ("stanley_reisner_ideal", _extra_generator),
    ("stanley_reisner_ideal", _dropped_generator),
    ("stanley_reisner_complex", _dropped_facet),
    ("stanley_reisner_complex", _dropped_facet_when_large),
])
def test_sr_check_fails_on_a_wrong_translation(monkeypatch, name, wrong):
    monkeypatch.setattr(verify, name, wrong)
    got = verify.check_stanley_reisner(max_n=6)
    assert not got.passed
    assert (got.passed, got.checked, got.detail) == _check_by_recompute(6)
    condition = "I_S(G) != N(G)" if name == "stanley_reisner_ideal" else "complex(N(G)) != S(G)"
    assert condition in got.detail and "round trip failed" in got.detail

