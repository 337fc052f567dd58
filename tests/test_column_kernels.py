"""Differential tests of the whole-family column kernels.

``graphs._columns`` transposes a family of masks into one int per vertex
with a bit per member. Three self-checks use it from a family size on,
and keep their member-by-member or pairwise loop below it:

- the S-TD recheck (``domination._failing_members``, from
  ``domination._COLUMNS_FROM`` members) against ``_is_minimal_s_td`` per
  member;
- irredundancy in the duality check of ``ideals.validate_decomposition``
  (``ideals._has_comparable_pair``, from ``ideals._COLUMNS_FROM``
  supports) against the test on every pair;
- the R_j test of ``complexes.verify_shelling`` (from
  ``complexes._COLUMNS_FROM`` facets) against the pairwise scan of
  ``tests/oracles.py``.

Every test draws families on both sides of its threshold and asserts that
it reached both.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complex_from_facets,
    labelled_order,
    level,
    neighbor_masks,
    odd_heights,
    shelling_by_pairs,
)
from totaldom import complexes, domination, ideals
from totaldom.complexes import _composed_order, verify_shelling
from totaldom.construct import generate
from totaldom.domination import (
    _failing_members,
    _is_minimal_s_td,
    minimal_s_td_sets,
    minimal_td_sets,
)
from totaldom.errors import TheoremViolation
from totaldom.graphs import _columns, heights
from totaldom.ideals import (
    PrimeDecomposition,
    _has_comparable_pair,
    open_neighborhood_ideal,
    validate_decomposition,
)
from totaldom.treegen import Lcg64, random_tree, trees_up_to
from totaldom.unmixed import Analysis

TIER1 = settings(derandomize=True, max_examples=200, deadline=None, database=None)
RECHECK_FROM = domination._COLUMNS_FROM
IRREDUNDANCY_FROM = ideals._COLUMNS_FROM
SHELLING_FROM = complexes._COLUMNS_FROM

# Whisker trees whose minimal TD-sets number from 8 to 172, on both sides
# of the irredundancy and shelling thresholds.
GENERATED = [generate(s, steps)[0] for s in range(12) for steps in (5, 6, 7)]


# ---------------------------------------------------------------------------
# the transpose
# ---------------------------------------------------------------------------

def test_columns_of_no_members_or_no_width():
    assert _columns([], 0) == []
    assert _columns([], 3) == [0, 0, 0]
    assert _columns([0, 0], 0) == []
    assert _columns((0,), 2) == [0, 0]


@TIER1
@given(st.integers(0, 70).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=90))
))
def test_columns_hold_member_bits(case):
    width, masks = case
    cols = _columns(masks, width)
    assert len(cols) == width
    for v, col in enumerate(cols):
        assert col == sum(1 << r for r, m in enumerate(masks) if m >> v & 1)


# ---------------------------------------------------------------------------
# the S-TD recheck
# ---------------------------------------------------------------------------

def _failing_by_members(g, family, smask) -> int:
    masks = neighbor_masks(g)
    return sum(1 << r for r, m in enumerate(family) if not _is_minimal_s_td(masks, m, smask))


@TIER1
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32),
    st.just(n),
    st.integers(0, (1 << n) - 1),
    st.lists(st.integers(0, (1 << n) - 1), max_size=3 * RECHECK_FROM),
)))
def test_column_recheck_matches_members_on_any_family(case):
    seed, n, smask, family = case
    g = random_tree(Lcg64(seed), n).graph
    target = [i for i in range(n) if smask >> i & 1]
    assert _failing_members(g.adj, family, target) == _failing_by_members(g, family, smask)


def _recheck_cases():
    """Trees with targets V, the odd heights and one leaf: every tree on at
    most 9 vertices, seeded random trees and whisker trees."""
    rng = Lcg64(28)
    trees = list(trees_up_to(9))
    trees += [random_tree(rng, 10 + rng.randrange(11)) for _ in range(30)]
    trees += GENERATED[::3]
    for t in trees:
        hmap = heights(t)
        for target in (t.graph.labels, odd_heights(hmap), level(hmap, 0)[:1]):
            yield t, target


def _corrupted(g, family):
    """The family, in mask order, with members made to fail: one grown by
    its lowest missing vertex (no longer minimal) or shrunk by its lowest
    vertex (no longer dominating), first, in the middle or last, and the
    middle one grown with the last shrunk, where the first failing member
    must be told from a later one."""
    def grow(m):
        return m | (~m & (m + 1)) if ~m & ((1 << g.n) - 1) else None

    def shrink(m):
        return m & (m - 1) if m else None

    last = len(family) - 1
    plans = [{r: f} for r in {0, last // 2, last} for f in (grow, shrink)]
    plans.append({last // 2: grow, last: shrink})
    out = []
    for plan in plans:
        bad = list(family)
        for r, f in plan.items():
            bad[r] = f(family[r])
        if None not in bad:
            out.append(sorted(bad))
    return out


def test_recheck_raises_at_the_first_failing_member_on_both_sides(monkeypatch):
    sizes = set()
    for t, target in _recheck_cases():
        g = t.graph
        family = list(minimal_s_td_sets(t, target).masks)
        smask = g.mask_of(target)
        idx = [g.index[v] for v in target]
        assert _failing_members(g.adj, family, idx) == 0
        if not family:
            continue
        sizes.add(len(family) >= RECHECK_FROM)
        for bad in _corrupted(g, family):
            failing = _failing_by_members(g, bad, smask)
            assert failing
            first = bad[(failing & -failing).bit_length() - 1]
            monkeypatch.setattr(
                domination, "minimal_transversal_masks", lambda edges, cap=None: bad
            )
            with pytest.raises(TheoremViolation) as exc:
                minimal_s_td_sets(t, target)
            monkeypatch.undo()
            assert str(exc.value) == (
                f"transversal {g.labels_of(first)} is not a verified minimal S-TD-set"
            )
    assert sizes == {False, True}


# ---------------------------------------------------------------------------
# irredundancy of a decomposition
# ---------------------------------------------------------------------------

def _comparable_by_pairs(masks) -> bool:
    return len(set(masks)) < len(masks) or any(
        a & b == a for a in masks for b in masks if a != b
    )


@TIER1
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(1, n),
    st.integers(0, 2**32),
    st.sampled_from(["none", "duplicate", "subset", "superset", "empty"]),
)))
def test_column_irredundancy_matches_pairs(case):
    # all k-subsets of n vertices (an antichain of up to 126 members), a
    # seeded part of them, and one injected comparable support
    n, k, seed, inject = case
    rng = Lcg64(seed)
    masks = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    masks = [m for m in masks if rng.randrange(4)] or masks
    if inject != "none":
        m = masks[rng.randrange(len(masks))]
        extra = {
            "duplicate": m,
            "subset": m & (m - 1),
            "superset": m | ((1 << n) - 1),
            "empty": 0,
        }[inject]
        masks.insert(rng.randrange(len(masks) + 1), extra)
    assert _has_comparable_pair(masks, n) == _comparable_by_pairs(masks)


def test_irredundancy_of_decompositions_on_both_sides_of_the_threshold():
    # each family is past ideals._COUNT_FROM, so a true decomposition is
    # proved by the count certificate and a corrupted one goes on to the
    # duality check, which must say the same when called directly
    sizes = set()
    for t in GENERATED:
        family = minimal_td_sets(t)
        ideal = open_neighborhood_ideal(t.graph)
        dec = PrimeDecomposition.from_family(family)
        assert len(dec) >= ideals._COUNT_FROM
        validate_decomposition(dec, ideal)
        ideals._check_by_duality(dec, ideal)
        sizes.add(len(family) >= IRREDUNDANCY_FROM)
        masks = family.masks
        middle = len(masks) // 2
        for extra in (masks[middle], masks[-1] | 1 << (t.graph.n - 1)):
            # the repeated or superset support added, and in place of another
            for kept in (masks, masks[:middle - 1] + masks[middle:]):
                bad = PrimeDecomposition(t.graph, tuple(sorted(kept + (extra,))))
                assert _comparable_by_pairs(bad.masks)
                for check in (validate_decomposition, ideals._check_by_duality):
                    with pytest.raises(TheoremViolation,
                                       match="^decomposition is not irredundant$"):
                        check(bad, ideal)
    assert sizes == {False, True}


# ---------------------------------------------------------------------------
# the restriction-set test of a shelling
# ---------------------------------------------------------------------------

def _labels(ground, masks):
    return [tuple(v for i, v in enumerate(ground) if m >> i & 1) for m in masks]


def _check_by_pairs(ground, masks):
    """``verify_shelling``'s verdict on an order of distinct facet masks
    over the labels ``ground``, and the pairwise scan's, as (ok, pure,
    failure_pair, witness_count)."""
    order = _labels(ground, masks)
    d = complex_from_facets(ground, order)
    check = labelled_order(d, order).check
    ok, pure, pair, witnesses = shelling_by_pairs(d, order)
    return (check.ok, check.pure, check.failure_pair, check.witness_count), (
        ok, pure, pair, len(witnesses)
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(5, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(2, 4),
    st.integers(0, 2**32),
    st.integers(0, 3),
)))
def test_column_shelling_matches_pairwise_scan(case):
    # the k-subsets of n vertices in lexicographic order shell the
    # (k-1)-skeleton of the simplex; a seeded part of them, and the order
    # with a few seeded swaps, mostly fail
    n, k, seed, swaps = case
    rng = Lcg64(seed)
    masks = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    if swaps:
        masks = [m for m in masks if rng.randrange(3)] or masks
        for _ in range(swaps):
            i, j = rng.randrange(len(masks)), rng.randrange(len(masks))
            masks[i], masks[j] = masks[j], masks[i]
    got, want = _check_by_pairs(tuple(f"x{i}" for i in range(n)), masks)
    assert got == want
    assert got[0] or swaps


def test_shelling_checks_on_both_sides_of_the_threshold():
    sizes = set()
    for t in GENERATED:
        g = t.graph
        ground, facets, check = _composed_order(Analysis(t).interior_layers)
        assert check.ok
        sizes.add(len(facets) >= SHELLING_FROM)
        for i, j in ((0, 0), (0, 1), (1, len(facets) - 1), (len(facets) // 2, len(facets) - 2)):
            order = list(facets)
            order[i], order[j] = order[j], order[i]
            got = verify_shelling(ground, order)
            want = _check_by_pairs(g.labels, order)[1]
            assert (got.ok, got.pure, got.failure_pair, got.witness_count) == want
    assert sizes == {False, True}


@pytest.mark.parametrize("size", [SHELLING_FROM - 1, SHELLING_FROM, 85])
def test_empty_restriction_impure_and_stray_orders_on_both_sides(size):
    # the first 3-subsets of 9 vertices in lexicographic order shell; a
    # facet on three new vertices adds all its faces, so its R_j is empty
    # and every earlier facet holds it: the pair loop fails at (0, j)
    shelled = [sum(1 << i for i in c) for c in combinations(range(9), 3)][:size - 1]
    assert len(shelled) == size - 1
    full = (1 << 12) - 1
    fresh = 0b111 << 9
    check = verify_shelling(full, shelled + [fresh])
    assert (check.ok, check.pure, check.failure_pair) == (False, True, (0, len(shelled)))
    got, want = _check_by_pairs(tuple(f"x{i}" for i in range(12)), shelled + [fresh])
    assert got == want
    impure = verify_shelling(full, shelled + [0b1111 << 8])
    assert (impure.ok, impure.pure, impure.failure_pair, impure.witness_count) == (
        False, False, None, 0
    )
    with pytest.raises(ValueError, match="facet mask outside the ground mask"):
        verify_shelling(full >> 1, shelled + [fresh])

