"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All quantities are integers, so every comparison here is exact; the only
tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import time

from oracles import label_ideal, parse_ideal, reduction_ideal
from totaldom.algebra import (
    artinian_reduction,
    cm_type,
    parametric_decomposition,
    socle_dimension,
)
from totaldom.complexes import (
    stable_complex,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from totaldom.construct import deconstruct, generate, replay
from totaldom.domination import minimal_s_td_sets, minimal_td_sets
from totaldom.graphs import Tree, canonical_form
from totaldom.ideals import decompose_squarefree, open_neighborhood_ideal
from totaldom.treegen import trees_up_to
from totaldom.unmixed import is_unmixed_fast
from totaldom.verify import (
    check_characterization,
    check_join_shelling,
    check_join_theorem,
    check_mixedness_theorems,
    check_roundtrip,
    check_type_agreement,
    check_vector_shelling,
)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_p5_restricted_ideal(paper_p5):
    start = time.monotonic()
    target = ("v2", "v4", "v6")
    ideal = open_neighborhood_ideal(paper_p5, target)
    expected = parse_ideal("v1*v3, v5", paper_p5.graph.labels)
    dec = decompose_squarefree(ideal)
    family = minimal_s_td_sets(paper_p5, target)
    elapsed = time.monotonic() - start
    ok = (
        label_ideal(ideal) == expected
        and dec.supports == (("v1", "v5"), ("v3", "v5"))
        and family.sets == dec.supports
        and family.is_unmixed()
        and elapsed < 1.0
    )
    report(1, ok, f"N_S(P5) = <v1*v3, v5>, supports {{v1,v5}},{{v3,v5}} in {elapsed:.3f}s")


def test_criterion_02_p4_mixedness(paper_p4):
    family = minimal_td_sets(paper_p4)
    dec = decompose_squarefree(open_neighborhood_ideal(paper_p4))
    ok = (
        family.sets == (("l1", "l2", "s1", "s2"), ("s1", "s2", "u"))
        and not family.is_unmixed()
        and not is_unmixed_fast(paper_p4).unmixed
        and dec.supports == family.sets
    )
    report(2, ok, "minimal TD-sets {s1,s2,u},{s1,s2,l1,l2}; verdict mixed; decomposition matches")


def test_criterion_03_characterization_oracle():
    result = check_characterization(max_n=10, seed=20240, samples=1000)
    ok = result.passed and result.seconds < 300 and result.checked >= 201 + 1000
    report(3, ok, f"{result.checked} trees, fast == brute force, {result.seconds:.1f}s (< 300s)")


def test_criterion_04_decomposition_theorem():
    failures = 0
    checked = 0
    for t in trees_up_to(10):
        checked += 1
        ideal = open_neighborhood_ideal(t)
        dec = decompose_squarefree(ideal)
        if dec.supports != minimal_td_sets(t).sets or dec.to_ideal() != ideal:
            failures += 1
    report(4, failures == 0, f"{checked} trees <= 10 vertices, supports == minimal TD-sets, re-expansion exact")


def test_criterion_05_stanley_reisner():
    failures = 0
    checked = 0
    for t in trees_up_to(9):
        checked += 1
        ideal = open_neighborhood_ideal(t)
        cx = stable_complex(t)
        if stanley_reisner_ideal(cx) != ideal:
            failures += 1
        if stanley_reisner_complex(ideal) != cx:
            failures += 1
        if stanley_reisner_complex(stanley_reisner_ideal(cx)) != cx:
            failures += 1
    report(5, failures == 0, f"{checked} trees <= 9 vertices, I_S(G) == N(G) and round trips exact")


def test_criterion_06_shelling():
    start = time.monotonic()
    vector = check_vector_shelling(seed=31337, count=200)
    joined = check_join_shelling(seed=424242, count=100)
    elapsed = time.monotonic() - start
    ok = (
        vector.passed
        and joined.passed
        and vector.checked >= 200
        and joined.checked >= 100
        and elapsed < 120
    )
    report(6, ok, f"{vector.checked} vector orders + {joined.checked} join orders shell, {elapsed:.1f}s (< 120s)")


def test_criterion_07_join_theorem():
    result = check_join_theorem(seed=424242, count=100)
    ok = result.passed and result.checked >= 100
    report(7, ok, f"S(T) == S_even(T_B) * S_even(T_R) on {result.checked} unmixed trees")


def test_criterion_08_type_formula(fence_tree):
    u123 = ("u1", "u2", "u3")
    paper_j = parse_ideal("u1^4, u2^2, u3^3, u1*u2, u2*u3", u123)

    # rebuild the same ideal from the labeled tree, count its socle and
    # decompose it
    edges = [("s1", "u1"), ("s2", "u2"), ("s3", "u3"), ("r1", "u1"), ("r1", "u2"), ("r2", "u2"), ("r2", "u3")]
    edges += [("s1", f"la{i}") for i in range(3)] + [("s2", "lb0")] + [("s3", f"lc{i}") for i in range(2)]
    labeled = Tree.from_edges(edges)
    red = artinian_reduction(labeled)
    socle = socle_dimension(red)
    dec = parametric_decomposition(red, labeled)

    fence_report = cm_type(fence_tree)
    corpus = check_type_agreement(seed=99991, count=100)
    ok = (
        reduction_ideal(red) == paper_j
        and red.ideal == paper_j.render()
        and socle == 2
        and len(dec.supports) == 2
        and dec.supports == (("u1", "u3"), ("u2",))
        and fence_report.cm_type == 4
        and corpus.passed
        and corpus.checked >= 100
    )
    report(8, ok, f"paper reduction has 2 components and socle 2; worked example type 4; "
                  f"{corpus.checked} corpus trees agree")


def test_criterion_09_constructive_roundtrip():
    result = check_roundtrip(seed=777, count=200)
    seven, _ = generate(2026, 7)
    trace = deconstruct(seven)
    seven_ok = len(trace) == 7 and canonical_form(replay(trace)) == canonical_form(seven)
    ok = result.passed and result.checked >= 200 and seven_ok
    report(9, ok, f"{result.checked} seeded roundtrips isomorphic, incl. a 7-step example shape")


def test_criterion_10_mixedness_theorems():
    result = check_mixedness_theorems(seed=5150, per_family=25)
    ok = result.passed and result.checked >= 75
    report(10, ok, f"{result.checked} balanced samples (distance-4 / height 2 / height >= 4) "
                   "all mixed with two-size witnesses")
