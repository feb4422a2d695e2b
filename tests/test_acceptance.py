"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Every tolerance here is exact (the
library has no epsilons); the only numeric bounds are the stated runtime
budgets and the smoke-level speed ratio of criterion 9.
"""
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from quasicone import (
    BACKWARD,
    FORWARD,
    OrderedSpace,
    Query,
    QueryFamily,
    Vec,
    best_approximation_set,
    build_example3,
    build_example4,
    canonical_witness,
    classify,
    counterexample_to_theorem_form,
    directed_distance,
    duality_check,
    minimal_front_dnc,
    minimal_front_naive,
    transpose,
    verify_axioms,
    verify_witness_for_element,
    verify_witness_for_set,
)
from helpers import invoke, rational_grid, random_vec, seeded_instances

H_GRID = rational_grid(0, 2, "1/4")
H_LABELS = frozenset(label for label, _ in H_GRID)


def emit(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'} ({detail})")


def slack_instance_with_query(beta, alpha=1, direction=FORWARD):
    beta = Fraction(beta)
    points = list(H_GRID)
    if all(v != beta for _, v in points):
        points.append((str(beta), beta))
    instance = build_example4(points, alpha)
    return instance, Query(str(beta), H_LABELS, direction)


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random explicit-table instances over the Q^3 orthant,
    each with one query (|Q| <= 8, |H| <= 6), shared by criteria 5-8."""
    return seeded_instances(200, seed=2024, max_points=8, max_candidates=6, dim=3)


def test_criterion_01_order_facts():
    space = OrderedSpace.orthant(3)
    s, r = Vec.of(1, 4, 3), Vec.of(1, 4, 5)
    lt = space.lt(s, r)
    ll = space.ll(s, r)
    passed = lt is True and ll is False
    emit(1, passed, f"lt={lt}, ll={ll} on the Q^3 orthant")
    assert passed


def test_criterion_02_direction_metric_axioms():
    instance = build_example3(rational_grid(-5, 5, "1/2"))
    assert len(instance.points) == 21
    started = time.perf_counter()
    report = verify_axioms(instance)
    elapsed = time.perf_counter() - started
    passed = report.passed and report["QCM3"].checks == 9261 and elapsed <= 1.0
    emit(2, passed, f"9261 triples exhaustively checked in {elapsed:.2f}s")
    assert report.passed
    assert report["QCM3"].checks == 9261
    assert elapsed <= 1.0


@pytest.mark.parametrize("alpha", ["1/2", "1", "3"])
def test_criterion_03_slack_metric_axioms(alpha):
    instance = build_example4(rational_grid(-3, 3, "1/4"), alpha)
    started = time.perf_counter()
    report = verify_axioms(instance)
    elapsed = time.perf_counter() - started
    passed = report.passed and elapsed <= 5.0
    emit(3, passed, f"alpha={alpha}: {report['QCM3'].checks} triples in {elapsed:.2f}s")
    assert report.passed
    assert elapsed <= 5.0


def test_criterion_04_best_approximation_regimes():
    outcomes = []
    for beta, expected in ((-3, H_LABELS), ("3/2", {"3/2"}), (5, {"2"})):
        instance, query = slack_instance_with_query(beta)
        outcomes.append(best_approximation_set(instance, query).best == expected)
    negatives = rational_grid(-5, -1, "1/2")
    instance = build_example3(negatives + [("4", 4)])
    candidates = frozenset(label for label, _ in negatives)
    outcomes.append(
        best_approximation_set(instance, Query("4", candidates, FORWARD)).best
        == candidates
    )
    passed = all(outcomes)
    emit(4, passed, "beta=-3 -> H, beta=3/2 -> {3/2}, beta=5 -> {2}, q=4 -> H")
    assert passed


def test_criterion_05_membership_equivalence(corpus):
    started = time.perf_counter()
    discrepancies = 0
    checks = 0
    for instance, query in corpus:
        best = best_approximation_set(instance, query).best
        witness = canonical_witness(instance, query.q, query.direction)
        for h in sorted(query.candidates):
            verdict = verify_witness_for_element(instance, witness, query.candidates, h)
            checks += 1
            if verdict.holds != (h in best):
                discrepancies += 1
    elapsed = time.perf_counter() - started
    passed = discrepancies == 0 and elapsed <= 10.0
    emit(5, passed, f"{checks} membership checks, {discrepancies} discrepancies, {elapsed:.2f}s")
    assert discrepancies == 0
    assert elapsed <= 10.0


def test_criterion_06_subset_equivalence(corpus):
    discrepancies = 0
    checks = 0
    for instance, query in corpus:
        best = best_approximation_set(instance, query).best
        witness = canonical_witness(instance, query.q, query.direction)
        subsets = [
            frozenset(m)
            for size in range(len(best) + 1)
            for m in itertools.combinations(sorted(best), size)
        ]
        injected = [
            best | {extra} for extra in sorted(query.candidates - best)[:3]
        ]
        for members in subsets + injected:
            verdict = verify_witness_for_set(instance, witness, query.candidates, members)
            checks += 1
            if verdict.holds != (members <= best):
                discrepancies += 1
    passed = discrepancies == 0
    emit(6, passed, f"{checks} member sets checked, {discrepancies} discrepancies")
    assert discrepancies == 0


def test_criterion_07_equidistance(corpus):
    violations = 0
    nonempty = 0
    for instance, query in corpus:
        best = best_approximation_set(instance, query).best
        if not best:
            continue
        nonempty += 1
        values = {
            directed_distance(instance, query.q, h, query.direction) for h in best
        }
        if len(values) != 1:
            violations += 1
    passed = violations == 0 and nonempty > 0
    emit(7, passed, f"{nonempty} nonempty best sets, {violations} equidistance violations")
    assert violations == 0
    assert nonempty > 0


def test_criterion_08_duality(corpus):
    violations = 0
    cases = 0
    for instance, query in corpus:
        cases += 1
        if not duality_check(instance, query.q, query.candidates):
            violations += 1
    for beta in (-3, "3/2", 5):
        instance, query = slack_instance_with_query(beta)
        cases += 1
        if not duality_check(instance, query.q, query.candidates):
            violations += 1
    passed = violations == 0
    emit(8, passed, f"{cases} instances mirrored, {violations} violations")
    assert violations == 0


def test_criterion_09_minimal_front_equivalence_and_speed():
    rng = random.Random(4096)
    sizes = [10] * 20 + [100] * 20 + [1000] * 9 + [10000]
    mismatches = 0
    sets_checked = 0
    ratio = None
    for dim in (2, 3):
        space = OrderedSpace.orthant(dim)
        for size in sizes:
            values = [
                (f"v{i}", random_vec(rng, dim, 0, 200, (1, 2, 4, 8)))
                for i in range(size)
            ]
            t0 = time.perf_counter()
            naive = minimal_front_naive(values, space)
            t1 = time.perf_counter()
            fast = minimal_front_dnc(values, space)
            t2 = time.perf_counter()
            sets_checked += 1
            if naive != fast:
                mismatches += 1
            if dim == 2 and size == 10000:
                ratio = (t1 - t0) / (t2 - t1)
    passed = mismatches == 0 and ratio is not None and ratio >= 5.0
    emit(9, passed, f"{sets_checked} random sets equal, 10^4 Q^2 speed ratio {ratio:.0f}x")
    assert mismatches == 0
    assert sets_checked == 100
    assert ratio >= 5.0


def test_criterion_10_chebyshev_classification():
    queries = ("0", "1/2", "1", "3/2", "2", "3", "5")
    points = list(H_GRID)
    on_grid = {v for _, v in points}
    for q in queries + ("-1",):
        value = Fraction(q)
        if value not in on_grid:
            points.append((q, value))
            on_grid.add(value)
    instance = build_example4(points, 1)

    holding = classify(instance, QueryFamily(queries, H_LABELS, FORWARD))
    flipped = classify(instance, QueryFamily(queries + ("-1",), H_LABELS, FORWARD))
    packaged = counterexample_to_theorem_form(flipped, instance)
    reverified = bool(packaged) and all(
        q == "-1"
        and h1 != h2
        and verify_witness_for_set(instance, witness, H_LABELS, {h1, h2}).holds
        for q, h1, h2, witness in packaged
    )
    passed = holding.chebyshev_holds and not flipped.chebyshev_holds and reverified
    emit(
        10,
        passed,
        "singleton family holds; adding beta=-1 flips it and the packaged "
        "counterexample re-verifies",
    )
    assert holding.chebyshev_holds
    assert not flipped.chebyshev_holds
    assert reverified


def test_criterion_11_cli_determinism(tmp_path):
    instance_path = tmp_path / "slack.json"
    generate = invoke(
        ["example", "example4", "--grid", "0:2:1/4", "--alpha", "1", "--beta", "5",
         "--out", str(instance_path)],
    )
    assert generate.exit_code == 0
    identical = []
    for command in (["verify", "--seed", "7"], ["approx"], ["classify"]):
        outputs = []
        for run_index in (1, 2):
            out = tmp_path / f"{command[0]}-{run_index}.json"
            result = invoke([*command, instance_path, "--out", out])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        identical.append(outputs[0] == outputs[1])
    passed = all(identical)
    emit(11, passed, "verify/approx/classify reports byte-identical across reruns")
    assert passed
