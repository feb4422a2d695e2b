"""Best-approximation sets: worked regimes, invariants, duality."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicone import (
    BACKWARD,
    FORWARD,
    OrderedSpace,
    QueryFamily,
    QcmInstance,
    Query,
    UnknownLabel,
    Vec,
    best_approximation_set,
    build_example3,
    build_example4,
    classify,
    duality_check,
    search_counterexample_witness,
    transpose,
)
from quasicone import approximation
from helpers import (
    axiom_tables, rational_grid, random_query, random_table_instance, seeded_instances,
)

H_GRID = rational_grid(0, 2, "1/4")
H_LABELS = frozenset(label for label, _ in H_GRID)


def alpha_instance_with_query(beta, alpha=1):
    """Slack-metric instance over the [0,2] quarter grid plus the query point."""
    beta = Fraction(beta)
    points = list(H_GRID)
    if all(value != beta for _, value in points):
        points.append((str(beta), beta))
    instance = build_example4(points, alpha)
    return instance, Query(str(beta), H_LABELS, FORWARD)


class TestWorkedRegimes:
    def test_query_above_grid_picks_top(self):
        instance, query = alpha_instance_with_query(5)
        result = best_approximation_set(instance, query)
        assert result.best == frozenset({"2"})
        assert result.common_distance == Vec.of(3, 3)

    def test_query_inside_grid_picks_itself(self):
        instance, query = alpha_instance_with_query("3/2")
        result = best_approximation_set(instance, query)
        assert result.best == frozenset({"3/2"})
        assert result.common_distance == Vec.zero(2)

    def test_query_below_grid_ties_everything(self):
        instance, query = alpha_instance_with_query(-3)
        result = best_approximation_set(instance, query)
        assert result.best == H_LABELS
        assert result.common_distance == Vec.of(1, 1)

    def test_direction_metric_whole_set(self):
        points = rational_grid(-5, -1, "1/2") + [("4", 4)]
        instance = build_example3(points)
        candidates = frozenset(label for label, _ in points if label != "4")
        result = best_approximation_set(instance, Query("4", candidates, FORWARD))
        assert result.best == candidates
        assert result.common_distance == Vec.of(1, 0)


def explicit(entries, labels, dim=2):
    space = OrderedSpace.orthant(dim)
    table = {(r, s): Vec.zero(dim) for r in labels for s in labels}
    table.update(entries)
    return QcmInstance(space, labels, table)


class TestEdgeCases:
    def test_incomparable_distances_empty_best(self):
        instance = explicit(
            {
                ("q", "h1"): Vec.of(1, 0),
                ("q", "h2"): Vec.of(0, 1),
                ("h1", "q"): Vec.of(1, 1),
                ("h2", "q"): Vec.of(1, 1),
                ("h1", "h2"): Vec.of(1, 1),
                ("h2", "h1"): Vec.of(1, 1),
            },
            ["h1", "h2", "q"],
        )
        result = best_approximation_set(instance, Query("q", {"h1", "h2"}))
        assert result.best == frozenset()
        assert result.common_distance is None
        assert result.minimal_front == {"h1", "h2"}
        assert result.stats.incomparable == 1 and result.stats.pairs == 1

    def test_query_in_candidates(self):
        instance, _ = alpha_instance_with_query("1/2")
        result = best_approximation_set(
            instance, Query("1/2", H_LABELS, FORWARD)
        )
        assert "1/2" in result.best
        assert result.common_distance == Vec.zero(2)

    def test_unknown_labels(self):
        instance, _ = alpha_instance_with_query(0)
        with pytest.raises(UnknownLabel):
            best_approximation_set(instance, Query("nope", H_LABELS))
        with pytest.raises(UnknownLabel):
            best_approximation_set(instance, Query("0", frozenset({"ghost"})))

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            Query("q", frozenset())

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            Query("q", frozenset({"h"}), "sideways")


class TestInvariants:
    def test_best_within_front_and_stats(self):
        for instance, query in seeded_instances(60, seed=101):
            result = best_approximation_set(instance, query)
            assert result.best <= result.minimal_front <= query.candidates
            n = len(query.candidates)
            assert result.stats.pairs == n * (n - 1) // 2
            assert result.stats.comparable + result.stats.incomparable == result.stats.pairs

    def test_equidistance(self):
        seen_multi = 0
        for instance, query in seeded_instances(80, seed=202):
            result = best_approximation_set(instance, query)
            if len(result.best) > 1:
                seen_multi += 1
            values = {
                instance.distance(query.q, h)
                if query.direction == FORWARD
                else instance.distance(h, query.q)
                for h in result.best
            }
            assert len(values) <= 1
            if result.best:
                assert values == {result.common_distance}
        assert seen_multi > 0  # the corpus must actually exercise ties

    def test_nonempty_best_equals_front(self):
        for instance, query in seeded_instances(40, seed=303):
            result = best_approximation_set(instance, query)
            if result.best:
                assert result.minimal_front == result.best

    def test_monotone_restriction(self):
        rng = random.Random(404)
        checked = 0
        for instance, query in seeded_instances(80, seed=404):
            result = best_approximation_set(instance, query)
            if len(query.candidates) < 2 or not result.best:
                continue
            sub = frozenset(
                rng.sample(sorted(query.candidates), len(query.candidates) - 1)
            )
            if not (result.best & sub):
                continue
            sub_result = best_approximation_set(
                instance, Query(query.q, sub, query.direction)
            )
            assert result.best & sub <= sub_result.best
            checked += 1
        assert checked > 10

    def test_scaling_leaves_results_unchanged(self):
        rng = random.Random(505)
        for instance, query in seeded_instances(20, seed=505):
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = QcmInstance(
                instance.space,
                instance.points,
                {(r, s): c * v for r, s, v in instance.entries()},
            )
            a = best_approximation_set(instance, query)
            b = best_approximation_set(scaled, query)
            assert a.best == b.best and a.minimal_front == b.minimal_front


class TestDuality:
    def test_alpha_metric_all_regimes(self):
        for beta in (-3, 0, "3/2", 2, 5):
            instance, query = alpha_instance_with_query(beta)
            assert duality_check(instance, query.q, query.candidates)

    def test_random_tables(self):
        for instance, query in seeded_instances(50, seed=606):
            assert duality_check(instance, query.q, query.candidates)

    def test_symmetric_table_forward_equals_backward(self):
        rng = random.Random(707)
        base = random_table_instance(rng, max_points=6)
        sym = {}
        for r, s, v in base.entries():
            if (s, r) in sym:
                continue
            sym[(r, s)] = v
            sym[(s, r)] = v
        instance = QcmInstance(base.space, base.points, sym)
        query = random_query(rng, instance)
        fwd = best_approximation_set(instance, Query(query.q, query.candidates, FORWARD))
        bwd = best_approximation_set(instance, Query(query.q, query.candidates, BACKWARD))
        assert fwd.best == bwd.best

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_duality_holds_on_any_table(self, data):
        # random explicit tables over random pointed cones, failing axioms included
        instance = data.draw(axiom_tables())
        labels = st.sampled_from(instance.points)
        q = data.draw(labels)
        candidates = data.draw(st.frozensets(labels, min_size=1))
        assert duality_check(instance, q, candidates)

    def test_backward_equals_forward_on_transpose_full_results(self):
        for instance, query in seeded_instances(30, seed=808):
            bwd = best_approximation_set(
                instance, Query(query.q, query.candidates, BACKWARD)
            )
            fwd = best_approximation_set(
                transpose(instance), Query(query.q, query.candidates, FORWARD)
            )
            assert bwd == fwd


class TestPairwiseScanCalls:
    @pytest.fixture
    def scans(self, monkeypatch):
        """Counts pairwise scans from here on."""
        calls = []
        scan = approximation._pairwise_scan

        def counting(points):
            calls.append(len(points))
            return scan(points)

        monkeypatch.setattr(approximation, "_pairwise_scan", counting)
        return calls

    def test_only_the_full_result_scans(self, scans):
        # below the grid every candidate ties, so the witness search runs
        instance, query = alpha_instance_with_query(-1)
        family = QueryFamily(tuple(instance.points), query.candidates)
        report = classify(instance, family)
        assert not report.chebyshev_holds
        assert duality_check(instance, query.q, query.candidates)
        found = search_counterexample_witness(instance, query.q, query.candidates)
        assert found is not None and found[1] == query.candidates
        assert scans == []
        for direction in (FORWARD, BACKWARD):
            best_approximation_set(instance, Query(query.q, query.candidates, direction))
        assert scans == [len(query.candidates)] * 2
