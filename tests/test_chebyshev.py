"""Chebyshev-family classification over finite query families."""
from fractions import Fraction

import pytest

from quasicone import (
    BACKWARD,
    EmbeddingRequired,
    FORWARD,
    OrderedSpace,
    QcmInstance,
    Query,
    QueryFamily,
    Vec,
    best_approximation_set,
    build_example4,
    classify,
    counterexample_to_theorem_form,
    transpose,
    verify_witness_for_set,
)
from helpers import rational_grid, seeded_instances

H_GRID = rational_grid(0, 2, "1/4")
H_LABELS = frozenset(label for label, _ in H_GRID)
SINGLETON_QUERIES = ("0", "1/2", "1", "3/2", "2", "3", "5")


def family_instance(queries, alpha=1):
    """Slack metric over the quarter grid, with extra query points added."""
    points = list(H_GRID)
    on_grid = {value for _, value in points}
    for q in queries:
        value = Fraction(q)
        if value not in on_grid:
            points.append((q, value))
            on_grid.add(value)
    return build_example4(points, alpha)


class TestWorkedFamilies:
    def test_singleton_regimes_hold(self):
        instance = family_instance(SINGLETON_QUERIES)
        report = classify(instance, QueryFamily(SINGLETON_QUERIES, H_LABELS, FORWARD))
        assert report.chebyshev_holds
        assert report.quasi_holds
        assert all(entry.cardinality == 1 for entry in report.census)
        assert counterexample_to_theorem_form(report, instance) == []

    def test_negative_query_flips_the_verdict(self):
        queries = SINGLETON_QUERIES + ("-1",)
        instance = family_instance(queries)
        report = classify(instance, QueryFamily(queries, H_LABELS, FORWARD))
        assert not report.chebyshev_holds
        assert report.quasi_holds
        (ce,) = report.chebyshev_counterexamples
        q, h1, h2 = ce
        assert q == "-1" and h1 != h2 and {h1, h2} <= H_LABELS

    def test_counterexample_packages_verify(self):
        queries = SINGLETON_QUERIES + ("-1",)
        instance = family_instance(queries)
        report = classify(instance, QueryFamily(queries, H_LABELS, FORWARD))
        packaged = counterexample_to_theorem_form(report, instance)
        assert len(packaged) == 1
        q, h1, h2, witness = packaged[0]
        verdict = verify_witness_for_set(instance, witness, H_LABELS, {h1, h2})
        assert verdict.holds


def incomparable_instance():
    labels = ["h1", "h2", "q"]
    space = OrderedSpace.orthant(2)
    table = {(r, s): Vec.of(1, 1) for r in labels for s in labels}
    for label in labels:
        table[(label, label)] = Vec.zero(2)
    table[("q", "h1")] = Vec.of(1, 0)
    table[("q", "h2")] = Vec.of(0, 1)
    return QcmInstance(space, labels, table)


class TestQueryFamily:
    @pytest.mark.parametrize(
        "queries,candidates,direction,message",
        [
            ((), H_LABELS, FORWARD, "at least one query point"),
            (("0",), (), FORWARD, "candidate set must be nonempty"),
            (("0",), H_LABELS, "sideways", "direction must be one of"),
            ((), "bc", FORWARD, "at least one query point"),
        ],
    )
    def test_rejects(self, queries, candidates, direction, message):
        with pytest.raises(ValueError, match=message):
            QueryFamily(queries, candidates, direction)

    @pytest.mark.parametrize(
        "queries,candidates,message",
        [("ab", {"bc"}, r"^queries must be a collection of labels, not 'ab'$"),
         (("0",), "bc", r"^candidates must be a collection of labels, not 'bc'$")],
        ids=["queries", "candidates"],
    )
    def test_a_string_is_not_a_label_collection(self, queries, candidates, message):
        # a string iterates over its characters: "ab" would be ("a", "b")
        with pytest.raises(ValueError, match=message):
            QueryFamily(queries, candidates)


class TestEmptyBestSets:
    def test_quasi_fails_on_empty_best(self):
        instance = incomparable_instance()
        report = classify(instance, QueryFamily(("q",), frozenset({"h1", "h2"})))
        assert not report.quasi_holds
        assert not report.chebyshev_holds  # empty is not a singleton either
        assert report.chebyshev_counterexamples == ()  # but exhibits no pair
        assert report.quasi_counterexamples[0][0] == "q"
        assert counterexample_to_theorem_form(report, instance) == []
        assert report.census[0].cardinality == 0


class TestPseudoCensus:
    def test_requires_embedding(self):
        instance = incomparable_instance()
        family = QueryFamily(("q",), frozenset({"h1", "h2"}))
        with pytest.raises(EmbeddingRequired):
            classify(instance, family, check_pseudo=True)

    def test_embedding_must_cover_candidates(self):
        instance = incomparable_instance()
        family = QueryFamily(("q",), frozenset({"h1", "h2"}))
        with pytest.raises(EmbeddingRequired, match="h2"):
            classify(instance, family, embedding={"h1": Vec.of(1, 0)}, check_pseudo=True)

    def test_ranks_recorded(self):
        instance = family_instance(("-1",))
        family = QueryFamily(("-1", "1"), H_LABELS, FORWARD)
        embedding = {label: Vec.of(value, value * value) for label, value in H_GRID}
        embedding["-1"] = Vec.of(-1, 1)
        report = classify(instance, family, embedding=embedding)
        assert report.pseudo_evaluated and report.pseudo_holds
        by_q = {entry.q: entry for entry in report.census}
        # the whole-grid tie spans the parabola points; a singleton has rank <= 1
        assert by_q["-1"].cardinality == len(H_LABELS)
        assert by_q["-1"].rank == 2
        assert by_q["1"].cardinality == 1 and by_q["1"].rank == 1

    def test_rank_zero_for_empty_best(self):
        instance = incomparable_instance()
        family = QueryFamily(("q",), frozenset({"h1", "h2"}))
        embedding = {"h1": Vec.of(1, 0), "h2": Vec.of(0, 1), "q": Vec.of(1, 1)}
        report = classify(instance, family, embedding=embedding)
        assert report.census[0].rank == 0

    def test_skipped_without_embedding(self):
        instance = incomparable_instance()
        report = classify(instance, QueryFamily(("q",), frozenset({"h1", "h2"})))
        assert not report.pseudo_evaluated
        assert report.pseudo_holds is None
        assert report.census[0].rank is None


class TestInvariants:
    def test_census_matches_recomputed_best_sets(self):
        for instance, query in seeded_instances(30, seed=909):
            family = QueryFamily(
                tuple(instance.points), query.candidates, query.direction
            )
            report = classify(instance, family)
            for entry in report.census:
                recomputed = best_approximation_set(
                    instance, Query(entry.q, family.candidates, family.direction)
                ).best
                assert entry.cardinality == len(recomputed)

    def test_multiplicity_iff_packaged(self):
        seen_failures = 0
        for instance, query in seeded_instances(40, seed=919):
            family = QueryFamily(
                tuple(instance.points), query.candidates, query.direction
            )
            report = classify(instance, family)
            packaged = counterexample_to_theorem_form(report, instance)
            multi = {
                entry.q for entry in report.census if entry.cardinality >= 2
            }
            assert {q for q, *_ in packaged} == multi
            seen_failures += bool(multi)
        assert seen_failures > 0

    def test_chebyshev_implies_quasi(self):
        for instance, query in seeded_instances(40, seed=929):
            family = QueryFamily(
                tuple(instance.points), query.candidates, query.direction
            )
            report = classify(instance, family)
            if report.chebyshev_holds:
                assert report.quasi_holds

    def test_backward_equals_forward_on_transpose(self):
        for instance, query in seeded_instances(25, seed=939):
            family_b = QueryFamily(tuple(instance.points), query.candidates, BACKWARD)
            family_f = QueryFamily(tuple(instance.points), query.candidates, FORWARD)
            backward = classify(instance, family_b)
            mirrored = classify(transpose(instance), family_f)
            assert backward.chebyshev_holds == mirrored.chebyshev_holds
            assert backward.quasi_holds == mirrored.quasi_holds
            assert [e.cardinality for e in backward.census] == [
                e.cardinality for e in mirrored.census
            ]

    def test_semantics_note_present(self):
        instance = incomparable_instance()
        report = classify(instance, QueryFamily(("q",), frozenset({"h1", "h2"})))
        assert "finite-instance semantics" in report.semantics
