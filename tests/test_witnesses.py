"""Witness certificates: construction, the three conditions, round trips."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quasicone import (
    ANCHOR_EQUALITY,
    BACKWARD,
    DimensionMismatch,
    FORWARD,
    GAP_NOT_IN_CONE,
    OrderedSpace,
    QcmInstance,
    SHIFT_NOT_IN_CONE,
    Query,
    UnknownLabel,
    Vec,
    WitnessTable,
    best_approximation_set,
    build_example3,
    build_example4,
    canonical_witness,
    default_witness_pool,
    directed_distance,
    instance_json,
    parse_instance,
    search_counterexample_witness,
    transpose,
    verify_witness_for_element,
    verify_witness_for_set,
)
from quasicone import witnesses
from quasicone.cones import kernel_vector
from quasicone.metric import _best_indices
from helpers import axiom_tables, pointed_cones, rational_grid, seeded_instances, vectors

H_GRID = rational_grid(0, 2, "1/4")
H_LABELS = frozenset(label for label, _ in H_GRID)


def alpha_instance(beta, alpha=1):
    beta = Fraction(beta)
    points = list(H_GRID)
    if all(v != beta for _, v in points):
        points.append((str(beta), beta))
    return build_example4(points, alpha)


class TestCanonicalWitness:
    def test_values_on_slack_metric(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        assert w.value("2") == Vec.of(3, 3)
        assert w.value("5") == Vec.zero(2)

    def test_values_on_direction_metric(self):
        points = rational_grid(-3, -1, 1) + [("4", 4)]
        instance = build_example3(points)
        w = canonical_witness(instance, "4")
        for label, value in points:
            if value < 4:
                assert w.value(label) == Vec.of(1, 0)

    def test_backward_uses_swapped_distance(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5", BACKWARD)
        assert w.value("2") == instance.distance("2", "5") == Vec.of(1, 1)

    def test_total_over_ground_set(self):
        instance = alpha_instance(0)
        w = canonical_witness(instance, "0")
        assert set(w.f) == set(instance.points)


class TestElementVerification:
    def test_best_member_verifies(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        assert verify_witness_for_element(instance, w, H_LABELS, "2").holds

    def test_non_member_fails_shift(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        verdict = verify_witness_for_element(instance, w, H_LABELS, "1")
        assert not verdict.holds
        assert verdict.failed_condition == SHIFT_NOT_IN_CONE
        point, value = verdict.counterexample
        assert point in H_LABELS
        assert not instance.space.cone.contains(value)

    def test_wrong_anchor_fails_first(self):
        instance = alpha_instance(5)
        table = dict(canonical_witness(instance, "5").f)
        table["2"] = Vec.of(7, 7)
        verdict = verify_witness_for_element(
            instance, WitnessTable("5", FORWARD, table), H_LABELS, "2"
        )
        assert verdict.failed_condition == ANCHOR_EQUALITY
        assert verdict.counterexample == ("2", Vec.of(7, 7))

    def test_inflated_table_fails_gap(self):
        instance = alpha_instance(5)
        canonical = canonical_witness(instance, "5")
        # keep the anchor exact but push every other value above its distance
        table = {
            x: v if x == "2" else v + Vec.of(1, 1) for x, v in canonical.f.items()
        }
        verdict = verify_witness_for_element(
            instance, WitnessTable("5", FORWARD, table), H_LABELS, "2"
        )
        assert not verdict.holds
        assert verdict.failed_condition == GAP_NOT_IN_CONE

    def test_zero_table_certifies_query_itself(self):
        instance = alpha_instance(1)  # 1 is a grid point, so q is in H
        zero = WitnessTable("1", FORWARD, {x: Vec.zero(2) for x in instance.points})
        assert verify_witness_for_element(instance, zero, H_LABELS, "1").holds

    def test_round_trip_on_random_instances(self):
        for instance, query in seeded_instances(60, seed=11):
            best = best_approximation_set(instance, query).best
            w = canonical_witness(instance, query.q, query.direction)
            for h in sorted(query.candidates):
                verdict = verify_witness_for_element(instance, w, query.candidates, h)
                assert verdict.holds == (h in best)
                if not verdict.holds:
                    assert verdict.failed_condition == SHIFT_NOT_IN_CONE

    def test_errors(self):
        instance = alpha_instance(0)
        w = canonical_witness(instance, "0")
        with pytest.raises(ValueError, match="not in the candidate set"):
            verify_witness_for_element(instance, w, {"0", "1"}, "2")
        partial = WitnessTable("0", FORWARD, {"0": Vec.zero(2)})
        with pytest.raises(ValueError, match=r"^witness\.f: no entry for point '1/4'$"):
            verify_witness_for_element(instance, partial, {"0", "1"}, "0")
        with pytest.raises(ValueError, match=r"^witness table has no value for point '1/4'$"):
            partial.value("1/4")

    def test_wrong_dimension_outside_the_candidates(self):
        # "5" is a point of the instance but not a candidate
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        ragged = WitnessTable("5", FORWARD, {**w.f, "5": Vec.of(0, 0, 0)})
        with pytest.raises(
            DimensionMismatch, match=r"^witness\.f\[9\]\[1\]: expected 2 coordinates, got 3$"
        ):
            verify_witness_for_element(instance, ragged, H_LABELS, "2")

    def test_label_of_f_that_is_not_a_point(self):
        instance = build_example4([("0", 0), ("1", 1), ("2", 2)], 1)
        canonical = canonical_witness(instance, "1")
        table = WitnessTable("1", FORWARD, {**canonical.f, "ghost": Vec.of(5, 5)})
        with pytest.raises(UnknownLabel, match="unknown point label 'ghost'"):
            verify_witness_for_set(instance, table, ["0", "1", "2"], ["1"])
        # the first such label in the order of f is named
        table = WitnessTable("1", FORWARD, {"spook": Vec.of(1, 1), **table.f})
        with pytest.raises(UnknownLabel, match="'spook'"):
            verify_witness_for_element(instance, table, ["0", "1", "2"], "1")


def face_members(cone):
    """Nonzero members of the cone that are zero on at least one of its rows:
    for every dimension - 1 rows, the members of the line they vanish on."""
    found = []
    for rows in itertools.combinations(cone.rows, cone.dimension - 1):
        line = kernel_vector(rows, cone.dimension)
        for u in () if line is None else (line, -line):
            if cone.contains(u) and u not in found:
                found.append(u)
    return found


@st.composite
def boundary_gap_cases(draw):
    """A table over a random solid pointed cone of dimension 2 or 3, with a
    face member u of the cone and a map from candidates to multiples of u,
    at least one of them nonzero. The row of q is d(q, h) = b and
    d(q, x) = b + c_x u + k_x m for the cone's interior point m, so h is a
    best candidate and f = d - c u keeps every shift in the cone. The
    column of q equals its row, so both directions see the same distances."""
    cone = draw(pointed_cones(max_rows=4).filter(lambda c: c.dimension >= 2 and c.is_solid))
    u = draw(st.sampled_from(face_members(cone)))  # a solid cone has a face
    member = cone.interior_point
    space = OrderedSpace(cone.dimension, cone)
    gaps = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any))
    gaps = {f"x{i}": c for i, c in enumerate(gaps)}
    base = member * draw(st.integers(0, 2))
    row = {"q": space.zero(), "h": base, "y": member}
    for x, c in gaps.items():
        row[x] = base + u * c + member * draw(st.integers(0, 1))
    table = {(r, s): space.zero() if r == s else member for r in row for s in row}
    for x, value in row.items():
        table["q", x] = table[x, "q"] = value
    return QcmInstance(space, list(row), table), u, gaps


class TestBoundaryGaps:
    """A witness f = d - g whose gap g is a nonzero member of the cone that
    is zero on some cone row: it lies on the cone's boundary, so the gap
    check must accept it, and must reject it pushed just outside."""

    def test_example4_gap_on_the_orthant_boundary(self):
        instance = build_example4(rational_grid(0, 4, 1), 1)
        candidates = ["0", "1", "3", "4"]
        f = dict(canonical_witness(instance, "2").f)
        assert f["0"] == Vec.of(2, 2)
        f["0"] = Vec.of(2, 1)
        verdict = verify_witness_for_element(instance, WitnessTable("2", FORWARD, f), candidates, "1")
        assert verdict.holds
        f["0"] = Vec.of(Fraction(2001, 1000), 1)
        verdict = verify_witness_for_element(instance, WitnessTable("2", FORWARD, f), candidates, "1")
        assert verdict.failed_condition == GAP_NOT_IN_CONE
        assert verdict.counterexample == ("0", Vec.of(Fraction(-1, 1000), 1))

    @settings(max_examples=150, deadline=None)
    @given(boundary_gap_cases())
    def test_a_gap_on_a_face_holds_and_one_just_outside_fails(self, case):
        instance, u, gaps = case
        candidates = ["h", *gaps]
        interior = instance.space.cone.interior_point
        for direction in (FORWARD, BACKWARD):
            d = {x: directed_distance(instance, "q", x, direction) for x in instance.points}
            f = {x: d[x] - u * gaps.get(x, 0) for x in d}
            witness = WitnessTable("q", direction, f)
            assert verify_witness_for_element(instance, witness, candidates, "h").holds
            # minus a small multiple of an interior point: negative on the
            # rows that are zero on u, and the shift stays in the cone
            x = next(x for x in sorted(gaps) if gaps[x])
            f[x] = f[x] + interior * Fraction(1, 1000)
            verdict = verify_witness_for_element(
                instance, WitnessTable("q", direction, f), candidates, "h"
            )
            assert verdict.failed_condition == GAP_NOT_IN_CONE
            assert verdict.counterexample == (x, d[x] - f[x])


class TestSetVerification:
    def test_best_set_verifies_and_non_subsets_fail(self):
        for instance, query in seeded_instances(40, seed=22):
            best = best_approximation_set(instance, query).best
            w = canonical_witness(instance, query.q, query.direction)
            members = sorted(best)
            for size in range(len(members) + 1):
                for m in itertools.combinations(members, size):
                    assert verify_witness_for_set(
                        instance, w, query.candidates, m
                    ).holds
            outside = sorted(query.candidates - best)
            for extra in outside[:3]:
                bad = best | {extra}
                assert not verify_witness_for_set(
                    instance, w, query.candidates, bad
                ).holds

    def test_empty_set_vacuous(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        assert verify_witness_for_set(instance, w, H_LABELS, set()).holds

    def test_members_must_be_candidates(self):
        instance = alpha_instance(5)
        w = canonical_witness(instance, "5")
        with pytest.raises(ValueError, match="not contained"):
            verify_witness_for_set(instance, w, {"0", "1"}, {"2"})

    def test_holding_verdict_implies_shared_anchor(self):
        for instance, query in seeded_instances(40, seed=33):
            best = best_approximation_set(instance, query).best
            if len(best) < 2:
                continue
            w = canonical_witness(instance, query.q, query.direction)
            assert verify_witness_for_set(instance, w, query.candidates, best).holds
            anchors = {
                directed_distance(instance, query.q, m, query.direction) for m in best
            }
            assert len(anchors) == 1


class TestSearch:
    def test_whole_set_tie_found(self):
        instance = alpha_instance(-3)
        found = search_counterexample_witness(instance, "-3", H_LABELS)
        assert found is not None
        witness, members = found
        assert members == H_LABELS
        assert verify_witness_for_set(instance, witness, H_LABELS, members).holds

    def test_singleton_best_yields_nothing(self):
        instance = alpha_instance("3/2")
        assert search_counterexample_witness(instance, "3/2", H_LABELS) is None

    def test_empty_best_yields_nothing(self):
        for instance, query in seeded_instances(60, seed=44):
            best = best_approximation_set(instance, query).best
            if best:
                continue
            assert (
                search_counterexample_witness(
                    instance, query.q, query.candidates, direction=query.direction
                )
                is None
            )
            # brute force: no two-element subset of an empty best set exists
            assert len(best) < 2

    def test_pool_is_respected(self):
        instance = alpha_instance(-3)
        zero_pool = [
            WitnessTable("-3", FORWARD, {x: Vec.zero(2) for x in instance.points})
        ]
        assert search_counterexample_witness(instance, "-3", H_LABELS, pool=zero_pool) is None

    def test_pool_table_for_another_query_is_rejected(self):
        # four points on the Q^2 orthant, every off-diagonal entry (1, 1)
        space = OrderedSpace.orthant(2)
        labels = ["a", "b", "c", "d"]
        one = Vec.of(1, 1)
        instance = QcmInstance(
            space, labels, {(r, s): space.zero() if r == s else one for r in labels for s in labels}
        )
        with pytest.raises(ValueError, match=r"pool\[0\] is a table for q='d' \(forward\); "
                                             r"the search is for q='a' \(forward\)"):
            search_counterexample_witness(
                instance, "a", ["b", "c"], pool=[canonical_witness(instance, "d")]
            )
        pool = [canonical_witness(instance, "a"), canonical_witness(instance, "a", BACKWARD)]
        with pytest.raises(ValueError, match=r"pool\[1\] is a table for q='a' \(backward\)"):
            search_counterexample_witness(instance, "a", ["b", "c"], pool=pool)
        assert search_counterexample_witness(instance, "a", ["b", "c"], pool=pool[:1]) == (
            pool[0], frozenset({"b", "c"})
        )

    def test_search_without_pool_checks_no_table(self, monkeypatch):
        # the canonical table certifies exactly the best set, so nothing is re-checked
        def unused(*args):
            raise AssertionError("the search without a pool checked a table")

        monkeypatch.setattr(witnesses, "_Conditions", unused)
        monkeypatch.setattr(witnesses, "default_witness_pool", unused)
        instance = alpha_instance(-3)
        assert search_counterexample_witness(instance, "-3", H_LABELS) == (
            canonical_witness(instance, "-3"), H_LABELS
        )

    def test_default_pool_shapes(self):
        instance = alpha_instance(5)
        pool = default_witness_pool(instance, "5")
        assert len(pool) == 3
        assert pool[1].value("2") == Fraction(1, 2) * pool[0].value("2")


@st.composite
def best_set_cases(draw):
    """A random explicit table biased toward ties, failing axioms included,
    with a random query point and a random candidate subset, often the
    whole ground set."""
    instance = draw(axiom_tables(ties=True))
    labels = st.sampled_from(instance.points)
    subsets = st.frozensets(labels, min_size=1) | st.just(frozenset(instance.points))
    return instance, draw(labels), draw(subsets)


class TestBestSetProperties:
    """The best set by three routes, in both directions: ``_best_indices``,
    the definition evaluated with ``space.leq``, and the canonical witness."""

    @settings(max_examples=150, deadline=None)
    @given(best_set_cases())
    def test_best_indices_equal_the_definition(self, case):
        """On the table of ``Vec``s and on its file-parsed copy, which reads
        its images from the literals."""
        instance, q, candidates = case
        for direction in (FORWARD, BACKWARD):
            d = {h: directed_distance(instance, q, h, direction) for h in candidates}
            definition = [
                h for h in sorted(candidates)
                if all(instance.space.leq(d[h], d[x]) for x in candidates)
            ]
            for side in (instance, parse_instance(instance_json(instance)).instance):
                labels, _, best_at = _best_indices(side, Query(q, candidates, direction))
                assert [labels[i] for i in best_at] == definition

    @settings(max_examples=150, deadline=None)
    @given(best_set_cases())
    def test_canonical_witness_certifies_exactly_the_best_set(self, case):
        instance, q, candidates = case
        for direction in (FORWARD, BACKWARD):
            labels, _, best_at = _best_indices(instance, Query(q, candidates, direction))
            best = frozenset(labels[i] for i in best_at)
            event(f"{direction}: best set of {'two or more' if len(best) >= 2 else 'fewer than two'}")
            w = canonical_witness(instance, q, direction)
            for h in labels:
                assert verify_witness_for_element(instance, w, candidates, h).holds == (h in best)
            for size in range(len(labels) + 1):
                for subset in itertools.combinations(labels, size):
                    assert verify_witness_for_set(instance, w, candidates, subset).holds == (
                        best.issuperset(subset)
                    )
            found = search_counterexample_witness(instance, q, candidates, direction=direction)
            assert found == ((w, best) if len(best) >= 2 else None)


@st.composite
def moved_witness_cases(draw):
    """A random table, query and candidate set, with the canonical table of
    a random direction where some entries are moved: down by the cone
    member that the table's entries are multiples of, which keeps each
    gap in the cone, or by any small vector."""
    instance, q, candidates = draw(best_set_cases())
    direction = draw(st.sampled_from((FORWARD, BACKWARD)))
    f = dict(canonical_witness(instance, q, direction).f)
    member = next((v for _, _, v in instance.entries() if not v.is_zero), None)
    shifts = st.just(member) if member is not None else st.nothing()
    for x in draw(st.lists(st.sampled_from(instance.points), unique=True)):
        f[x] = f[x] - draw(shifts | vectors(instance.space.dimension))
    return instance, WitnessTable(q, direction, f), candidates


def verdicts_hold(conditions):
    return [h for i, h in enumerate(conditions.candidates) if conditions.verdict(i).holds]


class TestCertified:
    """``_Conditions.certified`` decides from the images alone; it must
    name exactly the anchors whose full verdict holds."""

    @settings(max_examples=200, deadline=None)
    @given(moved_witness_cases())
    def test_equals_the_verdicts_on_moved_tables(self, case):
        instance, witness, candidates = case
        conditions = witnesses._Conditions(instance, witness, candidates)
        certified = conditions.certified()
        event(f"{min(len(certified), 2)} certified")
        assert certified == verdicts_hold(conditions)

    @settings(max_examples=100, deadline=None)
    @given(boundary_gap_cases())
    def test_equals_the_verdicts_on_face_gaps(self, case):
        instance, u, gaps = case
        candidates = ["h", *gaps]
        interior = instance.space.cone.interior_point
        for direction in (FORWARD, BACKWARD):
            d = {x: directed_distance(instance, "q", x, direction) for x in instance.points}
            f = {x: d[x] - u * gaps.get(x, 0) for x in d}
            x = next(x for x in sorted(gaps) if gaps[x])
            for table in (f, {**f, x: f[x] + interior * Fraction(1, 1000)}):
                conditions = witnesses._Conditions(
                    instance, WitnessTable("q", direction, table), candidates
                )
                assert conditions.certified() == verdicts_hold(conditions)
            assert "h" in verdicts_hold(witnesses._Conditions(
                instance, WitnessTable("q", direction, f), candidates
            ))


class TestBackwardMirrors:
    def test_backward_canonical_equals_forward_on_transpose(self):
        for instance, query in seeded_instances(20, seed=55):
            backward = canonical_witness(instance, query.q, BACKWARD)
            mirrored = canonical_witness(transpose(instance), query.q, FORWARD)
            assert backward.f == mirrored.f

    def test_backward_round_trip(self):
        for instance, query in seeded_instances(40, seed=66):
            q = Query(query.q, query.candidates, BACKWARD)
            best = best_approximation_set(instance, q).best
            w = canonical_witness(instance, q.q, BACKWARD)
            for h in sorted(q.candidates):
                assert (
                    verify_witness_for_element(instance, w, q.candidates, h).holds
                    == (h in best)
                )
