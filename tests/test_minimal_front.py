"""The two minimal-front routes agree with each other and with a direct
definition-based oracle, on every cone and size we throw at them."""
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicone import (
    DimensionMismatch,
    MinimalFrontFallback,
    OrderedSpace,
    PolyhedralCone,
    Vec,
    minimal_front_dnc,
    minimal_front_naive,
)

from quasicone.approximation import _pairwise_scan

from helpers import pointed_cones, vectors

ORTHANT2 = OrderedSpace.orthant(2)
ORTHANT3 = OrderedSpace.orthant(3)
SKEW = OrderedSpace(2, PolyhedralCone(2, (Vec.of(2, -1), Vec.of(-1, 2))))


def oracle_front(values, space):
    """Directly quantify the definition: keep v unless something strictly
    precedes it."""
    values = list(values)
    return frozenset(
        label
        for label, vec in values
        if not any(space.lt(other, vec) for _, other in values)
    )


def random_values(rng, count, dim, lo=0, hi=12, denominators=(1, 2, 4)):
    values = []
    for i in range(count):
        if values and rng.random() < 0.15:  # force exact duplicates
            values.append((f"v{i}", values[rng.randrange(len(values))][1]))
        else:
            values.append(
                (
                    f"v{i}",
                    Vec(
                        tuple(
                            Fraction(rng.randint(lo, hi), rng.choice(denominators))
                            for _ in range(dim)
                        )
                    ),
                )
            )
    return values


class TestSmallCases:
    def test_three_point_front(self):
        values = [("a", Vec.of(1, 0)), ("b", Vec.of(0, 1)), ("c", Vec.of(1, 1))]
        assert minimal_front_naive(values, ORTHANT2) == {"a", "b"}
        assert minimal_front_dnc(values, ORTHANT2) == {"a", "b"}

    def test_singleton(self):
        values = [("only", Vec.of(3, "1/2"))]
        assert minimal_front_naive(values, ORTHANT2) == {"only"}
        assert minimal_front_dnc(values, ORTHANT2) == {"only"}

    def test_empty(self):
        assert minimal_front_naive([], ORTHANT2) == frozenset()
        assert minimal_front_dnc([], ORTHANT2) == frozenset()

    def test_duplicates_survive_together(self):
        values = [("a", Vec.of(0, 0)), ("b", Vec.of(0, 0)), ("c", Vec.of(1, 0))]
        for front in (minimal_front_naive(values, ORTHANT2), minimal_front_dnc(values, ORTHANT2)):
            assert front == {"a", "b"}

    def test_dominated_duplicates_excluded_together(self):
        values = [("a", Vec.of(2, 2)), ("b", Vec.of(2, 2)), ("c", Vec.of(1, 1))]
        for front in (minimal_front_naive(values, ORTHANT2), minimal_front_dnc(values, ORTHANT2)):
            assert front == {"c"}

    def test_equal_first_coordinate_groups(self):
        values = [
            ("a", Vec.of(1, 5)),
            ("b", Vec.of(1, 2)),
            ("c", Vec.of(1, 2)),
            ("d", Vec.of(2, 2)),
            ("e", Vec.of(2, 1)),
        ]
        expected = oracle_front(values, ORTHANT2)
        assert expected == {"b", "c", "e"}
        assert minimal_front_dnc(values, ORTHANT2) == expected

    def test_one_dimensional(self):
        space = OrderedSpace.orthant(1)
        values = [("a", Vec.of(2)), ("b", Vec.of(1)), ("c", Vec.of(1))]
        assert minimal_front_dnc(values, space) == {"b", "c"}
        assert minimal_front_naive(values, space) == {"b", "c"}


    @pytest.mark.parametrize("front", [minimal_front_naive, minimal_front_dnc])
    def test_wrong_dimension_names_the_label(self, front):
        values = [("a", Vec.of(1, 0)), ("b", Vec.of(1, 2, 3))]
        with pytest.raises(DimensionMismatch, match="value for 'b' has dimension 3, space has 2"):
            front(values, ORTHANT2)


def brute_force_scan(points):
    """Both directions of every pair, straight from the definition."""
    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    dominated = [any(leq(a, b) and a != b for a in points) for b in points]
    comparable = sum(
        leq(a, b) or leq(b, a) for i, a in enumerate(points) for b in points[i + 1:]
    )
    return dominated, comparable


class TestPairwiseScan:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * dim), max_size=30)
    ))
    def test_matches_brute_force(self, points):
        points += points[: len(points) // 3]  # exact duplicates, out of order
        assert _pairwise_scan(points) == brute_force_scan(points)


class TestFallbacks:
    def test_non_orthant_needs_no_fallback(self):
        values = [("a", Vec.of(1, 0)), ("b", Vec.of(0, 1)), ("c", Vec.of(2, 2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", MinimalFrontFallback)
            front = minimal_front_dnc(values, SKEW)
        assert front == minimal_front_naive(values, SKEW) == oracle_front(values, SKEW)

    def test_high_dimension_falls_back_with_warning(self):
        space = OrderedSpace.orthant(4)
        rng = random.Random(1)
        values = random_values(rng, 30, 4)
        with pytest.warns(MinimalFrontFallback):
            front = minimal_front_dnc(values, space)
        assert front == minimal_front_naive(values, space)

    def test_skew_cone_naive_matches_oracle(self):
        rng = random.Random(2)
        values = [
            (f"v{i}", Vec.of(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)))
            for i in range(40)
        ]
        assert minimal_front_naive(values, SKEW) == oracle_front(values, SKEW)


class TestEquivalence:
    @pytest.mark.parametrize("dim,space", [(2, ORTHANT2), (3, ORTHANT3)])
    @pytest.mark.parametrize("count", [10, 60, 250])
    def test_seeded_random_sets(self, dim, space, count):
        rng = random.Random(1000 + dim * count)
        for _ in range(5):
            values = random_values(rng, count, dim)
            naive = minimal_front_naive(values, space)
            fast = minimal_front_dnc(values, space)
            assert naive == fast
            assert naive == oracle_front(values, space)

    @pytest.mark.parametrize(
        "space,shape",
        [(ORTHANT2, lambda k, n: (k, n - k)), (ORTHANT3, lambda k, n: (k, n - k, k))],
        ids=["plane", "q3-head-insertion"],
    )
    def test_antichain(self, space, shape):
        # every point is minimal, so the staircase grows to the full set;
        # in Q^3 each new stair lands at its head
        n = 1200
        values = [(f"v{k}", Vec.of(*shape(k, n))) for k in range(n)]
        fast = minimal_front_dnc(values, space)
        assert fast == minimal_front_naive(values, space) == {label for label, _ in values}

    def test_thousand_points_q3(self):
        rng = random.Random(31)
        values = random_values(rng, 1000, 3)
        assert minimal_front_naive(values, ORTHANT3) == minimal_front_dnc(values, ORTHANT3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=40,
        )
    )
    def test_property_plane(self, raw):
        values = [(f"v{i}", Vec.of(a, b)) for i, (a, b) in enumerate(raw)]
        assert minimal_front_dnc(values, ORTHANT2) == minimal_front_naive(values, ORTHANT2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=40,
        )
    )
    def test_property_three_dims(self, raw):
        values = [(f"v{i}", Vec.of(a, b, c)) for i, (a, b, c) in enumerate(raw)]
        assert minimal_front_dnc(values, ORTHANT3) == minimal_front_naive(values, ORTHANT3)

    @settings(max_examples=80, deadline=None)
    @given(pointed_cones(max_rows=3), st.data())
    def test_property_any_cone_up_to_three_rows(self, cone, data):
        space = OrderedSpace(cone.dimension, cone)
        vecs = data.draw(st.lists(vectors(cone.dimension), max_size=30))
        vecs += vecs[: len(vecs) // 4]  # exact duplicates
        values = [(f"v{i}", v) for i, v in enumerate(vecs)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", MinimalFrontFallback)
            fast = minimal_front_dnc(values, space)
        assert fast == minimal_front_naive(values, space) == oracle_front(values, space)
