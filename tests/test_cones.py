"""Cone algebra: exact predicates, axiom checks, and order laws."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quasicone import (
    ConeNotPointed,
    ConeNotSolid,
    DimensionMismatch,
    NotARational,
    OrderedSpace,
    PolyhedralCone,
    Vec,
    as_rational,
    check_cone_axioms,
    exact_rank,
    format_rational,
    kernel_vector,
)
from quasicone import cones
from quasicone.cones import _nonnegative_solution, _reduced_echelon, _slack_solution, project
from quasicone.reports import _nonzero_member

from helpers import pointed_cones, vectors

ORTHANT2 = OrderedSpace.orthant(2)


def as_rational_any_length(text):
    """The value of a "p" or "p/q" literal, read in 1,000-digit chunks so no
    int() call meets the interpreter's int-string limit."""
    def read(digits):
        sign = -1 if digits.startswith("-") else 1
        digits = digits.lstrip("-")
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value
    numerator, _, denominator = text.partition("/")
    return Fraction(read(numerator), read(denominator) if denominator else 1)
ORTHANT3 = OrderedSpace.orthant(3)

# pointed, solid, but not the orthant: {x : 2a - b >= 0, -a + 2b >= 0}
SKEW_CONE = PolyhedralCone(2, (Vec.of(2, -1), Vec.of(-1, 2)))
SKEW = OrderedSpace(2, SKEW_CONE)

# pointed and not solid: y = 2x, z = 3x, x >= 0
RAY_CONE = PolyhedralCone(
    3,
    (Vec.of(2, -1, 0), Vec.of(-2, 1, 0), Vec.of(3, 0, -1), Vec.of(-3, 0, 1), Vec.of(1, 0, 0)),
)
# solid: it holds (1, -1, 4) strictly, though neither its row sum nor any row is inside
THIN_CONE = PolyhedralCone(3, (Vec.of(4, -4, -1), Vec.of(-4, 2, 2), Vec.of(2, 5, 1)))


def oracle_rank(rows):
    """Independent rank: largest square submatrix with nonzero determinant,
    by explicit minor expansion over all row/column subsets."""

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    for size in range(min(len(rows), ncols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), size):
            for ci in itertools.combinations(range(ncols), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return size
    return 0


class TestRationals:
    def test_literals(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("-7") == Fraction(-7)
        assert as_rational(5) == Fraction(5)
        assert as_rational(Fraction(1, 3)) == Fraction(1, 3)

    @pytest.mark.parametrize(
        "bad", ["1.5", "3/4/5", "a", "1e3", "", "1_0", "1/-2", "\u0661/\u0662", "\uff13"]
    )
    def test_bad_literals(self, bad):
        with pytest.raises(NotARational):
            as_rational(bad)

    def test_digit_limit(self):
        assert as_rational("-" + "9" * 4300) == -(10**4300 - 1)
        assert as_rational("1/" + "7" * 4300).denominator == int("7" * 4300)
        for bad in ("9" * 4301, "+" + "9" * 4301, "1/" + "7" * 4301):
            with pytest.raises(NotARational, match="a run of 4301 digits; at most 4300"):
                as_rational(bad)

    def test_floats_rejected(self):
        with pytest.raises(NotARational):
            as_rational(0.5)

    def test_zero_denominator(self):
        with pytest.raises(NotARational):
            as_rational("1/0")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 50_000), st.integers(1, 30_000), st.booleans(),
           st.randoms(use_true_random=False))
    def test_format_any_length(self, bits, denominator_bits, negative, rng):
        # past 4,300 digits str() raises; below it both must agree
        numerator = rng.getrandbits(bits)
        value = Fraction(-numerator if negative else numerator, rng.getrandbits(denominator_bits) | 1)
        text = format_rational(value)
        assert as_rational_any_length(text) == value
        if value.numerator.bit_length() < 14_000 and value.denominator.bit_length() < 14_000:
            assert text == str(value)

    def test_format_powers_of_ten(self):
        for digits in (4300, 4301, 6001, 20_000):
            assert format_rational(Fraction(10**digits)) == "1" + "0" * digits
            assert format_rational(Fraction(-(10**digits) + 1)) == "-" + "9" * digits


class TestVec:
    def test_arithmetic(self):
        a = Vec.of(1, "1/2")
        b = Vec.of("1/3", 2)
        assert a + b == Vec.of("4/3", "5/2")
        assert a - b == Vec.of("2/3", "-3/2")
        assert 3 * a == Vec.of(3, "3/2")
        assert a.dot(b) == Fraction(4, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Vec.of(1, 2) + Vec.of(1, 2, 3)

    def test_arithmetic_keeps_fractions(self):
        a, b = Vec.of(1, "1/2"), Vec.of("1/3", 2)
        for result in (a + b, a - b, -a, a * 2, 2 * a, a * "1/3"):
            assert all(type(c) is Fraction for c in result)
            assert result == Vec(tuple(result.coords))

    def test_indexing(self):
        v = Vec.of(1, "1/2", -3)
        assert (v[0], v[1], v[-1]) == (Fraction(1), Fraction(1, 2), Fraction(-3))
        with pytest.raises(IndexError):
            v[3]

    def test_only_exact_fractions_skip_coercion(self, monkeypatch):
        """A tuple of ``Fraction``s is kept as given; any other coordinate,
        a ``Fraction`` subclass included, sends every one through
        ``as_rational``, with its values and its errors."""
        class Half(Fraction):
            pass

        calls = []

        def counting(value):
            calls.append(value)
            return as_rational(value)

        monkeypatch.setattr(cones, "as_rational", counting)
        coords = (Fraction(1, 2), Fraction(-3), Fraction(0))
        assert Vec(coords).coords is coords
        assert Vec(iter(coords)).coords == coords
        assert Vec(()).coords == ()
        assert calls == []
        for given in ((1, Fraction(1, 2)), ("1/2", Fraction(1)), (Half(1, 2), Fraction(1))):
            calls.clear()
            assert Vec(given).coords == tuple(map(as_rational, given))
            assert calls == list(given)
        calls.clear()
        with pytest.raises(NotARational, match="booleans"):
            Vec((Fraction(1), True))
        assert calls == [Fraction(1), True]
        with pytest.raises(NotARational, match="floats"):
            Vec((Fraction(1), 0.5))


class TestMembership:
    def test_boundary_point_in_cone(self):
        assert ORTHANT3.cone.contains(Vec.of(0, 0, 2))

    def test_zero_in_cone(self):
        assert ORTHANT3.cone.contains(Vec.zero(3))

    def test_negative_component_outside(self):
        assert not ORTHANT2.cone.contains(Vec.of(-1, 0))

    def test_boundary_point_not_interior(self):
        assert not ORTHANT3.cone.interior_contains(Vec.of(0, 0, 2))

    def test_strictly_positive_interior(self):
        assert ORTHANT3.cone.interior_contains(Vec.of(1, 1, 1))

    def test_boundary_2d_not_interior(self):
        assert not ORTHANT2.cone.interior_contains(Vec.of(0, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ORTHANT3.cone.contains(Vec.of(1, 2))


class TestOrderPredicates:
    def test_comparable_triple(self):
        s, r = Vec.of(1, 4, 3), Vec.of(1, 4, 5)
        assert ORTHANT3.leq(s, r)
        assert ORTHANT3.lt(s, r)
        assert not ORTHANT3.ll(s, r)

    def test_leq_reflexive(self):
        x = Vec.of(1, 4, 3)
        assert ORTHANT3.leq(x, x)
        assert not ORTHANT3.lt(x, x)

    def test_leq_fails_downward(self):
        assert not ORTHANT3.leq(Vec.of(1, 4, 5), Vec.of(1, 4, 3))

    def test_ll_strict_interior(self):
        assert ORTHANT2.ll(Vec.of(0, 0), Vec.of(1, 1))

    def test_ll_refused_without_interior(self):
        ray = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(-1, 0), Vec.of(0, 1)))
        assert not ray.is_solid
        with pytest.raises(ConeNotSolid):
            ray.interior_contains(Vec.of(0, 1))


class TestConeConstruction:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralCone(2, (Vec.of(0, 0),))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralCone(2, ())

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
            PolyhedralCone(0, (Vec.of(1),))

    def test_supplied_interior_point_checked(self):
        with pytest.raises(ValueError):
            PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1)), Vec.of(1, 0))

    def test_supplied_interior_point_used(self):
        cone = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1)), Vec.of(2, 3))
        assert cone.interior_point == Vec.of(2, 3)

    def test_interior_search_on_skew_cone(self):
        assert SKEW_CONE.is_solid
        w = SKEW_CONE.interior_point
        assert all(row.dot(w) > 0 for row in SKEW_CONE.rows)

    def test_thin_solid_cone_is_solid(self):
        assert THIN_CONE.is_solid
        assert all(row.dot(THIN_CONE.interior_point) > 0 for row in THIN_CONE.rows)
        space = OrderedSpace(3, THIN_CONE)
        assert space.ll(Vec.zero(3), Vec.of(1, -1, 4))
        assert not space.ll(Vec.zero(3), Vec.zero(3))

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5, 6])
    def test_orthant_interior_point_is_all_ones(self, dimension):
        """The point the orthant is built with is the one the phase-1
        simplex finds for its rows."""
        cone = PolyhedralCone.orthant(dimension)
        ones = Vec((Fraction(1),) * dimension)
        assert cone.interior_point == ones
        assert _slack_solution(cone.rows, Fraction(1)) == ones

    def test_is_orthant(self):
        assert ORTHANT3.cone.is_orthant()
        scaled = PolyhedralCone(2, (Vec.of(2, 0), Vec.of(0, 3)))
        assert scaled.is_orthant()
        redundant = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1), Vec.of(1, 1)))
        assert redundant.is_orthant()
        assert not SKEW_CONE.is_orthant()
        halfplane_ish = PolyhedralCone(2, (Vec.of(1, 1), Vec.of(1, 0)))
        assert not halfplane_ish.is_orthant()


class TestLinearAlgebra:
    def test_rank_redundant_rows(self):
        rows = [Vec.of(1, 0), Vec.of(0, 1), Vec.of(1, 1)]
        assert exact_rank(rows) == 2
        assert oracle_rank(rows) == 2

    def test_rank_against_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert exact_rank(rows) == oracle_rank(rows)

    def test_kernel_vector(self):
        rows = (Vec.of(1, 0), Vec.of(-1, 0))
        x = kernel_vector(rows, 2)
        assert x is not None and not x.is_zero
        assert all(r.dot(x) == 0 for r in rows)

    def test_kernel_none_for_full_rank(self):
        assert kernel_vector((Vec.of(1, 0), Vec.of(0, 1)), 2) is None

    def test_rank_rejects_ragged_input(self):
        with pytest.raises(DimensionMismatch):
            exact_rank([Vec.of(0, 1), Vec.of(1)])

    def test_empty_input(self):
        assert exact_rank([]) == 0
        assert _reduced_echelon([]) == ([], [])


class TestConeAxioms:
    def test_orthant_passes(self):
        report = check_cone_axioms(PolyhedralCone.orthant(2))
        assert report.passed
        assert "nonzero member (1, 1) exhibited" in report["C1"].note
        assert report["C2"].checks == 0
        assert report["C3"].passed

    def test_lineality_fails_pointedness(self):
        cone = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(-1, 0)))
        report = check_cone_axioms(cone)
        assert not report["C3"].passed
        witness = report["C3"].counterexample
        assert cone.contains(witness["x"]) and cone.contains(witness["minus_x"])
        assert not witness["x"].is_zero

    def test_redundant_row_cone_passes(self):
        cone = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1), Vec.of(1, 1)))
        report = check_cone_axioms(cone)
        assert report.passed
        assert report["C2"].checks == 0

    def test_ray_cone_has_a_nonzero_member(self):
        # pointed, not solid, and its only rays are t (1, 2, 3) with t >= 0
        report = check_cone_axioms(RAY_CONE)
        assert not RAY_CONE.is_solid
        assert report.passed
        assert "nonzero member (1, 2, 3)" in report["C1"].note

    def test_trivial_cone_fails_c1(self):
        cone = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1), Vec.of(-1, -1)))
        report = check_cone_axioms(cone)
        assert not report["C1"].passed
        assert report["C1"].note == "cone is trivial ({0})"
        assert report["C3"].passed


class TestOrderedSpace:
    def test_rejects_unpointed_cone(self):
        cone = PolyhedralCone(2, (Vec.of(1, 0), Vec.of(-1, 0)))
        with pytest.raises(ConeNotPointed):
            OrderedSpace(2, cone)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OrderedSpace(3, PolyhedralCone.orthant(2))

    def test_orthant_is_shared_per_dimension(self):
        assert OrderedSpace.orthant(2) is OrderedSpace.orthant(2)
        assert OrderedSpace.orthant(3) is not OrderedSpace.orthant(2)
        assert OrderedSpace.orthant(2) == OrderedSpace(2, PolyhedralCone.orthant(2))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
vec3 = st.tuples(rationals, rationals, rationals).map(Vec)
member3 = st.tuples(
    st.fractions(min_value=0, max_value=5, max_denominator=6),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
).map(Vec)
nonneg = st.fractions(min_value=0, max_value=4, max_denominator=4)


class TestOrderLaws:
    @given(vec3)
    def test_reflexive(self, x):
        assert ORTHANT3.leq(x, x)

    @given(vec3, vec3)
    def test_antisymmetric(self, a, b):
        if ORTHANT3.leq(a, b) and ORTHANT3.leq(b, a):
            assert a == b

    @given(vec3, member3, member3)
    def test_transitive_along_cone_steps(self, a, p, q):
        b = a + p
        c = b + q
        assert ORTHANT3.leq(a, b) and ORTHANT3.leq(b, c)
        assert ORTHANT3.leq(a, c)

    @given(vec3, vec3, st.fractions(min_value="1/7", max_value=7, max_denominator=7))
    def test_scale_invariance(self, a, b, c):
        assert ORTHANT3.leq(a, b) == ORTHANT3.leq(c * a, c * b)

    @given(vec3, vec3)
    def test_strict_chain_of_implications(self, a, b):
        if ORTHANT3.ll(a, b):
            assert ORTHANT3.lt(a, b)
        if ORTHANT3.lt(a, b):
            assert ORTHANT3.leq(a, b)

    @settings(max_examples=50)
    @given(nonneg, nonneg, nonneg, nonneg)
    def test_skew_cone_transitivity(self, a1, a2, b1, b2):
        # members of the skew cone are nonnegative combinations of its rays
        r1, r2 = Vec.of(1, 2), Vec.of(2, 1)
        p = a1 * r1 + a2 * r2
        q = b1 * r1 + b2 * r2
        x = Vec.of(-1, "1/3")
        assert SKEW.leq(x, x + p)
        assert SKEW.leq(x + p, x + p + q)
        assert SKEW.leq(x, x + p + q)


NAMED_CONES = [
    PolyhedralCone.orthant(1),
    PolyhedralCone.orthant(3),
    SKEW_CONE,
    # a redundant row
    PolyhedralCone(2, (Vec.of(1, 0), Vec.of(0, 1), Vec.of(1, 1))),
    # more rows than the dimension, none of them redundant
    PolyhedralCone(2, (Vec.of(1, 0), Vec.of(1, 1), Vec.of(0, 1), Vec.of(-1, 3))),
    # skew rows in Q^3
    PolyhedralCone(3, (Vec.of(1, 0, 0), Vec.of(1, 1, 0), Vec.of(1, 1, 1))),
]


class TestProjection:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.sampled_from(NAMED_CONES), pointed_cones(max_rows=5)), st.data())
    def test_projected_order_is_the_cone_order(self, cone, data):
        vecs = data.draw(st.lists(vectors(cone.dimension), min_size=2, max_size=6))
        vecs.append(vecs[0] + vecs[1])
        images = project(cone, vecs)
        assert all(isinstance(c, int) for image in images for c in image)
        assert images[-1] == tuple(a + b for a, b in zip(images[0], images[1]))
        for (s, image_s), (r, image_r) in itertools.product(zip(vecs, images), repeat=2):
            assert all(a <= b for a, b in zip(image_s, image_r)) == cone.contains(r - s)
            assert (image_s == image_r) == (s == r)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            project(ORTHANT2.cone, [Vec.of(1, 2), Vec.of(1, 2, 3)])


GRID = range(-2, 3)


class TestExactDecisions:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.sampled_from([*NAMED_CONES, RAY_CONE, THIN_CONE]), pointed_cones(max_rows=5)))
    def test_solidity_and_nontriviality_match_a_grid_search(self, cone):
        """A small integer grid is an independent, one-sided route: any grid
        point strictly inside (or any nonzero grid member) must be matched
        by the exact decision."""
        if cone.is_solid:
            assert all(row.dot(cone.interior_point) > 0 for row in cone.rows)
        member = _nonzero_member(cone)
        assert member is None or (not member.is_zero and cone.contains(member))
        nonzero = [Vec(x) for x in itertools.product(GRID, repeat=cone.dimension) if any(x)]
        images = [[row.dot(x) for row in cone.rows] for x in nonzero]
        if any(all(v > 0 for v in image) for image in images):
            assert cone.is_solid
        if any(all(v >= 0 for v in image) for image in images):
            assert member is not None
            assert check_cone_axioms(cone)["C1"].passed


def fraction_tableau_solution(matrix, rhs):
    """Phase 1 of the simplex method on a ``Fraction`` tableau, with
    Bland's rule: the reference that ``_nonnegative_solution`` must agree
    with, vertex for vertex."""
    m, n = len(matrix), len(matrix[0])
    tableau = [
        [*(Fraction(c if b >= 0 else -c) for c in row), *(Fraction(int(i == k)) for k in range(m)),
         Fraction(abs(b))]
        for i, (row, b) in enumerate(zip(matrix, rhs))
    ]
    basis = list(range(n, n + m))
    cost = [-sum(column) for column in zip(*tableau)]
    cost[n : n + m] = [Fraction(0)] * m
    while (enter := next((j for j in range(n + m) if cost[j] < 0), None)) is not None:
        _, _, leave = min(
            (row[-1] / row[enter], basis[i], i) for i, row in enumerate(tableau) if row[enter] > 0
        )
        pivot = tableau[leave]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in (*tableau[:leave], *tableau[leave + 1 :], cost):
            if factor := row[enter]:
                row[:] = [a - factor * p for a, p in zip(row, pivot)]
        basis[leave] = enter
    if cost[-1]:
        return None
    z = [Fraction(0)] * (n + m)
    for row, j in zip(tableau, basis):
        z[j] = row[-1]
    return z[:n]


small = st.fractions(min_value=-3, max_value=3, max_denominator=3) | st.integers(-3, 3)


@st.composite
def linear_systems(draw):
    """A matrix and a right-hand side, some ``Fraction``s and some ints:
    either any rhs, often infeasible, or matrix . z for a drawn z >= 0,
    always feasible."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    matrix = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        rhs = draw(st.lists(small, min_size=m, max_size=m))
    else:
        z = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=3),
                          min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, z)), Fraction(0)) for row in matrix]
    return matrix, rhs


class TestIntegerSimplex:
    @settings(max_examples=400, deadline=None)
    @given(linear_systems())
    def test_matches_the_fraction_tableau(self, system):
        matrix, rhs = system
        expected = fraction_tableau_solution(matrix, rhs)
        z = _nonnegative_solution(matrix, rhs)
        event("infeasible" if expected is None else "feasible")
        assert z == expected
        if z is not None:
            assert all(type(x) is Fraction and x >= 0 for x in z)
            assert [sum(a * x for a, x in zip(row, z)) for row in matrix] == rhs

    def test_a_multi_pivot_vertex(self):
        rows = ((3, -1, 0), (0, 2, -1), (-1, 0, 4), ("1/2", "1/3", "1/5"))
        cone = PolyhedralCone(3, tuple(Vec.of(*row) for row in rows))
        assert cone.interior_point == Vec.of("89/71", "111/142", "40/71")
