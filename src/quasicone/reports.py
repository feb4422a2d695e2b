"""Axiom-check reports, and the checks that only ``verify`` runs.

Both the cone axioms and the metric axioms produce the same shape of
result: a list of named checks, each either passing or carrying a
reproducible counterexample. Failures never raise; callers inspect the
report.

The cone axioms are checked here (``check_cone_axioms``), and so is the
triangle pass over a whole table's integer images, which
``metric.verify_axioms`` runs after reading them. No other command loads
this module, so no other command compiles these checks.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import and_, mul, sub
from typing import Sequence

from .cones import PolyhedralCone, Vec, _Record, _slack_solution


class AxiomCheck(_Record):
    """Outcome of one axiom over one instance.

    ``counterexample`` is a small dict naming the offending points and
    values; it is present exactly when ``passed`` is false.
    """

    __slots__ = ("axiom", "passed", "checks", "counterexample", "note")
    _defaults = {"counterexample": None, "note": ""}
    axiom: str
    passed: bool
    checks: int
    counterexample: dict | None
    note: str


class AxiomReport(_Record):
    __slots__ = ("checks",)
    _defaults = {"checks": ()}
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def __iter__(self):
        return iter(self.checks)


# ---------------------------------------------------------------------------
# Cone axioms
# ---------------------------------------------------------------------------

def _nonzero_member(cone: PolyhedralCone) -> Vec | None:
    """A nonzero member of the cone, or None when the cone is {0}."""
    if cone.interior_point is not None:
        return cone.interior_point
    line = cone.lineality_witness()
    if line is not None:
        return line
    # no line, so A is injective: every nonzero member has s = A x >= 0 with
    # a positive coordinate sum, and scaling makes that sum 1
    return _slack_solution(cone.rows, Fraction(0), slack_sum=Fraction(1))


def check_cone_axioms(cone: PolyhedralCone) -> AxiomReport:
    """Check the three cone axioms on a halfspace cone, each exactly.

    Nontriviality (C1) is decided by exhibiting a nonzero member: the
    interior point, else a line of the cone, else an exact feasibility
    solve for A x >= 0 with 1 . A x = 1; when all three fail the cone is
    {0}. Closure under nonnegative combinations holds by construction for
    an intersection of halfspaces and is reported without a check;
    pointedness is decided via the rank of the row matrix.
    """
    # C1: a nonzero member (closedness holds by construction, not tested)
    nonzero = _nonzero_member(cone)
    trivial = nonzero is None
    checks = [
        AxiomCheck(
            axiom="C1",
            passed=not trivial,
            checks=1,
            counterexample={"reason": "no x != 0 satisfies every row"} if trivial else None,
            note="cone is trivial ({0})" if trivial
            else f"nonzero member {nonzero} exhibited; closed by construction",
        )
    ]

    checks.append(
        AxiomCheck(
            axiom="C2",
            passed=True,
            checks=0,
            note="closed under nonnegative combinations by construction "
            "(an intersection of halfspaces)",
        )
    )

    # C3: pointedness, exact
    pointed = cone.is_pointed()
    c3_counter = None
    if not pointed:
        w = cone.lineality_witness()
        c3_counter = {"x": w, "minus_x": -w}
    checks.append(
        AxiomCheck(
            axiom="C3",
            passed=pointed,
            checks=1,
            counterexample=c3_counter,
            note="rank of row matrix equals dimension" if pointed else "row matrix rank deficient",
        )
    )
    return AxiomReport(tuple(checks))


# ---------------------------------------------------------------------------
# The triangle pass of metric.verify_axioms
# ---------------------------------------------------------------------------

# Lanes wider than this many bits fall back to the scan: see _first_packed_pair
_MAX_LANE_BITS = 128


def _first_triangle_failure(
    images: Sequence[Sequence[int]], n: int
) -> tuple[int, int, int] | None:
    """First (i, j, l) in ground-set order with P(i,l) <= P(i,j) + P(j,l)
    failing for some row's table P, where P(i,j) = image[i*n + j] and
    ``images`` holds one image list per cone row. The first pair (i, j)
    comes from the packed pass, or from the scan when some row needs
    lanes wider than ``_MAX_LANE_BITS``; l from a scan of that pair."""
    tables = [[image[i * n : (i + 1) * n] for i in range(n)] for image in images]
    bounds = [max(map(abs, image)) for image in images]
    widths = [(3 * m + 1).bit_length() + 1 for m in bounds]
    if max(widths) <= _MAX_LANE_BITS:
        pair = _first_packed_pair(tables, bounds, widths)
    else:
        pair = _first_scanned_pair(tables)
    if pair is None:
        return None
    i, j = pair
    l = next(l for l in range(n) if any(t[i][l] > t[i][j] + t[j][l] for t in tables))
    return i, j, l


def _first_packed_pair(
    tables: list[list[Sequence[int]]], bounds: list[int], widths: list[int]
) -> tuple[int, int] | None:
    """The first (i, j) for which some l fails the triangle inequality, with
    every table row packed into one int ("SIMD within a register";
    Lamport, CACM 18(8), 1975). For a table P with |P| <= M and lanes of
    B = bit_length(3M + 1) + 1 bits, lane l of ``down[j]`` holds
    P(j,l) + M and lane l of ``up[i]`` holds P(i,l) + M + 2^(B-1) - 1.
    Lane l of up[i] - down[j] - P(i,j) * ones is then
    2^(B-1) - 1 + P(i,l) - P(i,j) - P(j,l), which lies in [0, 2^B), so no
    lane borrows from the next, and its top bit is set exactly when
    P(i,l) > P(i,j) + P(j,l). A row packs through one binary string, in
    time linear in its bits. Each pair costs a few operations on ints of
    n*B bits, where the scan makes n comparisons; at lanes past
    ``_MAX_LANE_BITS`` the scan is faster."""
    n = len(tables[0])
    packs = []
    for table, m, width in zip(tables, bounds, widths):
        lane = f"0{width}b"
        down = [
            int("".join(map(format, map(m.__add__, reversed(row)), repeat(lane))), 2)
            for row in table
        ]
        ones = int("1".zfill(width) * n, 2)
        lift = ((1 << (width - 1)) - 1) * ones
        packs.append((table, down, lift, ones, ones << (width - 1)))
    for i in range(n):
        first = n  # the first j with a hit so far, over the rows
        for table, down, lift, ones, tops in packs:
            up = down[i] + lift
            excess = map(sub, map(sub, repeat(up), down), map(mul, table[i], repeat(ones)))
            first = next(compress(range(first), map(and_, excess, repeat(tops))), first)
        if first < n:
            return i, first
    return None


def _first_scanned_pair(tables: list[list[Sequence[int]]]) -> tuple[int, int] | None:
    """The first (i, j) for which some l fails the triangle inequality,
    by comparing the entries themselves."""
    n = len(tables[0])
    for i in range(n):
        for j in range(n):
            for table in tables:
                via = table[i][j]
                if not all(direct <= via + onward for direct, onward in zip(table[i], table[j])):
                    return i, j
    return None
