"""Forward and backward best-approximation sets under a cone order.

A candidate h is a (forward) best approximation to q when its distance
d(q, h) precedes d(q, h') for every other candidate h'. Because the cone
order is partial, such a least element need not exist; the result then
has an empty best set and the minimal front (candidates whose distance
nothing strictly precedes) is reported as the honest diagnostic.

Every order question here is decided on integer projections of the
distances through the cone rows (``project``), where the cone order is
the componentwise order. Two minimal-front routines are provided: a
definitional all-pairs scan, and a divide-and-conquer routine for cones
with at most three rows that sorts on the first projected coordinate
and merges with staircase queries (Kung, Luccio & Preparata, 1975).
"""
from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .cones import OrderedSpace, Vec, project
from .errors import DimensionMismatch
from .metric import Label, QcmInstance, transpose

FORWARD = "forward"
BACKWARD = "backward"
DIRECTIONS = (FORWARD, BACKWARD)


class MinimalFrontFallback(UserWarning):
    """The divide-and-conquer front fell back to the pairwise scan."""


@dataclass(frozen=True)
class Query:
    """A target point, a nonempty candidate set, and a direction."""

    q: Label
    candidates: frozenset[Label]
    direction: str = FORWARD

    def __post_init__(self):
        object.__setattr__(self, "candidates", frozenset(self.candidates))
        if not self.candidates:
            raise ValueError("candidate set must be nonempty")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )


@dataclass(frozen=True)
class DominanceStats:
    """How comparable the candidate distances were on this query."""

    pairs: int
    comparable: int
    incomparable: int


@dataclass(frozen=True)
class ApproximationResult:
    best: frozenset[Label]
    common_distance: Vec | None
    minimal_front: frozenset[Label]
    stats: DominanceStats


def directed_distance(
    instance: QcmInstance, q: Label, h: Label, direction: str
) -> Vec:
    """d(q, h) for forward queries, d(h, q) for backward ones."""
    if direction == FORWARD:
        return instance.distance(q, h)
    if direction == BACKWARD:
        return instance.distance(h, q)
    raise ValueError(f"unknown direction {direction!r}")


def best_approximation_set(
    instance: QcmInstance, query: Query
) -> ApproximationResult:
    """Compute the best-approximation set by its definition.

    The best set collects candidates whose distance precedes every other
    candidate's distance; it may be empty. On the projected distances
    these are exactly the candidates whose image equals the componentwise
    minimum. When it is nonempty all its members share one distance value
    (antisymmetry of the order over a pointed cone), reported as
    ``common_distance``.
    """
    instance.require_points([query.q])
    instance.require_points(query.candidates)
    labels = sorted(query.candidates)
    values = [directed_distance(instance, query.q, h, query.direction) for h in labels]
    points = project(instance.space.cone, values)
    floor = tuple(map(min, zip(*points)))
    best_at = [i for i, p in enumerate(points) if p == floor]
    best = frozenset(labels[i] for i in best_at)
    common = values[best_at[0]] if best_at else None

    dominated, comparable = _pairwise_scan(points)
    front = frozenset(h for h, d in zip(labels, dominated) if not d)
    total = len(labels) * (len(labels) - 1) // 2
    stats = DominanceStats(total, comparable, total - comparable)
    return ApproximationResult(best, common, front, stats)


def duality_check(instance: QcmInstance, q: Label, candidates: Iterable[Label]) -> bool:
    """Backward best set on the instance equals the forward best set on
    its transpose; both sides are computed independently."""
    candidates = frozenset(candidates)
    backward = best_approximation_set(instance, Query(q, candidates, BACKWARD)).best
    mirrored = best_approximation_set(
        transpose(instance), Query(q, candidates, FORWARD)
    ).best
    return backward == mirrored


# ---------------------------------------------------------------------------
# Minimal fronts
# ---------------------------------------------------------------------------

def _pairwise_scan(points: list[tuple[int, ...]]) -> tuple[list[bool], int]:
    """All-pairs O(n^2) scan of integer points in the componentwise order.

    Returns which points something strictly precedes, and how many
    unordered pairs are comparable. Equal points are comparable and never
    exclude each other.
    """
    n = len(points)
    dominated = [False] * n
    comparable = 0
    rows = len(points[0]) if points else 0
    # unrolled comparisons for two and three rows; the scan is the same
    # all-pairs O(n^2) either way
    if rows == 2:
        for i in range(n):
            ax, ay = points[i]
            for j in range(i + 1, n):
                bx, by = points[j]
                if ax <= bx and ay <= by:
                    comparable += 1
                    if ax != bx or ay != by:
                        dominated[j] = True
                elif bx <= ax and by <= ay:
                    comparable += 1
                    dominated[i] = True
        return dominated, comparable
    if rows == 3:
        for i in range(n):
            ax, ay, az = points[i]
            for j in range(i + 1, n):
                bx, by, bz = points[j]
                if ax <= bx and ay <= by and az <= bz:
                    comparable += 1
                    if ax != bx or ay != by or az != bz:
                        dominated[j] = True
                elif bx <= ax and by <= ay and bz <= az:
                    comparable += 1
                    dominated[i] = True
        return dominated, comparable
    for i in range(n):
        a = points[i]
        for j in range(i + 1, n):
            b = points[j]
            if all(x <= y for x, y in zip(a, b)):
                comparable += 1
                if a != b:
                    dominated[j] = True
            elif all(y <= x for x, y in zip(a, b)):
                comparable += 1
                dominated[i] = True
    return dominated, comparable


def _check_values(
    values: Iterable[tuple[Label, Vec]], space: OrderedSpace
) -> tuple[list[Label], list[Vec]]:
    labels = []
    vecs = []
    for label, vec in values:
        if vec.dimension != space.dimension:
            raise DimensionMismatch(
                f"value for {label!r} has dimension {vec.dimension}, "
                f"space has {space.dimension}"
            )
        labels.append(label)
        vecs.append(vec)
    return labels, vecs


def minimal_front_naive(
    values: Iterable[tuple[Label, Vec]], space: OrderedSpace
) -> frozenset[Label]:
    """Minimal elements by an all-pairs O(n^2) scan.

    A value is minimal when no other value strictly precedes it; equal
    values never exclude each other, so exact duplicates are all kept.
    """
    labels, vecs = _check_values(values, space)
    dominated, _ = _pairwise_scan(project(space.cone, vecs))
    return frozenset(l for l, d in zip(labels, dominated) if not d)


def minimal_front_dnc(
    values: Iterable[tuple[Label, Vec]], space: OrderedSpace
) -> frozenset[Label]:
    """Minimal elements by divide and conquer on a sorted first coordinate.

    Works on the projected distances, so it serves every cone with at most
    three rows. Points are grouped by first projected coordinate; halves
    are solved recursively and the right half is filtered against the left
    using a weak-dominance staircase over the remaining coordinates.
    O(n log n) for two rows, O(n log^2 n) for three. Cones with more rows
    fall back to the pairwise scan with a warning.
    """
    labels, vecs = _check_values(values, space)
    if not labels:
        return frozenset()
    rows = len(space.cone.rows)
    if rows > 3:
        warnings.warn(
            f"no divide-and-conquer specialisation for {rows} cone rows; "
            "falling back to the pairwise scan",
            MinimalFrontFallback,
            stacklevel=2,
        )
        return minimal_front_naive(zip(labels, vecs), space)
    points = project(space.cone, vecs)
    if rows == 1:
        least = min(p[0] for p in points)
        keep = [i for i, p in enumerate(points) if p[0] == least]
    elif rows == 2:
        keep = _front_2d(list(enumerate(points)))
    else:
        keep = _front_3d(list(enumerate(points)))
    return frozenset(labels[i] for i in keep)


def _group_by_first(entries: list[tuple[int, tuple[int, ...]]]):
    """Split (index, point) entries into runs of equal first coordinate,
    ascending. Equal-first-coordinate points never straddle a split, so
    the divide step can assume strictly smaller first coordinates on the
    left."""
    entries = sorted(entries, key=lambda e: e[1][0])
    groups: list[list[tuple[int, tuple[int, ...]]]] = []
    current_key = None
    for idx, point in entries:
        if point[0] != current_key:
            groups.append([])
            current_key = point[0]
        groups[-1].append((idx, point))
    return groups


def _front_2d(entries: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    groups = _group_by_first(entries)
    second = {i: p[1] for g in groups for i, p in g}

    def solve(lo: int, hi: int) -> tuple[list[int], int]:
        # survivors of groups[lo:hi] plus the minimum second coordinate seen
        if hi - lo == 1:
            members = groups[lo]
            ymin = min(p[1] for _, p in members)
            return [i for i, p in members if p[1] == ymin], ymin
        mid = (lo + hi) // 2
        left, left_min = solve(lo, mid)
        right, right_min = solve(mid, hi)
        kept = [i for i in right if second[i] < left_min]
        return left + kept, min(left_min, right_min)

    survivors, _ = solve(0, len(groups))
    return survivors


class _Staircase:
    """Weak-dominance staircase over 2-d integer points.

    Stores the weakly minimal points sorted by ascending first coordinate
    (second coordinate then strictly descending) and answers "is this
    point weakly dominated by any stored point" by binary search.
    """

    def __init__(self, points: Iterable[tuple[int, int]]):
        self.ys: list[int] = []
        self.zs: list[int] = []
        best = None
        for y, z in sorted(points):
            if best is None or z < best:
                self.ys.append(y)
                self.zs.append(z)
                best = z

    def dominates(self, point: tuple[int, int]) -> bool:
        pos = bisect_right(self.ys, point[0]) - 1
        return pos >= 0 and self.zs[pos] <= point[1]


def _front_3d(entries: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    groups = _group_by_first(entries)
    rest = {i: (p[1], p[2]) for g in groups for i, p in g}

    def solve(lo: int, hi: int) -> list[int]:
        if hi - lo == 1:
            # equal first coordinate: strict dominance reduces to the plane
            return _front_2d([(i, rest[i]) for i, _ in groups[lo]])
        mid = (lo + hi) // 2
        left = solve(lo, mid)
        right = solve(mid, hi)
        stairs = _Staircase(rest[i] for i in left)
        kept = [i for i in right if not stairs.dominates(rest[i])]
        return left + kept

    return solve(0, len(groups))
