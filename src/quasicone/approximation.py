"""Forward and backward best-approximation sets under a cone order.

A candidate h is a (forward) best approximation to q when its distance
d(q, h) precedes d(q, h') for every other candidate h'. Because the cone
order is partial, such a least element need not exist; the result then
has an empty best set and the minimal front (candidates whose distance
nothing strictly precedes) is reported as the honest diagnostic.

Every order question here is decided on integer images of the distances
through the cone rows, where the cone order is the componentwise order:
a best set is the componentwise floor of its candidates' row or column
of the table, which ``metric._best_indices`` reads as images, and the
public front routines project the vectors they are given (``project``).
Two minimal-front routines are provided: a definitional all-pairs scan,
and, for cones with at most three rows, one plane sweep that sorts the
projected points lexicographically and keeps a single staircase of the
minimal points seen so far (Kung, Luccio & Preparata, 1975).
"""
from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from operator import le
from typing import Iterable

from .cones import OrderedSpace, Vec, _Record, project
from .errors import DimensionMismatch
from .metric import (
    BACKWARD,
    FORWARD,
    Label,
    QcmInstance,
    Query,
    _best_indices,
    directed_distance,
    transpose,
)


class MinimalFrontFallback(UserWarning):
    """The staircase-sweep front fell back to the pairwise scan."""


class DominanceStats(_Record):
    """How comparable the candidate distances were on this query."""

    __slots__ = ("pairs", "comparable", "incomparable")
    pairs: int
    comparable: int
    incomparable: int


class ApproximationResult(_Record):
    __slots__ = ("best", "common_distance", "minimal_front", "stats")
    best: frozenset[Label]
    common_distance: Vec | None
    minimal_front: frozenset[Label]
    stats: DominanceStats


def best_approximation_set(
    instance: QcmInstance, query: Query
) -> ApproximationResult:
    """Compute the best-approximation set by its definition.

    The best set collects candidates whose distance precedes every other
    candidate's distance; it may be empty. On the images of the distances
    these are exactly the candidates whose image equals the componentwise
    minimum. When it is nonempty all its members share one distance value
    (antisymmetry of the order over a pointed cone), reported as
    ``common_distance``, the one entry read as a ``Vec``. The minimal
    front and the dominance counts add an O(|H|^2) pairwise scan, which
    callers of ``_best_indices`` skip.
    """
    labels, points, best_at = _best_indices(instance, query)
    best = [labels[i] for i in best_at]
    common = directed_distance(instance, query.q, best[0], query.direction) if best else None

    dominated, comparable = _pairwise_scan(points)
    front = frozenset(h for h, d in zip(labels, dominated) if not d)
    total = len(labels) * (len(labels) - 1) // 2
    stats = DominanceStats(total, comparable, total - comparable)
    return ApproximationResult(frozenset(best), common, front, stats)


def duality_check(instance: QcmInstance, q: Label, candidates: Iterable[Label]) -> bool:
    """Backward best set on the instance equals the forward best set on
    its transpose; both sides are computed independently, without a scan."""
    query = Query(q, candidates, BACKWARD)
    backward = _best_indices(instance, query)[2]
    mirrored = _best_indices(transpose(instance), Query(q, query.candidates, FORWARD))[2]
    # both sides index the same candidates in label order
    return backward == mirrored


# ---------------------------------------------------------------------------
# Minimal fronts
# ---------------------------------------------------------------------------

def _pairwise_scan(points: list[tuple[int, ...]]) -> tuple[list[bool], int]:
    """All-pairs O(n^2) scan of integer points in the componentwise order.

    Returns which points something strictly precedes, in input order, and
    how many unordered pairs are comparable. Equal points are comparable
    and never exclude each other.

    In lexicographic order only an earlier point can precede a later one,
    and copies are adjacent, so each point is tested once against every
    earlier point that is not a copy of it. Points with at most three
    coordinates, padded with leading zeros to three, need only their last
    two compared.
    """
    n = len(points)
    order = sorted(range(n), key=points.__getitem__)
    ordered = [points[i] for i in order]
    tails = [((0, 0) + p)[-2:] for p in ordered] if n and len(points[0]) <= 3 else None
    dominated = [False] * n
    comparable = 0
    copies_from = 0  # where the run of copies of the current point starts
    for j, b in enumerate(ordered):
        if b != ordered[copies_from]:
            copies_from = j
        if tails:
            by, bz = tails[j]
            below = len([1 for ay, az in tails[:copies_from] if ay <= by and az <= bz])
        else:
            below = len([1 for a in ordered[:copies_from] if all(map(le, a, b))])
        comparable += below + j - copies_from
        dominated[order[j]] = below > 0
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
    """Minimal elements by one lexicographic staircase sweep.

    Works on the projected distances, so it serves every cone with at most
    three rows; see ``_sweep_front``. The sweep makes O(n log n)
    comparisons, but each staircase insertion is a list splice that can
    move O(n) stairs, so an input whose every point is minimal and lands
    at the head of the staircase costs O(n^2) element moves. Cones with
    more rows fall back to the pairwise scan with a warning.
    """
    labels, vecs = _check_values(values, space)
    if not labels:
        return frozenset()
    rows = len(space.cone.rows)
    if rows > 3:
        warnings.warn(
            f"the staircase sweep serves at most 3 cone rows, not {rows}; "
            "falling back to the pairwise scan",
            MinimalFrontFallback,
            stacklevel=2,
        )
        return minimal_front_naive(zip(labels, vecs), space)
    points = project(space.cone, vecs)
    return frozenset(labels[i] for i in _sweep_front(points))


def _sweep_front(points: list[tuple[int, ...]]) -> list[int]:
    """Indices of the minimal integer points with at most three coordinates.

    Visits the points in lexicographic order, so that only an earlier
    point can strictly precede a later one, and keeps a staircase of the
    minimal points seen so far over their last two coordinates (padded
    with 0): ``ys`` ascending, ``zs`` strictly descending. A point is
    dropped exactly when some stair lies weakly below it, unless it is an
    exact copy of the point just kept; a kept point replaces the stairs
    it weakly dominates.
    """
    ys: list[int] = []
    zs: list[int] = []
    keep: list[int] = []
    previous = None
    previous_kept = False
    for i in sorted(range(len(points)), key=points.__getitem__):
        point = points[i]
        if point != previous:
            previous = point
            y, z = ((0, 0) + point)[-2:]
            below = bisect_right(ys, y) - 1
            previous_kept = below < 0 or zs[below] > z
            if previous_kept:
                lo = bisect_left(ys, y)
                hi = lo
                while hi < len(zs) and zs[hi] >= z:
                    hi += 1
                ys[lo:hi] = [y]
                zs[lo:hi] = [z]
        if previous_kept:
            keep.append(i)
    return keep
