"""Finite quasi-cone metric instances.

An instance is a finite labeled ground set together with a total,
cone-valued distance table. The distance need not be symmetric: d(r, s)
and d(s, r) are independent entries, which is what makes the forward and
backward problems genuinely different. A ``Query`` names a target
point, a candidate set and a direction; ``directed_distance`` reads the
entry a query compares, d(q, h) forward or d(h, q) backward.

An instance reads its table through one reader, chosen when it is
built, in two forms: ``distance`` gives one entry as a ``Vec``, and
``_images`` gives a block of entries d(r, s), r in some rows and s in some
columns, as integer images, one positive scale per cone row and call. A
table read from a file keeps its literals, each a plain string
(``cones.PLAIN_LITERAL``), and converts an entry on every read; its images
come from the literals' numerators. The two closed-form generators (a
two-valued direction metric over Q^2 and a slack metric with a positive
parameter alpha) keep nothing: a read evaluates the closed form, and
images come from the coordinates on one integer grid. Only a store of
``Vec``s goes through ``cones._vec_grid``, as ``project`` does.

Every block read of the table goes through ``QcmInstance._images``, so a
query pays only for the entries it reads: ``_best_indices`` reads the one
row d(q, H) or column d(H, q) of a best set, for best sets, Chebyshev
classification and the witness search alike. The axiom checks read the
whole table; they live in ``reports``, which only ``verify`` loads.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .cones import (
    OrderedSpace, RationalLike, Vec, _literal_parts, _Record, _row_images, _vec_grid, as_rational,
    format_rational, plain_value,
)
from .errors import DimensionMismatch, DuplicateLabel, UnknownLabel

Label = str

FORWARD = "forward"
BACKWARD = "backward"
DIRECTIONS = (FORWARD, BACKWARD)

EXPLICIT_TABLE = "explicit-table"
DIRECTION_METRIC = "example3-direction-metric"
ALPHA_METRIC = "example4-alpha-metric"


class Provenance(_Record):
    """How an instance's table came to be.

    Generator provenances carry their parameters: the instance computes
    its entries from them, and a table supplied by the caller is compared
    against them exactly at construction time.
    """

    __slots__ = ("kind", "alpha", "coordinates")
    _defaults = {"alpha": None, "coordinates": None}
    kind: str
    alpha: Fraction | None
    coordinates: tuple[tuple[Label, Fraction], ...] | None

    def coordinate_map(self) -> dict[Label, Fraction]:
        return dict(self.coordinates or ())


_EXPLICIT = Provenance(EXPLICIT_TABLE)


def _first_repeat(items: Sequence) -> int | None:
    """The index of the first item equal to an earlier one, or None."""
    seen = set()  # hashes each item once: the set stops growing at the first repeat
    return next((i for i, item in enumerate(items) if seen.add(item) or len(seen) == i), None)


def _ground_set(labels: Iterable[Label]) -> tuple[Label, ...]:
    points = tuple(labels)
    if not points:
        raise ValueError("ground set must be nonempty")
    i = _first_repeat(points)
    if i is not None:
        raise DuplicateLabel(f"duplicate point label {points[i]!r}")
    return points


class QcmInstance:
    """A finite ground set with a total cone-valued distance table.

    Immutable after construction, so instances are safe to share. Every
    read goes through the instance's reader and keeps nothing. A table of
    ``Vec``s passed to the constructor is the reader's store, and a key of
    it that is not a pair of points raises ``UnknownLabel``; with a
    generator provenance the table is instead checked against the closed
    form entry by entry and dropped, and the reader evaluates the closed
    form on every read; a provenance with an unknown kind, a missing or
    nonpositive alpha, or a missing or non-rational coordinate raises a
    ``ValueError`` that names the field, and one that puts two points at
    one coordinate raises ``DuplicateLabel``. A table that the file parser
    built keeps its validated literals, and the reader converts an entry
    on every read.
    """

    def __init__(
        self,
        space: OrderedSpace,
        points: Sequence[Label],
        table: Mapping[tuple[Label, Label], Vec],
        provenance: Provenance = _EXPLICIT,
    ):
        points = _ground_set(points)
        store: dict[tuple[Label, Label], Vec] = {}
        for r in points:
            for s in points:
                try:
                    value = table[(r, s)]
                except KeyError:
                    raise ValueError(f"table is not total: missing entry for ({r!r}, {s!r})") from None
                if value.dimension != space.dimension:
                    raise DimensionMismatch(
                        f"entry d({r!r}, {s!r}) has dimension {value.dimension}, "
                        f"space has {space.dimension}"
                    )
                store[(r, s)] = value
        if len(table) != len(store):
            key = next(key for key in table if key not in store)
            raise UnknownLabel(f"table entry {key!r} is not a pair of points")
        if provenance.kind == EXPLICIT_TABLE:
            read = lambda r, s: store[r, s]
            grid = lambda rows, cols: _vec_grid(
                [store[r, s] for r in rows for s in cols], space.dimension
            )
        else:
            read, grid = _closed_form(provenance, points)
            for (r, s), value in store.items():
                if value != read(r, s):
                    raise ValueError(
                        f"table entry d({r!r}, {s!r}) = {value} does not "
                        f"match its generator value {read(r, s)}"
                    )
        self._init(space, points, provenance, read, grid)

    @classmethod
    def _on_read(
        cls, space: OrderedSpace, points: Sequence[Label], provenance: Provenance = _EXPLICIT,
        literals: dict[tuple[Label, Label], tuple[str, ...]] | None = None,
    ) -> "QcmInstance":
        """An instance that computes each entry when it is read: from its
        generator provenance (the builders), or from a table's literals (the
        file parser). The parser has already checked every key (a pair of
        points) and every value: one coordinate per dimension, each a string
        that matches ``cones.PLAIN_LITERAL``. So counting the keys decides
        totality, and no conversion can fail."""
        points = _ground_set(points)
        if literals is None:
            read, grid = _closed_form(provenance, points)
        elif len(literals) != len(points) ** 2:
            r, s = next((r, s) for r in points for s in points if (r, s) not in literals)
            raise ValueError(f"table is not total: missing entry for ({r!r}, {s!r})")
        else:
            read = lambda r, s: Vec._trusted(tuple(map(plain_value, literals[r, s])))
            grid = lambda rows, cols: _literal_grid(
                [literals[r, s] for r in rows for s in cols], space.dimension
            )
        instance = cls.__new__(cls)
        instance._init(space, points, provenance, read, grid)
        return instance

    def _init(self, space, points, provenance, read, grid) -> None:
        """``read(r, s)`` gives the entry d(r, s) of two points as a ``Vec``;
        ``grid(rows, cols)`` gives the block of entries d(r, s), r in
        ``rows`` and s in ``cols``, on one integer grid per axis, in the
        form ``cones._row_images`` takes."""
        self._space, self._points, self._provenance = space, points, provenance
        self._label_set = frozenset(points)
        self._read, self._grid = read, grid

    def _images(self, rows: Sequence[Label], cols: Sequence[Label]) -> list[Sequence[int]]:
        """Per cone row k, the integer images of the block of entries
        d(r, s), r in ``rows`` and s in ``cols`` (all points), in row-major
        order: the image of d(r, s) is c_k * (a_k . d(r, s)) for one
        positive c_k per row and call, so each row's images compare, add
        and subtract exactly like the values a_k . d(r, s). A closed form
        or a file table builds no ``Vec``; a store of ``Vec``s goes
        through ``cones._vec_grid``, as ``project`` does."""
        return _row_images(self._space.cone, *self._grid(rows, cols))

    @property
    def space(self) -> OrderedSpace:
        return self._space

    @property
    def points(self) -> tuple[Label, ...]:
        return self._points

    @property
    def provenance(self) -> Provenance:
        return self._provenance

    @property
    def size(self) -> int:
        return len(self._points)

    def has_point(self, label: Label) -> bool:
        return label in self._label_set

    def require_points(self, labels: Iterable[Label]) -> None:
        for label in labels:
            if label not in self._label_set:
                raise UnknownLabel(f"unknown point label {label!r}")

    def distance(self, r: Label, s: Label) -> Vec:
        self.require_points((r, s))
        return self._read(r, s)

    def entries(self) -> Iterable[tuple[Label, Label, Vec]]:
        for r in self._points:  # the instance's own labels need no check
            for s in self._points:
                yield r, s, self._read(r, s)

    def table_equal(self, other: "QcmInstance") -> bool:
        """Same points in the same order and the same value at every entry,
        however either side stores or computes its entries."""
        return self._points == other._points and all(
            a == b for (_, _, a), (_, _, b) in zip(self.entries(), other.entries())
        )

    def __repr__(self) -> str:
        return (
            f"QcmInstance({len(self._points)} points, dim {self._space.dimension}, "
            f"{self._provenance.kind})"
        )


def _direction(direction: str) -> str:
    """``direction`` if it is one of ``DIRECTIONS``; the records that hold
    a direction and ``directed_distance`` check it here."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


def _candidate_set(candidates: Iterable[Label]) -> frozenset[Label]:
    """``candidates`` as a nonempty frozenset; ``Query`` and
    ``chebyshev.QueryFamily`` check their candidate sets here."""
    if isinstance(candidates, str):  # a string would be split into characters
        raise ValueError(f"candidates must be a collection of labels, not {candidates!r}")
    candidates = frozenset(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    return candidates


class Query(_Record):
    """A target point, a nonempty candidate set, and a direction. The
    candidates are checked and frozen first (``_candidate_set``), then the
    direction (``_direction``)."""

    __slots__ = ("q", "candidates", "direction")
    _defaults = {"direction": FORWARD}
    q: Label
    candidates: frozenset[Label]
    direction: str

    def __post_init__(self):
        object.__setattr__(self, "candidates", _candidate_set(self.candidates))
        _direction(self.direction)


def directed_distance(
    instance: QcmInstance, q: Label, h: Label, direction: str
) -> Vec:
    """d(q, h) for forward queries, d(h, q) for backward ones; any other
    direction raises ``_direction``'s ``ValueError``."""
    if _direction(direction) == FORWARD:
        return instance.distance(q, h)
    return instance.distance(h, q)


# ---------------------------------------------------------------------------
# Closed-form generators
# ---------------------------------------------------------------------------

def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _closed_form(
    provenance: Provenance, points: Sequence[Label]
) -> tuple[Callable[[Label, Label], Vec],
           Callable[[Sequence[Label], Sequence[Label]], tuple]]:
    """The reader of a generator provenance, its closed form at the two
    points' coordinates, and its grid, a block of entries in the form
    ``cones._row_images`` takes. A provenance that cannot give every entry
    over ``points`` raises a ``ValueError`` that names its field, and the
    first point (in the order of ``points``) at the coordinate of an
    earlier one a ``DuplicateLabel``. The builders and the file parser rely
    on this."""
    kind, alpha = provenance.kind, provenance.alpha
    if kind not in (DIRECTION_METRIC, ALPHA_METRIC):
        raise ValueError(
            f"provenance.kind: unknown kind {kind!r}; expected {EXPLICIT_TABLE!r}, "
            f"{DIRECTION_METRIC!r} or {ALPHA_METRIC!r}"
        )
    if kind == ALPHA_METRIC and not (_is_rational(alpha) and alpha > 0):
        raise ValueError(f"provenance.alpha: {kind!r} needs a positive rational, got {alpha!r}")
    coords = provenance.coordinate_map()
    missing = [label for label in points if label not in coords]
    if missing:
        raise ValueError(f"provenance.coordinates: no coordinate for points {missing}")
    bad = next((label for label in points if not _is_rational(coords[label])), None)
    if bad is not None:
        raise ValueError(
            f"provenance.coordinates: the coordinate of {bad!r} is not an int or a "
            f"Fraction: {coords[bad]!r}"
        )
    values = [coords[label] for label in points]
    i = _first_repeat(values)
    if i is not None:
        raise DuplicateLabel(
            f"points {points[values.index(values[i])]!r} and {points[i]!r} share coordinate "
            f"{format_rational(values[i])}; distinct points at equal coordinates would get "
            "distance zero"
        )

    def columns(rows, cols):
        # the block's coordinates on one integer grid: X = L x for the lcm L
        # of the denominators on both sides
        scale = lcm(*{coords[label].denominator for label in (*rows, *cols)})
        xs, ys = ([coords[x].numerator * (scale // coords[x].denominator) for x in side]
                  for side in (rows, cols))
        if kind == DIRECTION_METRIC:  # the entries themselves: (0, 0), (1, 0) or (0, 1)
            return (1, 1), [[int(r > s) for r in xs for s in ys],
                            [int(r < s) for r in xs for s in ys]]
        # with alpha = a/b, every entry times b L: (b(X_r - X_s), a(X_r - X_s))
        # when X_r >= X_s, else (a L, b L)
        a, b = alpha.numerator, alpha.denominator
        flat_a, flat_b = a * scale, b * scale
        return (1, 1), [
            [b * (r - s) if r >= s else flat_a for r in xs for s in ys],
            [a * (r - s) if r >= s else flat_b for r in xs for s in ys],
        ]

    if kind == DIRECTION_METRIC:
        return (lambda r, s: direction_distance(coords[r], coords[s])), columns
    return (lambda r, s: alpha_distance(coords[r], coords[s], alpha)), columns


def _literal_grid(
    entries: list[tuple[str, ...]], dimension: int
) -> tuple[list[int], list[list[int]]]:
    """Per axis, the lcm of the denominators of the entries' literals and
    the column of their values times that lcm, in the form
    ``cones._row_images`` takes. Each distinct literal is split once, and
    no ``Fraction`` is made."""
    axis, columns = [], []
    for j in range(dimension):
        column = [entry[j] for entry in entries]
        parts = {literal: _literal_parts(literal) for literal in dict.fromkeys(column)}
        scale = lcm(*{q for _, q in parts.values()})
        value = {literal: p * (scale // q) for literal, (p, q) in parts.items()}
        axis.append(scale)
        columns.append(list(map(value.__getitem__, column)))
    return axis, columns


_ZERO, _ONE = Fraction(0), Fraction(1)
_DIRECTION_VALUES = tuple(Vec._trusted(c) for c in ((_ZERO, _ZERO), (_ONE, _ZERO), (_ZERO, _ONE)))


def direction_distance(r: Fraction, s: Fraction) -> Vec:
    """Two-valued direction metric on rational coordinates.

    Zero on the diagonal, (1, 0) when the first argument is larger,
    (0, 1) when it is smaller. Only the sign of r - s matters. The three
    values are shared ``Vec``s, which are immutable.
    """
    zero, east, north = _DIRECTION_VALUES
    if r == s:
        return zero
    return east if r > s else north


def alpha_distance(r: Fraction, s: Fraction, alpha: Fraction) -> Vec:
    """Slack metric: (r - s, alpha*(r - s)) when r >= s, else (alpha, 1).
    Each argument is coerced once, so int arguments give ``Fraction``
    coordinates."""
    r, s, alpha = as_rational(r), as_rational(s), as_rational(alpha)
    if r >= s:
        t = r - s
        return Vec._trusted((t, alpha * t))
    return Vec._trusted((alpha, _ONE))


def _generated(
    kind: str, points: Sequence[tuple[Label, RationalLike]], alpha: Fraction | None = None
) -> QcmInstance:
    """The instance of a closed-form generator over Q^2 with the orthant
    cone, at the points' coordinates; both builders end here."""
    coordinates = tuple(sorted((label, as_rational(c)) for label, c in points))
    provenance = Provenance(kind, alpha=alpha, coordinates=coordinates)
    return QcmInstance._on_read(OrderedSpace.orthant(2), [label for label, _ in points], provenance)


def build_example3(points: Sequence[tuple[Label, RationalLike]]) -> QcmInstance:
    """Instance of the direction metric over Q^2 with the orthant cone.
    A repeated label or coordinate raises ``DuplicateLabel``."""
    return _generated(DIRECTION_METRIC, points)


def build_example4(
    points: Sequence[tuple[Label, RationalLike]], alpha: RationalLike
) -> QcmInstance:
    """Instance of the slack metric over Q^2 with the orthant cone. A
    repeated label or coordinate raises ``DuplicateLabel``, and a
    nonpositive alpha a ``ValueError``."""
    alpha = as_rational(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {format_rational(alpha)}")
    return _generated(ALPHA_METRIC, points, alpha)


# ---------------------------------------------------------------------------
# Block reads: best sets
# ---------------------------------------------------------------------------

def _best_indices(
    instance: QcmInstance, query: Query
) -> tuple[list[Label], list[tuple[int, ...]], list[int]]:
    """The candidates in label order, the integer images of their
    distances, and the indices of the best members: those whose image is
    the componentwise minimum. The images are one block of the table, the
    row d(q, H) forward or the column d(H, q) backward, so no ``Vec`` is
    built and no pair is tested."""
    instance.require_points([query.q, *query.candidates])
    labels = sorted(query.candidates)
    block = ([query.q], labels) if query.direction == FORWARD else (labels, [query.q])
    images = instance._images(*block)
    points = list(zip(*images))
    floor = tuple(map(min, images))
    return labels, points, [i for i, p in enumerate(points) if p == floor]


def transpose(instance: QcmInstance) -> QcmInstance:
    """Swap the two arguments of the distance everywhere.

    The result is always an explicit table, whatever the input's
    provenance, because the closed forms do not describe the swapped
    metric.
    """
    swapped = {(s, r): value for r, s, value in instance.entries()}
    return QcmInstance(instance.space, instance.points, swapped, _EXPLICIT)
