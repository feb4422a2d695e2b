"""Exact cone algebra over rational vector spaces.

Vectors carry ``fractions.Fraction`` coordinates, cones are finite
intersections of closed halfspaces ``{x : a . x >= 0}``, and the induced
order predicates compare without any tolerance: repeated evaluation is
bit-identical, and antisymmetry of the order is a theorem (for pointed
cones), not a numerical accident. Whether a cone is solid and whether it
is {0} are decided exactly too, by a phase-1 simplex over ``Fraction``.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence, Union

from .errors import ConeNotPointed, ConeNotSolid, DimensionMismatch, NotARational

RationalLike = Union[Fraction, int, str]

# ASCII digits only: "\d" would also admit every other Unicode digit
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# CPython's default limit on int-string conversion, or the interpreter's
# lower one (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits); 0 means no
# limit, and before CPython 3.10.7 there is none. A longer digit run is
# rejected here, before int() would raise a ValueError of its own.
_MAX_DIGITS = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)

# The literals that as_rational accepts exactly as written, with no digit
# run over the limit and a nonzero denominator: plain_value converts a
# string that matches without any further check, and cannot fail on it.
PLAIN_LITERAL = re.compile(
    rf"[+-]?[0-9]{{1,{_MAX_DIGITS}}}(?:/(?=0*[1-9])[0-9]{{1,{_MAX_DIGITS}}})?"
)

# ints with at most this many bits have under 640 digits, the lowest limit
# CPython lets int-string conversion be set to, so str() always renders them
_STR_BITS = 2000


def as_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact rational.

    Accepts ``Fraction``, ``int``, and literal strings ``"p"`` / ``"p/q"``
    that match ``PLAIN_LITERAL`` once surrounding whitespace is stripped:
    an optional sign, ASCII digits only, at most 4,300 digits in each part
    (fewer when the interpreter's int-string limit is lower) and a nonzero
    denominator. Floats are rejected outright: a binary float is not the
    number the user wrote down, and the order predicates must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise NotARational(f"booleans are not rationals: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise NotARational(
            f"floats are not exact: {value!r}; pass an int, Fraction, or 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if PLAIN_LITERAL.fullmatch(text):
            return plain_value(text)
        # rejected: the looser pattern only picks the message
        match = _RATIONAL_LITERAL.fullmatch(text)
        if match is None:
            raise NotARational(f"not a rational literal 'p' or 'p/q': {value!r}")
        numerator, denominator = match.groups()
        digits = max(len(numerator.lstrip("+-")), len(denominator or ""))
        if digits > _MAX_DIGITS:
            raise NotARational(
                f"rational literal has a run of {digits} digits; at most {_MAX_DIGITS} are allowed"
            )
        raise NotARational(f"zero denominator: {value!r}")
    raise NotARational(f"cannot interpret {type(value).__name__} as a rational")


def plain_value(literal: str) -> Fraction:
    """The value of a string that matches ``PLAIN_LITERAL``, the one form
    in which an instance keeps a table literal."""
    numerator, _, denominator = literal.partition("/")
    if denominator:
        return Fraction(int(numerator), int(denominator))
    return Fraction(int(numerator))


def _literal_parts(literal: str) -> tuple[int, int]:
    """The numerator and denominator of a string that matches
    ``PLAIN_LITERAL``, as written, so not always in lowest terms."""
    numerator, _, denominator = literal.partition("/")
    return int(numerator), int(denominator or 1)


def _decimal(n: int) -> str:
    """str(n) for an int of any length: a long one is split by a power of
    ten into halves that are rendered on their own, so no str() call sees
    more digits than the interpreter's int-string limit allows."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) < 3/10
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Fraction) -> str:
    """Render as the literal the parser accepts ("p" or "p/q"), however
    many digits it has; a value computed from literals can be longer than
    the parser's 4,300-digit limit."""
    try:
        return str(value)
    except ValueError:  # a part past the interpreter's int-string limit
        if value.denominator == 1:
            return _decimal(value.numerator)
        return _decimal(value.numerator) + "/" + _decimal(value.denominator)


class _Record:
    """Base of the package's immutable value types. A subclass names its
    fields in ``__slots__``, in order, the defaults of trailing ones in
    ``_defaults``, and, when ``==`` and ``hash`` must skip a field, the ones
    they read in ``_compared``. An instance takes its fields by position or
    by name, then runs ``__post_init__``, and no field can be set or deleted
    after that. As for a frozen dataclass, instances are equal only when
    they are of one class and their compared fields are equal, the hash is
    that of the compared fields' tuple, and the repr names every field. The
    methods are shared and a class only has its field names read once, so
    defining one generates and compiles no code, where a ``@dataclass``
    writes and compiles its methods for each class."""

    __slots__ = ()
    _defaults: dict = {}
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = cls.__slots__
        compared = cls._compared or cls._fields
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - given.keys():
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        values = {**self._defaults, **given, **kwargs}
        for name in fields:
            if name not in values:
                raise TypeError(f"{type(self).__name__}() is missing the field {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(map(self.__getattribute__, self._fields))


class Vec(_Record):
    """Immutable rational vector."""

    __slots__ = ("coords",)
    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable[RationalLike]):
        object.__setattr__(self, "coords", tuple(as_rational(c) for c in coords))

    # == and hash as the base has them, without its per-call lookups, since
    # vectors are compared in inner loops
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @classmethod
    def _trusted(cls, coords: tuple[Fraction, ...]) -> "Vec":
        """A vector over a tuple that already holds only ``Fraction``s,
        built without coercing each coordinate again."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "coords", coords)
        return vec

    @classmethod
    def of(cls, *coords: RationalLike) -> "Vec":
        return cls(tuple(coords))

    @classmethod
    def zero(cls, dimension: int) -> "Vec":
        return cls((Fraction(0),) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_dim(self, other: "Vec") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"vector dimensions differ: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec._trusted(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec._trusted(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vec":
        return Vec._trusted(tuple(-a for a in self.coords))

    def __mul__(self, scalar: RationalLike) -> "Vec":
        c = as_rational(scalar)
        return Vec._trusted(tuple(a * c for a in self.coords))

    __rmul__ = __mul__

    def dot(self, other: "Vec") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, index: int) -> Fraction:
        return self.coords[index]

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(c) for c in self.coords) + ")"


def _as_vec(value, dimension: int | None = None) -> Vec:
    vec = value if isinstance(value, Vec) else Vec(tuple(value))
    if dimension is not None and vec.dimension != dimension:
        raise DimensionMismatch(
            f"expected dimension {dimension}, got {vec.dimension}"
        )
    return vec


# ---------------------------------------------------------------------------
# Exact linear algebra (Gauss-Jordan and phase-1 simplex over Fraction)
# ---------------------------------------------------------------------------

def _reduced_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def exact_rank(vectors: Iterable[Sequence[Fraction] | Vec]) -> int:
    """Rank of the span of the given vectors, computed exactly."""
    rows = [list(_as_vec(v)) for v in vectors]
    if not rows:
        return 0
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch(
            f"vectors of differing dimension: {sorted({len(row) for row in rows})}"
        )
    _, pivots = _reduced_echelon(rows)
    return len(pivots)


def kernel_vector(vectors: Sequence[Vec], dimension: int) -> Vec | None:
    """A nonzero x with a . x = 0 for every row a, or None if none exists."""
    mat, pivots = _reduced_echelon([list(v) for v in vectors])
    free = next((c for c in range(dimension) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * dimension
    x[free] = Fraction(1)
    for row_index, c in enumerate(pivots):
        x[c] = -mat[row_index][free]
    return Vec(tuple(x))


def _nonnegative_solution(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Some z >= 0 with matrix . z = rhs, or None if there is none.

    Phase 1 of the simplex method: one artificial variable per equation,
    and their sum is pivoted down to its minimum, which is 0 exactly when
    a solution exists. Bland's rule (the lowest improving column enters;
    among tied ratios the lowest basic variable leaves) rules out cycling.
    """
    m, n = len(matrix), len(matrix[0])
    tableau = [
        [*(c if b >= 0 else -c for c in row), *(Fraction(int(i == k)) for k in range(m)), abs(b)]
        for i, (row, b) in enumerate(zip(matrix, rhs))
    ]
    basis = list(range(n, n + m))
    # reduced costs of the artificials' sum; the last entry is minus that sum
    cost = [-sum(column) for column in zip(*tableau)]
    cost[n : n + m] = [Fraction(0)] * m
    while (enter := next((j for j in range(n + m) if cost[j] < 0), None)) is not None:
        # the sum is bounded below by 0, so the column has a positive entry
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


# ---------------------------------------------------------------------------
# Polyhedral cones
# ---------------------------------------------------------------------------

class PolyhedralCone(_Record):
    """A cone in halfspace form: {x : row . x >= 0 for every row}.

    Closedness holds by construction (finite intersection of closed
    halfspaces), and closure under nonnegative combinations is immediate
    from linearity; only pointedness is a real property of the rows and
    it is decided exactly via the rank of the row matrix.

    ``interior_point``, when supplied, must satisfy every constraint
    strictly and is kept as given. When omitted, an exact feasibility
    solve finds one exactly when the cone is solid (some x has every
    row . x > 0); a cone left with ``interior_point`` None has an empty
    interior, so the strict order ``ll`` is undefined on it.
    """

    __slots__ = ("dimension", "rows", "interior_point")
    _defaults = {"interior_point": None}
    _compared = ("dimension", "rows")  # not interior_point
    dimension: int
    rows: tuple[Vec, ...]
    interior_point: Vec | None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        rows = tuple(_as_vec(r, self.dimension) for r in self.rows)
        if not rows:
            raise ValueError("a halfspace cone needs at least one row")
        if any(r.is_zero for r in rows):
            raise ValueError("constraint rows must be nonzero")
        object.__setattr__(self, "rows", rows)
        witness = self.interior_point
        if witness is not None:
            witness = _as_vec(witness, self.dimension)
            if not all(r.dot(witness) > 0 for r in rows):
                raise ValueError(
                    f"supplied interior point {witness} is not strictly feasible"
                )
        else:
            # A x - s = 1 with s >= 0 is solvable iff some x has A x > 0
            # (scale it until A x >= 1): None proves the interior empty
            witness = _slack_solution(rows, Fraction(1))
        object.__setattr__(self, "interior_point", witness)

    @classmethod
    def orthant(cls, dimension: int) -> "PolyhedralCone":
        """The nonnegative orthant, with (1, ..., 1) as its interior point."""
        rows = tuple(
            Vec(tuple(Fraction(int(i == j)) for j in range(dimension)))
            for i in range(dimension)
        )
        return cls(dimension, rows, Vec((Fraction(1),) * dimension))

    def contains(self, x: Vec) -> bool:
        x = _as_vec(x, self.dimension)
        return all(row.dot(x) >= 0 for row in self.rows)

    @property
    def is_solid(self) -> bool:
        return self.interior_point is not None

    def interior_contains(self, x: Vec) -> bool:
        """Strict membership x in int(cone); refuses on cones that are not solid."""
        if not self.is_solid:
            raise ConeNotSolid(
                "cone has an empty interior: no x satisfies every row strictly, "
                "so strict comparisons are undefined"
            )
        x = _as_vec(x, self.dimension)
        return all(row.dot(x) > 0 for row in self.rows)

    def is_pointed(self) -> bool:
        return exact_rank(self.rows) == self.dimension

    def lineality_witness(self) -> Vec | None:
        """Nonzero x with both x and -x in the cone, if the cone has a line."""
        return kernel_vector(self.rows, self.dimension)

    def is_orthant(self) -> bool:
        """True iff this cone equals the nonnegative orthant.

        Exact test: every row nonnegative (so the orthant is contained in
        every halfspace) and every coordinate axis appears as a row up to
        positive scale (so nothing outside the orthant sneaks in).
        """
        covered = [False] * self.dimension
        for row in self.rows:
            if any(c < 0 for c in row):
                return False
            support = [j for j, c in enumerate(row) if c != 0]
            if len(support) == 1:
                covered[support[0]] = True
        return all(covered)


def _slack_solution(
    rows: Sequence[Vec], rhs: Fraction, slack_sum: Fraction | None = None
) -> Vec | None:
    """Some x with A x - s = (rhs, ..., rhs) for a slack s >= 0, and with
    1 . s = slack_sum when that is given; None if there is none. The
    simplex sees x as x+ - x- with both parts nonnegative."""
    m, d = len(rows), len(rows[0])
    matrix = [
        [*a, *(-c for c in a), *(Fraction(-int(i == k)) for k in range(m))]
        for i, a in enumerate(rows)
    ]
    rhs_column = [rhs] * m
    if slack_sum is not None:
        matrix.append([Fraction(0)] * (2 * d) + [Fraction(1)] * m)
        rhs_column.append(slack_sum)
    z = _nonnegative_solution(matrix, rhs_column)
    return None if z is None else Vec(tuple(p - n for p, n in zip(z[:d], z[d : 2 * d])))


# ---------------------------------------------------------------------------
# Ordered spaces and order predicates
# ---------------------------------------------------------------------------

class OrderedSpace(_Record):
    """A rational vector space ordered by a pointed halfspace cone.

    The order is ``s <= r iff r - s`` lies in the cone. Pointedness is
    enforced at construction because antisymmetry (and with it the
    equidistance of best-approximation sets) depends on it.
    """

    __slots__ = ("dimension", "cone")
    dimension: int
    cone: PolyhedralCone

    def __post_init__(self):
        if self.cone.dimension != self.dimension:
            raise DimensionMismatch(
                f"cone dimension {self.cone.dimension} != space dimension {self.dimension}"
            )
        if not self.cone.is_pointed():
            witness = self.cone.lineality_witness()
            raise ConeNotPointed(
                f"cone contains the line through {witness}; the induced order "
                "would not be antisymmetric"
            )

    @classmethod
    def orthant(cls, dimension: int) -> "OrderedSpace":
        return cls(dimension, PolyhedralCone.orthant(dimension))

    def zero(self) -> Vec:
        return Vec.zero(self.dimension)

    def leq(self, s: Vec, r: Vec) -> bool:
        """s precedes-or-equals r: r - s in the cone."""
        return self.cone.contains(r - s)

    def lt(self, s: Vec, r: Vec) -> bool:
        """Strict order: leq and distinct."""
        s = _as_vec(s, self.dimension)
        r = _as_vec(r, self.dimension)
        return s != r and self.cone.contains(r - s)

    def ll(self, s: Vec, r: Vec) -> bool:
        """Interior order: r - s in int(cone). Requires a solid cone."""
        return self.cone.interior_contains(r - s)


def project(cone: PolyhedralCone, vecs: Sequence[Vec]) -> list[tuple[int, ...]]:
    """Integer images A x of the vectors, one coordinate per cone row.

    For a pointed cone K = {x : A x >= 0} the row matrix A is injective,
    so s <= r in the cone order exactly when A s <= A r componentwise,
    and s == r exactly when the images are equal. Every vector is put on
    one integer grid per axis, then each row is applied by ``_row_images``:
    image coordinate k is a_k . x times one positive factor shared by the
    whole list. Images from one call therefore compare, add and subtract
    exactly like the vectors. Images from two calls can have different
    factors, so they are compared only through the vectors. An instance's
    ``QcmInstance._images`` gives a block of its table on the same terms,
    one factor per row and call, from the table itself rather than from
    ``Vec``s.
    """
    dim = cone.dimension
    if any(v.dimension != dim for v in vecs):
        raise DimensionMismatch(f"every vector must have the cone's dimension {dim}")
    return list(zip(*_row_images(cone, *_vec_grid(vecs, dim))))


def _vec_grid(vecs: Sequence[Vec], dimension: int) -> tuple[list[int], list[list[int]]]:
    """Per axis, the lcm of the vectors' denominators and the column of
    their coordinates times that lcm, in the form ``_row_images`` takes."""
    columns = [[v.coords[j] for v in vecs] for j in range(dimension)]
    axis = [lcm(*{c.denominator for c in column}) for column in columns]
    return axis, [
        [c.numerator * (d // c.denominator) for c in column] for column, d in zip(columns, axis)
    ]


def _row_images(
    cone: PolyhedralCone, axis: Sequence[int], columns: Sequence[Sequence[int]]
) -> list[Sequence[int]]:
    """Per cone row, the images of the vectors that ``columns`` holds one
    axis at a time, on the grid that ``axis`` gives: column j holds
    axis[j] * c * x_j for every vector x and one positive c shared by all
    of them. Row k is scaled by the lcm of its denominators on that grid,
    so image k of x is a_k . x times one positive factor per row. A row
    that is one axis with weight 1 returns that column itself."""
    images = []
    for row in cone.rows:
        on_grid = [a / d for a, d in zip(row, axis)]
        scale = lcm(*{c.denominator for c in on_grid})
        terms = []
        for c, column in zip(on_grid, columns):
            if c:
                w = c.numerator * (scale // c.denominator)
                terms.append(column if w == 1 else list(map(mul, column, repeat(w))))
        images.append(terms[0] if len(terms) == 1 else list(map(sum, zip(*terms))))
    return images
