"""Exact cone algebra over rational vector spaces.

Vectors carry ``fractions.Fraction`` coordinates, cones are finite
intersections of closed halfspaces ``{x : a . x >= 0}``, and the induced
order predicates compare without any tolerance: repeated evaluation is
bit-identical, and antisymmetry of the order is a theorem (for pointed
cones), not a numerical accident.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import ConeNotPointed, ConeNotSolid, DimensionMismatch, NotARational
from .reports import AxiomCheck, AxiomReport

RationalLike = Union[Fraction, int, str]

_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact rational.

    Accepts ``Fraction``, ``int``, and literal strings ``"p"`` / ``"p/q"``.
    Floats are rejected outright: a binary float is not the number the
    user wrote down, and the order predicates must stay exact.
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
        if not _RATIONAL_LITERAL.match(text):
            raise NotARational(f"not a rational literal 'p' or 'p/q': {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise NotARational(f"zero denominator: {value!r}") from None
    raise NotARational(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render as the literal the parser accepts ("p" or "p/q")."""
    return str(value)


@dataclass(frozen=True)
class Vec:
    """Immutable rational vector."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(as_rational(c) for c in self.coords)
        )

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
        return Vec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.coords))

    def __mul__(self, scalar: RationalLike) -> "Vec":
        c = as_rational(scalar)
        return Vec(tuple(a * c for a in self.coords))

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
# Exact linear algebra (Gauss-Jordan over Fraction)
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


# ---------------------------------------------------------------------------
# Polyhedral cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedralCone:
    """A cone in halfspace form: {x : row . x >= 0 for every row}.

    Closedness holds by construction (finite intersection of closed
    halfspaces), and closure under nonnegative combinations is immediate
    from linearity; only pointedness is a real property of the rows and
    it is decided exactly via the rank of the row matrix.

    ``interior_point``, when supplied, must satisfy every constraint
    strictly; it certifies that the cone is solid. When omitted, a small
    deterministic search tries to find such a point (the row sum plus
    perturbations), which succeeds for every orthant-like cone. Cones the
    search cannot certify simply have no strict order ``ll`` available.
    """

    dimension: int
    rows: tuple[Vec, ...]
    interior_point: Vec | None = field(default=None, compare=False)

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
            witness = _search_interior_point(rows, self.dimension)
        object.__setattr__(self, "interior_point", witness)

    @classmethod
    def orthant(cls, dimension: int) -> "PolyhedralCone":
        rows = tuple(
            Vec(tuple(Fraction(int(i == j)) for j in range(dimension)))
            for i in range(dimension)
        )
        return cls(dimension, rows)

    def contains(self, x: Vec) -> bool:
        x = _as_vec(x, self.dimension)
        return all(row.dot(x) >= 0 for row in self.rows)

    @property
    def is_solid(self) -> bool:
        return self.interior_point is not None

    def interior_contains(self, x: Vec) -> bool:
        """Strict membership x in int(cone); refuses on uncertified cones."""
        if not self.is_solid:
            raise ConeNotSolid(
                "cone has no certified interior point; supply interior_point "
                "to enable strict comparisons"
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


def _search_interior_point(rows: tuple[Vec, ...], dimension: int) -> Vec | None:
    candidates = []
    total = Vec.zero(dimension)
    for r in rows:
        total = total + r
    candidates.append(total)
    candidates.extend(rows)
    for r in rows:
        for t in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            candidates.append(total + t * r)
    for x in candidates:
        if all(row.dot(x) > 0 for row in rows):
            return x
    # greedy repair: push along the violated rows, stepping short enough to
    # keep the already-strict constraints strict
    x = total
    for _ in range(16):
        violated = [r for r in rows if r.dot(x) <= 0]
        if not violated:
            return x
        step = Vec.zero(dimension)
        for r in violated:
            step = step + r
        if step.is_zero:
            return None
        bounds = [
            r.dot(x) / (-2 * r.dot(step))
            for r in rows
            if r.dot(x) > 0 and r.dot(step) < 0
        ]
        t = min(bounds) if bounds else Fraction(1)
        if t <= 0:
            return None
        x = x + t * step
    return None


# ---------------------------------------------------------------------------
# Ordered spaces and order predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedSpace:
    """A rational vector space ordered by a pointed halfspace cone.

    The order is ``s <= r iff r - s`` lies in the cone. Pointedness is
    enforced at construction because antisymmetry (and with it the
    equidistance of best-approximation sets) depends on it.
    """

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
    one integer grid per axis, then each row is scaled by the lcm of its
    denominators on that grid: image coordinate k is a_k . x times one
    positive factor shared by the whole list. Images from one call
    therefore compare, add and subtract exactly like the vectors; images
    from different calls must not be mixed.
    """
    dim = cone.dimension
    if any(v.dimension != dim for v in vecs):
        raise DimensionMismatch(f"every vector must have the cone's dimension {dim}")
    axis = [reduce(lcm, (v.coords[j].denominator for v in vecs), 1) for j in range(dim)]
    weights = []
    for row in cone.rows:
        on_grid = [a / d for a, d in zip(row, axis)]
        scale = reduce(lcm, (c.denominator for c in on_grid), 1)
        weights.append(
            [(j, c.numerator * (scale // c.denominator)) for j, c in enumerate(on_grid) if c]
        )
    grid = [
        [c.numerator * (d // c.denominator) for c, d in zip(v.coords, axis)] for v in vecs
    ]
    return [tuple(sum(w * x[j] for j, w in row) for row in weights) for x in grid]


# ---------------------------------------------------------------------------
# Cone axiom checking
# ---------------------------------------------------------------------------

def _sample_members(
    cone: PolyhedralCone, rng: random.Random, want: int = 24, budget: int = 600
) -> list[Vec]:
    members = [Vec.zero(cone.dimension)]
    if cone.interior_point is not None:
        members.append(cone.interior_point)
    for _ in range(budget):
        if len(members) >= want:
            break
        v = Vec(
            tuple(
                Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                for _ in range(cone.dimension)
            )
        )
        if cone.contains(v):
            members.append(v)
    # pad with nonnegative combinations of what we already have; each one is
    # re-checked exactly before being admitted
    attempts = 0
    while len(members) < want and attempts < budget:
        attempts += 1
        a = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        b = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        v = a * rng.choice(members) + b * rng.choice(members)
        if cone.contains(v):
            members.append(v)
    return members


def check_cone_axioms(cone: PolyhedralCone, *, seed: int = 0) -> AxiomReport:
    """Check the three cone axioms on a halfspace cone.

    Nontriviality is checked by exhibiting a nonzero member, searched for
    pseudo-randomly from ``seed`` when the cone has no interior point;
    closure under nonnegative combinations holds by construction for an
    intersection of halfspaces and is reported without a check;
    pointedness is decided exactly via the rank of the row matrix.
    """
    checks = []

    # C1: a nonzero member (closedness holds by construction, not tested)
    nonzero = cone.interior_point
    if nonzero is None:
        members = _sample_members(cone, random.Random(seed))
        nonzero = next((m for m in members if not m.is_zero), None)
    if nonzero is not None:
        checks.append(
            AxiomCheck(
                axiom="C1",
                passed=True,
                checks=1,
                note=f"nonzero member {nonzero} exhibited; closed by construction",
            )
        )
    else:
        checks.append(
            AxiomCheck(
                axiom="C1",
                passed=False,
                checks=1,
                counterexample={"reason": "no nonzero member found within sampling budget"},
                note="cone may be trivial ({0})",
            )
        )

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
