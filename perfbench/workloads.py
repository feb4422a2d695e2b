"""Seeded inputs and command lists for the benchmark workloads.

Every instance file is built and written through the library: the
Example 3 and 4 generators for closed-form files, ``QcmInstance`` for
explicit tables, and ``instance_json`` for the document. Next to each file
the generator keeps the plain data that the oracle works from: the
coordinates (and alpha) of a closed-form file, and the integer points of
an explicit table.

Explicit tables live over the cone K = {x1 >= 0, x1 + x2 >= 0,
x1 + x2 + x3 >= 0} in Q^3, whose row matrix A is invertible but not the
identity. Points P_r are integer vectors (in units of 1/SCALE), and

    e(r, s) = (P_r - P_s)^+ + EPSILON * 1   for r != s,   e(r, r) = 0,
    d(r, s) = A^{-1} e(r, s) / SCALE.

Then A d = e / SCALE, so x <=_K y exactly when e_x <= e_y componentwise,
and the metric axioms hold by construction: e >= 0, e(r, s) > 0 for
r != s, and (a - c)^+ <= (a - b)^+ + (b - c)^+ gives the triangle
inequality.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from quasicone import (
    FORWARD,
    OrderedSpace,
    PolyhedralCone,
    QcmInstance,
    Query,
    Vec,
    build_example3,
    build_example4,
    instance_json,
)

CONE_ROWS = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
CONE_ROWS_INVERSE = ((1, 0, 0), (-1, 1, 0), (0, -1, 1))
SCALE = 12
EPSILON = 4
# Example 4 slack parameters; each seed picks one
ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(3))

COMMANDS = ("verify", "approx", "classify", "witness_emit", "witness_check")


@dataclass(frozen=True)
class InstanceSpec:
    """One instance file: its labels, queries and the data that defines it.

    ``coords`` (and ``alpha`` for Example 4) define a closed-form file;
    ``points`` (integer vectors in units of 1/SCALE) define a table.
    Every query is forward and shares ``candidates``.
    """

    name: str
    kind: str
    labels: tuple[str, ...]
    queries: tuple[str, ...]
    candidates: tuple[str, ...]
    coords: dict[str, Fraction] | None = None
    alpha: Fraction | None = None
    points: dict[str, tuple[int, int, int]] | None = None

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def explicit_entries(self) -> int:
        """Table entries spelled out in the file (none for closed forms)."""
        return self.size * self.size if self.kind == "table" else 0

    def order_vector(self, r: str, s: str) -> tuple:
        """Coordinates in which the instance's cone order is componentwise.

        Closed forms use the orthant, so this is d(r, s) itself; tables
        use the integer vector e(r, s) * SCALE.
        """
        if self.kind == "table":
            if r == s:
                return (0, 0, 0)
            return tuple(
                max(a - b, 0) + EPSILON for a, b in zip(self.points[r], self.points[s])
            )
        return self.distance(r, s)

    def distance(self, r: str, s: str) -> tuple[Fraction, ...]:
        """d(r, s) from the defining closed form or construction."""
        if self.kind == "table":
            e = self.order_vector(r, s)
            return tuple(
                Fraction(sum(a * x for a, x in zip(row, e)), SCALE)
                for row in CONE_ROWS_INVERSE
            )
        x, y = self.coords[r], self.coords[s]
        if self.kind == "example3":
            if x == y:
                return (Fraction(0), Fraction(0))
            return (Fraction(1), Fraction(0)) if x > y else (Fraction(0), Fraction(1))
        if x >= y:
            return (x - y, self.alpha * (x - y))
        return (self.alpha, Fraction(1))


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    specs: Callable[[random.Random], list[InstanceSpec]]

    @property
    def verifies(self) -> bool:
        return "verify" in self.commands


def _label(value: Fraction) -> str:
    return str(value)


def example3_spec(rng: random.Random, name: str, half_range: int = 10, candidates: int = 20) -> InstanceSpec:
    """Example 3 on the grid -half_range:half_range:1/2.

    The candidates are a seeded subset of the interior points. The three
    queries hit the three regimes of the direction metric: a candidate
    (singleton best set), a non-candidate with candidates on both sides
    (empty best set) and an end point (every candidate is best).
    """
    grid = [Fraction(k, 2) for k in range(-2 * half_range, 2 * half_range + 1)]
    coords = {_label(v): v for v in grid}
    interior = grid[1:-1]
    while True:
        chosen = sorted(rng.sample(interior, candidates))
        between = [v for v in interior if chosen[0] < v < chosen[-1] and v not in chosen]
        if between:
            break
    queries = (rng.choice(chosen), rng.choice(between), rng.choice((grid[0], grid[-1])))
    return InstanceSpec(
        name=name,
        kind="example3",
        labels=tuple(coords),
        queries=tuple(_label(v) for v in queries),
        candidates=tuple(_label(v) for v in chosen),
        coords=coords,
    )


def example4_spec(rng: random.Random, name: str, stop: int = 40) -> InstanceSpec:
    """Example 4 with seeded alpha; candidates are the grid 0:stop:1/4.

    Queries: beta < 0 (every candidate is best), beta on the grid (a
    singleton) and beta past the grid (the largest candidate).
    """
    grid = [Fraction(k, 4) for k in range(4 * stop + 1)]
    below = -Fraction(rng.randint(1, 16), 8)
    on = rng.choice(grid)
    past = stop + Fraction(2 * rng.randint(0, 7) + 1, 8)
    coords = {_label(v): v for v in [below, *grid, past]}
    return InstanceSpec(
        name=name,
        kind="example4",
        labels=tuple(coords),
        queries=(_label(below), _label(on), _label(past)),
        candidates=tuple(_label(v) for v in grid),
        coords=coords,
        alpha=rng.choice(ALPHAS),
    )


def table_spec(rng: random.Random, name: str, size: int) -> InstanceSpec:
    """A seeded explicit table over K with three queries.

    The other size - 3 points are the candidates; one of them (at a seeded
    position) lies above all the others. Query q0 lies below every
    candidate (every candidate is best), q1 above every candidate (the top
    candidate alone is best) and q2 inside the cloud.
    """
    count = size - 3
    span = 10 * SCALE
    cloud = [tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(count - 1)]
    top = tuple(max(p[j] for p in cloud) + rng.randint(1, SCALE) for j in range(3))
    cloud.insert(rng.randrange(count), top)
    low = tuple(min(p[j] for p in cloud) - rng.randint(1, SCALE) for j in range(3))
    high = tuple(top[j] + rng.randint(1, SCALE) for j in range(3))
    middle = tuple(rng.randint(-span // 2, span // 2) for _ in range(3))
    width = len(str(count - 1))
    candidates = [f"h{i:0{width}d}" for i in range(count)]
    points = dict(zip(candidates, cloud))
    points.update(q0=low, q1=high, q2=middle)
    return InstanceSpec(
        name=name,
        kind="table",
        labels=tuple(points),
        queries=("q0", "q1", "q2"),
        candidates=tuple(candidates),
        points=points,
    )


def build_instance(spec: InstanceSpec) -> QcmInstance:
    """The library instance for a spec, built the way a user would."""
    if spec.kind == "example3":
        return build_example3(list(spec.coords.items()))
    if spec.kind == "example4":
        return build_example4(list(spec.coords.items()), spec.alpha)
    rows = tuple(Vec.of(*row) for row in CONE_ROWS)
    space = OrderedSpace(3, PolyhedralCone(3, rows))
    table = {(r, s): Vec(spec.distance(r, s)) for r in spec.labels for s in spec.labels}
    return QcmInstance(space, spec.labels, table)


def write_instance(spec: InstanceSpec, directory: Path) -> Path:
    instance = build_instance(spec)
    candidates = frozenset(spec.candidates)
    queries = [Query(q, candidates, FORWARD) for q in spec.queries]
    path = directory / f"{spec.name}.json"
    path.write_text(json.dumps(instance_json(instance, queries)))
    return path


WORKLOADS = {
    # The O(n^3) triangle pass dominates; best sets and witnesses are tiny.
    # Covers orthant (Example 3) and general-cone (table) rows.
    "verify-dense": Workload(
        "verify-dense",
        ("verify", "approx", "classify"),
        lambda rng: [example3_spec(rng, "example3"), table_spec(rng, "table30", 30)],
    ),
    # O(|H|^2) best-set scan and witness check on the orthant; the file is
    # tiny but every command regenerates and self-checks a 163^2 table.
    "approx-wide": Workload(
        "approx-wide",
        ("approx", "classify", "witness_emit", "witness_check"),
        lambda rng: [example4_spec(rng, "example4")],
    ),
    # Same commands on a general cone: parsing 14,400 rational entries and
    # the pairwise general-cone scans, no generator self-check.
    "cone-table": Workload(
        "cone-table",
        ("approx", "classify", "witness_emit", "witness_check"),
        lambda rng: [table_spec(rng, "table120", 120)],
    ),
}


def generate(workload: Workload, seed: int, directory: Path) -> list[tuple[InstanceSpec, Path]]:
    """Draw the workload's specs from the seed and write their files."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [(spec, write_instance(spec, directory)) for spec in workload.specs(rng)]
