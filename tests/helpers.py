"""Shared builders for tests: rational grids, seeded random instances, and
an in-process runner of the CLI."""
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
import io
import random
from typing import NamedTuple

from hypothesis import assume
from hypothesis import strategies as st

from quasicone import OrderedSpace, PolyhedralCone, QcmInstance, Query, Vec, exact_rank
from quasicone.cli import main
from quasicone.reports import _nonzero_member


class CliResult(NamedTuple):
    """One run of the CLI: its exit code and what it wrote."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(args) -> CliResult:
    """Run the CLI's ``main`` in this process on ``args``, each turned into a
    ``str``, with stdout and stderr captured. A return is exit code 0, and
    a ``SystemExit`` gives its code; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main([str(a) for a in args])
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(code, out.getvalue(), err.getvalue())


def rational_grid(start, stop, step):
    """[(label, value)] for start, start+step, ..., <= stop."""
    value = Fraction(start)
    stop = Fraction(stop)
    step = Fraction(step)
    points = []
    while value <= stop:
        points.append((str(value), value))
        value += step
    return points


def random_vec(rng: random.Random, dim: int, lo=0, hi=4, denominators=(1, 2, 3)) -> Vec:
    return Vec(
        tuple(Fraction(rng.randint(lo, hi), rng.choice(denominators)) for _ in range(dim))
    )


def random_table_instance(rng: random.Random, max_points=8, dim=3) -> QcmInstance:
    """Random explicit table over the orthant: zero diagonal, small entries.

    Roughly a fifth of the off-diagonal entries reuse an earlier value so
    exact ties (and with them multi-member best sets) actually occur.
    """
    n = rng.randint(3, max_points)
    labels = [f"p{i}" for i in range(n)]
    space = OrderedSpace.orthant(dim)
    table = {}
    seen = []
    for r in labels:
        for s in labels:
            if r == s:
                table[(r, s)] = Vec.zero(dim)
                continue
            if seen and rng.random() < 0.2:
                value = rng.choice(seen)
            else:
                value = random_vec(rng, dim)
                seen.append(value)
            table[(r, s)] = value
    return QcmInstance(space, labels, table)


def read_blocks(instance: QcmInstance) -> list:
    """Wraps the instance's grid, so that the list returned records each
    block of the table read as images from here on, as (rows, cols)."""
    blocks = []
    grid = instance._grid

    def recording(rows, cols):
        blocks.append((list(rows), list(cols)))
        return grid(rows, cols)

    instance._grid = recording
    return blocks


def random_query(rng: random.Random, instance: QcmInstance, max_candidates=6,
                 direction="forward") -> Query:
    labels = list(instance.points)
    q = rng.choice(labels)
    size = rng.randint(1, min(max_candidates, len(labels)))
    return Query(q, frozenset(rng.sample(labels, size)), direction)


def seeded_instances(count: int, seed: int, max_points=8, max_candidates=6, dim=3):
    """The shared corpus of (instance, query) pairs used by several suites."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        instance = random_table_instance(rng, max_points=max_points, dim=dim)
        pairs.append((instance, random_query(rng, instance, max_candidates)))
    return pairs


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def vectors(dim: int):
    return st.tuples(*[small_rationals] * dim).map(Vec)


@st.composite
def pointed_cones(draw, max_rows: int):
    """Random pointed cones in Q^1..Q^3 with at most ``max_rows`` rows:
    skew rows, redundant rows and more rows than the dimension all occur."""
    dim = draw(st.integers(min_value=1, max_value=min(3, max_rows)))
    rows = draw(st.lists(vectors(dim), min_size=dim, max_size=max_rows))
    assume(not any(r.is_zero for r in rows) and exact_rank(rows) == dim)
    return PolyhedralCone(dim, tuple(rows))


@st.composite
def axiom_tables(draw, ties: bool = False):
    """Random explicit tables over random pointed cones, failing axioms
    included. Most entries are 0 to 3 times one nonzero member of the
    cone, so every axiom both holds and fails; in a noisy table any entry
    may instead be an arbitrary small vector, negative coordinates included.
    With ``ties`` a table has at least two points and its multiples are 0
    or 1, so equal distances, and best sets of two or more, are common."""
    cone = draw(pointed_cones(max_rows=4))
    space = OrderedSpace(cone.dimension, cone)
    member = _nonzero_member(cone) or space.zero()
    entry = st.integers(min_value=0, max_value=1 if ties else 3).map(lambda k: member * k)
    if draw(st.booleans()):
        entry = st.one_of(entry, vectors(cone.dimension))
    labels = [f"p{i}" for i in range(draw(st.integers(min_value=2 if ties else 1, max_value=4)))]
    zero_diagonal = draw(st.booleans())
    table = {
        (r, s): space.zero() if r == s and zero_diagonal else draw(entry)
        for r in labels
        for s in labels
    }
    return QcmInstance(space, labels, table)


def regime_best(kind: str, coords: dict, candidates, q: str, alpha=None) -> list[str]:
    """The forward best set of ``q`` among ``candidates`` by the paper's case
    analysis of Example 3 (``kind`` "example3") or Example 4 ("example4",
    slack parameter ``alpha``); ``coords`` maps each label to its coordinate.
    A test-side copy of the benchmark oracle's analysis, so that the
    benchmark does not depend on the tests."""
    x = coords[q]
    below = [h for h in candidates if coords[h] < x]
    above = [h for h in candidates if coords[h] > x]
    if kind == "example3":
        # d is 0 at q itself, (1, 0) below it and (0, 1) above it
        if q in candidates:
            return [q]
        return [] if below and above else sorted(candidates)
    lower = [h for h in candidates if coords[h] <= x]
    if not lower:
        return sorted(candidates)  # every distance is (alpha, 1)
    nearest = max(lower, key=lambda h: coords[h])
    t = x - coords[nearest]  # d(q, nearest) = (t, alpha t)
    if not above:
        return [nearest]
    chain_first = t <= alpha and alpha * t <= 1
    flat_first = alpha <= t and 1 <= alpha * t
    if chain_first and flat_first:
        return sorted([nearest, *above])
    if chain_first:
        return [nearest]
    if flat_first:
        return sorted(above)
    return []
