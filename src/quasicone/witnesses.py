"""Witness certificates for best-approximation membership.

A witness is a finite table f over the ground set. It certifies that a
candidate h is a best approximation to q when three exact conditions
hold:

  anchor   f(h) equals the distance from q to h,
  shift    f(x) - f(h) lies in the cone for every candidate x,
  gap      d(q, x) - f(x) lies in the cone for every candidate x.

Membership in the best set is equivalent to the existence of such an f,
and the canonical table f(x) = d(q, x) always realizes the forward
implication, so verification against the canonical witness is a second,
independent route to the best set (the backward direction mirrors with
d(x, q)): anchor and gap hold for every candidate, and shift holds
exactly for the best ones.

Every check of a table goes through one ``_Conditions`` object per table
and candidate set, the library's and ``witness --mode check``'s alike. It
is the only code that checks a table against an instance: q, then each
entry of f in f's own order (its label, then its vector's length), then
that f covers every point, then that the candidates are points. Each
message names the field of a witness file, such as ``witness.f[3][1]``.
It then projects f and the distances once through the cone rows, and
decides every member from that one projection by integer comparisons.

A witness file is the JSON form that ``files.witness_json`` writes: q, the
direction, and f as ``[label, vector]`` pairs. ``load_witness_file`` reads
it as ``files`` reads an instance file, and checks its shape only;
``_Conditions`` checks it against an instance. ``verdict_json`` renders a
verdict.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .cones import Vec, _Record, project
from .errors import DimensionMismatch, InstanceFileError, UnknownLabel
from .files import _fail, _load, _require, _vec, vec_json
from .metric import FORWARD, Label, QcmInstance, Query, _best_indices, _direction, directed_distance

ANCHOR_EQUALITY = "anchor-equality"
SHIFT_NOT_IN_CONE = "f-shift-not-in-cone"
GAP_NOT_IN_CONE = "d-gap-not-in-cone"


class WitnessTable(_Record):
    """A candidate certificate: target point, direction, and the table f.
    The direction is checked as a ``Query`` checks it
    (``metric._direction``); q and f are checked against an instance only
    when the table is (``_Conditions``)."""

    __slots__ = ("q", "direction", "f")
    q: Label
    direction: str
    f: Mapping[Label, Vec]

    def __post_init__(self):
        _direction(self.direction)
        object.__setattr__(self, "f", dict(self.f))

    def value(self, label: Label) -> Vec:
        try:
            return self.f[label]
        except KeyError:
            raise ValueError(f"witness table has no value for point {label!r}") from None


class WitnessVerdict(_Record):
    """Outcome of checking the three conditions.

    When the verdict fails, ``failed_condition`` names the first condition
    violated (in the fixed order anchor, shift, gap) and ``counterexample``
    carries the offending point together with the value that left the
    cone (for the anchor condition: the mismatched table value).
    """

    __slots__ = ("holds", "failed_condition", "counterexample")
    _defaults = {"failed_condition": None, "counterexample": None}
    holds: bool
    failed_condition: str | None
    counterexample: tuple[Label, Vec] | None

    def __post_init__(self):
        if not self.holds and (self.failed_condition is None or self.counterexample is None):
            raise ValueError("failing verdicts must carry a condition and counterexample")


def canonical_witness(instance: QcmInstance, q: Label, direction: str = FORWARD) -> WitnessTable:
    """The table f(x) = d(q, x) (forward) or f(x) = d(x, q) (backward).

    This is the certificate that always exists for genuine best
    approximations; in particular f(q) is the zero vector.
    """
    instance.require_points([q])
    table = {
        x: directed_distance(instance, q, x, direction) for x in instance.points
    }
    return WitnessTable(q, direction, table)


def parse_witness(doc: dict) -> WitnessTable:
    if not isinstance(doc, dict):
        raise InstanceFileError("witness: expected a JSON object")
    q = _require(doc, "q", "witness")
    if not isinstance(q, str):
        raise _fail("witness.q", "expected a label string")
    direction = _require(doc, "direction", "witness")
    try:
        _direction(direction)
    except ValueError as exc:
        raise _fail("witness.direction", str(exc)) from None
    f_doc = _require(doc, "f", "witness")
    if not isinstance(f_doc, list):
        raise InstanceFileError("witness.f: expected an array of [label, vector] pairs")
    table = {}
    for i, entry in enumerate(f_doc):
        spot = f"witness.f[{i}]"
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise _fail(spot, "expected [label, vector]")
        if entry[0] in table:
            raise _fail(spot, f"repeats the entry for {entry[0]!r}")
        table[entry[0]] = _vec(entry[1], f"{spot}[1]")
    return WitnessTable(q, direction, table)


def load_witness_file(path: str | Path) -> WitnessTable:
    return _load(path, parse_witness)


def verdict_json(verdict: WitnessVerdict) -> dict:
    doc: dict = {"holds": verdict.holds}
    if not verdict.holds:
        doc["failed_condition"] = verdict.failed_condition
        point, value = verdict.counterexample
        doc["counterexample"] = {"point": point, "value": vec_json(value)}
    return doc


def _leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class _Conditions:
    """The three conditions for every anchor in one candidate set.

    The constructor checks its inputs, in this order, and each message
    names the field of a witness file: q must be a point
    (``witness.q``, ``UnknownLabel``); each entry of f, in f's own order,
    must have a point as its label (``witness.f[i]``, ``UnknownLabel``) and
    a vector of the space's dimension (``witness.f[i][1]``,
    ``DimensionMismatch``); f must have an entry for every point
    (``witness.f``, ``ValueError``); and the candidates must be points
    (``UnknownLabel``). f and the distance row over the candidates are then
    projected once, in one call so that their images share a scale; each
    anchor is decided by integer comparisons, and a counterexample vector
    is built only for a failing verdict.
    """

    def __init__(self, instance: QcmInstance, witness: WitnessTable, candidates: Iterable[Label]):
        if not instance.has_point(witness.q):
            raise UnknownLabel(f"witness.q: unknown point label {witness.q!r}")
        dimension = instance.space.dimension
        for i, (label, value) in enumerate(witness.f.items()):
            if not instance.has_point(label):
                raise UnknownLabel(f"witness.f[{i}]: unknown point label {label!r}")
            if value.dimension != dimension:
                raise DimensionMismatch(
                    f"witness.f[{i}][1]: expected {dimension} coordinates, got {value.dimension}"
                )
        missing = next((x for x in instance.points if x not in witness.f), None)
        if missing is not None:
            raise ValueError(f"witness.f: no entry for point {missing!r}")
        self.candidates = candidates = sorted(set(candidates))
        instance.require_points(candidates)
        self.f = [witness.f[x] for x in candidates]
        self.d = [directed_distance(instance, witness.q, x, witness.direction) for x in candidates]
        images = project(instance.space.cone, self.f + self.d)
        self.pf, self.pd = images[: len(candidates)], images[len(candidates) :]
        self.floor = tuple(map(min, zip(*self.pf)))
        self.gap = next(
            (i for i, (f, d) in enumerate(zip(self.pf, self.pd)) if not _leq(f, d)), None
        )

    def verdict(self, i: int) -> WitnessVerdict:
        """The first failing condition for anchor i, in the order anchor,
        shift, gap, with its first failing candidate in label order."""
        if self.pf[i] != self.pd[i]:
            return WitnessVerdict(False, ANCHOR_EQUALITY, (self.candidates[i], self.f[i]))
        if not _leq(self.pf[i], self.floor):
            x = next(x for x, p in enumerate(self.pf) if not _leq(self.pf[i], p))
            return WitnessVerdict(
                False, SHIFT_NOT_IN_CONE, (self.candidates[x], self.f[x] - self.f[i])
            )
        if self.gap is not None:
            x = self.gap
            return WitnessVerdict(
                False, GAP_NOT_IN_CONE, (self.candidates[x], self.d[x] - self.f[x])
            )
        return WitnessVerdict(True)

    def certified(self) -> list[Label]:
        """The candidates the table certifies, in label order."""
        return [h for i, h in enumerate(self.candidates) if self.verdict(i).holds]

    def set_verdict(self, members: Iterable[Label]) -> WitnessVerdict:
        """The verdict for every member at once: that of the first failing
        member in label order, or one that holds. Members that are not
        candidates raise ``ValueError``."""
        members = sorted(set(members))
        missing = [m for m in members if m not in self.candidates]
        if missing:
            raise ValueError(
                f"members {missing} are not contained in the candidate set"
            )
        for m in members:
            verdict = self.verdict(self.candidates.index(m))
            if not verdict.holds:
                return verdict
        return WitnessVerdict(True)


def verify_witness_for_element(
    instance: QcmInstance,
    witness: WitnessTable,
    candidates: Iterable[Label],
    h: Label,
) -> WitnessVerdict:
    """Check the three conditions with h as the anchored member.

    Exact verdict: no tolerances. Candidates are scanned in label order,
    so the reported counterexample is deterministic.
    """
    conditions = _Conditions(instance, witness, candidates)
    if h not in conditions.candidates:
        raise ValueError(f"anchored element {h!r} is not in the candidate set")
    return conditions.verdict(conditions.candidates.index(h))


def verify_witness_for_set(
    instance: QcmInstance,
    witness: WitnessTable,
    candidates: Iterable[Label],
    members: Iterable[Label],
) -> WitnessVerdict:
    """Check one shared table against every member of a set.

    Holds iff the three conditions hold for each member under the single
    f; the verdict of the first failing member, in label order, is
    returned. A valid shared witness forces the members' distances to
    agree, since each member's anchor precedes every other's and the
    order is antisymmetric. The empty member set holds vacuously.
    """
    return _Conditions(instance, witness, candidates).set_verdict(members)


def default_witness_pool(
    instance: QcmInstance, q: Label, direction: str = FORWARD
) -> list[WitnessTable]:
    """Canonical table plus componentwise shrinkages t*d for t in {1/2, 3/4}.

    A ready-made pool for callers and tests of
    ``search_counterexample_witness``; the search without a pool does not
    use it. The shrunk tables keep every value inside the cone whenever
    the distances are; they mostly exercise the verifier, since the anchor
    condition pins f to the true distance at the members.
    """
    canonical = canonical_witness(instance, q, direction)
    pool = [canonical]
    for t in (Fraction(1, 2), Fraction(3, 4)):
        pool.append(
            WitnessTable(q, direction, {x: t * v for x, v in canonical.f.items()})
        )
    return pool


def search_counterexample_witness(
    instance: QcmInstance,
    q: Label,
    candidates: Iterable[Label],
    pool: Iterable[WitnessTable] | None = None,
    direction: str = FORWARD,
) -> tuple[WitnessTable, frozenset[Label]] | None:
    """Find a witness certifying at least two members at once, if any.

    Any set certified by any table is contained in the best set, so the
    search space collapses: compute the best set, and if it has fewer
    than two members no table in any pool can succeed. Without a pool,
    return the canonical table with the best set, which that table
    certifies exactly. Otherwise return the first table of the pool, in
    order, that certifies two or more candidates, with the set it
    certifies; one table certifies a set exactly when it certifies each
    member. A pool table for another q or direction raises ``ValueError``.
    """
    if pool is not None:
        pool = list(pool)
        for i, witness in enumerate(pool):
            if (witness.q, witness.direction) != (q, direction):
                raise ValueError(
                    f"pool[{i}] is a table for q={witness.q!r} ({witness.direction}); "
                    f"the search is for q={q!r} ({direction})"
                )
    labels, _, best_at = _best_indices(instance, Query(q, candidates, direction))
    if len(best_at) < 2:
        return None
    if pool is None:
        return canonical_witness(instance, q, direction), frozenset(labels[i] for i in best_at)
    for witness in pool:
        certified = _Conditions(instance, witness, labels).certified()
        if len(certified) >= 2:
            return witness, frozenset(certified)
    return None
