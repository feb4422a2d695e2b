"""Uniqueness-of-best-approximation classification over query families.

A candidate set is Chebyshev over a family of query points when every
query's best set is a singleton. At finite scale the two weakenings
collapse to checkable surrogates: a finite best set is sequentially
compact exactly when it is nonempty, and no finite set contains an
infinite linearly independent family, so the census records each best
set's cardinality and the rank of its span under a caller-supplied
embedding as the evidence that would witness failure in an infinite
ambient space.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .cones import Vec, _Record, exact_rank
from .errors import EmbeddingRequired
from .metric import FORWARD, Label, QcmInstance, Query, _best_indices, _candidate_set, _direction

if TYPE_CHECKING:
    from .witnesses import WitnessTable

FINITE_SCALE_SEMANTICS = (
    "finite-instance semantics: compactness of a best set fails only by "
    "emptiness, and linear-independence failure cannot occur in a finite "
    "set; cardinalities and span ranks are reported as the surrogates"
)


class QueryFamily(_Record):
    """Query points, one shared candidate set, one direction. The queries
    are checked first, then the candidates and the direction as a
    ``Query`` checks them (``metric._candidate_set``, ``metric._direction``)."""

    __slots__ = ("queries", "candidates", "direction")
    _defaults = {"direction": FORWARD}
    queries: tuple[Label, ...]
    candidates: frozenset[Label]
    direction: str

    def __post_init__(self):
        if isinstance(self.queries, str):  # a string would be split into characters
            raise ValueError(f"queries must be a collection of labels, not {self.queries!r}")
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise ValueError("query family must contain at least one query point")
        object.__setattr__(self, "candidates", _candidate_set(self.candidates))
        _direction(self.direction)


class CensusEntry(_Record):
    __slots__ = ("q", "cardinality", "rank")
    _defaults = {"rank": None}
    q: Label
    cardinality: int
    rank: int | None


class ChebyshevReport(_Record):
    __slots__ = (
        "family", "chebyshev_holds", "chebyshev_counterexamples", "quasi_holds",
        "quasi_counterexamples", "pseudo_evaluated", "pseudo_holds", "census", "semantics",
    )
    _defaults = {"semantics": FINITE_SCALE_SEMANTICS}
    family: QueryFamily
    chebyshev_holds: bool
    chebyshev_counterexamples: tuple[tuple[Label, Label, Label], ...]
    quasi_holds: bool
    quasi_counterexamples: tuple[tuple[Label, str], ...]
    pseudo_evaluated: bool
    pseudo_holds: bool | None
    census: tuple[CensusEntry, ...]
    semantics: str


def classify(
    instance: QcmInstance,
    family: QueryFamily,
    embedding: dict[Label, Vec] | None = None,
    check_pseudo: bool | None = None,
) -> ChebyshevReport:
    """Classify the family's candidate set.

    Chebyshev holds iff every query's best set is a singleton. A query
    whose best set has two or more members yields a (q, h1, h2)
    counterexample; a query with an empty best set also defeats
    Chebyshev but is reported through the quasi counterexamples, since
    no member pair exists to exhibit. Each query reads only its best set,
    without the minimal front's pairwise scan.

    The linear-independence census runs when an embedding is supplied
    (or when ``check_pseudo=True``, which demands one); it always holds
    at finite scale and the span rank of each embedded best set is
    recorded in the census.
    """
    if check_pseudo is None:
        check_pseudo = embedding is not None
    if check_pseudo and embedding is None:
        raise EmbeddingRequired(
            "the linear-independence census needs an embedding of the "
            "ground set into a rational vector space"
        )
    if check_pseudo:
        missing = sorted(set(family.candidates) - set(embedding))
        if missing:
            raise EmbeddingRequired(f"embedding has no vectors for {missing}")

    multiplicity = []
    empties = []
    census = []
    for q in family.queries:
        labels, _, best_at = _best_indices(
            instance, Query(q, family.candidates, family.direction)
        )
        members = [labels[i] for i in best_at]
        rank = None
        if check_pseudo:
            rank = exact_rank([embedding[m] for m in members]) if members else 0
        census.append(CensusEntry(q, len(members), rank))
        if len(members) >= 2:
            multiplicity.append((q, members[0], members[1]))
        elif not members:
            empties.append((q, "empty best set: no sequence of members exists"))

    return ChebyshevReport(
        family=family,
        chebyshev_holds=not multiplicity and not empties,
        chebyshev_counterexamples=tuple(multiplicity),
        quasi_holds=not empties,
        quasi_counterexamples=tuple(empties),
        pseudo_evaluated=check_pseudo,
        pseudo_holds=True if check_pseudo else None,
        census=tuple(census),
    )


def counterexample_to_theorem_form(
    report: ChebyshevReport, instance: QcmInstance
) -> list[tuple[Label, Label, Label, WitnessTable]]:
    """Package each multiplicity counterexample with its certificate.

    Every (q, h1, h2) is returned together with the canonical witness
    for q, re-verified for the pair {h1, h2}: uniqueness fails exactly
    when one shared table certifies two distinct members. Returns an
    empty list for a report without multiplicity counterexamples.
    """
    from .witnesses import canonical_witness, verify_witness_for_set

    packaged = []
    for q, h1, h2 in report.chebyshev_counterexamples:
        witness = canonical_witness(instance, q, report.family.direction)
        verdict = verify_witness_for_set(
            instance, witness, report.family.candidates, {h1, h2}
        )
        if not verdict.holds:
            raise RuntimeError(
                f"internal inconsistency: counterexample ({q!r}, {h1!r}, {h2!r}) "
                f"failed re-verification on condition {verdict.failed_condition}"
            )
        packaged.append((q, h1, h2, witness))
    return packaged
