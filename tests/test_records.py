"""The record contract of the package's value types: equality only within
one class and over the compared fields, a hash equal to that of the
compared fields' tuple, the exact repr text, defaults, and fields that
cannot be changed, except on ``LoadedInstance``, which is mutable and has
no hash."""
import copy
import pickle
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from quasicone import (
    ApproximationResult,
    AxiomCheck,
    AxiomReport,
    CensusEntry,
    ChebyshevReport,
    DominanceStats,
    LoadedInstance,
    OrderedSpace,
    PolyhedralCone,
    Provenance,
    QcmInstance,
    Query,
    QueryFamily,
    Vec,
    WitnessTable,
    WitnessVerdict,
)
from quasicone.chebyshev import FINITE_SCALE_SEMANTICS

ROWS = (Vec.of(1, 0), Vec.of(0, 1))
ONE = "Vec(coords=(Fraction(1, 1),))"
ORTHANT2 = (
    "PolyhedralCone(dimension=2, rows=(Vec(coords=(Fraction(1, 1), Fraction(0, 1))), "
    "Vec(coords=(Fraction(0, 1), Fraction(1, 1)))), "
    "interior_point=Vec(coords=(Fraction(1, 1), Fraction(1, 1))))"
)
FAMILY = "QueryFamily(queries=('a',), candidates=frozenset({'b'}), direction='forward')"


class Case(NamedTuple):
    make: Callable  # builds the record, leaving every defaulted field out
    other: Callable  # the same record with one compared field changed
    text: str  # its repr
    compared: tuple[str, ...]  # the fields that == and hash read
    defaults: dict  # the defaulted fields and their values


def family():
    return QueryFamily(("a",), frozenset({"b"}))


CASES = {
    "Vec": Case(
        lambda: Vec.of(1, "1/2"), lambda: Vec.of(1, "1/3"),
        "Vec(coords=(Fraction(1, 1), Fraction(1, 2)))", ("coords",), {},
    ),
    "PolyhedralCone": Case(
        lambda: PolyhedralCone(2, ROWS), lambda: PolyhedralCone(2, (Vec.of(2, 0), Vec.of(0, 1))),
        ORTHANT2, ("dimension", "rows"), {},
    ),
    "OrderedSpace": Case(
        lambda: OrderedSpace(2, PolyhedralCone(2, ROWS)),
        lambda: OrderedSpace(2, PolyhedralCone(2, ROWS[::-1])),
        f"OrderedSpace(dimension=2, cone={ORTHANT2})", ("dimension", "cone"), {},
    ),
    "Provenance": Case(
        lambda: Provenance("explicit-table"), lambda: Provenance("other"),
        "Provenance(kind='explicit-table', alpha=None, coordinates=None)",
        ("kind", "alpha", "coordinates"), {"alpha": None, "coordinates": None},
    ),
    "Query": Case(
        lambda: Query("a", frozenset({"b"})), lambda: Query("a", frozenset({"b"}), "backward"),
        "Query(q='a', candidates=frozenset({'b'}), direction='forward')",
        ("q", "candidates", "direction"), {"direction": "forward"},
    ),
    "AxiomCheck": Case(
        lambda: AxiomCheck("C2", True, 0), lambda: AxiomCheck("C2", True, 1),
        "AxiomCheck(axiom='C2', passed=True, checks=0, counterexample=None, note='')",
        ("axiom", "passed", "checks", "counterexample", "note"),
        {"counterexample": None, "note": ""},
    ),
    "AxiomReport": Case(
        lambda: AxiomReport(), lambda: AxiomReport((AxiomCheck("C2", True, 0),)),
        "AxiomReport(checks=())", ("checks",), {"checks": ()},
    ),
    "DominanceStats": Case(
        lambda: DominanceStats(3, 2, 1), lambda: DominanceStats(3, 1, 2),
        "DominanceStats(pairs=3, comparable=2, incomparable=1)",
        ("pairs", "comparable", "incomparable"), {},
    ),
    "ApproximationResult": Case(
        lambda: ApproximationResult(
            frozenset({"a"}), Vec.of(1), frozenset({"a"}), DominanceStats(0, 0, 0)
        ),
        lambda: ApproximationResult(frozenset(), None, frozenset({"a"}), DominanceStats(0, 0, 0)),
        f"ApproximationResult(best=frozenset({{'a'}}), common_distance={ONE}, "
        "minimal_front=frozenset({'a'}), "
        "stats=DominanceStats(pairs=0, comparable=0, incomparable=0))",
        ("best", "common_distance", "minimal_front", "stats"), {},
    ),
    "QueryFamily": Case(
        family, lambda: QueryFamily(("a",), frozenset({"b"}), "backward"),
        FAMILY, ("queries", "candidates", "direction"), {"direction": "forward"},
    ),
    "CensusEntry": Case(
        lambda: CensusEntry("a", 1), lambda: CensusEntry("a", 1, 1),
        "CensusEntry(q='a', cardinality=1, rank=None)", ("q", "cardinality", "rank"),
        {"rank": None},
    ),
    "ChebyshevReport": Case(
        lambda: ChebyshevReport(family(), True, (), True, (), False, None, ()),
        lambda: ChebyshevReport(family(), True, (), True, (), True, True, ()),
        f"ChebyshevReport(family={FAMILY}, chebyshev_holds=True, chebyshev_counterexamples=(), "
        "quasi_holds=True, quasi_counterexamples=(), pseudo_evaluated=False, pseudo_holds=None, "
        f"census=(), semantics={FINITE_SCALE_SEMANTICS!r})",
        ("family", "chebyshev_holds", "chebyshev_counterexamples", "quasi_holds",
         "quasi_counterexamples", "pseudo_evaluated", "pseudo_holds", "census", "semantics"),
        {"semantics": FINITE_SCALE_SEMANTICS},
    ),
    "WitnessTable": Case(
        lambda: WitnessTable("a", "forward", {"a": Vec.of(1)}),
        lambda: WitnessTable("a", "backward", {"a": Vec.of(1)}),
        f"WitnessTable(q='a', direction='forward', f={{'a': {ONE}}})", ("q", "direction", "f"), {},
    ),
    "WitnessVerdict": Case(
        lambda: WitnessVerdict(True), lambda: WitnessVerdict(False, "shift", ("a", Vec.of(1))),
        "WitnessVerdict(holds=True, failed_condition=None, counterexample=None)",
        ("holds", "failed_condition", "counterexample"),
        {"failed_condition": None, "counterexample": None},
    ),
}
# a field that holds a dict makes the record unhashable
UNHASHABLE = {"WitnessTable"}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_equality_hash_repr_and_defaults(case):
    record, again, other = case.make(), case.make(), case.other()
    assert record == again and not record != again
    assert record != other
    assert repr(record) == case.text
    assert {name: getattr(record, name) for name in case.defaults} == case.defaults
    key = tuple(getattr(record, name) for name in case.compared)
    # equal only to a record of its own class, never to its fields' tuple
    assert record.__eq__(key) is NotImplemented and record != key
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) == hash(key)
        assert hash(other) == hash(tuple(getattr(other, name) for name in case.compared))
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_fields_cannot_be_assigned_or_deleted(case):
    record = case.make()
    before = repr(record)
    for name in case.compared:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_every_record_class_is_pinned():
    # the 15 value types: the 14 above and LoadedInstance
    assert len(CASES) == 14


def test_fields_by_keyword_and_bad_arguments():
    assert Query(direction="backward", candidates=frozenset({"b"}), q="a") == Query(
        "a", frozenset({"b"}), "backward"
    )
    for args, kwargs in [
        (("a",), {}),
        (("a", {"b"}, "forward", "extra"), {}),
        (("a", {"b"}), {"q": "c"}),
        (("a", {"b"}), {"nope": 1}),
    ]:
        with pytest.raises(TypeError):
            Query(*args, **kwargs)


def test_interior_point_is_kept_but_not_compared():
    given = PolyhedralCone(2, ROWS, Vec.of(2, 3))
    found = PolyhedralCone(2, ROWS)
    assert given.interior_point == Vec.of(2, 3)
    assert given == found and hash(given) == hash(found) == hash((2, ROWS))
    assert repr(given) != repr(found)
    assert repr(given).endswith("interior_point=Vec(coords=(Fraction(2, 1), Fraction(3, 1))))")
    assert repr(PolyhedralCone(2, ROWS, None)) == repr(found) == ORTHANT2


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="not strictly feasible"):
        PolyhedralCone(2, ROWS, Vec.of(0, 1))
    with pytest.raises(ValueError, match="candidate set must be nonempty"):
        Query("a", frozenset())
    with pytest.raises(ValueError, match="failing verdicts must carry"):
        WitnessVerdict(False)
    assert Vec((1, "1/2")).coords == (Fraction(1), Fraction(1, 2))
    assert Vec._trusted((Fraction(1),)) == Vec.of(1)


def test_loaded_instance_is_mutable_and_unhashable():
    instance = QcmInstance(OrderedSpace.orthant(1), ["a"], {("a", "a"): Vec.of(0)})
    loaded = LoadedInstance(instance, [], None)
    assert loaded == LoadedInstance(instance, [], None)
    assert loaded != LoadedInstance(instance, [Query("a", frozenset({"a"}))], None)
    assert repr(loaded) == (
        "LoadedInstance(instance=QcmInstance(1 points, dim 1, explicit-table), queries=[], "
        "embedding=None)"
    )
    with pytest.raises(TypeError):
        hash(loaded)
    loaded.embedding = {"a": Vec.of(1)}
    assert loaded.embedding == {"a": Vec.of(1)}
    assert copy.copy(loaded) == loaded
