"""Instance files, the JSON file reading that witness files share
(``_load``), and JSON rendering of results.

Instance files are JSON with exact rational literals ("p" or "p/q"
strings; binary floats are rejected). One file describes one instance:
the ordered space, the labeled points, the metric (an explicit table or
one of the closed-form generators), plus optional queries and an
optional embedding for the linear-independence census. An explicit
table is validated in full here, and its entries are converted only when
the instance reads them. Every table goes through one route: a few
whole-table passes check its structure, and each distinct literal is
screened once; only an entry holding a literal that is not a plain string
(``cones.PLAIN_LITERAL``) is read element by element, which rejects the
literal or writes it back plain, so the instance keeps plain strings
only. An entry-by-entry loop runs only when a pass fails, to name the
first bad field.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain, compress, count
from operator import itemgetter, not_
from pathlib import Path
from typing import TYPE_CHECKING

from .cones import (
    _MAX_DIGITS, PLAIN_LITERAL, OrderedSpace, PolyhedralCone, Vec, _Record, as_rational,
    format_rational, plain_value,
)
from .errors import DuplicateLabel, InstanceFileError, NotARational, UnknownLabel
from .metric import (
    DIRECTION_METRIC,
    EXPLICIT_TABLE,
    FORWARD,
    Label,
    QcmInstance,
    Query,
    _first_repeat,
    build_example3,
    build_example4,
)

if TYPE_CHECKING:  # result types, named in annotations only
    from .approximation import ApproximationResult
    from .chebyshev import ChebyshevReport
    from .reports import AxiomReport
    from .witnesses import WitnessTable


class LoadedInstance(_Record):
    """An instance file's instance, queries and embedding; unlike the
    other records it can be changed, so it has no hash."""

    __slots__ = ("instance", "queries", "embedding")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    instance: QcmInstance
    queries: list[Query]
    embedding: dict[Label, Vec] | None


def _fail(where: str, message: str) -> "InstanceFileError":
    return InstanceFileError(f"{where}: {message}")


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, found without rendering n:
    an n of b bits has the t digits of 2^(b-1), which log10(2) to 20
    places gives, or t + 1."""
    t = (n.bit_length() - 1) * 30102999566398119521 // 10**20 + 1
    return t + (n >= 10**t)


def _rational(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise _fail(where, f"{value!r} is a binary float; write an exact literal like \"3/4\"")
    # a JSON number gets the digit cap of a string literal: with the
    # int-string limit off, json decodes an int of any length
    if isinstance(value, int) and value and (digits := _digits(abs(value))) > _MAX_DIGITS:
        raise _fail(
            where, f"rational literal has a run of {digits} digits; at most {_MAX_DIGITS} are allowed"
        )
    try:
        return as_rational(value)
    except NotARational as exc:
        raise _fail(where, str(exc)) from None


_plain = PLAIN_LITERAL.fullmatch


def _literals(value, where: str, dimension: int | None) -> tuple[str, ...]:
    """A file vector as a table keeps it until it is read, every literal a
    string that ``PLAIN_LITERAL`` matches: a plain one as it is, anything
    else read by ``_rational`` (which rejects it or names its value) and
    written back plain. A ``dimension`` of None accepts any length."""
    if not isinstance(value, list):
        raise _fail(where, f"expected an array of rational literals, got {type(value).__name__}")
    coords = tuple(
        c if isinstance(c, str) and _plain(c) else format_rational(_rational(c, f"{where}[{i}]"))
        for i, c in enumerate(value)
    )
    if dimension not in (None, len(coords)):
        raise _fail(where, f"expected {dimension} coordinates, got {len(coords)}")
    return coords


def _vec(value, where: str, dimension: int | None = None) -> Vec:
    return Vec._trusted(tuple(map(plain_value, _literals(value, where, dimension))))


_from, _to, _value = itemgetter(0), itemgetter(1), itemgetter(2)


def _table(entries: list, known: set, dimension: int) -> dict:
    """The table of ``entries``, each a list ``[from, to, vector]`` of two
    labels in ``known`` and a list of ``dimension`` literals, with no pair
    repeated. Each structural check is one pass over the whole table, and
    one screen over the distinct literals finds those that are not plain
    strings; only an entry holding one of them goes through ``_literals``,
    which rejects the literal or writes it back plain. When a pass fails,
    the per-entry loop names the first bad field and raises. No per-entry
    iterator is made for a valid table: one per entry (``zip(*entries)``)
    set off a full garbage collection while loading a 14,400-entry table."""
    try:  # an unhashable label or literal fails a pass with a TypeError
        if (
            set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}
            and set(map(type, values := list(map(_value, entries)))) <= {list}
            and set(map(len, values)) <= {dimension}
            and known.issuperset(sources := list(map(_from, entries)))
            and known.issuperset(targets := list(map(_to, entries)))
            and len(table := dict(zip(zip(sources, targets), map(tuple, values)))) == len(entries)
        ):
            # a dict, not a set: it visits the literals in the order they were
            # decoded, so in memory order. It merges equal literals (JSON 1,
            # 1.0 and true), so an entry is matched against the odd literals
            # by equality and then read element by element, never looked up
            # by a merged key
            odd = {c for c in dict.fromkeys(chain.from_iterable(values))
                   if type(c) is not str or not _plain(c)}
            for i in compress(count(), map(not_, map(odd.isdisjoint, values))) if odd else ():
                table[sources[i], targets[i]] = _literals(values[i], f"metric.entries[{i}][2]", dimension)
            return table
    except TypeError:
        pass
    seen = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise _fail(f"metric.entries[{i}]", "expected [from, to, vector]")
        src, dst, value = entry
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise _fail(f"metric.entries[{i}]", "from/to must be label strings")
        if src not in known or dst not in known:
            label = dst if src in known else src
            raise _fail(f"metric.entries[{i}]", f"label {label!r} is not in 'points'")
        if (src, dst) in seen:
            raise _fail(f"metric.entries[{i}]", f"repeats the entry for ({src!r}, {dst!r})")
        seen.add((src, dst))
        _literals(value, f"metric.entries[{i}][2]", dimension)
    raise AssertionError("the whole-table passes rejected a table with no bad field")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise _fail(where, f"missing required field {key!r}")
    return doc[key]


def parse_space(doc) -> OrderedSpace:
    if not isinstance(doc, dict):
        raise _fail("space", "expected an object with 'dimension' and 'rows'")
    dimension = _require(doc, "dimension", "space")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise _fail("space.dimension", f"expected a positive integer, got {dimension!r}")
    rows_doc = _require(doc, "rows", "space")
    if not isinstance(rows_doc, list) or not rows_doc:
        raise _fail("space.rows", "expected a nonempty array of constraint rows")
    rows = tuple(
        _vec(row, f"space.rows[{i}]", dimension) for i, row in enumerate(rows_doc)
    )
    interior = doc.get("interior_point")
    if interior is not None:
        interior = _vec(interior, "space.interior_point", dimension)
    try:
        cone = PolyhedralCone(dimension, rows, interior)
        return OrderedSpace(dimension, cone)
    except ValueError as exc:
        raise _fail("space", str(exc)) from None


def _parse_points(doc) -> list[tuple[Label, Fraction | None]]:
    if not isinstance(doc, list) or not doc:
        raise _fail("points", "expected a nonempty array of points")
    points = []
    seen = set()
    for i, entry in enumerate(doc):
        spot = f"points[{i}]"
        if isinstance(entry, str):
            label, coordinate = entry, None
        elif isinstance(entry, dict):
            label = _require(entry, "label", spot)
            if not isinstance(label, str):
                raise _fail(f"{spot}.label", "labels must be strings")
            coordinate = entry.get("coordinate")
            if coordinate is not None:
                coordinate = _rational(coordinate, f"{spot}.coordinate")
        else:
            raise _fail(spot, "expected a label string or an object with 'label'")
        if label in seen:
            raise _fail(spot, f"duplicate point label {label!r}")
        seen.add(label)
        points.append((label, coordinate))
    return points


def parse_instance(doc: dict) -> LoadedInstance:
    """The instance, queries and embedding of a decoded instance file.

    A bad field raises ``InstanceFileError`` naming it, and a query label
    that is not a point raises ``UnknownLabel``. An explicit table is
    parsed once, by ``_table``: whole-table passes for a valid table, and
    the entry-by-entry loop only to name the first bad field of an invalid
    one. The instance keeps tuples of plain strings copied out of ``doc``,
    never its lists."""
    if not isinstance(doc, dict):
        raise InstanceFileError("top level: expected a JSON object")
    points = _parse_points(_require(doc, "points", "top level"))
    labels = [label for label, _ in points]
    metric = _require(doc, "metric", "top level")
    if not isinstance(metric, dict):
        raise _fail("metric", "expected an object with a 'kind'")
    kind = _require(metric, "kind", "metric")

    if kind in ("example3", "example4"):
        missing = [label for label, coord in points if coord is None]
        if missing:
            raise _fail(
                "points",
                f"metric kind {kind!r} needs a 'coordinate' for every point; "
                f"missing for {missing}",
            )
        if "space" in doc:
            space = parse_space(doc["space"])
            if space.dimension != 2 or not space.cone.is_orthant():
                raise _fail(
                    "space",
                    f"metric kind {kind!r} fixes the plane with the orthant cone",
                )
        if kind == "example4":
            alpha = _rational(_require(metric, "alpha", "metric"), "metric.alpha")
        try:
            instance = build_example3(points) if kind == "example3" else build_example4(points, alpha)
        except DuplicateLabel as exc:  # labels are distinct here, so two points share a coordinate
            i = _first_repeat([coord for _, coord in points])
            raise _fail(f"points[{i}].coordinate", str(exc)) from None
        except ValueError as exc:
            raise _fail("metric.alpha", str(exc)) from None
    elif kind == "table":
        space = parse_space(_require(doc, "space", "top level"))
        entries_doc = _require(metric, "entries", "metric")
        if not isinstance(entries_doc, list):
            raise _fail("metric.entries", "expected an array of [from, to, vector] triples")
        table = _table(entries_doc, set(labels), space.dimension)
        try:
            instance = QcmInstance._on_read(space, labels, literals=table)
        except ValueError as exc:  # the table is not total
            raise _fail("metric.entries", str(exc)) from None
    else:
        raise _fail("metric.kind", f"unknown kind {kind!r}; expected 'table', 'example3', or 'example4'")

    queries_doc = doc.get("queries", [])
    if not isinstance(queries_doc, list):
        raise _fail("queries", f"expected an array of query objects, got {type(queries_doc).__name__}")
    queries = []
    for i, qdoc in enumerate(queries_doc):
        spot = f"queries[{i}]"
        if not isinstance(qdoc, dict):
            raise _fail(spot, "expected an object with 'q'")
        q = _require(qdoc, "q", spot)
        if not isinstance(q, str):
            raise _fail(f"{spot}.q", "expected a label string")
        candidates = qdoc.get("candidates")
        if candidates is None:
            candidates = list(instance.points)
        if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
            raise _fail(f"{spot}.candidates", "expected an array of label strings")
        # an unknown label is a semantic error (exit 3), not a parse error
        for where, label in ((f"{spot}.q", q), *(
            (f"{spot}.candidates[{k}]", c) for k, c in enumerate(candidates)
        )):
            if not instance.has_point(label):
                raise UnknownLabel(f"{where}: unknown point label {label!r}")
        direction = qdoc.get("direction", FORWARD)
        try:
            queries.append(Query(q, frozenset(candidates), direction))
        except ValueError as exc:
            raise _fail(f"{spot}.direction" if candidates else f"{spot}.candidates", str(exc)) from None

    embedding = None
    if "embedding" in doc:
        emb_doc = doc["embedding"]
        if not isinstance(emb_doc, dict):
            raise _fail("embedding", "expected an object mapping labels to vectors")
        embedding = {}
        dimension = None  # the first vector fixes the dimension for the rest
        for label, value in emb_doc.items():
            spot = f"embedding[{label!r}]"
            if not instance.has_point(label):
                raise _fail(spot, f"label {label!r} is not in 'points'")
            embedding[label] = _vec(value, spot, dimension)
            dimension = embedding[label].dimension
            if not dimension:
                raise _fail(spot, "expected at least one coordinate")
    return LoadedInstance(instance, queries, embedding)


def _load(path: str | Path, parse):
    """Read and decode a JSON file, then parse it; every failure is an
    ``InstanceFileError`` (or, for a query naming a label that is not a
    point, an ``UnknownLabel``) that starts with the path."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InstanceFileError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFileError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except json.JSONDecodeError as exc:
        raise InstanceFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # past the int-string limit
        raise InstanceFileError(
            f"{path}: invalid JSON: a number exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        ) from None
    except RecursionError as exc:
        raise InstanceFileError(f"{path}: invalid JSON: {exc}") from None
    try:
        return parse(doc)
    except (InstanceFileError, UnknownLabel) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_instance_file(path: str | Path) -> LoadedInstance:
    return _load(path, parse_instance)


# ---------------------------------------------------------------------------
# Writing instances and witnesses
# ---------------------------------------------------------------------------

def vec_json(vec: Vec) -> list[str]:
    return [format_rational(c) for c in vec]


def space_json(space: OrderedSpace) -> dict:
    doc = {
        "dimension": space.dimension,
        "rows": [vec_json(row) for row in space.cone.rows],
    }
    return doc


def instance_json(
    instance: QcmInstance, queries: list[Query] | None = None
) -> dict:
    """Instance file document. Generator-built instances serialize their
    closed form; explicit tables list every entry."""
    provenance = instance.provenance
    doc: dict = {}
    if provenance.kind == EXPLICIT_TABLE:
        doc["space"] = space_json(instance.space)
        doc["points"] = list(instance.points)
        doc["metric"] = {
            "kind": "table",
            "entries": [[r, s, vec_json(v)] for r, s, v in instance.entries()],
        }
    else:
        coords = provenance.coordinate_map()
        doc["points"] = [
            {"label": label, "coordinate": format_rational(coords[label])}
            for label in instance.points
        ]
        if provenance.kind == DIRECTION_METRIC:
            doc["metric"] = {"kind": "example3"}
        else:
            doc["metric"] = {"kind": "example4", "alpha": format_rational(provenance.alpha)}
    if queries:
        doc["queries"] = [
            {
                "q": query.q,
                "candidates": sorted(query.candidates),
                "direction": query.direction,
            }
            for query in queries
        ]
    return doc


def witness_json(witness: WitnessTable) -> dict:
    return {
        "q": witness.q,
        "direction": witness.direction,
        "f": [[label, vec_json(value)] for label, value in sorted(witness.f.items())],
    }


# ---------------------------------------------------------------------------
# Result rendering
# ---------------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, Vec):
        return vec_json(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def axiom_report_json(report: AxiomReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {
                "axiom": c.axiom,
                "passed": c.passed,
                "checks": c.checks,
                "counterexample": _jsonify(c.counterexample),
                "note": c.note,
            }
            for c in report
        ],
    }


def approximation_json(query: Query, result: ApproximationResult) -> dict:
    return {
        "q": query.q,
        "direction": query.direction,
        "candidates": sorted(query.candidates),
        "best": sorted(result.best),
        "common_distance": vec_json(result.common_distance)
        if result.common_distance is not None
        else None,
        "minimal_front": sorted(result.minimal_front),
        "stats": {
            "pairs": result.stats.pairs,
            "comparable": result.stats.comparable,
            "incomparable": result.stats.incomparable,
        },
    }


def chebyshev_report_json(report: ChebyshevReport) -> dict:
    return {
        "direction": report.family.direction,
        "candidates": sorted(report.family.candidates),
        "queries": list(report.family.queries),
        "semantics": report.semantics,
        "chebyshev": {
            "holds": report.chebyshev_holds,
            "counterexamples": [
                {"q": q, "h1": h1, "h2": h2}
                for q, h1, h2 in report.chebyshev_counterexamples
            ],
        },
        "quasi": {
            "holds": report.quasi_holds,
            "counterexamples": [
                {"q": q, "reason": reason} for q, reason in report.quasi_counterexamples
            ],
        },
        "pseudo": {
            "evaluated": report.pseudo_evaluated,
            "holds": report.pseudo_holds,
        },
        "census": [
            {"q": entry.q, "cardinality": entry.cardinality, "rank": entry.rank}
            for entry in report.census
        ],
    }
