"""Instance and witness file schemas: round trips and precise failures."""
import copy
import json
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quasicone import (
    BACKWARD,
    FORWARD,
    InstanceFileError,
    NotARational,
    OrderedSpace,
    PolyhedralCone,
    QcmInstance,
    Query,
    UnknownLabel,
    Vec,
    as_rational,
    best_approximation_set,
    build_example3,
    build_example4,
    canonical_witness,
    instance_json,
    load_instance_file,
    load_witness_file,
    parse_instance,
    parse_witness,
    transpose,
    verify_axioms,
    witness_json,
)
from quasicone import files, metric
from quasicone.cones import PLAIN_LITERAL, plain_value
from quasicone.files import _literals, parse_space, space_json

from helpers import (
    random_table_instance, rational_grid, read_blocks, seeded_instances, small_rationals,
)

TABLE_DOC = {
    "space": {"dimension": 2, "rows": [["1", "0"], ["0", "1"]]},
    "points": ["a", "b"],
    "metric": {
        "kind": "table",
        "entries": [
            ["a", "a", ["0", "0"]],
            ["a", "b", ["1", "1/2"]],
            ["b", "a", ["2", "0"]],
            ["b", "b", ["0", "0"]],
        ],
    },
    "queries": [{"q": "a", "candidates": ["b"], "direction": "backward"}],
    "embedding": {"a": ["1", "0"], "b": ["0", "1"]},
}

EXAMPLE4_DOC = {
    "space": {"dimension": 2, "rows": [["1", "0"], ["0", "1"]]},
    "points": [{"label": "0", "coordinate": "0"}, {"label": "1/2", "coordinate": "1/2"}],
    "metric": {"kind": "example4", "alpha": "1/2"},
    "queries": [{"q": "0", "candidates": ["1/2"], "direction": "forward"}],
    "embedding": {"0": ["1"], "1/2": ["0"]},
}

WITNESS_DOC = {"q": "a", "direction": "forward", "f": [["a", ["0", "0"]], ["b", ["1", "1/2"]]]}

# past CPython's 4,300-digit limit on int-string conversion
OVERLONG_LITERALS = ["9" * 5000, "1/" + "7" * 5000]
# Unicode digits that int() would accept: Arabic-Indic 1/2, fullwidth 3
NON_ASCII_LITERALS = ["\u0661/\u0662", "\uff13"]

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["0", "1/2", "-3", "a", "b", "forward", "table", "example4"])
    | st.sampled_from(OVERLONG_LITERALS + NON_ASCII_LITERALS)
)
# the schema's own field names, so a replaced node can be a near-valid object
json_keys = st.text(max_size=4) | st.sampled_from([
    "space", "dimension", "rows", "points", "label", "coordinate", "metric", "kind", "alpha",
    "entries", "queries", "q", "candidates", "direction", "embedding", "f", "a", "b", "0", "1/2",
])
json_values = json_leaves | st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_keys, inner, max_size=3),
    max_leaves=6,
)


def json_paths(doc, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from json_paths(child, path + (key,))


@st.composite
def instances_with_queries(draw):
    """An explicit table, or an Example 3 or Example 4 grid with random
    labels and alpha, plus a few queries over its points."""
    kind = draw(st.sampled_from(["table", "example3", "example4"]))
    if kind == "table":
        instance = random_table_instance(draw(st.randoms(use_true_random=False)))
    else:
        coords = draw(st.lists(small_rationals, min_size=1, max_size=8, unique=True))
        labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=len(coords),
                               max_size=len(coords), unique=True))
        points = list(zip(labels, coords))
        if kind == "example3":
            instance = build_example3(points)
        else:
            alpha = draw(st.fractions(min_value=0, max_value=4, max_denominator=5).filter(bool))
            instance = build_example4(points, alpha)
    labels = st.sampled_from(instance.points)
    queries = draw(st.lists(st.builds(
        Query, labels, st.frozensets(labels, min_size=1), st.sampled_from([FORWARD, BACKWARD])
    ), max_size=3))
    return instance, queries


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestParseInstance:
    def test_explicit_table(self):
        loaded = parse_instance(json.loads(json.dumps(TABLE_DOC)))
        assert loaded.instance.distance("a", "b") == Vec.of(1, "1/2")
        assert loaded.queries[0].direction == "backward"
        assert loaded.embedding["b"] == Vec.of(0, 1)

    def test_generator_metric(self):
        doc = {
            "points": [
                {"label": "0", "coordinate": "0"},
                {"label": "1/2", "coordinate": "1/2"},
            ],
            "metric": {"kind": "example4", "alpha": "1/2"},
        }
        loaded = parse_instance(doc)
        assert loaded.instance.distance("1/2", "0") == Vec.of("1/2", "1/4")

    def test_default_candidates_are_all_points(self):
        doc = {
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example3"},
            "queries": [{"q": "0"}],
        }
        loaded = parse_instance(doc)
        assert loaded.queries[0].candidates == {"0", "1"}
        assert loaded.queries[0].direction == FORWARD

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("points"), "points"),
            (lambda d: d.pop("metric"), "metric"),
            (lambda d: d["metric"].pop("entries"), "entries"),
            (lambda d: d["space"].pop("rows"), "rows"),
            (lambda d: d["metric"]["entries"].pop(), "not total"),
            (lambda d: d["metric"]["entries"][1].__setitem__(2, ["1"]), "expected 2 coordinates"),
            (lambda d: d["metric"].__setitem__("kind", "mystery"), "unknown kind"),
            (lambda d: d["queries"][0].pop("q"), "missing required field"),
            (lambda d: d["metric"]["entries"].append(["b", "a", ["1", "1"]]),
             r"entries\[4\]: repeats the entry for \('b', 'a'\)"),
            (lambda d: d["metric"]["entries"].append(["a", "ghost", ["1", "1"]]),
             r"entries\[4\]: label 'ghost' is not in 'points'"),
            (lambda d: d.__setitem__("queries", None), "queries: expected an array"),
            (lambda d: d.__setitem__("queries", 5), "queries: expected an array"),
            (lambda d: d.__setitem__("queries", {}), "queries: expected an array"),
            (lambda d: d["space"].__setitem__("dimension", True), "dimension: expected a positive integer"),
            (lambda d: d["queries"][0].__setitem__("q", []), r"queries\[0\]\.q: expected a label string"),
            (lambda d: d["metric"]["entries"][1][2].__setitem__(0, OVERLONG_LITERALS[0]),
             r"^metric\.entries\[1\]\[2\]\[0\]: rational literal has a run of 5000 digits"),
            (lambda d: d.update(points=EXAMPLE4_DOC["points"],
                                metric={"kind": "example4", "alpha": OVERLONG_LITERALS[1]}),
             r"^metric\.alpha: rational literal has a run of 5000 digits"),
            (lambda d: d["metric"]["entries"][1][2].__setitem__(0, NON_ASCII_LITERALS[0]),
             r"^metric\.entries\[1\]\[2\]\[0\]: not a rational literal"),
            (lambda d: d["metric"]["entries"][1][2].__setitem__(1, NON_ASCII_LITERALS[1]),
             r"^metric\.entries\[1\]\[2\]\[1\]: not a rational literal"),
            (lambda d: d.update(points=EXAMPLE4_DOC["points"],
                                metric={"kind": "example4", "alpha": "0"}),
             r"^metric\.alpha: alpha must be positive, got 0$"),
            (lambda d: d.__setitem__("points", ["a", "b", "a"]),
             r"^points\[2\]: duplicate point label 'a'$"),
            (lambda d: d.update(points=[EXAMPLE4_DOC["points"][0]] * 2, metric={"kind": "example3"}),
             r"^points\[1\]: duplicate point label '0'$"),
            (lambda d: d.update(points=[*EXAMPLE4_DOC["points"], {"label": "x", "coordinate": "2/4"}],
                                metric=EXAMPLE4_DOC["metric"]),
             r"^points\[2\]\.coordinate: points '1/2' and 'x' share coordinate 1/2;"),
            (lambda d: d["embedding"].__setitem__("ghost", ["1", "1"]),
             r"^embedding\['ghost'\]: label 'ghost' is not in 'points'$"),
            (lambda d: d["embedding"].update(a=[], b=[]),
             r"^embedding\['a'\]: expected at least one coordinate"),
            (lambda d: d["queries"][0].__setitem__("direction", "sideways"),
             r"^queries\[0\]\.direction: direction must be one of .*, got 'sideways'$"),
            (lambda d: d["queries"][0].__setitem__("candidates", []),
             r"^queries\[0\]\.candidates: candidate set must be nonempty$"),
        ],
    )
    def test_field_precise_errors(self, mutate, fragment):
        doc = json.loads(json.dumps(TABLE_DOC))
        mutate(doc)
        with pytest.raises(InstanceFileError, match=fragment):
            parse_instance(doc)

    @settings(max_examples=60, deadline=None)
    @given(json_values)
    def test_one_replaced_node_parses_or_fails_cleanly(self, value):
        # every node of each document in turn, so no node depends on luck
        for doc, parse in (
            (TABLE_DOC, parse_instance),
            (EXAMPLE4_DOC, parse_instance),
            (WITNESS_DOC, parse_witness),
        ):
            for path in json_paths(doc):
                try:
                    parse(replaced(doc, path, value))
                except InstanceFileError:
                    pass
                except UnknownLabel as exc:
                    # a query naming no point: a semantic error, still field-precise
                    assert re.match(r"queries\[0\]\.(q|candidates\[\d+\]): unknown point label", str(exc))

    def test_float_rejected_with_pointer(self):
        doc = json.loads(json.dumps(TABLE_DOC))
        doc["metric"]["entries"][1][2] = [0.5, "1"]
        with pytest.raises(InstanceFileError, match="binary float"):
            parse_instance(doc)

    def test_bad_literal_named(self):
        doc = json.loads(json.dumps(TABLE_DOC))
        doc["metric"]["entries"][1][2] = ["1.5", "1"]
        with pytest.raises(InstanceFileError, match=r"entries\[1\]"):
            parse_instance(doc)

    def test_generator_requires_coordinates(self):
        doc = {"points": ["a"], "metric": {"kind": "example3"}}
        with pytest.raises(InstanceFileError, match="coordinate"):
            parse_instance(doc)

    def test_generator_space_must_be_plane_orthant(self):
        doc = {
            "space": {"dimension": 3, "rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example3"},
        }
        with pytest.raises(InstanceFileError, match="orthant"):
            parse_instance(doc)

    def test_alpha_required(self):
        doc = {
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example4"},
        }
        with pytest.raises(InstanceFileError, match="alpha"):
            parse_instance(doc)


class TestParseSpace:
    def test_supplied_interior_point_survives_round_trip(self):
        # the search finds an interior point of its own, so dropping the
        # supplied one from the document keeps the cone solid
        rows = (Vec.of(4, -4, -1), Vec.of(-4, 2, 2), Vec.of(2, 5, 1))
        space = OrderedSpace(3, PolyhedralCone(3, rows, Vec.of(1, -1, 4)))
        reparsed = parse_space(json.loads(json.dumps(space_json(space))))
        assert reparsed == space
        assert reparsed.cone.is_solid
        assert reparsed.ll(Vec.zero(3), Vec.of(1, -1, 4))


    def test_interior_point_read_from_file(self):
        doc = {"dimension": 2, "rows": [["1", "0"], ["0", "1"]], "interior_point": ["3", "1/2"]}
        assert parse_space(doc).cone.interior_point == Vec.of(3, "1/2")
        doc["interior_point"] = ["0", "1"]
        with pytest.raises(InstanceFileError, match="^space: supplied interior point"):
            parse_space(doc)
        doc["interior_point"] = ["1"]
        with pytest.raises(InstanceFileError, match=r"^space\.interior_point: expected 2 coordinates"):
            parse_space(doc)


class TestUnknownQueryLabels:
    @pytest.mark.parametrize(
        "query,field",
        [({"q": "ghost"}, "queries[0].q"), ({"q": "a", "candidates": ["b", "ghost"]}, "queries[0].candidates[1]")],
    )
    def test_field_named(self, tmp_path, query, field):
        doc = {**TABLE_DOC, "queries": [query]}
        with pytest.raises(UnknownLabel, match=rf"^{re.escape(field)}: unknown point label 'ghost'$"):
            parse_instance(doc)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownLabel, match=f"^{re.escape(f'{path}: {field}')}: "):
            load_instance_file(path)


class TestLoadFiles:
    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        for content, fragment in (
            (b'{"points": [,]}', "invalid JSON at line 1"),
            (b"\xff\xfe\x00", "not UTF-8 text"),
            (b"[" + b"1" * 5000 + b"]",  # past the int-string limit
             f"invalid JSON: a number exceeds the {sys.get_int_max_str_digits()}-digit limit$"),
            (b"[" * 100_000, "invalid JSON: "),  # past the recursion limit
        ):
            path.write_bytes(content)
            for load in (load_instance_file, load_witness_file):
                prefix = f"^{re.escape(str(path))}: "
                with pytest.raises(InstanceFileError, match=prefix + fragment) as exc:
                    load(path)
                assert "set_int_max_str_digits" not in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceFileError):
            load_instance_file(tmp_path / "absent.json")

    def test_round_trip_generator(self, tmp_path):
        instance = build_example4(rational_grid(0, 1, "1/2"), "2/3")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_json(instance)))
        loaded = load_instance_file(path)
        assert loaded.instance.table_equal(instance)
        assert loaded.instance.provenance == instance.provenance

    def test_round_trip_explicit_tables(self, tmp_path):
        for i, (instance, query) in enumerate(seeded_instances(5, seed=77)):
            path = tmp_path / f"inst{i}.json"
            path.write_text(json.dumps(instance_json(instance, [query])))
            loaded = load_instance_file(path)
            assert loaded.instance.table_equal(instance)
            assert loaded.queries == [query]

    @settings(max_examples=60, deadline=None)
    @given(instances_with_queries(), st.data())
    def test_round_trip_property(self, case, data):
        instance, queries = case
        loaded = parse_instance(json.loads(json.dumps(instance_json(instance, queries))))
        # entries read on one side only, so no partial state decides equality
        pairs = st.tuples(st.sampled_from(instance.points), st.sampled_from(instance.points))
        side = data.draw(st.sampled_from([instance, loaded.instance]))
        for r, s in data.draw(st.lists(pairs, max_size=10)):
            side.distance(r, s)
        assert loaded.instance.table_equal(instance) and instance.table_equal(loaded.instance)
        assert loaded.instance.provenance == instance.provenance
        assert loaded.queries == queries

        table = {(r, s): v for r, s, v in instance.entries()}
        explicit = QcmInstance(instance.space, instance.points, table)
        assert explicit.table_equal(loaded.instance)
        r, s = data.draw(pairs)
        table[(r, s)] = table[(r, s)] + Vec.of(1, *[0] * (instance.space.dimension - 1))
        changed = QcmInstance(instance.space, instance.points, table)
        assert not changed.table_equal(loaded.instance)
        assert not loaded.instance.table_equal(changed)


# literal-like strings: signs, digits, slashes, padding, underscores and
# non-ASCII digits, plus digit runs at and just past the limit
literal_text = st.text(alphabet="0123456789+-/ _\u0661\uff13", max_size=8)
literal_edges = st.sampled_from([
    "1/0", "1/00", "0/0", " 1", "1 ", "1_0", "+0/1", "-0", "+", "/", "1/", "/2",
    "1//2", "2/4", "007/0010", "\u0661/\u0662", "\uff13",
    "9" * 4300, "9" * 4301, "-" + "9" * 4300, "1/" + "7" * 4300, "1/" + "7" * 4301,
    "1/" + "0" * 4300, "1/" + "0" * 4299 + "1", "0" * 4301 + "/1",
])
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | literal_text | literal_edges
)


class TestTableLiteralGate:
    """The parser keeps a table literal that ``PLAIN_LITERAL`` accepts and
    converts it only when the entry is read; together with the fallback
    to ``as_rational``, which writes the value back plain, it must accept
    exactly what ``as_rational`` accepts, with the same value, and keep
    only plain strings."""

    @settings(max_examples=400, deadline=None)
    @given(json_scalars)
    def test_gate_agrees_with_as_rational(self, value):
        try:
            expected = as_rational(value)
        except NotARational:
            expected = None
        try:
            (kept,) = _literals([value], "x", 1)
        except InstanceFileError as exc:
            assert expected is None, exc
            assert str(exc).startswith("x[0]: ")
        else:
            assert expected is not None
            assert plain_value(kept) == expected
            assert PLAIN_LITERAL.fullmatch(kept)

    def test_zero_denominators_and_limits(self):
        for text in ("1/0", "1/00", "-5/" + "0" * 4300):
            with pytest.raises(InstanceFileError, match="zero denominator"):
                _literals([text], "x", 1)
        for text in ("9" * 4301, "1/" + "7" * 4301):
            with pytest.raises(InstanceFileError, match="run of 4301 digits"):
                _literals([text], "x", 1)
        assert plain_value(_literals(["9" * 4300], "x", 1)[0]) == int("9" * 4300)


class TestTableReadOnDemand:
    @pytest.fixture
    def conversions(self, monkeypatch):
        """Counts the literal conversions of table entries from here on."""
        calls = []
        convert = metric.plain_value

        def counting(literal):
            calls.append(literal)
            return convert(literal)

        monkeypatch.setattr(metric, "plain_value", counting)
        return calls

    @staticmethod
    def parsed(instance):
        return parse_instance(json.loads(json.dumps(instance_json(instance)))).instance

    def test_queries_convert_only_their_row(self, conversions):
        instance = random_table_instance(random.Random(5), max_points=30, dim=3)
        loaded = self.parsed(instance)
        assert len(conversions) == 0
        blocks = read_blocks(loaded)
        q = loaded.points[0]
        candidates = frozenset(loaded.points[1::2])
        result = best_approximation_set(loaded, Query(q, candidates, BACKWARD))
        # the |H| x 1 column d(H, q) as images, and only the common distance
        # as a Vec
        assert blocks == [(sorted(candidates), [q])]
        assert len(conversions) == (3 if result.best else 0)
        conversions.clear()
        r, s = loaded.points[1], loaded.points[-1]
        assert loaded.distance(r, s) == loaded.distance(r, s)
        assert len(conversions) == 6  # nothing is kept: each read converts

    def test_parsed_table_matches_eager_copy(self):
        for instance, _ in seeded_instances(6, seed=31):
            loaded = self.parsed(instance)
            assert loaded.table_equal(instance)
            assert verify_axioms(loaded) == verify_axioms(instance)
            assert transpose(loaded).table_equal(transpose(instance))
            assert instance_json(self.parsed(instance)) == instance_json(instance)

    def test_transpose_converts_each_entry_once(self, conversions):
        instance = random_table_instance(random.Random(8), max_points=12, dim=2)
        loaded = self.parsed(instance)
        swapped = transpose(loaded)
        assert swapped.table_equal(transpose(instance))
        assert len(conversions) == 2 * loaded.size**2
        # nothing is kept: a second transpose converts every entry again
        assert transpose(loaded).table_equal(swapped)
        assert len(conversions) == 4 * loaded.size**2

    def test_literals_that_are_not_plain(self):
        doc = json.loads(json.dumps(TABLE_DOC))
        doc["metric"]["entries"][1][2] = [3, " 2/4 "]
        doc["metric"]["entries"][2][2] = ["+0/5", "-007/0014"]
        instance = parse_instance(doc).instance
        assert instance.distance("a", "b") == Vec.of(3, "1/2")
        assert instance.distance("b", "a") == Vec.of(0, "-1/2")
        assert all(type(c) is Fraction for _, _, v in instance.entries() for c in v)


def entry_by_entry(entries, known, dimension):
    """The table branch of ``parse_instance`` as it stood before the
    whole-table passes: one entry at a time, raising on the first bad field.
    Kept as the reference that ``files._table`` is held to."""
    table = {}
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InstanceFileError(f"metric.entries[{i}]: expected [from, to, vector]")
        src, dst, value = entry
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise InstanceFileError(f"metric.entries[{i}]: from/to must be label strings")
        if src not in known or dst not in known:
            label = dst if src in known else src
            raise InstanceFileError(f"metric.entries[{i}]: label {label!r} is not in 'points'")
        if (src, dst) in table:
            raise InstanceFileError(f"metric.entries[{i}]: repeats the entry for ({src!r}, {dst!r})")
        table[(src, dst)] = _literals(value, f"metric.entries[{i}][2]", dimension)
    return table


plain_literals = st.integers(-20, 20).map(str) | st.fractions(-5, 5, max_denominator=4).map(
    lambda f: f"{f.numerator}/{f.denominator}"
)
# plain literals, "2/4" (plain, not in lowest terms) and what ``_literals``
# converts or rejects: ints, padding, a zero denominator, a run past the
# digit limit, a decimal, null, floats and booleans equal to the ints 0 and
# 1, and values that are not scalars
table_literals = plain_literals | st.integers(-3, 3) | st.sampled_from(
    [" 1", "2/4", "1/0", "9" * 4301, "1.5", None, 1.0, 0.0, True, False]
) | st.lists(st.just("1"), max_size=2) | st.dictionaries(st.just("p"), st.just("1"), max_size=1)
# few values that hash alike, so one document often holds a valid 0 or 1
# before an equal float or boolean that is rejected
equal_literals = st.sampled_from([0, 1, "0", "1", 0.0, 1.0, False, True])
TABLE_DEFECTS = ["repeat", "unknown-label", "drop", "arity", "shape", "order"]


@st.composite
def table_documents(draw):
    """A table document over random labels in dimension 1 to 3: a third of
    them hold plain literals only, a third any literal, a third literals
    that hash alike, and some carry defects."""
    dimension = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    literal = draw(st.sampled_from([plain_literals, table_literals, equal_literals]))
    vector = st.lists(literal, min_size=dimension, max_size=dimension)
    entries = [[r, s, draw(vector)] for r in labels for s in labels]
    label = st.sampled_from(labels)
    for defect in draw(st.lists(st.sampled_from(TABLE_DEFECTS), max_size=2)):
        if defect == "order":
            entries = draw(st.permutations(entries))
            continue
        if not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1))
        if defect == "repeat":
            entries.insert(i, copy.deepcopy(draw(st.sampled_from(entries))))
        elif defect == "unknown-label":
            ghost = draw(st.text(max_size=3).filter(lambda text: text not in labels))
            pair = draw(st.permutations([ghost, draw(label)]))
            entries[i] = [*pair, draw(vector)]
        elif defect == "drop":
            del entries[i]
        elif defect == "arity":
            entries[i] = [draw(label), draw(label), draw(st.lists(literal, max_size=4))]
        else:
            entries[i] = draw(st.sampled_from(
                [[labels[0]], {"from": labels[0]}, None, [1, labels[0], ["0"] * dimension], "a"]
            ))
    return {
        "space": {"dimension": dimension,
                  "rows": [["1" if j == k else "0" for k in range(dimension)] for j in range(dimension)]},
        "points": labels,
        "metric": {"kind": "table", "entries": entries},
    }


class TestWholeTablePasses:
    @settings(max_examples=300, deadline=None)
    @given(table_documents())
    def test_same_outcome_as_entry_by_entry(self, doc):
        def outcome():
            try:
                loaded = parse_instance(copy.deepcopy(doc))
            except (InstanceFileError, UnknownLabel) as exc:
                return type(exc), str(exc)
            return list(loaded.instance.entries())

        passes = outcome()
        with mock.patch.object(files, "_table", entry_by_entry):
            assert outcome() == passes

        # on every document, the passes return exactly the loop's table, in
        # the same order, or raise its exact message
        entries, dimension = doc["metric"]["entries"], doc["space"]["dimension"]

        def table(build):
            try:
                return list(build(entries, set(doc["points"]), dimension).items())
            except InstanceFileError as exc:
                return str(exc)

        expected = table(entry_by_entry)
        event("a table" if isinstance(expected, list) else "a bad field")
        assert table(files._table) == expected

    def test_only_entries_with_literals_that_are_not_plain_are_read_one_by_one(self, monkeypatch):
        calls = []
        literals = files._literals

        def counting(value, where, dimension):
            calls.append(where)
            return literals(value, where, dimension)

        plain = parse_instance(json.loads(json.dumps(TABLE_DOC))).instance
        monkeypatch.setattr(files, "_literals", counting)
        doc = json.loads(json.dumps(TABLE_DOC))
        doc["metric"]["entries"][2][2][0] = 2
        mixed = parse_instance(doc).instance
        assert [where for where in calls if where.startswith("metric.")] == ["metric.entries[2][2]"]
        assert list(mixed.entries()) == list(plain.entries())

    def test_kept_values_are_copies(self):
        doc = json.loads(json.dumps(TABLE_DOC))
        instance = parse_instance(doc).instance
        for entry in doc["metric"]["entries"]:
            entry[2][0] = "7"
            entry[2].append("8")
        assert [instance.distance(r, s) for r, s, _ in TABLE_DOC["metric"]["entries"]] == [
            Vec.of(0, 0), Vec.of(1, "1/2"), Vec.of(2, 0), Vec.of(0, 0)
        ]


class TestWitnessFiles:
    def test_round_trip(self, tmp_path):
        instance = build_example4(rational_grid(0, 2, "1/2"), 1)
        witness = canonical_witness(instance, "2")
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness_json(witness)))
        assert load_witness_file(path) == witness

    def test_bad_direction(self):
        with pytest.raises(InstanceFileError, match="direction"):
            parse_witness({"q": "a", "direction": "up", "f": []})

    def test_label_must_be_a_string(self):
        with pytest.raises(InstanceFileError, match=r"witness\.q: expected a label string"):
            parse_witness({"q": [], "direction": "forward", "f": []})

    def test_repeated_label_rejected(self):
        doc = {"q": "a", "direction": "forward", "f": [["a", ["0", "0"]], ["a", ["1", "1"]]]}
        with pytest.raises(InstanceFileError, match=r"witness\.f\[1\]: repeats the entry for 'a'"):
            parse_witness(doc)

    def test_bad_pair_shape(self):
        with pytest.raises(InstanceFileError, match=r"f\[0\]"):
            parse_witness({"q": "a", "direction": "forward", "f": [["a"]]})
