"""Command-line behavior: pipelines, exit codes, determinism."""
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quasicone
from quasicone import Query, UnknownLabel, load_witness_file, verify_witness_for_set
from quasicone.files import instance_json, load_instance_file
from helpers import invoke, random_table_instance


def run(*args):
    return invoke(args)


@pytest.fixture
def slack_file(tmp_path):
    """Instance of the slack metric on [0,2] step 1/4 with a query above the grid."""
    path = tmp_path / "slack.json"
    result = run("example", "example4", "--grid", "0:2:1/4", "--alpha", "1",
                 "--beta", "5", "--out", path)
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture
def broken_metric_file(tmp_path):
    doc = {
        "space": {"dimension": 2, "rows": [["1", "0"], ["0", "1"]]},
        "points": ["a", "b"],
        "metric": {
            "kind": "table",
            "entries": [
                ["a", "a", ["0", "0"]],
                ["a", "b", ["0", "0"]],
                ["b", "a", ["1", "1"]],
                ["b", "b", ["0", "0"]],
            ],
        },
        "queries": [{"q": "a"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def ray_cone_file(tmp_path):
    """Two points over a pointed cone with an empty interior: the ray t (1, 2, 3)."""
    rows = [["2", "-1", "0"], ["-2", "1", "0"], ["3", "0", "-1"], ["-3", "0", "1"], ["1", "0", "0"]]
    ray, zero = ["1", "2", "3"], ["0", "0", "0"]
    doc = {
        "space": {"dimension": 3, "rows": rows},
        "points": ["a", "b"],
        "metric": {
            "kind": "table",
            "entries": [[r, s, zero if r == s else ray] for r in "ab" for s in "ab"],
        },
        "queries": [{"q": "a"}],
    }
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(doc))
    return path


def table_file(tmp_path, entries):
    doc = {
        "space": {"dimension": 1, "rows": [["1"]]},
        "points": ["a", "b"],
        "metric": {"kind": "table", "entries": entries},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    return path


class TestPipeline:
    def test_example_generates_expected_instance(self, slack_file):
        doc = json.loads(slack_file.read_text())
        assert doc["metric"] == {"kind": "example4", "alpha": "1"}
        assert {"label": "5", "coordinate": "5"} in doc["points"]
        assert doc["queries"][0]["q"] == "5"
        assert len(doc["queries"][0]["candidates"]) == 9

    def test_verify_passes(self, slack_file):
        result = run("verify", slack_file)
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["passed"]
        assert doc["metric_axioms"]["checks"][2]["checks"] == 10 ** 3
        assert "nonzero member (1, 1) exhibited" in doc["cone_axioms"]["checks"][0]["note"]

    def test_approx_reproduces_regime(self, slack_file):
        result = run("approx", slack_file)
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["results"][0]["best"] == ["2"]
        assert doc["results"][0]["common_distance"] == ["3", "3"]

    def test_direction_override(self, slack_file):
        result = run("approx", slack_file, "--direction", "backward")
        doc = json.loads(result.stdout)
        # below-the-query candidates all sit at distance (1, 1) going backward
        assert doc["results"][0]["best"] == sorted(doc["results"][0]["candidates"])

    def test_classify_holds_for_singleton_family(self, slack_file):
        result = run("classify", slack_file)
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["chebyshev"]["holds"] and doc["quasi"]["holds"]

    def test_example3_whole_set_regime(self, tmp_path):
        path = tmp_path / "dir.json"
        assert run("example", "example3", "--grid", "-5:-1:1/2", "--beta", "2",
                   "--out", path).exit_code == 0
        doc = json.loads(path.read_text())
        assert doc["queries"][0]["q"] == "4"
        result = run("approx", path)
        out = json.loads(result.stdout)
        assert out["results"][0]["best"] == out["results"][0]["candidates"]

    def test_classify_without_queries_uses_every_point(self, tmp_path):
        path = tmp_path / "grid.json"
        assert run("example", "example4", "--grid", "0:2:1/2", "--out", path).exit_code == 0
        result = run("classify", path)
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["queries"] == ["0", "1/2", "1", "3/2", "2"]
        assert doc["candidates"] == sorted(doc["queries"])
        assert [entry["cardinality"] for entry in doc["census"]] == [1] * 5
        backward = json.loads(run("classify", path, "--direction", "backward").stdout)
        assert backward["direction"] == "backward"


class TestWitnessCommand:
    def test_emit_then_check_holds(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        emit = run("witness", slack_file, "--mode", "emit", "--witness-path", wpath)
        assert emit.exit_code == 0
        check = run("witness", slack_file, "--mode", "check", "--witness-path", wpath)
        assert check.exit_code == 0
        doc = json.loads(check.stdout)
        assert doc["verdict"]["holds"]
        assert doc["certified"] == ["2"]

    def test_check_explicit_members(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        run("witness", slack_file, "--mode", "emit", "--witness-path", wpath)
        good = run("witness", slack_file, "--mode", "check", "--witness-path", wpath,
                   "--members", "2")
        assert good.exit_code == 0
        bad = run("witness", slack_file, "--mode", "check", "--witness-path", wpath,
                  "--members", "1")
        assert bad.exit_code == 5
        doc = json.loads(bad.stdout)
        assert doc["verdict"]["failed_condition"] == "f-shift-not-in-cone"

    def test_corrupted_witness_fails(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        run("witness", slack_file, "--mode", "emit", "--witness-path", wpath)
        doc = json.loads(wpath.read_text())
        doc["f"] = [[label, ["99", "99"]] for label, _ in doc["f"]]
        wpath.write_text(json.dumps(doc))
        result = run("witness", slack_file, "--mode", "check", "--witness-path", wpath)
        assert result.exit_code == 5

    def test_repeated_witness_label_is_2(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        run("witness", slack_file, "--mode", "emit", "--witness-path", wpath)
        doc = json.loads(wpath.read_text())
        doc["f"].append(doc["f"][0])
        wpath.write_text(json.dumps(doc))
        result = run("witness", slack_file, "--mode", "check", "--witness-path", wpath)
        assert result.exit_code == 2
        assert f"witness.f[{len(doc['f']) - 1}]: repeats the entry for" in result.stderr

    @pytest.fixture
    def beta_files(self, tmp_path):
        """An Example 4 file whose query point 1 is on the grid, and its canonical witness."""
        path, wpath = tmp_path / "beta.json", tmp_path / "w.json"
        made = run("example", "example4", "--grid", "0:2:1/2", "--beta", "1", "--out", path)
        assert made.exit_code == 0
        assert run("witness", path, "--mode", "emit", "--witness-path", wpath).exit_code == 0
        return path, wpath

    def test_repeated_member_is_listed_once(self, beta_files):
        path, wpath = beta_files
        result = run("witness", path, "--mode", "check", "--witness-path", wpath,
                     "--members", "1", "--members", "1")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["certified"] == ["1"]

    def test_witness_label_that_is_not_a_point_is_3(self, beta_files):
        path, wpath = beta_files
        doc = json.loads(wpath.read_text())
        for field, edit in (
            ("witness.q", lambda d: d.update(q="ghost")),
            (f"witness.f[{len(doc['f'])}]", lambda d: d["f"].append(["ghost", ["0", "0"]])),
        ):
            bad = json.loads(json.dumps(doc))
            edit(bad)
            wpath.write_text(json.dumps(bad))
            result = run("witness", path, "--mode", "check", "--witness-path", wpath)
            assert result.exit_code == 3, (field, result.output)
            assert f"error: {wpath}: {field}: unknown point label 'ghost'" in result.stderr
            assert result.stdout == ""

    def test_witness_for_another_query_is_3(self, beta_files):
        """The selected query supplies q: a witness emitted for query 0
        (q = '1') does not check against query 1 (q = '0')."""
        path, wpath = beta_files
        doc = json.loads(path.read_text())
        doc["queries"].append({"q": "0"})
        path.write_text(json.dumps(doc))
        result = run("witness", path, "--mode", "check", "--witness-path", wpath, "--query", "1")
        assert result.exit_code == 3, result.output
        assert f"error: {wpath}: witness.q: '1' is not the query point '0'\n" in result.stderr
        assert result.stdout == ""
        assert run("witness", path, "--mode", "check", "--witness-path", wpath).exit_code == 0

    def test_all_is_a_label_for_witness(self, beta_files, tmp_path):
        """Only approx reads --query all as every query. For witness, 'all'
        is a target label: a two-query file with no query at 'all' exits 3
        instead of running query 0, and a point labeled 'all' is selected."""
        path, _ = beta_files
        doc = json.loads(path.read_text())
        doc["queries"].append({"q": "0"})
        path.write_text(json.dumps(doc))
        result = run("witness", path, "--mode", "emit", "--query", "all")
        assert result.exit_code == 3, result.output
        assert "error: no query with target point 'all'\n" in result.stderr
        assert result.stdout == ""
        approx = run("approx", path, "--query", "all")
        assert approx.exit_code == 0, approx.output
        assert [r["q"] for r in json.loads(approx.stdout)["results"]] == ["1", "0"]

        labeled = tmp_path / "labeled.json"
        labeled.write_text(json.dumps({
            "space": {"dimension": 1, "rows": [["1"]]},
            "points": ["b", "all"],
            "metric": {"kind": "table", "entries": [
                [r, s, ["0" if r == s else "1"]] for r in ("b", "all") for s in ("b", "all")
            ]},
            "queries": [{"q": "b"}, {"q": "all"}],
        }))
        result = run("witness", labeled, "--mode", "emit", "--query", "all")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["witness"]["q"] == "all"

    def test_witness_without_an_entry_for_a_point_is_3(self, beta_files):
        path, wpath = beta_files
        doc = json.loads(wpath.read_text())
        assert doc["f"][0][0] == "0"
        del doc["f"][0]
        wpath.write_text(json.dumps(doc))
        result = run("witness", path, "--mode", "check", "--witness-path", wpath)
        assert result.exit_code == 3, result.output
        assert f"error: {wpath}: witness.f: no entry for point '0'\n" in result.stderr
        assert result.stdout == ""

    def test_witness_vector_of_the_wrong_length_is_2(self, beta_files):
        path, wpath = beta_files
        doc = json.loads(wpath.read_text())
        doc["f"][0][1] = ["0"]
        wpath.write_text(json.dumps(doc))
        result = run("witness", path, "--mode", "check", "--witness-path", wpath)
        assert result.exit_code == 2, result.output
        assert f"error: {wpath}: witness.f[0][1]: expected 2 coordinates, got 1\n" in result.stderr
        assert result.stdout == ""

    def test_library_and_check_mode_name_the_same_field(self, beta_files):
        """verify_witness_for_set and check mode reject a bad table with one
        message: the CLI's is the library's after the witness file's path."""
        path, wpath = beta_files
        doc = json.loads(wpath.read_text())
        loaded = load_instance_file(path)
        query = loaded.queries[0]
        edits = {  # name: (edit, exit code)
            "q not a point": (lambda d: d.update(q="ghost"), 3),
            "f label not a point": (lambda d: d["f"][2].__setitem__(0, "ghost"), 3),
            "short vector": (lambda d: d["f"][3].__setitem__(1, ["0"]), 2),
            "entry deleted": (lambda d: d["f"].pop(1), 3),
        }
        for name, (edit, code) in edits.items():
            bad = json.loads(json.dumps(doc))
            edit(bad)
            wpath.write_text(json.dumps(bad))
            result = run("witness", path, "--mode", "check", "--witness-path", wpath)
            assert result.exit_code == code, (name, result.output)
            prefix = f"error: {wpath}: "
            line = result.stderr.splitlines()[0]
            assert line.startswith(prefix), (name, line)
            with pytest.raises((UnknownLabel, ValueError)) as caught:
                verify_witness_for_set(
                    loaded.instance, load_witness_file(wpath), query.candidates, []
                )
            assert str(caught.value) == line[len(prefix):], name

    def test_bad_witness_direction_is_2(self, beta_files):
        path, wpath = beta_files
        doc = json.loads(wpath.read_text())
        doc["direction"] = "sideways"
        wpath.write_text(json.dumps(doc))
        result = run("witness", path, "--mode", "check", "--witness-path", wpath)
        assert result.exit_code == 2
        assert (f"error: {wpath}: witness.direction: direction must be one of "
                "('forward', 'backward'), got 'sideways'") in result.stderr

    def test_check_requires_witness_path(self, slack_file):
        assert run("witness", slack_file, "--mode", "check").exit_code == 3

    def test_members_only_in_check_mode(self, slack_file):
        result = run("witness", slack_file, "--mode", "emit", "--members", "zzz")
        assert result.exit_code == 3
        assert "--members" in result.stderr
        assert result.stdout == ""


    def test_direction_only_in_emit_mode(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        run("witness", slack_file, "--mode", "emit", "--witness-path", wpath)
        result = run("witness", slack_file, "--mode", "check", "--witness-path", wpath,
                     "--direction", "forward")
        assert result.exit_code == 3
        assert "--direction" in result.stderr
        assert result.stdout == ""
        emit = run("witness", slack_file, "--mode", "emit", "--direction", "backward")
        assert emit.exit_code == 0
        assert json.loads(emit.stdout)["witness"]["direction"] == "backward"


class TestCommandLine:
    """The parser: values that start with '-', usage errors and help. Its
    messages are asserted by the argument they name only, since the
    wording of the standard library's parser changes between versions."""

    def test_values_that_start_with_a_dash_are_values(self, tmp_path):
        result = run("example", "example3", "--grid", "-2:2:1/2", "--beta", "1")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert [p["label"] for p in doc["points"]][:2] == ["-2", "-3/2"]
        assert doc["queries"][0]["q"] == "1"
        assert result.stdout == run("example", "example3", "--grid=-2:2:1/2", "--beta=1").stdout
        result = run("example", "example4", "--grid", "0:2:1", "--beta", "-1")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["queries"][0]["q"] == "-1"

    def test_a_path_after_double_dash_may_start_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("example", "example3", "--grid", "0:1:1", "--out", "-t.json").exit_code == 0
        result = run("verify", "--", "-t.json")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["file"] == "-t.json"

    def test_a_dash_value_reaches_the_command(self, slack_file):
        result = run("approx", slack_file, "--query", "-1")
        assert result.exit_code == 3, result.output
        assert "error: query index -1 out of range (file has 1)\n" in result.stderr

    @pytest.mark.parametrize("args,names", [
        (["verify"], ["PATH"]),
        (["verify", "{missing}"], ["PATH", "{missing}"]),
        (["verify", "{dir}"], ["PATH", "{dir}"]),
        (["approx", "{file}", "--out", "{dir}"], ["--out", "{dir}"]),
        (["witness", "{file}", "--mode", "emit", "--witness-path", "{dir}"], ["--witness-path"]),
        (["approx", "{file}", "--direction", "sideways"], ["--direction", "sideways"]),
        (["witness", "{file}"], ["--mode"]),
        (["verify", "{file}", "--seed", "x"], ["--seed", "'x'"]),
        (["frobnicate", "{file}"], ["frobnicate"]),
        ([], ["COMMAND"]),
    ], ids=["no-path", "missing-path", "dir-path", "dir-out", "dir-witness-path",
            "bad-choice", "no-mode", "bad-seed", "unknown-command", "no-command"])
    def test_usage_errors_are_2_and_name_the_argument(self, slack_file, tmp_path, args, names):
        where = {"file": slack_file, "missing": tmp_path / "missing.json", "dir": tmp_path}
        result = run(*(a.format(**where) for a in args))
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        for name in names:
            assert name.format(**where) in result.stderr, name

    def test_abbreviations_are_not_options(self, slack_file):
        result = run("approx", slack_file, "--dir", "backward")
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert re.search(r"--dir(?![\w-])", result.stderr)

    OPTIONS = {
        "verify": ["PATH", "--seed", "--out", "--pretty"],
        "approx": ["PATH", "--query", "--direction", "--out", "--pretty"],
        "witness": ["PATH", "--mode", "--query", "--witness-path", "--members", "--direction",
                    "--out", "--pretty"],
        "classify": ["PATH", "--direction", "--pseudo", "--no-pseudo", "--out", "--pretty"],
        "example": ["example3", "example4", "--grid", "--alpha", "--beta", "--direction",
                    "--out"],
    }

    @pytest.mark.parametrize("command", [None, *OPTIONS])
    def test_help_lists_every_option(self, command):
        result = run(command, "--help") if command else run("--help")
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        for name in ["--help", *(self.OPTIONS[command] if command else self.OPTIONS)]:
            assert name in result.stdout, name


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, slack_file):
        path = tmp_path / "bad.json"
        for content in (b"{not json", b"\xff\xfe\x00", b"[" + b"1" * 5000 + b"]", b"[" * 100_000):
            path.write_bytes(content)
            for args in (["verify", path], ["witness", slack_file, "--mode", "check", "--witness-path", path]):
                result = run(*args)
                assert result.exit_code == 2, (content[:8], args[0])
                assert f"error: {path}: " in result.output
                assert "set_int_max_str_digits" not in result.output
        path.write_bytes(b"[" + b"1" * 5000 + b"]")
        result = run("verify", path)
        assert (f"error: {path}: invalid JSON: a number exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit\n") in result.stderr

    def test_a_command_that_runs_ends_with_one_elapsed_line(
        self, slack_file, broken_metric_file, tmp_path
    ):
        """Whatever a command's exit code, the last line of stderr is its
        elapsed time; a command line the parser rejects, and --help, run
        no command and print none."""
        bad, tied = tmp_path / "bad.json", tmp_path / "tied.json"
        bad.write_text("{not json")
        run("example", "example4", "--grid", "0:2:1/4", "--beta", "-1", "--out", tied)
        for args, code in (
            (["approx", slack_file], 0),
            (["verify", bad], 2),
            (["approx", slack_file, "--query", "7"], 3),
            (["verify", broken_metric_file], 4),
            (["classify", tied], 5),
        ):
            result = run(*args)
            assert result.exit_code == code, (args, result.output)
            assert re.fullmatch(r"elapsed: \d+\.\d{3}s", result.stderr.splitlines()[-1]), args
            assert result.stderr.count("elapsed:") == 1, args
        for args, code in (
            (["approx", slack_file, "--direction", "sideways"], 2),
            (["approx", "--help"], 0),
            (["--help"], 0),
        ):
            result = run(*args)
            assert result.exit_code == code, (args, result.output)
            assert "elapsed:" not in result.output, args

    @pytest.mark.parametrize("command", [
        ["approx", "{file}", "--out", "{target}"],
        ["witness", "{file}", "--mode", "emit", "--witness-path", "{target}"],
        ["example", "example4", "--grid", "0:2:1", "--out", "{target}"],
    ], ids=["approx", "witness-emit", "example"])
    def test_unwritable_output_path_is_3(self, slack_file, tmp_path, command):
        target = tmp_path / "nodir" / "out.json"
        result = run(*(a.format(file=slack_file, target=target) for a in command))
        assert result.exit_code == 3, result.output
        assert f"error: cannot write {target}: No such file or directory\n" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not target.parent.exists()

    def test_unknown_query_label_is_3(self, tmp_path):
        doc = {
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example3"},
            "queries": [{"q": "ghost"}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert run("approx", path).exit_code == 3

    def test_unknown_query_label_named_by_every_command(self, tmp_path):
        doc = {
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example3"},
        }
        path = tmp_path / "inst.json"
        for query, field in (({"q": "ghost"}, "queries[0].q"),
                             ({"q": "0", "candidates": ["1", "ghost"]}, "queries[0].candidates[1]")):
            path.write_text(json.dumps({**doc, "queries": [query]}))
            for command in ("verify", "approx", "classify"):
                result = run(command, path)
                assert result.exit_code == 3, (command, field)
                assert f"error: {path}: {field}: unknown point label 'ghost'" in result.stderr

    def test_approx_without_queries_is_3(self, tmp_path):
        path = tmp_path / "grid.json"
        assert run("example", "example4", "--grid", "0:2:1/2", "--out", path).exit_code == 0
        result = run("approx", path)
        assert result.exit_code == 3
        assert "no queries" in result.stderr

    def test_missing_query_selector_is_3(self, slack_file):
        assert run("approx", slack_file, "--query", "7").exit_code == 3
        assert run("approx", slack_file, "--query", "zzz").exit_code == 3
        # past the digit cap of an integer literal, a selector is a label
        result = run("approx", slack_file, "--query", "9" * 5000)
        assert result.exit_code == 3, result.output
        assert "error: no query with target point '999" in result.stderr

    def test_integer_target_label_selects_query(self, slack_file):
        # the file's one query targets the point labelled 5
        by_index = run("approx", slack_file, "--query", "0")
        by_label = run("approx", slack_file, "--query", "5")
        assert by_label.exit_code == 0, by_label.output
        assert by_label.stdout == by_index.stdout
        emit = run("witness", slack_file, "--mode", "emit", "--query", "5")
        assert emit.exit_code == 0, emit.output
        assert json.loads(emit.stdout)["witness"]["q"] == "5"
        assert "query index 7 out of range (file has 1)" in run(
            "approx", slack_file, "--query", "7").stderr

    @pytest.mark.parametrize("selector,target", [
        ("٣", "٣"), ("0_1", "0_1"), (" 1", " 1"), ("+1", "b"), ("3", "c"),
    ], ids=["arabic-indic-digit", "underscore", "space", "plus-sign", "ascii"])
    def test_only_ascii_digits_are_an_index(self, tmp_path, selector, target):
        # int() reads "٣" as 3, "0_1" and " 1" as 1; the package's integer
        # grammar reads them as labels
        labels = ["a", "b", "٣", "c", "d", "0_1", " 1"]
        doc = {
            "space": {"dimension": 1, "rows": [["1"]]},
            "points": labels,
            "metric": {"kind": "table",
                       "entries": [[r, s, ["0" if r == s else "1"]] for r in labels for s in labels]},
            "queries": [{"q": label} for label in labels],
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        result = run("approx", path, "--query", selector)
        assert result.exit_code == 0, result.output
        assert [r["q"] for r in json.loads(result.stdout)["results"]] == [target]
        emit = run("witness", path, "--mode", "emit", "--query", selector)
        assert emit.exit_code == 0, emit.output
        assert json.loads(emit.stdout)["witness"]["q"] == target

    def test_index_in_range_wins_over_label(self, slack_file):
        doc = json.loads(slack_file.read_text())
        doc["queries"] = [{"q": "1"}, {"q": "0"}]
        slack_file.write_text(json.dumps(doc))
        results = json.loads(run("approx", slack_file, "--query", "1").stdout)["results"]
        assert [r["q"] for r in results] == ["0"]

    def test_pseudo_without_embedding_is_3(self, slack_file):
        assert run("classify", slack_file, "--pseudo").exit_code == 3

    def test_mixed_dimension_embedding_is_2(self, tmp_path):
        distance = {("a", "b"): ["1"], ("a", "c"): ["1"], ("b", "a"): ["1"],
                    ("b", "c"): ["1"], ("c", "a"): ["1"], ("c", "b"): ["1"]}
        doc = {
            "space": {"dimension": 1, "rows": [["1"]]},
            "points": ["a", "b", "c"],
            "metric": {
                "kind": "table",
                "entries": [[r, s, distance.get((r, s), ["0"])] for r in "abc" for s in "abc"],
            },
            "queries": [{"q": "a", "candidates": ["b", "c"]}],
            "embedding": {"a": ["0"], "b": ["0", "1"], "c": ["1"]},
        }
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        result = run("classify", path)
        assert result.exit_code == 2
        assert "embedding['b']" in result.stderr

    def test_empty_embedding_vectors_are_2(self, tmp_path):
        path = tmp_path / "ex.json"
        assert run("example", "example4", "--grid", "0:2:1", "--beta", "1",
                   "--out", path).exit_code == 0
        doc = json.loads(path.read_text())
        doc["embedding"] = {p["label"]: [] for p in doc["points"]}
        path.write_text(json.dumps(doc))
        result = run("classify", path, "--pseudo")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "ex.json: embedding['0']: expected at least one coordinate" in result.stderr

    def test_classify_mixed_directions_is_3(self, slack_file):
        doc = json.loads(slack_file.read_text())
        second = dict(doc["queries"][0], q="0", direction="backward")
        doc["queries"].append(second)
        slack_file.write_text(json.dumps(doc))
        result = run("classify", slack_file)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "error: queries[1].direction: 'backward' differs from" in result.stderr
        # --direction still overrides every query
        result = run("classify", slack_file, "--direction", "forward")
        assert result.exit_code == 0, result.output
        out = json.loads(result.stdout)
        assert out["direction"] == "forward"
        assert out["queries"] == ["5", "0"]

    def test_classify_mixed_candidate_sets_is_3(self, slack_file):
        doc = json.loads(slack_file.read_text())
        doc["queries"].append({"q": "0", "candidates": ["1", "2"]})
        slack_file.write_text(json.dumps(doc))
        result = run("classify", slack_file)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert ("error: classification needs a single shared candidate set across queries\n"
                in result.stderr)

    def test_axiom_failure_is_4(self, broken_metric_file):
        result = run("verify", broken_metric_file)
        assert result.exit_code == 4
        doc = json.loads(result.stdout)
        assert not doc["metric_axioms"]["checks"][1]["passed"]

    def test_classification_failure_is_5(self, tmp_path):
        path = tmp_path / "tied.json"
        run("example", "example4", "--grid", "0:2:1/4", "--beta", "-1", "--out", path)
        result = run("classify", path)
        assert result.exit_code == 5
        doc = json.loads(result.stdout)
        assert not doc["chebyshev"]["holds"]
        assert doc["chebyshev"]["counterexamples"][0]["q"] == "-1"

    def test_alpha_only_for_example4(self, tmp_path):
        result = run("example", "example3", "--grid", "0:2:1", "--alpha", "5")
        assert result.exit_code == 3
        assert "--alpha" in result.stderr
        assert result.stdout == ""
        # a value that is not rational names the option, as --beta's does
        for option in ("--alpha", "--beta"):
            result = run("example", "example4", "--grid", "0:2:1", option, "1.5")
            assert result.exit_code == 3, result.output
            assert f"error: {option[2:]} must be rational, got '1.5'\n" in result.stderr
            assert result.stdout == ""
        path = tmp_path / "default.json"
        assert run("example", "example4", "--grid", "0:2:1", "--out", path).exit_code == 0
        assert json.loads(path.read_text())["metric"] == {"kind": "example4", "alpha": "1"}

    def test_example_direction_needs_beta(self, tmp_path):
        result = run("example", "example4", "--grid", "0:2:1", "--direction", "backward")
        assert result.exit_code == 3
        assert "--direction" in result.stderr
        assert result.stdout == ""
        for extra, direction in (((), "forward"), (("--direction", "backward"), "backward")):
            path = tmp_path / f"{direction}.json"
            result = run("example", "example4", "--grid", "0:2:1", "--beta", "5", *extra, "--out", path)
            assert result.exit_code == 0, result.output
            assert json.loads(path.read_text())["queries"][0]["direction"] == direction

    def test_lower_interpreter_digit_limit_is_2(self, tmp_path):
        # a subprocess, since the limit is read when the package is imported
        entries = [[r, s, ["0" if r == s else "1"]] for r in "ab" for s in "ab"]
        entries[1][2] = ["9" * 700]
        path = table_file(tmp_path, entries)
        doc = json.loads(path.read_text())
        src = Path(quasicone.__file__).parents[1]

        def verify():
            return subprocess.run(
                [sys.executable, "-m", "quasicone.cli", "verify", str(path)],
                capture_output=True, text=True, timeout=30,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "640"},
            )

        result = verify()
        assert result.returncode == 2, result.stderr
        assert ("metric.entries[1][2][0]: rational literal has a run of 700 digits; "
                "at most 640 are allowed") in result.stderr
        doc["space"]["rows"] = [["7" * 700]]
        doc["metric"]["entries"][1][2] = ["1"]
        path.write_text(json.dumps(doc))
        result = verify()
        assert result.returncode == 2, result.stderr
        assert "space.rows[0][0]: rational literal has a run of 700 digits" in result.stderr

    def test_overlong_literals_are_2(self, tmp_path):
        entries = [[r, s, ["0" if r == s else "1"]] for r in "ab" for s in "ab"]
        entries[1][2] = ["9" * 5000]
        path = table_file(tmp_path, entries)
        result = run("verify", path)
        assert result.exit_code == 2
        assert "metric.entries[1][2][0]: rational literal has a run of 5000 digits" in result.stderr
        doc = {
            "points": [{"label": "0", "coordinate": "0"}, {"label": "1", "coordinate": "1"}],
            "metric": {"kind": "example4", "alpha": "1/" + "7" * 5000},
        }
        path.write_text(json.dumps(doc))
        result = run("verify", path)
        assert result.exit_code == 2
        assert f"error: {path}: metric.alpha: rational literal has a run of 5000 digits" in result.stderr

    def test_overlong_json_numbers_are_2_without_the_interpreter_limit(self, tmp_path):
        # a subprocess, since the limit is read when the interpreter starts;
        # with it off, json decodes an int of any length
        entries = [[r, s, ["0" if r == s else "1"]] for r in "ab" for s in "ab"]
        entries[1][2] = ["BIG"]
        path = table_file(tmp_path, entries)
        text = path.read_text()
        src = Path(quasicone.__file__).parents[1]
        for number in ("9" * 5000, "-" + "9" * 4301):
            path.write_text(text.replace('"BIG"', number))
            result = subprocess.run(
                [sys.executable, "-m", "quasicone.cli", "verify", str(path)],
                capture_output=True, text=True, timeout=30,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "0"},
            )
            assert result.returncode == 2, result.stderr
            digits = len(number.lstrip("-"))
            assert (f"metric.entries[1][2][0]: rational literal has a run of {digits} digits; "
                    "at most 4300 are allowed") in result.stderr

    def test_values_past_the_input_limit_print(self, tmp_path):
        big = "1" + "0" * 3000
        doc = {
            "points": [{"label": "a", "coordinate": "0"}, {"label": "b", "coordinate": big}],
            "metric": {"kind": "example4", "alpha": big},
            "queries": [{"q": "b", "candidates": ["a"]}],
        }
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        result = run("approx", path)
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["results"][0]["common_distance"] == [big, "1" + "0" * 6000]
        pretty = run("approx", path, "--pretty")
        assert pretty.exit_code == 0, pretty.output
        assert "1" + "0" * 6000 in pretty.stdout

    def test_bad_grid_spec_is_3(self):
        assert run("example", "example4", "--grid", "0..2").exit_code == 3
        assert run("example", "example4", "--grid", "0:2:0").exit_code == 3

    def test_oversized_grid_is_3_before_any_work(self):
        # a subprocess, so that a missing cap fails on the timeout instead
        # of building ten million points
        src = Path(quasicone.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "quasicone.cli", "example", "example4",
             "--grid", "0:100000:1/100"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 3
        assert "10000001 points" in result.stderr

    def test_repeated_table_entry_is_2(self, tmp_path):
        entries = [[r, s, ["0" if r == s else "1"]] for r in "ab" for s in "ab"]
        path = table_file(tmp_path, [*entries, ["a", "b", ["2"]]])
        result = run("verify", path)
        assert result.exit_code == 2
        assert "metric.entries[4]" in result.stderr

    def test_unknown_label_table_entry_is_2(self, tmp_path):
        entries = [[r, s, ["0" if r == s else "1"]] for r in "ab" for s in "ab"]
        path = table_file(tmp_path, [*entries, ["a", "ghost", ["1"]]])
        result = run("verify", path)
        assert result.exit_code == 2
        assert "metric.entries[4]" in result.stderr

    def test_ray_cone_verifies_without_a_seed(self, ray_cone_file):
        result = run("verify", ray_cone_file)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert "seed" not in doc
        assert doc["cone_axioms"]["checks"][0]["passed"]
        for seed in (0, 1, 7):
            assert run("verify", "--seed", seed, ray_cone_file).stdout == result.stdout


class TestVerifyCost:
    def test_coprime_denominator_table_verifies_in_time(self, tmp_path):
        # every off-diagonal entry (p+1)/p has its own prime p, so the lcm of
        # the denominators has thousands of bits, and the triangle pass must
        # not pack lanes that wide; a subprocess, so that a slow pass fails
        # on the timeout
        n = 60
        sieve = bytearray([1]) * 40_000
        sieve[:2] = b"\0\0"
        for k in range(2, 200):
            if sieve[k]:
                sieve[k * k :: k] = bytes(len(sieve[k * k :: k]))
        primes = iter(k for k, is_prime in enumerate(sieve) if is_prime)
        labels = [f"x{i}" for i in range(n)]
        entries = []
        for r in labels:
            for s in labels:
                p = next(primes) if r != s else None
                entries.append([r, s, ["0" if p is None else f"{p + 1}/{p}"]])
        doc = {
            "space": {"dimension": 1, "rows": [["1"]]},
            "points": labels,
            "metric": {"kind": "table", "entries": entries},
        }
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps(doc))
        src = Path(quasicone.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "quasicone.cli", "verify", str(path)],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["passed"]


def respelled(literal: str, i: int):
    """Another spelling of a plain literal with the same value: an integer
    as a JSON number, a fraction padded with spaces or given a + sign."""
    if "/" not in literal:
        return int(literal)
    return f" {literal} " if i % 2 or literal.startswith("-") else f"+{literal}"


class TestRespelledTables:
    """A table whose literals are not all plain has those literals written
    back plain, so every report is the one of the plain file but for the
    file name."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_reports_equal_the_plain_files(self, tmp_path, seed):
        instance = random_table_instance(random.Random(seed), max_points=7, dim=2)
        everyone = frozenset(instance.points)
        doc = instance_json(instance, [Query(instance.points[0], everyone),
                                       Query(instance.points[-1], everyone, "backward")])
        plain, other = tmp_path / "plain.json", tmp_path / "respelled.json"
        plain.write_text(json.dumps(doc))
        for i, (_, _, value) in enumerate(doc["metric"]["entries"]):
            value[:] = [respelled(literal, i + k) for k, literal in enumerate(value)]
        assert any(type(c) is int for *_, v in doc["metric"]["entries"] for c in v)
        assert any(type(c) is str and c != c.strip() for *_, v in doc["metric"]["entries"] for c in v)
        other.write_text(json.dumps(doc))

        for command in (["verify"], ["approx"], ["approx", "--query", "1"],
                        ["witness", "--mode", "emit"]):
            reports = []
            for path in (plain, other):
                result = run(*command, path)
                assert result.exit_code in (0, 4), result.output  # 4: an axiom fails
                report = json.loads(result.stdout)
                assert report.pop("file") == str(path)
                reports.append((result.exit_code, report))
            assert reports[0] == reports[1], command


class TestDeterminism:
    @pytest.mark.parametrize("command", [["verify", "--seed", "7"], ["approx"], ["classify"]])
    def test_reports_byte_identical(self, slack_file, tmp_path, command):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(*command, slack_file, "--out", out1).exit_code == 0
        assert run(*command, slack_file, "--out", out2).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_identical_stdout_runs(self, slack_file):
        a = run("approx", slack_file)
        b = run("approx", slack_file)
        assert a.stdout == b.stdout


class TestPrettyMode:
    def test_approx_pretty_uses_order_notation(self, slack_file):
        result = run("approx", slack_file, "--pretty")
        assert result.exit_code == 0
        assert "P_{H_f}(q=5) = {2}" in result.stdout

    def test_verify_pretty(self, slack_file):
        result = run("verify", slack_file, "--pretty")
        assert "QCM3 ok (1000 checks)" in result.stdout

    def test_classify_pretty(self, slack_file):
        result = run("classify", slack_file, "--pretty")
        assert "Chebyshev: holds" in result.stdout

    @staticmethod
    def empty_best_file(tmp_path):
        doc = {
            "space": {"dimension": 2, "rows": [["1", "0"], ["0", "1"]]},
            "points": ["h1", "h2", "q"],
            "metric": {
                "kind": "table",
                "entries": [
                    [r, s, ["0", "0"] if r == s else v]
                    for r, s, v in [
                        ("q", "h1", ["1", "0"]),
                        ("q", "h2", ["0", "1"]),
                        ("h1", "q", ["1", "1"]),
                        ("h2", "q", ["1", "1"]),
                        ("h1", "h2", ["1", "1"]),
                        ("h2", "h1", ["1", "1"]),
                        ("q", "q", None),
                        ("h1", "h1", None),
                        ("h2", "h2", None),
                    ]
                ],
            },
            "queries": [{"q": "q", "candidates": ["h1", "h2"]}],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        return path

    def test_empty_best_pretty_symbol(self, tmp_path):
        result = run("approx", self.empty_best_file(tmp_path), "--pretty")
        assert "∅" in result.stdout

    def test_verify_pretty_counterexample(self, broken_metric_file):
        result = run("verify", broken_metric_file, "--pretty")
        assert result.exit_code == 4
        assert "QCM2 FAIL" in result.stdout
        assert "  counterexample for QCM2: " in result.stdout
        assert result.stdout.endswith("AXIOM FAILURE\n")

    def test_classify_pretty_failure_and_pseudo(self, tmp_path):
        path = tmp_path / "tied.json"
        run("example", "example4", "--grid", "0:1:1/2", "--beta", "-1", "--out", path)
        doc = json.loads(path.read_text())
        doc["embedding"] = {p["label"]: [p["coordinate"], "1"] for p in doc["points"]}
        path.write_text(json.dumps(doc))
        result = run("classify", path, "--pretty")
        assert result.exit_code == 5
        assert result.stdout == (
            "direction: forward\n"
            "Chebyshev: FAILS\n"
            "  q=-1: distinct members 0, 1\n"
            "quasi-Chebyshev: holds (every best set nonempty)\n"
            "pseudo-Chebyshev: holds (finite scale); span ranks in census\n"
            "census (q: cardinality, rank)\n"
            "  -1: 3, 2\n"
        )

    def test_classify_empty_best_pretty(self, tmp_path):
        path = self.empty_best_file(tmp_path)
        result = run("classify", path, "--pretty")
        assert result.exit_code == 5
        assert "quasi-Chebyshev: FAILS\n  q=q: empty best set" in result.stdout

    def test_witness_pretty(self, slack_file, tmp_path):
        wpath = tmp_path / "w.json"
        emit = run("witness", slack_file, "--mode", "emit", "--witness-path", wpath, "--pretty")
        assert emit.exit_code == 0
        assert emit.stdout == "witness for q=5 (forward)\n"
        holds = run("witness", slack_file, "--mode", "check", "--witness-path", wpath, "--pretty")
        assert holds.exit_code == 0
        assert holds.stdout == "witness for q=5 (forward)\nverdict: holds\ncertified members: {2}\n"
        fails = run("witness", slack_file, "--mode", "check", "--witness-path", wpath,
                    "--members", "1", "--pretty")
        assert fails.exit_code == 5
        assert "verdict: fails f-shift-not-in-cone at 2 with value (" in fails.stdout
        assert "certified members: ∅" in fails.stdout
        doc = json.loads(wpath.read_text())
        doc["f"] = [[label, ["99", "99"]] for label, _ in doc["f"]]
        wpath.write_text(json.dumps(doc))
        none = run("witness", slack_file, "--mode", "check", "--witness-path", wpath, "--pretty")
        assert none.exit_code == 5
        assert none.stdout == (
            "witness for q=5 (forward)\n"
            "verdict: fails: witness certifies no candidate\n"
            "certified members: ∅\n"
        )

