"""Batch front-end: verify, approximate, classify, and check witnesses
against declarative instance files.

Reports go to stdout (or ``--out``) and are byte-identical for identical
inputs; every check is exact, so ``verify --seed`` is accepted but has no
effect. Wall-clock timing goes to stderr so it never perturbs a report.
Exit codes: 0 success, 2 file parse error, 3 semantic error (unknown
labels, missing embedding, bad selectors, oversized grids, an option the
command or mode does not use), 4 axiom failure, 5 verdict failure (a
witness check or classification that does not hold). A command line the
parser rejects (a missing or unknown command, option or value, or a PATH
that is not a readable file) also exits 2.

The parser is the standard library's ``argparse``, which costs an
interpreter start a few milliseconds; no third-party package is imported.

Each run is a fresh interpreter, which compiles every module it loads
when no bytecode cache exists, so the module level imports only what
every command needs to read an instance file (``errors``, ``files`` and
``metric``, which load ``cones``), and each command imports the rest of
what it runs in its body: only ``verify`` loads ``reports``, which holds
the axiom checks, and only ``--pretty`` loads ``pretty``, which holds the
human-readable renderers.

``main`` is the only code that knows it runs as a program. Called without
``argv``, as ``python -m quasicone.cli`` and the installed ``quasicone``
script both call it, it turns the cyclic garbage collector off: every
object a command builds lives until the process exits, so a collection
pass can free nothing and only costs time (about a hundred passes while a
14,400-entry table is decoded and indexed). Importing the module, or
calling ``main`` with a list of arguments as tests do, leaves the
collector alone. ``main`` also maps every error a command raises to its
exit code and prints the elapsed time.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cones import PLAIN_LITERAL
from .errors import DimensionMismatch, InstanceFileError, NotARational, UnknownLabel
from .files import (
    LoadedInstance,
    approximation_json,
    axiom_report_json,
    chebyshev_report_json,
    instance_json,
    load_instance_file,
    witness_json,
)
from .metric import DIRECTIONS, FORWARD, Query, build_example3, build_example4, verify_axioms

EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_AXIOM = 4
EXIT_VERDICT = 5

_SEMANTIC_ERRORS = (UnknownLabel, NotARational, ValueError)

# `example --grid` refuses grids with more points than this before building
# anything. The cap bounds the size of the file written and the O(n^3)
# triangle pass that `verify` makes on it.
MAX_GRID_POINTS = 1000


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _report(doc: dict, out: str | None, pretty: bool = False) -> None:
    """Write the document as indented JSON, or in its human-readable form
    (``pretty.render``), to the file ``out`` or to stdout. A path that
    cannot be written is a bad option value (exit 3)."""
    if pretty:
        from .pretty import render

        text = render(doc)
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _Failure(EXIT_SEMANTIC, f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _select_queries(
    loaded: LoadedInstance, selector: str, direction: str | None, all_keyword: bool = False
) -> list[Query]:
    """The file queries that ``selector`` names; ``all`` names every query
    only where ``all_keyword`` is set (``approx``), and is a label elsewhere.
    An index is written in the package's integer grammar, ASCII digits with
    an optional sign (``cones.PLAIN_LITERAL`` without a ``/``), and one in
    range selects that query. Any other selector, such as ``٣``, ``1_0`` or
    `` 1``, which ``int()`` would read as a number, is a target label."""
    queries = loaded.queries
    if not queries:
        raise _Failure(
            EXIT_SEMANTIC,
            "instance file has no queries; add a 'queries' section",
        )
    index = int(selector) if PLAIN_LITERAL.fullmatch(selector) and "/" not in selector else None
    if all_keyword and selector == "all":
        chosen = list(queries)
    elif index is not None and 0 <= index < len(queries):
        chosen = [queries[index]]
    else:
        chosen = [q for q in queries if q.q == selector]
    if not chosen:
        if index is not None:
            raise _Failure(
                EXIT_SEMANTIC,
                f"query index {index} out of range (file has {len(queries)})",
            )
        raise _Failure(EXIT_SEMANTIC, f"no query with target point {selector!r}")
    if direction:
        chosen = [Query(q.q, q.candidates, direction) for q in chosen]
    return chosen


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify(path, seed, out, pretty):
    """Check the cone axioms and the metric axioms exhaustively."""
    from .reports import check_cone_axioms

    instance = load_instance_file(path).instance
    cone_report = check_cone_axioms(instance.space.cone)
    metric_report = verify_axioms(instance)
    doc = {
        "command": "verify",
        "file": path,
        "points": len(instance.points),
        "cone_axioms": axiom_report_json(cone_report),
        "metric_axioms": axiom_report_json(metric_report),
        "passed": cone_report.passed and metric_report.passed,
    }
    _report(doc, out, pretty)
    if not doc["passed"]:
        failing = [c.axiom for c in (*cone_report.failures, *metric_report.failures)]
        raise _Failure(EXIT_AXIOM, f"axiom failure: {', '.join(failing)}")


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

def approx(path, selector, direction, out, pretty):
    """Compute best-approximation sets for the file's queries."""
    from .approximation import best_approximation_set

    loaded = load_instance_file(path)
    doc = {
        "command": "approx",
        "file": path,
        "results": [
            approximation_json(q, best_approximation_set(loaded.instance, q))
            for q in _select_queries(loaded, selector, direction, all_keyword=True)
        ],
    }
    _report(doc, out, pretty)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def witness(path, mode, selector, witness_path, members, direction, out, pretty):
    """Emit the canonical witness for a query, or check a witness file.

    In check mode without --members, the verdict holds when the table
    certifies at least one candidate; the certified set is reported.
    """
    from .witnesses import _Conditions, canonical_witness, load_witness_file, verdict_json

    if members and mode == "emit":
        raise _Failure(EXIT_SEMANTIC, "--members applies to --mode check only")
    if direction and mode == "check":
        raise _Failure(
            EXIT_SEMANTIC,
            "--direction applies to --mode emit only; check mode uses the witness file's direction",
        )
    loaded = load_instance_file(path)
    query = _select_queries(loaded, selector, direction)[0]
    candidates = sorted(query.candidates)
    if mode == "emit":
        wdoc = witness_json(canonical_witness(loaded.instance, query.q, query.direction))
        if witness_path:
            _report(wdoc, witness_path)
        doc = {"command": "witness", "mode": "emit", "file": path, "witness": wdoc}
        _report(doc, out, pretty)
        return

    if not witness_path:
        raise _Failure(EXIT_SEMANTIC, "check mode needs --witness-path")
    table = load_witness_file(witness_path)
    # _Conditions checks the table against the instance and names the bad
    # field. The CLI adds the rule that q is the query's point (once q is a
    # point, so the messages keep their order) and the file's path; main
    # gives the exit codes: a vector of the wrong length (DimensionMismatch)
    # is a parse error (exit 2), as in a table; a label that is not a point,
    # or a point with no entry, is a semantic error (exit 3), as in a query.
    instance, where = loaded.instance, Path(witness_path)
    if instance.has_point(table.q) and table.q != query.q:
        raise ValueError(f"{where}: witness.q: {table.q!r} is not the query point {query.q!r}")
    try:
        conditions = _Conditions(instance, table, candidates)
    except (UnknownLabel, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    if members:
        verdict = conditions.set_verdict(members)
        certified = sorted(set(members)) if verdict.holds else []
        verdict_doc = verdict_json(verdict)
        failure = f"witness check failed: {verdict.failed_condition}"
    else:
        certified = conditions.certified()
        verdict_doc = (
            {"holds": True} if certified
            else {"holds": False, "reason": "witness certifies no candidate"}
        )
        failure = "witness certifies no candidate"
    doc = {
        "command": "witness",
        "mode": "check",
        "file": path,
        "witness": {"q": table.q, "direction": table.direction},
        "certified": certified,
        "verdict": verdict_doc,
    }
    _report(doc, out, pretty)
    if not verdict_doc["holds"]:
        raise _Failure(EXIT_VERDICT, failure)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def classify_cmd(path, direction, pseudo, out, pretty):
    """Classify the candidate set over the file's query family.

    The family is taken from the file's queries (which must share one
    candidate set, and one direction unless --direction is given); without
    queries, every ground-set point is both a query and a candidate. Exit
    code 5 when the set is not Chebyshev.
    """
    from .chebyshev import QueryFamily, classify as classify_family

    loaded = load_instance_file(path)
    everything = frozenset(loaded.instance.points)
    queries = loaded.queries or [Query(p, everything, FORWARD) for p in loaded.instance.points]
    candidate_sets = {q.candidates for q in queries}
    if len(candidate_sets) != 1:
        raise _Failure(
            EXIT_SEMANTIC,
            "classification needs a single shared candidate set across queries",
        )
    first = queries[0].direction
    i = next((i for i, q in enumerate(queries) if q.direction != first), None)
    if direction is None and i is not None:
        raise _Failure(
            EXIT_SEMANTIC,
            f"queries[{i}].direction: {queries[i].direction!r} differs from "
            f"queries[0].direction {first!r}; classification needs a single "
            "direction across queries (or --direction)",
        )
    family = QueryFamily(tuple(q.q for q in queries), candidate_sets.pop(), direction or first)
    report = classify_family(
        loaded.instance, family, embedding=loaded.embedding, check_pseudo=pseudo
    )
    doc = {
        "command": "classify",
        "file": path,
        **chebyshev_report_json(report),
    }
    _report(doc, out, pretty)
    if not (report.chebyshev_holds and report.quasi_holds):
        first = (
            report.chebyshev_counterexamples[0][0]
            if report.chebyshev_counterexamples
            else report.quasi_counterexamples[0][0]
        )
        raise _Failure(
            EXIT_VERDICT, f"classification failed; first counterexample at q={first}"
        )


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

def _parse_grid(spec: str) -> list[Fraction]:
    from .cones import as_rational

    parts = spec.split(":")
    if len(parts) != 3:
        raise _Failure(EXIT_SEMANTIC, f"grid spec must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (as_rational(p) for p in parts)
    except NotARational:
        raise _Failure(EXIT_SEMANTIC, f"grid spec has non-rational parts: {spec!r}") from None
    if step <= 0:
        raise _Failure(EXIT_SEMANTIC, "grid step must be positive")
    if stop < start:
        raise _Failure(EXIT_SEMANTIC, "grid stop must not precede start")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise _Failure(
            EXIT_SEMANTIC,
            f"grid {spec!r} has {count} points; at most {MAX_GRID_POINTS} are allowed",
        )
    return [start + k * step for k in range(count)]


def example(name, grid, alpha, beta, direction, out):
    """Generate an instance file for one of the closed-form metrics."""
    from .cones import as_rational, format_rational

    if alpha is not None and name != "example4":
        raise _Failure(EXIT_SEMANTIC, f"--alpha applies to example4 only, not {name}")
    if direction is not None and beta is None:
        raise _Failure(EXIT_SEMANTIC, "--direction applies to the --beta query; give --beta")
    grid_values = _parse_grid(grid)
    points = [(format_rational(v), v) for v in grid_values]
    candidate_labels = [label for label, _ in points]
    queries = []
    if beta is not None:
        try:
            beta_value = as_rational(beta)
        except NotARational:
            raise _Failure(EXIT_SEMANTIC, f"beta must be rational, got {beta!r}") from None
        q_value = beta_value * beta_value if name == "example3" else beta_value
        q_label = format_rational(q_value)
        if q_value not in grid_values:
            points.append((q_label, q_value))
        queries.append(Query(q_label, frozenset(candidate_labels), direction or FORWARD))
    if name == "example3":
        instance = build_example3(points)
    else:
        try:
            alpha_value = as_rational("1" if alpha is None else alpha)
        except NotARational:
            raise _Failure(EXIT_SEMANTIC, f"alpha must be rational, got {alpha!r}") from None
        instance = build_example4(points, alpha_value)
    _report(instance_json(instance, queries), out)



# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def _input_file(value: str) -> str:
    """PATH: a file that exists, is not a directory and can be read."""
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"file {value!r} does not exist")
    return _output_file(value)


def _output_file(value: str) -> str:
    """A file to write or read: not a directory, and readable if it exists."""
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    if os.path.exists(value) and not os.access(value, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {value!r} is not readable")
    return value


def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the options that take a value, recorded from the
    action that each ``add`` call returns."""
    shared = {"add_help": False, "allow_abbrev": False}
    valued = set()
    parser = argparse.ArgumentParser(
        prog="python -m quasicone.cli" if __name__ == "__main__" else "quasicone",
        description="Exact best-approximation toolkit for finite quasi-cone metric instances.",
        **shared,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, report=True):
        doc = run.__doc__ or ""
        sub = commands.add_parser(name, help=doc.partition("\n")[0], description=doc, **shared)
        sub.set_defaults(run=run)

        def add(*names, **options):
            action = sub.add_argument(*names, **options)
            if action.nargs != 0:
                valued.update(action.option_strings)

        add("--help", action="help", help="Show this message and exit.")
        if report:
            add("path", metavar="PATH", type=_input_file)
            add("--out", type=_output_file, metavar="FILE",
                help="Write the report to this file instead of stdout.")
            add("--pretty", action="store_true", help="Human-readable report.")
        return add

    add = command("verify", verify)
    add("--seed", type=int, default=0,
        help="Accepted for compatibility; has no effect, as every check is exact.  "
             "[default: %(default)s]")

    add = command("approx", approx)
    add("--query", dest="selector", metavar="QUERY", default="all",
        help="Which file query to run: 'all', an index, or a target label. ASCII digits "
             "with an optional sign, in range, are an index; any other value selects the "
             "queries with that target label. [default: %(default)s]")
    add("--direction", choices=DIRECTIONS,
        help="Override the direction of the selected queries.")

    add = command("witness", witness)
    add("--mode", choices=("emit", "check"), required=True)
    add("--query", dest="selector", metavar="QUERY", default="0",
        help="File query supplying q and the candidate set: an index, or a target label. "
             "ASCII digits with an optional sign, in range, are an index; any other value "
             "selects the first query with that target label. [default: %(default)s]")
    add("--witness-path", type=_output_file, metavar="FILE",
        help="Where to write (emit) or read (check) the witness file.")
    add("--members", action="append", default=[], metavar="LABEL",
        help="Check mode only: check the witness for exactly these members (repeatable).")
    add("--direction", choices=DIRECTIONS,
        help="Emit mode only: override the direction of the selected query.")

    add = command("classify", classify_cmd)
    add("--direction", choices=DIRECTIONS,
        help="Override the family direction.")
    add("--pseudo", action=argparse.BooleanOptionalAction,
        help="Force or skip the linear-independence census "
             "(default: run it when the file has an embedding).")

    add = command("example", example, report=False)
    add("name", choices=("example3", "example4"))
    add("--grid", required=True,
        help="Candidate grid as start:stop:step with rational parts, e.g. 0:2:1/4.")
    add("--alpha", help="Slack parameter; example4 only, default 1.")
    add("--beta", help="Query parameter; the query point is beta^2 for example3 "
                       "and beta itself for example4.")
    add("--direction", choices=DIRECTIONS,
        help="Direction of the --beta query; needs --beta, default forward.")
    add("--out", type=_output_file, metavar="FILE")
    return parser, valued


def _joined(argv: list[str], valued: set[str]) -> list[str]:
    """``argv`` with each ``--option VALUE`` of an option that takes a value
    written as ``--option=VALUE``, up to a ``--``, so that a value that
    starts with ``-``, such as the grid ``-2:2:1/2``, is read as the value
    and not as an option."""
    joined, i = [], 0
    while i < len(argv):
        word = argv[i]
        if word == "--":
            return joined + argv[i:]
        if word in valued and i + 1 < len(argv):
            i += 1
            word = f"{word}={argv[i]}"
        joined.append(word)
        i += 1
    return joined


def main(argv: list[str] | None = None) -> None:
    """Exact best-approximation toolkit for finite quasi-cone metric
    instances: run the command that ``argv`` (by default ``sys.argv[1:]``)
    names. A command line the parser rejects exits 2; a command's error
    prints ``error: MESSAGE`` and exits with its code, and every command
    prints its elapsed time to stderr.

    With ``argv`` None the command is the whole process, so the collector
    goes off (the module docstring says why). Nothing turns it back on,
    since that would start a pass at once over everything the command
    built."""
    if argv is None:
        gc.disable()
        argv = sys.argv[1:]
    parser, valued = _parser()
    options = vars(parser.parse_args(_joined(list(argv), valued)))
    run = options.pop("run")
    started = time.perf_counter()
    try:
        run(**options)
    except (_Failure, *_SEMANTIC_ERRORS) as exc:  # a file error is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(
            exc.code if isinstance(exc, _Failure)
            else EXIT_PARSE if isinstance(exc, (InstanceFileError, DimensionMismatch))
            else EXIT_SEMANTIC
        )
    finally:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
