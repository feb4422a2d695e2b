"""Batch front-end: verify, approximate, classify, and check witnesses
against declarative instance files.

Reports go to stdout (or ``--out``) and are byte-identical for identical
inputs; every check is exact, so ``verify --seed`` is accepted but has no
effect. Wall-clock timing goes to stderr so it never perturbs a report.
Exit codes: 0 success, 2 file parse error, 3 semantic error (unknown
labels, missing embedding, bad selectors, oversized grids, an option the
command or mode does not use), 4 axiom failure, 5 verdict failure (a
witness check or classification that does not hold).

Each run is a fresh interpreter, which compiles every module it loads
when no bytecode cache exists, so the module level imports only what
every command needs to read an instance file (``errors``, ``files`` and
``metric``, which load ``cones``), and each command imports the rest of
what it runs in its body: only ``verify`` loads ``reports``, which holds
the axiom checks, and only ``--pretty`` loads ``pretty``, which holds the
human-readable renderers.

Run as ``python -m quasicone.cli``, the program turns the cyclic garbage
collector off before anything else is imported: every object a command
builds lives until the process exits, so a collection pass can free
nothing and only costs time (about a hundred passes while a 14,400-entry
table is decoded and indexed). Importing the module leaves the collector
alone, so tests, ``CliRunner`` and the installed ``quasicone`` script run
with it on.
"""
from __future__ import annotations

import gc

# One command is one process, and its objects live until that process
# exits, so a collection pass finds nothing to free. Only the program run
# as __main__ does this: importing a module must not change the collector
# for the whole process. Nothing turns it back on, since that would start
# a pass at once over everything the command built.
if __name__ == "__main__":
    gc.disable()

import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from .errors import InstanceFileError, NotARational, UnknownLabel
from .files import (
    LoadedInstance,
    approximation_json,
    axiom_report_json,
    chebyshev_report_json,
    instance_json,
    load_instance_file,
    load_witness_file,
    verdict_json,
    witness_json,
)
from .metric import BACKWARD, FORWARD, Query, build_example3, build_example4, verify_axioms

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
    (``pretty.render``), to the file ``out`` or to stdout."""
    if pretty:
        from .pretty import render

        text = render(doc)
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _select_queries(
    loaded: LoadedInstance, selector: str, direction: str | None
) -> list[Query]:
    queries = loaded.queries
    if not queries:
        raise _Failure(
            EXIT_SEMANTIC,
            "instance file has no queries; add a 'queries' section",
        )
    # an integer in range is an index; anything else is a target label
    try:
        index = int(selector)
    except ValueError:
        index = None
    if selector == "all":
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


def _exits(command):
    """Run a command, mapping library errors to exit codes, and print the
    elapsed time to stderr. Goes under the click decorators."""

    @functools.wraps(command)
    def run(**options):
        started = time.perf_counter()
        try:
            command(**options)
        except _Failure as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.code)
        except InstanceFileError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except _SEMANTIC_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SEMANTIC)
        finally:
            elapsed = time.perf_counter() - started
            click.echo(f"elapsed: {elapsed:.3f}s", err=True)

    return run


def _report_options(fn):
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write the report to this file instead of stdout.")(fn)
    fn = click.option("--pretty", is_flag=True, help="Human-readable report.")(fn)
    return fn


@click.group()
def main():
    """Exact best-approximation toolkit for finite quasi-cone metric instances."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True,
              help="Accepted for compatibility; has no effect, as every check is exact.")
@_report_options
@_exits
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

@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--query", "selector", default="all", show_default=True,
              help="Which file query to run: 'all', an index, or a target label. "
                   "An integer in range is an index; any other value selects "
                   "the queries with that target label.")
@click.option("--direction", type=click.Choice([FORWARD, BACKWARD]), default=None,
              help="Override the direction of the selected queries.")
@_report_options
@_exits
def approx(path, selector, direction, out, pretty):
    """Compute best-approximation sets for the file's queries."""
    from .approximation import best_approximation_set

    loaded = load_instance_file(path)
    doc = {
        "command": "approx",
        "file": path,
        "results": [
            approximation_json(q, best_approximation_set(loaded.instance, q))
            for q in _select_queries(loaded, selector, direction)
        ],
    }
    _report(doc, out, pretty)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["emit", "check"]), required=True)
@click.option("--query", "selector", default="0", show_default=True,
              help="File query supplying q and the candidate set: an index, "
                   "or a target label. An integer in range is an index; any "
                   "other value selects the first query with that target label.")
@click.option("--witness-path", type=click.Path(dir_okay=False), default=None,
              help="Where to write (emit) or read (check) the witness file.")
@click.option("--members", multiple=True,
              help="Check mode only: check the witness for exactly these members (repeatable).")
@click.option("--direction", type=click.Choice([FORWARD, BACKWARD]), default=None,
              help="Emit mode only: override the direction of the selected query.")
@_report_options
@_exits
def witness(path, mode, selector, witness_path, members, direction, out, pretty):
    """Emit the canonical witness for a query, or check a witness file.

    In check mode without --members, the verdict holds when the table
    certifies at least one candidate; the certified set is reported.
    """
    from .witnesses import _Conditions, canonical_witness, verify_witness_for_set

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
    # a label that is not a point, or a point with no entry, is a semantic
    # error (exit 3), as in a query; a vector of the wrong length is a parse
    # error (exit 2), as in a table. The table keeps the file's order of f.
    instance, where = loaded.instance, Path(witness_path)
    if not instance.has_point(table.q):
        raise UnknownLabel(f"{where}: witness.q: unknown point label {table.q!r}")
    if table.q != query.q:
        raise ValueError(f"{where}: witness.q: {table.q!r} is not the query point {query.q!r}")
    dimension = instance.space.dimension
    for i, (label, value) in enumerate(table.f.items()):
        if not instance.has_point(label):
            raise UnknownLabel(f"{where}: witness.f[{i}]: unknown point label {label!r}")
        if value.dimension != dimension:
            raise InstanceFileError(
                f"{where}: witness.f[{i}][1]: expected {dimension} coordinates, "
                f"got {value.dimension}"
            )
    missing = next((x for x in instance.points if x not in table.f), None)
    if missing is not None:
        raise _Failure(EXIT_SEMANTIC, f"{where}: witness.f: no entry for point {missing!r}")
    if members:
        verdict = verify_witness_for_set(instance, table, candidates, members)
        certified = sorted(set(members)) if verdict.holds else []
        verdict_doc = verdict_json(verdict)
        failure = f"witness check failed: {verdict.failed_condition}"
    else:
        certified = _Conditions(instance, table, candidates).certified()
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

@main.command(name="classify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", type=click.Choice([FORWARD, BACKWARD]), default=None,
              help="Override the family direction.")
@click.option("--pseudo/--no-pseudo", "pseudo", default=None,
              help="Force or skip the linear-independence census "
                   "(default: run it when the file has an embedding).")
@_report_options
@_exits
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


@main.command()
@click.argument("name", type=click.Choice(["example3", "example4"]))
@click.option("--grid", required=True,
              help="Candidate grid as start:stop:step with rational parts, e.g. 0:2:1/4.")
@click.option("--alpha", default=None,
              help="Slack parameter; example4 only, default 1.")
@click.option("--beta", default=None,
              help="Query parameter; the query point is beta^2 for example3 "
                   "and beta itself for example4.")
@click.option("--direction", type=click.Choice([FORWARD, BACKWARD]), default=None,
              help="Direction of the --beta query; needs --beta, default forward.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exits
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
        instance = build_example4(points, as_rational("1" if alpha is None else alpha))
    _report(instance_json(instance, queries), out)


if __name__ == "__main__":
    main()
