"""Benchmark of the ``quasicone`` CLI and of its layers on seeded instances.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 40 --trace 0

Set-up builds and writes the workload's instance files through the
library, several times. With ``--trace 0`` the run then repeats passes over
the workload's CLI command list as a closed loop (one client, one
subprocess at a time) for ``--seconds`` and reports the end-to-end metrics
as medians over passes. Set-up and session times are scaled by a reference
computation timed next to them; README.md says why. With ``--trace 1`` the
run instead calls each layer in-process on the same files, records spans,
and reports per-layer metrics. Every answer is checked against an
independent oracle.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a fuller
report (metadata, sample counts, quartiles and metrics kept out of the
last line). The program is imported from ``src/`` of the checkout; the
run exits with code 2 when that is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is repeated until it has taken this long, within these counts
SETUP_BUDGET_S = 2.0
SETUP_REPEATS = (7, 41)
# setup_s is in seconds of a host on which reference_time() takes this long
REFERENCE_NOMINAL_S = 0.020
# a run stops starting work after this, whatever --seconds says
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "session_ref": "ratio",
    "session_cpu_ref": "ratio",
    "peak_rss_mb": "MB",
}
# Reported on the fuller line only. A command's time appears only on the
# workloads that run it, and one command's median over a run's few passes
# spreads too much between runs to gate on; failed_frac is zero by design.
END_TO_END_EXTRA = {
    "setup_wall_s": "s",
    "session_s": "s",
    "session_cpu_s": "s",
    "reference_s": "s",
    "verify_s": "s",
    "approx_s": "s",
    "classify_s": "s",
    "witness_emit_s": "s",
    "witness_check_s": "s",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "cli.start_s": "s",
    "files.load_s": "s",
    "files.entries": "count",
    "files.bytes": "bytes",
    "files.witness_load_s": "s",
    "metric.build_s": "s",
    "metric.entries": "count",
    "cones.check_cone_axioms_s": "s",
    "cones.leq_calls": "count",
    "cones.leq_per_s": "1/s",
    "approximation.best_set_s": "s",
    "approximation.pairs": "count",
    "approximation.comparable_ratio": "ratio",
    "approximation.best_size": "count",
    "approximation.front_size": "count",
    "approximation.front_naive_s": "s",
    "approximation.front_dnc_s": "s",
    "approximation.dnc_fallbacks": "count",
    "witnesses.canonical_s": "s",
    "witnesses.check_element_s": "s",
    "witnesses.checks": "count",
    "witnesses.certified": "count",
    "chebyshev.classify_s": "s",
    "chebyshev.multi": "count",
    "chebyshev.empty": "count",
}
# the triple pass runs only on workloads whose command list has verify
PER_LAYER_EXTRA = {"metric.verify_axioms_s": "s", "metric.triples": "count", "metric.triples_per_s": "1/s"}
EXACT_COUNTS = [k for k, unit in {**PER_LAYER, **PER_LAYER_EXTRA}.items() if unit == "count"]


def import_program():
    """Put the checkout's ``src`` first on the path and import the package."""
    src = ROOT / "src"
    if not (src / "quasicone" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import quasicone

    if Path(quasicone.__file__).resolve().parent != (src / "quasicone").resolve():
        return None
    return quasicone


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()

    try:
        return {
            "git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def summary(values: list[float]) -> dict:
    doc = {"median": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        doc.update(q1=q1, q3=q3)
    return doc


def median_by_key(samples: list[dict[str, float]]) -> dict[str, dict]:
    keys = {k for s in samples for k in s}
    return {k: summary([s[k] for s in samples if k in s]) for k in sorted(keys)}


def timed_setup(workload, seed: int, workdir: Path) -> tuple[list, dict[str, dict]]:
    """Generate the workload's files repeatedly; return the last files and set-up stats.

    Each build is divided by the mean of the reference times measured just
    before and just after it, and scaled by ``REFERENCE_NOMINAL_S``.
    """
    from cli_loop import reference_time
    from workloads import generate

    walls, scaled = [], []
    reference = reference_time()
    started = perf_counter()
    low, high = SETUP_REPEATS
    while len(walls) < low or (len(walls) < high and perf_counter() - started < SETUP_BUDGET_S):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        generated = generate(workload, seed, workdir)
        walls.append(perf_counter() - t0)
        after = reference_time()
        scaled.append(walls[-1] / ((reference + after) / 2) * REFERENCE_NOMINAL_S)
        reference = after
    return generated, {"setup_s": summary(scaled), "setup_wall_s": summary(walls)}


def repeat_passes(one_pass, seconds: float, deadline: float) -> list:
    """Run passes until the next one would overrun ``seconds`` or the deadline."""
    results = []
    begin = perf_counter()
    while True:
        pass_start = perf_counter()
        results.append(one_pass())
        now = perf_counter()
        took = now - pass_start
        if now - begin + took > seconds or now + took > deadline:
            return results


def run_cli(workload, items, loop, seconds: float, deadline: float) -> tuple[dict, int, int, list[str]]:
    passes = repeat_passes(lambda: loop.run_pass(workload.commands, items, deadline), seconds, deadline)
    attempted = sum(len(p.commands) for p in passes)
    failures = [f"pass {i} {c.file} {c.command}: {'; '.join(c.problems)}"
                for i, p in enumerate(passes) for c in p.failures]
    stats = median_by_key([p.metrics() for p in passes])
    stats["failed_frac"] = {"median": len(failures) / attempted, "n": attempted, "failed": len(failures)}
    return stats, attempted, len(failures), failures


def run_layers(workload, items, loop, seconds: float, deadline: float, spans_path: Path):
    from layers import LayerPass, Tracer, pass_metrics

    tracer = Tracer()

    def one_pass():
        layer_pass = LayerPass(tracer, loop, workload.verifies)
        pass_id = len(tracer.spans)
        with tracer.span("pass"):
            layer_pass.run(items, deadline)
        return layer_pass, pass_metrics(tracer, tracer.spans[pass_id])

    done = repeat_passes(one_pass, seconds, deadline)
    samples = [metrics for _, metrics in done]
    problems = [p for layer_pass, _ in done for p in layer_pass.problems]
    for key in EXACT_COUNTS:
        seen = {s.get(key) for s in samples}
        if len(seen) > 1:
            problems.append(f"{key} differs between passes: {sorted(seen, key=str)}")
    tracer.write(spans_path)
    return median_by_key(samples), sum(lp.checked for lp, _ in done), len(problems), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + HARD_LIMIT_S

    quasicone = import_program()
    if quasicone is None:
        print(f"error: no quasicone package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    from cli_loop import CliLoop, InstanceFile
    from oracle import Expected, OracleError
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out_dir = BENCH / "work"
    workdir = out_dir / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    spans_path = None
    try:
        generated, setup = timed_setup(workload, args.seed, workdir)
        files = [{"name": spec.name, "points": spec.size, "bytes": path.stat().st_size}
                 for spec, path in generated]
        declared, extra = (PER_LAYER, PER_LAYER_EXTRA) if args.trace else (END_TO_END, END_TO_END_EXTRA)
        try:
            items = [InstanceFile(Expected.of(spec), path) for spec, path in generated]
        except OracleError as exc:
            stats, attempted, failed, problems = {}, len(generated), len(generated), [f"oracle: {exc}"]
        else:
            loop = CliLoop(ROOT, workdir)
            if args.trace:
                spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
                stats, attempted, failed, problems = run_layers(
                    workload, items, loop, args.seconds, deadline, spans_path
                )
            else:
                stats, attempted, failed, problems = run_cli(workload, items, loop, args.seconds, deadline)
        if not args.trace:
            stats.update(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **git_state(),
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "quasicone": quasicone.__version__,
        "nproc": os.cpu_count(),
        "files": files,
        "metrics": {k: {**v, "unit": {**declared, **extra}.get(k)} for k, v in stats.items()},
        "problems": problems[:50],
    }
    if spans_path is not None:
        report["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    # a metric is missing (null) only when the calls that measure it failed
    metrics = {k: {"value": stats[k]["median"] if k in stats else None, "unit": unit} for k, unit in declared.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
