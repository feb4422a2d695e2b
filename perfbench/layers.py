"""Traced in-process run: one span around each call into a library layer.

A pass walks the workload's files and calls the public functions of each
module on them, checking every result against the oracle. Spans stay in
memory and are written as JSON when the run ends; each span records its
name, start, end, parent (the pass) and the counts measured at that
boundary. Per-layer metrics are per-pass sums over the workload's files
and queries, reported as medians over passes; counts must repeat exactly.
"""
from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from quasicone import (
    MinimalFrontFallback,
    QcmInstance,
    QueryFamily,
    best_approximation_set,
    build_example3,
    build_example4,
    canonical_witness,
    check_cone_axioms,
    classify,
    directed_distance,
    load_instance_file,
    load_witness_file,
    minimal_front_dnc,
    minimal_front_naive,
    verify_axioms,
    verify_witness_for_element,
)
from quasicone.files import (
    approximation_json,
    axiom_report_json,
    chebyshev_report_json,
    witness_json,
)

from cli_loop import CliLoop, InstanceFile, spawn
from oracle import check_approx_result, check_axioms, check_classify

# span name -> per-layer time metric; counts are summed under their own names
TIMED = {
    "cli.start": "cli.start_s",
    "files.load": "files.load_s",
    "files.witness_load": "files.witness_load_s",
    "metric.build": "metric.build_s",
    "metric.verify_axioms": "metric.verify_axioms_s",
    "cones.check_cone_axioms": "cones.check_cone_axioms_s",
    "cones.leq": "cones.leq_s",
    "approximation.best_set": "approximation.best_set_s",
    "approximation.front_naive": "approximation.front_naive_s",
    "approximation.front_dnc": "approximation.front_dnc_s",
    "witnesses.canonical": "witnesses.canonical_s",
    "witnesses.check_element": "witnesses.check_element_s",
    "chebyshev.classify": "chebyshev.classify_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def children(self, parent: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent]

    def self_time(self, span: dict) -> float:
        """Duration minus the durations of its children, which run one after another."""
        children = sum(c["end"] - c["start"] for c in self.children(span["id"]))
        return span["end"] - span["start"] - children

    def write(self, path: Path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        doc = [
            {
                **{k: s[k] for k in ("id", "name", "parent", "counts")},
                "start_s": s["start"] - origin,
                "end_s": s["end"] - origin,
                "self_s": self.self_time(s),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": doc}))


class LayerPass:
    """One traced pass over a workload's files; collects answer mismatches."""

    def __init__(self, tracer: Tracer, loop: CliLoop, verifies: bool):
        self.tracer = tracer
        self.loop = loop
        self.verifies = verifies
        self.checked = 0
        self.problems: list[str] = []

    def check(self, where: str, problems: list[str]) -> None:
        self.checked += 1
        self.problems += [f"{where}: {p}" for p in problems]

    def run(self, items: list[InstanceFile], deadline: float) -> None:
        span = self.tracer.span
        with span("cli.start"):
            code, _, _ = spawn(self.loop.python("--help"), self.loop.env, self.loop.workdir / "help.log",
                               deadline - perf_counter())
        self.check("cli --help", [] if code == 0 else [f"exit code {code}"])
        for item in items:
            try:
                self.run_file(item)
            except Exception as exc:  # a library error fails the file, not the run
                self.check(item.name, [f"{type(exc).__name__}: {exc}"])

    def run_file(self, item: InstanceFile) -> None:
        span = self.tracer.span
        spec = item.expected.spec
        where = spec.name
        with span("files.load", entries=spec.explicit_entries, bytes=item.path.stat().st_size):
            loaded = load_instance_file(item.path)
        instance = loaded.instance

        if spec.kind == "table":
            table = {(r, s): v for r, s, v in instance.entries()}
            with span("metric.build", entries=spec.size ** 2):
                QcmInstance(instance.space, instance.points, table)
        else:
            coords = list(spec.coords.items())
            with span("metric.build", entries=spec.size ** 2):
                if spec.kind == "example3":
                    build_example3(coords)
                else:
                    build_example4(coords, spec.alpha)

        with span("cones.check_cone_axioms"):
            cone_report = check_cone_axioms(instance.space.cone)
        if self.verifies:
            with span("metric.verify_axioms") as counts:
                metric_report = verify_axioms(instance)
            counts["triples"] = metric_report["QCM3"].checks
            doc = {
                "points": len(instance.points),
                "cone_axioms": axiom_report_json(cone_report),
                "metric_axioms": axiom_report_json(metric_report),
                "passed": cone_report.passed and metric_report.passed,
            }
            self.check(f"{where} axioms", check_axioms(doc, item.expected))
        else:
            bad = [c.axiom for c in cone_report if not c.passed]
            self.check(f"{where} cone axioms", [f"{a} failed" for a in bad])

        space = instance.space
        first = loaded.queries[0]
        candidates = sorted(first.candidates)
        values = [directed_distance(instance, first.q, h, first.direction) for h in candidates]
        with span("cones.leq", leq_calls=len(values) ** 2):
            for a in values:
                for b in values:
                    space.leq(a, b)

        for query, answer in zip(loaded.queries, item.expected.answers):
            with span("approximation.best_set") as counts:
                result = best_approximation_set(instance, query)
            counts.update(
                pairs=result.stats.pairs,
                comparable=result.stats.comparable,
                best_size=len(result.best),
                front_size=len(result.minimal_front),
            )
            self.check(f"{where} best set", check_approx_result(approximation_json(query, result), answer, spec))
            pairs = [(h, directed_distance(instance, query.q, h, query.direction)) for h in sorted(query.candidates)]
            with span("approximation.front_naive"):
                naive = minimal_front_naive(pairs, space)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", MinimalFrontFallback)
                with span("approximation.front_dnc") as counts:
                    dnc = minimal_front_dnc(pairs, space)
            counts["dnc_fallbacks"] = sum(issubclass(w.category, MinimalFrontFallback) for w in caught)
            want = answer.minimal_front
            self.check(f"{where} q={query.q} naive front", [] if sorted(naive) == want else [f"{sorted(naive)} != {want}"])
            self.check(f"{where} q={query.q} dnc front", [] if sorted(dnc) == want else [f"{sorted(dnc)} != {want}"])

        with span("witnesses.canonical"):
            witness = canonical_witness(instance, first.q, first.direction)
        witness_path = self.loop.workdir / f"{spec.name}.traced-witness.json"
        witness_path.write_text(json.dumps(witness_json(witness)))
        with span("files.witness_load"):
            loaded_witness = load_witness_file(witness_path)
        certified = []
        for h in candidates:
            with span("witnesses.check_element", checks=1) as counts:
                verdict = verify_witness_for_element(instance, loaded_witness, candidates, h)
            counts["certified"] = int(verdict.holds)
            if verdict.holds:
                certified.append(h)
        want = item.expected.answers[0].best
        self.check(f"{where} certified", [] if certified == want else [f"{certified} != {want}"])

        family = QueryFamily(tuple(q.q for q in loaded.queries), first.candidates, first.direction)
        with span("chebyshev.classify") as counts:
            report = classify(instance, family, embedding=loaded.embedding)
        counts.update(multi=len(report.chebyshev_counterexamples), empty=len(report.quasi_counterexamples))
        self.check(f"{where} classify", check_classify(chebyshev_report_json(report), item.expected))


def pass_metrics(tracer: Tracer, pass_span: dict) -> dict[str, float]:
    """Per-layer sums over one pass's child spans, plus derived rates."""
    out: dict[str, float] = {}
    for child in tracer.children(pass_span["id"]):
        key = TIMED[child["name"]]
        out[key] = out.get(key, 0.0) + child["end"] - child["start"]
        for name, value in child["counts"].items():
            prefix = child["name"].split(".")[0]
            out[f"{prefix}.{name}"] = out.get(f"{prefix}.{name}", 0) + value
    for rate, count, per in [
        ("cones.leq_per_s", "cones.leq_calls", "cones.leq_s"),
        ("approximation.comparable_ratio", "approximation.comparable", "approximation.pairs"),
        ("metric.triples_per_s", "metric.triples", "metric.verify_axioms_s"),
    ]:
        if out.get(per):
            out[rate] = out[count] / out[per]
    out.pop("cones.leq_s", None)
    out.pop("approximation.comparable", None)
    return out
