"""Closed-loop runs of the ``quasicone`` CLI: one client, one subprocess at a time.

Each command is a fresh interpreter (``python -m quasicone.cli``), so its
time includes interpreter start, which users pay on every call. Wall time,
CPU time and peak RSS come from the child's own rusage (``os.wait4``).
Every report is checked against the oracle; a wrong exit code, a wrong
answer, a timeout or a traceback counts as a failed command.

Before each command the loop also times a fixed reference computation in
this process, and each pass reports its times divided by the mean
reference time of that pass; README.md says why.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from time import perf_counter

from oracle import CHECKS, Expected

COMMAND_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class InstanceFile:
    expected: Expected
    path: Path

    @property
    def name(self) -> str:
        return self.expected.spec.name


@dataclass
class CommandResult:
    command: str
    file: str
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    problems: list[str] = field(default_factory=list)


def reference_time() -> float:
    """Wall time of a fixed exact-arithmetic loop, about 20 ms on an idle host."""
    started = perf_counter()
    total = Fraction(0)
    for i in range(1, 8000):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - started


def cli_argv(command: str, path: Path, report: Path, witness: Path) -> list[str]:
    """The CLI arguments for one benchmark command.

    Only options the CLI keeps long term are used: no --seed, and no
    --jobs, which would start a process pool.
    """
    base = {
        "verify": ["verify"],
        "approx": ["approx"],
        "classify": ["classify"],
        "witness_emit": ["witness", "--mode", "emit", "--query", "0", "--witness-path", str(witness)],
        "witness_check": ["witness", "--mode", "check", "--query", "0", "--witness-path", str(witness)],
    }[command]
    return [base[0], str(path), *base[1:], "--out", str(report)]


def spawn(argv: list[str], env: dict, log: Path, timeout: float):
    """Run argv to completion; return (exit code or None on timeout, wall s, rusage)."""
    timed_out = []
    with open(log, "wb") as sink:
        started = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink, env=env)

        def kill():
            timed_out.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), wall, usage


class CliLoop:
    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def python(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "quasicone.cli", *args]

    def run(self, command: str, item: InstanceFile, deadline: float) -> CommandResult:
        report = self.workdir / f"{item.name}.{command}.out.json"
        witness = self.workdir / f"{item.name}.witness.json"
        log = self.workdir / f"{item.name}.{command}.log"
        report.unlink(missing_ok=True)
        timeout = min(COMMAND_TIMEOUT_S, deadline - perf_counter())
        code, wall, usage = spawn(
            self.python(*cli_argv(command, item.path, report, witness)), self.env, log, timeout
        )
        result = CommandResult(
            command, item.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
        )
        problems = result.problems
        stderr = log.read_text(errors="replace")
        if code is None:
            problems.append(f"timed out after {timeout:.1f} s")
            return result
        if "Traceback" in stderr:
            problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1][:200])
        want = item.expected.exit_code(command)
        if code != want:
            problems.append(f"exit code {code}, want {want}: {stderr.strip()[-200:]}")
        try:
            doc = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"no readable report: {exc}")
            return result
        problems += CHECKS[command](doc, item.expected)
        return result

    def run_pass(self, commands: tuple[str, ...], items: list[InstanceFile], deadline: float) -> "PassResult":
        started = perf_counter()
        results, references = [], []
        for item in items:
            for command in commands:
                references.append(reference_time())
                results.append(self.run(command, item, deadline))
        wall = perf_counter() - started - sum(references)
        return PassResult(wall, results, fmean(references))


@dataclass
class PassResult:
    wall_s: float
    commands: list[CommandResult]
    reference_s: float

    @property
    def failures(self) -> list[CommandResult]:
        return [c for c in self.commands if c.problems]

    def metrics(self) -> dict[str, float]:
        cpu = sum(c.cpu_s for c in self.commands)
        out = {
            "session_s": self.wall_s,
            "session_cpu_s": cpu,
            "session_ref": self.wall_s / self.reference_s,
            "session_cpu_ref": cpu / self.reference_s,
            "reference_s": self.reference_s,
            "peak_rss_mb": max(c.max_rss_mb for c in self.commands),
        }
        for c in self.commands:
            key = f"{c.command}_s"
            out[key] = out.get(key, 0.0) + c.wall_s
        return out
