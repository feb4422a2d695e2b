"""Write every CLI report of one source tree, so that two trees can be
compared with ``diff -r``.

    python3 tools/cli_reports.py SRC_DIR OUT_DIR

SRC_DIR is the ``src`` directory of the tree under test. The script writes
the seed 1 and seed 7 instance files of the three benchmark workloads
through ``perfbench/workloads.py`` with the library in SRC_DIR, eight files
in all, then runs 16 invocations of ``python -m quasicone.cli`` from SRC_DIR
on each file: 128 reports. Twenty-four more invocations run once:
``example`` itself, ``classify`` on a file without queries, the CLI's own
exit 2 and 3 checks (among them a ``--query`` selector that ``int()``
would read as a number but the package's integer grammar reads as a
label), ``verify``, ``approx`` and ``witness --mode emit``
on two copies of the seed 1 ``table30`` file: one whose table literals are
all respelled (``respell``) and one whose last entry's first literal alone
is a JSON number (``mix``), so that the parser's writing back of literals
that are not plain is compared too, and ``witness --mode check`` on five
edited copies of one emitted witness file (``edit_witness``), one for each
check of a table against its instance: 152 reports. For each invocation it
keeps stdout, the exit code and stderr without its ``elapsed:`` line.
Commands run in OUT_DIR with relative paths, so the reports of two trees
differ only where the program's answers or messages do:

    python3 tools/cli_reports.py /path/to/old/src old-reports
    python3 tools/cli_reports.py src new-reports
    diff -r old-reports new-reports

The script exits 1 when an invocation exits 1 or prints a traceback: the
CLI maps every error it expects to one of the exit codes 2 to 5.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)


def invocations(path: str, witness: str, corrupted: str, member: str) -> dict[str, list[str]]:
    """The 16 invocations for one instance file, by report name."""
    emit = ["witness", path, "--mode", "emit", "--witness-path", witness]
    check = ["witness", path, "--mode", "check", "--witness-path", witness]
    bad = ["witness", path, "--mode", "check", "--witness-path", corrupted]
    return {
        "verify": ["verify", path],
        "verify-seed3": ["verify", path, "--seed", "3"],
        "verify-pretty": ["verify", path, "--pretty"],
        "approx": ["approx", path],
        "approx-backward": ["approx", path, "--direction", "backward"],
        "approx-pretty": ["approx", path, "--pretty"],
        "classify": ["classify", path],
        "classify-backward": ["classify", path, "--direction", "backward"],
        "classify-pretty": ["classify", path, "--pretty"],
        "witness-emit": emit,
        "witness-emit-pretty": [*emit, "--pretty"],
        "witness-check": check,
        "witness-check-pretty": [*check, "--pretty"],
        "witness-check-members": [*check, "--members", member],
        "witness-corrupted": bad,
        "witness-corrupted-pretty": [*bad, "--pretty"],
    }


def once_invocations(
    queried: str, free: str, broken: str, respelled: str, mixed: str, witness: str
) -> dict[str, list[str]]:
    """The 24 invocations run once, in order, by report name: the second
    and third write ``queried`` and ``free``, which later ones read,
    ``broken`` holds ``{not json``, ``respell`` writes ``respelled``,
    ``mix`` writes ``mixed``, ``witness-emit-file`` writes ``witness`` and
    ``edit_witness`` its edited copies, which the last five read."""
    edited = witness.removesuffix(".json")
    checks = {
        f"witness-check-{edit}": ["witness", queried, "--mode", "check",
                                  "--witness-path", f"{edited}-{edit}.json"]
        for edit in WITNESS_EDITS
    }
    return {
        "example3-beta": ["example", "example3", "--grid", "-2:2:1/2", "--beta", "1"],
        "example4-backward": ["example", "example4", "--grid", "0:4:1/2", "--alpha", "2/3",
                              "--beta", "3", "--direction", "backward", "--out", queried],
        "example4-no-queries": ["example", "example4", "--grid", "0:4:1/2", "--out", free],
        "classify-no-queries": ["classify", free],
        "classify-no-queries-backward-pretty": ["classify", free, "--direction", "backward",
                                                "--pretty"],
        "witness-emit-members": ["witness", queried, "--mode", "emit", "--members", "1"],
        "witness-check-no-path": ["witness", queried, "--mode", "check"],
        "approx-query-99": ["approx", queried, "--query", "99"],
        "approx-query-1_0": ["approx", queried, "--query", "1_0"],
        "example3-alpha": ["example", "example3", "--grid", "0:1:1", "--alpha", "2"],
        "example4-zero-step": ["example", "example4", "--grid", "0:1:0"],
        "verify-not-json": ["verify", broken],
        "verify-respelled": ["verify", respelled],
        "approx-respelled": ["approx", respelled],
        "witness-emit-respelled": ["witness", respelled, "--mode", "emit"],
        "verify-mixed": ["verify", mixed],
        "approx-mixed": ["approx", mixed],
        "witness-emit-mixed": ["witness", mixed, "--mode", "emit"],
        "witness-emit-file": ["witness", queried, "--mode", "emit", "--witness-path", witness],
        **checks,
    }


def respell(plain: Path, respelled: Path) -> None:
    """Copy an instance file with every table literal spelled another way
    for the same value: an integer as a JSON number, a fraction padded with
    spaces or, by turns, given a + sign."""
    doc = json.loads(plain.read_text())
    for i, (_, _, value) in enumerate(doc["metric"]["entries"]):
        value[:] = [
            int(c) if "/" not in c else f" {c} " if (i + k) % 2 or c[0] == "-" else f"+{c}"
            for k, c in enumerate(value)
        ]
    respelled.write_text(json.dumps(doc) + "\n")


def mix(plain: Path, mixed: Path) -> None:
    """Copy an instance file with the first literal of its last table entry,
    an integer, written as a JSON number, and every other literal as it is."""
    doc = json.loads(plain.read_text())
    value = doc["metric"]["entries"][-1][2]
    value[0] = int(value[0])
    mixed.write_text(json.dumps(doc) + "\n")


# One edit of a witness file for each check of its table against the
# instance: q, the query's point, an f label, an f vector's length and an
# entry for every point.
WITNESS_EDITS = {
    "q-not-a-point": lambda doc: doc.update(q="ghost"),
    "q-another-point": lambda doc: doc.update(q=doc["f"][0][0]),
    "f-label-not-a-point": lambda doc: doc["f"][1].__setitem__(0, "ghost"),
    "short-vector": lambda doc: doc["f"][2][1].pop(),
    "entry-deleted": lambda doc: doc["f"].pop(3),
}


def edit_witness(witness: Path) -> None:
    """Write one copy of a witness file for each of ``WITNESS_EDITS``,
    named after the file with the edit's name appended."""
    for edit, change in WITNESS_EDITS.items():
        doc = json.loads(witness.read_text())
        change(doc)
        witness.with_name(f"{witness.stem}-{edit}.json").write_text(json.dumps(doc, indent=2) + "\n")


def corrupt(witness: Path, corrupted: Path) -> None:
    """Copy a witness file with every coordinate of its middle entry set to -1."""
    doc = json.loads(witness.read_text())
    label, value = doc["f"][len(doc["f"]) // 2]
    doc["f"][len(doc["f"]) // 2] = [label, ["-1"] * len(value)]
    corrupted.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_reports.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, generate

    env = dict(os.environ, PYTHONPATH=str(src))
    broken = []

    def record(args: list[str], reports: Path, report: str) -> None:
        done = subprocess.run(
            [sys.executable, "-m", "quasicone.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        stderr = "".join(
            line for line in done.stderr.splitlines(keepends=True)
            if not line.startswith("elapsed:")
        )
        (reports / f"{report}.stdout").write_text(done.stdout)
        (reports / f"{report}.stderr").write_text(stderr)
        (reports / f"{report}.exit").write_text(f"{done.returncode}\n")
        if done.returncode == 1 or "Traceback" in stderr:
            broken.append(f"{reports.name}/{report}")

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            tag = f"{name}-{seed}"
            (out / "files" / tag).mkdir(parents=True, exist_ok=True)
            for spec, file in generate(workload, seed, out / "files" / tag):
                path = f"files/{tag}/{file.name}"
                witness = f"files/{tag}/{spec.name}.witness.json"
                corrupted = f"files/{tag}/{spec.name}.corrupted.json"
                member = json.loads(file.read_text())["queries"][0]["candidates"][0]
                reports = out / "reports" / f"{tag}-{spec.name}"
                reports.mkdir(parents=True, exist_ok=True)
                for report, args in invocations(path, witness, corrupted, member).items():
                    if report == "witness-corrupted":
                        corrupt(out / witness, out / corrupted)
                    record(args, reports, report)
    (out / "files" / "once").mkdir(parents=True, exist_ok=True)
    (out / "reports" / "once").mkdir(parents=True, exist_ok=True)
    (out / "files" / "once" / "broken.json").write_text("{not json")
    respell(out / "files" / "verify-dense-1" / "table30.json",
            out / "files" / "once" / "table30-respelled.json")
    mix(out / "files" / "verify-dense-1" / "table30.json",
        out / "files" / "once" / "table30-mixed.json")
    once = once_invocations(
        "files/once/example4.json", "files/once/no-queries.json", "files/once/broken.json",
        "files/once/table30-respelled.json", "files/once/table30-mixed.json",
        "files/once/example4.witness.json",
    )
    for report, args in once.items():
        record(args, out / "reports" / "once", report)
        if report == "witness-emit-file":
            edit_witness(out / "files" / "once" / "example4.witness.json")
    for report in broken:
        print(f"exit 1 or traceback: {report}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
