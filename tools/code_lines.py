"""Count the package's code lines, in all and per CLI command.

    python3 tools/code_lines.py [SRC_DIR]

SRC_DIR is the ``src`` directory of the tree to count (default: this
tree's). A code line is a line with a token of code on it: blank lines,
comment lines and docstrings do not count. The script prints each module
of ``quasicone`` with its code lines and their total, then, for each CLI
command, the modules of ``quasicone`` that a fresh ``python -X importtime
-m quasicone.cli`` process loads to run it and the total of their code
lines. That total counts the package's ``__init__`` and ``cli`` itself,
which ``-X importtime`` does not list when ``cli`` runs as ``__main__``.
The commands run on an Example 4 file of five points with one query, and
its canonical witness, written in a temporary directory. The output
depends on the source tree only.
"""
from __future__ import annotations

import ast
import io
import os
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}

# report name -> arguments after `python -m quasicone.cli`, run in the
# directory that holds ex.json and w.json
COMMANDS = {
    "verify": ["verify", "ex.json"],
    "verify --pretty": ["verify", "ex.json", "--pretty"],
    "approx": ["approx", "ex.json"],
    "approx --pretty": ["approx", "ex.json", "--pretty"],
    "classify": ["classify", "ex.json"],
    "classify --pretty": ["classify", "ex.json", "--pretty"],
    "witness emit": ["witness", "ex.json", "--mode", "emit"],
    "witness check": ["witness", "ex.json", "--mode", "check", "--witness-path", "w.json"],
    "example": ["example", "example3", "--grid", "0:2:1"],
}


def code_lines(path: Path) -> int:
    """The lines of a Python file that hold code, not counting docstrings."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def run(src: Path, cwd: Path, *args: str) -> str:
    """Run ``python ARGS`` on the package in ``src`` and return its stderr;
    a nonzero exit stops the script."""
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    if result.returncode != 0:
        sys.exit(f"python {' '.join(args)} exited {result.returncode}:\n{result.stderr}")
    return result.stderr


def loaded_modules(src: Path, cwd: Path, args: list[str]) -> list[str]:
    """The modules of ``quasicone`` that one CLI run loads, ``__init__`` and
    ``cli`` included, in name order."""
    stderr = run(src, cwd, "-X", "importtime", "-m", "quasicone.cli", *args)
    found = re.findall(r"^import time:.*\|\s*quasicone(?:\.(\w+))?$", stderr, re.M)
    return sorted({name or "__init__" for name in found} | {"cli"})


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    package = src / "quasicone"
    lines = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, (*lines, *COMMANDS)))
    print("code lines per module")
    for name, count in lines.items():
        print(f"  {name:<{width}}  {count:5}")
    print(f"  {'total':<{width}}  {sum(lines.values()):5}")
    print("code lines loaded per command")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        run(src, cwd, "-m", "quasicone.cli", "example", "example4", "--grid", "0:4:1",
            "--beta", "2", "--out", "ex.json")
        run(src, cwd, "-m", "quasicone.cli", "witness", "ex.json", "--mode", "emit",
            "--witness-path", "w.json")
        for name, args in COMMANDS.items():
            modules = loaded_modules(src, cwd, args)
            total = sum(lines[module] for module in modules)
            print(f"  {name:<{width}}  {total:5}  {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
