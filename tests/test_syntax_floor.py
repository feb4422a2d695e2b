"""Every Python file of the repository parses as Python 3.10, the oldest
version the package supports (``requires-python`` in ``pyproject.toml``).
This checks syntax only, not calls into newer parts of the standard
library."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    files = sorted(path for folder in ("src", "tests", "tools", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 20
    newer = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            newer.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert newer == []
