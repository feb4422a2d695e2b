"""The import contract: importing the package loads no submodule, each CLI
command loads only the modules it runs, and every public name resolves,
on first read, to the object in its home module."""
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import quasicone
from quasicone import approximation, metric
from quasicone.cli import main

SRC = Path(quasicone.__file__).parents[1]

# what every command loads to read an instance file
SHARED = {"cones", "errors", "files", "metric", "reports"}


def loaded_submodules(*args: str, cwd: Path) -> set[str]:
    """The quasicone submodules that a fresh interpreter imports to run
    ``python ARGS``, read from ``-X importtime``. ``python -m quasicone.cli``
    runs the CLI module as ``__main__``, so it is never listed."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=60, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return set(re.findall(r"^import time:.*\|\s*quasicone\.(\w+)$", result.stderr, re.M))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """An Example 4 file with one query, and its canonical witness file."""
    path = tmp_path_factory.mktemp("imports")
    runner = CliRunner()
    for args in (
        ["example", "example4", "--grid", "0:4:1", "--beta", "2", "--out", str(path / "ex.json")],
        ["witness", str(path / "ex.json"), "--mode", "emit", "--witness-path", str(path / "w.json")],
    ):
        assert runner.invoke(main, args).exit_code == 0
    return path


@pytest.mark.parametrize(
    "args,own",
    [
        (["verify", "ex.json"], set()),
        (["approx", "ex.json"], {"approximation"}),
        (["classify", "ex.json"], {"approximation", "chebyshev"}),
        (["witness", "ex.json", "--mode", "emit", "--witness-path", "emitted.json"], {"witnesses"}),
        (["witness", "ex.json", "--mode", "check", "--witness-path", "w.json"], {"witnesses"}),
        (["example", "example3", "--grid", "0:2:1"], set()),
    ],
    ids=["verify", "approx", "classify", "witness-emit", "witness-check", "example"],
)
def test_each_command_loads_only_its_modules(workdir, args, own):
    assert loaded_submodules("-m", "quasicone.cli", *args, cwd=workdir) == SHARED | own


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded_submodules("-c", "import quasicone", cwd=tmp_path) == set()


def test_public_names_resolve_to_their_home_objects():
    star: dict = {}
    exec("from quasicone import *", star)
    star.pop("__builtins__")
    assert sorted(star) == quasicone.__all__ == dir(quasicone)
    for name in quasicone.__all__:
        home = quasicone._HOME[name]
        value = getattr(importlib.import_module(f"quasicone.{home}"), name)
        assert getattr(quasicone, name) is value, name
        assert star[name] is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"quasicone.{home}", name
    assert quasicone.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        quasicone.nothing


def test_query_names_are_the_same_objects_under_approximation():
    for name in ("Query", "FORWARD", "BACKWARD", "DIRECTIONS", "directed_distance"):
        assert getattr(approximation, name) is getattr(metric, name), name
