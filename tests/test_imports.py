"""The import contract: importing the package loads no submodule, each CLI
command loads only the modules it runs and never ``dataclasses`` or
``click``, every public name resolves, on first read, to the object in its
home module, no module that every command loads imports one that only
some commands use, and only the CLI program turns the cyclic garbage
collector off and freezes the heap at exit, so the interpreter's exit
pass walks nothing: ``main`` called without arguments, as ``python -m
quasicone.cli`` and the installed ``quasicone`` script call it. Importing
the CLI, or calling ``main`` with a list of arguments, leaves the
collector on and freezes nothing."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quasicone
from quasicone import approximation, metric
from helpers import invoke

SRC = Path(quasicone.__file__).parents[1]

# what every command loads to read an instance file
SHARED = {"cones", "errors", "files", "metric"}
# the modules that only some commands load
COMMAND_ONLY = {"approximation", "chebyshev", "cli", "pretty", "reports", "witnesses"}


def run_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``python ARGS`` on this tree's package,
    which must exit 0."""
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return result


def loaded_modules(*args: str, cwd: Path) -> set[str]:
    """The modules that a fresh interpreter imports to run ``python ARGS``,
    read from ``-X importtime``. ``python -m quasicone.cli`` runs the CLI
    module as ``__main__``, so it is never listed."""
    stderr = run_python("-X", "importtime", *args, cwd=cwd).stderr
    return set(re.findall(r"^import time:.*\|\s*([\w.]+)$", stderr, re.M))


def loaded_submodules(*args: str, cwd: Path) -> set[str]:
    """The quasicone submodules among ``loaded_modules(*args)``."""
    return {
        name.partition(".")[2] for name in loaded_modules(*args, cwd=cwd)
        if name.startswith("quasicone.")
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """An Example 4 file with one query, and its canonical witness file."""
    path = tmp_path_factory.mktemp("imports")
    for args in (
        ["example", "example4", "--grid", "0:4:1", "--beta", "2", "--out", str(path / "ex.json")],
        ["witness", str(path / "ex.json"), "--mode", "emit", "--witness-path", str(path / "w.json")],
    ):
        assert invoke(args).exit_code == 0
    return path


EMIT = ["witness", "ex.json", "--mode", "emit", "--witness-path", "emitted.json"]
CHECK = ["witness", "ex.json", "--mode", "check", "--witness-path", "w.json"]

# each command, with the modules it loads on top of SHARED
COMMANDS = {
    "verify": (["verify", "ex.json"], {"reports"}),
    "approx": (["approx", "ex.json"], {"approximation"}),
    "classify": (["classify", "ex.json"], {"chebyshev"}),
    "witness-emit": (EMIT, {"witnesses"}),
    "witness-check": (CHECK, {"witnesses"}),
    "example": (["example", "example3", "--grid", "0:2:1"], set()),
    "verify-pretty": (["verify", "ex.json", "--pretty"], {"reports", "pretty"}),
    "approx-pretty": (["approx", "ex.json", "--pretty"], {"approximation", "pretty"}),
    "classify-pretty": (["classify", "ex.json", "--pretty"], {"chebyshev", "pretty"}),
    "witness-emit-pretty": ([*EMIT, "--pretty"], {"witnesses", "pretty"}),
    "witness-check-pretty": ([*CHECK, "--pretty"], {"witnesses", "pretty"}),
}


@pytest.mark.parametrize("args,own", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_its_modules(workdir, args, own):
    assert loaded_submodules("-m", "quasicone.cli", *args, cwd=workdir) == SHARED | own


@pytest.mark.parametrize("args", [args for args, _ in COMMANDS.values()], ids=COMMANDS)
def test_no_command_loads_dataclasses(workdir, args):
    # the package's records define no generated methods, so importing
    # dataclasses (and copy, which it imports) would only cost start-up
    assert "dataclasses" not in loaded_modules("-m", "quasicone.cli", *args, cwd=workdir)


@pytest.mark.parametrize("args", [args for args, _ in COMMANDS.values()], ids=COMMANDS)
def test_no_command_loads_click(workdir, args):
    # the stdlib's argparse parses the command line; importing click would
    # only cost start-up
    assert "click" not in loaded_modules("-m", "quasicone.cli", *args, cwd=workdir)


def test_the_cli_program_runs_without_the_collector(workdir):
    # runpy runs the module as __main__, as `python -m quasicone.cli` does,
    # and the exit hook reads the collector after the command has exited;
    # main's own hook, registered later, has run first and frozen the heap
    out = run_python(
        "-c",
        "import atexit, gc, runpy, sys\n"
        "print('before:', gc.isenabled())\n"
        "atexit.register(lambda: print('at exit:', gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.argv = ['quasicone', 'approx', 'ex.json']\n"
        "runpy.run_module('quasicone.cli', run_name='__main__', alter_sys=True)\n",
        cwd=workdir,
    ).stdout
    assert out.startswith("before: True\n")
    assert out.endswith("at exit: False True\n")


def test_the_installed_script_runs_without_the_collector(workdir):
    # the [project.scripts] wrapper imports main and calls it with no
    # arguments, so main reads sys.argv
    out = run_python(
        "-c",
        "import atexit, gc, sys\n"
        "sys.argv = ['quasicone', 'approx', 'ex.json']\n"
        "from quasicone.cli import main\n"
        "print('before:', gc.isenabled())\n"
        "atexit.register(lambda: print('at exit:', gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.exit(main())\n",
        cwd=workdir,
    ).stdout
    assert out.startswith("before: True\n")
    assert out.endswith("at exit: False True\n")


def test_importing_the_cli_leaves_the_collector_on(workdir):
    # the exit hook, registered before main runs, would run after any hook
    # that main registered
    out = run_python(
        "-c",
        "import atexit, contextlib, gc, io\n"
        "atexit.register(lambda: print('at exit:', gc.get_freeze_count()))\n"
        "from quasicone.cli import main\n"
        "print(gc.isenabled())\n"
        "for args in (['approx', 'ex.json'], ['approx', 'ex.json', '--query', '9']):\n"
        "    code = 0\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(args)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, gc.isenabled())\n"
        "print(gc.get_freeze_count())\n",
        cwd=workdir,
    ).stdout
    assert out == "True\n0 True\n3 True\n0\nat exit: 0\n"


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
    # approximation imports the query names it uses from metric, and no
    # more: DIRECTIONS is read from metric only
    for name in ("Query", "FORWARD", "BACKWARD", "directed_distance"):
        assert getattr(approximation, name) is getattr(metric, name), name
    assert not hasattr(approximation, "DIRECTIONS")


def _runtime_imports(nodes):
    """The import statements among ``nodes`` and everything under them that
    run when the module runs: every one outside the body of an
    ``if TYPE_CHECKING:`` block, function bodies included."""
    for node in nodes:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _runtime_imports(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            yield from _runtime_imports(ast.iter_child_nodes(node))


def _package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The quasicone submodules that an import statement in the package names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        module = ".".join(filter(None, ["quasicone" if node.level else "", node.module]))
        dotted = [module, *(f"{module}.{alias.name}" for alias in node.names)]
    return {name.split(".")[1] for name in dotted if name.startswith("quasicone.")}


@pytest.mark.parametrize("module", sorted(SHARED))
def test_shared_modules_import_no_command_module(module):
    # a module that every command loads loads no module that only some
    # commands use, not even inside a function; type names may be imported
    # under TYPE_CHECKING, which never runs
    tree = ast.parse((SRC / "quasicone" / f"{module}.py").read_text(encoding="utf-8"))
    for node in _runtime_imports(tree.body):
        assert not _package_modules(node) & COMMAND_ONLY, f"{module}.py:{node.lineno}"
