"""The package's shape: what each command loads, the names the package
exports, and the exit code that each of its error classes gets."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topsectors
from topsectors import cli
from topsectors.errors import InputError, UnsupportedError

ROUTES = {"classify2d", "cohomology", "dim3", "xmod", "fingrp"}

# Loads the CLI, runs one command, and prints the package modules it loaded.
RUN_COMMAND = """
import json, sys
from topsectors.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("topsectors."))]))
"""

# Imports the package, then reads one module through it.
IMPORT_PACKAGE = """
import json, sys
import topsectors
bare = sorted(m for m in sys.modules if m.startswith("topsectors."))
topsectors.zlinalg
print(json.dumps([bare, sorted(m for m in sys.modules if m.startswith("topsectors."))]))
"""


def child(script, *argv):
    """Run ``script`` in a fresh interpreter; returns its last line of JSON."""
    src = str(Path(topsectors.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def short(names):
    return {name.removeprefix("topsectors.") for name in names}


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["snf", "--matrix", "[[2,4],[6,8]]"], ROUTES),
        (["crosscheck", "--source", "torus3", "--target", "sphere2"], {"classify2d", "cohomology"}),
    ],
    ids=["snf", "crosscheck-sphere2"],
)
def test_each_command_loads_only_its_route(argv, unloaded):
    code, loaded = child(RUN_COMMAND, *argv)
    assert code == 0
    assert not short(loaded) & unloaded, sorted(short(loaded) & unloaded)


def test_package_exports_load_on_first_use():
    bare, after = child(IMPORT_PACKAGE)
    assert bare == []
    assert short(after) == {"errors", "zlinalg"}

    from topsectors import catalog, classify_free, target_catalog  # as the README shows

    assert (catalog, classify_free, target_catalog) == (
        topsectors.complexes.catalog,
        topsectors.classify2d.classify_free,
        topsectors.xmod.target_catalog,
    )
    for name in ("classify2d", "dim3", "zlinalg"):  # as the benchmark's setups read them
        assert getattr(topsectors, name) is importlib.import_module(f"topsectors.{name}")
    with pytest.raises(AttributeError):
        topsectors.no_such_name


# Errors that only a bug can raise: the CLI reports them as internal (exit 4).
INTERNAL_ERRORS = {"SublatticeError", "CoefficientError"}


def package_error_classes():
    for info in pkgutil.iter_modules(topsectors.__path__):
        module = importlib.import_module(f"topsectors.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == module.__name__:
                yield cls


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    classes = list(package_error_classes())
    assert INTERNAL_ERRORS <= {cls.__name__ for cls in classes}
    for cls in classes:
        if issubclass(cls, UnsupportedError):
            expected = cli.EXIT_UNSUPPORTED
        elif issubclass(cls, InputError):
            expected = cli.EXIT_INPUT
        else:
            assert cls.__name__ in INTERNAL_ERRORS, f"{cls.__name__} derives from neither base"
            expected = cli.EXIT_INTERNAL

        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_snf", fail)
        assert cli.main(["snf", "--matrix", "[[1]]"]) == expected, cls.__name__
        capsys.readouterr()
