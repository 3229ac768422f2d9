"""The package's shape: what each command loads, the names the package
exports, the exit code that each of its error classes gets, and the value
semantics of the record classes that callers compare."""

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
from topsectors.complexes import TriadLetter
from topsectors.dim3 import CupData, S2Sector, TensorLetter
from topsectors.errors import InputError, UnsupportedError
from topsectors.words import Alphabet, Word
from topsectors.xmod import ModuleXMod
from topsectors.zlinalg import AbelianGroup, IntMatrix

ROUTES = {"classify2d", "cohomology", "dim3", "xmod", "fingrp"}

# Stdlib modules that no command needs and that cost start-up time: the
# package's record classes are plain classes, not dataclasses, which would
# import both.
HEAVY_STDLIB = ("dataclasses", "inspect")

# Loads the CLI, runs one command, and prints the package modules and the
# HEAVY_STDLIB modules it loaded.
RUN_COMMAND = f"""
import json, sys
from topsectors.cli import main
code = main(sys.argv[1:])
heavy = [m for m in {HEAVY_STDLIB!r} if m in sys.modules]
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("topsectors.")), heavy]))
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
        (["crosscheck", "--source", "torus_knot:20000,3", "--target", "rp2"], {"dim3"}),
        (["classify", "--source", "torus3", "--target", "lens:7,1"], {"dim3"}),
    ],
    ids=["snf", "crosscheck-sphere2", "crosscheck-knot-rp2", "classify-lens"],
)
def test_each_command_loads_only_its_route(argv, unloaded):
    code, loaded, heavy = child(RUN_COMMAND, *argv)
    assert code == 0
    assert not short(loaded) & unloaded, sorted(short(loaded) & unloaded)
    assert heavy == [], heavy


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


E = Word.identity(Alphabet(["a"]))
RP2 = {"free_rank": 1, "torsion": (), "rank": 2, "action": (IntMatrix([[0, 1], [1, 0]]),)}


# (class, fields, one changed field, fields that equality ignores, hashable)
RECORDS = [
    (AbelianGroup, {"invariant_factors": (2, 0)}, {"invariant_factors": (0,)}, {}, True),
    (
        ModuleXMod,
        {**RP2, "boundary": IntMatrix([[2, 2]]), "name": "rp2"},
        {"boundary": IntMatrix([[0, 0]])},
        {"name": "other"},
        True,
    ),
    (
        TriadLetter,
        {"conj_f": E, "conj_h": ((E, "t", 1),), "cell": "t", "sign": 1},
        {"sign": -1},
        {},
        True,
    ),
    (TensorLetter, {"h": ((E, "t", 1),), "k": ((E, "u", -1),), "sign": 1}, {"k": ()}, {}, True),
    (
        CupData,
        {"h1_rank": 1, "h2": (0,), "h3": (0,), "cup": (((1,),),)},
        {"cup": (((2,),),)},
        {},
        True,
    ),
    (S2Sector, {"phi2": {"t": 1}, "group": AbelianGroup((0,))}, {"phi2": {"t": 2}}, {}, False),
]


@pytest.mark.parametrize(
    "cls,fields,changed,ignored,hashable", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_records_compare_by_value(cls, fields, changed, ignored, hashable):
    a, b = cls(**fields), cls(**{**fields, **ignored})
    assert a == b and not a != b
    assert a != cls(**{**fields, **changed})
    assert a != tuple(fields.values())
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
