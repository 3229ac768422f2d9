"""The benchmark's tracer wraps functions of the package by name; every name
it lists must still resolve, and its hooks must still find figures in what
those functions take and return, so that a renamed, deleted or reshaped
layer fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from topsectors import classify2d, zlinalg
from topsectors.complexes import catalog
from topsectors.xmod import target_catalog

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def holder_of(owner):
    module_name, _, class_name = owner.partition(".")
    holder = importlib.import_module("topsectors." + module_name)
    return getattr(holder, class_name) if class_name else holder


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTS]
    originals = {(owner, attr): getattr(holder_of(owner), attr) for owner, attr in names}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr in names:
            wrapped = getattr(holder_of(owner), attr)
            assert wrapped is not originals[owner, attr], f"{owner}.{attr} is not wrapped"
            assert wrapped.__wrapped__ is originals[owner, attr]
        for module_name, stdlib_name, attr, _ in tracing.LOCAL_SPANS:
            view = getattr(holder_of(module_name), stdlib_name)
            assert hasattr(getattr(view, attr), "__wrapped__"), f"{module_name}.{stdlib_name}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr in names:
        assert getattr(holder_of(owner), attr) is originals[owner, attr]


def test_hooks_still_read_results():
    # The hooks read the wrapped functions' arguments and results; a change
    # of what those hold would leave the counters at zero, not fail a run.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        zlinalg.smith_normal_form(zlinalg.IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
        classify2d.classify_free(catalog("torus2"), target_catalog("rp2"))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics("setup")
    for name in ("zlinalg.snf_calls", "zlinalg.max_rows", "zlinalg.max_entry_bits",
                 "zlinalg.intmatrix_built", "classify2d.sectors"):
        assert metrics[name] > 0, name
