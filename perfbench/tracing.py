"""Spans and counters around the public layers of topsectors, installed from
outside the package.

Each traced function is replaced by a wrapper in every ``topsectors`` module
that holds a reference to it: ``from .zlinalg import solve`` binds the name at
import time, so rebinding only ``zlinalg.solve`` would miss the calls made
from ``classify2d`` and ``dim3``.  Methods are replaced on their class.
A stdlib function that one package module calls (``json.dumps`` in
``cli``) is wrapped in that module alone, through a copy of the stdlib
module bound to its name there.  Nothing under ``src/`` is edited.

Spans are kept in memory (name, phase, start, end, parent) and written out
by ``write``.  A layer's self time is its span's duration minus the time
covered by its child spans; the time the wrappers spend measuring matrix
sizes is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

_clock = time.perf_counter


def _note_matrices(tracer, matrices):
    for m in matrices:
        tracer.note_max("zlinalg.max_rows", m.rows)
        tracer.note_max("zlinalg.max_cols", m.cols)
        tracer.note_max("zlinalg.max_entry_bits", _max_bits(m.data))


def _max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _after_snf(tracer, args, result):
    _note_matrices(tracer, (args[0],) + tuple(result))


def _after_solve(tracer, args, result):
    _note_matrices(tracer, (args[0],))
    if result is not None:
        particular, kernel = result
        tracer.note_max("zlinalg.max_entry_bits", _max_bits([particular, *kernel]))


def _after_sectors(tracer, args, result):
    M, X = args[0], args[1]
    tracer.add("classify2d.sectors", len(result))
    if hasattr(X, "labels"):  # a TargetData; a raw target would need a new one
        tracer.add("classify2d.sector_candidates", len(X.labels()) ** len(M.alphabet.names))


def _after_fox(tracer, args, result):
    tracer.distinct[(tracer.phase, "words.fox")].add((args[0], args[1]))


# (owner, attribute, span name, hook run after a successful call).  The owner
# is a module of the package or "module.Class".  `_smith_with_inverses` is the
# one Smith reduction behind smith_normal_form, solve and every quotient.
SPANS = [
    ("complexes", "catalog", "complexes.build", None),
    ("classify2d", "pi1_sectors", "classify2d.enumerate", _after_sectors),
    ("classify2d", "hom_lattice", "classify2d.hom_lattice", None),
    ("classify2d", "homotopy_sublattice", "classify2d.homotopy_sublattice", None),
    ("classify2d", "sector_action_matrices", "classify2d.sector_action", None),
    ("classify2d.SectorResult", "orbit_of_class", "classify2d.orbit", None),
    ("words", "fox_derivative", "words.fox", _after_fox),
    ("zlinalg", "_smith_with_inverses", "zlinalg.snf", _after_snf),
    ("zlinalg", "solve", "zlinalg.solve", _after_solve),
    ("zlinalg", "quotient", "zlinalg.quotient", None),
    ("zlinalg", "quotient_with_representatives", "zlinalg.quotient", None),
    ("cohomology", "build_complex", "cohomology.build_complex", None),
    ("cohomology", "twisted_second_cohomology", "cohomology.h2", None),
    ("cohomology", "special_case_classify", "cohomology.special", None),
    ("dim3", "sector_group_s2", "dim3.sector", None),
    ("dim3", "xsq_hom_lattice", "dim3.xsq_hom_lattice", None),
    ("dim3", "pontrjagin_sector_group", "dim3.pontrjagin", None),
    # Rendering and writing the CLI's output.
    ("cli", "render_classification_text", "cli.render", None),
    ("cli", "render_s2_text", "cli.render", None),
    ("cli", "render_special_text", "cli.render", None),
    ("cli", "_emit", "cli.render", None),
]

# (package module, stdlib module it imported, function, span name): wrapped
# as that package module sees it, so that other callers are not traced.
LOCAL_SPANS = [
    ("cli", "json", "dumps", "cli.render"),
]

# Called too often for a span each: counted only.
COUNTS = [
    ("zlinalg.IntMatrix", "__init__", "zlinalg.intmatrix_built"),
    ("cohomology.CoefficientModule", "matrix_of_label", "cohomology.matrix_of_label_calls"),
    ("dim3", "cylinder_preset", "dim3.preset_lookups"),
]


class Tracer:
    """Wraps the layers listed in SPANS and COUNTS; every figure is kept per
    phase, the name the benchmark gives the stage it is running."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def add(self, key, n=1):
        self.counts[(self.phase, key)] += n

    def note_max(self, key, value):
        slot = (self.phase, key)
        if value > self.maxima[slot]:
            self.maxima[slot] = value

    def _span(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append([name, tracer.phase, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [index, 0.0]
            stack.append(frame)
            start = _clock()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = _clock()
                if after is not None:
                    after(tracer, args, result)
            finally:
                done = _clock()
                if end is None:
                    end = done
                stack.pop()
                span = tracer.spans[index]
                span[2], span[3] = start, end
                key = (span[1], name)
                tracer.calls[key] += 1
                tracer.self_s[key] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += done - start
            return result

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every listed layer of the ``topsectors`` package."""
        for owner, *_ in SPANS + COUNTS:
            importlib.import_module("topsectors." + owner.partition(".")[0])
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "topsectors" or n.startswith("topsectors."))
        ]
        for owner, attr, name, after in SPANS:
            self._replace(modules, owner, attr, lambda fn, n=name, a=after: self._span(n, fn, a))
        for owner, attr, key in COUNTS:
            self._replace(modules, owner, attr, lambda fn, k=key: self._counter(k, fn))
        for module_name, stdlib_name, attr, name in LOCAL_SPANS:
            module = sys.modules[f"topsectors.{module_name}"]
            original = getattr(module, stdlib_name)
            view = types.ModuleType(original.__name__)
            view.__dict__.update(vars(original))
            setattr(view, attr, self._span(name, getattr(original, attr), None))
            self._undo.append((module, stdlib_name, original))
            setattr(module, stdlib_name, view)

    def _replace(self, modules, owner, attr, make):
        module_name, _, class_name = owner.partition(".")
        module = sys.modules[f"topsectors.{module_name}"]
        if class_name:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, phase: str) -> dict:
        """Per-layer figures of one phase, keyed by metric name."""

        def busy(name):
            return self.self_s.get((phase, name), 0.0)

        def calls(name):
            return self.calls.get((phase, name), 0)

        def count(key):
            return self.counts.get((phase, key), 0)

        def peak(key):
            return self.maxima.get((phase, key), 0)

        sectors = count("classify2d.sectors")
        candidates = count("classify2d.sector_candidates")
        return {
            "complexes.build_s": busy("complexes.build"),
            "classify2d.sectors": sectors,
            "classify2d.sector_candidates": candidates,
            "classify2d.sector_yield": sectors / candidates if candidates else 0.0,
            "classify2d.hom_lattice_s": busy("classify2d.hom_lattice"),
            "classify2d.homotopy_sublattice_s": busy("classify2d.homotopy_sublattice"),
            "classify2d.sector_action_s": busy("classify2d.sector_action"),
            "classify2d.orbit_s": busy("classify2d.orbit"),
            "words.fox_calls": calls("words.fox"),
            "words.fox_distinct": len(self.distinct.get((phase, "words.fox"), ())),
            "words.fox_s": busy("words.fox"),
            "zlinalg.solve_calls": calls("zlinalg.solve"),
            "zlinalg.solve_s": busy("zlinalg.solve"),
            "zlinalg.snf_calls": calls("zlinalg.snf"),
            "zlinalg.snf_s": busy("zlinalg.snf"),
            "zlinalg.quotient_calls": calls("zlinalg.quotient"),
            "zlinalg.quotient_s": busy("zlinalg.quotient"),
            "zlinalg.max_rows": peak("zlinalg.max_rows"),
            "zlinalg.max_cols": peak("zlinalg.max_cols"),
            "zlinalg.max_entry_bits": peak("zlinalg.max_entry_bits"),
            "zlinalg.intmatrix_built": count("zlinalg.intmatrix_built"),
            "cohomology.build_complex_calls": calls("cohomology.build_complex"),
            "cohomology.build_complex_s": busy("cohomology.build_complex"),
            "cohomology.h2_s": busy("cohomology.h2"),
            "cohomology.special_s": busy("cohomology.special"),
            "cohomology.matrix_of_label_calls": count("cohomology.matrix_of_label_calls"),
            "dim3.sector_calls": calls("dim3.sector"),
            "dim3.sector_s": busy("dim3.sector"),
            "dim3.xsq_hom_lattice_calls": calls("dim3.xsq_hom_lattice"),
            "dim3.preset_lookups": count("dim3.preset_lookups"),
            "dim3.pontrjagin_s": busy("dim3.pontrjagin"),
            "cli.render_s": busy("cli.render"),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "phase", "start", "end", "parent"], "spans": self.spans}, fh)
