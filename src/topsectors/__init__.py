"""Topological sectors of sigma models by combinatorial homotopy.

The package classifies based and free homotopy classes of maps from a
reduced CW complex into a target modeled by a crossed module (dimension 2)
or, for the 2-sphere target, a crossed square (dimension 3), reducing every
question to exact integer linear algebra.  Twisted cellular cohomology and
the cup-product formula for sphere targets serve as independent oracles.

Typical use::

    from topsectors import catalog, target_catalog, classify_free
    res = classify_free(catalog("torus2"), target_catalog("rp2"))
    for sector in res.sectors:
        print(sector.phi1, sector.based_group)

Everything else is reached through its module, e.g. ``topsectors.zlinalg``.
Each of these names and modules is imported on first use (PEP 562), so a
caller of one route loads no other.  Every error the package raises on
purpose is a ``topsectors.errors.InputError`` or ``UnsupportedError``.
"""

import importlib

__all__ = ["catalog", "classify_free", "target_catalog"]

__version__ = "0.1.0"

_HOMES = {"catalog": "complexes", "classify_free": "classify2d", "target_catalog": "xmod"}
_MODULES = "classify2d cohomology complexes dim3 errors fingrp words xmod zlinalg".split()


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
