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
"""

from . import classify2d, cohomology, complexes, dim3, words, xmod, zlinalg
from .classify2d import classify_free
from .complexes import catalog
from .xmod import target_catalog

__all__ = ["catalog", "classify_free", "target_catalog"]

__version__ = "0.1.0"
