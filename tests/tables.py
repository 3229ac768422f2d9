"""Group and crossed-module helpers that only tests use: a direct product
of finite groups, exact table equality of crossed modules, and the check
that a Hoang cocycle is zero at every argument."""

import itertools

from topsectors.fingrp import FiniteGroup


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    pairs = list(itertools.product(A.elements(), B.elements()))
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [index[(A.mul(a1, a2), B.mul(b1, b2))] for (a2, b2) in pairs]
        for (a1, b1) in pairs
    ]
    return FiniteGroup(table)


def crossed_modules_equal(a, b) -> bool:
    """Exact table equality (same element order)."""
    return (
        a.H.table == b.H.table
        and a.G.table == b.G.table
        and a.boundary == b.boundary
        and a.action == b.action
    )


def is_trivial_cocycle(data) -> bool:
    """Whether the HoangData ``data`` has beta = 0 everywhere."""
    return all(v == 0 for v in data.beta.values())
