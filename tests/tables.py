"""Group and crossed-module helpers that only tests use: a direct product
of finite groups, exact table equality of crossed modules, the check that
a Hoang cocycle is zero at every argument, two targets with a nontrivial
action on pi_2, and five actions of a finite cyclic or Z_2 x Z_2 pi_1."""

import itertools

from topsectors.fingrp import FiniteGroup
from topsectors.xmod import ModuleXMod
from topsectors.zlinalg import IntMatrix


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


# Z_4 rotating Z^2 by a quarter turn, with zero boundary.
Z4_ROTATION = ModuleXMod(
    free_rank=0,
    torsion=(4,),
    rank=2,
    action=(IntMatrix([[0, -1], [1, 0]]),),
    boundary=IntMatrix.zeros(1, 2),
)
# Z_2 x Z_2 acting on Z^2 by the swap and by -I, with zero boundary.
Z2Z2_SWAP_NEG = ModuleXMod(
    free_rank=0,
    torsion=(2, 2),
    rank=2,
    action=(IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, -1]])),
    boundary=IntMatrix.zeros(2, 2),
)
# (id, pi_1 invariant factors, one action matrix per pi_1 generator).
POINCARE_ACTIONS = [
    ("z4_minus", [4], [[[-1]]]),
    ("z2z2_flips", [2, 2], [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]]),
    ("z3_rotation", [3], [[[0, -1], [1, -1]]]),
    ("z4_quarter_turn", [4], [[[0, -1], [1, 0]]]),
    ("z5_trivial", [5], [[[1]]]),
]
