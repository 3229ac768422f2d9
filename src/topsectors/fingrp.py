"""Finite groups as multiplication tables over element indices 0..n-1.

Index 0 is always the identity.  This is desk-scale machinery: everything
is checked exhaustively (associativity included), so construction of a bad
table fails immediately.
"""

from __future__ import annotations

import itertools
import operator
from typing import Sequence

from .errors import InputError


class GroupTableError(InputError):
    pass


class FiniteGroup:
    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise GroupTableError("multiplication table must be square")
        if any(type(x) is not int or not (0 <= x < n) for row in self.table for x in row):
            raise GroupTableError(f"table entries must be integers in 0..{n - 1}")
        if n == 0:
            raise GroupTableError("empty group")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise GroupTableError("element 0 must be the identity")
        self.inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    self.inverse[i] = j
            if self.inverse[i] is None:
                raise GroupTableError(f"element {i} has no inverse")
        # (ab)c = a(bc) for every c: row ab is row b read through row a.
        # One element needs no check, and its itemgetter returns no tuple.
        through = [operator.itemgetter(*row) for row in self.table] if n > 1 else []
        for row_a in self.table:
            for b, row_b_of in enumerate(through):
                if self.table[row_a[b]] != row_b_of(row_a):
                    raise GroupTableError("table is not associative")

    # -- basic operations ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, h: int) -> int:
        return self.mul(self.mul(g, h), self.inv(g))

    @property
    def is_abelian(self) -> bool:
        n = len(self)
        return all(self.mul(a, b) == self.mul(b, a) for a in range(n) for b in range(n))

    def elements(self) -> range:
        return range(len(self))

    # -- subgroups and quotients -------------------------------------------------

    def is_normal(self, subgroup: frozenset[int]) -> bool:
        return all(self.conj(g, h) in subgroup for g in self.elements() for h in subgroup)

    def quotient(self, subgroup: frozenset[int]) -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup.

        Returns the coset group (the identity's coset, found first, is
        element 0) and the projection list element -> coset index.
        """
        if 0 not in subgroup:
            raise GroupTableError("subgroup must contain the identity")
        if not self.is_normal(subgroup):
            raise GroupTableError("subgroup is not normal")
        coset_of = [None] * len(self)
        reps: list[int] = []
        for a in self.elements():
            if coset_of[a] is not None:
                continue
            idx = len(reps)
            reps.append(a)
            for h in subgroup:
                coset_of[self.mul(a, h)] = idx
        table = [
            [coset_of[self.mul(reps[i], reps[j])] for j in range(len(reps))]
            for i in range(len(reps))
        ]
        return FiniteGroup(table), coset_of

    def subgroup_table(self, subgroup: frozenset[int]) -> tuple["FiniteGroup", list[int]]:
        """Restrict the table to a subgroup; returns it with the element list."""
        members = sorted(subgroup)
        if members[0] != 0:
            raise GroupTableError("subgroup must contain the identity")
        index = {g: i for i, g in enumerate(members)}
        table = [[index[self.mul(a, b)] for b in members] for a in members]
        return FiniteGroup(table), members


# -- constructions ----------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n letters (identity permutation first)."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(n))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table)
