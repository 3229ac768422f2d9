"""Homotopy classification of maps from a 2-complex into a crossed-module
target: homomorphisms form integer affine lattices, based homotopy is an
integer sublattice, and free classes are orbits of the fundamental group of
the target acting on the based classes.

Everything is sector-wise linear: within a sector (a homomorphism of
fundamental groups) the twisted action factors through the finite pi_1 of
the target, so the homotopy relation is the span of finitely many integer
directions and each sector's answer is one Smith normal form.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .complexes import CWComplex
from .errors import UnsupportedError
from .words import Run
from .xmod import ModuleXMod, XModError, _order, validate
from .zlinalg import (
    AbelianGroup,
    AffineLattice,
    IntMatrix,
    Lattice,
    LatticeQuotient,
    SmithSolver,
    quotient_with_representatives,
    solve,
)

Vector = tuple[int, ...]


class UnsupportedTargetError(UnsupportedError):
    """Target outside the supported family (e.g. infinite pi_1)."""


# ---------------------------------------------------------------------------
# Target bookkeeping
# ---------------------------------------------------------------------------


class TargetData:
    """Precomputed quotient machinery for a crossed-module target.

    pi_1 X = G / im(d) is computed as a lattice quotient of the coordinate
    space Z^k of G; labels are class coordinates, and every label lifts to a
    coordinate vector so the action can be evaluated on it.
    """

    def __init__(self, target: ModuleXMod):
        violations = validate(target)
        if violations:
            raise XModError("invalid target: " + "; ".join(violations))
        self.target = target
        k = target.num_g_generators
        self.k = k
        ambient = AffineLattice.from_solution(
            (0,) * k, [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
        )
        # The relations of pi_1 X on Z^k: torsion orders, then im(d);
        # kernel_basis and hom_lattice rely on this order.
        self.relations = tuple(target.torsion_relation_columns() + target.boundary.columns())
        self.pi1 = quotient_with_representatives(ambient, self.relations)

    def require_finite_pi1(self) -> None:
        if not self.pi1.group.is_finite:
            raise UnsupportedTargetError(
                f"pi_1 of the target is infinite ({self.pi1.group}); "
                "sector enumeration needs a finite fundamental group"
            )

    def labels(self) -> list[Vector]:
        return list(self.pi1.enumerate_class_coords())

    def lift_of_label(self, label: Sequence[int]) -> Vector:
        """A coordinate vector of G representing the pi_1 X label."""
        vec = [0] * self.k
        for c, g in zip(label, self.pi1.generator_vectors):
            for j in range(self.k):
                vec[j] += c * g[j]
        return tuple(vec)

    @functools.cached_property
    def rho(self) -> tuple[Vector, dict[Vector, IntMatrix]]:
        """The action on Z^r: the ``rho_table`` of the pi_1 X generators."""
        self.require_finite_pi1()
        matrices = [self.target.rho_of_coords(g) for g in self.pi1.generator_vectors]
        return rho_table(matrices, self.target.rank)

    @functools.cached_property
    def kernel_basis(self) -> tuple[Vector, ...]:
        """Basis of ker(d) = pi_2 X inside Z^rank."""
        n_tor = len(self.target.torsion)
        sol = solve(IntMatrix.from_columns(self.relations, height=self.k), (0,) * self.k)
        assert sol is not None
        _, kernel = sol
        return tuple(Lattice(self.target.rank, [vec[n_tor:] for vec in kernel]).basis())

    @functools.cached_property
    def pi2_action(self) -> tuple[IntMatrix, ...]:
        """The action of each pi_1 X generator on pi_2 X, as a matrix over
        ``kernel_basis``."""
        basis = self.kernel_basis
        lat = Lattice(self.target.rank, basis)
        matrices = []
        for gen_vec in self.pi1.generator_vectors:
            rho = self.target.rho_of_coords(gen_vec)
            cols = []
            for b in basis:
                coords = lat.coords_in_basis(rho.apply(b))
                if coords is None:
                    raise XModError("action does not preserve ker(d)")
                cols.append(coords)
            matrices.append(IntMatrix.from_columns(cols, height=len(basis)))
        return tuple(matrices)

    @functools.cached_property
    def pi2_rho(self) -> tuple[Vector, dict[Vector, IntMatrix]]:
        """The action on pi_2 X, over ``kernel_basis``, as a ``rho_table``."""
        self.require_finite_pi1()
        return rho_table(self.pi2_action, len(self.kernel_basis))


# ---------------------------------------------------------------------------
# Sectors and the coordinate layout
# ---------------------------------------------------------------------------


class HomLayout:
    """Coordinate layout of homomorphism vectors: one block of G-coordinates
    per 1-cell followed by one block of Z^r coordinates per 2-cell."""

    def __init__(self, generators: tuple[str, ...], k: int, two_cells: tuple[str, ...], r: int):
        self.generators = generators
        self.k = k
        self.two_cells = two_cells
        self.r = r

    @property
    def dim(self) -> int:
        return len(self.generators) * self.k + len(self.two_cells) * self.r

    def phi1_offset(self, gen: str) -> int:
        return self.generators.index(gen) * self.k

    def phi2_offset(self, cell: str) -> int:
        return len(self.generators) * self.k + self.two_cells.index(cell) * self.r

    def phi1(self, vec: Sequence[int], gen: str) -> Vector:
        off = self.phi1_offset(gen)
        return tuple(vec[off : off + self.k])

    def phi2(self, vec: Sequence[int], cell: str) -> Vector:
        off = self.phi2_offset(cell)
        return tuple(vec[off : off + self.r])

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "g_coords": self.k,
            "two_cells": list(self.two_cells),
            "pi2_rank": self.r,
        }


def layout_for(M: CWComplex, X: ModuleXMod) -> HomLayout:
    return HomLayout(
        generators=M.alphabet.names,
        k=X.num_g_generators,
        two_cells=M.two_cell_names(),
        r=X.rank,
    )


# ---------------------------------------------------------------------------
# Sector enumeration
# ---------------------------------------------------------------------------


def label_of_sums(
    factors: Sequence[int], images: Sequence[Sequence[int]], sums: Sequence[int]
) -> Vector:
    """The label, in an abelian pi_1 with the given invariant factors
    (0 = infinite), of a word with exponent sums ``sums`` over the 1-cells
    when the i-th 1-cell carries the label ``images[i]``: the combination
    sum_i sums[i] * images[i], reduced once at the end."""
    out = [0] * len(factors)
    for s, image in zip(sums, images):
        if s:
            for i, c in enumerate(image):
                out[i] += s * c
    return tuple(v % f if f else v for v, f in zip(out, factors))


def rho_table(matrices: Sequence[IntMatrix], rank: int) -> tuple[Vector, dict[Vector, IntMatrix]]:
    """The order o_i of each generator matrix m_i (``xmod._order``), and the
    action on Z^rank of every residue tuple c of Z_o1 x ... x Z_on: c acts by
    m_1^c_1 ... m_n^c_n, in that order, at most one matrix product an entry.
    A label of a group the m_i act through is read at its ``residues``."""
    orders = tuple(map(_order, matrices))
    table = {(): IntMatrix.identity(rank)}
    for o, m in zip(orders, matrices):
        grown = {}
        for label, rho in table.items():
            grown[label + (0,)] = rho
            for c in range(1, o):
                grown[label + (c,)] = rho = rho @ m
        table = grown
    return orders, table


def residues(label: Sequence[int], orders: Vector) -> Vector:
    """The key of a label in a ``rho_table``: its residues mod the orders."""
    return tuple(map(operator.mod, label, orders))


def labels_to_json(assignment: dict) -> dict:
    """A sector's labels in JSON: a bare integer for a cyclic pi_1, else a list."""
    return {g: (label[0] if len(label) == 1 else list(label)) for g, label in assignment.items()}


class Sectors:
    """The homomorphisms pi_1 M -> Z_f1 x ... x Z_fn (finite factors) as
    label assignments to the 1-cells, made afresh by each iteration and never
    held as a list.  Labels x in Z_f^n qualify iff H x = 0 mod f, for H a
    basis of R + f Z^n and R the relators' exponent sums.  Its Hermite form
    in reversed coordinates, lower triangular, counts and generates them."""

    def __init__(self, M: CWComplex, factors: Sequence[int]):
        self.M = M
        self.factors = factors
        n = len(M.alphabet)
        relators = [w.exponent_sums()[::-1] for _, w in M.two_cells]
        self._forms = []  # per factor, row g in the 1-cells' order: zero right of g
        for f in factors:  # R + f Z^n has full rank: its pivots are its diagonal
            lattice = Lattice(n, relators + [[f * (i == j) for j in range(n)] for i in range(n)])
            self._forms.append([row[::-1] for row in reversed(lattice.rows)])

    def __iter__(self) -> Iterator[dict]:
        """The assignments in lexicographic order, made as they are asked for
        by a mixed-radix counter, the last label coordinate fastest.  Row g of
        a form says h x_g = -s mod f, for h its pivot and s = sum_(c < g)
        H[g][c] x_c: x_g steps by f / h from (-s / h) mod (f / h), exact as
        the pivots' product is the count, and only a row with an entry left
        of its diagonal re-seats that offset after a step."""
        gens, factors, n = self.M.alphabet.names, tuple(self.factors), len(self.factors)
        radix = factors * len(gens)
        rows = [form[g] for g in range(len(gens)) for form in self._forms]  # position g * n + j
        steps = [f // row[p // n] for p, (f, row) in enumerate(zip(radix, rows))]
        twisted = [p for p, row in enumerate(rows) if any(row[: p // n])]
        digits, images = [0] * len(radix), [(0,) * n] * len(gens)
        while True:
            yield dict(zip(gens, images))
            for i in reversed(range(len(digits))):
                digits[i] += steps[i]
                if digits[i] < radix[i]:
                    break
                digits[i] = 0
            else:
                return
            for p in twisted:
                if p > i:  # a position that the step reset
                    row = rows[p]
                    s = sum(map(operator.mul, row[: p // n], digits[p % n :: n]))
                    digits[p] = -s // row[p // n] % steps[p]
            for g in range(i // n, len(gens)):  # the labels that the step changed
                images[g] = tuple(digits[g * n : g * n + n])

    def count(self) -> int:
        """The number of sectors, prod_f |Hom(H_1 M, Z_f)|, where |Hom(Z^n / R,
        Z_f)| = [Z^n : R + f Z^n], the product of the form's pivots."""
        return math.prod(row[g] for form in self._forms for g, row in enumerate(form))

    def __len__(self) -> int:
        return self.count()


def pi1_sectors(M: CWComplex, data: TargetData) -> Sectors:
    """All homomorphisms pi_1 M -> pi_1 X as label assignments to 1-cells."""
    data.require_finite_pi1()
    return Sectors(M, data.pi1.group.invariant_factors)


# ---------------------------------------------------------------------------
# The homomorphism lattice and the homotopy sublattice
# ---------------------------------------------------------------------------


class HomSystem:
    """The part of the homomorphism system that no sector changes, for one
    (M, X): the Smith reduction of its matrix, the HNF lattice of its kernel
    directions, and M's Fox table (``CWComplex.fox``).  A sector enters only
    through the lifted labels on the right-hand side and through the
    labelling of the Fox table."""

    def __init__(
        self, data: TargetData, layout: HomLayout, solver: SmithSolver,
        directions: Lattice, fox: dict[tuple[str, str], tuple[Run, ...]],
    ):
        self.data = data
        self.layout = layout
        self.solver = solver
        self.directions = directions
        self.fox = fox

    def lattice(self, sector: dict) -> Optional[AffineLattice]:
        """Affine lattice of all homomorphisms inducing the given sector, or
        None when the system has no integer solution (cannot happen for
        sectors from pi1_sectors)."""
        rhs: list[int] = []
        for gen in self.layout.generators:
            rhs.extend(self.data.lift_of_label(sector[gen]))
        rhs.extend([0] * (self.solver.rows - len(rhs)))
        particular = self.solver.particular(rhs)
        if particular is None:
            return None
        return AffineLattice(self.layout.dim, particular[: self.layout.dim], self.directions)


def hom_lattice(M: CWComplex, data: TargetData) -> HomSystem:
    """The homomorphism system of M into the target, reduced once.

    Unknowns are the phi1 coordinate blocks and phi2 vectors; auxiliary
    unknowns absorb the lift ambiguity of the sector labels and the torsion
    relations of G, then get projected away.  The rows are phi1(a) = lift
    of a's label, whose right-hand sides carry the sector, then
    d . phi2(t) = phi1(sigma_2(t)) per 2-cell, which do not depend on it.
    """
    target = data.target
    layout = layout_for(M, target)
    k, r = layout.k, layout.r
    n1, n2 = len(layout.generators), len(layout.two_cells)

    lift_cols = data.relations
    n_lift = len(lift_cols)
    n_tor = len(target.torsion)

    dim = layout.dim
    aux = n1 * n_lift + n2 * n_tor
    total = dim + aux
    rows: list[list[int]] = []

    # phi1(a) = lift(sector label) + combination of lift columns
    for gi, gen in enumerate(layout.generators):
        for coord in range(k):
            row = [0] * total
            row[layout.phi1_offset(gen) + coord] = 1
            for li, col in enumerate(lift_cols):
                row[dim + gi * n_lift + li] = -col[coord]
            rows.append(row)

    # d . phi2(t) - phi1(sigma_2(t)) = 0 in G (torsion slack per 2-cell)
    for ti, (cell, word) in enumerate(M.two_cells):
        sums = word.exponent_sums()
        for coord in range(k):
            row = [0] * total
            for j in range(r):
                row[layout.phi2_offset(cell) + j] = target.boundary.data[coord][j]
            for gen, s in zip(layout.generators, sums):
                row[layout.phi1_offset(gen) + coord] -= s
            for si, col in enumerate(lift_cols[:n_tor]):
                row[dim + n1 * n_lift + ti * n_tor + si] = col[coord]
            rows.append(row)

    solver = SmithSolver(IntMatrix(rows, cols=total))
    return HomSystem(
        data=data,
        layout=layout,
        solver=solver,
        directions=Lattice(dim, [vec[:dim] for vec in solver.kernel]),
        fox=M.fox,
    )


def labelled_sum(
    r: int,
    factors: Sequence[int],
    images: Sequence[Vector],
    terms: Sequence[Run],
    rho: Callable[[Vector], IntMatrix],
) -> list[list[int]]:
    """The r x r block, as plain rows, of an element of Z[Z^n] given as run
    terms (a Fox derivative or a triad's derivation image) through a sector
    whose 1-cells carry the labels ``images``: the sum of c * rho(label) over
    every key of every run.  Along a run of length n the label steps by the
    label of the run's 1-cell, so the labels repeat with that label's order
    f (Fox, 1953).  The walk stops when it comes back to its start, after at
    most min(n, |pi_1|) steps, and label i of the cycle is counted
    n // f + (i < n % f) times; a run of length 1 is one label and no walk.
    Equal labels are merged first, so rho is evaluated once per label that
    does not cancel.  Route 1, the oracle and the lens route all evaluate
    their twisted blocks here."""
    merged: dict[Vector, int] = {}
    for start, gen, n, c in terms:
        label = label_of_sums(factors, images, start)
        if n == 1:
            merged[label] = merged.get(label, 0) + c
            continue
        cycle = [label]
        while len(cycle) < n:
            label = label_of_sums(factors, (label, images[gen]), (1, 1))
            if label == cycle[0]:
                break
            cycle.append(label)
        q, rem = divmod(n, len(cycle))
        for i, label in enumerate(cycle):
            merged[label] = merged.get(label, 0) + c * (q + (i < rem))
    total = [[0] * r for _ in range(r)]
    for label, c in merged.items():
        if c:
            for row, m_row in zip(total, rho(label).data):
                for j, x in enumerate(m_row):
                    row[j] += c * x
    return total


def sector_action_matrices(system: HomSystem, sector: dict) -> dict[str, dict[str, list[list[int]]]]:
    """For each 2-cell t and 1-cell a, the rows of the Fox derivative
    d(sigma_2 t)/da evaluated through the sector's pi_1 X action."""
    layout = system.layout
    images = tuple(sector[gen] for gen in layout.generators)
    orders, table = system.data.rho
    return {
        cell: {
            gen: labelled_sum(layout.r, orders, images, system.fox[cell, gen], table.__getitem__)
            for gen in layout.generators
        }
        for cell in layout.two_cells
    }


def homotopy_sublattice(system: HomSystem, sector: dict) -> list[Vector]:
    """Directions spanned by based homotopies within a sector.

    A homotopy is a free derivation theta determined by theta(a) in Z^r per
    1-cell a; it moves phi1(a) by d(theta(a)) and phi2(t) by the Fox
    derivative of the attaching word evaluated through the sector.  Torsion
    coordinate shifts of phi1 (same element of G, different coordinates) are
    included so that coset equality means equality of based classes.
    """
    target = system.data.target
    layout = system.layout
    r = target.rank
    fox_matrices = sector_action_matrices(system, sector)

    directions: list[Vector] = []
    for gen in layout.generators:
        for p in range(r):
            vec = [0] * layout.dim
            col = target.boundary.column(p)
            off = layout.phi1_offset(gen)
            for coord in range(layout.k):
                vec[off + coord] = col[coord]
            for cell in layout.two_cells:
                off2 = layout.phi2_offset(cell)
                for j, row in enumerate(fox_matrices[cell][gen]):
                    vec[off2 + j] = row[p]
            directions.append(tuple(vec))
    for gen in layout.generators:
        for i, order in enumerate(target.torsion):
            vec = [0] * layout.dim
            vec[layout.phi1_offset(gen) + target.free_rank + i] = order
            directions.append(tuple(vec))
    return directions


# ---------------------------------------------------------------------------
# Sector classification
# ---------------------------------------------------------------------------


class SectorResult:
    """One sector's answer: the based class group, canonical representative
    vectors, and (in free mode) the orbit structure under pi_1 X."""

    def __init__(
        self, phi1: dict, quotient: LatticeQuotient, layout: HomLayout,
        target_data: TargetData, free: bool = False,
    ):
        self.phi1 = phi1
        self.quotient = quotient
        self.layout = layout
        self.target_data = target_data
        self.free = free

    @property
    def based_group(self) -> AbelianGroup:
        return self.quotient.group

    @property
    def is_finite(self) -> bool:
        return self.quotient.group.is_finite

    # -- the pi_1 X action on based classes ---------------------------------

    def act(self, label: Sequence[int], vec: Sequence[int]) -> Vector:
        """Move a homomorphism vector by a loop of the target: phi1 is fixed
        and every phi2 block is rotated by the action of the loop."""
        orders, table = self.target_data.rho
        return self._rotated(table[residues(label, orders)], vec)

    def _rotated(self, rho: IntMatrix, vec: Sequence[int]) -> Vector:
        """``vec`` with every phi2 block moved by the matrix ``rho``."""
        out = list(vec)
        for cell in self.layout.two_cells:
            off, r = self.layout.phi2_offset(cell), self.layout.r
            out[off : off + r] = rho.apply(tuple(vec[off : off + r]))
        return tuple(out)

    def free_equivalent(self, v1: Sequence[int], v2: Sequence[int]) -> bool:
        """Are two homomorphisms in the same free homotopy class?"""
        _, table = self.target_data.rho  # every loop acts by one of its matrices
        return any(self.quotient.same_class(self._rotated(rho, v1), v2) for rho in table.values())

    @functools.cached_property
    def loop_maps(self) -> list[tuple[Vector, list[Vector], Vector]]:
        """``(label, cols, shift)`` for every nonzero loop of the target: the
        loop moves the class with coordinates c to sum_j c_j cols[j] + shift,
        reduced modulo the class factors.  The action is affine on classes,
        so one image of the base class and one of each generator fix it."""
        quot = self.quotient
        base = quot.ambient.particular
        vectors = [base] + [tuple(b + x for b, x in zip(base, g)) for g in quot.generator_vectors]
        orders, table = self.target_data.rho
        maps = []
        for label in self.target_data.labels():
            if any(label):
                rho = table[residues(label, orders)]
                shift, *images = [quot.class_coords(self._rotated(rho, v)) for v in vectors]
                cols = [tuple(a - b for a, b in zip(image, shift)) for image in images]
                maps.append((label, cols, shift))
        return maps

    def orbit_of_class(self, coords: Sequence[int]) -> list[Vector]:
        """All class coordinates in the pi_1 X orbit of the given class."""
        factors = self.quotient.group.invariant_factors
        images = [coords] + [
            [s + sum(c * col[i] for c, col in zip(coords, cols)) for i, s in enumerate(shift)]
            for _, cols, shift in self.loop_maps
        ]
        return sorted({tuple(v % d if d else v for v, d in zip(image, factors)) for image in images})

    @functools.cached_property
    def free_orbits(self) -> Optional[list[list[int]]]:
        """The pi_1 X orbits of the classes, as sorted lists of indices into
        ``quotient.enumerate_class_coords()``, found on first read; None in
        based mode or for an infinite sector."""
        if not (self.free and self.is_finite):
            return None
        index = {c: i for i, c in enumerate(self.quotient.enumerate_class_coords())}
        orbits = {tuple(sorted(index[d] for d in self.orbit_of_class(c))) for c in index}
        return [list(orbit) for orbit in sorted(orbits)]

    def canonical_free_class(self, coords: Sequence[int]) -> Vector:
        """Deterministic orbit representative: the class whose canonical
        vector is lexicographically greatest in the orbit."""
        orbit = self.orbit_of_class(coords)
        return max(orbit, key=lambda c: self.quotient.representative(c))

    def to_json(self) -> dict:
        out = {
            "phi1": labels_to_json(self.phi1),
            "based_group": self.based_group.to_json(),
            "representatives": [list(v) for v in self.quotient.representatives()],
        }
        if not self.is_finite:
            out["free_generators"] = [list(v) for v in self.quotient.free_generator_vectors()]
        if self.free_orbits is not None:
            out["free_orbits"] = [list(o) for o in self.free_orbits]
        return out


class SectorClassification:
    """The full answer over all sectors of Hom(pi_1 M, pi_1 X)."""

    def __init__(
        self, source: str, target: str,
        mode: str,  # "based" | "free"
        layout: HomLayout, sectors: list[SectorResult],
    ):
        self.source = source
        self.target = target
        self.mode = mode
        self.layout = layout
        self.sectors = sectors

    @classmethod
    def of(cls, M: CWComplex, X: ModuleXMod, free: bool, sectors: Iterable[SectorResult] = ()):
        """The classification of maps M -> X with the given sectors; with
        none, the header that ``classify_sectors`` streams the sectors of."""
        sectors = list(sectors)
        for sector in sectors:  # every orbit pass here, after the last quotient
            sector.free_orbits
        mode = "free" if free else "based"
        return cls(M.name or "complex", X.name or "target", mode, layout_for(M, X), sectors)

    def total_free_classes(self) -> Optional[int]:
        """Number of free classes when every sector is finite, else None."""
        return functools.reduce(add_free_classes, self.sectors, 0)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "mode": self.mode,
            "layout": self.layout.to_json(),
            "sectors": [s.to_json() for s in self.sectors],
        }


def add_free_classes(total: Optional[int], sector: SectorResult) -> Optional[int]:
    """A running count of free classes after one more sector: None from the
    first sector with no orbit list (an infinite one, or any in based mode)."""
    if total is None or sector.free_orbits is None:
        return None
    return total + len(sector.free_orbits)


def classify_sectors(M: CWComplex, X: ModuleXMod, free: bool = False) -> Iterator[SectorResult]:
    """Each sector's answer in sector order: its based classes, and in free
    mode the pi_1 X orbits of a finite sector's classes, found when
    ``free_orbits`` is first read.  The caller may drop each sector before
    asking for the next.

    Requires M of dimension <= 2 and finite pi_1 of the target.  Since G is
    abelian, conjugation on sectors is trivial and each orbit stays inside
    its sector.
    """
    if M.three_cells:
        raise ValueError("classify_sectors needs a complex of dimension <= 2")
    data = TargetData(X)
    data.require_finite_pi1()
    system = hom_lattice(M, data)
    for assignment in pi1_sectors(M, data):
        lattice = system.lattice(assignment)
        if lattice is None:
            raise AssertionError("enumerated sector has no homomorphisms")
        quot = quotient_with_representatives(lattice, homotopy_sublattice(system, assignment))
        yield SectorResult(assignment, quot, system.layout, data, free)


def classify_based(M: CWComplex, X: ModuleXMod) -> SectorClassification:
    """Based homotopy classes sector by sector (``classify_sectors``)."""
    return SectorClassification.of(M, X, False, classify_sectors(M, X))


def classify_free(M: CWComplex, X: ModuleXMod) -> SectorClassification:
    """Free homotopy classes: the pi_1 X orbits of the based classes
    (``classify_sectors``)."""
    return SectorClassification.of(M, X, True, classify_sectors(M, X, free=True))
