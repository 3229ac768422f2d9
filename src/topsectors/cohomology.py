"""Twisted cellular cohomology via Fox calculus.

The cochain complex of a reduced complex with local coefficients twisted by
a sector map has differentials built from exact integer data: d0 blocks are
rho(phi1(a)) - 1, d1 blocks evaluate Fox derivatives of the attaching words,
and d2 blocks evaluate the derivation image of the triad words.  The twist
factors through Z_o1 x ... x Z_on, o_i the order of the i-th generator's
action matrix, so a word matters only through its exponent sums and a label
only through its residues mod the o_i: ``build_complex`` reduces each
1-cell's label once, reads the action in the ``classify2d.rho_table`` built
once per target or per ``special_case_sectors`` call, and evaluates the d1
and d2 blocks by ``classify2d.labelled_sum``, as route 1 does.  The lens
route builds one complex per tuple of residues, the 2-d oracle one per
sector.  The Fox derivatives and derivation images are the complex's own
(``CWComplex.fox`` and ``CWComplex.triad_images``), shared with route 1 as
data only: each route assembles its own differentials.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

from .classify2d import Sectors, TargetData, labelled_sum, labels_to_json, residues, rho_table
from .complexes import CWComplex
from .xmod import action_violations
from .zlinalg import AbelianGroup, IntMatrix, json_int, quotient


class CoefficientError(Exception):
    pass


class CoefficientModule:
    """Z^rank as a module over pi_1 of the source, through a sector map.

    ``rho`` maps each label of Z_f1 x ... x Z_fn (f = ``factors``), an
    abelian group the action factors through, to its matrix: on both routes
    a ``classify2d.rho_table`` and its orders.  ``sector`` labels every
    1-cell in a group mapping onto that one, such as pi_1 of the target;
    ``build_complex`` reads those labels at their residues mod f.

    The action does not depend on the sector, so it is checked and tabulated
    once where it enters: ``special_case_sectors`` checks the matrices it is
    given with ``xmod.action_violations``, the one check of commuting,
    order-respecting matrices, and ``for_target_sector`` reads
    ``TargetData.pi2_rho`` of a target that ``xmod.validate`` checks alike.
    """

    def __init__(
        self, rank: int, factors: tuple[int, ...],
        rho: dict[tuple[int, ...], IntMatrix], sector: dict,
    ):
        self.rank = rank
        self.factors = factors
        self.rho = rho
        self.sector = sector

    @staticmethod
    def for_target_sector(data: TargetData, sector: dict) -> "CoefficientModule":
        """Coefficients pi_2 X = ker(d) with the action induced by the sector."""
        return CoefficientModule(len(data.kernel_basis), *data.pi2_rho, dict(sector))

    def matrix_of_label(self, label: Sequence[int]) -> IntMatrix:
        return self.rho[tuple(label)]


def _check_action(rank: int, factors: Sequence[int], matrices: object) -> None:
    """Raise CoefficientError unless ``matrices`` is a sequence of one
    rank x rank IntMatrix per pi_1 generator that defines an action of the
    pi_1, by ``xmod.action_violations``: the check that ``validate`` makes
    of a target's action, so both name the first violation alike."""
    if not isinstance(matrices, Sequence) or not all(isinstance(m, IntMatrix) for m in matrices):
        raise CoefficientError(f"pi_d_action must be a sequence of IntMatrix, got {matrices!r}")
    if len(matrices) != len(factors):
        raise CoefficientError("need one action matrix per pi_1 generator")
    if any(m.shape != (rank, rank) for m in matrices):
        raise CoefficientError("action matrix of wrong shape")
    if violations := action_violations(matrices, factors):
        raise CoefficientError(violations[0])


class CochainComplex:
    """Integer differentials d0: C^0 -> C^1, d1: C^1 -> C^2, d2: C^2 -> C^3;
    d1 d0 = 0 and d2 d1 = 0 hold exactly (asserted on construction)."""

    def __init__(self, d0: IntMatrix, d1: IntMatrix, d2: IntMatrix):
        self.d0 = d0
        self.d1 = d1
        self.d2 = d2


def build_complex(M: CWComplex, coeffs: CoefficientModule) -> CochainComplex:
    """Cellular cochain complex of M with the given local coefficients: M's
    Fox table and triad images, labelled through the module's sector and
    evaluated through its action."""
    gens, cells = M.alphabet.names, M.two_cell_names()
    r, factors, rho = coeffs.rank, coeffs.factors, coeffs.matrix_of_label
    images = tuple(residues(coeffs.sector[gen], factors) for gen in gens)

    def twisted(terms: dict) -> list[list[int]]:
        return labelled_sum(r, factors, images, terms, rho)

    d0 = IntMatrix(
        [
            [x - (i == j) for j, x in enumerate(row)]
            for image in images
            for i, row in enumerate(rho(image).data)
        ],
        cols=r,
    )
    d1 = _stack([[twisted(M.fox[c, gen]) for gen in gens] for c in cells], r, len(gens) * r)
    triads = M.triad_images.values()
    d2 = _stack([[twisted(image[c]) for c in cells] for image in triads], r, len(cells) * r)
    if d0.rows and d1.rows and any(map(any, (d1 @ d0).data)):
        raise AssertionError("d1 . d0 != 0: labeling is inconsistent")
    if d1.rows and d2.rows and any(map(any, (d2 @ d1).data)):
        raise AssertionError("d2 . d1 != 0: labeling is inconsistent")
    return CochainComplex(d0=d0, d1=d1, d2=d2)


def _stack(block_rows: list[list[list[list[int]]]], r: int, cols: int) -> IntMatrix:
    """The matrix whose rows of r x r blocks (lists of rows) are ``block_rows``."""
    return IntMatrix(
        [[x for block in blocks for x in block[i]] for blocks in block_rows for i in range(r)],
        cols=cols,
    )


def twisted_second_cohomology(M: CWComplex, coeffs: CoefficientModule) -> AbelianGroup:
    """H^2 of a 2-complex with local coefficients: coker(d1)."""
    if M.three_cells:
        raise ValueError("twisted_second_cohomology needs a complex without 3-cells")
    return quotient(len(M.two_cells) * coeffs.rank, build_complex(M, coeffs).d1.columns())


# ---------------------------------------------------------------------------
# Special-case dimension-3 classification (vanishing intermediate homotopy)
# ---------------------------------------------------------------------------


class SpecialSector:
    def __init__(self, phi1: dict, group: AbelianGroup):
        self.phi1 = phi1
        self.group = group

    def to_json(self) -> dict:
        return {"phi1": labels_to_json(self.phi1), "group": self.group.to_json()}


class SpecialCaseResult:
    """Per-sector top cohomology groups for a target with pi_i = 0 below the
    top dimension; free classes follow the action on the coefficients.  With
    no sectors, the header of ``special_case_sectors``' stream."""

    def __init__(
        self, pi1_factors: tuple[int, ...], sectors: list[SpecialSector],
        action_is_trivial: bool, sector_count: int,
    ):
        self.pi1_factors = pi1_factors
        self.sectors = sectors
        self.action_is_trivial = action_is_trivial
        self.sector_count = sector_count

    def to_json(self) -> dict:
        return {
            "pi1": list(self.pi1_factors),
            "action_trivial": self.action_is_trivial,
            "sectors": [s.to_json() for s in self.sectors],
        }


def special_case_sectors(
    M: CWComplex, pi1_factors: Sequence[int], pi_d_rank: int,
    pi_d_action: Sequence[IntMatrix] | None = None,
) -> tuple[SpecialCaseResult, Iterator[SpecialSector]]:
    """Classes of maps from a 3-complex into a target whose only homotopy in
    range is pi_1 (finite, given by invariant factors) and pi_3 (free of the
    given rank, with an optional action matrix per pi_1 generator): the
    header, and each sector as it is found, with H^3 = coker(d2) twisted.
    A sector enters d0, d1 and d2 only through rho of its labels, which
    reads them modulo the orders of the action matrices (``rho_table``), so
    sectors with equal residues share one complex and one quotient.
    """
    if not M.three_cells:
        raise ValueError("special_case_classify needs a complex with 3-cells")
    if not isinstance(pi1_factors, Sequence):
        raise ValueError(f"pi1_factors must be a sequence of integers, got {pi1_factors!r}")
    factors = tuple(map(json_int, pi1_factors))
    if any(f < 2 for f in factors):
        raise ValueError("pi_1 invariant factors must be >= 2")
    rank = json_int(pi_d_rank)
    if rank < 0:
        raise ValueError(f"pi_d rank must be >= 0, got {rank}")
    matrices = (IntMatrix.identity(rank),) * len(factors) if pi_d_action is None else pi_d_action
    _check_action(rank, factors, matrices)
    orders, rho = rho_table(matrices, rank)
    sectors = Sectors(M, factors)

    @functools.cache
    def group(key: tuple) -> AbelianGroup:
        coeffs = CoefficientModule(rank, orders, rho, dict(zip(M.alphabet.names, key)))
        return quotient(len(M.three_cells) * rank, build_complex(M, coeffs).d2.columns())

    header = SpecialCaseResult(factors, [], len(rho) == 1, sectors.count())
    return header, (
        SpecialSector(a, group(tuple(residues(c, orders) for c in a.values())))
        for a in sectors
    )


def special_case_classify(
    M: CWComplex, pi1_factors: Sequence[int], pi_d_rank: int,
    pi_d_action: Sequence[IntMatrix] | None = None,
) -> SpecialCaseResult:
    """The classification with every sector (``special_case_sectors``)."""
    header, sectors = special_case_sectors(M, pi1_factors, pi_d_rank, pi_d_action)
    header.sectors = list(sectors)
    return header
