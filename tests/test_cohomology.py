import json

import pytest

from topsectors import cohomology, complexes
from topsectors.classify2d import (
    TargetData,
    UnsupportedTargetError,
    classify_based,
    label_sectors,
    pi1_sectors,
    rho_table,
)
from topsectors.cohomology import (
    CoefficientError,
    CoefficientModule,
    build_complex,
    special_case_classify,
    special_case_sectors,
    twisted_second_cohomology,
)
from topsectors.complexes import CWComplex, TriadLetter, catalog, loads
from topsectors.dim3 import phi2_boundary
from topsectors.words import Alphabet, Word
from topsectors.xmod import ModuleXMod, target_catalog, validate
from topsectors.zlinalg import AbelianGroup, IntMatrix, quotient

RP2 = target_catalog("rp2")
# A 3-complex with relator a^2, so that Z_4 keeps only a = 0, 2.
RP3 = loads(
    '{"generators": ["a"], "two_cells": [{"name": "t", "attach": "a^2"}],'
    ' "three_cells": [{"name": "x", "attach": ['
    '{"f": "", "h": [], "cell": "t", "sign": 1},'
    ' {"f": "a", "h": [], "cell": "t", "sign": -1}]}]}'
)
MINUS = IntMatrix([[-1]])
QUARTER_TURN = IntMatrix([[0, -1], [1, 0]])


def untwisted(M, rank=1):
    """Z^rank with the trivial action, in the one sector of trivial labels."""
    return CoefficientModule(
        rank=rank,
        factors=(),
        rho={(): IntMatrix.identity(rank)},
        sector={g: () for g in M.alphabet.names},
    )


class TestCochainComplex:
    def test_dd_zero_everywhere(self):
        data = TargetData(RP2)
        spaces = [
            catalog("torus2"),
            catalog("rp2"),
            catalog("klein_bottle"),
            catalog("genus_surface", g=2),
            catalog("torus_knot", p=3, q=2),
            catalog("s1_wedge_s2"),
            catalog("sphere2"),
        ]
        for M in spaces:
            for sector in pi1_sectors(M, data):
                coeffs = CoefficientModule.for_target_sector(data, sector)
                cx = build_complex(M, coeffs)  # raises when d.d != 0
                if cx.d1.rows and cx.d0.rows:
                    assert cx.d1 @ cx.d0 == IntMatrix.zeros(cx.d1.rows, cx.d0.cols)

    def test_dd_zero_with_three_cells(self):
        for name in ("torus3", "s1_x_s2"):
            M = catalog(name)
            coeffs = untwisted(M)
            cx = build_complex(M, coeffs)
            if cx.d2.rows and cx.d1.rows:
                assert cx.d2 @ cx.d1 == IntMatrix.zeros(cx.d2.rows, cx.d1.cols)

    def test_infinite_pi1_has_no_table(self):
        # The action is tabulated per label, so an infinite pi_1 is refused
        # rather than given a truncated table.
        data = TargetData(target_catalog("trivial", r=1, k=1))
        with pytest.raises(UnsupportedTargetError):
            CoefficientModule.for_target_sector(data, {"a": (1,)})

    def test_torus2_trivial_sector_d1_vanishes(self):
        M = catalog("torus2")
        data = TargetData(RP2)
        coeffs = CoefficientModule.for_target_sector(data, {"a": (0,), "b": (0,)})
        cx = build_complex(M, coeffs)
        assert cx.d1 == IntMatrix.zeros(1, 2)


class TestUntwistedSanity:
    def test_ordinary_h2(self):
        # H^2 with integer coefficients of the closed surfaces
        assert twisted_second_cohomology(catalog("torus2"), untwisted(catalog("torus2"))) == AbelianGroup((0,))
        for g in (1, 2, 3):
            M = catalog("genus_surface", g=g)
            assert twisted_second_cohomology(M, untwisted(M)) == AbelianGroup((0,))
        M = catalog("rp2")
        assert twisted_second_cohomology(M, untwisted(M)) == AbelianGroup((2,))
        M = catalog("sphere2")
        assert twisted_second_cohomology(M, untwisted(M)) == AbelianGroup((0,))

    def test_klein_bottle_untwisted(self):
        M = catalog("klein_bottle")
        assert twisted_second_cohomology(M, untwisted(M)) == AbelianGroup((2,))


class TestTwistedValues:
    def test_torus2_sectors(self):
        M = catalog("torus2")
        data = TargetData(RP2)
        expected = {
            (0, 0): AbelianGroup((0,)),
            (1, 0): AbelianGroup((2,)),
            (0, 1): AbelianGroup((2,)),
            (1, 1): AbelianGroup((2,)),
        }
        for sector in pi1_sectors(M, data):
            coeffs = CoefficientModule.for_target_sector(data, sector)
            key = (sector["a"][0], sector["b"][0])
            assert twisted_second_cohomology(M, coeffs) == expected[key]

    def test_rp2_sectors(self):
        M = catalog("rp2")
        data = TargetData(RP2)
        values = {}
        for sector in pi1_sectors(M, data):
            coeffs = CoefficientModule.for_target_sector(data, sector)
            values[sector["a"][0]] = twisted_second_cohomology(M, coeffs)
        assert values == {0: AbelianGroup((2,)), 1: AbelianGroup((0,))}

    def test_klein_bottle_sectors(self):
        M = catalog("klein_bottle")
        data = TargetData(RP2)
        values = {}
        for sector in pi1_sectors(M, data):
            coeffs = CoefficientModule.for_target_sector(data, sector)
            values[(sector["a"][0], sector["b"][0])] = twisted_second_cohomology(
                M, coeffs
            )
        assert values == {
            (0, 0): AbelianGroup((2,)),
            (0, 1): AbelianGroup((2,)),
            (1, 0): AbelianGroup((2,)),
            (1, 1): AbelianGroup((0,)),
        }


class TestOracleEquivalence:
    def test_classification_matches_cohomology(self):
        data = TargetData(RP2)
        spaces = [
            catalog("torus2"),
            catalog("rp2"),
            catalog("klein_bottle"),
            catalog("genus_surface", g=2),
            catalog("torus_knot", p=2, q=3),
            catalog("torus_knot", p=3, q=3),
            catalog("torus_knot", p=4, q=6),
            catalog("s1_wedge_s2"),
            catalog("sphere2"),
        ]
        for M in spaces:
            res = classify_based(M, RP2)
            for sector in res.sectors:
                coeffs = CoefficientModule.for_target_sector(data, sector.phi1)
                assert twisted_second_cohomology(M, coeffs) == sector.based_group

    def test_one_fox_table_per_complex(self, monkeypatch):
        # Route 1 and the oracle over all 16 sectors read the same table of
        # the complex: one derivative per (2-cell, 1-cell), 4 in all.
        derivatives = []
        fox = complexes.fox_derivative

        def counted_fox(word, gen):
            derivatives.append((word, gen))
            return fox(word, gen)

        monkeypatch.setattr(complexes, "fox_derivative", counted_fox)
        M = catalog("genus_surface", g=2)
        data = TargetData(RP2)
        res = classify_based(M, RP2)
        assert len(res.sectors) == 16
        for sector in res.sectors:
            coeffs = CoefficientModule.for_target_sector(data, sector.phi1)
            assert twisted_second_cohomology(M, coeffs) == sector.based_group
        assert len(derivatives) == 4


class TestSpecialCase:
    def test_lens_targets(self):
        T = catalog("torus3")
        for p in (2, 3, 5):
            res = special_case_classify(T, [p], 1)
            assert len(res.sectors) == p**3
            assert all(s.group == AbelianGroup((0,)) for s in res.sectors)
            assert res.action_is_trivial

    def test_so3(self):
        res = special_case_classify(catalog("torus3"), [2], 1)
        assert len(res.sectors) == 8
        assert all(s.group == AbelianGroup((0,)) for s in res.sectors)

    def test_simply_connected_target(self):
        # pi_1 = 1, pi_3 = Z: a single sector worth Z
        res = special_case_classify(catalog("torus3"), [], 1)
        assert len(res.sectors) == 1
        assert res.sectors[0].group == AbelianGroup((0,))

    def test_s1_x_s2_source(self):
        res = special_case_classify(catalog("s1_x_s2"), [2], 1)
        assert len(res.sectors) == 2
        assert all(s.group == AbelianGroup((0,)) for s in res.sectors)

    def test_sectors_match_pi1_sectors(self):
        for M, factors in ((RP3, (4,)), (catalog("torus3"), (2, 2)), (catalog("s1_x_s2"), (3,))):
            # a target whose pi_1 has the same invariant factors
            X = ModuleXMod(
                free_rank=0,
                torsion=factors,
                rank=1,
                action=tuple(IntMatrix.identity(1) for _ in factors),
                boundary=IntMatrix.zeros(len(factors), 1),
            )
            res = special_case_classify(M, factors, 1)
            assert [s.phi1 for s in res.sectors] == pi1_sectors(M, TargetData(X))
        assert [s.phi1 for s in special_case_classify(RP3, [4], 1).sectors] == [
            {"a": (0,)},
            {"a": (2,)},
        ]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_sector_is_untwisted_h3(self, p):
        # pi_1 = Z_p acts trivially on pi_3 = Z, so each sector's group is
        # H^3(M; Z) = Z^{3-cells} / span of one row per 2-cell t, the signed
        # counts of t in the boundaries of the 3-cells.
        e = Word.identity(Alphabet([]))
        moore = CWComplex([], [("t", "")], [("x", [TriadLetter(e, (), "t", 1)] * 2)])
        for M, expected in ((catalog("torus3"), "Z"), (catalog("s1_x_s2"), "Z"), (moore, "Z_2")):
            counts = [phi2_boundary(M, triad) for _, triad in M.three_cells]
            h3 = quotient(len(counts), [[c.get(t, 0) for c in counts] for t in M.two_cell_names()])
            assert str(h3) == expected
            res = special_case_classify(M, [p], 1)
            assert res.sectors and all(s.group == h3 for s in res.sectors)

    @pytest.mark.parametrize(
        "name, factors, rank, action",
        [
            ("torus3", [7], 1, None),
            ("torus3", [2, 2], 1, None),
            ("s1_x_s2", [3], 1, None),
            ("rp3", [4], 1, None),
            ("torus3", [4], 1, [MINUS]),
            ("torus3", [6], 1, [MINUS]),
            ("s1_x_s2", [4], 2, [QUARTER_TURN]),
        ],
    )
    def test_keyed_groups_match_per_sector_rebuild(self, name, factors, rank, action):
        # Sectors whose labels act alike share one complex; each sector's
        # own complex and quotient must give the same group.
        M = RP3 if name == "rp3" else catalog(name)
        matrices = action or [IntMatrix.identity(rank)] * len(factors)
        rho = rho_table(factors, matrices, rank)
        expected = []
        for sector in label_sectors(M, factors):
            cx = build_complex(M, CoefficientModule(rank, tuple(factors), rho, sector))
            expected.append((sector, quotient(len(M.three_cells) * rank, cx.d2.columns())))
        res = special_case_classify(M, factors, rank, action)
        assert [(s.phi1, s.group) for s in res.sectors] == expected
        assert res.action_is_trivial == (action is None)

    @pytest.mark.parametrize(
        "factors, action, sectors, keys",
        # lens:7,1 acts trivially, so all its sectors share one key; under -1
        # a key is the parity of each of the three labels.
        [([7], None, 343, 1), ([4], [MINUS], 64, 8), ([6], [MINUS], 216, 8)],
    )
    def test_one_complex_per_key(self, monkeypatch, factors, action, sectors, keys):
        calls = []
        build = cohomology.build_complex

        def counted(M, coeffs):
            calls.append(None)
            return build(M, coeffs)

        monkeypatch.setattr(cohomology, "build_complex", counted)
        res = special_case_classify(catalog("torus3"), factors, 1, action)
        assert len(res.sectors) == sectors
        assert len(calls) == keys

    @pytest.mark.parametrize("rank", [-1, 1.5, True])
    def test_bad_rank_rejected(self, rank):
        # refused by json_int's rule or as negative, naming the value
        with pytest.raises(ValueError, match=f"got {rank!r}$"):
            special_case_classify(catalog("torus3"), [2], rank)

    def test_requires_three_cells(self):
        with pytest.raises(ValueError):
            special_case_classify(catalog("torus2"), [2], 1)

    def test_non_integer_factor_rejected(self):
        for factors, match in (([2.9], "expected an integer"), (5, "^pi1_factors must be")):
            with pytest.raises(ValueError, match=match):
                special_case_classify(catalog("torus3"), factors, 1)

    def test_bad_action_rejected(self):
        T = catalog("torus3")
        for factors, action in (
            ([2], [IntMatrix([[2]])]),  # not of order 2
            ([3], [IntMatrix([[-1]])]),  # order 2, not 3
            ([2, 2], [IntMatrix([[-1]])]),  # one matrix for two generators
            ([2], [IntMatrix([[1, 0], [0, 1]])]),  # wrong shape for rank 1
        ):
            with pytest.raises(CoefficientError):
                special_case_classify(T, factors, 1, action)
        # each of order 2, but they do not commute, so rho is no homomorphism
        flip, swap = IntMatrix([[1, 0], [0, -1]]), IntMatrix([[0, 1], [1, 0]])
        with pytest.raises(CoefficientError, match="commute"):
            special_case_classify(T, [2, 2], 2, [flip, swap])
        # not a sequence of IntMatrix: nested lists, or one bare matrix
        for action in ([[[-1]]], MINUS):
            with pytest.raises(CoefficientError, match="^pi_d_action must be"):
                special_case_classify(T, [2], 1, action)

    @pytest.mark.parametrize(
        "orders, action",
        [
            ((2, 2), (IntMatrix([[0, 1], [1, 0]]), IntMatrix([[1, 0], [0, -1]]))),
            ((3,), (MINUS,)),
        ],
        ids=["swap_and_reflection", "minus_one_of_order_3"],
    )
    def test_action_check_shared_with_validate(self, orders, action):
        # A target's action and the lens route's action fail one check,
        # with the same text.
        rank = action[0].rows
        X = ModuleXMod(0, orders, rank, action, IntMatrix.zeros(len(orders), rank))
        with pytest.raises(CoefficientError) as err:
            special_case_classify(catalog("torus3"), list(orders), rank, action)
        assert validate(X) == [str(err.value)]

    def test_action_order_checked_once(self, monkeypatch):
        # The sector-independent check is made once, not once per sector.
        calls = []
        power = IntMatrix.__pow__

        def counted(self, n):
            calls.append(n)
            return power(self, n)

        monkeypatch.setattr(IntMatrix, "__pow__", counted)
        res = special_case_classify(catalog("torus3"), [3], 1, [IntMatrix([[1]])])
        assert len(res.sectors) == 27
        assert calls.count(3) == 1

    def test_action_and_derivatives_taken_once_per_call(self, monkeypatch):
        # One rho table and one set of Fox derivatives serve all 343 sectors.
        powers, derivatives = [], []
        power, fox = IntMatrix.__pow__, complexes.fox_derivative

        def counted_power(self, n):
            powers.append(n)
            return power(self, n)

        def counted_fox(word, gen):
            derivatives.append((word, gen))
            return fox(word, gen)

        monkeypatch.setattr(IntMatrix, "__pow__", counted_power)
        monkeypatch.setattr(complexes, "fox_derivative", counted_fox)
        res = special_case_classify(catalog("torus3"), [7], 1)
        assert len(res.sectors) == 343
        assert len(powers) <= 1
        assert len(derivatives) == 9

    @pytest.mark.parametrize("factors", [[2], [3], [7], [2, 6]])
    @pytest.mark.parametrize("name", ["torus3", "s1_x_s2"])
    def test_sector_count_read_off_h1(self, name, factors):
        M = catalog(name)
        header, _ = special_case_sectors(M, factors, 1)
        assert header.sector_count == sum(1 for _ in label_sectors(M, factors))

    @pytest.mark.parametrize("name, params", [
        ("circle_wedge", {"n": 0}), ("circle_wedge", {"n": 3}), ("sphere2", {}), ("torus2", {}),
        ("rp2", {}), ("klein_bottle", {}), ("s1_wedge_s2", {}), ("genus_surface", {"g": 1}),
        ("genus_surface", {"g": 2}), ("torus_knot", {"p": 2, "q": 3}),
        ("torus_knot", {"p": 3, "q": 2}), ("torus_knot", {"p": 4, "q": 6}),
    ])
    def test_sector_count_of_a_2_complex_with_a_3_cell(self, name, params):
        # An empty 3-cell leaves pi_1, and so the sectors, as they were.
        M = catalog(name, **params)
        obj = json.loads(complexes.saves(M))
        obj["three_cells"] = [{"name": "x", "attach": []}]
        header, _ = special_case_sectors(complexes.from_json(obj), [2], 1)
        assert header.sector_count == sum(1 for _ in label_sectors(M, [2]))

    @pytest.mark.parametrize("factors, action", [
        ([4], [[[-1]]]),
        ([2, 2], [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]]),
        ([3], [[[0, -1], [1, -1]]]),
        ([4], [[[0, -1], [1, 0]]]),
        ([5], [[[1]]]),
    ], ids=["z4_minus", "z2z2_flips", "z3_rotation", "z4_quarter_turn", "z5_trivial"])
    def test_poincare_duality(self, factors, action):
        # For a closed orientable 3-manifold, H^3(M; A) = H_0(M; A), the
        # coinvariants A / <rho(g)a - a> over the labels g of the 1-cells:
        # read from rho alone and reduced by sympy, with no Fox table, no
        # triad and no d2.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rank = len(action[0])
        generators = [sympy.Matrix(m) for m in action]
        for M in (catalog("torus3"), catalog("s1_x_s2")):
            res = special_case_classify(M, factors, rank, [IntMatrix(m) for m in action])
            assert len(res.sectors) == res.sector_count > 1
            for sector in res.sectors:
                moves = sympy.zeros(rank, 0)
                for label in sector.phi1.values():
                    rho = sympy.eye(rank)
                    for m, power in zip(generators, label):
                        rho *= m**power
                    moves = moves.row_join(rho - sympy.eye(rank))
                snf = smith_normal_form(moves, domain=sympy.ZZ)
                diagonal = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
                free = rank - sum(1 for d in diagonal if d)
                torsion = tuple(d for d in diagonal if d > 1)
                assert (sector.group.rank, sector.group.torsion) == (free, torsion), (
                    M.name, sector.phi1
                )

    def test_nontrivial_action(self):
        res = special_case_classify(catalog("torus3"), [2], 1, [IntMatrix([[-1]])])
        assert not res.action_is_trivial
        assert [str(s.group) for s in res.sectors] == ["Z"] + ["Z_2"] * 7
        res = special_case_classify(catalog("s1_x_s2"), [4], 2, [QUARTER_TURN])
        assert [s.phi1 for s in res.sectors] == [{"a": (c,)} for c in range(4)]
        assert [str(s.group) for s in res.sectors] == ["Z x Z", "Z_2", "Z_2 x Z_2", "Z_2"]


class TestBuildBudget:
    """Twisted blocks are plain rows: a sector (in the lens route, a key of
    sectors that act alike) builds an IntMatrix only for its assembled
    differentials, the d.d = 0 products and its quotient."""

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        init = IntMatrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntMatrix, "__init__", counted)
        return calls

    def test_lens_route(self, monkeypatch):
        # All 343 sectors share one key.  Once per call, the rho table builds
        # one matrix per label and the order check at most one power per label.
        builds = self.count_builds(monkeypatch)
        res = special_case_classify(catalog("torus3"), [7], 1)
        assert len(res.sectors) == 343
        keys, labels = 1, 7
        assert len(builds) <= 8 * keys + 2 * labels

    def test_oracle(self, monkeypatch):
        M = catalog("genus_surface", g=2)
        data = TargetData(RP2)
        sectors = pi1_sectors(M, data)
        builds = self.count_builds(monkeypatch)
        for sector in sectors:
            twisted_second_cohomology(M, CoefficientModule.for_target_sector(data, sector))
        assert len(sectors) == 16
        assert len(builds) <= 8 * len(sectors)
