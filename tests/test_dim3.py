import dataclasses
import itertools
import math
import random

import pytest

from topsectors import dim3
from topsectors.complexes import CWComplex, TriadLetter, catalog, loads, saves, validate_triad
from topsectors.dim3 import (
    CupData,
    Dim3Error,
    NoPresetError,
    TensorLetter,
    classify_s2,
    crossed_square_report,
    cup_preset,
    cylinder_preset,
    evaluate_L,
    phi2_boundary,
    pontrjagin_sector_group,
    preset_for,
    sector_group_s2,
    xsq_hom_lattice,
)
from topsectors.words import Alphabet, Word
from topsectors.zlinalg import AbelianGroup


E = Word.identity(Alphabet(["a0", "a1"]))


def z_or(n):
    return AbelianGroup((0,)) if n == 0 else AbelianGroup.from_factors([abs(n)])


class TestHomLattice:
    def test_s1_x_s2_all_pairs(self):
        layout, lattice = xsq_hom_lattice(catalog("s1_x_s2"))
        assert layout.dim == 2
        for v in [(0, 0), (3, -1), (-2, 5)]:
            assert v in lattice

    def test_lattice_points_commute(self):
        M = catalog("torus3")
        layout, lattice = xsq_hom_lattice(M)
        for v in [(0, 0, 0, 0), (1, 2, 3, 4), (-1, 0, 7, 2)]:
            assert v in lattice
            phi2 = dict(zip(layout.two_cells, v))
            for _, triad in M.three_cells:
                assert not sum(n * phi2[cell] for cell, n in phi2_boundary(M, triad).items())

    def test_torus3_all_quadruples(self):
        layout, lattice = xsq_hom_lattice(catalog("torus3"))
        assert layout.dim == 4
        for v in [(0, 0, 0, 0), (1, 2, 3, 4), (-1, 0, 7, 2)]:
            assert v in lattice

    def test_two_complex_unconstrained(self):
        layout, lattice = xsq_hom_lattice(catalog("sphere2"))
        assert layout.dim == 1
        assert (5,) in lattice


class TestEvaluateL:
    def test_tensor_square(self):
        # (t0 (x) t0) with phi2(t0) = q evaluates to q^2
        e = Word.identity(Alphabet(["a0"]))
        word = (TensorLetter(h=((e, "t0", 1),), k=((e, "t0", 1),), sign=1),)
        for q in range(-3, 4):
            assert evaluate_L(word, {"t0": q}) == q * q

    def test_s1_x_s2_relation_word(self):
        preset = cylinder_preset("s1_x_s2")
        word = preset.boundary4["xI"]
        for q, aI, psi, phi in [(3, 1, 10, 4), (0, 7, 1, 1), (-2, 2, 0, 8)]:
            values = {"t0": q, "t1": q, "aI": aI, "tI": 0, "x0": phi, "x1": psi}
            assert evaluate_L(word, values) == 2 * q * aI + psi - phi

    def test_torus3_relation_word(self):
        preset = cylinder_preset("torus3")
        word = preset.boundary4["xI"]
        values = {
            "t0": 2, "t1": 2, "u0": 3, "u1": 3, "v0": 5, "v1": 5,
            "aI": 1, "bI": -1, "cI": 2, "tI": 4, "uI": 0, "vI": -3,
            "x0": 7, "x1": 11,
        }
        expected = 11 - 7 - 2 * 2 * 1 - 2 * 3 * (-1) - 2 * 5 * 2
        assert evaluate_L(word, values) == expected

    def test_additive_over_concatenation(self):
        e = Word.identity(Alphabet(["a0"]))
        w1 = (TensorLetter(h=((e, "t0", 1),), k=((e, "t0", 1),), sign=1),)
        w2 = (TriadLetter(conj_f=e, conj_h=(), cell="x0", sign=-1),)
        values = {"t0": 3, "x0": 5}
        assert evaluate_L(w1 + w2, values) == evaluate_L(w1, values) + evaluate_L(
            w2, values
        )

    def test_negates_under_inversion(self):
        e = Word.identity(Alphabet(["a0"]))
        letter = TensorLetter(h=((e, "t0", 1),), k=((e, "aI", 1),), sign=1)
        flipped = TensorLetter(h=letter.h, k=letter.k, sign=-1)
        values = {"t0": 3, "aI": 4}
        assert evaluate_L((letter,), values) == -evaluate_L((flipped,), values)

    def test_unassigned_cell(self):
        e = Word.identity(Alphabet(["a0"]))
        with pytest.raises(Dim3Error):
            evaluate_L((TriadLetter(e, (), "zz", 1),), {})


class TestCylinderPresets:
    def test_s1_x_s2_inventory(self):
        preset = cylinder_preset("s1_x_s2")
        assert preset.cylinder.cell_counts() == (2, 3, 3)
        assert set(preset.i_two_cells) == {"aI"}
        assert set(preset.i_three_cells) == {"tI"}

    def test_torus3_inventory(self):
        preset = cylinder_preset("torus3")
        assert preset.cylinder.cell_counts() == (6, 9, 5)
        assert set(preset.i_two_cells) == {"aI", "bI", "cI"}
        assert set(preset.i_three_cells) == {"tI", "uI", "vI"}

    def test_cylinder_triads_validate(self):
        for name in ("s1_x_s2", "torus3"):
            cyl = cylinder_preset(name).cylinder
            for _, triad in cyl.three_cells:
                assert validate_triad(cyl, triad) is None

    def test_ends_restrict_to_copies(self):
        for name in ("s1_x_s2", "torus3"):
            M = catalog(name)
            cyl = cylinder_preset(name).cylinder
            for suffix in ("0", "1"):
                for cell, word in M.two_cells:
                    end = cyl.attaching_word(f"{cell}{suffix}")
                    assert end.runs == tuple(
                        (f"{n}{suffix}", e) for n, e in word.runs
                    )

    def test_missing_preset(self):
        with pytest.raises(Dim3Error):
            cylinder_preset("torus2")

    @pytest.mark.parametrize("space", ["s1_x_s2", "torus3"])
    def test_relations_equal_direct_walk(self, space):
        # Each 4-cell word is walked directly with evaluate_L: end copies
        # carry phi2 and x0 = 0.  The word is linear in the unknowns, so it
        # evaluates to 0 with every unknown at 0 and to column c of its row
        # with unknown c alone at 1.
        preset = cylinder_preset(space)
        base3 = preset.base.three_cell_names()
        rng = random.Random(9)
        for _ in range(300):
            phi2 = {cell: rng.randint(-40, 40) for cell in preset.base.two_cell_names()}
            values = dict.fromkeys(preset.columns, 0)
            for base, (end0, end1) in preset.end_cell_pairs.items():
                values[end0] = values[end1] = phi2[base]
            values.update((f"{name}0", 0) for name in base3)
            for name, row in zip(base3, preset.relations(phi2), strict=True):
                word = preset.boundary4[f"{name}I"]
                assert evaluate_L(word, values) == 0
                for c, entry in zip(preset.columns, row, strict=True):
                    assert evaluate_L(word, {**values, c: 1}) == entry

    @pytest.mark.parametrize("space, sweep", [("torus3", 3), ("s1_x_s2", 5)])
    def test_rows_read_once_per_preset(self, monkeypatch, space, sweep):
        # One reading per 4-cell when the preset is built, none per sector.
        reads = []
        real = dim3.CylinderPreset._read_relation

        def counted(self, name):
            reads.append((self.space, name))
            return real(self, name)

        monkeypatch.setattr(dim3.CylinderPreset, "_read_relation", counted)
        cylinder_preset.cache_clear()
        try:
            res = classify_s2(catalog(space), sweep=sweep)
        finally:
            cylinder_preset.cache_clear()
        # preset_for may build both presets, each with one 4-cell.
        assert (space, "xI") in reads and len(reads) == len(set(reads))
        assert len(reads) <= 2 < len(res.sectors)

    @pytest.mark.parametrize("letter", [
        TensorLetter(h=((E, "t0", 1),), k=((E, "t0", 1),), sign=1),  # quadratic in phi2
        TriadLetter(E, (), "t0", 1),  # a 2-cell read as a 3-cell: a constant term
        TriadLetter(E, (), "aI", 1),  # an interval 2-cell read as a 3-cell
        TensorLetter(h=((E, "aI", 1),), k=((E, "aI", 1),), sign=1),  # quadratic in unknowns
        # a factor mixing an interval cell with an end copy
        TensorLetter(h=((E, "aI", 1),), k=((E, "aI", 1), (E, "t0", 1)), sign=1),
    ])
    def test_nonlinear_letter_refused(self, letter):
        preset = cylinder_preset("s1_x_s2")
        word = preset.boundary4["xI"] + (letter,)
        with pytest.raises(Dim3Error, match="not linear in phi2"):
            dataclasses.replace(preset, boundary4={"xI": word})

    def test_sweep_traffic(self, monkeypatch):
        # The preset is looked up once per call, and no sector re-derives a
        # 3-cell's phi2 counts.  Every preset is built first, since
        # preset_for may build one and its checks read phi2_boundary.
        for space in ("s1_x_s2", "torus3"):
            cylinder_preset(space)
        lookups, boundaries = [], []
        real_preset_for, real_boundary = dim3.preset_for, dim3.phi2_boundary

        def counted_preset_for(M):
            lookups.append(M)
            return real_preset_for(M)

        def counted_boundary(M, triad):
            boundaries.append(triad)
            return real_boundary(M, triad)

        monkeypatch.setattr(dim3, "preset_for", counted_preset_for)
        monkeypatch.setattr(dim3, "phi2_boundary", counted_boundary)
        M = catalog("torus3")
        classify_s2(M, sweep=3)
        assert len(lookups) <= 1
        assert boundaries == []


class TestClassifyS2:
    def test_no_hom_lattice_solve(self, monkeypatch):
        # The preset guarantees every phi2 is a homomorphism, so the layout
        # comes from the cell names and the hom lattice is never solved.
        def refuse(M):
            raise AssertionError("xsq_hom_lattice called")

        monkeypatch.setattr(dim3, "xsq_hom_lattice", refuse)
        res = classify_s2(catalog("torus3"), sweep=1)
        assert len(res.sectors) == 27
        assert res.space == "torus3"
        assert res.to_json()["two_cells"] == ["t", "u", "v"]
        assert "space" not in res.to_json()

    def test_s1_x_s2_sector_groups(self):
        preset = cylinder_preset("s1_x_s2")
        for q in range(-5, 6):
            assert sector_group_s2(preset, {"t": q}) == z_or(2 * q), q

    def test_torus3_sector_groups(self):
        preset = cylinder_preset("torus3")
        for q in [(0, 0, 0), (2, 4, 6), (1, 1, 1), (0, 3, 0), (-2, 2, 4)]:
            g = math.gcd(math.gcd(abs(q[0]), abs(q[1])), abs(q[2]))
            assert sector_group_s2(preset, dict(zip("tuv", q))) == z_or(2 * g), q

    def test_hopf_sector_is_z(self):
        for name in ("s1_x_s2", "torus3"):
            preset = cylinder_preset(name)
            zero = {c: 0 for c in preset.base.two_cell_names()}
            assert sector_group_s2(preset, zero) == AbelianGroup((0,))

    @pytest.mark.parametrize("phi2", [{}, {"t": 1, "u": 2}, {"t": 1, "u": 2, "v": 3, "w": 0}])
    def test_phi2_must_name_the_two_cells(self, phi2):
        with pytest.raises(Dim3Error, match="exactly the 2-cells"):
            sector_group_s2(cylinder_preset("torus3"), phi2)

    def test_classify_sweep(self):
        res = classify_s2(catalog("s1_x_s2"), sweep=2)
        assert len(res.sectors) == 5
        by_q = {s.phi2["t"]: s.group for s in res.sectors}
        assert by_q == {q: z_or(2 * q) for q in range(-2, 3)}

    def test_bad_sector_rejected(self):
        # torus2 has no 3-cells, so every phi2 is a homomorphism, but there
        # is no cylinder preset for it
        with pytest.raises(Dim3Error, match="no cylinder preset"):
            classify_s2(catalog("torus2"))

    def test_non_homomorphism_rejected(self):
        # two 2-spheres and a 3-cell attached by t s^-1: phi2 must have t = s,
        # so not every phi2 is a sector, and a preset on it is refused
        e = Word.identity(Alphabet([]))
        M = CWComplex(
            [], [("t", ""), ("s", "")],
            [("x", [TriadLetter(e, (), "t", 1), TriadLetter(e, (), "s", -1)])],
        )
        with pytest.raises(Dim3Error, match="base 3-cell x constrains phi2"):
            dataclasses.replace(cylinder_preset("s1_x_s2"), base=M)
        with pytest.raises(Dim3Error, match="no cylinder preset"):
            classify_s2(M)

    def test_negative_sweep_rejected(self):
        with pytest.raises(Dim3Error, match="sweep"):
            classify_s2(catalog("s1_x_s2"), sweep=-1)


class TestPresetDispatch:
    """Presets are chosen by the structure of the complex, never its name."""

    @pytest.mark.parametrize("space", ["s1_x_s2", "torus3"])
    @pytest.mark.parametrize("name", [None, "renamed", "torus3", "s1_x_s2"])
    def test_copy_gets_its_own_preset(self, space, name):
        M = loads(saves(catalog(space)))
        M.name = name
        assert preset_for(M) is cylinder_preset(space)

    def test_misnamed_copy_classifies_as_its_structure(self):
        M = loads(saves(catalog("s1_x_s2")))
        M.name = "torus3"
        res = classify_s2(M, sweep=2)
        assert [s.group for s in res.sectors] == [
            s.group for s in classify_s2(catalog("s1_x_s2"), sweep=2).sectors
        ]

    def test_unknown_structure(self):
        # an unsupported source, whose message never echoes the name field
        M = loads(saves(catalog("torus2")))
        M.name = "renamed"
        with pytest.raises(NoPresetError) as err:
            preset_for(M)
        assert str(err.value) == (
            "no cylinder preset matches this complex (presets: s1_x_s2, torus3)"
        )


class TestPontrjagin:
    def test_s1_x_s2(self):
        cup = cup_preset("s1_x_s2")
        for q in range(-5, 6):
            assert pontrjagin_sector_group(cup, (q,)) == z_or(2 * q)

    def test_torus3(self):
        cup = cup_preset("torus3")
        for q in [(1, 2, 3), (2, 4, 6), (0, 0, 0), (5, 0, 0)]:
            g = math.gcd(math.gcd(abs(q[0]), abs(q[1])), abs(q[2]))
            assert pontrjagin_sector_group(cup, q) == z_or(2 * g)

    def test_alpha_zero_gives_full_h3(self):
        cup = cup_preset("torus3")
        assert pontrjagin_sector_group(cup, (0, 0, 0)) == AbelianGroup((0,))

    def test_classify_list(self):
        cup = cup_preset("s1_x_s2")
        out = [pontrjagin_sector_group(cup, a) for a in [(0,), (1,), (2,)]]
        assert out == [z_or(0), z_or(2), z_or(4)]

    def test_inconsistent_table_rejected(self):
        # torsion H^2 generator whose cup value does not die
        with pytest.raises(Dim3Error):
            CupData(h1_rank=1, h2=(2,), h3=(0,), cup=(((1,),),))

    def test_torsion_consistent_table(self):
        CupData(h1_rank=1, h2=(2,), h3=(2,), cup=(((1,),),))


class TestRouteAgreement:
    def test_s1_x_s2_sweep(self):
        preset = preset_for(catalog("s1_x_s2"))
        cup = cup_preset("s1_x_s2")
        for q in range(-5, 6):
            lattice_route = sector_group_s2(preset, {"t": q})
            cup_route = pontrjagin_sector_group(cup, (q,))
            assert lattice_route == cup_route

    def test_torus3_small_sweep(self):
        preset = preset_for(catalog("torus3"))
        cup = cup_preset("torus3")
        for q in itertools.product(range(-2, 3), repeat=3):
            lattice_route = sector_group_s2(preset, dict(zip("tuv", q)))
            cup_route = pontrjagin_sector_group(cup, q)
            assert lattice_route == cup_route, q


class TestReport:
    def test_torus3_report(self):
        rep = crossed_square_report(catalog("torus3"))
        text = rep.render()
        assert rep.cell_counts == (3, 3, 1)
        assert "sigma_2(t) = b c b^-1 c^-1" in text
        assert "sigma_3(x)" in text
        assert "pi_1 = < a, b, c |" in text

    def test_s1_x_s2_report_notes_hbar(self):
        rep = crossed_square_report(catalog("s1_x_s2"))
        assert any("H-bar = H" in n for n in rep.notes)
        assert any("pi_3 = Z" in n for n in rep.notes)

    def test_notes_follow_structure_not_name(self):
        copy = loads(saves(catalog("s1_x_s2")))
        copy.name = None
        assert crossed_square_report(copy).notes == crossed_square_report(catalog("s1_x_s2")).notes
        impostor = catalog("torus2")
        impostor.name = "s1_x_s2"
        assert crossed_square_report(impostor).notes == crossed_square_report(catalog("torus2")).notes

    def test_sphere2_report(self):
        rep = crossed_square_report(catalog("sphere2"))
        text = rep.render()
        assert any("H = H-bar = G = Z" in n for n in rep.notes)
        assert "pi_1 = 1" in text

    def test_knot_group_presentation(self):
        rep = crossed_square_report(catalog("torus_knot", p=2, q=3))
        assert rep.pi1_presentation == "< a, b | a^2 b^-3 = 1 >"
