import dataclasses
import functools
import itertools
import math
import random
from typing import Mapping

import pytest

from topsectors import dim3, zlinalg
from topsectors.complexes import CWComplex, HWord, TriadLetter, catalog, loads, saves, validate_triad
from topsectors.dim3 import (
    CupData,
    CylinderPreset,
    Dim3Error,
    FormalLWord,
    TensorLetter,
    UnsupportedComplexError,
    classify_s2,
    crossed_square_report,
    cup_preset,
    cup_table,
    cylinder_preset,
    phi2_boundary,
    pontrjagin_sector_group,
    sector_group_s2,
    xsq_hom_lattice,
)
from topsectors.words import Alphabet, Word
from topsectors.zlinalg import AbelianGroup, IntMatrix, Lattice, solve


E = Word.identity(Alphabet(["a0", "a1"]))


def z_or(n):
    return AbelianGroup((0,)) if n == 0 else AbelianGroup.from_factors([abs(n)])


# ---------------------------------------------------------------------------
# Reference evaluators: a formal triad-group word walked letter by letter
# ---------------------------------------------------------------------------


def _phi2_of_hword(word: HWord, values: Mapping[str, int]) -> int:
    """Signed sum of cell values over an H-word; conjugators drop because the
    target group acts trivially."""
    total = 0
    for _, cell, sign in word:
        if cell not in values:
            raise Dim3Error(f"no value assigned to cell {cell!r}")
        total += sign * values[cell]
    return total


def evaluate_L(word: FormalLWord, values: Mapping[str, int]) -> int:
    """Image of a formal triad-group word in pi_3 S^2 = Z.

    Tensor letters multiply the signed phi2 sums of their two factors; a
    conjugated 3-cell letter contributes its own value, conjugators dropping
    since the target action is trivial.
    """
    total = 0
    for letter in word:
        if isinstance(letter, TensorLetter):
            term = _phi2_of_hword(letter.h, values) * _phi2_of_hword(letter.k, values)
        else:
            if letter.cell not in values:
                raise Dim3Error(f"no value assigned to cell {letter.cell!r}")
            term = values[letter.cell]
        total += letter.sign * term
    return total


# ---------------------------------------------------------------------------
# Hand transcriptions of the two catalog cylinders and cup tables: the
# external check of the built cylinders and the derived cup tables
# ---------------------------------------------------------------------------


def s1_x_s2_fixture() -> CylinderPreset:
    M = catalog("s1_x_s2")
    alphabet = Alphabet(["a0", "a1"])
    two, three = dim3._doubled_cells(M, alphabet)
    two.append(("aI", alphabet.word("a1 a0^-1")))
    e = Word.identity(alphabet)
    tI = [
        TriadLetter(e, (), "t1", 1),
        TriadLetter(e, (), "t0", -1),
    ]
    three.append(("tI", tI))
    cylinder = CWComplex(
        alphabet.names, two, three, name="cylinder(s1_x_s2)"
    )
    t0_inv: HWord = ((e, "t0", -1),)
    boundary4: FormalLWord = (
        TensorLetter(h=((e, "aI", -1),), k=((e, "t0", 1),), sign=-1),
        TensorLetter(h=((alphabet.word("a1"), "t0", -1),), k=((e, "aI", 1),), sign=-1),
        TriadLetter(conj_f=e, conj_h=t0_inv, cell="tI", sign=1),
        TriadLetter(conj_f=e, conj_h=t0_inv, cell="x1", sign=1),
        TriadLetter(conj_f=e, conj_h=t0_inv, cell="tI", sign=-1),
        TriadLetter(conj_f=e, conj_h=t0_inv + ((e, "aI", 1),), cell="x0", sign=-1),
    )
    return CylinderPreset(
        base=M,
        cylinder=cylinder,
        i_two_cells=("aI",),
        i_three_cells=("tI",),
        boundary4={"xI": boundary4},
        end_cell_pairs={"t": ("t0", "t1")},
    )


def torus3_fixture() -> CylinderPreset:
    M = catalog("torus3")
    alphabet = Alphabet(["a0", "b0", "c0", "a1", "b1", "c1"])
    two, three = dim3._doubled_cells(M, alphabet)
    for gen in ("a", "b", "c"):
        two.append((f"{gen}I", alphabet.word(f"{gen}1 {gen}0^-1")))
    e = Word.identity(alphabet)

    def w(text: str) -> Word:
        return alphabet.word(text)

    # sigma_3 of the interval 3-cells, cyclically in (t,a) -> (u,b) -> (v,c).
    cyclic = [("t", "b", "c"), ("u", "c", "a"), ("v", "a", "b")]
    for cell, y, z in cyclic:
        letters = [
            TriadLetter(e, (), f"{cell}1", 1),
            TriadLetter(w(f"{z}1"), (), f"{y}I", 1),
            TriadLetter(e, (), f"{z}I", 1),
            TriadLetter(e, (), f"{cell}0", -1),
            TriadLetter(e, (), f"{y}I", -1),
            TriadLetter(w(f"{y}1"), (), f"{z}I", -1),
        ]
        three.append((f"{cell}I", letters))
    cylinder = CWComplex(alphabet.names, two, three, name="cylinder(torus3)")

    tensor_pairs = [("a", "t"), ("b", "u"), ("c", "v")]
    letters: list[TensorLetter | TriadLetter] = []
    for gen, cell in tensor_pairs:
        letters.append(
            TensorLetter(h=((e, f"{gen}I", -1),), k=((e, f"{cell}0", 1),), sign=1)
        )
        letters.append(
            TensorLetter(
                h=((w(f"{gen}1"), f"{cell}0", -1),), k=((e, f"{gen}I", 1),), sign=1
            )
        )
    letters += [
        TriadLetter(e, (), "x1", 1),
        TriadLetter(e, (), "tI", -1),
        TriadLetter(w("c1"), (), "vI", 1),
        TriadLetter(e, (), "uI", -1),
        TriadLetter(e, (), "x0", -1),
        TriadLetter(w("a1"), (), "tI", 1),
        TriadLetter(e, (), "vI", -1),
        TriadLetter(w("b1"), (), "uI", 1),
    ]
    return CylinderPreset(
        base=M,
        cylinder=cylinder,
        i_two_cells=("aI", "bI", "cI"),
        i_three_cells=("tI", "uI", "vI"),
        boundary4={"xI": tuple(letters)},
        end_cell_pairs={"t": ("t0", "t1"), "u": ("u0", "u1"), "v": ("v0", "v1")},
    )


FIXTURES = {"s1_x_s2": s1_x_s2_fixture, "torus3": torus3_fixture}

HAND_CUP = {
    "s1_x_s2": CupData(h1_rank=1, h2=(0,), h3=(0,), cup=(((1,),),)),
    "torus3": CupData(
        h1_rank=3,
        h2=(0, 0, 0),
        h3=(0,),
        cup=tuple(tuple((1,) if i == j else (0,) for j in range(3)) for i in range(3)),
    ),
}


# ---------------------------------------------------------------------------
# 3-complexes outside the catalog
# ---------------------------------------------------------------------------


def _t(alphabet, f, cell, sign):
    return TriadLetter(alphabet.word(f), (), cell, sign)


def s1_x_s2_wedge_s2_complex():
    """S^1 x (S^2 v S^2): 2-cells t and s with empty words, 3-cells
    t ^a t^-1 and s ^a s^-1."""
    A = Alphabet(["a"])
    return CWComplex(
        ["a"],
        [("t", ""), ("s", "")],
        [("x", [_t(A, "", "t", 1), _t(A, "a", "t", -1)]),
         ("y", [_t(A, "", "s", 1), _t(A, "a", "s", -1)])],
        name="s1_x_(s2_v_s2)",
    )


def torus3_wedge_s2_complex():
    T = catalog("torus3")
    return CWComplex(T.alphabet.names, [*T.two_cells, ("s", "")], T.three_cells, name="torus3_v_s2")


def s1_x_s2_wedge_s1_x_s2_complex():
    A = Alphabet(["a", "b"])
    return CWComplex(
        ["a", "b"],
        [("t", ""), ("s", "")],
        [("x", [_t(A, "", "t", 1), _t(A, "a", "t", -1)]),
         ("y", [_t(A, "", "s", 1), _t(A, "b", "s", -1)])],
        name="s1_x_s2_v_s1_x_s2",
    )


def s2_wedge_s3_complex():
    """S^2 v S^3: no 1-cells, so the cylinder has no interval 2-cell and
    every sector is Z."""
    return CWComplex([], [("t", "")], [("x", [])], name="s2_v_s3")


def s1_wedge_s3_complex():
    """S^1 v S^3: no 2-cells, so there is one sector, the empty phi2, and it
    is Z."""
    return CWComplex(["a"], [], [("x", [])], name="s1_v_s3")


def twisted_complex(n=2):
    """A 2-sphere t and the 3-cell t ^{a^n} t^-1, whose conjugator is one
    run: the sector at phi2 = q is Z_{2n|q|}, and Z at 0."""
    A = Alphabet(["a"])
    return CWComplex(["a"], [("t", "")], [("x", [_t(A, "", "t", 1), _t(A, f"a^{n}", "t", -1)])])


def lens31_complex():
    """L(3,1): t = a^3 and the 3-cell t ^a t^-1, whose relator has a
    nonzero exponent sum."""
    A = Alphabet(["a"])
    return CWComplex(["a"], [("t", "a^3")], [("x", [_t(A, "", "t", 1), _t(A, "a", "t", -1)])])


def constrained_complex():
    """Two 2-spheres and a 3-cell t s^-1, which forces phi2(t) = phi2(s)."""
    A = Alphabet([])
    return CWComplex([], [("t", ""), ("s", "")], [("x", [_t(A, "", "t", 1), _t(A, "", "s", -1)])])


NON_CATALOG = {
    "s1_x_(s2_v_s2)": s1_x_s2_wedge_s2_complex,
    "torus3_v_s2": torus3_wedge_s2_complex,
    "s1_x_s2_v_s1_x_s2": s1_x_s2_wedge_s1_x_s2_complex,
    "s2_v_s3": s2_wedge_s3_complex,
    "s1_v_s3": s1_wedge_s3_complex,
    "twisted_a2": twisted_complex,
}
SOURCES = {space: functools.partial(catalog, space) for space in FIXTURES} | NON_CATALOG

# Complexes outside the sphere route's domain, each with its exact error.
DOMAIN_ERRORS = {
    "torus2": (functools.partial(catalog, "torus2"), "the sphere route needs a 3-complex"),
    "lens31": (
        lens31_complex,
        "2-cell t has nonzero exponent sums, so its interval 3-cell does not pin phi2",
    ),
    "constrained": (constrained_complex, "3-cell x constrains phi2: {'t': 1, 's': -1}"),
}


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
        preset = s1_x_s2_fixture()
        word = preset.boundary4["xI"]
        for q, aI, psi, phi in [(3, 1, 10, 4), (0, 7, 1, 1), (-2, 2, 0, 8)]:
            values = {"t0": q, "t1": q, "aI": aI, "tI": 0, "x0": phi, "x1": psi}
            assert evaluate_L(word, values) == 2 * q * aI + psi - phi
        # The built word takes the opposite orientation of aI.
        word = cylinder_preset(catalog("s1_x_s2")).boundary4["xI"]
        for q, aI, psi, phi in [(3, 1, 10, 4), (0, 7, 1, 1), (-2, 2, 0, 8)]:
            values = {"t0": q, "t1": q, "aI": aI, "tI": 5, "x0": phi, "x1": psi}
            assert evaluate_L(word, values) == -2 * q * aI + psi - phi

    def test_torus3_relation_word(self):
        preset = torus3_fixture()
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
        preset = cylinder_preset(catalog("s1_x_s2"))
        assert preset.cylinder.cell_counts() == (2, 3, 3)
        assert set(preset.i_two_cells) == {"aI"}
        assert set(preset.i_three_cells) == {"tI"}

    def test_torus3_inventory(self):
        preset = cylinder_preset(catalog("torus3"))
        assert preset.cylinder.cell_counts() == (6, 9, 5)
        assert set(preset.i_two_cells) == {"aI", "bI", "cI"}
        assert set(preset.i_three_cells) == {"tI", "uI", "vI"}

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_cylinder_triads_validate(self, source):
        cyl = cylinder_preset(SOURCES[source]()).cylinder
        for _, triad in cyl.three_cells:
            assert validate_triad(cyl, triad) is None

    def test_ends_restrict_to_copies(self):
        for name in ("s1_x_s2", "torus3"):
            M = catalog(name)
            cyl = cylinder_preset(M).cylinder
            for suffix in ("0", "1"):
                for cell, word in M.two_cells:
                    end = cyl.attaching_word(f"{cell}{suffix}")
                    assert end.runs == tuple(
                        (f"{n}{suffix}", e) for n, e in word.runs
                    )

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_relations_equal_direct_walk(self, source):
        # Each 4-cell word is walked directly with evaluate_L: end copies
        # carry phi2 and x0 = 0.  The word is linear in the unknowns, so it
        # evaluates to 0 with every unknown at 0, to 1 with its own x1 alone
        # at 1 (0 with another 3-cell's), to 0 with one interval 3-cell alone
        # at 1, and to the slope sum sum_c phi2(c) slope_c[g] with gI alone
        # at 1.
        preset = cylinder_preset(SOURCES[source]())
        base3 = preset.base.three_cell_names()
        rng = random.Random(9)
        for _ in range(300):
            phi2 = {cell: rng.randint(-40, 40) for cell in preset.base.two_cell_names()}
            values = dict.fromkeys(preset.i_two_cells + preset.i_three_cells, 0)
            for base, (end0, end1) in preset.end_cell_pairs.items():
                values[end0] = values[end1] = phi2[base]
            values.update((f"{name}{end}", 0) for name in base3 for end in "01")
            for name in base3:
                word = preset.boundary4[f"{name}I"]
                assert evaluate_L(word, values) == 0
                for other in base3:
                    assert evaluate_L(word, {**values, f"{other}1": 1}) == (other == name)
                for cell in preset.i_three_cells:
                    assert evaluate_L(word, {**values, cell: 1}) == 0
                slopes = preset.slopes[name]
                for j, cell in enumerate(preset.i_two_cells):
                    slope_sum = sum(phi2[c] * slope[j] for c, slope in slopes.items())
                    assert evaluate_L(word, {**values, cell: 1}) == slope_sum

    @pytest.mark.parametrize("source, sweep", [
        ("torus3", 3), ("s1_x_s2", 5), ("s1_x_(s2_v_s2)", 2),
    ])
    def test_rows_read_once_per_preset(self, monkeypatch, source, sweep):
        # One reading per 4-cell when the cylinder is built, none per sector.
        reads = []
        real = dim3.CylinderPreset._read_relation

        def counted(self, name):
            reads.append(name)
            return real(self, name)

        monkeypatch.setattr(dim3.CylinderPreset, "_read_relation", counted)
        M = SOURCES[source]()
        res = classify_s2(M, sweep=sweep)
        assert reads == [f"{name}I" for name in M.three_cell_names()]
        assert len(res.sectors) > len(reads)

    @pytest.mark.parametrize("letter", [
        TensorLetter(h=((E, "t0", 1),), k=((E, "t0", 1),), sign=1),  # quadratic in phi2
        TriadLetter(E, (), "t0", 1),  # a 2-cell read as a 3-cell: a constant term
        TriadLetter(E, (), "aI", 1),  # an interval 2-cell read as a 3-cell
        TensorLetter(h=((E, "aI", 1),), k=((E, "aI", 1),), sign=1),  # quadratic in unknowns
        # a factor mixing an interval cell with an end copy
        TensorLetter(h=((E, "aI", 1),), k=((E, "aI", 1), (E, "t0", 1)), sign=1),
    ])
    def test_nonlinear_letter_refused(self, letter):
        preset = cylinder_preset(catalog("s1_x_s2"))
        word = preset.boundary4["xI"] + (letter,)
        with pytest.raises(Dim3Error, match="not linear in phi2"):
            dataclasses.replace(preset, boundary4={"xI": word})

    @pytest.mark.parametrize("edit", [
        lambda word: word + (TriadLetter(E, (), "tI", 1),),  # an extra interval 3-cell
        lambda word: tuple(l for l in word if getattr(l, "cell", None) != "x1"),  # no x1
        lambda word: word + (TriadLetter(E, (), "y1", 1),),  # another 3-cell's y1
    ], ids=["extra tI", "no x1", "other y1"])
    def test_three_cell_letters_must_reduce_to_own_x1(self, edit):
        preset = cylinder_preset(s1_x_s2_wedge_s2_complex())
        boundary4 = {**preset.boundary4, "xI": edit(preset.boundary4["xI"])}
        with pytest.raises(Dim3Error, match="4-cell xI reduces to the 3-cells"):
            dataclasses.replace(preset, boundary4=boundary4)

    @pytest.mark.parametrize("n", [1, 3, -7, 10**1000 + 1], ids=["1", "3", "-7", "1001-digit"])
    def test_one_peiffer_pair_per_run(self, n):
        # The conjugator a^n is one run, so it gives one pair of tensor
        # letters, each raised to |n|, whatever n is.
        word = cylinder_preset(twisted_complex(n)).boundary4["xI"]
        tensors = [letter for letter in word if isinstance(letter, TensorLetter)]
        interval = ((E, "aI", 1 if n > 0 else -1),)
        end = ((E, "t0", -1),)
        assert tensors == [
            TensorLetter(interval, end, abs(n)), TensorLetter(end, interval, abs(n))
        ]

    def test_one_build_per_complex(self, monkeypatch):
        # One cylinder per complex object: the first sweep builds it, a
        # second sweep on the same object reuses it, and no sector of either
        # re-derives a 3-cell's phi2 counts.
        builds, boundaries = [], []
        real_post_init, real_boundary = CylinderPreset.__post_init__, dim3.phi2_boundary

        def counted_post_init(self):
            builds.append(self.base)
            real_post_init(self)

        def counted_boundary(M, triad):
            boundaries.append(triad)
            return real_boundary(M, triad)

        monkeypatch.setattr(CylinderPreset, "__post_init__", counted_post_init)
        M, N = catalog("torus3"), catalog("torus3")
        classify_s2(M, sweep=3)
        assert builds == [M]
        monkeypatch.setattr(dim3, "phi2_boundary", counted_boundary)
        classify_s2(M, sweep=3)
        assert builds == [M] and boundaries == []
        classify_s2(N, sweep=1)
        assert builds == [M, N]


class TestFixtures:
    """The built cylinders and derived cup tables against the hand
    transcriptions of the two catalog spaces."""

    @staticmethod
    def walked_delta_lattice(preset, phi2):
        """The delta-lattice by the general route: each 4-cell word walked
        with evaluate_L into a row over every unknown (the interval cells,
        then each 1-end copy x1), the homogeneous system solved, and the x1
        parts of its kernel spanned."""
        base3 = preset.base.three_cell_names()
        unknowns = preset.i_two_cells + preset.i_three_cells + tuple(f"{x}1" for x in base3)
        values = dict.fromkeys(unknowns, 0) | {f"{x}0": 0 for x in base3}
        for base, ends in preset.end_cell_pairs.items():
            values.update(dict.fromkeys(ends, phi2[base]))
        rows = [
            [evaluate_L(preset.boundary4[f"{x}I"], {**values, c: 1}) for c in unknowns]
            for x in base3
        ]
        _, kernel = solve(IntMatrix(rows, cols=len(unknowns)), (0,) * len(rows))
        return Lattice(len(base3), [k[-len(base3) :] for k in kernel]).basis()

    @pytest.mark.parametrize("space", sorted(FIXTURES))
    def test_delta_lattice_equals_fixture(self, space, monkeypatch):
        # 13 + 13^3 = 2210 phi2 in [-6, 6]^n over both spaces: the HNF of
        # the columns that sector_group_s2 hands to the quotient, for the
        # built cylinder and for the fixture, equals the fixture's walked
        # delta-lattice.
        fixture, built = FIXTURES[space](), cylinder_preset(catalog(space))
        cells = built.base.two_cell_names()
        assert (fixture.i_two_cells, fixture.i_three_cells) == (
            built.i_two_cells, built.i_three_cells
        )
        spans, real = [], dim3.quotient

        def spanned(n, columns):
            columns = list(columns)
            spans.append(Lattice(n, columns).basis())
            return real(n, columns)

        monkeypatch.setattr(dim3, "quotient", spanned)
        for combo in itertools.product(range(-6, 7), repeat=len(cells)):
            phi2 = dict(zip(cells, combo))
            sector_group_s2(built, phi2)
            sector_group_s2(fixture, phi2)
            walked = self.walked_delta_lattice(fixture, phi2)
            assert spans == [walked, walked], phi2
            spans.clear()

    @pytest.mark.parametrize("space", sorted(HAND_CUP))
    def test_cup_table_equals_hand_table(self, space):
        assert cup_table(catalog(space)) == cup_preset(space) == HAND_CUP[space]


class TestClassifyS2:
    def test_no_hom_lattice_solve(self, monkeypatch):
        # The preset guarantees every phi2 is a homomorphism, so the layout
        # comes from the cell names and the hom lattice is never solved.
        def refuse(M):
            raise AssertionError("xsq_hom_lattice called")

        monkeypatch.setattr(dim3, "xsq_hom_lattice", refuse)
        res = classify_s2(catalog("torus3"), sweep=1)
        assert len(res.sectors) == 27
        assert res.to_json()["two_cells"] == ["t", "u", "v"]
        assert "space" not in res.to_json()

    def test_one_smith_reduction_per_sector(self, monkeypatch):
        # Each sector is one quotient of Z^{3-cells} by the columns of
        # C(phi2): no solve, and at most one Smith reduction.
        calls = {"solve": 0, "smith": 0}
        real_smith = zlinalg._smith_with_inverses

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counted_smith(*args, **kwargs):
            calls["smith"] += 1
            return real_smith(*args, **kwargs)

        monkeypatch.setattr(zlinalg, "solve", counted_solve)
        monkeypatch.setattr(dim3, "solve", counted_solve)
        monkeypatch.setattr(zlinalg, "_smith_with_inverses", counted_smith)
        res = classify_s2(catalog("torus3"), sweep=3)
        assert len(res.sectors) == 343
        assert calls["solve"] == 0 and calls["smith"] <= 343

    @pytest.mark.parametrize("source, groups", [
        ("s2_v_s3", [z_or(0)] * 7),  # no 1-cells, so C(phi2) has no column
        ("s1_v_s3", [z_or(0)]),  # no 2-cells: one sector, the empty phi2
        ("twisted_a2", [z_or(4 * q) for q in range(-3, 4)]),
    ])
    def test_edge_sector_groups(self, source, groups):
        res = classify_s2(NON_CATALOG[source](), sweep=3)
        assert [s.group for s in res.sectors] == groups

    def test_s1_x_s2_sector_groups(self):
        preset = cylinder_preset(catalog("s1_x_s2"))
        for q in range(-5, 6):
            assert sector_group_s2(preset, {"t": q}) == z_or(2 * q), q

    def test_torus3_sector_groups(self):
        preset = cylinder_preset(catalog("torus3"))
        for q in [(0, 0, 0), (2, 4, 6), (1, 1, 1), (0, 3, 0), (-2, 2, 4)]:
            g = math.gcd(math.gcd(abs(q[0]), abs(q[1])), abs(q[2]))
            assert sector_group_s2(preset, dict(zip("tuv", q))) == z_or(2 * g), q

    def test_hopf_sector_is_z(self):
        for name in ("s1_x_s2", "torus3"):
            preset = cylinder_preset(catalog(name))
            zero = {c: 0 for c in preset.base.two_cell_names()}
            assert sector_group_s2(preset, zero) == AbelianGroup((0,))

    @pytest.mark.parametrize("phi2", [{}, {"t": 1, "u": 2}, {"t": 1, "u": 2, "v": 3, "w": 0}])
    def test_phi2_must_name_the_two_cells(self, phi2):
        with pytest.raises(Dim3Error, match="exactly the 2-cells"):
            sector_group_s2(cylinder_preset(catalog("torus3")), phi2)

    def test_classify_sweep(self):
        res = classify_s2(catalog("s1_x_s2"), sweep=2)
        assert len(res.sectors) == 5
        by_q = {s.phi2["t"]: s.group for s in res.sectors}
        assert by_q == {q: z_or(2 * q) for q in range(-2, 3)}

    @pytest.mark.parametrize("source", sorted(DOMAIN_ERRORS))
    @pytest.mark.parametrize("name", [None, "s1_x_s2", "renamed"])
    def test_outside_domain_refused(self, source, name):
        # An unsupported source for the cylinder and the cup table alike,
        # whose message names the cell at fault, never the name field.
        make, message = DOMAIN_ERRORS[source]
        M = make()
        M.name = name
        for route in (classify_s2, cylinder_preset, cup_table):
            with pytest.raises(UnsupportedComplexError) as err:
                route(M)
            assert str(err.value) == message

    @pytest.mark.parametrize("name", [None, "renamed", "torus3"])
    def test_misnamed_copy_classifies_as_its_structure(self, name):
        M = loads(saves(catalog("s1_x_s2")))
        M.name = name
        res = classify_s2(M, sweep=2)
        assert [s.group for s in res.sectors] == [
            s.group for s in classify_s2(catalog("s1_x_s2"), sweep=2).sectors
        ]

    def test_negative_sweep_rejected(self):
        with pytest.raises(Dim3Error, match="sweep"):
            classify_s2(catalog("s1_x_s2"), sweep=-1)


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
        preset = cylinder_preset(catalog("s1_x_s2"))
        cup = cup_preset("s1_x_s2")
        for q in range(-5, 6):
            lattice_route = sector_group_s2(preset, {"t": q})
            cup_route = pontrjagin_sector_group(cup, (q,))
            assert lattice_route == cup_route

    def test_torus3_small_sweep(self):
        preset = cylinder_preset(catalog("torus3"))
        cup = cup_preset("torus3")
        for q in itertools.product(range(-2, 3), repeat=3):
            lattice_route = sector_group_s2(preset, dict(zip("tuv", q)))
            cup_route = pontrjagin_sector_group(cup, q)
            assert lattice_route == cup_route, q

    @pytest.mark.parametrize("source", sorted(NON_CATALOG))
    def test_non_catalog_sweep(self, source):
        M = NON_CATALOG[source]()
        cup = cup_table(M)
        res = classify_s2(M, sweep=2)
        assert len(res.sectors) == 5 ** len(M.two_cells)
        for sector in res.sectors:
            assert sector.group == pontrjagin_sector_group(cup, tuple(sector.phi2.values()))

    def test_s1_x_s2_wedge_s2_pinned_sector(self):
        # 2 alpha u H^1 is spanned by (4, 12) in H^3 = Z^2
        M = s1_x_s2_wedge_s2_complex()
        group = sector_group_s2(cylinder_preset(M), {"t": 2, "s": 6})
        assert group == AbelianGroup.from_factors([4, 0])
        assert group == pontrjagin_sector_group(cup_table(M), (2, 6))


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
