import json
import random

import pytest

from topsectors import complexes
from topsectors.complexes import (
    CWComplex,
    ComplexError,
    TriadLetter,
    catalog,
    invert_hword,
    loads,
    saves,
    structurally_equal,
    validate_triad,
)
from topsectors.words import Alphabet, AlphabetError, Word

from runterms import expand

ALL_CATALOG = [
    ("circle_wedge", {"n": 3}),
    ("sphere2", {}),
    ("torus2", {}),
    ("rp2", {}),
    ("genus_surface", {"g": 2}),
    ("torus_knot", {"p": 2, "q": 3}),
    ("klein_bottle", {}),
    ("s1_wedge_s2", {}),
    ("torus3", {}),
    ("s1_x_s2", {}),
]


class TestCatalog:
    def test_cell_counts(self):
        assert catalog("torus2").cell_counts() == (2, 1, 0)
        assert catalog("rp2").cell_counts() == (1, 1, 0)
        assert catalog("sphere2").cell_counts() == (0, 1, 0)
        assert catalog("genus_surface", g=3).cell_counts() == (6, 1, 0)
        assert catalog("torus3").cell_counts() == (3, 3, 1)
        assert catalog("s1_x_s2").cell_counts() == (1, 1, 1)
        assert catalog("circle_wedge", n=4).cell_counts() == (4, 0, 0)

    def test_attaching_words(self):
        assert str(catalog("torus2").attaching_word("t")) == "a b a^-1 b^-1"
        assert str(catalog("rp2").attaching_word("t")) == "a^2"
        assert str(catalog("torus_knot", p=3, q=5).attaching_word("t")) == "a^3 b^-5"
        assert catalog("sphere2").attaching_word("t").is_identity
        assert catalog("s1_wedge_s2").attaching_word("t").is_identity

    def test_klein_bottle_is_2_2_knot_space(self):
        K = catalog("klein_bottle")
        assert str(K.attaching_word("t")) == "a^2 b^-2"

    def test_torus3_structure(self):
        T = catalog("torus3")
        assert str(T.attaching_word("t")) == "b c b^-1 c^-1"
        assert str(T.attaching_word("u")) == "c a c^-1 a^-1"
        assert str(T.attaching_word("v")) == "a b a^-1 b^-1"
        (name, triad), = T.three_cells
        assert name == "x"
        cells_and_signs = [(l.cell, l.sign, str(l.conj_f)) for l in triad]
        assert cells_and_signs == [
            ("t", 1, ""),
            ("v", -1, "c"),
            ("u", 1, ""),
            ("t", -1, "a"),
            ("v", 1, ""),
            ("u", -1, "b"),
        ]

    def test_s1_x_s2_structure(self):
        M = catalog("s1_x_s2")
        (name, triad), = M.three_cells
        assert [(l.cell, l.sign, str(l.conj_f)) for l in triad] == [
            ("t", 1, ""),
            ("t", -1, "a"),
        ]

    def test_bad_parameters(self):
        with pytest.raises(ComplexError):
            catalog("genus_surface", g=0)
        with pytest.raises(ComplexError):
            catalog("torus_knot", p=0, q=2)
        with pytest.raises(ComplexError):
            catalog("nonsense")

    @pytest.mark.parametrize(
        "name, params, named",
        [
            ("genus_surface", {"g": 1.9}, "'g'"),
            ("genus_surface", {"g": True}, "'g'"),
            ("genus_surface", {"g": "3"}, "'g'"),
            ("circle_wedge", {"n": 2.5}, "'n'"),
            ("torus_knot", {"p": 2, "q": 3.0}, "'q'"),
            ("genus_surface", {}, "'g'"),
            ("torus_knot", {"p": 2}, "'q'"),
            ("genus_surface", {"g": 2, "h": 1}, "'h'"),
            ("torus2", {"g": 2}, "'g'"),
        ],
    )
    def test_parameters_are_ints_and_exactly_the_expected_ones(self, name, params, named):
        # A float, bool or string is refused rather than coerced, and a
        # missing or extra parameter is a ComplexError, not a KeyError.
        with pytest.raises(ComplexError, match=r"\(expected parameters: ") as err:
            catalog(name, **params)
        assert named in str(err.value)

    def test_fox_table_and_triad_images_taken_once(self, monkeypatch):
        calls = []
        fox = complexes.fox_derivative

        def counted(word, gen):
            calls.append(gen)
            return fox(word, gen)

        monkeypatch.setattr(complexes, "fox_derivative", counted)
        T = catalog("torus3")
        assert T.fox is T.fox and T.triad_images is T.triad_images
        assert len(calls) == 9
        assert expand(T.fox["t", "b"]) == {(0, 0, 0): 1, (0, 0, 1): -1}
        assert set(T.triad_images) == {"x"}
        assert set(T.triad_images["x"]) == {"t", "u", "v"}
        # a triad image is runs of length 1, one per exponent-sum key
        assert all(run.length == 1 for image in T.triad_images["x"].values() for run in image)
        assert expand(T.triad_images["x"]["t"]) == {(0, 0, 0): 1, (1, 0, 0): -1}


class TestValidateTriad:
    def test_catalog_triads_valid(self):
        # construction would fail otherwise; check the public op anyway
        for name in ("torus3", "s1_x_s2"):
            M = catalog(name)
            for _, triad in M.three_cells:
                assert validate_triad(M, triad) is None

    def test_boundary_computed_independently(self):
        # d(t ^c v^-1 u ^a t^-1 v ^b u^-1) reduces to the identity: expand
        # through word operations only.
        T = catalog("torus3")
        a = T.alphabet
        pieces = [
            T.attaching_word("t"),
            (a.gen("c") * T.attaching_word("v") * a.gen("c").inverse()).inverse(),
            T.attaching_word("u"),
            (a.gen("a") * T.attaching_word("t") * a.gen("a").inverse()).inverse(),
            T.attaching_word("v"),
            (a.gen("b") * T.attaching_word("u") * a.gen("b").inverse()).inverse(),
        ]
        total = Word.identity(a)
        for p in pieces:
            total = total * p
        assert total.is_identity

    def test_single_letter_violation(self):
        T = catalog("torus3")
        bad = (TriadLetter(Word.identity(T.alphabet), (), "t", 1),)
        verdict = validate_triad(T, bad)
        assert verdict is not None
        assert verdict.index == 0
        assert str(verdict.residual) == "b c b^-1 c^-1"

    def test_violation_after_a_valid_triad(self):
        T = catalog("torus3")
        (_, triad), = T.three_cells
        verdict = validate_triad(T, triad + (TriadLetter(Word.identity(T.alphabet), (), "t", 1),))
        assert verdict.index == 6
        assert str(verdict.residual) == "b c b^-1 c^-1"

    def test_long_bad_triad_refused_in_one_pass(self, monkeypatch):
        # 1-cell a, 2-cell t = a and a 3-cell t^N: each letter's boundary is
        # taken once, not once for every prefix that holds it, so the
        # boundaries taken hold a few N letters in all, not N^2 / 2.
        N = 400
        calls = []
        real = CWComplex.hword_boundary

        def counted(self, word):
            calls.append(len(word))
            return real(self, word)

        monkeypatch.setattr(CWComplex, "hword_boundary", counted)
        letter = TriadLetter(Word.identity(Alphabet(["a"])), (), "t", 1)
        with pytest.raises(ComplexError, match=rf"at letter 0: boundary residue 'a\^{N}' != identity"):
            CWComplex(["a"], [("t", "a")], [("x", [letter] * N)])
        assert 0 < len(calls) <= N + 1
        assert sum(calls) <= 3 * N

    def test_construction_rejects_bad_triad(self):
        T = catalog("torus3")
        bad = [TriadLetter(Word.identity(T.alphabet), (), "t", 1)]
        with pytest.raises(ComplexError):
            CWComplex(
                T.alphabet.names,
                list(T.two_cells),
                [("y", bad)],
            )


class TestNormalForm:
    def test_f_component_trivial(self):
        T = catalog("torus3")
        (_, triad), = T.three_cells
        h = T.triad_normal_form(triad)
        assert T.hword_boundary(h).is_identity

    def test_conjugator_h_part(self):
        # conjugating by an H-element wraps the letter: ^(h)(t) = h t h^-1
        M = catalog("s1_x_s2")
        e = Word.identity(M.alphabet)
        conj_h = ((e, "t", 1),)
        letter = TriadLetter(e, conj_h, "t", -1)
        h = M.triad_normal_form((letter,))
        # t t^-1 t^-1 reduces to t^-1 after cancelling the wrap
        assert h == ((e, "t", -1),)

    @pytest.mark.parametrize("sign", [2, 0])
    def test_boundary_refuses_a_sign_other_than_one(self, sign):
        # Once read as -1: both gave b a b^-1 a^-1, the boundary of t^-1.
        T = catalog("torus2")
        e = Word.identity(T.alphabet)
        assert str(T.hword_boundary(((e, "t", -1),))) == "b a b^-1 a^-1"
        with pytest.raises(ComplexError, match=f"sign must be \\+-1, got {sign}"):
            T.hword_boundary(((e, "t", sign),))


def reduce_by_pairs(letters):
    """Free reduction by cancelling the first adjacent inverse pair until
    none is left: a reference for the one-pass reductions."""
    letters = list(letters)
    i = 0
    while i + 1 < len(letters):
        (f, c, s), (g, d, t) = letters[i], letters[i + 1]
        if (f, c, s) == (g, d, -t):
            del letters[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(letters)


class TestOneReduction:
    M = CWComplex(["a", "b", "c"], [("t", "a b a^-1 b^-1"), ("u", "c^2 a^-3"), ("v", "")])

    def random_word(self, rng, length):
        runs = [(rng.choice("abc"), rng.choice([1, -1, 2, -3])) for _ in range(length)]
        return Word(self.M.alphabet, runs)

    def random_hword(self, rng, length):
        return tuple(
            (self.random_word(rng, rng.randrange(3)), rng.choice("tuv"), rng.choice([1, -1]))
            for _ in range(length)
        )

    def test_hword_boundary_equals_letter_products(self):
        rng = random.Random(3)
        for _ in range(300):
            h = self.random_hword(rng, rng.randrange(8))
            expected = Word.identity(self.M.alphabet)
            for f, cell, sign in h:
                w = self.M.attaching_word(cell)
                expected = expected * f * (w if sign == 1 else w.inverse()) * f.inverse()
            assert self.M.hword_boundary(h) == expected

    def test_normal_form_equals_reducing_each_letter_first(self):
        rng = random.Random(4)
        for _ in range(300):
            word = [
                TriadLetter(
                    self.random_word(rng, 2),
                    self.random_hword(rng, rng.randrange(3)),
                    rng.choice("tuv"),
                    rng.choice([1, -1]),
                )
                for _ in range(rng.randrange(6))
            ]
            pieces = [
                reduce_by_pairs(
                    (*l.conj_h, (l.conj_f, l.cell, l.sign), *invert_hword(l.conj_h))
                )
                for l in word
            ]
            expected = reduce_by_pairs(h for piece in pieces for h in piece)
            assert self.M.triad_normal_form(word) == expected

    def test_conjugator_over_another_alphabet_refused(self):
        # ^{a}t ^{a}t^-1 with the first a over [a, b, c]: the two letters do
        # not cancel, and the foreign conjugator is refused.
        a_ab = Alphabet(["a", "b"]).gen("a")
        a_abc = Alphabet(["a", "b", "c"]).gen("a")
        triad = [TriadLetter(a_abc, (), "t", 1), TriadLetter(a_ab, (), "t", -1)]
        with pytest.raises(AlphabetError, match="words over different alphabets"):
            CWComplex(["a", "b"], [("t", "a b a^-1 b^-1")], [("x", triad)])


class TestFileFormat:
    def test_round_trip_catalog(self):
        for name, params in ALL_CATALOG:
            M = catalog(name, **params)
            again = loads(saves(M))
            assert structurally_equal(M, again)

    def test_documented_example(self):
        text = json.dumps(
            {
                "generators": ["a", "b"],
                "two_cells": [{"name": "t", "attach": "a b a^-1 b^-1"}],
            }
        )
        M = loads(text)
        assert structurally_equal(M, catalog("torus2"))

    def test_malformed_exponent(self):
        text = json.dumps(
            {"generators": ["a"], "two_cells": [{"name": "t", "attach": "a^x"}]}
        )
        with pytest.raises(Exception):
            loads(text)

    def test_unknown_two_cell_in_triad(self):
        text = json.dumps(
            {
                "generators": ["a"],
                "two_cells": [{"name": "t", "attach": ""}],
                "three_cells": [
                    {
                        "name": "x",
                        "attach": [
                            {"f": "", "h": [], "cell": "zz", "sign": 1},
                        ],
                    }
                ],
            }
        )
        with pytest.raises(ComplexError):
            loads(text)

    def test_unknown_keys_rejected(self):
        text = json.dumps({"generators": ["a"], "two_cells": [], "extra": 1})
        with pytest.raises(ComplexError):
            loads(text)

    def test_parse_error_position(self):
        with pytest.raises(ComplexError) as err:
            loads("{not json")
        assert "line" in str(err.value)

    def test_duplicate_cell_names(self):
        with pytest.raises(ComplexError):
            CWComplex(["a"], [("t", "a^2"), ("t", "")])
