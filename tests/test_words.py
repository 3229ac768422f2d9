import random

import pytest

from topsectors.words import (
    Alphabet,
    AlphabetError,
    GroupRingElement,
    Word,
    WordSyntaxError,
    fox_derivative,
)

AB = Alphabet(["a", "b"])
A = AB.gen("a")
B = AB.gen("b")
E = Word.identity(AB)


def naive_fox(letters, gen, alphabet):
    """Independent oracle: apply the derivative axioms letter by letter."""
    if not letters:
        return GroupRingElement.zero(alphabet)
    (name, sign), rest = letters[0], letters[1:]
    head = Word(alphabet, ((name, sign),))
    if name != gen:
        d_head = GroupRingElement.zero(alphabet)
    elif sign == 1:
        d_head = GroupRingElement.of(Word.identity(alphabet))
    else:
        d_head = GroupRingElement.of(head, -1)
    return d_head + naive_fox(rest, gen, alphabet).left_translate(head)


def random_word(rng, alphabet, max_len=8):
    letters = [
        (rng.choice(alphabet.names), rng.choice([1, -1]))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(alphabet, letters)


class TestReduce:
    def test_cancellation(self):
        assert Word(AB, [("a", 1), ("a", -1)]) == E

    def test_inner_cancellation(self):
        assert Word(AB, [("a", 1), ("b", 1), ("b", -1), ("a", 1)]) == A**2

    def test_already_reduced(self):
        w = Word(AB, [("a", 1), ("b", 1), ("a", -1), ("b", -1)])
        assert w.runs == (("a", 1), ("b", 1), ("a", -1), ("b", -1))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            w = random_word(rng, AB)
            assert Word(AB, w.runs) == w

    def test_unknown_generator(self):
        with pytest.raises(AlphabetError):
            Word(AB, [("c", 1)])


class TestGroupOps:
    def test_mul_inverse(self):
        assert A * A.inverse() == E

    def test_conj(self):
        assert B.conjugate_by(A) == AB.word("a b a^-1")

    def test_inv_antihomomorphism(self):
        assert (A * B).inverse() == AB.word("b^-1 a^-1")

    def test_mul_associative_random(self):
        rng = random.Random(11)
        for _ in range(100):
            u, v, w = (random_word(rng, AB) for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * u.inverse() == E

    def test_alphabet_mismatch(self):
        other = Alphabet(["x"])
        with pytest.raises(AlphabetError):
            A * other.gen("x")

    def test_pow(self):
        assert A**3 == AB.word("a^3")
        assert (A * B) ** -1 == AB.word("b^-1 a^-1")
        assert (A * B) ** 2 == AB.word("a b a b")


class TestText:
    def test_parse_print_round_trip(self):
        for text in ["", "a", "a^-1", "a b a^-1 b^-1", "a^3 b^-2"]:
            assert str(AB.word(text)) == text

    def test_parse_reduces(self):
        assert AB.word("a a^-1 b") == B

    def test_bad_exponent(self):
        with pytest.raises(WordSyntaxError):
            AB.word("a^x")

    def test_zero_exponent(self):
        with pytest.raises(WordSyntaxError):
            AB.word("a^0")


class TestExponentSums:
    def test_commutator(self):
        assert AB.word("a b a^-1 b^-1").exponent_sums() == (0, 0)

    def test_power(self):
        single = Alphabet(["a"])
        assert single.word("a^2").exponent_sums() == (2,)

    def test_mixed(self):
        assert AB.word("a^3 b^-1").exponent_sums() == (3, -1)

    def test_additive(self):
        rng = random.Random(5)
        for _ in range(100):
            u, v = random_word(rng, AB), random_word(rng, AB)
            su, sv = u.exponent_sums(), v.exponent_sums()
            assert (u * v).exponent_sums() == tuple(x + y for x, y in zip(su, sv))


class TestFoxDerivative:
    def test_square(self):
        # d(a^2)/da = 1 + a
        expected = GroupRingElement(AB, {E: 1, A: 1})
        assert fox_derivative(AB.word("a^2"), "a") == expected

    def test_commutator(self):
        # d(aba^-1b^-1)/da = 1 - a b a^-1
        expected = GroupRingElement(AB, {E: 1, AB.word("a b a^-1"): -1})
        assert fox_derivative(AB.word("a b a^-1 b^-1"), "a") == expected

    def test_other_generator(self):
        assert fox_derivative(B, "a").is_zero

    def test_negative_powers(self):
        # d(a^-2)/da = -a^-1 - a^-2
        expected = GroupRingElement(AB, {AB.word("a^-1"): -1, AB.word("a^-2"): -1})
        assert fox_derivative(AB.word("a^-2"), "a") == expected

    def test_matches_letterwise_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            w = random_word(rng, AB)
            for g in AB.names:
                assert fox_derivative(w, g) == naive_fox(list(w.letters()), g, AB)

    def test_product_rule(self):
        rng = random.Random(31)
        for _ in range(200):
            u, v = random_word(rng, AB), random_word(rng, AB)
            for g in AB.names:
                lhs = fox_derivative(u * v, g)
                rhs = fox_derivative(u, g) + fox_derivative(v, g).left_translate(u)
                assert lhs == rhs

    def test_fundamental_identity(self):
        # w - 1 = sum_a fox(w, a) (a - 1) in the group ring
        rng = random.Random(43)
        for _ in range(200):
            w = random_word(rng, AB)
            total = GroupRingElement.zero(AB)
            for g in AB.names:
                d = fox_derivative(w, g)
                total = total + d.right_translate(AB.gen(g)) - d
            expected = GroupRingElement.of(w) - GroupRingElement.of(E)
            assert total == expected

    def test_augmentation_equals_exponent_sum(self):
        rng = random.Random(59)
        for _ in range(200):
            w = random_word(rng, AB)
            sums = w.exponent_sums()
            for i, g in enumerate(AB.names):
                assert fox_derivative(w, g).augmentation() == sums[i]


class TestGroupRing:
    def test_zero_coefficients_dropped(self):
        elem = GroupRingElement(AB, {A: 1}) - GroupRingElement(AB, {A: 1})
        assert elem.is_zero
        assert elem.terms == {}

    def test_projection_merges(self):
        elem = GroupRingElement(AB, {E: 1, A**2: 1, A: 3})
        parity = lambda w: sum(w.exponent_sums()) % 2
        assert elem.project(parity) == {0: 2, 1: 3}

    def test_projection_drops_cancelling(self):
        elem = GroupRingElement(AB, {E: 1, A**2: -1})
        parity = lambda w: sum(w.exponent_sums()) % 2
        assert elem.project(parity) == {}
