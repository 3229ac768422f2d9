import random

import pytest

from topsectors.errors import InputError
from topsectors.words import (
    Alphabet,
    AlphabetError,
    Word,
    Run,
    WordSyntaxError,
    collect,
    decimal,
    fox_derivative,
)

from runterms import expand, letters

AB = Alphabet(["a", "b"])
A = AB.gen("a")
B = AB.gen("b")
E = Word.identity(AB)

# Elements of the group ring Z[Z^n] are maps {exponent vector: coefficient}
# without zero coefficients; t^v is the basis element of the vector v.


def add(*elems):
    out = {}
    for elem in elems:
        for key, c in elem.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def shift(elem, v):
    """t^v * elem."""
    return {tuple(x + y for x, y in zip(key, v)): c for key, c in elem.items()}


def naive_fox(letters, gen, alphabet):
    """Independent oracle: apply the derivative axioms letter by letter,
    d(xw) = d(x) + t^x d(w) with d(a) = 1 and d(a^-1) = -t^-a."""
    if not letters:
        return {}
    (name, sign), rest = letters[0], letters[1:]
    step = tuple(sign if g == name else 0 for g in alphabet.names)
    if name != gen:
        d_head = {}
    elif sign == 1:
        d_head = {(0,) * len(alphabet): 1}
    else:
        d_head = {step: -1}
    return add(d_head, shift(naive_fox(rest, gen, alphabet), step))


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
        assert Word(AB, [("a", 1), ("b", 1), ("b", -1), ("a", 1)]) == AB.word("a^2")

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

    @pytest.mark.parametrize("exponent", ["1_0", "+3", "\u0663", "", "-", "--3", "3.0"])
    def test_exponent_is_ascii_decimal(self, exponent):
        # int() reads "1_0" as 10, and "+3" and the Arabic-Indic three as 3.
        with pytest.raises(WordSyntaxError, match="bad exponent"):
            AB.word(f"a^{exponent}")

    def test_over_limit_exponent(self):
        with pytest.raises(InputError, match="more than 4300 digits"):
            AB.word("a^" + "7" * 5000)


class TestDecimal:
    @pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("42", 42), ("-007", -7)])
    def test_reads_ascii_decimal(self, text, value):
        assert decimal(text) == value

    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "3 ", "", "-", "0x1", "1e3"])
    def test_refuses_other_int_syntax(self, text):
        with pytest.raises(ValueError, match="not a decimal integer"):
            decimal(text)

    def test_over_limit_is_an_input_error(self):
        # Not a ValueError, so that argparse does not echo the 5000 digits.
        with pytest.raises(InputError) as info:
            decimal("-" + "7" * 5000)
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == "an integer has more than 4300 digits"


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
        assert expand(fox_derivative(AB.word("a^2"), "a")) == {(0, 0): 1, (1, 0): 1}

    def test_commutator(self):
        # d(aba^-1b^-1)/da = 1 - a b a^-1, and a b a^-1 has exponent sums (0, 1)
        assert expand(fox_derivative(AB.word("a b a^-1 b^-1"), "a")) == {(0, 0): 1, (0, 1): -1}
        # d(aba^-1b^-1)/db = a - a b a^-1 b^-1
        assert expand(fox_derivative(AB.word("a b a^-1 b^-1"), "b")) == {(1, 0): 1, (0, 0): -1}

    def test_other_generator(self):
        assert expand(fox_derivative(B, "a")) == {}
        assert expand(fox_derivative(AB.word("b^5"), "a")) == {}

    def test_negative_powers(self):
        # d(a^-2)/da = -a^-1 - a^-2
        assert expand(fox_derivative(AB.word("a^-2"), "a")) == {(-1, 0): -1, (-2, 0): -1}

    def test_long_run(self):
        # d(a^20000 b^-3)/da = 1 + a + ... + a^19999
        w = AB.word("a^20000 b^-3")
        assert expand(fox_derivative(w, "a")) == {(j, 0): 1 for j in range(20000)}
        # ... kept as one run term, not 20000 keys
        assert fox_derivative(w, "a") == (Run((0, 0), 0, 20000, 1),)
        # d(a^20000 b^-3)/db = -a^20000 (b^-1 + b^-2 + b^-3)
        assert expand(fox_derivative(w, "b")) == {(20000, -j): -1 for j in (1, 2, 3)}

    def test_matches_letterwise_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            w = random_word(rng, AB)
            for g in AB.names:
                assert expand(fox_derivative(w, g)) == naive_fox(letters(w), g, AB)

    def test_product_rule(self):
        # d(uv) = d(u) + t^sigma(u) d(v)
        rng = random.Random(31)
        for _ in range(200):
            u, v = random_word(rng, AB), random_word(rng, AB)
            for g in AB.names:
                lhs = expand(fox_derivative(u * v, g))
                rhs = add(
                    expand(fox_derivative(u, g)),
                    shift(expand(fox_derivative(v, g)), u.exponent_sums()),
                )
                assert lhs == rhs

    def test_fundamental_identity(self):
        # sum_g d_g(w) (t_g - 1) = t^sigma(w) - 1 in Z[Z^n]
        rng = random.Random(43)
        for _ in range(200):
            w = random_word(rng, AB)
            total = {}
            for g in AB.names:
                d = expand(fox_derivative(w, g))
                minus_d = {key: -c for key, c in d.items()}
                total = add(total, shift(d, AB.gen(g).exponent_sums()), minus_d)
            assert total == add({w.exponent_sums(): 1}, {(0, 0): -1})

    def test_augmentation_equals_exponent_sum(self):
        rng = random.Random(59)
        for _ in range(200):
            w = random_word(rng, AB)
            sums = w.exponent_sums()
            for i, g in enumerate(AB.names):
                assert sum(expand(fox_derivative(w, g)).values()) == sums[i]


class TestGroupRing:
    """``collect`` normalises a list of group-ring terms: it merges equal
    keys, which is how a Fox derivative is projected to labels."""

    def test_zero_coefficients_dropped(self):
        assert collect([((1, 0), 1), ((1, 0), -1)]) == {}
        assert collect([]) == {}

    def test_projection_merges(self):
        fox = {(0, 0): 1, (2, 0): 1, (1, 0): 3}
        parity = lambda v: sum(v) % 2
        assert collect((parity(v), c) for v, c in fox.items()) == {0: 2, 1: 3}

    def test_projection_drops_cancelling(self):
        fox = {(0, 0): 1, (2, 0): -1}
        parity = lambda v: sum(v) % 2
        assert collect((parity(v), c) for v, c in fox.items()) == {}
