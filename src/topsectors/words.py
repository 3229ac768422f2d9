"""Free-group word arithmetic and abelianised Fox derivatives as run terms.

Words are stored run-length as ``(generator, exponent)`` syllables, always
freely reduced, so attaching words like ``a^p b^-q`` stay compact for large
exponents.  Their Fox derivatives stay compact too: one run term per
syllable, not one key per letter.  Alphabets and words are immutable and
hashable; every operation is pure.

Text syntax (used by all file formats and the CLI): whitespace-separated
tokens ``name`` or ``name^k`` with ``k`` a nonzero integer read by
:func:`decimal`, e.g. ``a b a^-1 b^-1``.  The empty string is the identity.
"""

from __future__ import annotations

import sys
from typing import Hashable, Iterable, Iterator, NamedTuple

from .errors import InputError


class AlphabetError(InputError):
    """Unknown generator, or an operation mixing two different alphabets."""


class WordSyntaxError(ValueError, InputError):
    """Malformed word text."""


def decimal(text: str) -> int:
    """``text`` read as ASCII decimal digits with an optional leading '-',
    the one integer syntax of word exponents and CLI parameters.  Other text
    that ``int`` reads ('+', '_', spaces, other scripts' digits) is a
    WordSyntaxError; a value over Python's limit on the digits of an int read
    from text (4300 by default) is an InputError, so reading stays bounded."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise WordSyntaxError(f"not a decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise InputError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


class Alphabet:
    """An ordered set of named free-group generators."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if any(not isinstance(n, str) or not n for n in names):
            raise AlphabetError("generator names must be nonempty strings")
        if len(set(names)) != len(names):
            raise AlphabetError("generator names must be pairwise distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def word(self, text: str) -> "Word":
        return Word.parse(self, text)

    def gen(self, name: str) -> "Word":
        self.index(name)
        return Word(self, ((name, 1),))


def _merge_runs(runs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Freely reduce a syllable sequence with a stack of merged runs.

    Adjacent runs of the same generator are merged; a run cancelling to
    exponent 0 is popped, which may expose a new mergeable pair below.
    """
    out: list[tuple[str, int]] = []
    for name, exp in runs:
        while exp and out and out[-1][0] == name:
            exp += out.pop()[1]
        if exp:
            out.append((name, exp))
    return tuple(out)


class Word:
    """A freely reduced word in the free group on an :class:`Alphabet`."""

    __slots__ = ("alphabet", "runs")

    def __init__(self, alphabet: Alphabet, runs: Iterable[tuple[str, int]] = ()):
        runs = _merge_runs(runs)
        for name, _ in runs:
            alphabet.index(name)
        self.alphabet = alphabet
        self.runs = runs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(alphabet: Alphabet) -> "Word":
        return Word(alphabet, ())

    @staticmethod
    def parse(alphabet: Alphabet, text: str) -> "Word":
        runs = []
        for token in text.split():
            if "^" in token:
                name, _, exp_text = token.partition("^")
                try:
                    exp = decimal(exp_text)
                except WordSyntaxError:
                    raise WordSyntaxError(
                        f"bad exponent in token {token!r}: expected a decimal integer"
                    ) from None
                if exp == 0:
                    raise WordSyntaxError(f"zero exponent in token {token!r}")
            else:
                name, exp = token, 1
            if not name:
                raise WordSyntaxError(f"empty generator name in token {token!r}")
            runs.append((name, exp))
        return Word(alphabet, runs)

    # -- group operations --------------------------------------------------

    def _check(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetError("words over different alphabets")

    def __mul__(self, other: "Word") -> "Word":
        self._check(other)
        return Word(self.alphabet, self.runs + other.runs)

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple((n, -e) for n, e in reversed(self.runs)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity(self.alphabet)
        base = self if n > 0 else self.inverse()
        if len(base.runs) == 1:
            name, exp = base.runs[0]
            return Word(self.alphabet, ((name, exp * abs(n)),))
        out = Word.identity(self.alphabet)
        for _ in range(abs(n)):
            out = out * base
        return out

    def conjugate_by(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inverse()

    # -- queries -----------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.runs

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def letters(self) -> Iterator[tuple[str, int]]:
        """Expand to single letters (name, +-1), left to right."""
        for name, exp in self.runs:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (name, step)

    def exponent_sums(self) -> tuple[int, ...]:
        sums = [0] * len(self.alphabet)
        for name, exp in self.runs:
            sums[self.alphabet.index(name)] += exp
        return tuple(sums)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.runs == other.runs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.runs))

    def __str__(self) -> str:
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.runs)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def collect(terms: Iterable[tuple[Hashable, int]]) -> dict:
    """Merge a list of ``(key, coefficient)`` terms: sum the coefficients of
    equal keys and drop the keys whose sum is 0."""
    out: dict = {}
    for key, coeff in terms:
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


class Run(NamedTuple):
    """A run term of Z[Z^n]: ``coeff * (t^v + t^(v + e) + ... + t^(v + (length - 1) e))``
    with v = ``start`` (exponent sums over the alphabet) and e the unit
    vector of the 1-cell with index ``gen``.  A term of length 1 is the
    single key ``coeff * t^start``; its ``gen`` is never read."""

    start: tuple[int, ...]
    gen: int
    length: int
    coeff: int


def fox_derivative(w: Word, gen: str) -> tuple[Run, ...]:
    """Abelianised free (Fox) derivative of ``w`` with respect to ``gen``.

    The Fox derivative satisfies d(uv) = du + u . dv, d(a)/da = 1,
    d(b)/da = 0 for b != a, and d(a^-1)/da = -a^-1.  Each prefix u that it
    produces is kept only as its exponent-sum vector over the alphabet, so
    the result lies in Z[Z^n].  A syllable a^n of ``gen`` contributes the
    geometric sum of its prefixes as one :class:`Run`, never expanded:
    d(a^n)/da = 1 + a + ... + a^(n-1) for n > 0, and
    -(a^-1 + ... + a^n) for n < 0.  This is exact wherever the derivative
    is evaluated through an abelian group.
    """
    alphabet = w.alphabet
    g = alphabet.index(gen)
    prefix = [0] * len(alphabet)
    terms: list[Run] = []
    for name, exp in w.runs:
        i = alphabet.index(name)
        if i == g:
            start = prefix[:]
            start[g] += min(exp, 0)
            terms.append(Run(tuple(start), g, abs(exp), 1 if exp > 0 else -1))
        prefix[i] += exp
    return tuple(terms)
