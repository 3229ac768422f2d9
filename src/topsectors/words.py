"""Free-group word arithmetic and Fox derivatives.

Words are stored run-length as ``(generator, exponent)`` syllables, always
freely reduced, so attaching words like ``a^p b^-q`` stay compact for large
exponents.  All values are immutable and hashable; every operation is pure.

Text syntax (used by all file formats and the CLI): whitespace-separated
tokens ``name`` or ``name^k`` with ``k`` a nonzero decimal integer, e.g.
``a b a^-1 b^-1``.  The empty string is the identity.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping


class AlphabetError(Exception):
    """Unknown generator, or an operation mixing two different alphabets."""


class WordSyntaxError(ValueError):
    """Malformed word text."""


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
                    exp = int(exp_text)
                except ValueError:
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


class GroupRingElement:
    """A finite integer combination of words: an element of Z[F].

    Stored as a map from reduced words to nonzero coefficients.  Supports
    addition, negation, left/right translation by a word, and projection
    along a caller-supplied canonicalization Word -> label (this module
    never decides word problems itself).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, int] | None = None):
        self.alphabet = alphabet
        clean: dict[Word, int] = {}
        for word, coeff in (terms or {}).items():
            if word.alphabet != alphabet:
                raise AlphabetError("group ring term over a different alphabet")
            if coeff:
                clean[word] = clean.get(word, 0) + coeff
                if not clean[word]:
                    del clean[word]
        self.terms = clean

    @staticmethod
    def zero(alphabet: Alphabet) -> "GroupRingElement":
        return GroupRingElement(alphabet)

    @staticmethod
    def of(word: Word, coeff: int = 1) -> "GroupRingElement":
        return GroupRingElement(word.alphabet, {word: coeff})

    def _check(self, other: "GroupRingElement") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetError("group ring elements over different alphabets")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return GroupRingElement(self.alphabet, terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scaled(self, n: int) -> "GroupRingElement":
        return GroupRingElement(self.alphabet, {w: n * c for w, c in self.terms.items()})

    def left_translate(self, g: Word) -> "GroupRingElement":
        """g * self."""
        return GroupRingElement(self.alphabet, {g * w: c for w, c in self.terms.items()})

    def right_translate(self, g: Word) -> "GroupRingElement":
        """self * g."""
        return GroupRingElement(self.alphabet, {w * g: c for w, c in self.terms.items()})

    def augmentation(self) -> int:
        """Sum of coefficients (image under F -> 1)."""
        return sum(self.terms.values())

    def project(self, canon: Callable[[Word], object]) -> dict:
        """Push forward along a quotient: replace each word by its canonical
        label and merge coefficients."""
        out: dict = {}
        for word, coeff in self.terms.items():
            label = canon(word)
            out[label] = out.get(label, 0) + coeff
            if not out[label]:
                del out[label]
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        bits = []
        for word in sorted(self.terms, key=lambda w: (len(w), str(w))):
            coeff = self.terms[word]
            name = str(word) if not word.is_identity else "1"
            bits.append(f"{coeff}*[{name}]")
        return "GroupRingElement(" + " + ".join(bits) + ")"


def fox_derivative(w: Word, gen: str) -> GroupRingElement:
    """Free (Fox) derivative of ``w`` with respect to the generator ``gen``.

    Satisfies d(uv) = du + u . dv, d(a)/da = 1, d(b)/da = 0 for b != a, and
    d(a^-1)/da = -a^-1; these rules determine it on all reduced words.
    """
    alphabet = w.alphabet
    alphabet.index(gen)
    result = GroupRingElement.zero(alphabet)
    prefix = Word.identity(alphabet)
    for name, exp in w.runs:
        if name == gen:
            # d(a^n)/da = sum_{i=0}^{n-1} a^i   for n > 0
            #           = -sum_{i=1}^{|n|} a^-i for n < 0
            step = 1 if exp > 0 else -1
            terms: dict[Word, int] = {}
            for i in range(abs(exp)):
                power = i if exp > 0 else -(i + 1)
                word = prefix * Word(alphabet, ((gen, power),)) if power else prefix
                terms[word] = terms.get(word, 0) + step
            result = result + GroupRingElement(alphabet, terms)
        prefix = prefix * Word(alphabet, ((name, exp),))
    return result
