"""Reduced CW complexes of dimension <= 3 and the catalog of model spaces.

A complex has exactly one (implicit) 0-cell, named 1-cells, 2-cells attached
by reduced words in the 1-cells, and 3-cells attached by triad words: products
of conjugated 2-cell generators that land in the intersection of the two
canonical relative subgroups of the semidirect group F |x H.  Membership is
checked on construction, so every held complex is valid.  The Fox table
and triad images that the twisted routes read are the complex's own, taken
once on first use.  ``loads`` and ``saves`` read and write a complex's JSON
text; ``decode_json`` decodes every JSON text from outside, for the CLI too.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .words import Alphabet, AlphabetError, Run, Word, collect, fox_derivative

# An HWord is a freely reduced word in the generators (f, t) of the free
# pre-crossed module: a tuple of (conjugator word, 2-cell name, sign).
HLetter = tuple[Word, str, int]
HWord = tuple[HLetter, ...]


class ComplexError(InputError):
    """Structural problem in a CW complex or its file form."""


@dataclass(frozen=True)
class TriadLetter:
    """One factor of a triad attaching word: a 2-cell generator conjugated
    by a group element (conj_f, conj_h) of F |x H, raised to sign +-1."""

    conj_f: Word
    conj_h: HWord
    cell: str
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ComplexError(f"triad letter sign must be +-1, got {self.sign}")


TriadWord = tuple[TriadLetter, ...]


@dataclass(frozen=True)
class TriadViolation:
    """Failed H-bar membership: the residual boundary word and the index of
    the letter after which the running boundary never returns to identity."""

    index: int
    residual: Word

    def __str__(self) -> str:
        return (
            f"triad word leaves H-bar at letter {self.index}: "
            f"boundary residue '{self.residual}' != identity"
        )


def reduce_hword(letters: Iterable[HLetter]) -> HWord:
    """Freely reduce a word in the generators (conjugator, cell)."""
    out: list[HLetter] = []
    for f, cell, sign in letters:
        if sign not in (1, -1):
            raise ComplexError(f"H-word letter sign must be +-1, got {sign}")
        if out and out[-1][0] == f and out[-1][1] == cell and out[-1][2] == -sign:
            out.pop()
        else:
            out.append((f, cell, sign))
    return tuple(out)


def invert_hword(word: HWord) -> HWord:
    return tuple((f, cell, -sign) for f, cell, sign in reversed(word))


class CWComplex:
    """A reduced CW complex: alphabet of 1-cells, attached 2- and 3-cells."""

    def __init__(
        self,
        generators: Iterable[str],
        two_cells: Iterable[tuple[str, Word | str]],
        three_cells: Iterable[tuple[str, Sequence[TriadLetter]]] = (),
        name: str | None = None,
    ):
        self.alphabet = Alphabet(generators)
        self.name = name

        cells: list[tuple[str, Word]] = []
        seen: set[str] = set(self.alphabet.names)
        for cell_name, attach in two_cells:
            if cell_name in seen:
                raise ComplexError(f"duplicate cell name {cell_name!r}")
            seen.add(cell_name)
            word = attach if isinstance(attach, Word) else self.alphabet.word(attach)
            if word.alphabet != self.alphabet:
                raise AlphabetError("attaching word over a different alphabet")
            cells.append((cell_name, word))
        self.two_cells = tuple(cells)
        self._attach = dict(self.two_cells)

        triads: list[tuple[str, TriadWord]] = []
        for cell_name, letters in three_cells:
            if cell_name in seen:
                raise ComplexError(f"duplicate cell name {cell_name!r}")
            seen.add(cell_name)
            triads.append((cell_name, tuple(letters)))
        self.three_cells = tuple(triads)

        for cell_name, word in self.three_cells:
            verdict = validate_triad(self, word)
            if verdict is not None:
                raise ComplexError(f"3-cell {cell_name!r}: {verdict}")

    # -- structure ------------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.three_cells:
            return 3
        if self.two_cells:
            return 2
        return 1 if len(self.alphabet) else 0

    def attaching_word(self, cell: str) -> Word:
        try:
            return self._attach[cell]
        except KeyError:
            raise ComplexError(f"unknown 2-cell {cell!r}") from None

    def two_cell_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.two_cells)

    def three_cell_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.three_cells)

    def cell_counts(self) -> tuple[int, int, int]:
        return (len(self.alphabet), len(self.two_cells), len(self.three_cells))

    def __repr__(self) -> str:
        label = self.name or "complex"
        n1, n2, n3 = self.cell_counts()
        return f"CWComplex({label}: {n1} one-cells, {n2} two-cells, {n3} three-cells)"

    # -- semidirect normal form ------------------------------------------------

    def hword_boundary(self, word: HWord) -> Word:
        """Image of an H-word under the free pre-crossed boundary
        (f, t) -> f sigma_2(t) f^-1, reduced in the free group on 1-cells."""
        out = Word.identity(self.alphabet)
        for f, cell, sign in word:
            piece = self.attaching_word(cell).conjugate_by(f)
            out = out * (piece if sign == 1 else piece.inverse())
        return out

    def triad_normal_form(self, word: TriadWord) -> HWord:
        """The H-component of a triad word in F |x H.

        Each letter is an H-element conjugated inside the semidirect group,
        so the F-component of the product is always the identity; the
        H-component is the concatenation of the conjugated letters.
        """
        h: list[HLetter] = []
        for letter in word:
            if letter.cell not in self._attach:
                raise ComplexError(f"unknown 2-cell {letter.cell!r} in triad word")
            core: HWord = ((letter.conj_f, letter.cell, letter.sign),)
            conjugated = reduce_hword(
                tuple(letter.conj_h) + core + invert_hword(letter.conj_h)
            )
            h.extend(conjugated)
        return reduce_hword(h)

    # -- Fox calculus ----------------------------------------------------------

    @functools.cached_property
    def fox(self) -> dict[tuple[str, str], tuple[Run, ...]]:
        """The Fox derivative of each 2-cell's attaching word by each 1-cell,
        as run terms (one per syllable of the 1-cell), keyed by (2-cell,
        1-cell)."""
        return {
            (cell, gen): fox_derivative(word, gen)
            for cell, word in self.two_cells
            for gen in self.alphabet.names
        }

    @functools.cached_property
    def triad_images(self) -> dict[str, dict[str, tuple[Run, ...]]]:
        """The derivation image of each 3-cell's H-word, by 3-cell name and
        2-cell name, as run terms of length 1: one per exponent-sum key."""
        return {
            name: {
                cell: tuple(Run(sums, 0, 1, c) for sums, c in terms.items())
                for cell, terms in derivation_image(
                    self, self.triad_normal_form(triad), Word.exponent_sums
                ).items()
            }
            for name, triad in self.three_cells
        }


def validate_triad(M: CWComplex, word: TriadWord) -> TriadViolation | None:
    """Check that a triad word lies in H-bar as well as H.

    Membership in H is automatic (the letters are conjugated H-elements);
    membership in H-bar holds iff the F-component equals the boundary of the
    inverse H-component, which here reduces to the H-component having trivial
    free pre-crossed boundary.  Returns None on success.
    """
    h = M.triad_normal_form(word)
    if M.hword_boundary(h).is_identity:
        return None
    # Free reduction keeps the boundary, so a prefix's boundary is the
    # product of its letters'.  Note the last prefix that closes up.
    index = 0
    running = Word.identity(M.alphabet)
    for i, letter in enumerate(word):
        core = ((letter.conj_f, letter.cell, letter.sign),)
        conj_h = tuple(letter.conj_h)
        running = running * M.hword_boundary(conj_h + core + invert_hword(conj_h))
        if running.is_identity:
            index = i + 1
    return TriadViolation(index=min(index, len(word) - 1), residual=running)


def derivation_image(M: CWComplex, w: HWord, proj: Callable[[Word], object]) -> dict[str, dict]:
    """Abelianized image of an H-word in the free module Z[pi_1]^{2-cells}.

    A letter (f, t, s) contributes s * proj(f) * e_t; the result maps each
    2-cell name to a dict {label: coefficient}.  Conjugation by H-elements
    and all Peiffer commutators die here, which is exactly what makes the
    image a cellular chain.
    """
    names = M.two_cell_names()
    for _, cell, _ in w:
        if cell not in names:
            raise ComplexError(f"unknown 2-cell {cell!r}")
    return {
        name: collect((proj(f), sign) for f, cell, sign in w if cell == name)
        for name in names
    }


# -- catalog -------------------------------------------------------------------


def _t(alphabet: Alphabet, f: str, cell: str, sign: int) -> TriadLetter:
    return TriadLetter(alphabet.word(f), (), cell, sign)


# The parameters of each catalog space, in order.
CATALOG_PARAMS: dict[str, tuple[str, ...]] = {
    "circle_wedge": ("n",), "genus_surface": ("g",), "torus_knot": ("p", "q"),
    **dict.fromkeys(
        ("sphere2", "torus2", "rp2", "klein_bottle", "s1_wedge_s2", "torus3", "s1_x_s2"), ()
    ),
}


def catalog(name: str, **params) -> CWComplex:
    """Model spaces with their standard reduced CW structures.

    Names: circle_wedge(n), sphere2, torus2, rp2, genus_surface(g >= 1),
    torus_knot(p >= 1, q >= 1), klein_bottle (= torus_knot(2, 2)),
    s1_wedge_s2, torus3, s1_x_s2.  Parameters are ints, passed by keyword.
    """
    if name not in CATALOG_PARAMS:
        raise ComplexError(f"unknown catalog space {name!r}")
    values = catalog_params(name, params, CATALOG_PARAMS[name])
    if name == "circle_wedge":
        (n,) = values
        if n < 0:
            raise ComplexError("circle_wedge needs n >= 0")
        return CWComplex([f"a{i + 1}" for i in range(n)], [], name=f"circle_wedge({n})")

    if name == "sphere2":
        return CWComplex([], [("t", "")], name="sphere2")

    if name == "torus2":
        return CWComplex(["a", "b"], [("t", "a b a^-1 b^-1")], name="torus2")

    if name == "rp2":
        return CWComplex(["a"], [("t", "a^2")], name="rp2")

    if name == "genus_surface":
        (g,) = values
        if g < 1:
            raise ComplexError("genus_surface needs g >= 1")
        gens = []
        for i in range(1, g + 1):
            gens += [f"a{i}", f"b{i}"]
        relator = " ".join(
            f"a{i} b{i} a{i}^-1 b{i}^-1" for i in range(1, g + 1)
        )
        return CWComplex(gens, [("t", relator)], name=f"genus_surface({g})")

    if name == "torus_knot":
        p, q = values
        if p < 1 or q < 1:
            raise ComplexError("torus_knot needs p, q >= 1")
        return CWComplex(
            ["a", "b"], [("t", f"a^{p} b^-{q}")], name=f"torus_knot({p},{q})"
        )

    if name == "klein_bottle":
        M = catalog("torus_knot", p=2, q=2)
        M.name = "klein_bottle"
        return M

    if name == "s1_wedge_s2":
        return CWComplex(["a"], [("t", "")], name="s1_wedge_s2")

    if name == "torus3":
        gens = ["a", "b", "c"]
        two = [
            ("t", "b c b^-1 c^-1"),
            ("u", "c a c^-1 a^-1"),
            ("v", "a b a^-1 b^-1"),
        ]
        alphabet = Alphabet(gens)
        sigma3 = [
            _t(alphabet, "", "t", 1),
            _t(alphabet, "c", "v", -1),
            _t(alphabet, "", "u", 1),
            _t(alphabet, "a", "t", -1),
            _t(alphabet, "", "v", 1),
            _t(alphabet, "b", "u", -1),
        ]
        return CWComplex(gens, two, [("x", sigma3)], name="torus3")

    # s1_x_s2, the one name left
    alphabet = Alphabet(["a"])
    sigma3 = [_t(alphabet, "", "t", 1), _t(alphabet, "a", "t", -1)]
    return CWComplex(["a"], [("t", "")], [("x", sigma3)], name="s1_x_s2")


def catalog_params(
    name: str, params: dict, names: Sequence[str] = (), error: type[Exception] = ComplexError
) -> list[int]:
    """The values of a catalog entry's parameters ``names``, in that order.
    A missing, unexpected or non-int parameter (a bool is not an int) raises
    ``error`` naming it and the expected ones."""
    expected = f"(expected parameters: {', '.join(names) or 'none'})"
    odd = sorted(set(names) ^ set(params))
    if odd:
        problem = "unexpected" if odd[0] in params else "missing"
        raise error(f"{name}: {problem} parameter {odd[0]!r} {expected}")
    for key in names:
        value = params[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{name} parameter {key!r} must be an int, got {value!r} {expected}")
    return [params[key] for key in names]


# -- file format ----------------------------------------------------------------

FILE_KEYS = {"generators", "two_cells", "three_cells", "name"}
_TWO_KEYS = {"name", "attach"}
_TRIAD_KEYS = {"f", "h", "cell", "sign"}
_H_KEYS = {"f", "cell", "sign"}


def _triad_letter_from_json(alphabet: Alphabet, obj: dict) -> TriadLetter:
    check_keys(obj, _TRIAD_KEYS, "triad letter")
    h_letters = []
    for h in json_field(obj, "h", list, "triad letter", []):
        check_keys(h, _H_KEYS, "h letter")
        h_letters.append((
            alphabet.word(json_field(h, "f", str, "h letter", "")),
            json_field(h, "cell", str, "h letter"),
            json_field(h, "sign", int, "h letter"),
        ))
    return TriadLetter(
        conj_f=alphabet.word(json_field(obj, "f", str, "triad letter", "")),
        conj_h=tuple(h_letters),
        cell=json_field(obj, "cell", str, "triad letter"),
        sign=json_field(obj, "sign", int, "triad letter"),
    )


def check_keys(obj: dict, allowed: set[str], where: str, error: type = ComplexError) -> None:
    if not isinstance(obj, dict):
        raise error(f"expected an object for {where}")
    unknown = set(obj) - allowed
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")


_REQUIRED = object()
_KIND_NAMES = {list: "a list", str: "a string", int: "an integer", dict: "an object"}


def json_field(
    obj: dict, key: str, kind: type, where: str, default: object = _REQUIRED,
    error: type = ComplexError,
):
    """``obj[key]``, or ``default`` when the key is absent and a default is
    given, refused as ``error`` unless its type is exactly ``kind`` (a list,
    a string, an object, or an int by ``json_int``'s rule: a bool or a float
    is not one)."""
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"missing key {key!r}")
        return default
    if type(obj[key]) is not kind:
        raise error(f"{where} {key!r} must be {_KIND_NAMES[kind]}, got {obj[key]!r}")
    return obj[key]


def json_list_field(
    obj: dict, key: str, convert: Callable, where: str, default: object = _REQUIRED,
    error: type = ComplexError,
):
    """``convert`` of the list ``json_field(obj, key, list, ...)``; a
    ValueError or TypeError from ``convert`` is refused as ``error`` naming
    the field."""
    value = json_field(obj, key, list, where, default, error)
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise error(f"{where} {key!r}: {err}") from None


def decode_json(text: str, prefix: str, where: str, error: type[Exception]):
    """The value of the JSON ``text``.  Text that is not JSON, nests deeper
    than the decoder's recursion limit, or holds an integer longer than
    Python's limit on the digits of an int read from text (4300 by default,
    which keeps decoding bounded) raises ``error`` with a message that starts
    ``prefix: `` and names ``where`` for an over-long integer."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise error(f"{prefix}: {err}") from None
    except ValueError:  # an integer over Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise error(f"{prefix}: an integer in {where} has more than {limit} digits") from None


def loads(text: str) -> CWComplex:
    """Parse a complex from its JSON text form."""
    return from_json(decode_json(text, "bad JSON", "the JSON text", ComplexError))


def from_json(obj: dict) -> CWComplex:
    """A complex from its parsed JSON form."""
    check_keys(obj, FILE_KEYS, "complex")
    generators = json_field(obj, "generators", list, "complex", [])
    if bad := [g for g in generators if type(g) is not str]:
        raise ComplexError(f"complex 'generators' must list strings, got {bad[0]!r}")
    alphabet = Alphabet(generators)
    two = []
    for c in json_field(obj, "two_cells", list, "complex", []):
        check_keys(c, _TWO_KEYS, "two_cell")
        attach = json_field(c, "attach", str, "two_cell", "")
        two.append((json_field(c, "name", str, "two_cell"), alphabet.word(attach)))
    three = []
    for c in json_field(obj, "three_cells", list, "complex", []):
        check_keys(c, {"name", "attach"}, "three_cell")
        attach = json_field(c, "attach", list, "three_cell")
        letters = [_triad_letter_from_json(alphabet, l) for l in attach]
        three.append((json_field(c, "name", str, "three_cell"), letters))
    return CWComplex(generators, two, three, name=json_field(obj, "name", str, "complex", None))


def saves(M: CWComplex) -> str:
    """Canonical JSON text for a complex; ``loads(saves(M))`` equals M."""
    obj: dict = {"generators": list(M.alphabet.names)}
    obj["two_cells"] = [{"name": n, "attach": str(w)} for n, w in M.two_cells]
    if M.three_cells:
        obj["three_cells"] = [
            {
                "name": n,
                "attach": [
                    {
                        "f": str(letter.conj_f),
                        "h": [
                            {"f": str(f), "cell": cell, "sign": sign}
                            for f, cell, sign in letter.conj_h
                        ],
                        "cell": letter.cell,
                        "sign": letter.sign,
                    }
                    for letter in word
                ],
            }
            for n, word in M.three_cells
        ]
    if M.name:
        obj["name"] = M.name
    return json.dumps(obj, indent=2)


def structurally_equal(a: CWComplex, b: CWComplex) -> bool:
    return (
        a.alphabet == b.alphabet
        and a.two_cells == b.two_cells
        and a.three_cells == b.three_cells
    )
