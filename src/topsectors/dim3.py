"""Dimension-3 classification for the 2-sphere target.

The target's crossed square is rigid (all four groups are Z, the side maps
are an identity and a zero pair), which collapses the nonabelian tensor
calculus to integer bilinear algebra: a formal word in tensor and conjugated
3-cell letters evaluates to an integer once every cell carries a value.
The cylinder M x I is built from M's own product cells.  Each of its 4-cell
words reduces, in 3-cell letters, to its own 1-end copy x1, and each of its
tensor letters pairs interval 2-cells with end copies, so the 4-cell over x
says delta_x = -sum_g C_xg(phi2) gI with C(phi2) = sum_c phi2(c) slope_c.
The cylinder reads the slopes once, straight off the words, and refuses any
word that is not of that form.  A sector's classes are then Z^{3-cells}
modulo the columns of C(phi2).  The Pontrjagin cup-product route, with a
cup table read off the triads, provides an independent check.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .complexes import (
    CWComplex,
    HWord,
    TriadLetter,
    TriadWord,
    catalog,
    check_keys,
    json_field,
    json_list_field,
    structurally_equal,
)
from .errors import InputError, UnsupportedError
from .words import Alphabet, Word, collect
from .zlinalg import (
    AbelianGroup,
    AffineLattice,
    IntMatrix,
    Lattice,
    json_ints,
    quotient,
    solve,
)

Vector = tuple[int, ...]


class Dim3Error(InputError):
    pass


class UnsupportedComplexError(Dim3Error, UnsupportedError):
    """A valid complex outside the sphere route's domain: an unsupported
    source, not a malformed one."""


# ---------------------------------------------------------------------------
# Formal words in the triad group of the cylinder
# ---------------------------------------------------------------------------


class TensorLetter:
    """A tensor generator h (x) k of two pre-crossed module words, raised to
    the integer exponent ``sign``."""

    def __init__(self, h: HWord, k: HWord, sign: int):
        self.h = h
        self.k = k
        self.sign = sign

    def _key(self) -> tuple:
        return self.h, self.k, self.sign

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorLetter) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TensorLetter(h={self.h!r}, k={self.k!r}, sign={self.sign!r})"


# A TriadLetter here is a conjugated 3-cell (or cylinder 3-cell) generator.
FormalLWord = tuple[TensorLetter | TriadLetter, ...]


# ---------------------------------------------------------------------------
# Homomorphism lattice (crossed squares into the sphere target)
# ---------------------------------------------------------------------------


def phi2_boundary(M: CWComplex, triad: TriadWord) -> dict[str, int]:
    """Signed count of each 2-cell in a 3-cell's H-word (zero counts
    dropped): phi2 maps the 3-cell's boundary to the sum of phi2(cell) times
    its count, conjugators dropping because the target acts trivially."""
    return collect((cell, sign) for _, cell, sign in M.triad_normal_form(triad))


class XSqHomLayout:
    def __init__(self, two_cells: tuple[str, ...], three_cells: tuple[str, ...]):
        self.two_cells = two_cells
        self.three_cells = three_cells

    @property
    def dim(self) -> int:
        return len(self.two_cells) + len(self.three_cells)


def xsq_hom_lattice(M: CWComplex) -> tuple[XSqHomLayout, AffineLattice]:
    """All crossed-square homomorphisms into the sphere target, as an affine
    lattice in (phi2, phi3) coordinates.

    phi1 is forced trivial (the target has no 1-cells); the only constraints
    are, per 3-cell, that the signed phi2 sum over its triad word vanishes.
    """
    layout = XSqHomLayout(M.two_cell_names(), M.three_cell_names())
    counts = [phi2_boundary(M, triad) for _, triad in M.three_cells]
    phi3_zeros = [0] * len(layout.three_cells)
    rows = [[c.get(cell, 0) for cell in layout.two_cells] + phi3_zeros for c in counts]
    sol = solve(IntMatrix(rows, cols=layout.dim), (0,) * len(rows))
    assert sol is not None
    particular, kernel = sol
    return layout, AffineLattice.from_solution(particular, kernel)


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------


def _check_domain(M: CWComplex) -> None:
    """Refuse a complex outside the sphere route's domain: a 3-complex whose
    relators have zero exponent sums and whose 3-cells leave phi2 free.  On
    it every phi2 is a sector, each interval 3-cell pins one 2-cell's two
    end values together, and every cellular cochain differential is zero."""
    if M.dim != 3:
        raise UnsupportedComplexError("the sphere route needs a 3-complex")
    for name, word in M.two_cells:
        if any(word.exponent_sums()):
            raise UnsupportedComplexError(
                f"2-cell {name} has nonzero exponent sums, so its interval 3-cell"
                " does not pin phi2"
            )
    for name, triad in M.three_cells:
        if counts := phi2_boundary(M, triad):
            raise UnsupportedComplexError(f"3-cell {name} constrains phi2: {counts}")


class CylinderPreset:
    """The based cylinder M x I of a 3-complex: its CW data (doubled cells
    plus interval cells) and the boundary word of each interval 4-cell.

    Cell values on the cylinder: both end copies of a base 2-cell carry its
    phi2 value, the 0-end copy of a base 3-cell x carries 0 and the 1-end
    copy the unknown delta_x, and every interval cell is an unknown.  The
    cylinder reads each 4-cell word once, on construction, into
    ``slopes[x][c]``: the slope of x's relation along the base 2-cell c,
    one entry per interval 2-cell.  The relation then reads
    delta_x = -sum_g C_xg(phi2) gI with C(phi2) = sum_c phi2(c) slopes[.][c].
    """

    def __init__(
        self, base: CWComplex, cylinder: CWComplex, i_two_cells: tuple[str, ...],
        i_three_cells: tuple[str, ...], boundary4: dict[str, FormalLWord],
        end_cell_pairs: dict[str, tuple[str, str]],  # base cell -> (0-end, 1-end)
    ):
        self.base = base
        self.cylinder = cylinder
        self.i_two_cells = i_two_cells
        self.i_three_cells = i_three_cells
        self.boundary4 = boundary4
        self.end_cell_pairs = end_cell_pairs
        self.__post_init__()

    def __post_init__(self):
        """The work of construction: check the interval 3-cells and read
        every 4-cell's slopes, once per cylinder."""
        self._check_phi2_rigidity()
        self.slopes = {
            name: self._read_relation(f"{name}I") for name in self.base.three_cell_names()
        }

    def _check_phi2_rigidity(self) -> None:
        """Every interval 3-cell must force the two phi2 end values of one
        base 2-cell to agree and be free of interval unknowns; this is what
        makes the phi2 assignment a sector invariant."""
        attach = dict(self.cylinder.three_cells)
        pinned = set()
        for name in self.i_three_cells:
            counts = phi2_boundary(self.cylinder, attach[name])
            pins = {
                base
                for base, (end0, end1) in self.end_cell_pairs.items()
                if counts in ({end0: 1, end1: -1}, {end0: -1, end1: 1})
            }
            if not pins:
                raise Dim3Error(f"interval 3-cell {name} does not pin a single 2-cell: {counts}")
            pinned |= pins
        if pinned != set(self.end_cell_pairs):
            raise Dim3Error("interval 3-cells do not pin every base 2-cell")

    def _read_relation(self, name: str) -> dict[str, list[int]]:
        """The slopes of the interval 4-cell ``name`` over ``i_two_cells``,
        one row per base 2-cell.

        The 3-cell letters must reduce to the 4-cell's own 1-end copy x1,
        once: the 0-end copies carry 0, and any other cell that remains is
        refused.  A tensor letter must pair a factor of interval 2-cells
        with a factor of end copies, in either order: each interval cell
        (sign s) and end copy (sign t) add exponent * s * t at the interval
        cell's entry of the slope along the end's base 2-cell.  Any other
        letter makes the relation not linear in phi2.
        """
        index = {c: j for j, c in enumerate(self.i_two_cells)}
        base_of = {end: base for base, ends in self.end_cell_pairs.items() for end in ends}
        three_cells = set(self.cylinder.three_cell_names())
        zero_ends = {f"{x}0" for x in self.base.three_cell_names()}
        cells = []
        slopes = {base: [0] * len(index) for base in self.end_cell_pairs}
        for letter in self.boundary4[name]:
            if isinstance(letter, TriadLetter):
                linear = letter.cell in three_cells
                if letter.cell not in zero_ends:
                    cells.append((letter.cell, letter.sign))
            else:
                linear = False
                for interval, ends in ((letter.h, letter.k), (letter.k, letter.h)):
                    if all(c in index for _, c, _ in interval) and all(
                        c in base_of for _, c, _ in ends
                    ):
                        for (_, cell, s), (_, end, t) in itertools.product(interval, ends):
                            slopes[base_of[end]][index[cell]] += letter.sign * s * t
                        linear = True
                        break
            if not linear:
                raise Dim3Error(f"4-cell {name} has a letter not linear in phi2: {letter}")
        own = f"{name.removesuffix('I')}1"
        if (counts := collect(cells)) != {own: 1}:
            raise Dim3Error(f"4-cell {name} reduces to the 3-cells {counts}, not to {own}")
        return slopes


def _relabel(word: Word, target: Alphabet, suffix: str) -> Word:
    return Word(target, tuple((f"{n}{suffix}", e) for n, e in word.runs))


def _relabel_triad(
    letters: Sequence[TriadLetter], target: Alphabet, suffix: str
) -> list[TriadLetter]:
    return [
        TriadLetter(
            conj_f=_relabel(letter.conj_f, target, suffix),
            conj_h=tuple(
                (_relabel(f, target, suffix), f"{cell}{suffix}", sign)
                for f, cell, sign in letter.conj_h
            ),
            cell=f"{letter.cell}{suffix}",
            sign=letter.sign,
        )
        for letter in letters
    ]


def _doubled_cells(M: CWComplex, alphabet: Alphabet):
    two = []
    three = []
    for suffix in ("0", "1"):
        for name, word in M.two_cells:
            two.append((f"{name}{suffix}", _relabel(word, alphabet, suffix)))
        for name, triad in M.three_cells:
            three.append((f"{name}{suffix}", _relabel_triad(triad, alphabet, suffix)))
    return two, three


@functools.lru_cache(maxsize=16)
def cylinder_preset(M: CWComplex) -> CylinderPreset:
    """The based cylinder M x I, built from M's product cells once per
    complex object, so that sector sweeps and repeated calls share it.

    Each 1-cell g gives an interval 2-cell gI = g1 g0^-1, each 2-cell r an
    interval 3-cell rI = r1^-1 W(w) r0 over r's word w (``_interval_word``),
    and each 3-cell x an interval 4-cell xI (``_interval_4cell``).  A complex
    outside the sphere route's domain is refused first.
    """
    _check_domain(M)
    gens = M.alphabet.names
    alphabet = Alphabet([f"{g}{end}" for end in "01" for g in gens])
    e = Word.identity(alphabet)
    two, three = _doubled_cells(M, alphabet)
    two += [(f"{g}I", Word(alphabet, ((f"{g}1", 1), (f"{g}0", -1)))) for g in gens]
    for name, word in M.two_cells:
        letters = [
            TriadLetter(e, (), f"{name}1", -1),
            *_interval_word(word, alphabet),
            TriadLetter(e, (), f"{name}0", 1),
        ]
        three.append((f"{name}I", letters))
    return CylinderPreset(
        base=M,
        cylinder=CWComplex(alphabet.names, two, three, name=f"cylinder({M.name or 'complex'})"),
        i_two_cells=tuple(f"{g}I" for g in gens),
        i_three_cells=tuple(f"{name}I" for name in M.two_cell_names()),
        boundary4={
            f"{name}I": _interval_4cell(M, name, triad, alphabet) for name, triad in M.three_cells
        },
        end_cell_pairs={name: (f"{name}0", f"{name}1") for name in M.two_cell_names()},
    )


def _interval_word(word: Word, alphabet: Alphabet) -> list[TriadLetter]:
    """W(w), whose boundary is w1 w0^-1: W(g) = gI, W(g^-1) = ^{g1^-1} gI^-1
    and W(uv) = ^{u1} W(v) W(u).  So the j-th letter (from 0) of a run g^n
    of w, after the runs u, is conjugated by u1 g1^j, or by u1 g1^-(j+1)
    when n < 0."""
    letters = []
    prefix: tuple[tuple[str, int], ...] = ()
    for g, n in word.runs:
        sign = 1 if n > 0 else -1
        for j in range(abs(n)):
            conj = Word(alphabet, prefix + ((f"{g}1", j if n > 0 else -j - 1),))
            letters.append(TriadLetter(conj, (), f"{g}I", sign))
        prefix += ((f"{g}1", n),)
    return letters[::-1]


def _interval_4cell(M: CWComplex, name: str, triad: TriadWord, alphabet: Alphabet) -> FormalLWord:
    """The boundary word of the interval 4-cell over the 3-cell ``name``: x1,
    then for each letter (f, c, s) of x's H-word the interval 3-cell
    ^{f1} cI^s and, per run g^n of f, the Peiffer pair
    (gI^e (x) c0^s)^|n| (c0^s (x) gI^e)^|n| with e the sign of n, then
    x0^-1.  The pair takes two tensor letters because the Whitehead square
    [i, i] is twice the Hopf class in pi_3 S^2."""
    e = Word.identity(alphabet)
    out: list[TensorLetter | TriadLetter] = [TriadLetter(e, (), f"{name}1", 1)]
    for f, cell, s in M.triad_normal_form(triad):
        out.append(TriadLetter(_relabel(f, alphabet, "1"), (), f"{cell}I", s))
        end: HWord = ((e, f"{cell}0", s),)
        for g, n in f.runs:
            interval: HWord = ((e, f"{g}I", 1 if n > 0 else -1),)
            out += [TensorLetter(interval, end, abs(n)), TensorLetter(end, interval, abs(n))]
    out.append(TriadLetter(e, (), f"{name}0", -1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Classification through the cylinder
# ---------------------------------------------------------------------------


class S2Sector:
    def __init__(self, phi2: dict, group: AbelianGroup):
        self.phi2 = phi2
        self.group = group

    def __eq__(self, other: object) -> bool:
        return isinstance(other, S2Sector) and (self.phi2, self.group) == (other.phi2, other.group)

    def to_json(self) -> dict:
        return {"phi2": dict(self.phi2), "group": self.group.to_json()}


class S2Classification:
    def __init__(self, source: str, layout: XSqHomLayout, sectors: list[S2Sector]):
        self.source = source
        self.layout = layout
        self.sectors = sectors

    @classmethod
    def of(cls, M: CWComplex, sectors: Iterable[S2Sector] = ()) -> S2Classification:
        """The classification of maps M -> S^2 with the given sectors; with
        none, the header that ``s2_sectors`` streams the sectors of."""
        sectors = list(sectors)
        layout = XSqHomLayout(M.two_cell_names(), M.three_cell_names())
        return cls(M.name or "complex", layout, sectors)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": "sphere2",
            "two_cells": list(self.layout.two_cells),
            "three_cells": list(self.layout.three_cells),
            "sectors": [s.to_json() for s in self.sectors],
        }


def sector_group_s2(preset: CylinderPreset, phi2: Mapping[str, int]) -> AbelianGroup:
    """Based = free classes over one phi2 assignment (the target is simply
    connected): Z^{3-cells} modulo the achievable phi3 differences.

    The interval 2-cells of the cylinder are free unknowns, and each 4-cell
    gives delta_x = -sum_g C_xg(phi2) gI, so the achievable differences are
    the column span of C(phi2) = sum_c phi2(c) slope_c, one column per
    interval 2-cell.  The cylinder's domain makes every phi2 a homomorphism,
    and the cylinder checks once that the interval 3-cell constraints hold
    at every phi2.
    """
    cells = preset.base.two_cell_names()
    if set(phi2) != set(cells):
        raise Dim3Error(f"phi2 must name exactly the 2-cells {list(cells)}, got {sorted(phi2)}")
    width = len(preset.i_two_cells)
    rows = [
        [sum(phi2[c] * slope[j] for c, slope in slopes.items()) for j in range(width)]
        for slopes in preset.slopes.values()
    ]
    return quotient(len(rows), zip(*rows))


def s2_sectors(M: CWComplex, sweep: int = 2) -> Iterator[S2Sector]:
    """Each sector of maps of a 3-complex into the 2-sphere as it is found,
    one per phi2 assignment with entries in [-sweep, sweep]."""
    if sweep < 0:
        raise Dim3Error(f"sweep must be >= 0, got {sweep}")
    preset = cylinder_preset(M)
    names = M.two_cell_names()
    for combo in itertools.product(range(-sweep, sweep + 1), repeat=len(names)):
        phi2 = dict(zip(names, combo))
        yield S2Sector(phi2=phi2, group=sector_group_s2(preset, phi2))


def classify_s2(M: CWComplex, sweep: int = 2) -> S2Classification:
    """Classify maps of a 3-complex into the 2-sphere (``s2_sectors``)."""
    return S2Classification.of(M, s2_sectors(M, sweep))


# ---------------------------------------------------------------------------
# The Pontrjagin cup-product route
# ---------------------------------------------------------------------------


class CupData:
    """Cohomology of a 3-complex with its cup pairing H^1 x H^2 -> H^3.

    ``h2`` and ``h3`` list invariant factors (0 = infinite); ``cup[i][j]``
    gives the H^3 coordinates of the product of the i-th H^1 generator with
    the j-th H^2 generator.
    """

    def __init__(
        self, h1_rank: int, h2: tuple[int, ...], h3: tuple[int, ...],
        cup: tuple[tuple[Vector, ...], ...],
    ):
        self.h1_rank = h1_rank
        self.h2 = h2
        self.h3 = h3
        self.cup = cup
        if len(self.cup) != self.h1_rank:
            raise Dim3Error("cup table must have one row per H^1 generator")
        for row in self.cup:
            if len(row) != len(self.h2):
                raise Dim3Error("cup table row must have one entry per H^2 generator")
            for entry in row:
                if len(entry) != len(self.h3):
                    raise Dim3Error("cup entry must give coordinates over H^3 generators")
        relations = self._h3_relations()
        lat = Lattice(len(self.h3), relations)
        for i, row in enumerate(self.cup):
            for j, entry in enumerate(row):
                order = self.h2[j]
                if order and tuple(order * x for x in entry) not in lat:
                    raise Dim3Error(
                        f"cup table not bilinear: {order} * cup[{i}][{j}] != 0 in H^3"
                    )

    def _key(self) -> tuple:
        return self.h1_rank, self.h2, self.h3, self.cup

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CupData) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _h3_relations(self) -> list[Vector]:
        out = []
        for idx, f in enumerate(self.h3):
            if f:
                col = [0] * len(self.h3)
                col[idx] = f
                out.append(tuple(col))
        return out

    @staticmethod
    def from_json(obj: dict) -> "CupData":
        where = "malformed cup file:"
        check_keys(obj, {"h1_rank", "h2", "h3", "cup"}, "cup file", Dim3Error)
        return CupData(
            h1_rank=json_field(obj, "h1_rank", int, where, error=Dim3Error),
            h2=json_list_field(obj, "h2", json_ints, where, error=Dim3Error),
            h3=json_list_field(obj, "h3", json_ints, where, error=Dim3Error),
            cup=json_list_field(
                obj,
                "cup",
                lambda rows: tuple(tuple(map(json_ints, row)) for row in rows),
                where,
                error=Dim3Error,
            ),
        )


def cup_table(M: CWComplex) -> CupData:
    """The cup pairing H^1 x H^2 -> H^3 of M, read off the triads:
    (alpha u beta)(x) = -sum s alpha(f) beta(c) over the letters (f, c, s)
    of x's H-word, with alpha(f) the alpha-weighted exponent sum of f.

    On the sphere route's domain every cellular cochain differential is zero,
    so H^k = C^k with the cell duals as generators; any other complex is
    refused.
    """
    _check_domain(M)
    cells = M.two_cell_names()
    cup = [[[0] * len(M.three_cells) for _ in cells] for _ in M.alphabet.names]
    for k, (_, triad) in enumerate(M.three_cells):
        for f, cell, s in M.triad_normal_form(triad):
            j = cells.index(cell)
            for i, a in enumerate(f.exponent_sums()):
                cup[i][j][k] -= s * a
    return CupData(
        h1_rank=len(M.alphabet),
        h2=(0,) * len(cells),
        h3=(0,) * len(M.three_cells),
        cup=tuple(tuple(map(tuple, row)) for row in cup),
    )


@functools.lru_cache(maxsize=None)
def cup_preset(space: str) -> CupData:
    """The cup table of the catalog space ``space``, a constant per name."""
    return cup_table(catalog(space))


def pontrjagin_sector_group(cup: CupData, alpha: Sequence[int]) -> AbelianGroup:
    """H^3 modulo the sublattice 2 alpha u H^1 for one class alpha in H^2."""
    if len(alpha) != len(cup.h2):
        raise Dim3Error("alpha must have one coordinate per H^2 generator")
    columns = list(cup._h3_relations())
    for i in range(cup.h1_rank):
        vec = [0] * len(cup.h3)
        for j, a in enumerate(alpha):
            for idx, x in enumerate(cup.cup[i][j]):
                vec[idx] += 2 * a * x
        columns.append(tuple(vec))
    return quotient(len(cup.h3), columns)


# ---------------------------------------------------------------------------
# Structural report
# ---------------------------------------------------------------------------


class CrossedSquareReport:
    def __init__(
        self, space: str, cell_counts: tuple[int, int, int], generators: tuple[str, ...],
        sigma2: list[tuple[str, str]],
        sigma3: list[tuple[str, str, str]],  # name, H-component, boundary witness
        pi1_presentation: str, notes: list[str],
    ):
        self.space = space
        self.cell_counts = cell_counts
        self.generators = generators
        self.sigma2 = sigma2
        self.sigma3 = sigma3
        self.pi1_presentation = pi1_presentation
        self.notes = notes

    def render(self) -> str:
        n1, n2, n3 = self.cell_counts
        lines = [
            f"crossed square of {self.space}",
            f"  cells: {n1} one-cells, {n2} two-cells, {n3} three-cells",
            f"  F = free group on {{{', '.join(self.generators) or ''}}}",
        ]
        for name, attach in self.sigma2:
            lines.append(f"  sigma_2({name}) = {attach or '1'}")
        lines.append(
            "  H = free pre-crossed module on the 2-cells over F;"
            " G = F |x H, the free group on 1-cells and 2-cells"
        )
        lines.append(
            "  H-bar = {(d h, h^-1)} in F |x H; mu, nu are the two inclusions"
        )
        for name, hword, witness in self.sigma3:
            lines.append(f"  sigma_3({name}) = {hword}")
            lines.append(f"    boundary closes: d(sigma_3({name})) = {witness}")
        lines.append(
            "  L = (H (x) H-bar) o C with C the free crossed module on sigma_3,"
            " modulo i(dc (x) k) = j(c) j(^k c^-1) and i(h (x) dc) = j(^h c) j(c^-1)"
        )
        lines.append(f"  pi_1 = {self.pi1_presentation}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


_KNOWN_PI3 = {"sphere2": "Z", "s1_x_s2": "Z"}


def crossed_square_report(M: CWComplex) -> CrossedSquareReport:
    """Structural description of the free crossed square of a complex."""
    sigma2 = [(name, str(word)) for name, word in M.two_cells]
    sigma3 = []
    for name, triad in M.three_cells:
        hword = M.triad_normal_form(triad)
        text = " ".join(
            ("" if f.is_identity else f"^({f})") + cell + ("" if sign == 1 else "^-1")
            for f, cell, sign in hword
        )
        witness = str(M.hword_boundary(hword)) or "1"
        sigma3.append((name, text or "1", witness))
    gens = ", ".join(M.alphabet.names)
    relators = ", ".join(
        f"{w} = 1" for _, w in M.two_cells if not w.is_identity
    )
    if not gens:
        pi1 = "1"
    elif relators:
        pi1 = f"< {gens} | {relators} >"
    else:
        pi1 = f"< {gens} | >"
    notes = []
    if not M.three_cells:
        notes.append("no 3-cells: C is trivial and L = H (x) H-bar")
    for name, word in M.two_cells:
        if word.is_identity and not M.alphabet.names:
            notes.append("H = H-bar = G = Z, the tensor square L = Z")
    space = next((s for s in _KNOWN_PI3 if structurally_equal(M, catalog(s))), None)
    if space == "s1_x_s2":
        notes.append("d: H -> F is trivial, so H-bar = H as subgroups of F |x H")
    if space is not None:
        notes.append(f"pi_3 = {_KNOWN_PI3[space]} (catalog constant)")
    return CrossedSquareReport(
        space=M.name or "complex",
        cell_counts=M.cell_counts(),
        generators=M.alphabet.names,
        sigma2=sigma2,
        sigma3=sigma3,
        pi1_presentation=pi1,
        notes=notes,
    )
