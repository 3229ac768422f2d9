"""Dimension-3 classification for the 2-sphere target.

The target's crossed square is rigid (all four groups are Z, the side maps
are an identity and a zero pair), which collapses the nonabelian tensor
calculus to integer bilinear algebra: a formal word in tensor and conjugated
3-cell letters evaluates to an integer once every cell carries a value, and
homotopy of homomorphisms becomes a linear Diophantine system over the
cylinder cells.  The boundary word of the cylinder's 4-cell is per-space
preset data.  Each of its tensor letters pairs a factor of interval 2-cells
with a factor of end copies, so the relation is linear in phi2: a preset
reads it once, straight off the word, into an integer row at phi2 = 0 and a
slope row per base 2-cell, and refuses any letter that is not linear in
phi2.  Every sector reads its relation off those rows.  The Pontrjagin
cup-product route provides an independent check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import CWComplex, HWord, TriadLetter, TriadWord, catalog, structurally_equal
from .words import Alphabet, Word, collect
from .zlinalg import (
    AbelianGroup,
    AffineLattice,
    IntMatrix,
    Lattice,
    json_int,
    quotient,
    solve,
)

Vector = tuple[int, ...]


class Dim3Error(Exception):
    pass


class NoPresetError(Dim3Error):
    """A 3-complex equal to no preset's base: an unsupported source, not a
    malformed one."""


# ---------------------------------------------------------------------------
# Formal words in the triad group of the cylinder and their evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorLetter:
    """A tensor generator h (x) k of two pre-crossed module words, to a sign."""

    h: HWord
    k: HWord
    sign: int


# A TriadLetter here is a conjugated 3-cell (or cylinder 3-cell) generator.
FormalLWord = tuple[TensorLetter | TriadLetter, ...]


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
# Homomorphism lattice (crossed squares into the sphere target)
# ---------------------------------------------------------------------------


def phi2_boundary(M: CWComplex, triad: TriadWord) -> dict[str, int]:
    """Signed count of each 2-cell in a 3-cell's H-word (zero counts
    dropped): phi2 maps the 3-cell's boundary to the sum of phi2(cell) times
    its count, conjugators dropping because the target acts trivially."""
    return collect((cell, sign) for _, cell, sign in M.triad_normal_form(triad)[1])


@dataclass(frozen=True)
class XSqHomLayout:
    two_cells: tuple[str, ...]
    three_cells: tuple[str, ...]

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
# Cylinder presets
# ---------------------------------------------------------------------------


@dataclass
class CylinderPreset:
    """The based cylinder of a catalog 3-complex: its CW data (doubled cells
    plus interval cells) and the boundary word of each interval 4-cell.

    The 4-cell boundary words are transcribed data, not computed objects;
    the Pontrjagin route independently validates every sector group they
    produce.

    Cell values on the cylinder: both end copies of a base 2-cell carry its
    phi2 value, the 0-end copy of a base 3-cell x carries 0 and the 1-end
    copy the unknown delta_x, and every interval cell is an unknown.  Each
    preset reads its 4-cell words once, on construction, into integer rows
    over ``columns`` that are linear in phi2, and refuses a letter that is
    not.
    """

    space: str
    base: CWComplex
    cylinder: CWComplex
    i_two_cells: tuple[str, ...]
    i_three_cells: tuple[str, ...]
    boundary4: dict[str, FormalLWord]
    end_cell_pairs: dict[str, tuple[str, str]]  # base cell -> (0-end, 1-end)

    def __post_init__(self):
        self._check_phi2_rigidity()
        # No base 3-cell constrains phi2, so every phi2 assignment is a sector.
        for name, triad in self.base.three_cells:
            if counts := phi2_boundary(self.base, triad):
                raise Dim3Error(f"base 3-cell {name} constrains phi2: {counts}")
        self._rows = [self._read_relation(f"{name}I") for name in self.base.three_cell_names()]

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

    @property
    def columns(self) -> tuple[str, ...]:
        """The unknowns: the interval cells, then the 1-end copy of each base 3-cell."""
        ends = tuple(f"{name}1" for name in self.base.three_cell_names())
        return self.i_two_cells + self.i_three_cells + ends

    def _read_relation(self, name: str) -> tuple[list[int], dict[str, list[int]]]:
        """The relation of the interval 4-cell ``name`` over ``columns``: its
        row at phi2 = 0 and its slope along each base 2-cell.

        A cylinder 3-cell letter adds its sign at its column; the 0-end copy
        of a base 3-cell carries 0.  A tensor letter must pair a factor of
        interval 2-cells with a factor of end copies, in either order: each
        interval cell (sign s) and end copy (sign t) add sign * s * t at the
        interval cell's column of the slope along the end's base 2-cell.  Any
        other letter makes the relation not linear in phi2.
        """
        index = {c: j for j, c in enumerate(self.columns)}
        base_of = {end: base for base, ends in self.end_cell_pairs.items() for end in ends}
        three_cells = set(self.cylinder.three_cell_names())
        row = [0] * len(index)
        slopes = {base: [0] * len(index) for base in self.end_cell_pairs}
        for letter in self.boundary4[name]:
            if isinstance(letter, TriadLetter):
                linear = letter.cell in three_cells
                if letter.cell in index:
                    row[index[letter.cell]] += letter.sign
            else:
                linear = False
                for interval, ends in ((letter.h, letter.k), (letter.k, letter.h)):
                    if all(c in self.i_two_cells for _, c, _ in interval) and all(
                        c in base_of for _, c, _ in ends
                    ):
                        for (_, cell, s), (_, end, t) in itertools.product(interval, ends):
                            slopes[base_of[end]][index[cell]] += letter.sign * s * t
                        linear = True
                        break
            if not linear:
                raise Dim3Error(f"4-cell {name} has a letter not linear in phi2: {letter}")
        return row, slopes

    def relations(self, phi2: Mapping[str, int]) -> list[list[int]]:
        """The 4-cell relation rows at phi2: each row at phi2 = 0 plus
        phi2_i times its slope along each base 2-cell i."""
        return [
            [
                z + sum(phi2[cell] * slope[j] for cell, slope in slopes.items())
                for j, z in enumerate(row)
            ]
            for row, slopes in self._rows
        ]


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


@functools.lru_cache(maxsize=None)
def cylinder_preset(space: str) -> CylinderPreset:
    """Preset cylinders: available for s1_x_s2 and torus3.

    Cached: presets are read-only data and sector sweeps request them often.
    """
    if space not in _PRESETS:
        raise Dim3Error(f"no cylinder preset for {space!r}")
    return _PRESETS[space]()


def preset_for(M: CWComplex) -> CylinderPreset:
    """The preset whose base complex is structurally equal to M, so that a
    copy of a catalog space gets its preset under any name or none."""
    for space in _PRESETS:
        preset = cylinder_preset(space)
        if structurally_equal(preset.base, M):
            return preset
    raise NoPresetError(
        f"no cylinder preset matches this complex (presets: {', '.join(_PRESETS)})"
    )


def _doubled_cells(M: CWComplex, alphabet: Alphabet):
    two = []
    three = []
    for suffix in ("0", "1"):
        for name, word in M.two_cells:
            two.append((f"{name}{suffix}", _relabel(word, alphabet, suffix)))
        for name, triad in M.three_cells:
            three.append((f"{name}{suffix}", _relabel_triad(triad, alphabet, suffix)))
    return two, three


def _s1_x_s2_preset() -> CylinderPreset:
    M = catalog("s1_x_s2")
    alphabet = Alphabet(["a0", "a1"])
    two, three = _doubled_cells(M, alphabet)
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
        space="s1_x_s2",
        base=M,
        cylinder=cylinder,
        i_two_cells=("aI",),
        i_three_cells=("tI",),
        boundary4={"xI": boundary4},
        end_cell_pairs={"t": ("t0", "t1")},
    )


def _torus3_preset() -> CylinderPreset:
    M = catalog("torus3")
    alphabet = Alphabet(["a0", "b0", "c0", "a1", "b1", "c1"])
    two, three = _doubled_cells(M, alphabet)
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
        space="torus3",
        base=M,
        cylinder=cylinder,
        i_two_cells=("aI", "bI", "cI"),
        i_three_cells=("tI", "uI", "vI"),
        boundary4={"xI": tuple(letters)},
        end_cell_pairs={"t": ("t0", "t1"), "u": ("u0", "u1"), "v": ("v0", "v1")},
    )


_PRESETS = {"s1_x_s2": _s1_x_s2_preset, "torus3": _torus3_preset}


# ---------------------------------------------------------------------------
# Classification through the cylinder
# ---------------------------------------------------------------------------


@dataclass
class S2Sector:
    phi2: dict
    group: AbelianGroup

    def to_json(self) -> dict:
        return {"phi2": dict(self.phi2), "group": self.group.to_json()}


@dataclass
class S2Classification:
    source: str
    layout: XSqHomLayout
    sectors: list[S2Sector]
    space: str  # the cylinder preset used; not in the JSON

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
    connected): quotient of Z^{3-cells} by the achievable phi3 differences.

    A difference is achievable when the interval cells of the preset cylinder
    admit integer values solving the 4-cell boundary relations.  The preset
    checks once that every phi2 is a homomorphism and that the interval
    3-cell constraints hold at every phi2.
    """
    cells = preset.base.two_cell_names()
    if set(phi2) != set(cells):
        raise Dim3Error(f"phi2 must name exactly the 2-cells {list(cells)}, got {sorted(phi2)}")
    rows = preset.relations(phi2)
    width = len(preset.columns)
    # No relation has a constant term, so the system is homogeneous.
    _, kernel = solve(IntMatrix(rows, cols=width), (0,) * len(rows))
    n = len(preset.base.three_cells)
    deltas = (k[width - n :] for k in kernel)
    return quotient(n, [d for d in deltas if any(d)])


def classify_s2(M: CWComplex, sweep: int = 2) -> S2Classification:
    """Classify maps of a preset 3-complex into the 2-sphere, one sector per
    phi2 assignment with entries in [-sweep, sweep]."""
    if sweep < 0:
        raise Dim3Error(f"sweep must be >= 0, got {sweep}")
    layout = XSqHomLayout(M.two_cell_names(), M.three_cell_names())
    preset = preset_for(M)
    out = []
    for combo in itertools.product(range(-sweep, sweep + 1), repeat=len(layout.two_cells)):
        phi2 = dict(zip(layout.two_cells, combo))
        out.append(S2Sector(phi2=phi2, group=sector_group_s2(preset, phi2)))
    return S2Classification(M.name or "complex", layout, out, preset.space)


# ---------------------------------------------------------------------------
# The Pontrjagin cup-product route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CupData:
    """Cohomology of a 3-complex with its cup pairing H^1 x H^2 -> H^3.

    ``h2`` and ``h3`` list invariant factors (0 = infinite); ``cup[i][j]``
    gives the H^3 coordinates of the product of the i-th H^1 generator with
    the j-th H^2 generator.
    """

    h1_rank: int
    h2: tuple[int, ...]
    h3: tuple[int, ...]
    cup: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
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
        allowed = {"h1_rank", "h2", "h3", "cup"}
        unknown = set(obj) - allowed
        if unknown:
            raise Dim3Error(f"unknown keys in cup file: {sorted(unknown)}")
        try:
            return CupData(
                h1_rank=json_int(obj["h1_rank"]),
                h2=tuple(json_int(x) for x in obj["h2"]),
                h3=tuple(json_int(x) for x in obj["h3"]),
                cup=tuple(
                    tuple(tuple(json_int(x) for x in entry) for entry in row)
                    for row in obj["cup"]
                ),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise Dim3Error(f"malformed cup file: {err}") from None

    def to_json(self) -> dict:
        return {
            "h1_rank": self.h1_rank,
            "h2": list(self.h2),
            "h3": list(self.h3),
            "cup": [[list(entry) for entry in row] for row in self.cup],
        }


def cup_preset(space: str) -> CupData:
    """Cup pairing data for the catalog 3-manifolds."""
    if space == "s1_x_s2":
        return CupData(h1_rank=1, h2=(0,), h3=(0,), cup=(((1,),),))
    if space == "torus3":
        cup = tuple(
            tuple((1,) if i == j else (0,) for j in range(3)) for i in range(3)
        )
        return CupData(h1_rank=3, h2=(0, 0, 0), h3=(0,), cup=cup)
    raise Dim3Error(f"no cup preset for {space!r}")


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


@dataclass
class CrossedSquareReport:
    space: str
    cell_counts: tuple[int, int, int]
    generators: tuple[str, ...]
    sigma2: list[tuple[str, str]]
    sigma3: list[tuple[str, str, str]]  # name, H-component, boundary witness
    pi1_presentation: str
    notes: list[str]

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
        _, hword = M.triad_normal_form(triad)
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
