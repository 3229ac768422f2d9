"""Command-line front end.

Subcommands: classify, crosscheck, validate, snf, hoang, report.
Exit codes: 0 ok, 1 input error, 2 unsupported combination, 3 cross-check
mismatch, 4 internal error (a bug in topsectors, not in the input).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# Each command imports the modules of the route it runs, and no other route.
from . import complexes
from .complexes import CWComplex
from .errors import InputError, UnsupportedError
from .words import WordSyntaxError, decimal as read_decimal

if TYPE_CHECKING:
    from . import classify2d, cohomology, dim3

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4

# Sectors that classify and crosscheck render and write as one piece of their
# output.  With one json.dumps and one write per sector, surface_sectors'
# cli_rel read about 3 % higher than with the whole answer written at once.
PIECE_SECTORS = 32


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise InputError(message)


# ---------------------------------------------------------------------------
# Source / target resolution
# ---------------------------------------------------------------------------

def _looks_like_path(spec: str) -> bool:
    """A spec is a file only by its form, so that a file in the working
    directory never hides a catalog name."""
    return spec.endswith(".json") or os.sep in spec


def _spec_ints(spec: str) -> list[int]:
    """The comma-separated parameters after a spec's colon, each read by
    ``words.decimal``; an empty field, as in ``torus2:``, is refused."""
    name, colon, tail = spec.partition(":")
    where = f"the parameters of {name}"
    try:
        return [read_decimal(field, where) for field in tail.split(",")] if colon else []
    except WordSyntaxError:
        raise InputError(f"non-integer parameter in {spec!r}") from None


def resolve_source(spec: str) -> CWComplex:
    if _looks_like_path(spec):
        return complexes.from_json(_read_object(spec))
    name = spec.partition(":")[0]
    if name not in complexes.CATALOG_PARAMS:
        raise InputError(f"unknown source {spec!r}")
    keys = complexes.CATALOG_PARAMS[name]
    values = _spec_ints(spec)
    if len(values) != len(keys):
        raise InputError(
            f"source {name} expects parameters {','.join(keys) or '(none)'}"
        )
    return complexes.catalog(name, **dict(zip(keys, values)))


def resolve_target(spec: str):
    """A ModuleXMod, or (name, p) for a target with pi_1 = Z_p and nothing
    between pi_1 and pi_3 = Z (lens spaces and SO(3))."""
    from . import xmod
    if _looks_like_path(spec):
        return xmod.ModuleXMod.from_json(_read_object(spec), name=spec)
    name, colon, _ = spec.partition(":")
    if name in ("rp2", "sphere2", "so3"):
        if colon:
            raise InputError(f"target {name} takes no parameters")
        return ("so3", 2) if name == "so3" else xmod.target_catalog(name)
    if name == "trivial":
        values = _spec_ints(spec)
        if len(values) not in (1, 2):
            raise InputError("target trivial expects parameters r[,k]")
        return xmod.target_catalog("trivial", **dict(zip(("r", "k"), values)))
    if name == "lens":
        values = _spec_ints(spec)
        if len(values) != 2:
            raise InputError("target lens expects parameters p,q")
        p, q = values
        if p < 2 or q < 1:
            raise InputError("lens target needs p >= 2, q >= 1")
        return f"lens({p},{q})", p
    raise InputError(f"unknown target {spec!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_label(label) -> str:
    return str(label[0]) if len(label) == 1 else "(" + ",".join(map(str, label)) + ")"


def _fmt_vec(vec) -> str:
    return "[" + ",".join(map(str, vec)) + "]"


def render_classification_text(
    res: classify2d.SectorClassification, sector: Optional[classify2d.SectorResult] = None
) -> str:
    """The lines of one sector of ``res``, or with no sector its header
    lines; each line ends in a newline."""
    if sector is None:
        return (
            f"{res.mode} classes of maps {res.source} -> {res.target}\n"
            f"coordinates: phi1 per generator {list(res.layout.generators)}"
            f" ({res.layout.k} coords each), phi2 per 2-cell {list(res.layout.two_cells)}"
            f" ({res.layout.r} coords each)\n"
        )
    phi1 = " ".join(f"{g}={_fmt_label(l)}" for g, l in sector.phi1.items())
    lines = [f"sector {phi1 or '(trivial pi_1)'}: {sector.based_group}"]
    reps = sector.representatives()
    if sector.is_finite:
        lines.append("  representatives: " + " ".join(_fmt_vec(v) for v in reps))
        if sector.free_orbits is not None:
            lines.append(
                "  free orbits: "
                + " ".join("{" + ",".join(map(str, o)) + "}" for o in sector.free_orbits)
            )
    else:
        gens = sector.free_generators()
        lines.append(
            "  representatives: base "
            + " ".join(_fmt_vec(v) for v in reps)
            + " + integer multiples of "
            + " ".join(_fmt_vec(v) for v in gens)
        )
        if res.mode == "free":
            for label, matrix, shift in sector.loop_maps:
                lines.append(
                    f"  free identification by loop {_fmt_label(label)}:"
                    f" class c -> {_fmt_affine(matrix, shift)}"
                )
    return "\n".join(lines) + "\n"


def _fmt_affine(cols, shift) -> str:
    n = len(shift)
    terms = []
    for i in range(n):
        row = " + ".join(
            f"{cols[j][i]}*c{j}" for j in range(n) if cols[j][i]
        )
        const = shift[i]
        expr = row or "0"
        if const:
            expr += f" + {const}"
        terms.append(expr)
    return "(" + ", ".join(terms) + ")"


def render_s2_text(res: dim3.S2Classification, sector: Optional[dim3.S2Sector] = None) -> str:
    """The line of one sector of ``res``, or with no sector its header
    lines; each line ends in a newline."""
    if sector is None:
        return (
            f"classes of maps {res.source} -> sphere2 (based = free: simply connected target)\n"
            f"sectors are phi2 assignments to 2-cells {list(res.layout.two_cells)};"
            f" within each sector classes differ by phi3 on {list(res.layout.three_cells)}\n"
        )
    phi2 = " ".join(f"{c}={v}" for c, v in sector.phi2.items())
    return f"sector {phi2}: {sector.group}\n"


def _batches(sectors):
    """The sectors in lists of ``PIECE_SECTORS``, one list per piece of output."""
    return iter(lambda: list(itertools.islice(sectors, PIECE_SECTORS)), [])


def _text_pieces(head: str, sectors, render, tail):
    """A text output, one piece per batch of sectors after ``head``: each
    sector's lines are ``render(sector)``, and the last piece is ``tail()``,
    asked for once every sector is rendered."""
    yield head
    for batch in _batches(sectors):
        yield "".join(map(render, batch))
    yield tail()


def _json_pieces(res, sectors):
    """``json.dumps(res.to_json(), indent=2)`` and a newline, one piece per
    batch of sectors after a header: ``res`` holds no sectors, and
    "sectors" is the last key of its JSON.  A batch's dump is a JSON list;
    without its brackets and moved two spaces in, it gives each sector's own
    dump four spaces in, joined by a comma and a newline."""
    yield json.dumps(res.to_json(), indent=2)[: -len("]\n}")]
    sep = "\n"
    for batch in _batches(sectors):
        dump = json.dumps([sector.to_json() for sector in batch], indent=2)
        yield sep + "  " + dump[2:-2].replace("\n", "\n  ")
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def render_special_text(res: cohomology.SpecialCaseResult, source: str, target: str,
                        sector: Optional[cohomology.SpecialSector] = None) -> str:
    """The line of one sector of ``res``, or with no sector its header
    lines; each line ends in a newline."""
    if sector is None:
        return (
            f"classes of maps {source} -> {target}"
            f" (target pi_1 invariant factors {list(res.pi1_factors)}, pi_3 = Z)\n"
            f"{res.sector_count} sectors (homomorphisms of fundamental groups):\n"
        )
    phi1 = " ".join(f"{g}={_fmt_label(l)}" for g, l in sector.phi1.items())
    return f"  sector {phi1 or '(trivial pi_1)'}: {sector.group}\n"


@contextlib.contextmanager
def _any_int_size():
    """Lift Python's limit on the digits of an int turned into a string
    (4300 by default) for the duration: output integers have no size limit.
    A command enters it only once its input is read, so that input keeps
    the limit and parsing stays bounded."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class _Output:
    """Where a command's output goes, piece by piece (``_emit``): stdout, or
    the file named by --out.  A regular file is written beside its path from
    the first piece on, and moved there only when the command succeeds, so
    that a failed run leaves no partial file and an older file as it was."""

    def __init__(self, out: Optional[str]):
        self.out = out
        self.file = None
        self.path = ""  # the file that --out names, through any links
        self.part: Optional[str] = None  # the file beside it

    def write(self, text: str) -> None:
        if self.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        if self.file is None:
            self.path = os.path.realpath(self.out) if self.out else ""
            if self.path and (os.path.isfile(self.path) or not os.path.exists(self.path)):
                self.part = f"{self.path}.{os.getpid()}.part"
            self.file = open(self.part or self.path, "x" if self.part else "w", encoding="utf-8")
        self.file.write(text)

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, failure, *_) -> None:
        if self.file is None:
            return
        try:
            self.file.close()
            if self.part is not None and failure is None:
                os.replace(self.part, self.path)
        except OSError as err:
            if failure is None:
                raise _file_error("write", self.out, err) from None
        finally:
            if self.part is not None and os.path.lexists(self.part):
                os.remove(self.part)


def _file_error(verb: str, path: str, err: OSError) -> InputError:
    """``cannot VERB 'PATH': REASON``, the one message for a file that
    cannot be read or written: the path quoted, and the system's reason."""
    return InputError(f"cannot {verb} {path!r}: {err.strerror or err}")


def _emit(text: str, output: _Output) -> None:
    """Write one piece of a command's output."""
    try:
        output.write(text)
    except OSError as err:
        if output.out is not None:
            raise _file_error("write", output.out, err) from None
        if not isinstance(err, BrokenPipeError):
            raise
        # A reader that stops early, like ``head``, ends the output, not
        # the run; stdout goes to devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(pieces, output: _Output) -> None:
    """Write each piece of an iterator with ``_emit`` as it comes.  The
    first piece, a header, waits for the second, so that a command that
    fails in its first batch of sectors writes nothing, and one that fails
    later stops after a whole batch."""
    head = next(pieces)
    for piece in pieces:
        _emit(head + piece, output)
        head = ""


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _route(args):
    """The source, the target and their one route: "2d" (crossed modules),
    "sphere" (the rigid crossed square), "lens" (twisted top cohomology), or
    None for an unsupported pair.  A sphere-route flag given on another
    route is an input error, so that it is never silently ignored."""
    from . import xmod
    M = resolve_source(args.source)
    target = resolve_target(args.target)
    if not isinstance(target, xmod.ModuleXMod):
        route = "lens" if M.dim == 3 else None
    elif M.dim <= 2:
        route = "2d"
    else:
        route = "sphere" if target == xmod.target_catalog("sphere2") else None
    if route != "sphere":
        for flag in ("sweep", "cup"):
            if getattr(args, flag, None) is not None:
                raise InputError(
                    f"--{flag} applies only to a 3-dimensional source with the sphere2 target"
                )
    return M, target, route


def cmd_classify(args) -> int:
    M, target, route = _route(args)
    with _any_int_size():
        if route == "2d":
            from . import classify2d
            res = classify2d.SectorClassification.of(M, target, args.free)
            sectors = classify2d.classify_sectors(M, target, args.free)
            head, total = render_classification_text(res), 0

            def render(sector):
                nonlocal total
                total = classify2d.add_free_classes(total, sector)
                return render_classification_text(res, sector)

            def tail():
                return f"total free classes: {total}\n" if args.free and total is not None else ""
        elif route == "sphere":
            from . import dim3
            res = dim3.S2Classification.of(M)
            sectors = dim3.s2_sectors(M, sweep=2 if args.sweep is None else args.sweep)
            head, render = render_s2_text(res), functools.partial(render_s2_text, res)

            def tail():
                return "(sectors outside the sweep follow the same lattice rule)\n"
        elif route == "lens":
            from . import cohomology
            res, sectors = cohomology.special_case_sectors(M, [target[1]], 1)
            render = functools.partial(render_special_text, res, M.name or args.source, target[0])
            head = render()

            def tail():
                trivial = "action on pi_3 is trivial: free classes = based classes\n"
                return trivial if res.action_is_trivial else ""
        elif isinstance(target, tuple):
            raise UnsupportedError(f"target {target[0]} needs a 3-dimensional source")
        else:
            raise UnsupportedError(
                f"dimension-3 source with target {target.name or 'file'} is not supported"
            )
        if args.format == "json":
            _write(_json_pieces(res, sectors), args.output)
        else:
            _write(_text_pieces(head, sectors, render, tail), args.output)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    M, target, route = _route(args)
    if route == "2d":
        from . import classify2d, cohomology
        sectors = classify2d.classify_sectors(M, target)
        sides = ("lattice", "cohomology")

        def answers(sector):
            coeffs = cohomology.CoefficientModule.for_target_sector(sector.target_data, sector.phi1)
            oracle = cohomology.twisted_second_cohomology(M, coeffs)
            phi1 = " ".join(f"{g}={_fmt_label(l)}" for g, l in sector.phi1.items())
            return phi1 or "(trivial)", sector.based_group, oracle
    elif route == "sphere":
        from . import dim3
        if args.cup is None:
            cup = dim3.cup_table(M)
        else:
            cup = dim3.CupData.from_json(_read_object(args.cup))
        sectors = dim3.s2_sectors(M, sweep=3 if args.sweep is None else args.sweep)
        sides = ("crossed-square", "cup-product")

        def answers(sector):
            alpha = tuple(sector.phi2.values())
            return alpha, sector.group, dim3.pontrjagin_sector_group(cup, alpha)
    else:
        raise UnsupportedError("no cross-check available for this source/target pair")
    mismatches = 0

    def render(sector):
        nonlocal mismatches
        name, group, oracle = answers(sector)
        mismatches += 0 if oracle == group else 1
        verdict = "match" if oracle == group else "MISMATCH"
        return f"sector {name}: {sides[0]} {group} vs {sides[1]} {oracle} -> {verdict}\n"

    def tail():
        return f"{mismatches} sector(s) mismatch\n" if mismatches else "all sectors match\n"

    with _any_int_size():
        _write(_text_pieces("", sectors, render, tail), args.output)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise _file_error("read", path, err) from None
    except UnicodeDecodeError as err:
        raise InputError(f"bad JSON in {path}: {err}") from None
    return complexes.decode_json(text, f"bad JSON in {path}", path, InputError)


def _read_object(path: str) -> dict:
    """A JSON file whose top level must be an object."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"bad JSON in {path}: expected a JSON object")
    return obj


def cmd_validate(args) -> int:
    obj = _read_object(args.path)
    if "generators" in obj or obj.keys() <= complexes.FILE_KEYS:
        M = complexes.from_json(obj)
        _emit(f"ok: complex with cells {M.cell_counts()}\n", args.output)
        return EXIT_OK
    from . import xmod
    if "H_table" in obj:
        x = xmod.FiniteCrossedModule.from_json(obj)
        violations = xmod.validate(x)
    elif "G" in obj:
        target = xmod.ModuleXMod.from_json(obj, name=args.path)
        violations = xmod.validate(target)
    else:
        raise InputError("unrecognized file: expected a complex, target, or crossed module")
    if violations:
        _emit("".join(f"violation: {v}\n" for v in violations), args.output)
        return EXIT_INPUT
    _emit("ok\n", args.output)
    return EXIT_OK


def cmd_snf(args) -> int:
    from .zlinalg import IntMatrix, smith_normal_form
    if args.matrix is not None:
        data = complexes.decode_json(args.matrix, "bad matrix literal", "--matrix", InputError)
    else:
        data = _read_json(args.file)
    try:
        A = IntMatrix.from_json(data)
    except (TypeError, ValueError) as err:
        raise InputError(f"bad matrix: {err}") from None
    dec = smith_normal_form(A)
    out = {
        "S": [list(r) for r in dec.S.data],
        "U": [list(r) for r in dec.U.data],
        "V": [list(r) for r in dec.V.data],
        "invariant_factors": list(dec.diagonal),
    }
    with _any_int_size():
        if args.format == "json":
            _emit(json.dumps(out, indent=2) + "\n", args.output)
        else:
            lines = [f"invariant factors: {list(dec.diagonal)}"]
            for label in ("S", "U", "V"):
                lines.append(f"{label} =")
                lines.extend("  " + " ".join(f"{x:4d}" for x in row) for row in out[label])
            _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_hoang(args) -> int:
    from . import xmod
    x = xmod.FiniteCrossedModule.from_json(_read_object(args.path))
    data = xmod.hoang_data(x)
    nonzero = sum(1 for v in data.beta.values() if v != 0)
    lines = [
        f"pi_1: order {len(data.pi1)}",
        f"pi_2: {data.pi2_invariants}",
        f"beta: {nonzero} nonzero entries of {len(data.beta)}; cocycle condition holds",
    ]
    if args.witness:
        witness = data.coboundary_witness()
        lines.append(
            "beta is a coboundary (class is trivial)"
            if witness is not None
            else "no coboundary witness: the extension class is nontrivial"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_report(args) -> int:
    from . import dim3
    M = resolve_source(args.source)
    report = dim3.crossed_square_report(M)
    _emit(report.render() + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state on it, and ``main`` looks each command up by name when it runs."""
    parser = _Parser(prog="topsectors", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the report to a file")

    def decimal(text):  # argparse's messages name a type by its function's name
        return read_decimal(text, "--sweep")

    p = sub.add_parser("classify", help="classify homotopy classes of maps")
    p.add_argument("--source", required=True, help="catalog name[:params] or JSON path")
    p.add_argument("--target", required=True, help="rp2|sphere2|trivial:r[,k]|lens:p,q|so3|path")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--based", action="store_true", default=True)
    mode.add_argument("--free", action="store_true", default=False)
    p.add_argument("--sweep", type=decimal, help="sector sweep radius (sphere target; default 2)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_out(p)

    p = sub.add_parser("crosscheck", help="run both routes and compare per sector")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--sweep", type=decimal, help="sector sweep radius (sphere target; default 3)")
    p.add_argument("--cup", help="override the cup-product table (JSON path; sphere target)")
    add_out(p)

    p = sub.add_parser("validate", help="validate a complex/target/crossed-module file")
    p.add_argument("path")

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    matrix = p.add_mutually_exclusive_group(required=True)
    matrix.add_argument("--matrix", help='JSON literal, e.g. "[[2,4],[6,8]]"')
    matrix.add_argument("--file", help="JSON file holding the matrix")
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_out(p)

    p = sub.add_parser("hoang", help="classification data of a finite crossed module")
    p.add_argument("path")
    p.add_argument("--witness", action="store_true", help="search for a coboundary witness")
    add_out(p)

    p = sub.add_parser("report", help="structural crossed-square report of a complex")
    p.add_argument("--source", required=True)
    add_out(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _Output(getattr(args, "out", None)) as args.output:
            return globals()[f"cmd_{args.command}"](args)
    except UnsupportedError as err:  # first: an unsupported complex is also a Dim3Error
        print(f"unsupported: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # any other failure is a bug: one line, no traceback
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
