import errno
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topsectors import classify2d, dim3
from topsectors.cli import main
from topsectors.complexes import CWComplex, TriadLetter, catalog, loads, saves
from topsectors.xmod import FiniteCrossedModule, target_catalog
from topsectors.fingrp import cyclic
from topsectors.words import Alphabet, Word

from test_xmod import HUGE_BOUNDARY, HUGE_TORSION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env():
    """The environment for a CLI subprocess, with this package importable."""
    src = str(Path(classify2d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _t(alphabet, f, cell, sign):
    return TriadLetter(alphabet.word(f), (), cell, sign)


def s1_x_s2_wedge_s2():
    """S^1 x (S^2 v S^2): 2-cells t and s with empty words, 3-cells
    t ^a t^-1 and s ^a s^-1."""
    a = Alphabet(["a"])
    return CWComplex(
        ["a"],
        [("t", ""), ("s", "")],
        [("x", [_t(a, "", "t", 1), _t(a, "a", "t", -1)]),
         ("y", [_t(a, "", "s", 1), _t(a, "a", "s", -1)])],
    )


def twisted(n):
    """A 2-sphere t and the 3-cell t ^{a^n} t^-1: Z_{2|nq|} at phi2 = q."""
    a = Alphabet(["a"])
    return CWComplex(["a"], [("t", "")], [("x", [_t(a, "", "t", 1), _t(a, f"a^{n}", "t", -1)])])


def torus3_wedge_s2():
    T = catalog("torus3")
    return CWComplex(T.alphabet.names, [*T.two_cells, ("s", "")], T.three_cells)


def trivial_action(G, H):
    return tuple(tuple(range(len(H))) for _ in range(len(G)))


# G = Z_2 x Z_2 acting on Z^2 by a swap and a reflection, which do not commute.
NON_COMMUTING_TARGET = {
    "G": {"free_rank": 0, "torsion": [2, 2]},
    "rank": 2,
    "action": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],
    "boundary": [[0, 0], [0, 0]],
}


class TestClassify:
    def test_torus2_rp2_free(self, capsys):
        code, out, _ = run(capsys, "classify", "--source", "torus2", "--target", "rp2", "--free")
        assert code == 0
        assert out.count("sector") == 4
        assert "Z_2" in out and "free orbits" in out

    def test_trefoil_free_class_count(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--source", "torus_knot:2,3", "--target", "rp2", "--free"
        )
        assert code == 0
        assert "total free classes: 3" in out

    def test_torus3_so3(self, capsys):
        code, out, _ = run(capsys, "classify", "--source", "torus3", "--target", "lens:2,1", "--free")
        assert code == 0
        assert "8 sectors" in out
        assert out.count(": Z\n") == 8

    def test_lens_source_without_one_cells(self, capsys, tmp_path):
        # The one sector has no phi1 to print, so it gets the 2-d route's label.
        path = tmp_path / "s2_s3.json"
        path.write_text(saves(CWComplex([], [("t", "")], [("x", [])])))
        code, out, _ = run(capsys, "classify", "--source", str(path), "--target", "lens:2,1")
        assert code == 0
        assert "1 sectors" in out
        assert "  sector (trivial pi_1): Z\n" in out

    def test_lens_of_order_1e8_starts_at_once(self):
        # No table or list over the 10^8 labels comes before the first sector.
        argv = "classify --source s1_x_s2 --target lens:100000000,1".split()
        proc = subprocess.Popen(
            [sys.executable, "-m", "topsectors.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_cli_env(),
        )
        timer = threading.Timer(5, proc.kill)
        timer.start()
        try:
            lines = [proc.stdout.readline() for _ in range(3)]
        finally:
            timer.cancel()
            proc.kill()
            proc.communicate()
        assert lines[2] == b"  sector a=0: Z\n", lines

    def test_sphere_target_dim3(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--source", "s1_x_s2", "--target", "sphere2", "--sweep", "3"
        )
        assert code == 0
        assert "sector t=3: Z_6" in out
        assert "sector t=0: Z" in out

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--source",
            "torus2",
            "--target",
            "rp2",
            "--free",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "free"
        assert len(doc["sectors"]) == 4
        groups = sorted(tuple(s["based_group"]) for s in doc["sectors"])
        assert groups == [(0,), (2,), (2,), (2,)]

    def test_json_agrees_with_text_counts(self, capsys):
        code, text_out, _ = run(
            capsys, "classify", "--source", "rp2", "--target", "rp2", "--free"
        )
        code2, json_out, _ = run(
            capsys,
            "classify",
            "--source",
            "rp2",
            "--target",
            "rp2",
            "--free",
            "--format",
            "json",
        )
        assert code == code2 == 0
        doc = json.loads(json_out)
        assert text_out.count("sector") >= len(doc["sectors"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            "classify",
            "--source",
            "torus2",
            "--target",
            "rp2",
            "--format",
            "json",
            "--out",
            str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["source"] == "torus2"

    def test_source_file(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(saves(catalog("torus2")))
        code, out, _ = run(capsys, "classify", "--source", str(path), "--target", "rp2")
        assert code == 0
        assert out.count("sector") == 4

    def test_unknown_source_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify", "--source", "banana", "--target", "rp2")
        assert code == 1
        assert "unknown source" in err

    def test_unsupported_combination(self, capsys):
        code, _, err = run(capsys, "classify", "--source", "torus3", "--target", "rp2")
        assert code == 2

    def test_infinite_pi1_unsupported(self, capsys):
        code, _, err = run(capsys, "classify", "--source", "torus2", "--target", "trivial:1,1")
        assert code == 2

    def test_lens_needs_dim3(self, capsys):
        code, _, err = run(capsys, "classify", "--source", "torus2", "--target", "so3")
        assert code == 2


class TestCrosscheck:
    def test_torus2_rp2(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--source", "torus2", "--target", "rp2")
        assert code == 0
        assert "all sectors match" in out

    def test_torus3_sphere(self, capsys):
        code, out, _ = run(
            capsys, "crosscheck", "--source", "torus3", "--target", "sphere2", "--sweep", "2"
        )
        assert code == 0
        assert "all sectors match" in out

    @pytest.mark.parametrize("command", ["classify", "crosscheck"])
    def test_sphere_cylinder_built_once(self, capsys, monkeypatch, command):
        # One command builds one cylinder, for its source, and no other.
        builds = []
        real_post_init = dim3.CylinderPreset.__post_init__

        def counted_post_init(self):
            builds.append(self.base.name)
            real_post_init(self)

        monkeypatch.setattr(dim3.CylinderPreset, "__post_init__", counted_post_init)
        code, _, err = run(
            capsys, command, "--source", "torus3", "--target", "sphere2", "--sweep", "1"
        )
        assert code == 0, err
        assert builds == ["torus3"]

    @pytest.mark.parametrize("make", [s1_x_s2_wedge_s2, torus3_wedge_s2])
    def test_non_catalog_sphere_source(self, capsys, tmp_path, make):
        path = tmp_path / "source.json"
        path.write_text(saves(make()))
        code, out, err = run(
            capsys, "crosscheck", "--source", str(path), "--target", "sphere2", "--sweep", "2"
        )
        assert code == 0, err
        assert out.endswith("all sectors match\n")

    def test_corrupted_cup_table_mismatch(self, capsys, tmp_path):
        bad = {
            "h1_rank": 1,
            "h2": [0],
            "h3": [0],
            "cup": [[[3]]],  # wrong pairing: e1 u e2 = 3 vol
        }
        path = tmp_path / "cup.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(
            capsys,
            "crosscheck",
            "--source",
            "s1_x_s2",
            "--target",
            "sphere2",
            "--sweep",
            "2",
            "--cup",
            str(path),
        )
        assert code == 3
        assert "MISMATCH" in out

    def test_unsupported_pair(self, capsys):
        code, _, err = run(capsys, "crosscheck", "--source", "s1_x_s2", "--target", "rp2")
        assert code == 2

    def test_thousand_digit_run(self, capsys):
        # a^p with a 1001-digit p: each run's labels cycle through Z_2, so
        # both routes finish in label steps bounded by |pi_1 X|.
        p = "1" + "0" * 1000
        code, out, err = run(
            capsys, "crosscheck", "--source", f"torus_knot:{p},3", "--target", "rp2"
        )
        assert code == 0, err
        assert out.endswith("all sectors match\n")


    def test_thousand_digit_conjugator(self, capsys, tmp_path):
        # a^N with a 1001-digit N in a 3-cell's conjugator is one run: one
        # Peiffer pair raised to N, so both routes finish at once.
        n = 10**1000
        path = tmp_path / "twisted.json"
        path.write_text(saves(twisted(n)))
        code, out, err = run(
            capsys, "classify", "--source", str(path), "--target", "sphere2", "--sweep", "1"
        )
        assert code == 0, err
        assert f"sector t=-1: Z_{2 * n}\n" in out and f"sector t=1: Z_{2 * n}\n" in out
        code, out, err = run(
            capsys, "crosscheck", "--source", str(path), "--target", "sphere2", "--sweep", "1"
        )
        assert code == 0, err
        assert out.endswith("all sectors match\n")


class TestValidate:
    def test_target_file_ok(self, capsys, tmp_path):
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps(target_catalog("rp2").to_json()))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "ok" in out

    def test_target_file_invalid(self, capsys, tmp_path):
        obj = target_catalog("rp2").to_json()
        obj["boundary"] = [[1], [1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "violation" in out

    def test_non_commuting_action_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(NON_COMMUTING_TARGET))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "do not commute" in out
        for command in ("classify", "crosscheck"):
            code, out, err = run(capsys, command, "--source", "torus2", "--target", str(path))
            assert code == 1
            assert err.startswith("error: invalid target") and out == ""

    def test_complex_file(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        path.write_text(saves(catalog("torus3")))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "cells (3, 3, 1)" in out

    @pytest.mark.parametrize("obj, cells", [
        ({"two_cells": [{"name": "t", "attach": ""}]}, (0, 1, 0)),
        ({}, (0, 0, 0)),
    ])
    def test_complex_file_without_generators(self, capsys, tmp_path, obj, cells):
        # Recognised by the format that --source reads: "generators" is optional.
        path = tmp_path / "space.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "validate", str(path)) == (0, f"ok: complex with cells {cells}\n", "")
        code, _, err = run(capsys, "classify", "--source", str(path), "--target", "rp2")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("obj", [{"foo": 1}, {"two_cells": [], "G_table": []}])
    def test_unrecognized_file(self, capsys, tmp_path, obj):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        assert err == "error: unrecognized file: expected a complex, target, or crossed module\n"

    def test_finite_crossed_module_file(self, capsys, tmp_path):
        Z2 = cyclic(2)
        x = FiniteCrossedModule(
            H=Z2, G=Z2, boundary=(0, 0), action=trivial_action(Z2, Z2)
        )
        path = tmp_path / "fxm.json"
        path.write_text(json.dumps(x.to_json()))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0

    @pytest.mark.parametrize("obj, violation", [
        (HUGE_TORSION, f"action of generator 0 does not respect its order {10**30}"),
        (HUGE_BOUNDARY, "Peiffer condition fails: d(e_0) does not act trivially"),
    ], ids=["torsion", "boundary"])
    def test_exponent_of_thirty_one_digits(self, capsys, tmp_path, obj, violation):
        # Each power was once taken as it stood, and neither command ended.
        path = tmp_path / "target.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        assert run(capsys, "validate", str(path)) == (1, f"violation: {violation}\n", "")
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", str(path))
        assert (code, out, err) == (1, "", f"error: invalid target: {violation}\n")
        assert time.perf_counter() - start < 1


def _two_generator_target(matrix, c):
    """G = Z^2 with both generators acting by ``matrix``, and d(e_0) = (c, -c)."""
    rank = len(matrix)
    boundary = [[c, -c]] + [[0, 0]] * (rank - 1)
    return {"G": {"free_rank": 2}, "rank": rank, "action": [matrix, matrix], "boundary": boundary}


HYPERBOLIC = [[2, 1], [1, 1]]
PLUS_HYPERBOLIC = [[1, 0, 0], [0, 2, 1], [0, 1, 1]]
UNIPOTENT = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
NOT_PRESERVED = "violation: equivariance fails: boundary not preserved by action of generator"
UNDECIDED = (
    "unsupported: cannot decide whether d(e_0) acts trivially: a power of the action"
    " has an entry of more than 4300 digits\n"
)


class TestPeifferPowerBound:
    # d(e_0) = (c, -c) acts by m^c m^-c = I, but a power of a matrix of
    # infinite order with c = 10^30 would never end: it is refused once an
    # entry outgrows the 4300 digits an input integer may have.
    @pytest.mark.parametrize("matrix, c, argv, code, out, err", [
        (HYPERBOLIC, 10**30, ["validate"], 1,
         f"{NOT_PRESERVED} 0\n{NOT_PRESERVED} 1\n", ""),
        (PLUS_HYPERBOLIC, 10**30, ["validate"], 2, "", UNDECIDED),
        (PLUS_HYPERBOLIC, 10**30, ["classify", "--source", "torus2", "--target"], 2, "",
         UNDECIDED),
        (PLUS_HYPERBOLIC, 3000, ["validate"], 0, "ok\n", ""),
        (UNIPOTENT, 10**30, ["validate"], 0, "ok\n", ""),
    ], ids=["not-equivariant", "undecided", "undecided-classify", "decided", "unipotent"])
    def test_exit_code(self, tmp_path, matrix, c, argv, code, out, err):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(_two_generator_target(matrix, c)))
        proc = subprocess.run(
            [sys.executable, "-m", "topsectors.cli", *argv, str(path)],
            capture_output=True, text=True, timeout=10, env=_cli_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


class TestSnf:
    def test_matrix_literal(self, capsys):
        code, out, _ = run(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
        assert code == 0
        assert "invariant factors: [2, 4]" in out

    @staticmethod
    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))
        ]

    def test_json_output_reconstructs(self, capsys):
        code, out, _ = run(
            capsys, "snf", "--matrix", "[[2,4],[6,8]]", "--format", "json"
        )
        doc = json.loads(out)
        assert self.matmul(self.matmul(doc["U"], doc["S"]), doc["V"]) == [[2, 4], [6, 8]]

    def test_seeded_50x50_json_is_small_and_reconstructs(self, capsys, tmp_path):
        # Transforms read off the Hermite form stay near the length of det A;
        # the sweep over A itself wrote 2516525 bytes for this matrix.
        rng = random.Random(50)
        A = [[rng.randint(-9, 9) for _ in range(50)] for _ in range(50)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(A))
        code, out, err = run(capsys, "snf", "--file", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert len(out.encode()) < 200_000
        doc = json.loads(out)
        assert self.matmul(self.matmul(doc["U"], doc["S"]), doc["V"]) == A

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "snf", "--matrix", "oops")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [["--matrix", "[[2]]", "--file", "/nonexistent.json"], []], ids=["both", "neither"]
    )
    def test_exactly_one_matrix_flag(self, capsys, argv):
        code, out, err = run(capsys, "snf", *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: topsectors snf")

    @pytest.mark.parametrize("literal", ["[[2.7,4],[6,8]]", "[[true,4],[6,8]]", '[["2",4],[6,8]]'])
    def test_non_integer_entries_rejected(self, capsys, tmp_path, literal):
        code, out, err = run(capsys, "snf", "--matrix", literal)
        assert code == 1 and out == ""
        assert "expected an integer" in err
        path = tmp_path / "m.json"
        path.write_text(literal)
        code, out, err = run(capsys, "snf", "--file", str(path))
        assert code == 1 and out == ""

    @pytest.mark.parametrize("literal", ["{}", "[{}]", '{"a": 1}', "[[1], {}]"])
    def test_not_a_list_of_rows_rejected(self, capsys, tmp_path, literal):
        path = tmp_path / "m.json"
        path.write_text(literal)
        for argv in (["--matrix", literal], ["--file", str(path)]):
            code, out, err = run(capsys, "snf", *argv)
            assert code == 1 and out == ""
            assert err == "error: bad matrix: expected a list of rows\n"

    @pytest.mark.parametrize("literal", ["[]", "[[]]"])
    def test_empty_shapes(self, capsys, literal):
        code, out, _ = run(capsys, "snf", "--matrix", literal, "--format", "json")
        assert code == 0
        assert json.loads(out)["invariant_factors"] == []

    def test_output_integers_of_any_size(self, capsys, tmp_path):
        # The entries have 4001 digits, under Python's default limit of 4300
        # for converting between int and str; a * (a + 1) has 8001.
        a = 10**4000
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[a, 0], [0, a + 1]]))
        limit = sys.get_int_max_str_digits()
        code, text, err = run(capsys, "snf", "--file", str(path))
        assert code == 0 and err == "" and text.startswith("invariant factors: [1, ")
        code, out, err = run(capsys, "snf", "--file", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["invariant_factors"] == [1, a * (a + 1)]
        finally:
            sys.set_int_max_str_digits(limit)


class TestOverLimitIntegers:
    """An input integer longer than Python's int-from-string limit (4300
    digits by default) is an input error, not a traceback; the limit keeps
    parsing bounded."""

    BIG = "7" * 5000

    def test_matrix_literal(self, capsys):
        code, out, err = run(capsys, "snf", "--matrix", f"[[{self.BIG}]]")
        assert code == 1 and out == ""
        assert err.startswith("error: bad matrix literal")
        self.check_message(err, "--matrix")

    @staticmethod
    def check_message(err, where):
        assert err.endswith(f"an integer in {where} has more than 4300 digits\n")
        assert "sys.set_int_max_str_digits" not in err

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(f"[[{self.BIG}]]")
        code, out, err = run(capsys, "snf", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad JSON in")
        self.check_message(err, path)

    def test_target_file(self, capsys, tmp_path):
        path = tmp_path / "target.json"
        text = json.dumps({**target_catalog("rp2").to_json(), "rank": -1})
        path.write_text(text.replace('"rank": -1', f'"rank": {self.BIG}'))
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad JSON in")
        self.check_message(err, path)

    def test_source_file(self, capsys, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(f'{{"generators": ["a"], "two_cells": [], "x": {self.BIG}}}')
        code, out, err = run(capsys, "classify", "--source", str(path), "--target", "rp2")
        assert code == 1 and out == ""
        assert err.startswith(f"error: bad JSON in {path}")
        self.check_message(err, path)

    @pytest.mark.parametrize("argv, where", [
        (["classify", "--source", f"genus_surface:{BIG}", "--target", "rp2"],
         "the parameters of genus_surface"),
        (["classify", "--source", "torus3", "--target", f"lens:{BIG},1"], "the parameters of lens"),
        (["crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--sweep", BIG], "--sweep"),
        (["classify", "--source", "s1_x_s2", "--target", "sphere2", "--sweep", f"-{BIG}"],
         "--sweep"),
    ], ids=["source", "target", "sweep", "negative-sweep"])
    def test_parameter(self, capsys, argv, where):
        # Not an internal error (exit 4), and the digits are not echoed.
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: an integer in {where} has more than 4300 digits\n"

    @pytest.mark.parametrize("cell, where", [
        ({"name": "t", "attach": f"a^{BIG}"}, "2-cell 't'"),
        ({"name": "x", "attach": [{"f": f"a^-{BIG}", "cell": "t", "sign": 1}]}, "3-cell 'x'"),
    ], ids=["two-cell", "three-cell"])
    def test_exponent_in_a_complex_file(self, capsys, tmp_path, cell, where):
        key = "two_cells" if "2-cell" in where else "three_cells"
        obj = {"generators": ["a"], "two_cells": [{"name": "t", "attach": ""}], key: [cell]}
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "classify", "--source", str(path), "--target", "rp2")
        assert code == 1 and out == ""
        assert err == f"error: an integer in {where} has more than 4300 digits\n"


class TestOverLimitOutput:
    """Answers whose integers run past the digit limit are printed in full:
    the limit is lifted only after the input has been read."""

    N = int("5" * 4300)

    def check(self, capsys, argv, order):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert f"Z_{order}" in out
        finally:
            sys.set_int_max_str_digits(limit)
        assert argv[0] == "classify" or out.endswith("all sectors match\n")

    def test_two_complex(self, capsys, tmp_path):
        # Z_N + Z_{N+1} = Z_{N(N+1)}, an answer of 8600 digits.
        path = tmp_path / "big.json"
        two_cells = [("r", f"a^{self.N}"), ("s", f"b^{self.N + 1}")]
        path.write_text(saves(CWComplex(["a", "b"], two_cells)))
        argv = ["crosscheck", "--source", str(path), "--target", "trivial:1"]
        self.check(capsys, argv, self.N * (self.N + 1))

    @pytest.mark.parametrize("command", ["classify", "crosscheck"])
    def test_sphere_conjugator(self, capsys, tmp_path, command):
        path = tmp_path / "twisted.json"
        path.write_text(saves(twisted(self.N)))
        argv = [command, "--source", str(path), "--target", "sphere2", "--sweep", "1"]
        self.check(capsys, argv, 2 * self.N)


@pytest.mark.parametrize("extra", [(), ("--format", "json"), ("--free",)])
def test_too_many_classes_to_list_is_unsupported(capsys, tmp_path, extra):
    # Z_N + Z_{N+1} = Z_{N(N+1)}: about 10^20 classes, more than a range can
    # hold, so the count is refused before any class is listed.
    N = 10**10
    path = tmp_path / "big.json"
    path.write_text(saves(CWComplex(["a", "b"], [("r", f"a^{N}"), ("s", f"b^{N + 1}")])))
    argv = ["classify", "--source", str(path), "--target", "trivial:1", *extra]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"unsupported: {N * (N + 1)} classes are too many to list\n"


@pytest.mark.parametrize("text", ["5", '"x"', "[1, 2]"])
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "{path}"),
        ("classify", "--source", "torus2", "--target", "{path}"),
        ("hoang", "{path}"),
        ("crosscheck", "--source", "torus3", "--target", "sphere2", "--cup", "{path}"),
    ],
)
def test_file_not_an_object_is_input_error(capsys, tmp_path, argv, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert err == f"error: bad JSON in {path}: expected a JSON object\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("snf", "--file", "{path}"),
        ("classify", "--source", "torus2", "--target", "{path}"),
        ("classify", "--source", "{path}", "--target", "rp2"),
    ],
)
def test_file_not_utf8_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe[[1]]")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "utf-8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("snf", "--file", "{path}"),
        ("snf", "--matrix", "[" * 50000),
        ("validate", "{path}"),
        ("classify", "--source", "{path}", "--target", "rp2"),
        ("classify", "--source", "torus2", "--target", "{path}"),
        ("hoang", "{path}"),
        ("crosscheck", "--source", "torus3", "--target", "sphere2", "--cup", "{path}"),
    ],
    ids=["snf-file", "snf-matrix", "validate", "source", "target", "hoang", "cup"],
)
def test_deeply_nested_json_is_input_error(capsys, tmp_path, argv):
    # The decoder's RecursionError is a bad input, not an internal error.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_FILES = {
    "truncated": '{"generators": [',
    "nested": "[" * 100000 + "]" * 100000,
    "long-integer": '{"generators": [], "x": ' + "7" * 5000 + "}",
    "list": "[]",
    "not-utf8": b"\xff\xfe{}",
    "missing": None,
}


@pytest.mark.parametrize("kind", BAD_FILES)
def test_bad_complex_file_gets_one_message(capsys, tmp_path, kind):
    # Every command that reads a complex file reads it through one reader.
    path = tmp_path / "space.json"
    content = BAD_FILES[kind]
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    results = {
        run(capsys, *argv)
        for argv in (
            ("validate", str(path)),
            ("classify", "--source", str(path), "--target", "rp2"),
            ("crosscheck", "--source", str(path), "--target", "rp2"),
            ("report", "--source", str(path)),
        )
    }
    assert len(results) == 1
    ((code, out, err),) = results
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    expected = f"cannot read {str(path)!r}: " if content is None else f"bad JSON in {path}"
    assert err.startswith(f"error: {expected}")


class TestNonIntegerFiles:
    @pytest.mark.parametrize(
        "edit",
        [
            {"rank": 2.0},
            {"G": {"free_rank": True, "torsion": []}},
            {"action": [[[0, 1], [1, 0.5]]]},
            {"boundary": [[2.0], [2]]},
            {"G": []},
        ],
    )
    def test_target_file(self, capsys, tmp_path, edit):
        obj = {**target_catalog("rp2").to_json(), **edit}
        path = tmp_path / "target.json"
        path.write_text(json.dumps(obj))
        for argv in (("validate", str(path)), ("classify", "--source", "torus2", "--target", str(path))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: malformed target file")

    def test_target_file_not_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"G": {')
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad JSON in")

    def test_target_file_missing(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", str(path))
        assert code == 1 and out == ""
        assert err == f"error: cannot read {str(path)!r}: {os.strerror(errno.ENOENT)}\n"

    def test_cup_file(self, capsys, tmp_path):
        path = tmp_path / "cup.json"
        path.write_text(json.dumps({"h1_rank": 1, "h2": [0], "h3": [0], "cup": [[[1.5]]]}))
        code, out, err = run(
            capsys, "crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--cup", str(path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: malformed cup file")


def _edited(obj, path, value):
    """A deep copy of a JSON value with the subtree at ``path`` replaced."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


TORUS3_FILE = json.loads(saves(catalog("torus3")))
LETTER = ("three_cells", 0, "attach", 0)
Z2_MODULE_FILE = {
    "H_table": [[0, 1], [1, 0]],
    "G_table": [[0, 1], [1, 0]],
    "boundary": [0, 0],
    "action": [[0, 1], [0, 1]],
}


class TestMalformedFields:
    """A field of the wrong type or out of range is an input error naming
    the field, never a traceback, a silent conversion or an echo."""

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("generators",), 5, "'generators'"),
            (("generators",), ["a", "b", "c", 3], "'generators'"),
            (("two_cells",), 5, "'two_cells'"),
            (("three_cells", 0, "attach"), 5, "'attach'"),
            (("three_cells", 0, "name"), 5, "'name'"),
            (LETTER + ("h",), 5, "'h'"),
            (LETTER + ("f",), 5, "'f'"),
            (LETTER + ("sign",), "x", "'sign'"),
            (LETTER + ("sign",), 1.9, "'sign'"),
            (("name",), ["x"], "'name'"),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, tuple) else "/".join(map(str, v)),
    )
    def test_complex_file(self, capsys, tmp_path, path, value, field):
        file = tmp_path / "space.json"
        file.write_text(json.dumps(_edited(TORUS3_FILE, path, value)))
        for argv in (("validate", str(file)), ("classify", "--source", str(file), "--target", "sphere2")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("H_table", 1, 0), 1.5, "H_table"),
            (("H_table", 0, 1), True, "H_table"),
            (("G_table",), "ab", "G_table"),
            (("boundary", 1), 5, "boundary"),
            (("boundary",), 5, "boundary"),
            (("action", 0, 0), "0", "action"),
            (("action",), 5, "action"),
            (("action", 1), 0, "action"),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, tuple) else "/".join(map(str, v)),
    )
    @pytest.mark.parametrize("command", ["validate", "hoang"])
    def test_crossed_module_file(self, capsys, tmp_path, command, path, value, field):
        file = tmp_path / "x.json"
        file.write_text(json.dumps(_edited(Z2_MODULE_FILE, path, value)))
        code, out, err = run(capsys, command, str(file))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}")

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("action",), 5, "'action'"),
            (("action", 0), [[0, 1], [1]], "'action'"),
            (("rank",), 1.5, "'rank'"),
            (("rank",), None, "'rank'"),
            (("boundary",), 5, "'boundary'"),
            (("boundary", 0), 2, "'boundary'"),
            (("G", "torsion"), 3, "'torsion'"),
            (("G", "torsion"), [2.5], "'torsion'"),
            (("G", "free_rank"), "1", "'free_rank'"),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, tuple) else "/".join(map(str, v)),
    )
    def test_target_file(self, capsys, tmp_path, path, value, field):
        file = tmp_path / "target.json"
        file.write_text(json.dumps(_edited(target_catalog("rp2").to_json(), path, value)))
        for argv in (("validate", str(file)), ("classify", "--source", "torus2", "--target", str(file))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and field in err

    def test_target_file_missing_field(self, capsys, tmp_path):
        obj = target_catalog("rp2").to_json()
        del obj["rank"]
        file = tmp_path / "target.json"
        file.write_text(json.dumps(obj))
        code, out, err = run(capsys, "validate", str(file))
        assert code == 1 and out == ""
        assert err == "error: missing key 'rank'\n"

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("cup",), None, "'cup'"),
            (("cup",), 5, "'cup'"),
            (("cup", 0), 5, "'cup'"),
            (("cup", 0, 0, 0), 1.5, "'cup'"),
            (("h1_rank",), 1.0, "'h1_rank'"),
            (("h2",), "x", "'h2'"),
            (("h3", 0), True, "'h3'"),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, tuple) else "/".join(map(str, v)),
    )
    def test_cup_file(self, capsys, tmp_path, path, value, field):
        cup = {"h1_rank": 1, "h2": [0], "h3": [0], "cup": [[[1]]]}
        file = tmp_path / "cup.json"
        file.write_text(json.dumps(_edited(cup, path, value)))
        code, out, err = run(
            capsys, "crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--cup", str(file)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and field in err

    def test_cup_file_missing_field(self, capsys, tmp_path):
        file = tmp_path / "cup.json"
        file.write_text(json.dumps({"h1_rank": 1, "h2": [0], "h3": [0]}))
        code, out, err = run(
            capsys, "crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--cup", str(file)
        )
        assert code == 1 and out == ""
        assert err == "error: missing key 'cup'\n"

    def test_unknown_key_in_target_group(self, capsys, tmp_path):
        obj = _edited(target_catalog("rp2").to_json(), ("G",), {"free_rank": 1, "torsoin": [2]})
        file = tmp_path / "target.json"
        file.write_text(json.dumps(obj))
        for argv in (("validate", str(file)), ("classify", "--source", "torus2", "--target", str(file))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == "error: unknown keys in target file G: ['torsoin']\n"


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _subtree_paths(node, prefix=()):
    """The path of every subtree of a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _subtree_paths(child, prefix + (key,))


RP2_FILE = target_catalog("rp2").to_json()
CUP_FILE = {"h1_rank": 1, "h2": [0], "h3": [0], "cup": [[[1]]]}
# Each valid file with the commands that read it ("{}" stands for its path).
FUZZ_FILES = [
    (TORUS3_FILE, ["validate {}", "classify --source {} --target sphere2 --sweep 1"]),
    (RP2_FILE, ["validate {}", "classify --source torus2 --target {} --free"]),
    (Z2_MODULE_FILE, ["validate {}", "hoang {} --witness"]),
    (CUP_FILE, ["crosscheck --source s1_x_s2 --target sphere2 --sweep 1 --cup {}"]),
]
FUZZ_SITES = [
    (valid, path, commands)
    for valid, commands in FUZZ_FILES
    for path in _subtree_paths(valid)
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(site=st.sampled_from(FUZZ_SITES), value=SMALL_JSON)
def test_fuzzed_file_is_accepted_or_refused(tmp_path_factory, site, value):
    # A valid complex, target, crossed-module or cup file with one subtree
    # replaced by a small random JSON value: validate exits 0 or 1, and the
    # other commands that read the file exit 0 to 3, never 4.
    valid, path, commands = site
    file = tmp_path_factory.getbasetemp() / "fuzzed.json"
    file.write_text(json.dumps(_edited(valid, path, value)))
    for command in commands:
        code = main([arg.format(file) for arg in command.split()])
        assert code in ((0, 1) if command.startswith("validate") else (0, 1, 2, 3)), command


# Each command's required and optional arguments ("" is a positional one),
# and the values each may take: small catalog values, malformed ones and the
# fuzz files, so that every random command line stays bounded.
ARG_OPTIONS = {
    "classify": (["--source", "--target"], ["--free", "--sweep", "--format", "--out"]),
    "crosscheck": (["--source", "--target"], ["--sweep", "--cup", "--out"]),
    "validate": ([""], []),
    "snf": ([], ["--matrix", "--file", "--format", "--out"]),
    "hoang": ([""], ["--witness", "--out"]),
    "report": (["--source"], ["--out"]),
}
ARG_VALUES = {
    "--source": [
        "torus2", "rp2", "sphere2", "torus3", "s1_x_s2", "klein_bottle", "genus_surface:2",
        "torus_knot:2,3", "circle_wedge:2", "genus_surface:0_2", "torus2:", "{complex}", "{missing}",
    ],
    "--target": [
        "rp2", "sphere2", "trivial:1", "trivial:1,1", "lens:3,1", "so3", "lens:1,1", "lens:+3,1",
        "{target}", "{module}",
    ],
    "--sweep": ["0", "1", "-1", "0_1", ""],
    "--cup": ["{cup}", "{complex}", "", "{missing}"],
    "--format": ["text", "json", "xml"],
    "--out": ["{out}", "", "{missing}/x.txt"],
    "--matrix": ["[[2,4],[6,8]]", "[[", "[[1.5]]", "[]", "[[" + "7" * 5000 + "]]"],
    "--file": ["{matrix}", "{complex}", "{missing}"],
    "": ["{complex}", "{target}", "{module}", "{cup}", "{missing}", ""],
}
ARG_FLAGS = ("--free", "--witness")


@st.composite
def command_lines(draw):
    """A command with each required argument left out one time in eight,
    each optional one given half the time, and sometimes a stray token."""
    command = draw(st.sampled_from(sorted(ARG_OPTIONS)))
    required, optional = ARG_OPTIONS[command]
    argv = [command]
    for option in required + optional:
        if draw(st.integers(0, 7)) if option in required else draw(st.booleans()):
            argv += [option] if option else []
            if option not in ARG_FLAGS:
                argv.append(draw(st.sampled_from(ARG_VALUES[option])))
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--based", "--sweep", "1", "{module}"])))
    return argv


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=command_lines())
def test_random_command_line_exits_cleanly(tmp_path_factory, argv):
    # Any command line built from these parts exits 0 to 3, never 4.
    folder = tmp_path_factory.getbasetemp() / "argv"
    folder.mkdir(exist_ok=True)
    files = {"missing": folder / "missing.json", "out": folder / "out.txt"}
    for name, obj in [
        ("complex", TORUS3_FILE), ("target", RP2_FILE), ("module", Z2_MODULE_FILE),
        ("cup", CUP_FILE), ("matrix", [[2, 4], [6, 8]]),
    ]:
        files[name] = folder / f"{name}.json"
        files[name].write_text(json.dumps(obj))  # afresh: an --out may have overwritten it
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)  # where an --out naming no directory writes
        code = main([arg.format(**files) for arg in argv])
    assert code in (0, 1, 2, 3), argv


class TestHoang:
    def test_split_module(self, capsys, tmp_path):
        Z2 = cyclic(2)
        x = FiniteCrossedModule(
            H=Z2, G=Z2, boundary=(0, 0), action=trivial_action(Z2, Z2)
        )
        path = tmp_path / "x.json"
        path.write_text(json.dumps(x.to_json()))
        code, out, _ = run(capsys, "hoang", str(path), "--witness")
        assert code == 0
        assert "pi_2: Z_2" in out
        assert "coboundary" in out

    def test_nontrivial_class(self, capsys, tmp_path):
        Z4 = cyclic(4)
        act = tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4))
        x = FiniteCrossedModule(
            H=Z4, G=Z4, boundary=tuple((2 * h) % 4 for h in range(4)), action=act
        )
        path = tmp_path / "x.json"
        path.write_text(json.dumps(x.to_json()))
        code, out, _ = run(capsys, "hoang", str(path), "--witness")
        assert code == 0
        assert "nontrivial" in out

    def test_z2_to_the_6_finishes(self, tmp_path):
        # pi_2 = Z_2^6 under XOR; a search over tuples of elements took
        # minutes here, so the run is a subprocess that a timeout can stop.
        n = 64
        path = tmp_path / "z2_6.json"
        path.write_text(json.dumps({
            "H_table": [[i ^ j for j in range(n)] for i in range(n)],
            "G_table": [[0]],
            "boundary": [0] * n,
            "action": [list(range(n))],
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "topsectors.cli", "hoang", str(path)],
            capture_output=True, text=True, timeout=10, env=_cli_env(),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert f"pi_2: {' x '.join(['Z_2'] * 6)}\n" in proc.stdout


class TestReport:
    def test_torus3(self, capsys):
        code, out, _ = run(capsys, "report", "--source", "torus3")
        assert code == 0
        assert "3 one-cells, 3 two-cells, 1 three-cells" in out
        assert "sigma_3(x)" in out

    def test_sphere2(self, capsys):
        code, out, _ = run(capsys, "report", "--source", "sphere2")
        assert code == 0
        assert "H = H-bar = G = Z" in out


class TestStructuralDispatch:
    """Sources and the sphere target are recognised by structure, never by
    a file's name field."""

    def _s1_x_s2_copy(self, tmp_path, name):
        obj = json.loads(saves(catalog("s1_x_s2")))
        obj.pop("name")
        if name is not None:
            obj["name"] = name
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("name", ["torus3", None])
    def test_copy_of_s1_x_s2(self, capsys, tmp_path, name):
        path = self._s1_x_s2_copy(tmp_path, name)
        _, expected, _ = run(capsys, "classify", "--source", "s1_x_s2", "--target", "sphere2")
        code, out, err = run(capsys, "classify", "--source", path, "--target", "sphere2")
        assert code == 0, err
        title = "torus3" if name else "complex"
        assert out == expected.replace("s1_x_s2 -> sphere2", f"{title} -> sphere2")
        code, out, err = run(capsys, "crosscheck", "--source", path, "--target", "sphere2")
        assert code == 0, err
        assert "all sectors match" in out

    def test_h_conjugated_triad_letter(self, capsys, tmp_path):
        # s1_x_s2 with its second letter also conjugated by the 2-cell t, as
        # the README's "h" allows: the same space, so the same answers.
        text = json.dumps({
            "generators": ["a"],
            "two_cells": [{"name": "t", "attach": ""}],
            "three_cells": [{"name": "x", "attach": [
                {"f": "", "h": [], "cell": "t", "sign": 1},
                {"f": "a", "h": [{"f": "", "cell": "t", "sign": 1}], "cell": "t", "sign": -1},
            ]}],
        })
        M = loads(text)
        assert M.three_cells[0][1][1].conj_h == ((Word.identity(M.alphabet), "t", 1),)
        assert json.loads(saves(M)) == json.loads(text)
        assert loads(saves(M)).three_cells == M.three_cells
        S = catalog("s1_x_s2")
        assert dim3.classify_s2(M, sweep=2).sectors == dim3.classify_s2(S, sweep=2).sectors
        assert dim3.cup_table(M) == dim3.cup_table(S)
        path = tmp_path / "conjugated.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (0, "ok: complex with cells (1, 1, 1)\n", "")
        code, out, err = run(capsys, "crosscheck", "--source", str(path), "--target", "sphere2",
                             "--sweep", "2")
        assert code == 0, err
        assert out.splitlines()[-1] == "all sectors match"

    def test_sphere_target_file(self, capsys, tmp_path):
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(target_catalog("sphere2").to_json()))
        for command in ("classify", "crosscheck"):
            _, expected, _ = run(capsys, command, "--source", "torus3", "--target", "sphere2")
            code, out, err = run(capsys, command, "--source", "torus3", "--target", str(path))
            assert code == 0, err
            assert out == expected


# The exit code of each command, source and target: 0 on a route, 2 for an
# unsupported pair.  renamed.json is s1_x_s2 with its 1-cell renamed, though
# its name field says s1_x_s2.  lens31.json (t = a^3, 3-cell t ^a t^-1) and
# constrained.json (3-cell t s^-1) are valid 3-complexes outside the sphere
# route's domain.
ROUTE_TABLE = {
    "classify": {
        "torus2": {"rp2": 0, "sphere2": 0, "lens:3,1": 2},
        "torus3": {"rp2": 2, "sphere2": 0, "lens:3,1": 0},
        "renamed.json": {"rp2": 2, "sphere2": 0, "lens:3,1": 0},
        "lens31.json": {"rp2": 2, "sphere2": 2, "lens:3,1": 0},
        "constrained.json": {"rp2": 2, "sphere2": 2, "lens:3,1": 0},
    },
    "crosscheck": {
        "torus2": {"rp2": 0, "sphere2": 0, "lens:3,1": 2},
        "torus3": {"rp2": 2, "sphere2": 0, "lens:3,1": 2},
        "renamed.json": {"rp2": 2, "sphere2": 0, "lens:3,1": 2},
        "lens31.json": {"rp2": 2, "sphere2": 2, "lens:3,1": 2},
        "constrained.json": {"rp2": 2, "sphere2": 2, "lens:3,1": 2},
    },
}

SPHERE_DOMAIN_ERRORS = {
    "lens31.json": "unsupported: 2-cell t has nonzero exponent sums,"
    " so its interval 3-cell does not pin phi2\n",
    "constrained.json": "unsupported: 3-cell x constrains phi2: {'t': 1, 's': -1}\n",
}


@pytest.mark.parametrize(
    "command, source, target, expected",
    [
        (command, source, target, code)
        for command, rows in ROUTE_TABLE.items()
        for source, row in rows.items()
        for target, code in row.items()
    ],
)
def test_route_table(capsys, monkeypatch, tmp_path, command, source, target, expected):
    obj = json.loads(saves(catalog("s1_x_s2")))
    obj["generators"] = ["b"]
    for cell in obj["three_cells"]:
        for letter in cell["attach"]:
            letter["f"] = letter["f"].replace("a", "b")
    (tmp_path / "renamed.json").write_text(json.dumps(obj))
    a, none = Alphabet(["a"]), Alphabet([])
    lens31 = CWComplex(["a"], [("t", "a^3")], [("x", [_t(a, "", "t", 1), _t(a, "a", "t", -1)])])
    (tmp_path / "lens31.json").write_text(saves(lens31))
    constrained = CWComplex(
        [], [("t", ""), ("s", "")], [("x", [_t(none, "", "t", 1), _t(none, "", "s", -1)])]
    )
    (tmp_path / "constrained.json").write_text(saves(constrained))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--source", source, "--target", target)
    assert code == expected, err
    assert (out == "") == (code != 0)
    if target == "sphere2" and source in SPHERE_DOMAIN_ERRORS:
        assert err == SPHERE_DOMAIN_ERRORS[source]


class TestCleanExits:
    # 1 * 1 = 1, so element 1 of H has no inverse
    NO_INVERSE = {
        "H_table": [[0, 1], [1, 1]],
        "G_table": [[0, 1], [1, 0]],
        "boundary": [0, 0],
        "action": [[0, 1], [0, 1]],
    }

    @pytest.mark.parametrize("command", ["hoang", "validate"])
    def test_table_without_inverse(self, capsys, tmp_path, command):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(self.NO_INVERSE))
        code, _, err = run(capsys, command, str(path))
        assert code == 1
        assert err.startswith("error: element 1 has no inverse")

    @pytest.mark.parametrize("command", ["classify", "crosscheck"])
    def test_negative_sweep(self, capsys, command):
        code, out, err = run(
            capsys, command, "--source", "s1_x_s2", "--target", "sphere2", "--sweep", "-1"
        )
        assert code == 1 and out == ""
        assert "sweep must be >= 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--source", "torus2", "--target", "rp2", "--sweep", "-5"],
            ["classify", "--source", "torus2", "--target", "rp2", "--sweep", "2"],
            ["classify", "--source", "torus3", "--target", "lens:3,1", "--sweep", "-2"],
            ["classify", "--source", "torus3", "--target", "lens:3,1", "--sweep", "1"],
            ["crosscheck", "--source", "torus2", "--target", "rp2", "--sweep", "-1"],
            ["crosscheck", "--source", "torus2", "--target", "rp2", "--cup", "/nonexistent.json"],
            ["crosscheck", "--source", "torus3", "--target", "lens:3,1", "--cup", "/nonexistent.json"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_sphere_flag_off_its_route(self, capsys, argv):
        flag = argv[-2]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} applies only to")

    @pytest.mark.parametrize("command", ["crosscheck", "hoang", "report"])
    def test_format_only_where_it_acts(self, capsys, command):
        argv = {
            "crosscheck": ["--source", "torus2", "--target", "rp2"],
            "hoang": ["x.json"],
            "report": ["--source", "torus3"],
        }[command]
        code, out, _ = run(capsys, command, *argv, "--format", "json")
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "target, field",
        [("trivial:-1", "rank"), ("trivial:-1,0", "rank"), ("trivial:-1,2", "rank"),
         ("trivial:1,-1", "free_rank")],
    )
    def test_negative_catalog_rank(self, capsys, target, field):
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", target)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field} must be >= 0, got -")

    @pytest.mark.parametrize(
        "edit, field",
        [({"rank": -2}, "rank"), ({"G": {"free_rank": -1, "torsion": []}}, "free_rank")],
    )
    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_negative_file_rank(self, capsys, tmp_path, command, edit, field):
        target = {"G": {"free_rank": 0, "torsion": []}, "rank": 1, "action": [], "boundary": [[]]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps({**target, **edit}))
        argv = ["--source", "torus2", "--target", str(path)] if command == "classify" else [str(path)]
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field} must be >= 0, got -")

    def test_lens_answer_independent_of_q(self, capsys):
        outputs = []
        for q in (1, 2):
            code, out, _ = run(
                capsys, "classify", "--source", "torus3", "--target", f"lens:5,{q}", "--format", "json"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_missing_subcommand_is_input_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("broken invariant")])
    def test_internal_error(self, capsys, monkeypatch, exc):
        def route(*args, **kwargs):
            raise exc

        monkeypatch.setattr(classify2d, "classify_sectors", route)
        code, out, err = run(capsys, "classify", "--source", "torus2", "--target", "rp2")
        assert code == 4 and out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_help_passes_through(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "4 internal error" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name, text", [
        ("torus2", saves(CWComplex(["a"], [("t", "a^3")]))),
        ("rp2", "not json"),
    ], ids=["source", "target"])
    def test_file_never_hides_a_catalog_name(self, capsys, monkeypatch, tmp_path, name, text):
        argv = ("classify", "--source", "torus2", "--target", "rp2")
        expected = run(capsys, *argv)
        (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--source", "genus_surface:2,"],
            ["report", "--source", "torus_knot:2,,3"],
            ["report", "--source", "genus_surface:1_0"],
            ["report", "--source", "genus_surface: 2"],
            ["report", "--source", "torus2:"],
            ["report", "--source", "genus_surface:\u0662"],
            ["classify", "--source", "torus3", "--target", "lens:1_1,1"],
            ["classify", "--source", "torus3", "--target", "lens:+7,1"],
            ["classify", "--source", "torus2", "--target", "trivial:1_0"],
            ["classify", "--source", "torus2", "--target", "trivial:2,"],
        ],
        ids=lambda argv: argv[-1],
    )
    def test_malformed_catalog_parameter(self, capsys, argv):
        # Every field is ASCII digits with an optional '-': an empty field is
        # not skipped, and int()'s underscores, spaces and '+' are refused.
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: non-integer parameter in {argv[-1]!r}\n"

    @pytest.mark.parametrize("command", ["classify", "crosscheck"])
    @pytest.mark.parametrize("sweep", ["0_1", "+1", "\u0661", " 1", "1.0"])
    def test_sweep_is_ascii_decimal(self, capsys, command, sweep):
        # int() would read each of these as 1.
        code, out, err = run(
            capsys, command, "--source", "s1_x_s2", "--target", "sphere2", "--sweep", sweep
        )
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument --sweep: invalid decimal value: {sweep!r}\n")

    def test_empty_out_is_a_path(self, capsys):
        code, out, err = run(capsys, "snf", "--matrix", "[[2]]", "--out", "")
        assert code == 1 and out == ""
        assert err == f"error: cannot write '': {os.strerror(errno.ENOENT)}\n"

    def test_empty_cup_is_a_path(self, capsys):
        argv = ["crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--sweep", "1"]
        code, out, err = run(capsys, *argv, "--cup", "")
        assert code == 1 and out == ""
        assert err == f"error: cannot read '': {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.parametrize("source, target, message", [
        ("torus_knot:2", "rp2", "source torus_knot expects parameters p,q"),
        ("torus2", "trivial:1,2,3", "target trivial expects parameters r[,k]"),
        ("torus3", "lens:7", "target lens expects parameters p,q"),
        ("torus3", "lens:1,1", "lens target needs p >= 2, q >= 1"),
        ("torus2", "foo", "unknown target 'foo'"),
    ])
    def test_wrong_catalog_parameters(self, capsys, source, target, message):
        code, out, err = run(capsys, "classify", "--source", source, "--target", target)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("target", ["rp2:", "sphere2:", "so3:"])
    def test_colon_on_a_target_without_parameters(self, capsys, target):
        code, out, err = run(capsys, "classify", "--source", "torus3", "--target", target)
        assert code == 1 and out == ""
        assert err == f"error: target {target[:-1]} takes no parameters\n"

    @pytest.mark.parametrize("out", [".", "missing/dir/x.txt"])
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, out):
        # The message names the --out path and the reason only, not the
        # file written beside it, so that it is the same on every run.
        path = tmp_path / out
        code, stdout, err = run(
            capsys, "classify", "--source", "torus2", "--target", "rp2", "--out", str(path)
        )
        reason = os.strerror(errno.EISDIR if out == "." else errno.ENOENT)
        assert code == 1 and stdout == ""
        assert err == f"error: cannot write {str(path)!r}: {reason}\n" and ".part" not in err

    @staticmethod
    def _cli_process(argv, stdout):
        return subprocess.Popen(
            [sys.executable, "-m", "topsectors.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=_cli_env(),
        )

    def test_closed_stdout_ends_quietly(self):
        # The JSON is far larger than a pipe buffer, so the CLI is still
        # writing when the reader closes the pipe after one line.
        argv = "classify --source genus_surface:4 --target rp2 --free --format json".split()
        proc = self._cli_process(argv, subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.communicate(timeout=60)[1] == b""
        assert proc.returncode == 0

    def test_closed_stdout_ends_an_unbounded_classify(self):
        # 10^8 sectors: once its reader is gone, classify has nothing left
        # to give and stops at the first failed write.
        argv = "classify --source s1_x_s2 --target lens:100000000,1".split()
        proc = self._cli_process(argv, subprocess.PIPE)
        try:
            assert [proc.stdout.readline() for _ in range(3)][2] == b"  sector a=0: Z\n"
            proc.stdout.close()
            assert proc.communicate(timeout=10)[1] == b""
            assert proc.returncode == 0
        finally:
            proc.kill()
            proc.communicate()

    def test_crosscheck_into_a_closed_pipe_keeps_its_verdict(self, tmp_path):
        # The exit code is the verdict, so crosscheck answers every sector.
        path = tmp_path / "cup.json"
        path.write_text(json.dumps({"h1_rank": 1, "h2": [0], "h3": [0], "cup": [[[3]]]}))
        read, write = os.pipe()
        os.close(read)
        argv = ["crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--cup", str(path)]
        proc = self._cli_process(argv, write)
        os.close(write)
        assert proc.communicate(timeout=60)[1] == b""
        assert proc.returncode == 3

    def test_validate_into_a_closed_pipe(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(saves(catalog("torus2")))
        read, write = os.pipe()
        os.close(read)
        proc = self._cli_process(["validate", str(path)], write)
        os.close(write)
        assert proc.communicate(timeout=60)[1] == b""
        assert proc.returncode == 0

    def test_determinism(self, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run(
                capsys, "classify", "--source", "klein_bottle", "--target", "rp2", "--free"
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


# sha256 of stdout for the acceptance commands, recorded before the
# invariant-factor and sphere-sweep refactors; any byte of drift fails.
PINNED_OUTPUTS = [
    ("classify --source genus_surface:4 --target rp2 --free --format json",
     "9604e626cf933de79807b9d8e7743a4735f23b52d44a7f940ed0bbde67dceb7e"),
    ("classify --source torus_knot:2,3 --target rp2 --free",
     "d270bc3841774545945054785fe983675d2784a5f2cd288534408f2223221123"),
    ("classify --source klein_bottle --target rp2 --free",
     "0bae650b69d85149ecdf383ff8d417d3adf07f37b45b60c6c97a9cd370afdd29"),
    ("classify --source torus3 --target lens:7,1 --format json",
     "68d3185e5e10f5786855622de9401c55b1e2370a89c868c029bb200d7124d432"),
    # The text form, recorded before the lens route wrote through the shared stream.
    ("classify --source torus3 --target lens:7,1",
     "a607db678f7acb6b2132861087dfe8ee312773f0c039db8c962eeff92b922d83"),
    ("classify --source s1_wedge_s2 --target rp2 --free",
     "9adc75049acf967e67181eb8c85b61a45732b3afedd8d1a4b6085f4585029222"),
    ("classify --source torus3 --target sphere2 --sweep 2 --format json",
     "fd49064a77106d9737302edafbcbd3bf837192d8ad2546d05bea30d4c6a78b19"),
    ("crosscheck --source torus2 --target rp2",
     "c9f7160cde07c3746b05330c261829ee532bdfc20940ffef25717dad9c215acc"),
    ("crosscheck --source torus_knot:20000,3 --target rp2",
     "d3ba077510211dde3d12bffca630cf7af5d2275f53bea417651010dccf05cb06"),
    ("crosscheck --source torus3 --target sphere2 --sweep 3",
     "e53ab2a82f464c9d4ebde974d5dd9fb3a7fd574a08c2d40d9f2f80a721e930d2"),
    ("crosscheck --source s1_x_s2 --target sphere2 --sweep 3",
     "4bca0702c400c763ab8cae0429d5abcb16c94aa105c6169730ca3f0f8110c61f"),
]


@pytest.mark.parametrize("command,digest", PINNED_OUTPUTS, ids=[c for c, _ in PINNED_OUTPUTS])
def test_pinned_output(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A Fox derivative of a^1000000 evaluated through Z_2: sha256 of stdout,
# recorded while each of the 10^6 keys was still labelled one by one.
def test_pinned_long_run_output(capsys):
    code, out, _ = run(
        capsys, *"classify --source torus_knot:1000000,3 --target rp2 --free --format json".split()
    )
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f59f532592bd42a7846e6bf2aa880ace18dfaa1d6266d748855e0f8aed430db4"
    )


# Z_4 rotating Z^2 by a quarter turn with zero boundary: |pi_1 X| > 2, a
# rank-2 twist, and (on the genus 2 surface) free-identification lines.
# sha256 of stdout, recorded before the action was tabulated per call.
Z4_ROTATION_TARGET = {
    "G": {"free_rank": 0, "torsion": [4]},
    "rank": 2,
    "action": [[[0, -1], [1, 0]]],
    "boundary": [[0], [0]],
}
PINNED_Z4_OUTPUTS = [
    ("classify --source torus2 --target z4.json --free --format json",
     "99bf2abf42bbebfe589c9cab8285957ebd8ba433cb69ecee141eb8efd693ff9c"),
    ("classify --source genus_surface:2 --target z4.json --free",
     "540b01af554b2d67e0855d44fe5f612f3025cf46e88d2151f72cf60c346995f3"),
    ("crosscheck --source klein_bottle --target z4.json",
     "76d8a8b51270559f3ca64ed41b34d436d2d69166a92c3e7e1a0e2d501e677819"),
]


@pytest.mark.parametrize("command,digest", PINNED_Z4_OUTPUTS, ids=[c for c, _ in PINNED_Z4_OUTPUTS])
def test_pinned_z4_output(capsys, monkeypatch, tmp_path, command, digest):
    (tmp_path / "z4.json").write_text(json.dumps(Z4_ROTATION_TARGET))
    monkeypatch.chdir(tmp_path)  # the target's name in the output is its path
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Z_2 x Z_2 acting on Z^2 by a swap and by -1 with zero boundary: two
# torsion generators, so torsion-shift and lift columns both enter the
# lattices.  sha256 of stdout, recorded before the one-sweep Hermite form.
Z2Z2_SWAP_NEG_TARGET = {
    "G": {"free_rank": 0, "torsion": [2, 2]},
    "rank": 2,
    "action": [[[0, 1], [1, 0]], [[-1, 0], [0, -1]]],
    "boundary": [[0, 0], [0, 0]],
}
PINNED_Z2Z2_OUTPUTS = [
    ("classify --source torus2 --target z2z2.json --free --format json",
     "3d946d4a10bfc0cfc2287bfafda96bd975666a35d997ecc0ef0ac152ae1b90d0"),
    ("crosscheck --source klein_bottle --target z2z2.json",
     "868dda413dcc8d8143e0daadd2608a6c294cdd41c16531b51913efb465dcc137"),
]


@pytest.mark.parametrize(
    "command,digest", PINNED_Z2Z2_OUTPUTS, ids=[c for c, _ in PINNED_Z2Z2_OUTPUTS]
)
def test_pinned_z2z2_output(capsys, monkeypatch, tmp_path, command, digest):
    (tmp_path / "z2z2.json").write_text(json.dumps(Z2Z2_SWAP_NEG_TARGET))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_examples(capsys):
    """Every command in README's CLI block that names no placeholder path
    runs and exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        line.removeprefix("topsectors ")
        for line in block.splitlines()
        if line.startswith("topsectors ") and "path/to/" not in line
    ]
    assert examples
    for command in examples:
        code, _, err = run(capsys, *shlex.split(command))
        assert code == 0, (command, err)
