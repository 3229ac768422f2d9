"""``classify`` (on all three routes) and ``crosscheck`` write each piece
of sectors as it is found: the output equals the whole result rendered at
once, a failure after the first piece leaves whole sectors only, and the
child's memory does not grow with the sector count."""

import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from topsectors import classify2d, cohomology, dim3
from topsectors.cli import (
    PIECE_SECTORS, build_parser, main, render_classification_text, render_s2_text,
    render_special_text, resolve_source, resolve_target,
)
from topsectors.complexes import catalog, saves
from topsectors.errors import UnsupportedError
from topsectors.xmod import target_catalog

from test_classify2d import small_2_complexes
from test_cli import _cli_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def whole_text(res) -> str:
    """The text of a classification rendered from its whole result."""
    if isinstance(res, dim3.S2Classification):
        lines = "".join(render_s2_text(res, s) for s in res.sectors)
        return render_s2_text(res) + lines + "(sectors outside the sweep follow the same lattice rule)\n"
    text = render_classification_text(res) + "".join(
        render_classification_text(res, s) for s in res.sectors
    )
    total = res.total_free_classes()
    if res.mode == "free" and total is not None:
        text += f"total free classes: {total}\n"
    return text


def check_streamed(capsys, argv, res, text=None):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert out == json.dumps(res.to_json(), indent=2) + "\n"
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == 0 and err == ""
    assert out == (whole_text(res) if text is None else text)


SOURCES_2D = [
    "circle_wedge:0", "circle_wedge:2", "sphere2", "torus2", "rp2", "genus_surface:2",
    "torus_knot:2,3", "torus_knot:4,6", "klein_bottle", "s1_wedge_s2",
]


@pytest.mark.parametrize("free", [False, True], ids=["based", "free"])
@pytest.mark.parametrize("target", ["rp2", "sphere2", "trivial:2"])
@pytest.mark.parametrize("source", SOURCES_2D)
def test_streamed_output_equals_the_whole_result(capsys, source, target, free):
    M, X = resolve_source(source), resolve_target(target)
    res = (classify2d.classify_free if free else classify2d.classify_based)(M, X)
    argv = ["classify", "--source", source, "--target", target, *(["--free"] if free else [])]
    check_streamed(capsys, argv, res)


@pytest.mark.parametrize("sweep", [0, 2])
@pytest.mark.parametrize("source", ["torus3", "s1_x_s2"])
def test_streamed_sphere_output_equals_the_whole_result(capsys, source, sweep):
    res = dim3.classify_s2(catalog(source), sweep=sweep)
    argv = ["classify", "--source", source, "--target", "sphere2", "--sweep", str(sweep)]
    check_streamed(capsys, argv, res)


@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("source", ["torus3", "s1_x_s2"])
def test_streamed_lens_output_equals_the_whole_result(capsys, source, p):
    res = cohomology.special_case_classify(catalog(source), [p], 1)
    render = functools.partial(render_special_text, res, source, f"lens({p},1)")
    text = render() + "".join(map(render, res.sectors))
    text += "action on pi_3 is trivial: free classes = based classes\n"
    check_streamed(capsys, ["classify", "--source", source, "--target", f"lens:{p},1"], res, text)


# capsys is read after every command, so one fixture serves all examples.
@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_2_complexes())
def test_streamed_output_on_random_2_complexes(capsys, tmp_path_factory, M):
    path = tmp_path_factory.getbasetemp() / "random_complex.json"
    path.write_text(saves(M))
    res = classify2d.classify_free(M, target_catalog("rp2"))
    check_streamed(capsys, ["classify", "--source", str(path), "--target", "rp2", "--free"], res)


class TestFailureAfterTheFirstSector:
    # Each command has more than two pieces of PIECE_SECTORS = 32 sectors:
    # genus_surface:3 -> rp2 has 64 (two pieces of cli.PIECE_SECTORS),
    # torus3 -> sphere2 125 at classify's default sweep, 343 at crosscheck's,
    # and torus3 -> lens:7,1 343.  Those 343 share one quotient, so the lens
    # route's nth sector is refused where it is made, not where it is reduced.
    SURFACE = ["--source", "genus_surface:3", "--target", "rp2"]
    TORUS3 = ["--source", "torus3", "--target", "sphere2"]
    LENS = ["--source", "torus3", "--target", "lens:7,1"]
    # name: (argv, the module and function that find each sector's group)
    COMMANDS = {
        "text": (["classify", *SURFACE, "--free"], classify2d, "homotopy_sublattice"),
        "json": (["classify", *SURFACE, "--free", "--format", "json"], classify2d,
                 "homotopy_sublattice"),
        "crosscheck": (["crosscheck", *SURFACE], classify2d, "homotopy_sublattice"),
        "sphere-text": (["classify", *TORUS3], dim3, "sector_group_s2"),
        "sphere-json": (["classify", *TORUS3, "--format", "json"], dim3, "sector_group_s2"),
        "sphere-crosscheck": (["crosscheck", *TORUS3], dim3, "sector_group_s2"),
        "lens-text": (["classify", *LENS], cohomology, "SpecialSector"),
        "lens-json": (["classify", *LENS, "--format", "json"], cohomology, "SpecialSector"),
    }

    def fail_in_sector(self, monkeypatch, command, n):
        """The command's argv, with its nth sector refused."""
        argv, module, name = self.COMMANDS[command]
        real = getattr(module, name)
        sectors = []

        def nth_fails(*args):
            sectors.append(args)
            if len(sectors) == n:
                raise UnsupportedError(f"refused in sector {n}")
            return real(*args)

        monkeypatch.setattr(module, name, nth_fails)
        return argv

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_second_sector_writes_nothing(self, capsys, monkeypatch, command):
        argv = self.fail_in_sector(monkeypatch, command, 2)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == "unsupported: refused in sector 2\n"

    @pytest.mark.parametrize("command, next_sector", [
        ("text", "sector "), ("json", ",\n    {"), ("crosscheck", "sector "),
        ("sphere-text", "sector "), ("sphere-json", ",\n    {"), ("sphere-crosscheck", "sector "),
        ("lens-text", "  sector "), ("lens-json", ",\n    {"),
    ])
    def test_stdout_ends_after_whole_sectors(self, capsys, monkeypatch, command, next_sector):
        _, whole, _ = run(capsys, *self.COMMANDS[command][0])
        n = PIECE_SECTORS + 2
        argv = self.fail_in_sector(monkeypatch, command, n)
        code, out, err = run(capsys, *argv)
        assert code == 2 and err == f"unsupported: refused in sector {n}\n"
        assert whole.startswith(out) and whole[len(out):].startswith(next_sector)
        if command.endswith("json"):
            written = out.count('"phi')
        else:
            written = sum(line.lstrip().startswith("sector ") for line in out.splitlines())
        assert written == PIECE_SECTORS
        assert "sectors match" not in out and "total free classes" not in out
        assert "action on pi_3" not in out

    @pytest.mark.parametrize("n", [2, PIECE_SECTORS + 2])
    @pytest.mark.parametrize("old", [None, "an older answer\n"], ids=["new", "existing"])
    def test_out_file_stays_as_it_was(self, capsys, monkeypatch, tmp_path, old, n):
        path = tmp_path / "answer.txt"
        if old is not None:
            path.write_text(old)
        for command in self.COMMANDS:
            with monkeypatch.context() as patch:
                argv = self.fail_in_sector(patch, command, n)
                code, out, _ = run(capsys, *argv, "--out", str(path))
            assert code == 2 and out == "", command
            assert os.listdir(tmp_path) == ([] if old is None else ["answer.txt"]), command
            assert old is None or path.read_text() == old, command


class TestOutFile:
    ARGV = ["classify", "--source", "torus2", "--target", "rp2", "--free"]

    def test_replaces_an_older_file(self, capsys, tmp_path):
        path = tmp_path / "answer.txt"
        path.write_text("an older answer, longer than the new one " * 100)
        assert run(capsys, *self.ARGV, "--out", str(path))[:2] == (0, "")
        assert path.read_text() == run(capsys, *self.ARGV)[1]
        assert os.listdir(tmp_path) == ["answer.txt"]

    def test_writes_through_a_link(self, capsys, tmp_path):
        path, link = tmp_path / "answer.txt", tmp_path / "link.txt"
        path.write_text("old")
        link.symlink_to(path)
        assert run(capsys, *self.ARGV, "--out", str(link))[0] == 0
        assert link.is_symlink() and path.read_text() == run(capsys, *self.ARGV)[1]
        assert sorted(os.listdir(tmp_path)) == ["answer.txt", "link.txt"]

    def test_device(self, capsys):
        assert run(capsys, *self.ARGV, "--out", os.devnull)[:2] == (0, "")
        assert not os.path.isfile(os.devnull)


# Names are printed as written: no output line is built by str.format.
BRACES = {
    "name": "t{2}",
    "generators": ["a{0}", "{b}"],
    "two_cells": [{"name": "{t}", "attach": "a{0} {b} a{0}^-1 {b}^-1"}],
}


@pytest.mark.parametrize("command, names", [
    ("classify", ["free classes of maps t{2} -> rp2\n", "['a{0}', '{b}']", "['{t}']",
                  "\nsector a{0}=1 {b}=1: Z_2\n"]),
    ("crosscheck", ["\nsector a{0}=1 {b}=1: lattice Z_2 vs cohomology Z_2 -> match\n",
                    "\nall sectors match\n"]),
], ids=["classify", "crosscheck"])
def test_names_with_braces(capsys, tmp_path, command, names):
    path = tmp_path / "braces.json"
    path.write_text(json.dumps(BRACES))
    code, out, err = run(capsys, command, "--source", str(path), "--target", "rp2",
                         *(["--free"] if command == "classify" else []))
    assert code == 0 and err == ""
    for name in names:
        assert name in "\n" + out, name


def test_parser_built_once_gives_fresh_results(capsys):
    # Defaults, mutually exclusive options and errors leave no state on the
    # one parser of the process: each result equals a run with a new parser.
    argvs = [
        ["classify", "--source", "torus2", "--target", "rp2", "--free"],
        ["classify", "--source", "torus2", "--target", "rp2", "--based", "--free"],
        ["classify", "--source", "torus2", "--target", "rp2", "--format", "json"],
        ["snf", "--matrix", "[[2,4],[6,8]]", "--format", "json"],
        ["classify", "--sweep"],
        ["snf", "--matrix", "[[2,4],[6,8]]"],
        ["validate"],
        ["crosscheck", "--source", "s1_x_s2", "--target", "sphere2", "--sweep", "1"],
        ["crosscheck", "--source", "torus2", "--target", "rp2"],
        ["report", "--source", "torus3"],
    ]
    shared = [run(capsys, *argv) for argv in argvs]
    assert build_parser() is build_parser()
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 1, 0, 1, 0, 0, 0]


PEAK_RSS = """
import os, subprocess, sys
with open(os.devnull, "wb") as out:
    proc = subprocess.Popen([sys.executable, "-m", "topsectors.cli", *sys.argv[1:]], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_kib(*argv):
    """Exit code and peak RSS of a CLI child started from a small process,
    so that the peak is the child's own and not this test process's."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv],
        capture_output=True, text=True, timeout=120, env=_cli_env(),
    )
    code, kib = map(int, proc.stdout.split())
    return code, kib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_memory_does_not_grow_with_the_sector_count():
    # 4096 sectors, 2.2 MB of JSON: the child kept every sector before it
    # wrote them, 57 MB against 18 MB for a 2 x 2 snf on one host.
    code, small = child_peak_kib("snf", "--matrix", "[[2,4],[6,8]]")
    assert code == 0
    argv = "classify --source circle_wedge:12 --target rp2 --free --format json".split()
    code, large = child_peak_kib(*argv)
    assert code == 0
    assert large - small < 5 * 1024, (large, small)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_lens_memory_does_not_grow_with_the_sector_count():
    # 27000 sectors, 3.3 MB of JSON: the child kept every sector, then the
    # whole JSON tree and one string, before it wrote: 72 MB against 17 MB
    # for a 2 x 2 snf on one host.
    code, small = child_peak_kib("snf", "--matrix", "[[2,4],[6,8]]")
    assert code == 0
    code, large = child_peak_kib(*"classify --source torus3 --target lens:30,1 --format json".split())
    assert code == 0
    assert large - small < 10 * 1024, (large, small)
