"""End-to-end and per-layer benchmark of topsectors.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and the CLI is started as ``python -m topsectors.cli`` with
``PYTHONPATH=src``, by a small launcher process (launcher.py) so that the
peak RSS that ``os.wait4`` reports for a child is the child's own.  The
run and its children are kept on one CPU.  Without ``src/topsectors`` the
run exits with code 2 and prints no result.

The seed draws the snf_ladder matrices; the other workloads have fixed
inputs.  Each workload has three timed units, run in a closed loop, one at
a time: ``solve`` (the library calls that produce the answer), ``verify``
(an independent check of that answer: an oracle where one exists, otherwise
a pinned value) and ``cli`` (one ``topsectors`` command in a child process,
start-up and output included).  Every unit is one operation; a wrong
answer, an oracle mismatch, an exception or a nonzero exit code is a failed
one.

Why speed is a ratio: the speed of the hosts this runs on drifts by tens of
percent within seconds, and CPU time drifts with wall time.  So every timed
unit is bracketed by a fixed stdlib reference loop (``reference_loop``),
run just before and just after it, and speed is reported as the unit's
wall time over the mean of those two loop times (unit ``ref``).  A solve
unit that makes several library calls brackets each call on its own and
adds up their ratios, so that it follows the host's speed within it.  Raw
seconds are kept as context (``wall.*`` and ``host.ref_s`` in the traced
run, and the record line printed before the result) and are not gated.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the run's repeats: setup_s, solve_rel, verify_rel, cli_rel,
cli_peak_rss_mb.  setup_s times importing topsectors and building the
workload's inputs from data the benchmark drew beforehand (``prepare``,
untimed).  It is measured the same way as the units, as a ratio to the
bracketing reference loops, and reported in seconds at a fixed scale
(REF_NOMINAL_S); its raw seconds are in the record.

With ``--trace 1`` the same loop runs untraced, then one traced pass
(setup, solve, verify, and the CLI command run in-process) gives the
per-layer metrics named in BENCHMARK.json.  A layer metric
belongs to the phase its name says: ``verify.*`` to the verify unit,
``cli.*`` to the CLI command (``cli.render_s``: serialising and writing
its output), ``complexes.build_s`` to building the
inputs, the oracle-only ``cohomology.h2_s`` and ``dim3.pontrjagin_s`` to
the verify unit, and every other layer metric to the solve unit; a layer a
workload never enters reads 0.  Spans are written to
``.bench_build/perfbench/`` when the run ends.

The last line of standard output is the result JSON; the line before it
records the machine (CPU model, nproc, Python version, steal ticks from
/proc/stat at start and end) and the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 10
# setup_s is the set-up time as a ratio to the reference loop, times this
# fixed scale, so that it reads in seconds.  Raw set-up seconds follow the
# host's speed, which can change by 1.5x for minutes at a time; the scale
# only sets the unit, as the gate compares setup_s with the parent's.  0.06 s
# is about the loop's time on an unloaded Intel Xeon with Python 3.11 (lower
# quartile 0.057 s over 80 runs, median 0.064 s to 0.093 s between sets).
REF_NOMINAL_S = 0.06

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# Reference loop and machine record
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    Stdlib only and independent of topsectors: tuple and dict traffic on
    small ints, then big-int multiplication, the two kinds of work the
    library does.  The cyclic GC is paused, so a larger heap left by the
    program cannot slow the loop down.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        table: dict = {}
        mix = 0
        for i in range(60000):
            key = (i & 63, i % 7)
            row = tuple(range(i & 15))
            table[key] = table.get(key, 0) + len(row) + sum(row)
            mix ^= hash(key)
        big = 3 ** 2000
        x = 7
        for i in range(6000):
            x = (x * big + i) % (big - 1)
        seconds = _clock() - start
    finally:
        if was_enabled:
            gc.enable()
    if len(table) != 448 or x <= 0 or mix == -1:
        raise AssertionError("reference loop computed the wrong value")
    return seconds


def steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu():
    """Keep this process and its CLI children on one CPU, so that the
    reference loops and the units they bracket meet the same contention.
    Returns the CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# ---------------------------------------------------------------------------
# Helpers for the checks
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    """sha256 of canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def bareiss_det(rows) -> int:
    """Determinant by fraction-free elimination, independent of zlinalg."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs from a seed; the solve, verify and CLI units; their checks.
    ``prepare(seed)`` draws what the benchmark makes itself (untimed);
    ``setup(prepared)`` imports topsectors and builds the inputs (timed).
    Each check returns a list of problems, empty when the answer is right."""

    name: str
    cli_argv: list

    def prepare(self, seed):
        return None

    def cli_args(self, inp, res):
        return self.cli_argv

    def cleanup(self, prepared):
        pass


class FreeClasses(Workload):
    """classify_free of a 2-complex into RP^2, checked sector by sector
    against twisted H^2 of the source (the Fox-calculus oracle)."""

    def __init__(self, name, source, params, cli_argv):
        self.name = name
        self.source = source
        self.params = params
        self.cli_argv = cli_argv

    def setup(self, prepared):
        ts = importlib.import_module("topsectors")
        return {
            "ts": ts,
            "M": ts.catalog(self.source, **self.params),
            "X": ts.target_catalog("rp2"),
        }

    def solve(self, inp, step):
        return step(inp["ts"].classify2d.classify_free, inp["M"], inp["X"])

    def check_solve(self, inp, res, pins):
        problems = []
        if len(res.sectors) != pins["sectors"]:
            problems.append(f"{len(res.sectors)} sectors, expected {pins['sectors']}")
        if "free_classes" in pins and res.total_free_classes() != pins["free_classes"]:
            problems.append(f"{res.total_free_classes()} free classes, expected {pins['free_classes']}")
        if digest(res.to_json()) != pins["answer_sha256"]:
            problems.append("answer digest differs from the pinned one")
        return problems

    def verify(self, inp, res, pins):
        ts = inp["ts"]
        data = ts.classify2d.TargetData(inp["X"])
        mismatches = 0
        for sector in res.sectors:
            coeffs = ts.cohomology.CoefficientModule.for_target_sector(data, sector.phi1)
            oracle = ts.cohomology.twisted_second_cohomology(inp["M"], coeffs)
            mismatches += oracle != sector.based_group
        return [f"{mismatches} sector(s) disagree with twisted H^2"] if mismatches else []

    def check_cli(self, inp, res, output, pins):
        if "cli_sha256" in pins:
            ok = hashlib.sha256(output).hexdigest() == pins["cli_sha256"]
        else:
            ok = digest(json.loads(output)) == pins["answer_sha256"]
        return [] if ok else ["CLI output differs from the pinned answer"]


class SphereLens(Workload):
    """The torus T^3 into S^2 (crossed squares) and into the lens space
    L(7,1) (twisted d2), checked against the cup-product formula and the
    pinned lens group."""

    name = "sphere_lens"
    cli_argv = ["crosscheck", "--source", "torus3", "--target", "sphere2", "--sweep", "3"]

    def setup(self, prepared):
        ts = importlib.import_module("topsectors")
        return {"ts": ts, "M": ts.catalog("torus3")}

    def solve(self, inp, step):
        ts, M = inp["ts"], inp["M"]
        return (
            step(ts.dim3.classify_s2, M, sweep=3),
            step(ts.cohomology.special_case_classify, M, [7], 1),
        )

    def check_solve(self, inp, res, pins):
        sphere, lens = res
        problems = []
        if len(sphere.sectors) != pins["sphere_sectors"]:
            problems.append(f"{len(sphere.sectors)} sphere sectors")
        if len(lens.sectors) != pins["lens_sectors"]:
            problems.append(f"{len(lens.sectors)} lens sectors")
        if digest(sphere.to_json()) != pins["sphere_sha256"]:
            problems.append("sphere answer digest differs from the pinned one")
        if digest(lens.to_json()) != pins["lens_sha256"]:
            problems.append("lens answer digest differs from the pinned one")
        return problems

    def verify(self, inp, res, pins):
        ts, M = inp["ts"], inp["M"]
        sphere, lens = res
        cup = ts.dim3.cup_preset(M.name)
        names = M.two_cell_names()
        mismatches = 0
        for sector in sphere.sectors:
            alpha = tuple(sector.phi2[c] for c in names)
            mismatches += ts.dim3.pontrjagin_sector_group(cup, alpha) != sector.group
        pinned = pins["lens_group"]
        wrong = sum(1 for s in lens.sectors if s.group.to_json() != pinned)
        problems = []
        if mismatches:
            problems.append(f"{mismatches} sphere sector(s) disagree with the cup-product formula")
        if wrong:
            problems.append(f"{wrong} lens sector(s) differ from the pinned group")
        return problems

    def check_cli(self, inp, res, output, pins):
        ok = hashlib.sha256(output).hexdigest() == pins["cli_sha256"]
        return [] if ok else ["CLI output differs from the pinned answer"]


class SnfLadder(Workload):
    """Seeded random n x n matrices with entries in [-9, 9]: Smith normal
    form and an integer solve per size, checked by U S V = A (Freivalds),
    the divisibility chain, |det A| and A x = b.

    The seed makes LADDERS ladders and each repeat takes the next one, so a
    run's median covers as many draws as it has repeats and depends less on
    any one of them."""

    name = "snf_ladder"
    sizes = (20, 40, 50)
    LADDERS = 8

    def prepare(self, seed):
        """The ladders: per size the rows, a solvable right-hand side b and
        a Freivalds probe; the largest matrix of each is also written to a
        file for the CLI."""
        rng = random.Random(seed)
        ladders = []
        for k in range(self.LADDERS):
            cases = []
            for n in self.sizes:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                x0 = [rng.randint(-9, 9) for _ in range(n)]
                probe = [rng.getrandbits(64) for _ in range(n)]
                cases.append((rows, tuple(matvec(rows, x0)), probe))
            path = os.path.join(OUT_DIR, f"snf-{os.getpid()}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cases[-1][0], fh)
            ladders.append({"cases": cases, "file": path})
        return ladders

    def setup(self, prepared):
        ts = importlib.import_module("topsectors")
        matrices = [[ts.zlinalg.IntMatrix(c[0]) for c in ladder["cases"]] for ladder in prepared]
        return {"ts": ts, "ladders": prepared, "matrices": matrices, "turn": 0}

    def solve(self, inp, step):
        k = inp["turn"] % self.LADDERS
        inp["turn"] += 1
        ladder = inp["ladders"][k]
        zl = inp["ts"].zlinalg
        pairs = zip(inp["matrices"][k], ladder["cases"])
        return ladder, [(step(zl.smith_normal_form, A), step(zl.solve, A, b)) for A, (_, b, _) in pairs]

    def check_solve(self, inp, res, pins):
        ladder, decs = res
        problems = []
        for (rows, _, _), (dec, sol) in zip(ladder["cases"], decs):
            n = len(rows)
            if dec.S.shape != (n, n) or dec.U.shape != (n, n) or dec.V.shape != (n, n):
                problems.append(f"n={n}: wrong shapes")
            if sol is None:
                problems.append(f"n={n}: solvable system reported unsolvable")
        return problems

    def verify(self, inp, res, pins):
        ladder, decs = res
        problems = []
        for (rows, b, probe), (dec, sol) in zip(ladder["cases"], decs):
            n = len(rows)
            S = dec.S.data
            diag = [S[i][i] for i in range(n)]
            if any(S[i][j] for i in range(n) for j in range(n) if i != j) or any(d < 0 for d in diag):
                problems.append(f"n={n}: S is not a nonnegative diagonal")
            # Freivalds: U S V r == A r for a random 64-bit vector r, in exact
            # integers, wrongly passes with probability below 2^-64.
            usvr = matvec(dec.U.data, [d * y for d, y in zip(diag, matvec(dec.V.data, probe))])
            if usvr != matvec(rows, probe):
                problems.append(f"n={n}: U S V != A")
            nonzero = [d for d in diag if d]
            if diag != nonzero + [0] * (n - len(nonzero)) or any(
                nonzero[i + 1] % nonzero[i] for i in range(len(nonzero) - 1)
            ):
                problems.append(f"n={n}: invariant factors break the divisibility chain")
            product = 1
            for d in diag:
                product *= d
            if product != abs(bareiss_det(rows)):
                problems.append(f"n={n}: product of invariant factors != |det A|")
            if sol is not None:
                x, kernel = sol
                if matvec(rows, x) != list(b) or any(any(matvec(rows, k)) for k in kernel):
                    problems.append(f"n={n}: solve returned a wrong solution")
        return problems

    def cli_args(self, inp, res):
        return ["snf", "--file", res[0]["file"], "--format", "json"]

    def check_cli(self, inp, res, output, pins):
        dec = res[1][-1][0]
        expected = {
            "S": [list(r) for r in dec.S.data],
            "U": [list(r) for r in dec.U.data],
            "V": [list(r) for r in dec.V.data],
            "invariant_factors": list(dec.diagonal),
        }
        return [] if json.loads(output) == expected else ["CLI decomposition differs from the library's"]

    def cleanup(self, prepared):
        for ladder in prepared:
            with contextlib.suppress(OSError):
                os.remove(ladder["file"])


WORKLOADS = {
    w.name: w
    for w in (
        FreeClasses(
            "surface_sectors", "genus_surface", {"g": 4},
            ["classify", "--source", "genus_surface:4", "--target", "rp2", "--free", "--format", "json"],
        ),
        FreeClasses(
            "knot_words", "torus_knot", {"p": 20000, "q": 3},
            ["crosscheck", "--source", "torus_knot:20000,3", "--target", "rp2"],
        ),
        SphereLens(),
        SnfLadder(),
    )
}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    start = _clock()
    result = fn(*args, **kwargs)
    return result, _clock() - start


class Run:
    """Counts operations, brackets every timed call by reference loops and
    keeps the raw samples of one benchmark run."""

    def __init__(self, workload, pins, launcher):
        self.workload = workload
        self.pins = pins
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = {k: [] for k in ("solve_rel", "verify_rel", "cli_rel", "solve_s", "verify_s", "cli_s", "ref_s", "cli_peak_rss_mb")}
        self.ref_before = None

    def between_refs(self, timed):
        """Call timed() -> (result, seconds) between the last reference loop
        and a new one; returns the result, the seconds and their ratio to
        the mean of the two loop times."""
        if self.ref_before is None:
            self.ref_before = reference_loop()
        try:
            result, seconds = timed()
        except BaseException:
            self.ref_before = None
            raise
        ref_after = reference_loop()
        self.samples["ref_s"].append(ref_after)
        rel = seconds / ((self.ref_before + ref_after) / 2)
        self.ref_before = ref_after
        return result, seconds, rel

    def record(self, unit, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if len(self.problems) < 20:
                    self.problems.append(f"{unit}: {p}")

    def attempt(self, unit, fn):
        """Run fn() -> (result, problems); an exception is a failure."""
        try:
            result, problems = fn()
        except Exception as err:  # a failing operation must not end the run
            result, problems = None, [f"{type(err).__name__}: {err}"]
        self.record(unit, problems)
        return result

    def timed_solve(self, inp):
        """Returns the answer, the seconds and the ratio summed over the
        library calls the workload passes through `step`."""
        def go():
            total = [0.0, 0.0]

            def step(fn, *args, **kwargs):
                result, seconds, rel = self.between_refs(lambda: _timed(fn, *args, **kwargs))
                total[0] += seconds
                total[1] += rel
                return result

            res = self.workload.solve(inp, step)
            return (res, *total), self.workload.check_solve(inp, res, self.pins)
        return self.attempt("solve", go)

    def timed_verify(self, inp, res):
        def go():
            problems, seconds, rel = self.between_refs(
                lambda: _timed(self.workload.verify, inp, res, self.pins))
            return (seconds, rel), problems
        return self.attempt("verify", go)

    def timed_cli(self, inp, res):
        """Times the child process itself, as the launcher reports it."""
        def child():
            seconds, *reply = self.launcher.run(self.workload.cli_args(inp, res))
            return reply, seconds

        def go():
            (code, rss_mb, output, err), seconds, rel = self.between_refs(child)
            if code != 0:
                return None, [f"exit code {code}: {err.strip()[-300:]}"]
            return (seconds, rel, rss_mb), self.workload.check_cli(inp, res, output, self.pins)
        return self.attempt("cli", go)


class Launcher:
    """The small process that starts every CLI child (see launcher.py), so
    that a child's peak RSS is its own and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv):
        """Run ``python -m topsectors.cli argv``; returns its wall seconds,
        exit code, peak RSS in MB, standard output and standard error."""
        out_path = os.path.join(OUT_DIR, f"cli-{os.getpid()}.out")
        request = {
            "argv": [sys.executable, "-m", "topsectors.cli", *argv],
            "cwd": ROOT,
            "env": dict(os.environ, PYTHONPATH=SRC),
            "out": out_path,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            output = fh.read()
        os.remove(out_path)
        return reply["seconds"], reply["code"], reply["peak_rss_mb"], output, reply["stderr"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def purge_package():
    for name in [n for n in sys.modules if n == "topsectors" or n.startswith("topsectors.")]:
        del sys.modules[name]


def timed_setup(run, prepared, repeats):
    """Import topsectors afresh and build the inputs, `repeats` times, each
    time bracketed by reference loops like the timed units.  Returns the
    inputs, the raw seconds and the ratios to the reference loop."""
    raw, rel = [], []
    for _ in range(repeats):
        purge_package()
        inp, seconds, ratio = run.between_refs(lambda: _timed(run.workload.setup, prepared))
        raw.append(seconds)
        rel.append(ratio)
    return inp, raw, rel


def measure(run, inp, seconds):
    """Warm up, then repeat solve / verify / cli until `seconds` have passed."""
    out = run.timed_solve(inp)
    if out is not None:
        run.timed_verify(inp, out[0])
    samples = run.samples
    deadline = _clock() + seconds

    def keep(unit, out):
        if out is not None:
            samples[f"{unit}_s"].append(out[0])
            samples[f"{unit}_rel"].append(out[1])

    while True:
        cycle_start = _clock()
        res, *solve_out = run.timed_solve(inp) or (None,)
        if res is not None:
            keep("solve", solve_out)
            keep("verify", run.timed_verify(inp, res))
            cli_out = run.timed_cli(inp, res)
            keep("cli", cli_out)
            if cli_out is not None:
                samples["cli_peak_rss_mb"].append(cli_out[2])
        now = _clock()
        if now + 0.5 * (now - cycle_start) >= deadline:
            break


def median_or_zero(values):
    """Median of the samples; 0 when a unit never succeeded (the run is
    then reported as not correct)."""
    return statistics.median(values) if values else 0.0


def traced_pass(run, workload, prepared, seed, pins):
    """One traced setup, solve, verify and in-process CLI command."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        inp = workload.setup(prepared)
        tracer.phase = "solve"
        res, solve_s, _ = run.timed_solve(inp) or (None, 0.0, 0.0)
        tracer.phase = "verify"
        if res is not None:
            run.timed_verify(inp, res)
        tracer.phase = "cli"
        out_path = os.path.join(OUT_DIR, f"cli-traced-{os.getpid()}.out")
        output_bytes = 0
        if res is not None:
            cli = sys.modules["topsectors.cli"]

            def in_process():
                with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    code = cli.main(workload.cli_args(inp, res))
                with open(out_path, "rb") as fh:
                    output = fh.read()
                os.remove(out_path)
                if code != 0:
                    return 0, [f"exit code {code}"]
                return len(output), workload.check_cli(inp, res, output, pins)

            output_bytes = run.attempt("cli", in_process) or 0
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json"))
    return tracer, solve_s, output_bytes


# Layers that only the oracles call: their figures come from the verify unit.
ORACLE_LAYERS = ("cohomology.h2_s", "dim3.pontrjagin_s")


def layer_values(tracer, names):
    """Each per-layer metric from the phase its name belongs to."""
    phases = {p: tracer.layer_metrics(p) for p in ("setup", "solve", "verify", "cli")}
    out = {}
    for name in names:
        if name.startswith("verify."):
            out[name] = phases["verify"][name[len("verify."):]]
        elif name in ORACLE_LAYERS:
            out[name] = phases["verify"][name]
        elif name.startswith("cli."):
            out[name] = phases["cli"][name]
        elif name.startswith("complexes."):
            out[name] = phases["setup"][name]
        else:
            out[name] = phases["solve"][name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "topsectors", "__init__.py")):
        print(f"error: no topsectors sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    host = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": pin_to_one_cpu(),
        "python": platform.python_version(),
        "steal_ticks_start": steal_ticks(),
    }
    workload = WORKLOADS[args.workload]
    pins = load_expected()[workload.name]
    launcher = Launcher()  # before the package and the inputs are in memory
    prepared = None
    try:
        prepared = workload.prepare(args.seed)
        run = Run(workload, pins, launcher)
        inp, setup_raw, setup_rel = timed_setup(run, prepared, 1 if args.trace else SETUP_REPEATS)
        measure(run, inp, args.seconds)
        if args.trace:
            tracer, traced_solve_s, output_bytes = traced_pass(run, workload, prepared, args.seed, pins)
    finally:
        workload.cleanup(prepared)
        launcher.close()

    s = run.samples
    if args.trace:
        context = {
            "host.ref_s": median_or_zero(s["ref_s"]),
            "wall.solve_s": median_or_zero(s["solve_s"]),
            "wall.verify_s": median_or_zero(s["verify_s"]),
            "wall.cli_s": median_or_zero(s["cli_s"]),
            "trace.overhead_s": traced_solve_s - median_or_zero(s["solve_s"]),
            "cli.output_bytes": output_bytes,
        }
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_values(tracer, [n for n in names if n not in context])
        values.update((n, context[n]) for n in names if n in context)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup_rel) * REF_NOMINAL_S,
            "solve_rel": median_or_zero(s["solve_rel"]),
            "verify_rel": median_or_zero(s["verify_rel"]),
            "cli_rel": median_or_zero(s["cli_rel"]),
            "cli_peak_rss_mb": median_or_zero(s["cli_peak_rss_mb"]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    host["steal_ticks_end"] = steal_ticks()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "host": host, "setup_s": setup_raw, "setup_rel": setup_rel, "samples": s, "problems": run.problems,
    }
    print(json.dumps({"record": record}))
    complete = all(s[k] for k in ("solve_rel", "verify_rel", "cli_rel"))
    result = {
        "correct": run.failed == 0 and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
