"""Steadiness self-check: are two sets of runs of the same code in agreement?

    python3 perfbench/steady.py [--seed 1]

Runs ``perfbench/run.py --trace 0`` RUNS times per workload in each of two
sets, each run with its own seed, one run at a time, workloads interleaved.
For each workload and end-to-end metric it prints, per set, the sample
count, the median, the quartiles and the spread (quartile distance over the
median), then the change of the median from the first set to the second.
A metric is flagged when a spread exceeds its bound in BENCHMARK.json or the
second median differs from the first, either way, by more than the bound; a
spread above a third of the bound is marked as not yet steady.  Every run
must also be correct with no failed operation.  Exits 1 when anything is
flagged.  The results are also written to
``.bench_build/perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run gets the next one")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)] for w in workloads}
    flags = []
    records = []
    seed = args.seed
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                record, result = one_run(w, seed, spec["run_seconds"])
                records.append(record)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
                if not result["correct"] or result["failed"]:
                    flags.append(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                seed += 1

    summary = {}
    for w in workloads:
        print(f"\n{w}")
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in range(SETS):
                vals = values[w][s][name]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                rows.append({"n": len(vals), "median": med, "q1": q1, "q3": q3, "spread": spread})
                mark = ""
                if spread > bound:
                    mark = "  OUTSIDE BOUND"
                    flags.append(f"{w} {name} set {s + 1}: spread {spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    mark = "  (above a third of the bound)"
                print(f"  {name:16s} set {s + 1}: n={len(vals)} median={med:.5g} "
                      f"q1={q1:.5g} q3={q3:.5g} spread={spread:.3f} bound={bound}{mark}")
            for s in range(1, SETS):
                first, later = rows[0]["median"], rows[s]["median"]
                change = (later - first) / first if first else float("inf")
                mark = "  OUTSIDE BOUND" if abs(change) > bound else ""
                if mark:
                    flags.append(f"{w} {name}: set {s + 1} median moved by {change:+.3f}, beyond bound {bound}")
                print(f"  {name:16s} median change set 1 -> {s + 1}: {change:+.3f}{mark}")
            summary[w][name] = rows

    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "values": values, "flags": flags, "records": records}, fh, indent=1)
    print("\n" + ("\n".join(f"FLAG {f}" for f in flags) if flags else "steady: every metric within its bound"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
