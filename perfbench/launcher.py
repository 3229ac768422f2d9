"""Starts the benchmark's CLI commands from a process that stays small.

A child's peak RSS as ``os.wait4`` reports it includes the memory of the
process it was started from, up to its ``exec``: started straight from the
benchmark, whose heap holds the workload's results, every CLI command would
read at least as large as the benchmark.  So run.py starts this launcher
before it imports topsectors, and the launcher starts each command.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"out"}``; the command runs with its standard output written to ``out``, and
the launcher answers one JSON line ``{"seconds", "code", "peak_rss_mb",
"stderr"}``.  It exits when stdin is closed.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=subprocess.PIPE, cwd=req["cwd"], env=req["env"]
            )
            with proc.stderr:
                err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "seconds": seconds,
            "code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "stderr": err.decode(errors="replace")[-2000:],
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
