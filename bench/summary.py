#!/usr/bin/env python3
"""Run every workload once, each in its own process, and print the
end-to-end metrics of all of them.

    python3 bench/summary.py [--seed N] [--seconds S]

Each workload runs as ``bench/run.py --trace 0`` in a process of its own,
so that its ``peak_rss_mb`` is its own.  The ``#`` lines of every run,
``failed_frac`` among them, are printed under the workload's name.  The
exit code is 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gap", "wide_taxonomy", "deep_taxonomy")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        print("## %s" % workload)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, end="")
            ok = False
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
