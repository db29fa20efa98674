"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src``.
Each process the benchmark starts gets one BLAS thread.  With ``--trace 0``
the set-up is measured in SETUP_RUNS separate processes, spread before and
after the one that also runs the timed rounds, and the median is reported as
``setup_s``.  The last
line of standard output is the result; the line before it holds reference
figures that are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("jacobi-grid", "realize-kernels", "kac-deep", "cli-session")
SETUP_RUNS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: every run must end within this many seconds
DEADLINE_S = 170


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker(args, env, extra, timeout) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nevtrans", "__init__.py")):
        print("run.py: no src/nevtrans here; run it from the root of a nevtrans checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    start = time.monotonic()
    setup_only = 0 if args.trace else SETUP_RUNS - 1
    try:
        setups = [worker(args, env, ["--setup-only"], DEADLINE_S)["setup_s"] for _ in range(setup_only // 2)]
        result = worker(args, env, [], DEADLINE_S - (time.monotonic() - start))
        setups += [worker(args, env, ["--setup-only"], DEADLINE_S - (time.monotonic() - start))["setup_s"]
                   for _ in range(setup_only - setup_only // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    reference = result.pop("reference")
    setup_s = result.pop("setup_s")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups + [setup_s]), "unit": "s"}
    print(json.dumps({"reference": reference}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
