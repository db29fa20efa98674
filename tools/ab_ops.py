"""Size a change on one perfbench workload within one process, interleaving the
operations of two trees so that the machine's drift hits both alike.

    python3 tools/ab_ops.py BASE_SRC NEW_SRC --workload jacobi-grid --seed 13 --rounds 24

BASE_SRC and NEW_SRC are directories that hold a ``nevtrans`` package (the
``src`` of two checkouts).  Both packages are copied into a temporary
directory and imported as ``nevtrans_base`` and ``nevtrans_new``.  Each tree
gets its own instance of the workload from the same seed.  Before each
operation the module-level ``nt`` of the unedited ``perfbench/workloads.py``,
which its operations read when they run, is rebound to that operation's
tree; a ``cli-session`` command runs ``python -m nevtrans.cli`` with the
tree's own source directory on PYTHONPATH.  The tree that runs first
alternates from one operation to the next and, for each operation, from one
round to the next.  Every output goes through its operation's own check.

Prints the median time of each operation on both trees and their ratio, the
median round, each tree's ``op_ms.p50`` (the median over every operation of
the rounds whose check passed, as ``perfbench/worker.py`` computes it) and its
ratio new/base, the median and quartiles of the per-round ratio new/base, and
the count of failed checks; exits 1 when a check failed.  Where operations
fall into cost classes, ``op_ms.p50`` sits between two of them, so the
per-operation medians alone cannot size it: one more line names, for each
tree, the two operations on either side of its ``op_ms.p50`` and their
times, so that a moved median says which class moved.  Run with the same
directory twice (an A/A run), the quartiles show the tool's own spread.  It
sizes a change; a gain is still claimed from alternating pairs of
``perfbench/run.py`` runs.

    python3 tools/ab_ops.py BASE_SRC NEW_SRC --workload jacobi-grid --seed 13 --setup 10

measures set-up instead: K pairs of ``perfbench/worker.py --setup-only``
processes, which time the import, the workload's inputs and its warm-up
operation, as ``perfbench/run.py`` reports them in ``setup_s``.  Each process
has its tree's source directory alone on PYTHONPATH and one BLAS thread, and
the tree that runs first alternates from one pair to the next.  Prints each
tree's median set-up time and the median and quartiles of the per-pair ratio
new/base; exits 1 when a process failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
TREES = ("nevtrans_base", "nevtrans_new")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_trees(base_src: str, new_src: str, into: str) -> tuple:
    """Copy the nevtrans package of each source directory into ``into`` and import
    the copies under the names in TREES; returns the two package modules."""
    packages = []
    for name, src in zip(TREES, (base_src, new_src)):
        dest = os.path.join(into, name)
        shutil.copytree(os.path.join(src, "nevtrans"), dest, ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location(name, os.path.join(dest, "__init__.py"),
                                                      submodule_search_locations=[dest])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package  # the package's relative imports resolve through it
        spec.loader.exec_module(package)
        packages.append(package)
    return tuple(packages)


def _import_workloads(package):
    """perfbench's workloads module, its ``import nevtrans`` answered by ``package``."""
    sys.path.insert(0, PERFBENCH)
    sys.modules["nevtrans"] = package
    try:
        import workloads
    finally:
        del sys.modules["nevtrans"]
    return workloads


def _run_op(op):
    """(seconds, failure messages) of one operation and its check."""
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation is counted, as the benchmark counts it
        return time.perf_counter() - t, [f"{op.label}: {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t
    try:
        return dt, op.check(out)
    except Exception as exc:  # output the check cannot even read
        return dt, [f"{op.label}: check raised {type(exc).__name__}: {exc}"]


def ratio_summary(base_rounds: list, new_rounds: list, unit: str = "round") -> str:
    """The median and quartiles of the per-round (or per-``unit``) ratios new/base, as one line."""
    ratios = [n / b for b, n in zip(base_rounds, new_rounds)]
    q = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return f"{unit} ratio new/base: median {q[1]:.3f}, quartiles [{q[0]:.3f}, {q[2]:.3f}] over {len(ratios)} {unit}s"


def p50_summary(base_durations: list, new_durations: list) -> str:
    """Each tree's median operation time in ms over all rounds, as the benchmark's
    op_ms.p50, and their ratio new/base, as one line."""
    b, n = 1e3 * statistics.median(base_durations), 1e3 * statistics.median(new_durations)
    return f"op_ms.p50: base {b:.2f}, new {n:.2f}, new/base {n / b:.3f}"


def p50_sides(base_ops: list, new_ops: list) -> str:
    """For each tree, the two operations on either side of its op_ms.p50, from its (seconds, label)
    pairs: the two middle ones by time (the middle one twice for an odd count) with their ms, as one line."""
    sides = []
    for name, ops in (("base", base_ops), ("new", new_ops)):
        ops = sorted(ops)
        below, above = ops[(len(ops) - 1) // 2], ops[len(ops) // 2]
        sides.append(f"{name} {below[1]} {1e3 * below[0]:.2f} and {above[1]} {1e3 * above[0]:.2f}")
    return "op_ms.p50 lies between: " + "; ".join(sides)


def setup_pairs(srcs: list, workload: str, seed: int, pairs: int) -> tuple:
    """(base set-up times, new set-up times) from ``pairs`` pairs of perfbench/worker.py
    --setup-only processes; raises RuntimeError when a process fails."""
    cmd = [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--setup-only"]
    times = ([], [])
    for i in range(pairs):
        for side in (i % 2, 1 - i % 2):
            env = dict(os.environ, PYTHONPATH=srcs[side], **{var: "1" for var in THREAD_VARS})
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{TREES[side]} set-up exited with code {proc.returncode}: "
                                   f"{(proc.stderr.strip().splitlines() or [''])[-1]}")
            times[side].append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def report_setup(srcs: list, workload: str, seed: int, pairs: int) -> int:
    """Print the set-up comparison of ``main --setup``; returns the exit code."""
    print(f"{workload} seed {seed}, {pairs} set-up pairs; base {srcs[0]}, new {srcs[1]}")
    try:
        base, new = setup_pairs(srcs, workload, seed, pairs)
    except RuntimeError as exc:
        print(f"failed: {exc}")
        return 1
    b, n = statistics.median(base), statistics.median(new)
    print(f"median set-up s: base {b:.3f}, new {n:.3f}, new/base {n / b:.3f}")
    print(ratio_summary(base, new, unit="pair"))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base_src")
    p.add_argument("new_src")
    p.add_argument("--workload", required=True, choices=("jacobi-grid", "realize-kernels", "kac-deep", "cli-session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--setup", type=int, default=0, metavar="K", help="measure set-up in K pairs of processes instead")
    args = p.parse_args(argv)
    srcs = [os.path.abspath(s) for s in (args.base_src, args.new_src)]
    if args.setup > 0:
        return report_setup(srcs, args.workload, args.seed, args.setup)
    for var in THREAD_VARS:  # one BLAS thread, as perfbench/run.py gives its processes
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_trees(*srcs, tmp)
        wl = _import_workloads(packages[0])
        sides = []
        for package, src, name in zip(packages, srcs, TREES):
            wl.nt = package
            if args.workload == "cli-session":
                os.makedirs(os.path.join(tmp, name + "-work"))
                workload = wl.CliSession(args.seed, os.path.join(tmp, name + "-work"))
            else:
                workload = wl.WORKLOADS[args.workload](args.seed)
            sides.append((package, src, workload.round()))

        def bind(side):
            package, src, _ = sides[side]
            wl.nt = package
            os.environ["PYTHONPATH"] = src

        for side in (0, 1):  # warm-up, as the benchmark's first operation
            bind(side)
            _run_op(sides[side][2][0])
        labels = [op.label for op in sides[0][2]]
        times = [[[] for _ in labels], [[] for _ in labels]]
        rounds = [[], []]
        durations = [[], []]  # (seconds, label) of the operations whose check passed, as the benchmark keeps them
        failures = [[], []]
        for r in range(args.rounds):
            total = [0.0, 0.0]
            for i in range(len(labels)):
                first = (r + i) % 2  # alternates along the round and, for each operation, between rounds
                for side in (first, 1 - first):
                    bind(side)
                    dt, bad = _run_op(sides[side][2][i])
                    times[side][i].append(dt)
                    total[side] += dt
                    failures[side] += bad
                    if not bad:
                        durations[side].append((dt, labels[i]))
            for side in (0, 1):
                rounds[side].append(total[side])

    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds; base {srcs[0]}, new {srcs[1]}")
    rows = [(label, times[0][i], times[1][i]) for i, label in enumerate(labels)] + [("round", *rounds)]
    width = max(len(label) for label, _, _ in rows) + 2
    print(f"{'operation':<{width}}{'base ms':>10}{'new ms':>10}{'new/base':>10}")
    for label, base, new in rows:
        b, n = 1e3 * statistics.median(base), 1e3 * statistics.median(new)
        print(f"{label:<{width}}{b:>10.1f}{n:>10.1f}{n / b:>10.3f}")
    if durations[0] and durations[1]:
        print(p50_summary(*([dt for dt, _ in ops] for ops in durations)))
        print(p50_sides(*durations))
    print(ratio_summary(*rounds))
    print(f"failed checks: base {len(failures[0])}, new {len(failures[1])}")
    for side, name in enumerate(TREES):
        for message in failures[side][:5]:
            print(f"  {name}: {message}")
    return 1 if failures[0] or failures[1] else 0


if __name__ == "__main__":
    sys.exit(main())
