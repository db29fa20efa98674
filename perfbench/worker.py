"""One benchmark process: set up a workload, run whole rounds of its
operations for the requested time, check every output, and print one JSON
line with the raw figures.  ``run.py`` starts it with the environment fixed.

With ``--trace 1`` rounds alternate between untraced and traced; the traced
rounds give the per-layer metrics and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")
sys.path.insert(0, HERE)

#: a run reports op_ms.tail only with at least this many operations
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, to recognise a slowed machine."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def tail(durations):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _check(op, out) -> list:
    try:
        return op.check(out)
    except Exception as exc:  # output the check cannot even read
        return [f"{op.label}: check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    t_setup = time.perf_counter()
    import nevtrans  # noqa: F401  (set-up time includes the import)
    import workloads
    from tracer import Tracer, merge, per_layer_metrics

    cli = args.workload == "cli-session"
    tracer = Tracer() if args.trace and not cli else None
    if tracer:
        tracer.install()
    if cli:
        wl = workloads.CliSession(args.seed, workdir)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer:
        tracer.uninstall()
    ops = wl.round()
    try:
        warm_out, warm_error = ops[0].run(), None
    except Exception as exc:  # reported with the checks, like any failed operation
        warm_out, warm_error = None, f"warm-up {ops[0].label}: {type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calib = [calibration_ms()]
    durations, failures = [], []
    attempted = failed = 0
    spent = {False: [0, 0.0], True: [0, 0.0]}  # traced? -> [operations, seconds]
    summary, import_s, rounds, peak_rss = None, 0.0, 0, None
    prefix = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}")
    if args.trace and cli:
        os.makedirs(prefix, exist_ok=True)
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced and tracer:
            tracer.install()
        done = []
        for op in ops:
            if cli:
                wl.trace_prefix = os.path.join(prefix, f"{attempted:05d}-{op.label}") if traced else None
            if tracer:
                tracer.op_id = attempted
            t = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if tracer:
                tracer.op_id = -1
            attempted += 1
            spent[traced][0] += 1
            spent[traced][1] += dt
            done.append((op, out, error, dt))
            if traced and cli:
                with open(wl.trace_prefix + ".json", encoding="utf-8") as fh:
                    part = json.load(fh)
                import_s += part.pop("import_s")
                summary = merge(summary, part)
        if traced and tracer:
            tracer.uninstall()
        if peak_rss is None:
            # checks run after the round, so their dense references stay out of the peak
            peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss
            warm_bad = [warm_error] if warm_error else _check(ops[0], warm_out)
        for op, out, error, dt in done:
            bad = [error] if error else _check(op, out)
            if bad:
                failed += 1
                failures += bad[:1]
            elif not traced:
                durations.append(dt)
        rounds += 1
        timed = spent[False][1] + spent[True][1]
        if timed >= args.seconds and (not args.trace or rounds >= 2):
            break
    calib.append(calibration_ms())

    for msg in (warm_bad + failures)[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    ok_ops = attempted - failed
    if not durations and not args.trace:
        print("every operation failed", file=sys.stderr)
        return 1
    result = {
        "setup_s": setup_s,
        "correct": not warm_bad,
        "attempted": attempted,
        "failed": failed,
        "reference": {
            "calibration_ms": statistics.median(calib),
            "rounds": rounds,
            "ops_per_round": len(ops),
            "timed_s": timed,
        },
    }
    if args.trace:
        (n_un, s_un), (n_tr, s_tr) = spent[False], spent[True]
        overhead = 100.0 * ((n_un / s_un) / (n_tr / s_tr) - 1.0)
        if tracer:
            summary = tracer.summary()
            tracer.dump(prefix + ".csv.gz")
        setup = tracer.summary(setup=True) if tracer else None
        metrics = per_layer_metrics(summary, setup, n_tr, import_s, overhead)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"ops": summary, "setup": setup, "traced_ops": n_tr, "metrics": metrics}, fh, indent=1)
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        result["metrics"] = {
            "ops_per_s": {"value": ok_ops / timed, "unit": "1/s"},
            "op_ms.p50": {"value": 1e3 * statistics.median(durations), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss / 1024.0, "unit": "MB"},
        }
        if len(durations) >= TAIL_MIN_OPS:
            value, pct = tail(durations)
            result["reference"]["op_ms.tail"] = 1e3 * value
            result["reference"]["tail_percentile"] = pct
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
