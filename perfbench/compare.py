"""Compare two sets of benchmark runs made by ``sweep.py``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

For each workload and end-to-end metric it prints both medians and quartiles,
the pairs (runs with the same seed) that NEW won, the change of the median,
and whether NEW stays within the metric's bound from BENCHMARK.json.  A gain
is reported only when NEW wins at least nine tenths of the pairs and the
medians differ by more than BASE's own quartile spread.
"""

from __future__ import annotations

import statistics
import sys

from sweep import load_benchmark, load_set


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse NEW is than BASE, as a share of BASE (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    base, new = load_set(argv[0]), load_set(argv[1])
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        print(f"  {'metric':12s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s}"
              f" {'won':>6s} {'worse':>7s}  verdict")
        for metric in bench["end_to_end"]:
            name, better = metric["name"], metric["better"]
            b = [r["metrics"][name]["value"] for r in b_runs.values()]
            n = [r["metrics"][name]["value"] for r in n_runs.values()]
            bq, nq = statistics.quantiles(b, n=4), statistics.quantiles(n, n=4)
            pairs = sorted(set(b_runs) & set(n_runs))
            won = sum(worse_by(b_runs[s]["metrics"][name]["value"], n_runs[s]["metrics"][name]["value"], better) < 0
                      for s in pairs)
            worse = worse_by(statistics.median(b), statistics.median(n), better)
            if worse > metric["bound"]:
                verdict = "REGRESSION beyond bound"
                regressions += 1
            elif pairs and won >= 0.9 * len(pairs) and -worse * statistics.median(b) > bq[2] - bq[0]:
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"  {name:12s} {statistics.median(b):10.4g} [{bq[0]:8.4g}, {bq[2]:8.4g}]"
                  f" {statistics.median(n):10.4g} [{nq[0]:8.4g}, {nq[2]:8.4g}]"
                  f" {won:>2d}/{len(pairs):<3d} {100 * worse:+6.1f}%  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
