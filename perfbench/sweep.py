"""Run a set of benchmark runs and store their results.

    python3 perfbench/sweep.py OUT_DIR [--workloads a,b] [--seeds 1-10]

For each workload and seed it runs ``run.py`` from the current directory
(the root of a checkout) and stores the reference line and the result line
in OUT_DIR/<workload>/seed<N>.json.  It then prints, per workload and
end-to-end metric, the median and the spread: the distance between the
first and third quartile as a share of the median.  Two such directories
are what ``compare.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(directory: str) -> dict:
    """{workload: {seed: result}} from a sweep directory."""
    out = {}
    for workload in sorted(os.listdir(directory)):
        runs = {}
        for name in os.listdir(os.path.join(directory, workload)):
            with open(os.path.join(directory, workload, name), encoding="utf-8") as fh:
                runs[int(name[4:-5])] = json.load(fh)["result"]
        out[workload] = runs
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("out")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    for workload in args.workloads.split(","):
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                continue
            reference, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            with open(os.path.join(args.out, workload, f"seed{seed}.json"), "w", encoding="utf-8") as fh:
                json.dump({"reference": reference["reference"], "result": result}, fh)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for workload, runs in load_set(args.out).items():
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs.values())}"
              f" of {sum(r['attempted'] for r in runs.values())}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs.values()]
            print(f"  {metric['name']:12s} median {statistics.median(values):10.4g}"
                  f"  spread {spread(values):.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
