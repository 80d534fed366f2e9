"""Steadiness check: run each workload in two sets of seeds and compare.

    python3 bench/steady.py                       # all workloads, seeds 1..20
    python3 bench/steady.py --first-seed 101 --workloads survey-sparse

Each workload runs in two sets of ten runs, one seed per run, at the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints each
set's median and quartiles, the quartile spread as a share of the median, the
shift between the two sets' medians, and the metric's bound.  A spread above
the bound or a shift, either way, larger than the bound is marked, as is a
failed share that differs between the sets.  ``setup_s`` goes through the
same checks as the other metrics.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    steady = True
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            first = args.first_seed + s * RUNS_PER_SET
            results = []
            for seed in range(first, first + RUNS_PER_SET):
                res = run_once(workload, seed, bench["run_seconds"])
                results.append(res)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
                    + f", failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                    flush=True)
            sets.append(results)
        print(f"\n== {workload}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for results in sets:
                med, q1, q3 = summary([r["metrics"][name]["value"] for r in results])
                spread = (q3 - q1) / med
                medians.append(med)
                flag = " !" if spread > bound else ""
                cells.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.1%}{flag}")
                steady &= not flag
            shift = (medians[1] - medians[0]) / medians[0]
            flag = " !" if abs(shift) > bound else ""
            steady &= not flag
            print(f"  {name:12s} bound {bound:.0%} | " + " | ".join(cells)
                  + f" | second set shifted by {shift:+.1%}{flag}")
        ratios = {Fraction(r["failed"], r["attempted"]) for results in sets for r in results}
        correct = all(r["correct"] for results in sets for r in results)
        print(f"  failed share(s): {sorted(map(str, ratios))}; every run correct: {correct}\n")
        steady &= len(ratios) == 1 and correct
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
