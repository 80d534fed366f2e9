"""Benchmark of the nlsp survey and HHL simulator; prints one JSON result.

    python3 bench/run.py --workload survey-dense --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, checks
every output of every round against independent references, and prints as
its last line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, the median
round; ``peak_rss_mb``; ``setup_s``, the median of several fresh-process
set-ups); with ``--trace 1`` they are the per-layer figures of ``layers.py``.
BLAS and OpenMP pools are capped at one thread before numpy loads, so the
survey's two workers are the only threads that compute.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_run"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh process and print it")
    return p.parse_args(argv)


def setup_sampler(workload: str, seed: int):
    """A function that times one set-up in a fresh interpreter: import nlsp
    and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]

    def sample() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    return sample


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_CAPS)
    if not (ROOT / "src" / "nlsp" / "__init__.py").is_file():
        print(f"nlsp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        start = time.perf_counter()
        workload.setup(args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    if args.trace:
        import layers as tracing

        layers = tracing.Layers()
        with tracing.installed(layers):
            inputs = workload.setup(args.seed)
            setup_layers = layers.snapshot()
            rounds, per_round, _ = run_rounds(workload, inputs, args.seconds, layers)
    else:
        inputs = workload.setup(args.seed)
        rounds, _, setup = run_rounds(workload, inputs, args.seconds, None,
                                      setup_sampler(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {}
        for name in tracing.TIMES + tracing.COUNTS:
            value = setup_layers[name] + statistics.median(r[name] for r in per_round)
            unit = "count" if name in tracing.COUNTS else "s"
            metrics[name] = {"value": value, "unit": unit}
        ratios = [r["cpu_s"] / r["wall_s"] for r in rounds if "cpu_s" in r] or [0.0]
        metrics["survey.cpu_per_wall"] = {"value": statistics.median(ratios), "unit": "ratio"}
    else:
        print("setup samples (s): " + " ".join(f"{x:.3f}" for x in setup))
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    outcome = workloads.Outcome()
    refs = workload.references(inputs)
    workload.check(inputs, refs, rounds, outcome)

    print("round walls (s): " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{outcome.attempted} operations, {len(outcome.failed)} failed")
    for line in sorted(set(outcome.failed)):
        print(f"  failed: {line}")
        reason = workloads.KNOWN_FAULTS.get(line.split(": ", 1)[0])
        if reason:
            print(f"    known fault: {reason}")
    for problem in sorted(set(outcome.problems)):
        print(f"  PROBLEM: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": metrics,
    }))
    return 0


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS.

    Without this the allocator keeps what earlier rounds freed, and the
    process peak grows with the number of rounds instead of showing the
    peak of one pass, which is what a single ``nlsp survey run`` costs.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed pages stay with the allocator


def run_rounds(workload, inputs, seconds: float, layers, sample_setup=None):
    """Whole rounds until ``seconds`` have passed; per-round layer snapshots.

    With ``sample_setup``, SETUP_REPEATS set-up samples are taken between
    rounds, one per equal slice of the run, so that their median averages the
    machine's speed over the whole run rather than over a few seconds.  The
    time they take does not count towards ``seconds``.
    """
    SCRATCH.mkdir(exist_ok=True)
    rounds, per_round, setup = [], [], []
    wants_setup = sample_setup is not None
    began = time.perf_counter()
    sampling = 0.0  # time spent on set-up samples, outside the measured run

    def elapsed() -> float:
        return time.perf_counter() - began - sampling

    try:
        while not rounds or elapsed() < seconds:
            while wants_setup and len(setup) < SETUP_REPEATS \
                    and elapsed() >= len(setup) * seconds / SETUP_REPEATS:
                start = time.perf_counter()
                setup.append(sample_setup())
                sampling += time.perf_counter() - start
            release_freed_memory()
            if layers is not None:
                layers.reset()
            with tempfile.TemporaryDirectory(prefix="round-", dir=SCRATCH) as out_dir:
                rounds.append(workload.run_round(inputs, Path(out_dir)))
            if layers is not None:
                per_round.append(layers.snapshot())
        while wants_setup and len(setup) < SETUP_REPEATS:
            setup.append(sample_setup())
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    return rounds, per_round, setup


if __name__ == "__main__":
    sys.exit(main())
