"""dpg-lab benchmark: run one workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each execution of the workload happens in
a fresh ``worker.py`` process with BLAS pinned to one thread, one after the
other (a closed loop with one client), as many as fit in ``--seconds``
judged by the duration of the last one; at least one always runs.  Each
worker is pinned to the CPU that is fastest when it starts.  Six
set-up-only workers add samples for ``setup_s``; one more, not counted,
first compiles the bytecode and warms the file cache.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, each the median over the run's workers.  With ``--trace 1``
untraced and traced workers alternate; the metrics are the per-layer medians
of the traced workers, the tracing overhead (traced minus untraced
``wall_s``) is printed on the line before, and the spans are written to
``.perfbench-out/``.  Exits non-zero without a result when a worker cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("study-qopt-p0-energy", "study-simple-p2", "sweep-coarse")
END_TO_END_UNITS = {"wall_s": "s", "finest_level_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
SETUP_WORKERS = 6
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"
CPU_PROBE_MAX = 8
CPU_PROBE_LOOP = 300_000


class BenchError(RuntimeError):
    pass


def fastest_cpu(cpus: list[int]) -> int:
    """The CPU on which a short pure-Python loop runs fastest right now.

    On a shared host a CPU whose hyperthread sibling is busy runs up to 1.7
    times slower, for tens of seconds at a time and independently of the
    other CPUs; starting each worker on the currently fastest CPU keeps most
    of that out of the samples.
    """
    times = {}
    for cpu in cpus[:CPU_PROBE_MAX]:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for k in range(CPU_PROBE_LOOP):
            total += k * k
        times[cpu] = time.perf_counter() - start
    return min(times, key=times.get)


def worker(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    allowed = os.sched_getaffinity(0)
    try:
        # the worker inherits this process's affinity
        os.sched_setaffinity(0, {fastest_cpu(sorted(allowed))})
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    finally:
        os.sched_setaffinity(0, allowed)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(setup-only results, untraced results, traced results)."""
    worker(workload, seed, "setup")  # bytecode and file cache, not counted
    setups = [worker(workload, seed, "setup") for _ in range(SETUP_WORKERS)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        plain.append(worker(workload, seed, "run"))
        if trace:
            traced.append(worker(workload, seed, "trace"))
        now = time.perf_counter()
        if now - start + (now - step) > seconds:  # the next one would not fit
            return setups, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpglab").is_dir():
        print(f"run.py: no dpglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    done = plain + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    print(json.dumps({"machine": done[0]["machine"],
                      "wall_s_samples": [r["wall_s"] for r in plain],
                      "setup_s_samples": [r["setup_s"] for r in setups + done]}))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps([r["spans"] for r in traced]))
        wall, wall_traced = median_of(plain, "wall_s"), median_of(traced, "wall_s")
        print(json.dumps({"wall_s": wall, "traced_wall_s": wall_traced,
                          "tracing_overhead_s": wall_traced - wall,
                          "stage_s": median_of(traced, "stage_s"),
                          "unaccounted_s": statistics.median(
                              r["wall_s"] - r["stage_s"] for r in traced),
                          "spans": str(spans.relative_to(ROOT))}))
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in traced),
                       "unit": unit}
                   for k, unit in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": median_of(plain, k), "unit": unit}
                   for k, unit in END_TO_END_UNITS.items() if k != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(
            r["setup_s"] for r in setups + done), "unit": "s"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
