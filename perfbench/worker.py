"""One execution of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED {run|trace|setup}

Prints one JSON line.  ``setup_s`` runs from before ``import dpglab`` to the
start of the first workload call; ``setup`` mode stops there.  ``trace`` mode
wraps the library's entry points after set-up and adds the per-layer metrics
and the spans.  The exit code is 0 even when operations fail; failures are
counted in the result.  It is non-zero only when the workload cannot be set
up or run at all.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports dpglab, numpy and scipy)
import tracing  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(name: str, seed: int, mode: str) -> dict:
    work = workloads.prepare(name, seed)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        return {"setup_s": setup_s}
    tracer = tracing.Tracer() if mode == "trace" else None
    patches = tracing.install(tracer) if tracer else tracing.Patches()
    with patches:
        outcome = work.run()
    out = {"setup_s": setup_s, "wall_s": outcome.wall_s,
           "finest_level_s": outcome.finest_level_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": outcome.attempted, "failed": outcome.failed,
           "machine": machine()}
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer)
        out["stage_s"] = tracing.stage_seconds(tracer)
        out["spans"] = tracer.records()
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[3] not in ("run", "trace", "setup"):
        sys.exit(__doc__)
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
