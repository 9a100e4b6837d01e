"""One-off traced report of the ROADMAP baseline configurations.

    python3 perfbench/roadmap_report.py

Solves ex1/qopt p0 L7, ex1/qopt p1 L6 and ex1/simple p2 L5 once each at
their finest level (standard variant, then the error function), traced, with
BLAS pinned to one thread, and prints the ROADMAP columns in seconds.  B, G
and F count only the calls made inside ``assemble_global``, which includes
them; ``solve`` is the rest of ``assemble_and_solve`` after the DOF map, the
assembler and ``assemble_global``; ``errfn`` is the whole error function.
This is not a gated workload: it runs each configuration once.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dpglab  # noqa: E402

import tracing  # noqa: E402
from worker import machine  # noqa: E402

CONFIGS = [("ex1/qopt p0 L7", 1, "qopt", 0, 7),
           ("ex1/qopt p1 L6", 1, "qopt", 1, 6),
           ("ex1/simple p2 L5", 1, "simple", 2, 5)]
COLUMNS = ("B", "G", "F", "assemble_global", "solve", "errfn")


def under(tracer: tracing.Tracer, name: str, ancestor: str) -> float:
    """Inclusive seconds of spans ``name`` nested (at any depth) in ``ancestor``."""
    spans = tracer.spans
    total = 0.0
    for span_name, parent, start, end in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][1]
        if parent >= 0:
            total += end - start
    return total


def columns(tracer: tracing.Tracer) -> dict[str, float]:
    incl, own = tracer.totals()
    glob = "dpg_solver.assemble_global"
    return {
        "B": under(tracer, "forms.b_matrices", glob),
        "G": under(tracer, "forms.gram", glob),
        "F": under(tracer, "forms.loads", glob),
        "assemble_global": incl[glob],
        "solve": (own["dpg_solver.assemble_and_solve"] + incl["superlu.factor"]
                  + incl["dpg_solver.cg"]),
        "errfn": incl["dpg_solver.error_function"],
    }


def main() -> None:
    print(json.dumps(machine()))
    print("| config | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for label, ex, norm, p, levels in CONFIGS:
        mesh = dpglab.build_initial_mesh()
        for _ in range(levels - 1):
            mesh = dpglab.refine_uniform(mesh)
        problem = dpglab.example(ex)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            sol = dpglab.assemble_and_solve(mesh, problem, p,
                                            dpglab.TestNorm.from_name(norm))
            dpglab.error_function(mesh, problem, sol)
        cells = columns(tracer)
        print(f"| {label} | " + " | ".join(f"{cells[c]:.2f}" for c in COLUMNS) + " |",
              flush=True)


if __name__ == "__main__":
    main()
