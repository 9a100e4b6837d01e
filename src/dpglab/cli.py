"""Command line interface.

``dpg-lab study``  runs one convergence study and emits the error table.
``dpg-lab verify`` runs the full acceptance matrix, printing one PASS/FAIL
line per criterion; exit code is nonzero if any criterion fails.
"""

from __future__ import annotations

import argparse
import sys

from .acceptance import AcceptanceRunner
from .dpg_solver import SolverError
from .forms import TestNorm
from .harness import StudyConfig, emit_table, run_convergence_study


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpg-lab",
        description="Ultra-weak DPG convergence studies on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="run one convergence study")
    st.add_argument("--example", type=int, choices=(1, 2), required=True)
    st.add_argument("--norm", choices=("qopt", "std", "simple"), required=True)
    st.add_argument("--p", dest="degree", type=int, choices=(0, 1, 2, 3), required=True)
    st.add_argument("--levels", type=int, required=True)
    st.add_argument("--variant", choices=("standard", "augmented", "both"),
                    default="both")
    st.add_argument("--k1", type=int, default=None, help="scalar test degree")
    st.add_argument("--k2", type=int, default=None, help="vector test degree")
    st.add_argument("--format", dest="fmt", choices=("csv", "markdown"), default="csv")
    st.add_argument("--out", default=None, help="write the table to this path")
    st.add_argument("--solver-tol", type=float, default=1e-12)
    st.add_argument("--quiet", action="store_true", help="no progress lines")

    vf = sub.add_parser("verify", help="run the acceptance matrix")
    vf.add_argument("--quiet", action="store_true", help="no progress lines")
    vf.add_argument("--details", action="store_true",
                    help="print per-check details for each criterion")
    return parser


def _run_study(args) -> int:
    cfg = StudyConfig(example=args.example, norm=TestNorm.from_name(args.norm),
                      p=args.degree, levels=args.levels, variant=args.variant,
                      k1=args.k1, k2=args.k2, solver_tol=args.solver_tol)
    progress = None if args.quiet else lambda m: print(m, file=sys.stderr)
    table = run_convergence_study(cfg, progress=progress)
    text = emit_table(table, args.fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_verify(args) -> int:
    progress = None if args.quiet else lambda m: print(m, file=sys.stderr)
    runner = AcceptanceRunner(progress=progress)
    results = runner.run_all(emit=lambda line: print(line))
    if args.details:
        for r in results:
            print(r.report())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "study":
            return _run_study(args)
        return _run_verify(args)
    except (SolverError, ValueError) as exc:
        print(f"dpg-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
