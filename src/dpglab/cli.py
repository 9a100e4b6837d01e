"""Command line interface.

``dpg-lab study``  runs one convergence study and emits the error table.
``dpg-lab verify`` runs the full acceptance matrix, printing one PASS/FAIL
line per criterion; exit code is nonzero if any criterion fails.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import tempfile

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
    out = _replacing(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(emit_table(run_convergence_study(cfg, progress=progress), args.fmt))
    return 0


@contextlib.contextmanager
def _replacing(path: str):
    """A file to write the table to that replaces ``path`` only when the
    block completes; if it raises, a file already at ``path`` keeps its
    bytes.  The temporary file is created beside the file ``path`` names
    (through a symlink) before the block, so that a path that cannot be
    written fails at once rather than after the whole study, and
    ``os.replace`` stays atomic.  It gets the mode ``open(path, "w")``
    would leave.  A device or pipe at ``path`` (``/dev/null``,
    ``/dev/stdout``) has no bytes to keep and is written in place."""
    tmp = None
    try:
        st = os.stat(path) if os.path.exists(path) else None
        if st is not None and not stat.S_ISREG(st.st_mode):
            fh = open(path, "w")  # a directory raises IsADirectoryError
        else:
            umask = os.umask(0)  # mkstemp's mode is 0600
            os.umask(umask)
            mode = 0o666 & ~umask if st is None else stat.S_IMODE(st.st_mode)
            target = os.path.realpath(path)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp",
                                       prefix=f".{os.path.basename(target)}.")
            fh = os.fdopen(fd, "w")
    except OSError as exc:
        raise ValueError(f"cannot write the table to {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        if tmp is not None:
            try:
                os.chmod(tmp, mode)
                os.replace(tmp, target)
            except OSError as exc:
                raise ValueError(f"cannot write the table to {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


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
