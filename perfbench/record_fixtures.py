"""Record the printed outputs that the benchmark checks against.

    python3 perfbench/record_fixtures.py

Writes ``fixtures.json`` from the library as it is checked out.  The file in
the repository was recorded when the benchmark was introduced; re-recording
it is a change to the benchmark's correctness check, and a change that alters
a printed table must say why.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> None:
    fixtures = {}
    for name in workloads.STUDIES:
        table, _, residuals = workloads.Study(name).outputs()
        if table is None or any(r > workloads.SOLVER_TOL for _, r in residuals):
            sys.exit(f"{name}: study failed; nothing recorded")
        fixtures[name] = workloads.study_record(table)
    sweep = workloads.Sweep(seed=0)
    fixtures[workloads.SWEEP] = {}
    for config in workloads.sweep_grid():
        errors, residual = sweep.solve(config)
        if residual > workloads.SOLVER_TOL:
            sys.exit(f"{workloads.sweep_key(config)}: backward error {residual:.2e}")
        fixtures[workloads.SWEEP][workloads.sweep_key(config)] = errors
    workloads.FIXTURES.write_text(json.dumps(fixtures, indent=1) + "\n")


if __name__ == "__main__":
    main()
