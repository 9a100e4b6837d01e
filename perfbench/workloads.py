"""The benchmark's workloads: inputs, timed execution and the output check.

Only dpglab's public API is called, and always through the module attribute
(``dpglab.assemble_and_solve``, never a name imported from it), so that the
wrappers of :mod:`tracing` see every call.

An operation is one table row (studies) or one configuration (sweep).  It
fails if it raises, if its solve's backward error exceeds the solver
tolerance, or if its printed output differs from ``fixtures.json``, which
holds the outputs recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import dpglab
from dpglab.harness import fmt_err

from tracing import Patches, replace_everywhere

FIXTURES = Path(__file__).with_name("fixtures.json")
SOLVER_TOL = 1e-12  # StudyConfig and assemble_and_solve default

# Why each workload exists is recorded in BENCHMARK.json and README.md.
STUDIES = {
    "study-qopt-p0-energy": dict(example=1, norm="qopt", p=0, levels=6,
                                 variant="both", track_energy=True),
    "study-simple-p2": dict(example=1, norm="simple", p=2, levels=5,
                            variant="standard"),
}
SWEEP = "sweep-coarse"
NAMES = (*STUDIES, SWEEP)


@dataclass
class Outcome:
    attempted: int
    failed: int
    wall_s: float
    finest_level_s: float  # studies: last level; sweep: the level-2 meshes


def sweep_grid() -> list[tuple[int, str, int, str, int]]:
    """(example, norm, p, variant, mesh level) for every sweep configuration."""
    return list(itertools.product((1, 2), ("qopt", "std", "simple"), range(4),
                                  ("standard", "augmented"), (1, 2)))


def sweep_key(config) -> str:
    example, norm, p, variant, level = config
    return f"ex{example}-{norm}-p{p}-{variant}-L{level}"


def study_record(table) -> dict:
    """Printed outputs of one study: its CSV and, per row, the energy error."""
    return {"csv": dpglab.emit_table(table, "csv"),
            "energy": [fmt_err(row.energy) for row in table.rows]}


def row_failures(record: dict | None, fixture: dict, levels: int,
                 residuals: list[tuple[int, float]]) -> list[bool]:
    """Per table row, whether it failed.  ``residuals`` holds (level,
    backward error) of every solve the study made."""
    want = fixture["csv"].splitlines()
    got = record["csv"].splitlines() if record else []
    header_ok = got[:1] == want[:1]
    failed = []
    for i in range(levels):
        ok = (record is not None and header_ok
              and got[i + 1:i + 2] == want[i + 1:i + 2]
              and record["energy"][i:i + 1] == fixture["energy"][i:i + 1]
              and all(r <= SOLVER_TOL for level, r in residuals if level == i + 1))
        failed.append(not ok)
    return failed


def load_fixtures() -> dict:
    return json.loads(FIXTURES.read_text())


class Study:
    def __init__(self, name: str):
        self.name = name
        self.config = dpglab.StudyConfig(**STUDIES[name])

    def outputs(self):
        """The study's table, or None if it raised, with the level start
        times and the (level, backward error) of every solve."""
        marks: list[float] = []
        residuals: list[tuple[int, float]] = []
        solve = dpglab.assemble_and_solve

        def recording_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            residuals.append((len(marks), sol.residual))
            return sol

        with Patches() as patches:
            replace_everywhere(patches, solve, recording_solve)
            try:
                table = dpglab.run_convergence_study(
                    self.config, progress=lambda _: marks.append(time.perf_counter()))
            except Exception:
                traceback.print_exc()
                table = None
        return table, marks, residuals

    def run(self) -> Outcome:
        start = time.perf_counter()
        table, marks, residuals = self.outputs()
        end = time.perf_counter()
        record = study_record(table) if table is not None else None
        levels = self.config.levels
        failed = row_failures(record, load_fixtures()[self.name], levels, residuals)
        return Outcome(levels, sum(failed), end - start,
                       end - marks[-1] if marks else end - start)


class Sweep:
    def __init__(self, seed: int):
        coarse = dpglab.build_initial_mesh()
        self.meshes = {1: coarse, 2: dpglab.refine_uniform(coarse)}
        self.problems = {1: dpglab.example(1), 2: dpglab.example(2)}
        self.norms = {n: dpglab.TestNorm.from_name(n) for n in ("qopt", "std", "simple")}
        self.configs = sweep_grid()
        random.Random(seed).shuffle(self.configs)

    def solve(self, config) -> tuple[dict, float]:
        """Printed errors of one configuration and its backward error."""
        example, norm, p, variant, level = config
        mesh, problem = self.meshes[level], self.problems[example]
        sol = dpglab.assemble_and_solve(mesh, problem, p, self.norms[norm],
                                        variant=variant)
        post = dpglab.postprocess_u(mesh, problem, sol)
        return {"err_u": fmt_err(dpglab.l2_error(mesh, sol.u, problem.u)),
                "err_post": fmt_err(dpglab.l2_error(mesh, post, problem.u))}, sol.residual

    def run(self) -> Outcome:
        results, finest = [], 0.0
        start = time.perf_counter()
        for config in self.configs:
            t = time.perf_counter()
            try:
                results.append(self.solve(config))
            except Exception:
                traceback.print_exc()
                results.append(None)
            if config[-1] == 2:
                finest += time.perf_counter() - t
        wall = time.perf_counter() - start
        fixture = load_fixtures()[SWEEP]
        failed = sum(res is None or res[1] > SOLVER_TOL or res[0] != fixture[sweep_key(c)]
                     for c, res in zip(self.configs, results))
        return Outcome(len(self.configs), failed, wall, finest)


def prepare(name: str, seed: int):
    """Build a workload's inputs; the seed only orders the sweep."""
    if name in STUDIES:
        return Study(name)
    if name == SWEEP:
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
