"""Convergence-study driver: error integration, rates, table emission.

A study starts from the initial criss-cross mesh, solves on a sequence of
uniformly refined meshes and collects four L2 errors per level:

* ``err_u``:    |u - u_h|          (degree-p solve)
* ``err_proj``: |P^p u - u_h|      (distance to the elementwise L2 projection)
* ``err_aug``:  |u - u_h^+|        (degree p+1 scalar field, separate solve)
* ``err_post``: |u - u_tilde|      (local Neumann postprocessing, degree p+1)

Rates are log2 of consecutive error quotients.  Error quadrature is chosen
independently of the assembly quadrature (exactness 2*degree + 6) so that
error measurement cannot inherit an assembly shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dpg_solver import _check_solver_tol, assemble_and_solve
from .forms import TestNorm, _check_test_degrees, _test_degrees, _volume_exactness
from .mesh import Mesh, build_initial_mesh, refine_uniform
from .postprocess import _postprocess_exactness, postprocess_u
from .problems import ProblemSpec, example, seam_clearance
from .refelem import triangle_quadrature
from .spaces import (CoefficientVector, _exact_values, _project_values, broken_eval,
                     trial_layout)

CSV_HEADER = "p,nT,err_u,rate_u,err_proj,rate_proj,err_aug,rate_aug,err_post,rate_post"
# a quadrature node this close to a coefficient jump line counts as on it
_MIN_CLEARANCE = 1e-12


def fmt_err(v: Optional[float]) -> str:
    """Scientific notation with 3 significant digits, '---' when absent."""
    return "---" if v is None else f"{v:.2e}"


def fmt_rate(v: Optional[float]) -> str:
    return "---" if v is None else f"{v:.2f}"


def l2_error(mesh: Mesh, approx: CoefficientVector, exact) -> float:
    """L2 distance between a broken polynomial field on ``mesh`` and a
    callable."""
    if approx.mesh is not mesh:
        raise ValueError("l2_error needs the mesh the field lives on")
    rule = _error_rule(approx.degree)
    return _l2_distance(mesh, rule, _exact_values(mesh, rule, exact), approx)


def _error_rule(degree: int):
    """The quadrature that measures the error of a degree-``degree`` field."""
    return triangle_quadrature(2 * degree + 6)


def _l2_distance(mesh: Mesh, rule, vals: np.ndarray, approx: CoefficientVector) -> float:
    """L2 distance between ``approx`` and the exact values ``vals`` at
    ``rule`` (see :func:`dpglab.spaces._exact_values`)."""
    diff = vals - broken_eval(approx, rule.points)
    err2 = np.einsum("q,eq,e->", rule.weights, diff * diff, mesh.dets)
    return float(np.sqrt(err2))


def rate(e_prev: float, e_cur: float) -> Optional[float]:
    """log2(e_prev / e_cur); None when either value is not positive."""
    if e_prev is None or e_cur is None or e_prev <= 0 or e_cur <= 0:
        return None
    return float(np.log2(e_prev / e_cur))


@dataclass(frozen=True)
class StudyConfig:
    example: int
    norm: TestNorm
    p: int
    levels: int
    variant: str = "both"  # standard | augmented | both
    k1: int | None = None
    k2: int | None = None
    solver_tol: float = 1e-12
    track_energy: bool = False

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("a study needs at least 2 levels")
        if self.variant not in ("standard", "augmented", "both"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.track_energy and self.variant == "augmented":
            raise ValueError("track_energy needs the standard solve; "
                             "variant 'augmented' has none")
        _check_solver_tol(self.solver_tol)
        for variant in ("standard", "augmented"):
            if self.variant in (variant, "both"):
                _check_test_degrees(trial_layout(self.p, variant), self.k1, self.k2)
        if isinstance(self.norm, str):
            object.__setattr__(self, "norm", TestNorm.from_name(self.norm))


@dataclass
class ErrorRow:
    level: int
    n_triangles: int
    err_u: float | None = None
    err_proj: float | None = None
    err_aug: float | None = None
    err_post: float | None = None
    err_best: float | None = None  # |u - P^p u|, not emitted
    energy: float | None = None  # |eps|_V, not emitted

    def errors(self):
        return (self.err_u, self.err_proj, self.err_aug, self.err_post)


@dataclass
class ErrorTable:
    p: int
    rows: list[ErrorRow] = field(default_factory=list)

    def rates(self) -> list[tuple[Optional[float], ...]]:
        out = []
        prev = None
        for row in self.rows:
            if prev is None:
                out.append((None,) * 4)
            else:
                out.append(tuple(rate(a, b) for a, b in zip(prev.errors(), row.errors())))
            prev = row
        return out

    def final_rates(self) -> tuple[Optional[float], ...]:
        return self.rates()[-1]

    def energy_rates(self) -> list[Optional[float]]:
        out, prev = [], None
        for row in self.rows:
            out.append(rate(prev, row.energy))
            prev = row.energy
        return out


def run_convergence_study(config: StudyConfig, progress=None) -> ErrorTable:
    """Solve on ``config.levels`` uniformly refined meshes and tabulate."""
    problem = example(config.example)
    mesh = build_initial_mesh()
    do_std = config.variant in ("standard", "both")
    do_aug = config.variant in ("augmented", "both")
    p = config.p
    table = ErrorTable(p=p)
    solve_kw = dict(k1=config.k1, k2=config.k2, solver_tol=config.solver_tol)

    for level in range(1, config.levels + 1):
        if progress:
            progress(f"level {level}: #T={mesh.n_triangles}")
        check_problem_alignment(problem, mesh, p, config.k1, config.k2)
        row = ErrorRow(level=level, n_triangles=mesh.n_triangles)
        try:
            # the augmented system is solved first, and the standard solve
            # takes its test space: its DOF map, assembler and class QR, and
            # the factor of the augmented system, which has the same skeleton
            # pattern, as its preconditioner.  A level factors once
            sol = sol_aug = u_aug = post = None
            if do_aug:
                sol_aug = assemble_and_solve(mesh, problem, p, config.norm,
                                             variant="augmented", **solve_kw)
                u_aug = sol_aug.u
            if do_std:
                sol = assemble_and_solve(mesh, problem, p, config.norm,
                                         variant="standard", test_space=sol_aug,
                                         **solve_kw)
            sol_aug = None  # its factor is freed before the postprocessing and the errors
            if do_std:
                post = postprocess_u(mesh, problem, sol)
                if config.track_energy:
                    row.energy = sol.energy
            # after both solves, so none of its arrays is allocated between
            # them
            _measure_errors(row, mesh, p, problem.u, u_aug, sol, post)
        except Exception as exc:
            raise type(exc)(f"level {level} (#T={mesh.n_triangles}): {exc}") from exc
        table.rows.append(row)
        # the next level is refined with no solution or field of this one
        # alive, and factored with nothing of this one, its mesh included
        sol = u_aug = post = None
        if level < config.levels:
            mesh = refine_uniform(mesh)
    return table


def _measure_errors(row: ErrorRow, mesh: Mesh, p: int, u, u_aug, sol, post) -> None:
    """Fill the L2 errors of ``row`` from the augmented solve's u ``u_aug``
    and the standard solve ``sol`` of one level (None when not solved),
    evaluating ``u`` once per error rule: that of degree p serves ``err_u``,
    ``err_best`` and the projection behind ``err_proj``, that of degree p+1
    ``err_aug`` and ``err_post``.  Each error equals :func:`l2_error` (and
    the projection :func:`dpglab.spaces.l2_project`) bit for bit."""
    if sol is not None:
        rule = _error_rule(p)
        vals = _exact_values(mesh, rule, u)
        proj = _project_values(mesh, p, rule, vals)
        row.err_u = _l2_distance(mesh, rule, vals, sol.u)
        row.err_proj = float(np.linalg.norm(proj.data - sol.u.data))
        row.err_best = _l2_distance(mesh, rule, vals, proj)
        vals = proj = None  # freed before the next rule's values
    rule = _error_rule(p + 1)
    vals = _exact_values(mesh, rule, u)
    if u_aug is not None:
        row.err_aug = _l2_distance(mesh, rule, vals, u_aug)
    if sol is not None:
        row.err_post = _l2_distance(mesh, rule, vals, post)


def check_problem_alignment(problem: ProblemSpec, mesh: Mesh, p: int,
                            k1: int | None = None, k2: int | None = None) -> None:
    """Guard against quadrature nodes on coefficient jump lines.

    Checks every rule a study level evaluates the coefficients at: the
    volume quadrature of the assembler with test degrees (k1, k2) and that
    of the postprocessing.
    """
    for exactness in sorted({_volume_exactness(*_test_degrees(p, k1, k2)),
                             _postprocess_exactness(p)}):
        if seam_clearance(problem, mesh, triangle_quadrature(exactness)) <= _MIN_CLEARANCE:
            raise ValueError(
                f"quadrature nodes of {problem.name} (exactness {exactness}) "
                "fall on a coefficient jump line")


def emit_table(table: ErrorTable, fmt: str = "csv") -> str:
    if fmt == "csv":
        return _emit_csv(table)
    if fmt == "markdown":
        return _emit_markdown(table)
    raise ValueError(f"unknown output format {fmt!r}")


def _row_cells(table: ErrorTable):
    """The cells of each row of ``table``: p, #T, then every error and its
    rate."""
    for row, rates in zip(table.rows, table.rates()):
        cells = [str(table.p), str(row.n_triangles)]
        for err, rt in zip(row.errors(), rates):
            cells += [fmt_err(err), fmt_rate(rt)]
        yield cells


def _emit_csv(table: ErrorTable) -> str:
    return CSV_HEADER + "\n" + "".join(",".join(cells) + "\n" for cells in _row_cells(table))


def _emit_markdown(table: ErrorTable) -> str:
    head = ["p", "#T", "err_u", "rate", "err_proj", "rate",
            "err_aug", "rate", "err_post", "rate"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "|".join(["---"] * len(head)) + "|"]
    lines += ["| " + " | ".join(cells) + " |" for cells in _row_cells(table)]
    return "\n".join(lines) + "\n"
