"""Acceptance matrix: the convergence-table reproductions and property checks
behind ``dpg-lab verify`` and ``tests/test_acceptance.py``.

Each criterion returns a result with one printable PASS/FAIL line.  Studies
are cached by configuration so overlapping criteria (table reproduction,
best-approximation sandwich, energy-error tracking) share solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dpg_solver import assemble_and_solve, error_function, gram_cholesky
from .forms import ElementAssembler, TestNorm
from .harness import ErrorTable, StudyConfig, run_convergence_study
from .mesh import build_initial_mesh, refine_uniform
from .postprocess import postprocess_u
from .problems import example, zero_data_problem
from .refelem import triangle_quadrature
from .spaces import broken_eval, l2_project, rt_interpolate

# reference convergence data: final-row rates and finest-level errors of the
# four tabulated columns (err_u, err_proj, err_aug, err_post)
REFERENCE = {
    ("ex1", "qopt", 0): dict(levels=7, rates=(1.00, 2.00, 2.00, 2.00),
                             errors=(2.89e-03, 1.81e-05, 2.03e-05, 3.18e-05),
                             energy=True),
    ("ex1", "qopt", 1): dict(levels=6, rates=(2.00, 3.00, 3.00, 3.00),
                             errors=(3.48e-05, 1.62e-07, 2.31e-07, 2.30e-07),
                             energy=True),
    ("ex1", "simple", 2): dict(levels=5, rates=(3.00, 3.99, 3.99, 4.00), energy=False),
    ("ex2", "qopt", 1): dict(levels=6, rates=(2.00, 3.00, 3.00, 3.00), energy=False),
    ("ex2", "simple", 1): dict(levels=6, rates=(2.00, 2.00, 2.00, 1.99), energy=False),
}
RATE_TOL = 0.05
RATE_TOL_NEGATIVE = 0.10
ERROR_RTOL = 0.05
SUPERCONV_FLOOR = 4.9  # ex2/qopt/p=3 superconvergent columns
SANDWICH_TOL = 1e-10
ENERGY_RATE_TOL = 0.15


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.index}: {self.name}"

    def report(self) -> str:
        return "\n".join([self.line()] + [f"  {d}" for d in self.details])


class AcceptanceRunner:
    """Runs the full acceptance matrix with study caching."""

    def __init__(self, progress=None):
        self._tables: dict = {}
        self.progress = progress

    def _say(self, msg: str):
        if self.progress:
            self.progress(msg)

    def study(self, ex: int, norm: str, p: int, levels: int,
              energy: bool = False) -> ErrorTable:
        key = (ex, norm, p, levels, energy)
        if key not in self._tables:
            self._say(f"study: example {ex}, norm {norm}, p={p}, {levels} levels")
            cfg = StudyConfig(example=ex, norm=TestNorm.from_name(norm), p=p,
                              levels=levels, variant="both", track_energy=energy)
            self._tables[key] = run_convergence_study(cfg, progress=self._say)
        return self._tables[key]

    # -- criteria ---------------------------------------------------------
    def criterion_1(self) -> CriterionResult:
        res = CriterionResult(1, "table reproduction, example 1, quasi-optimal norm "
                                 "(p=0 over 7 levels, p=1 over 6)", True)
        for p in (0, 1):
            ref = REFERENCE[("ex1", "qopt", p)]
            table = self.study(1, "qopt", p, ref["levels"], energy=True)
            _check_rates(res, table, ref["rates"], RATE_TOL, f"p={p}")
            _check_errors(res, table, ref["errors"], ERROR_RTOL, f"p={p}")
        return res

    def criterion_2(self) -> CriterionResult:
        res = CriterionResult(2, "table reproduction, example 1, simple (= standard) "
                                 "norm, p=2 over 5 levels", True)
        ref = REFERENCE[("ex1", "simple", 2)]
        table = self.study(1, "simple", 2, ref["levels"])
        _check_rates(res, table, ref["rates"], RATE_TOL, "p=2")
        return res

    def criterion_3(self) -> CriterionResult:
        res = CriterionResult(3, "superconvergence under the quasi-optimal norm with "
                                 "convection (example 2, p=1 and p=3)", True)
        ref = REFERENCE[("ex2", "qopt", 1)]
        table = self.study(2, "qopt", 1, ref["levels"])
        _check_rates(res, table, ref["rates"], RATE_TOL, "p=1")
        t3 = self.study(2, "qopt", 3, 4)
        final = t3.final_rates()
        for label, got in zip(("err_proj", "err_aug", "err_post"), final[1:]):
            ok = got is not None and got >= SUPERCONV_FLOOR
            res.details.append(f"p=3 {label} final rate {_f(got, '.2f')} >= "
                               f"{SUPERCONV_FLOOR} {'ok' if ok else 'VIOLATED'}")
            res.passed &= ok
        return res

    def criterion_4(self) -> CriterionResult:
        res = CriterionResult(4, "no superconvergence under the simple norm with "
                                 "convection (example 2, p=1)", True)
        ref = REFERENCE[("ex2", "simple", 1)]
        table = self.study(2, "simple", 1, ref["levels"])
        _check_rates(res, table, ref["rates"], RATE_TOL_NEGATIVE, "p=1")
        return res

    def criterion_5(self) -> CriterionResult:
        res = CriterionResult(5, "best-approximation sandwich |u - P^p u| <= |u - u_h| "
                                 "at every level of every study", True)
        for (exname, norm, p), ref in REFERENCE.items():
            self.study(int(exname[2]), norm, p, ref["levels"], energy=ref["energy"])
        self.study(2, "qopt", 3, 4)
        worst = -np.inf
        n = 0
        for key, table in sorted(self._tables.items(), key=repr):
            for row in table.rows:
                if row.err_best is None or row.err_u is None:
                    continue
                n += 1
                gap = row.err_best - row.err_u
                worst = max(worst, gap)
                if gap > SANDWICH_TOL:
                    res.passed = False
                    res.details.append(
                        f"violated at {key}, level {row.level}: "
                        f"|u-P^p u|={row.err_best:.6e} > |u-u_h|={row.err_u:.6e}")
        res.details.append(f"{n} rows checked, worst gap {worst:.3e} (tol {SANDWICH_TOL})")
        return res

    def criterion_6(self) -> CriterionResult:
        res = CriterionResult(6, "property suite (zero data, SPD Grams, norm "
                                 "coincidence, commuting diagram, postprocessing mean, "
                                 "orthogonality, consistency)", True)
        checks = [
            _prop_zero_data, _prop_gram_spd, _prop_std_equals_simple,
            _prop_commuting_diagram, _prop_postprocess_mean,
            _prop_galerkin_orthogonality, _prop_consistency_residual,
        ]
        for check in checks:
            ok, msg = check()
            res.details.append(("ok " if ok else "VIOLATED ") + msg)
            res.passed &= ok
        return res

    def criterion_7(self) -> CriterionResult:
        res = CriterionResult(7, "energy-error rate p+1 on example 1, quasi-optimal "
                                 "norm (p=0, p=1)", True)
        for p in (0, 1):
            ref = REFERENCE[("ex1", "qopt", p)]
            table = self.study(1, "qopt", p, ref["levels"], energy=True)
            got = table.energy_rates()[-1]
            ok = got is not None and abs(got - (p + 1)) <= ENERGY_RATE_TOL
            res.details.append(f"p={p}: final |eps|_V rate {_f(got)} vs {p + 1}"
                               f" +-{ENERGY_RATE_TOL} {'ok' if ok else 'VIOLATED'}")
            res.passed &= ok
        return res

    def run_all(self, emit=print) -> list[CriterionResult]:
        results = [self.criterion_1(), self.criterion_2(), self.criterion_3(),
                   self.criterion_4(), self.criterion_5(), self.criterion_6(),
                   self.criterion_7()]
        for r in results:
            emit(r.line())
        return results


def _f(x, spec=".3f"):
    return "n/a" if x is None else format(x, spec)


def _check_rates(res, table, targets, tol, label):
    final = table.final_rates()
    for name, got, want in zip(("err_u", "err_proj", "err_aug", "err_post"),
                               final, targets):
        ok = got is not None and abs(got - want) <= tol
        res.details.append(f"{label} {name} final rate {_f(got)} vs {want:.2f}"
                           f" +-{tol} {'ok' if ok else 'VIOLATED'}")
        res.passed &= ok


def _check_errors(res, table, targets, rtol, label):
    row = table.rows[-1]
    for name, got, want in zip(("err_u", "err_proj", "err_aug", "err_post"),
                               row.errors(), targets):
        ok = got is not None and abs(got - want) <= rtol * want
        res.details.append(f"{label} {name} finest {_f(got, '.3e')} vs {want:.3e}"
                           f" +-{rtol:.0%} {'ok' if ok else 'VIOLATED'}")
        res.passed &= ok


# -- property checks -------------------------------------------------------
def _prop_zero_data():
    mesh = refine_uniform(build_initial_mesh())
    problem = zero_data_problem()
    worst = 0.0
    for kind in TestNorm:
        sol = assemble_and_solve(mesh, problem, p=1, kind=kind)
        worst = max(worst, float(np.abs(sol.x).max()))
    return worst <= 1e-10, f"zero data -> zero solution, max |coef| {worst:.2e}"


def _prop_gram_spd():
    mesh = refine_uniform(build_initial_mesh())
    rng = np.random.default_rng(7)
    ok = True
    for ex in (1, 2):
        problem = example(ex)
        for p in range(4):
            asm = ElementAssembler(mesh, problem.coeffs, p)
            els = rng.choice(mesh.n_triangles, size=8, replace=False)
            for kind in TestNorm:
                ok &= gram_cholesky(asm.gram(kind, els)) is not None
    return ok, "Gram matrices SPD for all three norms, p <= 3, both examples"


def _prop_std_equals_simple():
    mesh = build_initial_mesh()
    problem = example(1)  # C = I, beta = 0, gamma piecewise
    worst = 0.0
    for p in range(3):
        asm = ElementAssembler(mesh, problem.coeffs, p)
        Gs = asm.gram(TestNorm.STANDARD)
        Gq = asm.gram(TestNorm.SIMPLE)
        worst = max(worst, float(np.abs(Gs - Gq).max() / np.abs(Gs).max()))
    return worst <= 1e-13, f"standard == simple Gram at C=I, rel diff {worst:.2e}"


def _smooth_fields(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=5)
    b = rng.uniform(-1, 1, size=5)

    def tau(x):
        sx, sy = np.sin(np.pi * x[:, 0]), np.sin(np.pi * x[:, 1])
        cx, cy = np.cos(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
        return np.column_stack([
            a[0] + a[1] * x[:, 0] + a[2] * x[:, 1] + a[3] * sx * sy + a[4] * x[:, 0] * x[:, 1],
            b[0] + b[1] * x[:, 0] + b[2] * x[:, 1] + b[3] * cx * cy + b[4] * x[:, 0] * x[:, 1],
        ])

    def div_tau(x):
        cx, sy = np.cos(np.pi * x[:, 0]), np.sin(np.pi * x[:, 1])
        sx, cy = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
        return (a[1] + a[3] * np.pi * cx * sy + a[4] * x[:, 1]
                + b[2] - b[3] * np.pi * cx * sy + b[4] * x[:, 0])

    return tau, div_tau


def _prop_commuting_diagram():
    # the identity holds up to the accuracy of the computed moments, so the
    # check integrates the sin-type fields with elevated exactness
    mesh = build_initial_mesh()
    worst = 0.0
    for p in range(4):
        rule = triangle_quadrature(2 * p + 8)
        for trial in range(10):
            tau, div_tau = _smooth_fields(100 * p + trial)
            interp = rt_interpolate(mesh, p, tau, exactness=2 * p + 20)
            proj = l2_project(mesh, p, div_tau, exactness=2 * p + 20)
            diff = interp.div(rule.points) - broken_eval(proj, rule.points)
            err2 = np.einsum("q,eq,e->", rule.weights, diff * diff, mesh.dets)
            worst = max(worst, float(np.sqrt(err2)))
    return worst <= 1e-10, f"commuting diagram |div P_div tau - P^p div tau| {worst:.2e}"


def _prop_postprocess_mean():
    mesh = refine_uniform(build_initial_mesh())
    problem = example(1)
    worst = 0.0
    for p in (0, 1):
        sol = assemble_and_solve(mesh, problem, p, TestNorm.QUASI_OPTIMAL)
        post = postprocess_u(mesh, problem, sol)
        # orthonormal bases: element means are the first coefficients
        gap = np.abs(post.by_element()[:, 0] - sol.u.by_element()[:, 0])
        worst = max(worst, float(gap.max()))
    return worst <= 1e-12, f"postprocessing mean preservation, max gap {worst:.2e}"


def _prop_galerkin_orthogonality():
    mesh = refine_uniform(build_initial_mesh())
    worst = 0.0
    for ex in (1, 2):
        problem = example(ex)
        sol = assemble_and_solve(mesh, problem, p=1, kind=TestNorm.QUASI_OPTIMAL)
        ee = error_function(mesh, problem, sol)
        worst = max(worst, float(np.abs(ee.orth_residual).max() / ee.rhs_norm))
    return worst <= 1e-9, f"Galerkin orthogonality of the error function, rel {worst:.2e}"


def _prop_consistency_residual():
    # elevated quadrature so data-integration error cannot mask a form error
    mesh = build_initial_mesh()
    worst = 0.0
    for ex in (1, 2):
        problem = example(ex)
        for p in (0, 1, 2):
            asm = ElementAssembler(mesh, problem.coeffs, p,
                                   volume_exactness=2 * p + 24,
                                   edge_exactness=2 * p + 24)
            R = asm.residual_of_fields(problem.u, problem.sigma, problem.f, problem.fvec)
            F = asm.loads(problem.f, problem.fvec)
            scale = max(float(np.abs(F).max()), 1.0)
            worst = max(worst, float(np.abs(R).max() / scale))
    return worst <= 1e-9, f"ultra-weak consistency of the exact solution, rel {worst:.2e}"
