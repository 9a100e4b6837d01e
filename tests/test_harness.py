import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from dpglab import dpg_solver, harness, postprocess
from dpglab.cli import main
from dpglab.dpg_solver import assemble_and_solve
from dpglab.forms import ElementAssembler, TestNorm
from dpglab.harness import (CSV_HEADER, ErrorRow, ErrorTable, StudyConfig,
                            check_problem_alignment, emit_table, l2_error,
                            rate, run_convergence_study)
from dpglab.mesh import Mesh, build_initial_mesh, refine_uniform
from dpglab.postprocess import postprocess_u
from dpglab.problems import example
from dpglab.spaces import CoefficientVector, build_dofmap, l2_project


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


@pytest.fixture(scope="module")
def cheap_table():
    cfg = StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=3)
    return run_convergence_study(cfg)


def test_l2_error_of_zero(initial):
    prob = example(1)
    zero = CoefficientVector(np.zeros(initial.n_triangles), initial, 0)
    assert l2_error(initial, zero, prob.u) == pytest.approx(0.5, abs=1e-10)


def test_l2_error_exact_polynomial(initial):
    def f(x):
        return 2.0 * x[:, 0] - x[:, 1] + 0.25

    cv = l2_project(initial, 1, f)
    assert l2_error(initial, cv, f) < 1e-12


def test_l2_error_projection_optimality(initial):
    prob = example(1)
    cv = l2_project(initial, 1, prob.u)
    base = l2_error(initial, cv, prob.u)
    rng = np.random.default_rng(9)
    for _ in range(5):
        perturbed = CoefficientVector(
            cv.data + 1e-3 * rng.standard_normal(cv.data.size), initial, 1)
        assert base <= l2_error(initial, perturbed, prob.u)


def test_l2_error_rejects_field_of_other_mesh(initial):
    def f(x):
        return x[:, 0] + 2.0 * x[:, 1] ** 2

    mesh = refine_uniform(initial)
    cv = l2_project(mesh, 2, f)
    assert l2_error(mesh, cv, f) < 1e-12
    # the same mesh rotated by 90 degrees about (1/2, 1/2): same sizes, other
    # points, so the field's coefficients do not belong to it
    rotated = Mesh(np.column_stack([1.0 - mesh.vertices[:, 1], mesh.vertices[:, 0]]),
                   mesh.triangles)
    for other in (rotated, refine_uniform(mesh)):
        with pytest.raises(ValueError, match="l2_error needs the mesh the field lives on"):
            l2_error(other, cv, f)


def test_rate_convention():
    assert rate(1.94e-01, 9.37e-02) == pytest.approx(1.05, abs=5e-3)
    assert rate(3.0, 3.0) == 0.0
    assert rate(4.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert rate(0.0, 1.0) is None
    assert rate(None, 1.0) is None


def test_emit_empty_and_single_row():
    table = ErrorTable(p=1)
    assert emit_table(table, "csv") == CSV_HEADER + "\n"
    table.rows.append(ErrorRow(level=1, n_triangles=16, err_u=1.94e-01,
                               err_proj=7.41e-02, err_aug=8.37e-02,
                               err_post=1.23e-01))
    lines = emit_table(table, "csv").strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == "1,16,1.94e-01,---,7.41e-02,---,8.37e-02,---,1.23e-01,---"


def test_markdown_emission(cheap_table):
    md = emit_table(cheap_table, "markdown")
    lines = md.strip().splitlines()
    assert lines[0].startswith("| p | #T |")
    assert len(lines) == 2 + len(cheap_table.rows)


def test_monotone_decay_and_sandwich(cheap_table):
    rows = cheap_table.rows
    for a, b in zip(rows, rows[1:]):
        for ea, eb in zip(a.errors(), b.errors()):
            assert eb < ea
        # triangle ordering from the two-sided best-approximation bound
        assert b.err_u <= b.err_proj + a.err_u
    for row in rows:
        # Pythagoras: distance to the projection is below the total error
        assert row.err_proj <= row.err_u
        # best-approximation lower bound
        assert row.err_best <= row.err_u + 1e-10


def test_p2_norm_discrimination_with_convection():
    """With convection, the projection-distance column superconverges under
    the quasi-optimal norm (rate -> p+2) and does not under the simple norm
    (rate stays at p+1)."""
    final = {}
    for norm in (TestNorm.QUASI_OPTIMAL, TestNorm.SIMPLE):
        cfg = StudyConfig(example=2, norm=norm, p=2, levels=4, variant="standard")
        table = run_convergence_study(cfg)
        final[norm] = table.final_rates()[1]
    assert final[TestNorm.QUASI_OPTIMAL] == pytest.approx(4.0, abs=0.1)
    assert final[TestNorm.SIMPLE] == pytest.approx(3.0, abs=0.1)


def test_table_counts_quadruple(cheap_table):
    counts = [row.n_triangles for row in cheap_table.rows]
    assert counts == [16, 64, 256]


def test_study_determinism():
    cfg = StudyConfig(example=2, norm=TestNorm.QUASI_OPTIMAL, p=0, levels=2)
    a = emit_table(run_convergence_study(cfg), "csv")
    b = emit_table(run_convergence_study(cfg), "csv")
    assert a.encode() == b.encode()


def test_variant_standard_only():
    cfg = StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=2,
                      variant="standard")
    table = run_convergence_study(cfg)
    assert all(row.err_aug is None for row in table.rows)
    assert all(row.err_u is not None for row in table.rows)
    text = emit_table(table, "csv")
    assert ",---,---," in text  # augmented columns rendered as missing


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=1)
    with pytest.raises(ValueError):
        StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=2, variant="x")
    cfg = StudyConfig(example=1, norm="qopt", p=0, levels=2)
    assert cfg.norm is TestNorm.QUASI_OPTIMAL


def test_config_rejects_energy_without_standard_solve():
    # the energy estimator is the error function of the standard solve; an
    # augmented-only study has none, and used to return energy None per row
    with pytest.raises(ValueError, match="track_energy needs the standard solve"):
        StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=0, levels=2,
                    variant="augmented", track_energy=True)
    for variant in ("standard", "both"):
        StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=0, levels=2,
                    variant=variant, track_energy=True)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_config_rejects_solver_tol(tol):
    with pytest.raises(ValueError, match="solver tolerance must be finite"):
        StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=2, solver_tol=tol)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_test_degrees_below_the_trial_degrees_raise(initial, p):
    # k1 >= p + 1 and k2 >= pu + 1, pu the degree of u, solve about as well
    # as the default degrees p + 2; below that the system can be singular
    # with a tiny backward error (err_u 1e15 at p = 1, k2 = 1), so the solve
    # and a study that would make it raise
    mesh = refine_uniform(initial)
    prob = example(1)
    for variant, pu in (("standard", p), ("augmented", p + 1)):
        default = l2_error(mesh, assemble_and_solve(mesh, prob, p, variant=variant).u, prob.u)
        for k1, k2 in itertools.product(range(1, p + 3), repeat=2):
            kw = dict(variant=variant, k1=k1, k2=k2)
            if k1 >= p + 1 and k2 >= pu + 1:
                sol = assemble_and_solve(mesh, prob, p, **kw)
                assert l2_error(mesh, sol.u, prob.u) <= 3 * default
                StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=p, levels=2, **kw)
                continue
            low = rf"test degrees \(k1, k2\) = \({k1}, {k2}\) are too low"
            match = (rf"{low} for trial degrees \(p, pu\) = \({p}, {pu}\); "
                     rf"need k1 >= {p + 1} and k2 >= {pu + 1}")
            with pytest.raises(ValueError, match=match):
                assemble_and_solve(mesh, prob, p, **kw)
            with pytest.raises(ValueError, match=match):
                StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=p, levels=2, **kw)
            with pytest.raises(ValueError, match=low):
                StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=p, levels=2,
                            **{**kw, "variant": "both"})


def test_emit_rejects_unknown_format(cheap_table):
    with pytest.raises(ValueError, match="unknown output format 'pdf'"):
        emit_table(cheap_table, "pdf")


def test_problem_alignment_guard(initial):
    for ex in (1, 2):
        check_problem_alignment(example(ex), initial, p=2)


def test_alignment_guard_checks_the_rules_the_level_evaluates(initial, monkeypatch):
    # the guard checks the volume rules of the assembler and of the
    # postprocessing, the only points where a level evaluates coefficients
    checked, used = [], []
    monkeypatch.setattr(harness, "seam_clearance",
                        lambda problem, mesh, rule: checked.append(rule) or np.inf)
    quadrature = postprocess.triangle_quadrature
    monkeypatch.setattr(postprocess, "triangle_quadrature",
                        lambda ex: used.append(ex) or quadrature(ex))
    prob = example(1)
    for p, k1, k2 in [(0, None, None), (1, None, None), (2, None, None),
                      (3, None, None), (1, 5, 2)]:
        checked.clear()
        used.clear()
        check_problem_alignment(prob, initial, p, k1, k2)
        sol = assemble_and_solve(initial, prob, p, k1=k1, k2=k2)
        postprocess_u(initial, prob, sol)
        rule = sol.assembler.rule
        assert sorted(r.exactness for r in checked) == sorted({rule.exactness, *used})
        assert any(np.array_equal(r.points, rule.points) for r in checked)

    # a study passes its test degrees to the guard, and a jump line on the
    # assembly points raises
    checked.clear()
    cfg = StudyConfig(example=1, norm=TestNorm.SIMPLE, p=0, levels=2,
                      variant="standard", k1=4)
    run_convergence_study(cfg)
    assembly = ElementAssembler(initial, prob.coeffs, 0, k1=4).rule.exactness
    assert sorted(r.exactness for r in checked) == sorted(
        [assembly, postprocess._postprocess_exactness(0)] * 2)
    monkeypatch.setattr(harness, "seam_clearance",
                        lambda problem, mesh, rule: 0.0 if rule.exactness == assembly else 1.0)
    with pytest.raises(ValueError, match=f"exactness {assembly}\\) fall on a coefficient"):
        run_convergence_study(cfg)


def test_study_level_builds_one_test_space(monkeypatch):
    # with both variants and the energy error, a level builds the class key
    # and the DOF map once and evaluates F once per element, and solves
    # exactly twice through harness.assemble_and_solve, where the benchmark
    # checks every solve's backward error.  B and G are evaluated in one
    # sweep: gram and b_matrices each return one matrix per element per
    # level, the standard solve shares the augmented solve's DOF map, and
    # the energy error is the standard solve's estimator, with no
    # error_function
    levels, keys, builds, loads, residuals, rows, dofmaps = [], {}, {}, {}, {}, {}, {}
    element_classes = ElementAssembler._element_classes
    element_loads = ElementAssembler.loads
    solve = harness.assemble_and_solve
    dofmap = dpg_solver.build_dofmap

    def counting(name):
        method = getattr(ElementAssembler, name)

        def counted(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            count = rows.setdefault(levels[-1], {"gram": 0, "b_matrices": 0})
            count[name] += len(out)
            return out
        return counted

    def no_error_function(*args, **kwargs):
        raise AssertionError("the study called error_function")

    def counting_classes(self):
        keys[levels[-1]] = keys.get(levels[-1], 0) + 1
        return element_classes(self)

    def counting_loads(self, f, fvec, elements=None):
        count = loads.setdefault(levels[-1], np.zeros(self.mesh.n_triangles, dtype=int))
        np.add.at(count, np.arange(len(count)) if elements is None else elements, 1)
        return element_loads(self, f, fvec, elements)

    def recording_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        residuals.setdefault(levels[-1], []).append(sol.residual)
        dofmaps.setdefault(levels[-1], []).append(sol.dofmap)
        return sol

    def counting_dofmap(*args):
        builds[levels[-1]] = builds.get(levels[-1], 0) + 1
        return dofmap(*args)

    monkeypatch.setattr(dpg_solver, "build_dofmap", counting_dofmap)
    monkeypatch.setattr(ElementAssembler, "_element_classes", counting_classes)
    monkeypatch.setattr(ElementAssembler, "loads", counting_loads)
    monkeypatch.setattr(harness, "assemble_and_solve", recording_solve)
    for name in ("gram", "b_matrices"):
        monkeypatch.setattr(ElementAssembler, name, counting(name))
    monkeypatch.setattr(dpg_solver, "error_function", no_error_function)
    monkeypatch.setattr(harness, "error_function", no_error_function, raising=False)
    cfg = StudyConfig(example=1, norm=TestNorm.QUASI_OPTIMAL, p=0, levels=2,
                      variant="both", track_energy=True)
    table = run_convergence_study(cfg, progress=lambda _: levels.append(len(levels) + 1))
    assert all(None not in (row.err_aug, row.err_post, row.energy) for row in table.rows)
    assert rows == {1: {"gram": 16, "b_matrices": 16}, 2: {"gram": 64, "b_matrices": 64}}
    assert keys == builds == {1: 1, 2: 1}
    assert all(aug is std for aug, std in dofmaps.values())
    assert [len(c) for c in loads.values()] == [16, 64]
    assert all((c == 1).all() for c in loads.values())
    assert [len(r) for r in residuals.values()] == [2, 2]
    assert all(r <= cfg.solver_tol for rs in residuals.values() for r in rs)


def _study_trace(cfg, monkeypatch):
    """Run ``cfg`` and return its table, the variant of the solve and the
    DOF count of every factorization per level, the skeleton DOF count of
    every level, and for every factorization whether any Solution, field or
    mesh of an earlier level was still alive."""
    levels, ndofs, totals, stale, variant = [], {}, {}, [], []
    alive = {}  # level -> weakrefs of its Solutions, fields and meshes
    factor, solve = dpg_solver._factor, harness.assemble_and_solve
    project, post, error = harness.l2_project, harness.postprocess_u, harness.l2_error

    def keep(obj):
        alive.setdefault(levels[-1], []).append(weakref.ref(obj))
        return obj

    def recording_factor(A):
        ndofs.setdefault(levels[-1], []).append((variant[-1], A.shape[0]))
        stale.append([level for level, refs in alive.items()
                      if level < levels[-1] and any(r() is not None for r in refs)])
        return factor(A)

    def recording_solve(mesh, problem, p, *args, **kwargs):
        keep(mesh)
        variant.append(kwargs["variant"])
        totals[levels[-1]] = build_dofmap(mesh, p).total
        return keep(solve(mesh, problem, p, *args, **kwargs))

    def recording_error(mesh, approx, exact):
        keep(approx)
        return error(mesh, approx, exact)

    monkeypatch.setattr(dpg_solver, "_factor", recording_factor)
    monkeypatch.setattr(harness, "assemble_and_solve", recording_solve)
    monkeypatch.setattr(harness, "l2_project", lambda *a: keep(project(*a)))
    monkeypatch.setattr(harness, "postprocess_u", lambda *a: keep(post(*a)))
    monkeypatch.setattr(harness, "l2_error", recording_error)
    table = run_convergence_study(cfg, progress=lambda _: levels.append(len(levels) + 1))
    monkeypatch.undo()
    return table, ndofs, totals, stale


@pytest.mark.parametrize("ex, norm, p", [(1, TestNorm.QUASI_OPTIMAL, 0),
                                         (2, TestNorm.SIMPLE, 1)])
def test_study_factors_augmented_first_one_level_alive(ex, norm, p, monkeypatch):
    # a level with both variants factors the augmented system first, both
    # systems have the skeleton DOFs (both variants eliminate their
    # element-local fields per class), and no Solution, field or mesh of a
    # level is alive when the next level factors: anything a level kept
    # would leave its heap pages resident under the next factor.  The rows
    # are bitwise those of separate standard and augmented studies
    kw = dict(example=ex, norm=norm, p=p, levels=3)
    both, ndofs, totals, stale = _study_trace(
        StudyConfig(variant="both", track_energy=True, **kw), monkeypatch)
    assert list(ndofs) == [1, 2, 3]
    assert ndofs == {level: [("augmented", n), ("standard", n)]
                     for level, n in totals.items()}
    assert stale == [[]] * 6
    std, std_ndofs, _, std_stale = _study_trace(
        StudyConfig(variant="standard", track_energy=True, **kw), monkeypatch)
    aug, aug_ndofs, _, aug_stale = _study_trace(
        StudyConfig(variant="augmented", **kw), monkeypatch)
    assert std_ndofs == {level: [n[1]] for level, n in ndofs.items()}
    assert aug_ndofs == {level: [n[0]] for level, n in ndofs.items()}
    assert std_stale == aug_stale == [[]] * 3
    for row, s, a in zip(both.rows, std.rows, aug.rows):
        assert row == dataclasses.replace(s, err_aug=a.err_aug)
        assert None not in (row.err_u, row.err_aug, row.energy)


def test_cli_study_stdout(capsys):
    code = main(["study", "--example", "1", "--norm", "simple", "--p", "0",
                 "--levels", "2", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().splitlines()) == 3


def test_cli_study_to_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["study", "--example", "2", "--norm", "qopt", "--p", "0",
                 "--levels", "2", "--quiet", "--out", str(out),
                 "--format", "markdown"])
    assert code == 0
    capsys.readouterr()
    assert out.read_text().startswith("| p | #T |")


def _no_study(*args, **kwargs):
    raise AssertionError("the study ran")


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_cli_rejects_solver_tol(tol, monkeypatch, capsys):
    from dpglab import cli

    monkeypatch.setattr(cli, "run_convergence_study", _no_study)
    code = main(["study", "--example", "1", "--norm", "qopt", "--p", "0",
                 "--levels", "2", "--quiet", "--solver-tol", tol])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "dpg-lab: error: solver tolerance must be finite and positive")


def test_cli_rejects_low_test_degrees(monkeypatch, capsys):
    from dpglab import cli

    monkeypatch.setattr(cli, "run_convergence_study", _no_study)
    code = main(["study", "--example", "1", "--norm", "qopt", "--p", "1",
                 "--levels", "2", "--quiet", "--k2", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "dpg-lab: error: test degrees (k1, k2) = (3, 1) are too low")


def test_cli_study_to_missing_directory(tmp_path, monkeypatch, capsys):
    # the output path is opened before the first level
    from dpglab import cli

    monkeypatch.setattr(cli, "run_convergence_study", _no_study)
    out = tmp_path / "missing" / "table.csv"
    code = main(["study", "--example", "1", "--norm", "qopt", "--p", "0",
                 "--levels", "2", "--quiet", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dpg-lab: error: cannot write the table to {out}: ")
    assert not out.parent.exists()


def test_cli_rejects_bad_levels(capsys):
    code = main(["study", "--example", "1", "--norm", "qopt", "--p", "0",
                 "--levels", "1", "--quiet"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify_exit_codes(monkeypatch, capsys):
    # exercise the verify plumbing with a stub; the real matrix runs in
    # tests/test_acceptance.py
    from dpglab import cli
    from dpglab.acceptance import CriterionResult

    class StubRunner:
        def __init__(self, passed):
            self.passed = passed

        def run_all(self, emit=print):
            result = CriterionResult(1, "stub", self.passed)
            emit(result.line())
            return [result]

    monkeypatch.setattr(cli, "AcceptanceRunner",
                        lambda progress=None: StubRunner(True))
    assert cli.main(["verify", "--quiet"]) == 0
    assert "PASS criterion 1" in capsys.readouterr().out

    monkeypatch.setattr(cli, "AcceptanceRunner",
                        lambda progress=None: StubRunner(False))
    assert cli.main(["verify", "--quiet", "--details"]) == 1
    assert "FAIL criterion 1" in capsys.readouterr().out
