import numpy as np
import pytest

from dpglab.cli import main
from dpglab.forms import TestNorm
from dpglab.harness import (CSV_HEADER, ErrorRow, ErrorTable, StudyConfig,
                            check_problem_alignment, emit_table, l2_error,
                            rate, run_convergence_study)
from dpglab.mesh import build_initial_mesh
from dpglab.problems import example
from dpglab.spaces import CoefficientVector, l2_project


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


def test_emit_rejects_unknown_format(cheap_table):
    with pytest.raises(ValueError, match="unknown output format 'pdf'"):
        emit_table(cheap_table, "pdf")


def test_problem_alignment_guard(initial):
    for ex in (1, 2):
        check_problem_alignment(example(ex), initial, p=2)


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
