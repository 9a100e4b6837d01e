"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Studies are shared across criteria through a
session-scoped runner, so the expensive level sweeps execute once.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
the same matrix backs ``dpg-lab verify``.
"""

import dataclasses

import numpy as np
import pytest

from dpglab import acceptance
from dpglab.acceptance import AcceptanceRunner
from dpglab.problems import example


@pytest.fixture(scope="module")
def runner():
    return AcceptanceRunner()


def _finish(result):
    print()
    print(result.line())
    assert result.passed, result.report()


def test_criterion_1_table_example1_quasioptimal(runner):
    _finish(runner.criterion_1())


def test_criterion_2_table_example1_simple(runner):
    _finish(runner.criterion_2())


def test_criterion_3_superconvergence_with_convection(runner):
    _finish(runner.criterion_3())


def test_criterion_4_no_superconvergence_simple_norm(runner):
    _finish(runner.criterion_4())


def test_criterion_5_best_approximation_sandwich(runner):
    _finish(runner.criterion_5())


def test_criterion_6_property_suite(runner):
    _finish(runner.criterion_6())


def test_criterion_7_energy_error_rates(runner):
    _finish(runner.criterion_7())


def test_gram_spd_check_rejects_nan_coefficients(monkeypatch):
    # OpenBLAS factors a Gram matrix with NaN entries without raising; the
    # check must still fail when C is NaN on {x >= 1/2}
    def nan_right_half(ex):
        problem = example(ex)
        C = problem.coeffs.matrix

        def matrix(x):
            return np.where((x[:, 0] >= 0.5)[:, None, None], np.nan, C(x))

        return dataclasses.replace(problem, coeffs=dataclasses.replace(
            problem.coeffs, matrix=matrix))

    monkeypatch.setattr(acceptance, "example", nan_right_half)
    ok, msg = acceptance._prop_gram_spd()
    assert not ok, msg
