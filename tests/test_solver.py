import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpglab.dpg_solver import (SolverError, _factor_equilibrated, _solve_spd,
                               assemble_and_solve, assemble_global,
                               condense_element, error_function)
from dpglab.forms import ElementAssembler, ElementSystem, TestNorm
from dpglab.harness import l2_error
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.problems import example, zero_data_problem
from dpglab.spaces import build_dofmap, l2_project


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def test_condense_zero_load():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((18, 9))
    G = np.eye(18)
    S, r = condense_element(ElementSystem(B=B, G=G, F=np.zeros(18)))
    assert np.abs(r).max() == 0.0
    assert np.allclose(S, B.T @ B, atol=1e-13)


def test_condense_orthonormal_columns():
    B = np.eye(18)[:, :9]
    S, r = condense_element(ElementSystem(B=B, G=np.eye(18), F=np.ones(18)))
    assert np.allclose(S, np.eye(9), atol=1e-14)
    assert np.allclose(r, B.T @ np.ones(18))


def test_condense_against_dense_inverse():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((18, 9))
    Q, _ = np.linalg.qr(rng.standard_normal((18, 18)))
    G = Q @ np.diag(rng.uniform(0.5, 2.0, 18)) @ Q.T
    F = rng.standard_normal(18)
    S, r = condense_element(ElementSystem(B=B, G=G, F=F))
    Ginv = np.linalg.inv(G)
    assert np.abs(S - B.T @ Ginv @ B).max() < 1e-10
    assert np.abs(r - B.T @ Ginv @ F).max() < 1e-10
    assert np.abs(S - S.T).max() == 0.0  # symmetrized exactly


def test_condense_rejects_indefinite_gram():
    B = np.eye(4)[:, :2]
    G = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(SolverError):
        condense_element(ElementSystem(B=B, G=G, F=np.zeros(4)))


@pytest.mark.parametrize("kind", list(TestNorm))
def test_zero_data_gives_zero_solution(initial, kind):
    mesh = refine_uniform(initial)
    sol = assemble_and_solve(mesh, zero_data_problem(), p=1, kind=kind)
    assert np.abs(sol.x).max() <= 1e-10


def test_global_matrix_symmetric_positive_definite(initial):
    prob = example(1)
    dm = build_dofmap(initial, 0)
    asm = ElementAssembler(initial, prob.coeffs, 0)
    A, b = assemble_global(initial, dm, asm, TestNorm.QUASI_OPTIMAL,
                           prob.f, prob.fvec)
    dense = A.toarray()
    assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()
    np.linalg.cholesky(dense)  # raises if not SPD


def test_solution_fields_and_bc(initial):
    prob = example(2)
    sol = assemble_and_solve(initial, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)
    dm = sol.dofmap
    assert sol.u.data.size == dm.n_u
    assert sol.sigma.shape == (initial.n_triangles, 2, 3)
    assert sol.uhat.size == dm.n_uhat
    assert sol.sighat.size == dm.n_sighat
    assert np.all(np.isfinite(sol.x))
    # boundary uhat DOFs are structurally absent: gathered local vector
    # carries zeros on boundary trace columns
    loc = sol.local_trial()
    g = dm.gather
    assert np.all(loc[g == -1] == 0.0)


def test_determinism_bitwise(initial):
    prob = example(1)
    mesh = refine_uniform(initial)
    a = assemble_and_solve(mesh, prob, p=0, kind=TestNorm.SIMPLE)
    b = assemble_and_solve(mesh, prob, p=0, kind=TestNorm.SIMPLE)
    assert np.array_equal(a.x, b.x)


def test_spot_value_example1_qopt_p0(initial):
    prob = example(1)
    sol = assemble_and_solve(initial, prob, p=0, kind=TestNorm.QUASI_OPTIMAL)
    err = l2_error(initial, sol.u, prob.u)
    assert err == pytest.approx(1.94e-01, rel=0.05)


def test_spot_value_example2_simple_p1(initial):
    prob = example(2)
    sol = assemble_and_solve(initial, prob, p=1, kind=TestNorm.SIMPLE)
    err = l2_error(initial, sol.u, prob.u)
    assert err == pytest.approx(6.23e-02, rel=0.05)


def test_error_function_zero_data(initial):
    prob = zero_data_problem()
    sol = assemble_and_solve(initial, prob, p=0, kind=TestNorm.QUASI_OPTIMAL)
    ee = error_function(initial, prob, sol)
    assert ee.total <= 1e-10
    assert ee.element_norms.min() >= 0.0


def test_galerkin_orthogonality(initial):
    mesh = refine_uniform(initial)
    for ex in (1, 2):
        prob = example(ex)
        sol = assemble_and_solve(mesh, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)
        ee = error_function(mesh, prob, sol)
        assert np.abs(ee.orth_residual).max() <= 1e-9 * ee.rhs_norm
        assert abs(ee.total ** 2 - (ee.element_norms ** 2).sum()) \
            <= 1e-12 * ee.total ** 2


def test_energy_error_tracks_total_error(initial):
    # |eps|_V decreases at the same first-order rate as the total error
    prob = example(1)
    mesh = initial
    totals = []
    for _ in range(3):
        sol = assemble_and_solve(mesh, prob, p=0, kind=TestNorm.QUASI_OPTIMAL)
        totals.append(error_function(mesh, prob, sol).total)
        mesh = refine_uniform(mesh)
    rates = np.log2(np.array(totals[:-1]) / np.array(totals[1:]))
    assert np.all(np.abs(rates - 1.0) < 0.2)


def test_best_approximation_sandwich(initial):
    mesh = initial
    for ex in (1, 2):
        prob = example(ex)
        m = mesh
        for _ in range(2):
            for kind in TestNorm:
                sol = assemble_and_solve(m, prob, p=0, kind=kind)
                err_u = l2_error(m, sol.u, prob.u)
                best = l2_error(m, l2_project(m, 0, prob.u), prob.u)
                assert best <= err_u + 1e-10
            m = refine_uniform(m)


def test_uncertified_solve_raises_with_backward_error(initial):
    # no backward error reaches 0: all three refinement steps run, then raise
    with pytest.raises(SolverError, match=r"backward error .* > tolerance "
                       r"0\.000e\+00 after 3 refinement steps"):
        assemble_and_solve(initial, example(1), p=0, solver_tol=0.0)


def test_singular_matrix_raises_instead_of_fallback():
    # symmetric, positive diagonal, rank 2: the last pivot is exactly zero
    A = sp.csc_matrix(np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0]]))
    with pytest.raises(SolverError, match="3x3 condensed system failed: "
                       "Factor is exactly singular"):
        _solve_spd(A, np.ones(3), 1e-12)


def test_solve_spd_certifies_badly_scaled_matrix():
    # unit-diagonal SPD tridiagonal matrix, rescaled so that diag(A) spans
    # 1e-8 ... 1e8; Jacobi equilibration must undo the scaling exactly
    n = 200
    M = sp.diags([np.full(n - 1, -0.45), np.ones(n), np.full(n - 1, -0.45)],
                 [-1, 0, 1])
    r = sp.diags(np.logspace(-4, 4, n))
    A = (r @ M @ r).tocsc()
    b = np.random.default_rng(2).standard_normal(n)
    x, res = _solve_spd(A, b, 1e-12)
    assert res <= 1e-12
    ref = spla.spsolve(A, b)
    assert np.linalg.norm(r @ (x - ref)) <= 1e-10 * np.linalg.norm(r @ ref)


def test_factor_fill_stays_small(initial):
    # minimum-degree ordering in symmetric mode gives L+U fill of 1.40 nnz(A)
    # on ex1/simple p2 level 3; SuperLU's COLAMD default gives 5.75
    mesh = refine_uniform(refine_uniform(initial))
    prob = example(1)
    dm = build_dofmap(mesh, 2)
    asm = ElementAssembler(mesh, prob.coeffs, 2)
    A, _ = assemble_global(mesh, dm, asm, TestNorm.SIMPLE, prob.f, prob.fvec)
    _, lu = _factor_equilibrated(A)
    assert lu.L.nnz + lu.U.nnz <= 2.5 * A.nnz
