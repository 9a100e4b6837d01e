import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpglab import dpg_solver
from dpglab.dpg_solver import (Solution, SolverError, _condense_batch,
                               _factor_equilibrated, _solve_spd, assemble_and_solve,
                               assemble_global, error_function)
from dpglab.forms import Coefficients, ElementAssembler, TestNorm
from dpglab.harness import l2_error
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.problems import example, zero_data_problem
from dpglab.spaces import build_dofmap, l2_project


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def _condense_one(B, G, F):
    """Schur data (S, r) of one element through the batched routine."""
    Y, y, inv = _condense_batch(B[None], G[None], F[None], np.array([0]),
                                np.array([0]))
    assert inv.tolist() == [0]
    return Y[0].T @ Y[0], Y[0].T @ y[0]


def test_condense_zero_load():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((18, 9))
    S, r = _condense_one(B, np.eye(18), np.zeros(18))
    assert np.abs(r).max() == 0.0
    assert np.allclose(S, B.T @ B, atol=1e-13)


def test_condense_orthonormal_columns():
    B = np.eye(18)[:, :9]
    S, r = _condense_one(B, np.eye(18), np.ones(18))
    assert np.allclose(S, np.eye(9), atol=1e-14)
    assert np.allclose(r, B.T @ np.ones(18))


def test_condense_against_dense_inverse():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((18, 9))
    Q, _ = np.linalg.qr(rng.standard_normal((18, 18)))
    G = Q @ np.diag(rng.uniform(0.5, 2.0, 18)) @ Q.T
    F = rng.standard_normal(18)
    S, r = _condense_one(B, G, F)
    Ginv = np.linalg.inv(G)
    assert np.abs(S - B.T @ Ginv @ B).max() < 1e-10
    assert np.abs(r - B.T @ Ginv @ F).max() < 1e-10
    # the batched product assemble_global uses is symmetric exactly
    Y, _, _ = _condense_batch(B[None], G[None], F[None], np.array([0]), np.array([0]))
    S = np.swapaxes(Y, 1, 2) @ Y
    assert np.abs(S - np.swapaxes(S, 1, 2)).max() == 0.0


def test_condense_rejects_indefinite_gram():
    B = np.eye(4)[:, :2]
    G = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(SolverError, match="element 0 is not SPD"):
        _condense_one(B, G, np.zeros(4))
    # a NaN Gram entry factors without a LinAlgError; the lowest element of
    # the failing class is named, not an element of a class that factors
    Gs = np.stack([np.eye(4), np.eye(4), np.eye(4), np.eye(4)])
    Gs[[1, 3], 2, 2] = np.nan
    with pytest.raises(SolverError, match="element 7 is not SPD"):
        _condense_batch(np.stack([B] * 4), Gs, np.zeros((4, 4)),
                        np.array([9, 8, 3, 7]), np.array([5, 2, 5, 2]))


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
    # minimum-degree ordering in symmetric mode gives L+U fill of 1.36 nnz(A)
    # on ex1/simple p2 level 3; SuperLU's COLAMD default gives 5.75
    mesh = refine_uniform(refine_uniform(initial))
    prob = example(1)
    dm = build_dofmap(mesh, 2)
    asm = ElementAssembler(mesh, prob.coeffs, 2)
    A, _ = assemble_global(mesh, dm, asm, TestNorm.SIMPLE, prob.f, prob.fvec)
    _, lu = _factor_equilibrated(A)
    assert lu.L.nnz + lu.U.nnz <= 2.5 * A.nnz


def test_solve_spd_rejects_non_finite_system():
    A = sp.identity(3, format="csc")
    with pytest.raises(SolverError, match="non-finite"):
        _solve_spd(A, np.array([1.0, np.nan, 1.0]), 1e-12)
    A = sp.csc_matrix(np.diag([1.0, np.inf, 1.0]))
    with pytest.raises(SolverError, match="non-finite"):
        _solve_spd(A, np.ones(3), 1e-12)


def test_nan_in_data_is_not_certified(initial):
    # NaN data must raise, never pass the backward-error certificate
    prob = example(2)

    def f(x):
        out = prob.f(x)
        out[0] = np.nan
        return out

    with pytest.raises(SolverError, match="non-finite"):
        assemble_and_solve(initial, dataclasses.replace(prob, f=f), p=1,
                           kind=TestNorm.QUASI_OPTIMAL)


def test_error_function_against_dense_oracle(initial):
    # element norms are sqrt(r^t G^{-1} r) with r = F - B u, per element
    mesh = refine_uniform(initial)
    prob = example(2)
    sol = assemble_and_solve(mesh, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)
    ee = error_function(mesh, prob, sol)
    asm = ElementAssembler(mesh, prob.coeffs, 1)
    B = asm.b_matrices()
    G = asm.gram(TestNorm.QUASI_OPTIMAL)
    r = asm.loads(prob.f, prob.fvec) - np.einsum("eij,ej->ei", B, sol.local_trial())
    want = np.sqrt(np.einsum("ei,ei->e", r, np.linalg.solve(G, r[:, :, None])[:, :, 0]))
    assert np.abs(ee.element_norms - want).max() <= 1e-10 * want.max()


def test_chunk_boundaries_do_not_change_results(initial, monkeypatch):
    mesh = refine_uniform(refine_uniform(initial))  # 256 elements, one chunk
    prob = example(1)
    dm = build_dofmap(mesh, 1)
    asm = ElementAssembler(mesh, prob.coeffs, 1)
    sol = assemble_and_solve(mesh, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)

    def run():
        A, b = assemble_global(mesh, dm, asm, TestNorm.QUASI_OPTIMAL, prob.f, prob.fvec)
        return A, b, error_function(mesh, prob, sol).element_norms

    A1, b1, e1 = run()
    monkeypatch.setattr(dpg_solver, "_CHUNK", 7)
    A7, b7, e7 = run()
    assert abs(A7 - A1).max() <= 1e-14 * abs(A1).max()
    assert np.abs(b7 - b1).max() <= 1e-14 * np.abs(b1).max()
    assert np.abs(e7 - e1).max() <= 1e-14 * e1.max()


@pytest.mark.parametrize("chunk", [512, 7])
def test_error_names_lowest_failing_element(initial, monkeypatch, chunk):
    # C is indefinite only on {x >= 1/2}; the lowest-numbered element there
    # is named, whatever order and chunks the elements are condensed in
    mesh = refine_uniform(initial)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])

    def matrix(x):
        return np.where((x[:, 0] >= 0.5)[:, None, None], indefinite, np.eye(2))

    base = Coefficients.constant(beta=(1.0, -0.5), gamma=0.3)
    coeffs = Coefficients(matrix=matrix, advection=base.advection,
                          reaction=base.reaction)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert np.flatnonzero(centroids[:, 0] > 0.5)[0] == 16
    monkeypatch.setattr(dpg_solver, "_CHUNK", chunk)
    for kind in (TestNorm.STANDARD, TestNorm.QUASI_OPTIMAL):
        asm = ElementAssembler(mesh, coeffs, 0)
        with pytest.raises(SolverError, match="Gram matrix of element 16 is not SPD"):
            assemble_global(mesh, build_dofmap(mesh, 0), asm, kind,
                            lambda x: np.zeros(len(x)), None)


def test_variable_coefficients_against_dense_oracle(initial):
    # the condensed system is sum_T B^t G^{-1} [B | F] scattered densely, both
    # for x-dependent SPD C(x) and beta(x), where every element is a class of
    # its own, and for example 1's coefficients, where classes are shared
    def matrix(x):
        C = np.empty((len(x), 2, 2))
        C[:, 0, 0] = 2.0 + x[:, 0]
        C[:, 0, 1] = C[:, 1, 0] = 0.3 * np.sin(np.pi * x[:, 1])
        C[:, 1, 1] = 1.0 + x[:, 1] ** 2
        return C

    variable = Coefficients(matrix=matrix,
                            advection=lambda x: np.column_stack([1.0 + x[:, 1], -x[:, 0]]),
                            reaction=lambda x: np.full(len(x), 0.5))
    mesh = refine_uniform(initial)
    prob = example(1)
    dm = build_dofmap(mesh, 1)
    for coeffs, n_classes in ((variable, mesh.n_triangles), (prob.coeffs, 40)):
        asm = ElementAssembler(mesh, coeffs, 1)
        assert asm.classes.max() + 1 == n_classes
        for kind in TestNorm:
            A, b = assemble_global(mesh, dm, asm, kind, prob.f, prob.fvec)
            B = asm.b_matrices()
            BF = np.concatenate([B, asm.loads(prob.f, prob.fvec)[:, :, None]], axis=2)
            SR = np.swapaxes(B, 1, 2) @ np.linalg.solve(asm.gram(kind), BF)
            A_want, b_want = np.zeros((dm.total, dm.total)), np.zeros(dm.total)
            for g, sr in zip(dm.gather, SR):
                keep = np.flatnonzero(g >= 0)
                A_want[np.ix_(g[keep], g[keep])] += sr[np.ix_(keep, keep)]
                b_want[g[keep]] += sr[keep, -1]
            assert np.abs(A.toarray() - A_want).max() <= 1e-12 * np.abs(A_want).max()
            assert np.abs(b - b_want).max() <= 1e-12 * np.abs(b_want).max()


def test_error_function_uses_the_solve_quadrature(initial):
    # a solve with a lower volume quadrature than the default: the error
    # function must condense in the same test space, or Galerkin
    # orthogonality fails (7.8e-8 relative with the default quadrature)
    mesh = refine_uniform(initial)
    prob = example(1)
    kind = TestNorm.QUASI_OPTIMAL
    dm = build_dofmap(mesh, 1)
    asm = ElementAssembler(mesh, prob.coeffs, 1, volume_exactness=6)
    x, res = _solve_spd(*assemble_global(mesh, dm, asm, kind, prob.f, prob.fvec), 1e-12)
    sol = Solution(mesh=mesh, dofmap=dm, p=1, kind=kind, variant="standard",
                   assembler=asm, x=x, residual=res)
    ee = error_function(mesh, prob, sol)
    assert np.linalg.norm(ee.orth_residual) <= 1e-12 * ee.rhs_norm
