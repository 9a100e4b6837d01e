import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import dpglab
from dpglab import dpg_solver
from dpglab.dpg_solver import (Solution, SolverError, _condense_batch, _condensed,
                               _eliminate, _factor, _loads, _recover, _solve_spd,
                               _variant_rows, assemble_and_solve, assemble_global,
                               error_function)
from dpglab.forms import Coefficients, ElementAssembler, TestNorm
from dpglab.harness import StudyConfig, fmt_err, l2_error, run_convergence_study
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.postprocess import postprocess_u
from dpglab.problems import example, zero_data_problem
from dpglab.spaces import build_dofmap, l2_project, trial_layout


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def _qr_sweep(asm, kind, F):
    """The class QR of a solve's sweep: the :class:`_ClassQR` of every batch
    of B against the augmented layout, as assembled."""
    return [_eliminate(Y, y, inv, els) for els, Y, y, inv in
            _condensed(asm, trial_layout(asm.p, "augmented"), kind, F)]


def _assemble(mesh, p, kind, asm, F, variant="standard"):
    """The skeleton system of ``variant`` on ``mesh`` from the class QR of
    the assembler ``asm`` and the loads ``F``."""
    return assemble_global(build_dofmap(mesh, p), trial_layout(p, variant),
                           _qr_sweep(asm, kind, F))


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


def test_eliminate_rejects_rank_deficient_extra_columns():
    # the first two columns are the field block; its column 1 is zero in
    # class 2 (elements 8 and 7), so its R_f has a zero diagonal and the
    # lowest element of that class is named, not one of class 5, whose field
    # block is fine.  A variant with one field column does not solve for
    # column 1 and takes it as it is
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((2, 7, 5))
    Y[0, :, 1] = 0.0
    els, inv = np.array([9, 8, 3, 7]), np.array([1, 0, 1, 0])
    y = rng.standard_normal((4, 7))
    with pytest.raises(SolverError, match="field columns of element 7 are rank deficient"):
        _variant_rows(_eliminate(Y, y, inv, els), 2, 3)
    _variant_rows(_eliminate(Y, y, inv, els), 1, 3)
    Y[0, 0, 1] = np.nan
    with pytest.raises(SolverError, match="element 7 are rank deficient"):
        _variant_rows(_eliminate(Y, y, inv, els), 2, 3)
    # with the column restored, the condensed blocks are the Schur
    # complements of the field block, x_f = R_ff^{-1} (rho_f - R_fs x_s) is
    # the local least-squares solution, and |g_T - M_c x_s|^2 + tau_T^2 is
    # its squared residual
    Y[0, :, 1] = rng.standard_normal(7)
    qr = _eliminate(Y, y, inv, els)
    M, g = _variant_rows(qr, 2, 3)
    x_s = rng.standard_normal((4, 3))
    for t in range(4):
        Y_f, Y_s, R = Y[inv[t], :, :2], Y[inv[t], :, 2:], qr.R[inv[t]]
        schur = Y_s.T @ Y_s - Y_s.T @ Y_f @ np.linalg.solve(Y_f.T @ Y_f, Y_f.T @ Y_s)
        rhs = Y_s.T @ y[t] - Y_s.T @ Y_f @ np.linalg.solve(Y_f.T @ Y_f, Y_f.T @ y[t])
        assert np.allclose(M[inv[t]].T @ M[inv[t]], schur, rtol=1e-12, atol=1e-13)
        assert np.allclose(M[inv[t]].T @ g[t], rhs, rtol=1e-12, atol=1e-13)
        x_f = np.linalg.solve(R[:2, :2], qr.rho[t, :2] - R[:2, 2:] @ x_s[t])
        want = np.linalg.lstsq(Y_f, y[t] - Y_s @ x_s[t], rcond=None)[0]
        assert np.allclose(x_f, want, rtol=1e-12, atol=1e-14)
        z = y[t] - Y_s @ x_s[t] - Y_f @ want
        est = np.sum((g[t] - M[inv[t]] @ x_s[t]) ** 2) + qr.tau[t] ** 2
        assert np.isclose(est, z @ z, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", list(TestNorm))
def test_zero_data_gives_zero_solution(initial, kind):
    mesh = refine_uniform(initial)
    sol = assemble_and_solve(mesh, zero_data_problem(), p=1, kind=kind)
    assert np.abs(sol.local_trial()).max() <= 1e-10


def test_global_matrix_symmetric_positive_definite(initial):
    prob = example(1)
    asm = ElementAssembler(initial, prob.coeffs, 0)
    A, b = _assemble(initial, 0, TestNorm.QUASI_OPTIMAL, asm, asm.loads(prob.f, prob.fvec))
    dense = A.toarray()
    assert np.array_equal(dense, dense.T)
    np.linalg.cholesky(dense)  # raises if not SPD


def test_solution_fields_and_bc(initial):
    # the factored system has the skeleton DOFs only; the fields are
    # element-local, (nt, nu + 2 ns)
    prob = example(2)
    sol = assemble_and_solve(initial, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)
    dm, lay = sol.dofmap, sol.layout
    assert sol.u.data.size == initial.n_triangles * lay.nu
    assert sol.sigma.shape == (initial.n_triangles, 2, 3)
    assert sol.fields.shape == (initial.n_triangles, lay.uh0)
    assert sol.x.size == dm.n_uhat + dm.n_sighat == dm.total
    assert np.all(np.isfinite(sol.x)) and np.all(np.isfinite(sol.fields))
    # boundary uhat DOFs are structurally absent: gathered local vector
    # carries zeros on boundary trace columns
    loc = sol.local_trial()
    assert np.all(loc[:, lay.uh0:][dm.gather == -1] == 0.0)


def test_determinism_bitwise(initial):
    prob = example(1)
    mesh = refine_uniform(initial)
    a = assemble_and_solve(mesh, prob, p=0, kind=TestNorm.SIMPLE)
    b = assemble_and_solve(mesh, prob, p=0, kind=TestNorm.SIMPLE)
    assert np.array_equal(a.local_trial(), b.local_trial())


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
    # no backward error reaches 1e-300: the PCG loop runs from the first
    # iterate to its step cap, then raises
    with pytest.raises(SolverError, match=r"backward error .* > tolerance "
                       rf"1\.000e-300 after {dpg_solver._PCG_STEPS} PCG steps "
                       r"\(33 DOFs\)"):
        assemble_and_solve(initial, example(1), p=0, solver_tol=1e-300)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_solver_tol_must_be_finite_and_positive(initial, tol, monkeypatch):
    # rejected before any assembly: NaN or 0 would certify no solve after
    # three refinement steps, inf every solve
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled with an invalid tolerance")

    monkeypatch.setattr(dpg_solver, "ElementAssembler", no_assembly)
    with pytest.raises(ValueError, match="solver tolerance must be finite and "
                       "positive"):
        assemble_and_solve(initial, example(1), p=0, solver_tol=tol)


def _csc_arrays(A):
    """Copies of the arrays of the CSC matrix ``A``."""
    return [getattr(A, name).copy() for name in ("data", "indices", "indptr")]


def test_singular_matrix_raises_instead_of_fallback():
    # symmetric, positive diagonal, rank 2: the last pivot is exactly zero
    A = sp.csc_matrix(np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0]]))
    assert A.has_canonical_format
    before = _csc_arrays(A)
    with pytest.raises(SolverError, match="3x3 condensed system failed: "
                       "Factor is exactly singular"):
        _solve_spd(A, np.ones(3), 1e-12)
    # a failed factorization leaves the caller's A as it was
    assert all(map(_bitwise_equal, _csc_arrays(A), before))


@pytest.mark.parametrize("diagonal", [[1.0, 0.0, 1.0], [1.0, -2.0, 1.0]])
def test_non_positive_diagonal_raises(diagonal):
    A = sp.csc_matrix(np.diag(diagonal) + np.diag([0.1, 0.1], 1)
                      + np.diag([0.1, 0.1], -1))
    with pytest.raises(SolverError, match="non-positive diagonal entries"):
        _solve_spd(A, np.ones(3), 1e-12)


def _badly_scaled_tridiagonal():
    """Unit-diagonal SPD tridiagonal matrix r M r with diag(A) spanning
    1e-8 ... 1e8, the scaling r, and a right-hand side."""
    n = 200
    M = sp.diags([np.full(n - 1, -0.45), np.ones(n), np.full(n - 1, -0.45)],
                 [-1, 0, 1])
    r = sp.diags(np.logspace(-4, 4, n))
    return (r @ M @ r).tocsc(), r, np.random.default_rng(2).standard_normal(n)


def test_solve_spd_certifies_badly_scaled_matrix():
    # diagonal pivots in a pattern-only ordering make the factorization
    # invariant under diagonal scaling, so the spread of the diagonal does
    # not stop the solve from certifying, and the error is small in the
    # scaled norm
    A, r, b = _badly_scaled_tridiagonal()
    x, res, _ = _solve_spd(A, b, 1e-12)
    assert res <= 1e-12
    ref = spla.spsolve(A, b)
    assert np.linalg.norm(r @ (x - ref)) <= 1e-10 * np.linalg.norm(r @ ref)


def _system(mesh, p, kind, ex=1):
    prob = example(ex)
    asm = ElementAssembler(mesh, prob.coeffs, p)
    return _assemble(mesh, p, kind, asm, asm.loads(prob.f, prob.fvec))


def test_factor_fill_stays_small(initial):
    # minimum-degree ordering in symmetric mode gives L+U fill of 2.14 nnz(A)
    # on the skeleton system of ex1/simple p2 level 3 (2,049 DOFs, 60,113
    # nonzeros); SuperLU's COLAMD default gives 5.52
    A, _ = _system(refine_uniform(refine_uniform(initial)), 2, TestNorm.SIMPLE)
    lu = _factor(A)
    assert lu.L.nnz + lu.U.nnz <= 2.2 * A.nnz


def test_factor_fill_qopt_p0(initial):
    # ex1/qopt p0 level 4: 56,419 entries in L+U of the skeleton system
    mesh = initial
    for _ in range(3):
        mesh = refine_uniform(mesh)
    A, _ = _system(mesh, 0, TestNorm.QUASI_OPTIMAL)
    lu = _factor(A)
    assert lu.L.nnz + lu.U.nnz <= 60_000


def test_solve_spd_restores_assembled_matrix(initial, monkeypatch):
    # the solve only reads A, slice by slice for its norm: a certified solve
    # hands back the assembled A bit for bit
    monkeypatch.setattr(dpg_solver, "_NNZ_SLICE", 1000)
    A, b = _system(refine_uniform(initial), 2, TestNorm.SIMPLE)
    assert A.has_canonical_format
    before = _csc_arrays(A)
    res = _solve_spd(A, b, 1e-12)[1]
    assert res <= 1e-12
    assert all(map(_bitwise_equal, _csc_arrays(A), before))


@pytest.mark.parametrize("nnz_slice", [1, 1 << 16])
def test_wide_range_matrix_solves_unchanged(monkeypatch, nnz_slice):
    # diagonal 2^600 next to the off-diagonal 2^-450: entries 1050 binary
    # orders apart factor, solve and certify as they are, and A is only read
    monkeypatch.setattr(dpg_solver, "_NNZ_SLICE", nnz_slice)
    big, small = np.ldexp(1.0, 600), np.ldexp(1.0, -450)
    dense = np.array([[1.0, 0.5, 0.0], [0.5, big, small], [0.0, small, big]])
    A = sp.csc_matrix(dense)
    before = _csc_arrays(A)
    b = np.ones(3)
    x, res, _ = _solve_spd(A, b, 1e-12)
    assert res <= 1e-12
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-14, atol=0.0)
    assert all(map(_bitwise_equal, _csc_arrays(A), before))


def _scaled_factor_matches(A, b):
    """Factor the copy s_i s_j a_ij of A, with s = 2^-(e // 2) for the
    binary exponents e of diag(A), scaled entry by entry so that its
    pattern is that of A, and check that it solves A x = b bit for bit as
    the factor of A does, with the same permutations and fill."""
    s = np.ldexp(1.0, -(np.frexp(A.diagonal())[1] // 2))
    assert len(np.unique(s)) > 1  # the scaling is not the identity
    scaled = A.copy()
    scaled.data *= s[A.indices] * np.repeat(s, np.diff(A.indptr))
    lu_s, lu = _factor(scaled), _factor(A)
    assert _bitwise_equal(s * lu_s.solve(s * b), lu.solve(b))
    assert np.array_equal(lu_s.perm_c, lu.perm_c)
    assert np.array_equal(lu_s.perm_r, lu.perm_r)
    assert (lu_s.L.nnz, lu_s.U.nnz) == (lu.L.nnz, lu.U.nnz)


def test_power_of_two_scaling_changes_no_bit(initial):
    # the MMD ordering of A + A^t reads only the pattern and diag_pivot_thresh
    # 0 takes every diagonal as the pivot, so factoring D A D with D a
    # power-of-two diagonal gives the factors of A exactly rescaled: an
    # equilibration of the condensed system would change no bit of a solve
    level3 = refine_uniform(refine_uniform(initial))
    _scaled_factor_matches(*_system(level3, 2, TestNorm.SIMPLE))
    _scaled_factor_matches(*_system(refine_uniform(level3), 0, TestNorm.QUASI_OPTIMAL))
    A, _, b = _badly_scaled_tridiagonal()
    _scaled_factor_matches(A, b)


@pytest.mark.parametrize("variant", ["standard", "augmented"])
def test_solution_fields_read_through_gather(initial, variant):
    # the element trial vectors are the recovered fields, in element order,
    # then the skeleton solution read through the gather.  Both layouts
    # order the fields [u_p | sigma_x | sigma_y | u_extra]: u is the first
    # ns columns, then the u_extra columns after sigma (none for the
    # standard variant)
    sol = assemble_and_solve(refine_uniform(initial), example(1), p=1,
                             variant=variant)
    dm, lay = sol.dofmap, sol.layout
    assert lay == trial_layout(1, variant)
    nt = sol.mesh.n_triangles
    loc = sol.local_trial()
    assert loc.shape == (nt, lay.total)
    assert _bitwise_equal(loc[:, :lay.uh0], sol.fields)
    keep = dm.gather >= 0
    assert _bitwise_equal(loc[:, lay.uh0:][keep], sol.x[dm.gather[keep]])
    u_extra = loc[:, 3 * lay.ns:lay.uh0]
    assert u_extra.shape[1] == (3 if variant == "augmented" else 0)  # p + 2
    assert _bitwise_equal(sol.u.by_element(),
                          np.concatenate([loc[:, :lay.ns], u_extra], axis=1))
    assert (lay.sx0, lay.sy0) == (lay.ns, 2 * lay.ns)
    assert _bitwise_equal(sol.sigma.reshape(nt, -1),
                          loc[:, lay.sx0:lay.sy0 + lay.ns])


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
    B = asm.b_matrices(np.arange(mesh.n_triangles), sol.layout)
    G = asm.gram(TestNorm.QUASI_OPTIMAL)
    r = asm.loads(prob.f, prob.fvec) - np.einsum("eij,ej->ei", B, sol.local_trial())
    want = np.sqrt(np.einsum("ei,ei->e", r, np.linalg.solve(G, r[:, :, None])[:, :, 0]))
    assert np.abs(ee.element_norms - want).max() <= 1e-10 * want.max()


def test_chunk_boundaries_do_not_change_results(initial, monkeypatch):
    # both variants eliminate their field columns batch by batch, and
    # recover them from what each batch kept
    mesh = refine_uniform(refine_uniform(initial))  # 256 elements, one chunk
    prob = example(1)
    asm = ElementAssembler(mesh, prob.coeffs, 1)
    F = asm.loads(prob.f, prob.fvec)
    default = dpg_solver._CHUNK
    for variant in ("standard", "augmented"):
        runs = []
        for chunk in (default, 7):
            monkeypatch.setattr(dpg_solver, "_CHUNK", chunk)
            sol = assemble_and_solve(mesh, prob, p=1, kind=TestNorm.QUASI_OPTIMAL,
                                     variant=variant)
            A, b = _assemble(mesh, 1, TestNorm.QUASI_OPTIMAL, asm, F, variant)
            runs.append((A, b, error_function(mesh, prob, sol).element_norms,
                         sol.local_trial()))
        (A1, b1, e1, x1), (A7, b7, e7, x7) = runs
        assert abs(A7 - A1).max() <= 1e-14 * abs(A1).max()
        assert np.abs(b7 - b1).max() <= 1e-14 * np.abs(b1).max()
        assert np.abs(e7 - e1).max() <= 1e-14 * e1.max()
        assert np.abs(x7 - x1).max() <= 1e-12 * np.abs(x1).max()


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
            _assemble(mesh, 0, kind, asm, asm.loads(lambda x: np.zeros(len(x)), None))


def _full_system(sol):
    """The condensed system of all trial DOFs of the solve ``sol``,
    sum_T B_T^t G_T^{-1} [B_T | F_T] scattered densely, and the solve's full
    trial vector: the fields of element t at DOFs t nf ... (t + 1) nf - 1,
    then the skeleton DOFs of ``sol.dofmap``."""
    asm, dm = sol.assembler, sol.dofmap
    nt, nf = sol.fields.shape
    B = asm.b_matrices(np.arange(nt), sol.layout)
    F = _loads(asm, sol.problem.f, sol.problem.fvec)
    BF = np.concatenate([B, F[:, :, None]], axis=2)
    SR = np.swapaxes(B, 1, 2) @ np.linalg.solve(asm.gram(sol.kind), BF)
    dofs = np.concatenate([np.arange(nt * nf).reshape(nt, nf),
                           np.where(dm.gather >= 0, nt * nf + dm.gather, -1)], axis=1)
    n = nt * nf + dm.total
    A, b = np.zeros((n, n)), np.zeros(n)
    for g, sr in zip(dofs, SR):
        keep = np.flatnonzero(g >= 0)
        A[np.ix_(g[keep], g[keep])] += sr[np.ix_(keep, keep)]
        b[g[keep]] += sr[keep, -1]
    return A, b, np.concatenate([sol.fields.ravel(), sol.x])


def _assert_solves_full_system(sol):
    """The solve's full trial vector solves the full system of
    :func:`_full_system` to a backward error <= 1e-12 and matches its dense
    solve to 1e-10."""
    A, b, x = _full_system(sol)
    anorm = np.abs(A).sum(axis=1).max()
    backward = np.linalg.norm(b - A @ x) / (anorm * np.linalg.norm(x) + np.linalg.norm(b))
    assert sol.residual <= 1e-12 and backward <= 1e-12
    want = scipy.linalg.solve(A, b, assume_a="pos")
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_variable_coefficients_against_dense_oracle(initial):
    # the skeleton system is the Schur complement of the field block of the
    # full system sum_T B^t G^{-1} [B | F], scattered densely, and the solve
    # solves the full system; both for x-dependent SPD C(x) and beta(x),
    # where every element is a class of its own, and for example 1's
    # coefficients, where classes are shared
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
    for coeffs, n_classes in ((variable, mesh.n_triangles), (prob.coeffs, 40)):
        for kind in TestNorm:
            sol = assemble_and_solve(mesh, dataclasses.replace(prob, coeffs=coeffs), 1, kind)
            assert sol.assembler.classes.max() + 1 == n_classes
            _assert_solves_full_system(sol)
            A, b = assemble_global(sol.dofmap, sol.layout, sol.qr)
            full, rhs, _ = _full_system(sol)
            f = sol.fields.size
            Aff_fs = np.linalg.solve(full[:f, :f], full[:f, f:])
            A_want = full[f:, f:] - full[f:, :f] @ Aff_fs
            b_want = rhs[f:] - Aff_fs.T @ rhs[:f]
            assert np.abs(A.toarray() - A_want).max() <= 1e-12 * np.abs(A_want).max()
            assert np.abs(b - b_want).max() <= 1e-12 * np.abs(b_want).max()


def test_error_function_uses_the_solve_quadrature(initial):
    # a solve with a lower volume quadrature than the default: the error
    # function must condense in the same test space, or Galerkin
    # orthogonality fails (7.8e-8 relative with the default quadrature)
    mesh = refine_uniform(initial)
    prob = example(1)
    kind = TestNorm.QUASI_OPTIMAL
    dm, lay = build_dofmap(mesh, 1), trial_layout(1)
    asm = ElementAssembler(mesh, prob.coeffs, 1, volume_exactness=6)
    qr = _qr_sweep(asm, kind, _loads(asm, prob.f, prob.fvec))
    x, res, _ = _solve_spd(*assemble_global(dm, lay, qr), 1e-12)
    fields, estimator = _recover(dm, lay, x, qr)
    sol = Solution(mesh=mesh, problem=prob, dofmap=dm, layout=lay, p=1, kind=kind,
                   assembler=asm, x=x, fields=fields, residual=res, qr=qr,
                   estimator=estimator)
    ee = error_function(mesh, prob, sol)
    assert np.linalg.norm(ee.orth_residual) <= 1e-12 * ee.rhs_norm


def _skeleton_blocks(dofmap, layout, qr):
    """Per batch of the class QR ``qr``, its elements and their condensed
    skeleton blocks S_T and rhs r_T, from the rows of the variant of
    ``layout``."""
    nf, nk = layout.uh0, dofmap.gather.shape[1]
    for batch in qr:
        M, g = _variant_rows(batch, nf, nk)
        Mt = np.swapaxes(M, 1, 2)
        yield batch.els, (Mt @ M)[batch.inv], (Mt[batch.inv] @ g[:, :, None])[:, :, 0]


def _reference_scatter(dofmap, layout, qr):
    """The skeleton system scattered from growing lists of triplets into a
    COO matrix, and the rhs by np.add.at, batch by batch."""
    rows, cols, vals = [], [], []
    rhs = np.zeros(dofmap.total)
    for els, S, r in _skeleton_blocks(dofmap, layout, qr):
        g = dofmap.gather[els]
        keep = g >= 0
        np.add.at(rhs, g[keep], r[keep])
        ok = keep[:, :, None] & keep[:, None, :]
        rows.append(np.broadcast_to(g[:, :, None], ok.shape)[ok])
        cols.append(np.broadcast_to(g[:, None, :], ok.shape)[ok])
        vals.append(S[ok])
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dofmap.total, dofmap.total)).tocsc()
    return A, rhs


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _add_at_reference(dofmap, layout, qr, ref):
    """The values of the skeleton matrix added by np.add.at into the CSC
    pattern of ``ref``, batch after batch in the order of the condensation;
    each entry's place is looked up by its row and column."""
    place = ref.copy()
    place.data = np.arange(ref.nnz)
    data = np.zeros(ref.nnz)
    for els, S, _ in _skeleton_blocks(dofmap, layout, qr):
        g = dofmap.gather[els]
        ok = (g >= 0)[:, :, None] & (g >= 0)[:, None, :]
        rows = np.broadcast_to(g[:, :, None], ok.shape)[ok]
        cols = np.broadcast_to(g[:, None, :], ok.shape)[ok]
        np.add.at(data, np.asarray(place[rows, cols]).ravel(), S[ok])
    return data


def test_assembly_memory_and_bitwise_triplets(initial):
    # ex1/simple p2 on level 5: the traced peak of the QR sweep and the
    # assembly, with the class QR kept, stays below 54 MiB (28.0 MiB
    # measured, of which 11.7 MiB are the returned CSC matrix; the position
    # table is built after the QR sweep, so it and one batch's B and Gram
    # matrices are never alive together; int64 triplets of the 1.33 M
    # element entries would add 30 MiB).  indptr, indices and the rhs equal
    # the COO reference of the triplets bit for bit; SciPy sums the
    # duplicates of the COO matrix in its own order, so the values equal
    # np.add.at of the same batches into that pattern
    mesh = initial
    for _ in range(4):
        mesh = refine_uniform(mesh)
    prob = example(1)
    dm, lay = build_dofmap(mesh, 2), trial_layout(2)
    asm = ElementAssembler(mesh, prob.coeffs, 2)
    F = asm.loads(prob.f, prob.fvec)
    tracemalloc.start()
    try:
        qr = _qr_sweep(asm, TestNorm.SIMPLE, F)
        A, b = assemble_global(dm, lay, qr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.format == "csc" and A.indices.dtype == np.int32
    assert peak <= 54 * 2**20
    A_ref, b_ref = _reference_scatter(dm, lay, qr)
    for name in ("indices", "indptr"):
        assert _bitwise_equal(getattr(A, name), getattr(A_ref, name))
    assert _bitwise_equal(b, b_ref)
    assert _bitwise_equal(A.data, _add_at_reference(dm, lay, qr, A_ref))


@pytest.mark.parametrize("variant", ["standard", "augmented"])
@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("ex", [1, 2])
def test_csc_pattern_is_the_coo_pattern(initial, monkeypatch, ex, p, variant):
    # levels 1-3; on level 1 every element has a boundary vertex.  Both
    # variants assemble a skeleton system of the same DOFs.  indptr,
    # indices and the rhs are those of the COO reference bit for bit, A is
    # its own transpose bit for bit, and batches of 7 elements with pattern
    # lookups of 80 pairs (1 or 2 elements at a time) give the same A bit
    # for bit: each entry is added in the class order of the elements
    prob = example(ex)
    kind = TestNorm.QUASI_OPTIMAL
    mesh = initial
    lay = trial_layout(p, variant)
    for _ in range(3):
        dm = build_dofmap(mesh, p)
        asm = ElementAssembler(mesh, prob.coeffs, p)
        F = asm.loads(prob.f, prob.fvec)
        qr = _qr_sweep(asm, kind, F)
        A, b = assemble_global(dm, lay, qr)
        A_ref, b_ref = _reference_scatter(dm, lay, qr)
        assert A.has_canonical_format
        for name in ("indices", "indptr"):
            assert _bitwise_equal(getattr(A, name), getattr(A_ref, name))
        assert _bitwise_equal(b, b_ref)
        At = A.T.tocsc()
        assert all(map(_bitwise_equal, _csc_arrays(At), _csc_arrays(A)))
        with monkeypatch.context() as m:
            m.setattr(dpg_solver, "_CHUNK", 7)
            m.setattr(dpg_solver, "_LOOKUPS", 80)
            A7, b7 = assemble_global(dm, lay, _qr_sweep(asm, kind, F))
        assert all(map(_bitwise_equal, _csc_arrays(A7), _csc_arrays(A)))
        assert _bitwise_equal(b7, b)
        mesh = refine_uniform(mesh)


def test_index_bound_covers_dofs_and_nonzeros(initial, monkeypatch):
    # the int32 indices of A bound both the DOFs (indices) and the nonzeros
    # (indptr): ex1/qopt p0 on level 1 has 33 skeleton DOFs and 233 nonzeros
    prob = example(1)
    dm, lay = build_dofmap(initial, 0), trial_layout(0)
    asm = ElementAssembler(initial, prob.coeffs, 0)
    qr = _qr_sweep(asm, TestNorm.QUASI_OPTIMAL, asm.loads(prob.f, prob.fvec))
    A, _ = assemble_global(dm, lay, qr)
    assert (A.shape[0], A.nnz) == (33, 233)
    for bound, match in [(33, "33 DOFs exceed"), (233, "233 nonzeros exceed")]:
        monkeypatch.setattr(dpg_solver, "_INDEX_BOUND", bound)
        with pytest.raises(SolverError, match=match + " the int32 indices"):
            assemble_global(dm, lay, qr)
    monkeypatch.setattr(dpg_solver, "_INDEX_BOUND", 234)
    A1, _ = assemble_global(dm, lay, qr)
    assert all(map(_bitwise_equal, _csc_arrays(A1), _csc_arrays(A)))


def test_error_function_scatter_bitwise(initial, monkeypatch):
    # the skeleton rows of the orthogonality and rhs vectors equal np.add.at
    # scatters bit for bit, also across several batches; the field rows
    # follow, element by element
    mesh = refine_uniform(initial)
    prob = example(2)
    monkeypatch.setattr(dpg_solver, "_CHUNK", 7)
    sol = assemble_and_solve(mesh, prob, p=1, kind=TestNorm.QUASI_OPTIMAL)
    ee = error_function(mesh, prob, sol)
    n, nf = sol.dofmap.total, sol.layout.uh0
    orth = np.zeros(n + sol.fields.size)
    rhs = np.zeros_like(orth)
    u_loc = sol.local_trial()
    for els, Y, y, inv in _condensed(sol.assembler, sol.layout, sol.kind,
                                     _loads(sol.assembler, prob.f, prob.fvec)):
        z = y - (Y[inv] @ u_loc[els][:, :, None])[:, :, 0]
        Yt = np.swapaxes(Y, 1, 2)[inv]
        Ytz, Yty = (Yt @ z[:, :, None])[:, :, 0], (Yt @ y[:, :, None])[:, :, 0]
        g = sol.dofmap.gather[els]
        keep = g >= 0
        np.add.at(orth, g[keep], Ytz[:, nf:][keep])
        np.add.at(rhs, g[keep], Yty[:, nf:][keep])
        field_rows = n + els[:, None] * nf + np.arange(nf)
        orth[field_rows], rhs[field_rows] = Ytz[:, :nf], Yty[:, :nf]
    assert _bitwise_equal(ee.orth_residual, orth)
    assert ee.rhs_norm == float(np.linalg.norm(rhs))


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("kind", list(TestNorm))
@pytest.mark.parametrize("ex", [1, 2])
def test_shared_test_space_equals_standalone_solve(initial, ex, kind, p):
    # a solve on the DOF map, classes and class QR of a solve of the other
    # variant is the standalone solve.  A standard solve hands over no
    # factor, so the augmented solve on its test space is the standalone
    # one bit for bit.  The standard solve on the augmented test space is
    # preconditioned by the augmented factor and factors nothing: its x is
    # the standalone x to 1e-9 of max|x|, its printed err_u and err_post
    # are the standalone ones, and its backward error meets the PCG target
    mesh = refine_uniform(initial)
    prob = example(ex)
    alone = {variant: assemble_and_solve(mesh, prob, p, kind, variant=variant)
             for variant in ("standard", "augmented")}
    assert alone["standard"]._lu is None and alone["augmented"]._lu is not None
    for variant, other in (("augmented", "standard"), ("standard", "augmented")):
        space = alone[other]
        shared = assemble_and_solve(mesh, prob, p, kind, variant=variant,
                                    test_space=space)
        assert shared.assembler is space.assembler
        assert shared.dofmap is space.dofmap and shared.qr is space.qr
        want = alone[variant]
        if variant == "augmented":
            assert _bitwise_equal(shared.x, want.x)
            assert _bitwise_equal(shared.fields, want.fields)
            assert shared.residual == want.residual
            continue
        assert np.abs(shared.x - want.x).max() <= 1e-9 * np.abs(want.x).max()
        assert shared.residual <= dpg_solver._PCG_TARGET
        for field_of in (lambda sol: sol.u, lambda sol: postprocess_u(mesh, prob, sol)):
            assert (fmt_err(l2_error(mesh, field_of(shared), prob.u))
                    == fmt_err(l2_error(mesh, field_of(want), prob.u)))


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("kind", list(TestNorm))
@pytest.mark.parametrize("ex", [1, 2])
def test_augmented_elimination_solves_the_full_system(initial, monkeypatch, ex, kind, p):
    # both variants assemble the same skeleton pattern: their field
    # coefficients are eliminated per class and recovered per element, and
    # the full trial vector solves the full system of all trial DOFs,
    # assembled densely, to its backward error and to its dense solve; the
    # error function's orthogonality covers the field rows as well
    mesh = refine_uniform(initial)
    prob = example(ex)
    assembled = []
    assemble = dpg_solver.assemble_global

    def recording_assemble(*args):
        A, b = assemble(*args)
        assembled.append(A)
        return A, b

    monkeypatch.setattr(dpg_solver, "assemble_global", recording_assemble)
    sol = assemble_and_solve(mesh, prob, p, kind, variant="augmented")
    std = assemble_and_solve(mesh, prob, p, kind, test_space=sol)
    monkeypatch.undo()
    aug, stdA = assembled
    assert aug.shape == stdA.shape == (std.dofmap.total,) * 2
    assert _bitwise_equal(aug.indptr, stdA.indptr)
    assert _bitwise_equal(aug.indices, stdA.indices)
    for solution in (sol, std):
        _assert_solves_full_system(solution)
        ee = error_function(mesh, prob, solution)
        assert np.abs(ee.orth_residual).max() <= 1e-9 * ee.rhs_norm


class _CountingFactor:
    """A factor that counts its solves and can spoil the result of one."""

    def __init__(self, lu, nan_at=None):
        self.lu, self.solves, self.nan_at = lu, 0, nan_at

    def solve(self, b):
        self.solves += 1
        x = self.lu.solve(b)
        if self.solves == self.nan_at:
            x[len(x) // 2] = np.nan
        return x


@pytest.mark.parametrize("kind", list(TestNorm))
@pytest.mark.parametrize("ex", [1, 2])
def test_own_factor_solve_takes_no_step(initial, ex, kind):
    # with the factor of its own system, the first iterate lu.solve(b)
    # meets the PCG target: the solve takes no step and returns that
    # iterate bit for bit, whichever variant
    mesh = refine_uniform(initial)
    prob = example(ex)
    asm = ElementAssembler(mesh, prob.coeffs, 1)
    for variant in ("standard", "augmented"):
        A, b = _assemble(mesh, 1, kind, asm, asm.loads(prob.f, prob.fvec), variant)
        lu = _CountingFactor(_factor(A))
        x, res, used = _solve_spd(A, b, 1e-12, lu)
        assert used is lu and lu.solves == 1
        assert _bitwise_equal(x, lu.lu.solve(b))
        assert res <= dpg_solver._PCG_TARGET


def _perturbed_preconditioner(initial, amplitude):
    """The ex2/simple p1 level 2 standard system and the factor of the SPD
    matrix A + amplitude diag(|sin i| a_ii) of the same pattern, a
    preconditioner that gets poorer as the amplitude grows."""
    mesh = refine_uniform(initial)
    prob = example(2)
    asm = ElementAssembler(mesh, prob.coeffs, 1)
    A, b = _assemble(mesh, 1, TestNorm.SIMPLE, asm, asm.loads(prob.f, prob.fvec))
    P = A.copy()
    P.setdiag(A.diagonal() * (1 + amplitude * np.abs(np.sin(np.arange(A.shape[0])))))
    return A, b, _factor(P)


@pytest.mark.parametrize("amplitude", [1e-3, 1.0])
def test_poor_preconditioner_certifies_or_raises(initial, amplitude):
    # a poor preconditioner either reaches the target in the steps it
    # needs (18 at 1e-3, where P^{-1} A has its spectrum in [0.43, 1]) or
    # raises with its step count and backward error (at 1.0 the spectrum
    # reaches down to 7.6e-4, and the step cap ends the loop); it never
    # returns an uncertified answer
    A, b, lu = _perturbed_preconditioner(initial, amplitude)
    counting = _CountingFactor(lu)
    try:
        x, res, _ = _solve_spd(A, b, 1e-12, counting)
    except SolverError as exc:
        assert re.search(r"backward error \S+ > tolerance 1\.000e-12 after "
                         r"[1-9]\d* PCG steps", str(exc))
    else:
        assert counting.solves > 1
        assert res <= dpg_solver._PCG_TARGET
        assert np.linalg.norm(b - A @ x) <= 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("nan_at", [1, 2, 3])
def test_nan_preconditioned_residual_never_certifies(initial, nan_at):
    # a NaN from the preconditioner, in the first iterate or in a
    # preconditioned residual, ends the loop; the answer is then the best
    # finite iterate with its certificate or SolverError, never NaN.  With
    # this preconditioner no iterate of the first two steps certifies, so
    # here every case raises
    A, b, lu = _perturbed_preconditioner(initial, 1e-3)
    counting = _CountingFactor(lu, nan_at=nan_at)
    with pytest.raises(SolverError, match=f"not certified: backward error .* after "
                       f"{max(nan_at - 1, 1)} PCG steps"):
        _solve_spd(A, b, 1e-12, counting)
    assert counting.solves == max(nan_at, 2)


def test_no_solve_calls_scipy_cg(monkeypatch):
    # the standard solve of a level runs the preconditioned CG loop of
    # dpg_solver, not scipy.sparse.linalg.cg
    def no_cg(*args, **kwargs):
        raise AssertionError("scipy.sparse.linalg.cg was called")

    monkeypatch.setattr(spla, "cg", no_cg)
    cfg = StudyConfig(example=2, norm=TestNorm.SIMPLE, p=1, levels=3, variant="both",
                      track_energy=True)
    table = run_convergence_study(cfg)
    assert all(None not in (row.err_u, row.err_aug, row.energy) for row in table.rows)


@pytest.mark.parametrize("kind", list(TestNorm))
@pytest.mark.parametrize("ex", [1, 2])
def test_estimator_matches_error_function(initial, ex, kind):
    # the estimator of the solve's class QR, |g_T - M_c x_s|^2 + tau_T^2,
    # against the error function's independent condensation z_T = y_T - Y_c u_T,
    # for every degree and both variants on levels 2 and 3
    prob = example(ex)
    mesh = refine_uniform(initial)
    for _ in range(2):
        for p in range(4):
            for variant in ("standard", "augmented"):
                sol = assemble_and_solve(mesh, prob, p, kind, variant=variant)
                ee = error_function(mesh, prob, sol)
                assert abs(sol.energy - ee.total) <= 1e-8 * ee.total
                rel = np.abs(sol.estimator - ee.element_norms) / ee.element_norms
                assert rel.max() <= 1e-6
        mesh = refine_uniform(mesh)


def test_standard_solve_with_k2_of_the_trial_degree(initial):
    # k2 = p + 1 is allowed for the standard variant but not for the
    # augmented one: div tau of degree p cannot see the u_extra columns, so
    # on example 1 the class QR holds them weakly determined.  The standard
    # solve still certifies and solves its full system; the rank check
    # covers only the variant's own field columns, so an exactly zero
    # u_extra pivot raises for the augmented rows only, naming the lowest
    # element of the class
    mesh = refine_uniform(initial)
    prob = example(1)
    for p in range(4):
        sol = assemble_and_solve(mesh, prob, p, TestNorm.QUASI_OPTIMAL, k2=p + 1)
        std, aug = trial_layout(p), trial_layout(p, "augmented")
        pivots = np.abs(np.concatenate([np.diagonal(q.R, axis1=1, axis2=2)
                                        for q in sol.qr]))
        assert pivots[:, std.uh0:aug.uh0].min() <= 1e-14
        assert pivots[:, :std.uh0].min() >= 0.5
        _assert_solves_full_system(sol)
        ee = error_function(mesh, prob, sol)
        assert abs(sol.energy - ee.total) <= 1e-8 * ee.total
        batch = sol.qr[-1]
        c = batch.inv[len(batch.inv) // 2]
        R = batch.R.copy()
        R[c, std.uh0, std.uh0] = 0.0
        qr = [*sol.qr[:-1], batch._replace(R=R)]
        A, b = assemble_global(sol.dofmap, std, qr)
        A0, b0 = assemble_global(sol.dofmap, std, sol.qr)
        assert _bitwise_equal(A.data, A0.data) and _bitwise_equal(b, b0)
        lowest = batch.els[batch.inv == c].min()
        with pytest.raises(SolverError,
                           match=f"field columns of element {lowest} are rank deficient"):
            assemble_global(sol.dofmap, aug, qr)


def test_test_space_of_other_data_raises(initial):
    mesh = refine_uniform(initial)
    prob = example(1)
    sol = assemble_and_solve(mesh, prob, 1, TestNorm.QUASI_OPTIMAL)
    same = dict(mesh=mesh, problem=prob, p=1, kind=TestNorm.QUASI_OPTIMAL,
                variant="augmented", test_space=sol)
    for change, match in [
            (dict(mesh=refine_uniform(initial)), "test_space needs the mesh"),
            (dict(problem=dataclasses.replace(prob, coeffs=Coefficients.constant())),
             "test_space needs the problem coeffs"),
            (dict(problem=dataclasses.replace(prob, f=lambda x: prob.f(x))),
             "test_space needs the problem f"),
            (dict(problem=dataclasses.replace(prob, fvec=None)),
             "test_space needs the problem fvec"),
            (dict(p=2), r"\(1, 3, 3\); this solve asks for \(2, 4, 4\)"),
            (dict(k1=4), r"asks for \(1, 4, 3\)"),
            (dict(k2=2), r"asks for \(1, 3, 2\)"),
            (dict(kind=TestNorm.SIMPLE),
             "test_space has the qopt test norm; this solve asks for simple")]:
        with pytest.raises(ValueError, match=match):
            assemble_and_solve(**{**same, **change})
    # the default test degrees spelled out share it
    spelled = assemble_and_solve(**{**same, "k1": 3, "k2": 3})
    alone = assemble_and_solve(mesh, prob, 1, TestNorm.QUASI_OPTIMAL, variant="augmented")
    assert spelled.qr is sol.qr
    assert _bitwise_equal(spelled.local_trial(), alone.local_trial())


def test_error_function_rejects_other_problem(initial):
    prob = example(1)
    sol = assemble_and_solve(initial, prob, 0, TestNorm.QUASI_OPTIMAL)
    for other, name in [(example(1), "coeffs"), (example(2), "coeffs"),
                        (dataclasses.replace(prob, f=lambda x: prob.f(x)), "f"),
                        (dataclasses.replace(prob, fvec=None), "fvec")]:
        with pytest.raises(ValueError, match=f"error_function needs the problem {name} "):
            error_function(initial, other, sol)
    with pytest.raises(ValueError, match="error_function needs the mesh"):
        error_function(refine_uniform(initial), prob, sol)
    # a copy with the same coefficients and load is the same problem
    error_function(initial, dataclasses.replace(prob, name="copy"), sol)


def test_solve_spd_memory(initial):
    # ex1/simple p2 on level 4: the traced peak of the solve (SuperLU's own
    # memory is not traced) stays below a quarter of the CSC bytes of A,
    # 0.08x measured: the norm makes no nnz-length array, and the
    # factorization reads A as assembled
    mesh = initial
    for _ in range(3):
        mesh = refine_uniform(mesh)
    prob = example(1)
    asm = ElementAssembler(mesh, prob.coeffs, 2)
    A, b = _assemble(mesh, 2, TestNorm.SIMPLE, asm, asm.loads(prob.f, prob.fvec))
    csc = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        res = _solve_spd(A, b, 1e-12)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res <= 1e-12
    assert peak <= 0.25 * csc


def test_solve_spd_leaves_non_canonical_input_alone():
    # unsorted row indices in a column: the factorization canonicalizes a
    # copy, the caller's arrays stay as they were
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    A = sp.csc_matrix((np.array([1.0, 4.0, 3.0, 1.0, 1.0, 2.0, 1.0]),
                       np.array([1, 0, 1, 0, 2, 2, 1], dtype=np.int32),
                       np.array([0, 2, 5, 7], dtype=np.int32)), shape=(3, 3))
    assert not A.has_sorted_indices
    indices, data = A.indices.copy(), A.data.copy()
    b = np.array([1.0, 2.0, 3.0])
    x, res, _ = _solve_spd(A, b, 1e-12)
    assert res <= 1e-12
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-14)
    assert _bitwise_equal(A.indices, indices) and _bitwise_equal(A.data, data)


# the peak RSS of this process image in kB; ru_maxrss would also count the
# RSS of the process that started it, which it inherits across fork and exec
_FACTOR_MEMORY_SCRIPT = """
import scipy.sparse as sp
from dpglab.dpg_solver import _factor

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))

A = sp.load_npz({path!r}).tocsc()
before = hwm()
lu = _factor(A)
print((hwm() - before) * 1024, (lu.L.nnz + lu.U.nnz) * 12)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc/self/status")
def test_factor_working_memory(initial, tmp_path):
    # ex1/qopt p0 level 5: the factorization's peak RSS growth stays within
    # 1.7x the bytes of the factor it keeps (12 per entry), 1.32x measured;
    # SuperLU's default panels of 20 columns hold a dense n x 20 work array
    # and index arrays of that shape, and grew it by 2.33x.  A is read from
    # a file in a fresh process so that no assembly transient sets the peak
    mesh = initial
    for _ in range(4):
        mesh = refine_uniform(mesh)
    A, _ = _system(mesh, 0, TestNorm.QUASI_OPTIMAL)
    path = tmp_path / "A.npz"
    sp.save_npz(path, A, compressed=False)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(dpglab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c",
                          _FACTOR_MEMORY_SCRIPT.format(path=str(path))],
                         env=env, capture_output=True, text=True, check=True)
    growth, factor_bytes = map(int, out.stdout.split())
    assert growth <= 1.7 * factor_bytes, (growth, factor_bytes)
