import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from dpglab import postprocess
from dpglab.dpg_solver import Solution, SolverError, assemble_and_solve
from dpglab.forms import Coefficients, ElementAssembler, TestNorm
from dpglab.harness import l2_error
from dpglab.mesh import Mesh, build_initial_mesh, refine_uniform
from dpglab.postprocess import postprocess_u
from dpglab.problems import ProblemSpec, derive_data, example
from dpglab.refelem import scalar_tables, scalar_values, triangle_quadrature
from dpglab.spaces import build_dofmap, l2_project, trial_layout


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def _manual_solution(mesh, p, u_coeffs, sigma_coeffs, problem):
    dm = build_dofmap(mesh, p)
    fields = np.concatenate([u_coeffs, sigma_coeffs.reshape(mesh.n_triangles, -1)], axis=1)
    asm = ElementAssembler(mesh, problem.coeffs, p)
    return Solution(mesh=mesh, problem=problem, dofmap=dm, layout=trial_layout(p), p=p,
                    kind=TestNorm.QUASI_OPTIMAL, assembler=asm, x=np.zeros(dm.total),
                    fields=fields)


def _plain_problem(u, grad_u, laplace_u):
    coeffs = Coefficients.constant()
    sigma, div_sigma, f = derive_data(u, grad_u, laplace_u, coeffs)
    return ProblemSpec(name="plain", coeffs=coeffs, u=u, grad_u=grad_u,
                       laplace_u=laplace_u, fvec=None, f=f, sigma=sigma,
                       div_sigma=div_sigma)


def test_zero_drive_gives_elementwise_means(initial):
    rng = np.random.default_rng(2)
    p = 1
    prob = _plain_problem(lambda x: np.zeros(len(x)),
                          lambda x: np.zeros((len(x), 2)),
                          lambda x: np.zeros(len(x)))
    u_coeffs = rng.standard_normal((initial.n_triangles, 3))
    sigma_coeffs = np.zeros((initial.n_triangles, 2, 3))
    sol = _manual_solution(initial, p, u_coeffs, sigma_coeffs, prob)
    post = postprocess_u(initial, prob, sol)
    by_el = post.by_element()
    # constant with the same element mean: first orthonormal coefficient kept
    assert np.abs(by_el[:, 0] - u_coeffs[:, 0]).max() < 1e-12
    assert np.abs(by_el[:, 1:]).max() < 1e-12


def test_exact_reproduction_for_polynomial_solution(initial):
    # u in P^4, p = 3: the local Neumann problem is exact
    def u(x):
        return x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])

    def grad_u(x):
        return np.column_stack([
            (1 - 2 * x[:, 0]) * x[:, 1] * (1 - x[:, 1]),
            x[:, 0] * (1 - x[:, 0]) * (1 - 2 * x[:, 1]),
        ])

    def laplace_u(x):
        return -2 * (x[:, 1] * (1 - x[:, 1]) + x[:, 0] * (1 - x[:, 0]))

    p = 3
    prob = _plain_problem(u, grad_u, laplace_u)
    u_proj = l2_project(initial, p, u)
    sx, sy = l2_project(initial, p, prob.sigma)
    sigma_coeffs = np.stack([sx.by_element(), sy.by_element()], axis=1)
    sol = _manual_solution(initial, p, u_proj.by_element(), sigma_coeffs, prob)
    post = postprocess_u(initial, prob, sol)
    assert l2_error(initial, post, u) < 1e-10


def test_mean_preservation_on_solve(initial):
    mesh = refine_uniform(initial)
    prob = example(2)
    for p in (0, 1):
        sol = assemble_and_solve(mesh, prob, p, TestNorm.QUASI_OPTIMAL)
        post = postprocess_u(mesh, prob, sol)
        gap = np.abs(post.by_element()[:, 0] - sol.u.by_element()[:, 0])
        assert gap.max() < 1e-12


def test_result_degree(initial):
    prob = example(1)
    sol = assemble_and_solve(initial, prob, p=1, kind=TestNorm.SIMPLE)
    post = postprocess_u(initial, prob, sol)
    assert post.degree == 2
    assert post.data.size == initial.n_triangles * 6


def test_spot_value_example1_qopt_p0(initial):
    prob = example(1)
    sol = assemble_and_solve(initial, prob, p=0, kind=TestNorm.QUASI_OPTIMAL)
    post = postprocess_u(initial, prob, sol)
    assert l2_error(initial, post, prob.u) == pytest.approx(1.23e-01, rel=0.05)


def _dense_oracle(mesh, problem, sol):
    """Postprocessed coefficients from one dense bordered solve per element,
    with the physical fields evaluated element by element."""
    p = sol.p
    rule = triangle_quadrature(2 * (p + 1) + 6)
    w = rule.weights
    _, Pg = scalar_tables(p + 1, rule.points)
    n = Pg.shape[1]
    Uv = scalar_values(sol.u.degree, rule.points)
    Sv = scalar_values(p, rule.points)
    out = np.empty((mesh.n_triangles, n))
    for e, (X, cu, cs) in enumerate(zip(mesh.map_points(rule.points),
                                        sol.u.by_element(), sol.sigma)):
        sd = np.sqrt(mesh.dets[e])
        grad = Pg @ mesh.inv_ts[e].T  # (Q, n, 2) physical gradients times sd
        uh = Uv @ cu / sd
        sh = Sv @ cs.T / sd
        fv = problem.fvec(X) if problem.fvec is not None else np.zeros((len(X), 2))
        drive = (np.einsum("qcd,qd->qc", problem.coeffs.matrix(X), fv - sh)
                 + problem.coeffs.advection(X) * uh[:, None])
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = np.einsum("q,qic,qjc->ij", w, grad, grad)
        M[n, 0] = M[0, n] = sd / np.sqrt(2.0)
        b = np.append(sd * np.einsum("q,qc,qic->i", w, drive, grad), cu[0] * sd / np.sqrt(2.0))
        out[e] = np.linalg.solve(M, b)[:n]
    return out


def _assert_matches_oracle(mesh, problem, sol, monkeypatch):
    # in the default batches and in batches of 7 elements, which cut across
    # the classes and leave a ragged last batch
    want = _dense_oracle(mesh, problem, sol)
    for chunk in (postprocess._CHUNK, 7):
        monkeypatch.setattr(postprocess, "_CHUNK", chunk)
        got = postprocess_u(mesh, problem, sol).by_element()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _variable_problem():
    """Example 2 with x-dependent SPD C(x), beta(x) and fvec: every element
    is a class of its own."""
    def matrix(x):
        C = np.empty((len(x), 2, 2))
        C[:, 0, 0] = 2.0 + x[:, 0]
        C[:, 0, 1] = C[:, 1, 0] = 0.3 * np.sin(np.pi * x[:, 1])
        C[:, 1, 1] = 1.0 + x[:, 1] ** 2
        return C

    coeffs = Coefficients(matrix=matrix,
                          advection=lambda x: np.column_stack([1.0 + x[:, 1], -x[:, 0]]),
                          reaction=lambda x: np.full(len(x), 0.5))
    return dataclasses.replace(example(2), coeffs=coeffs,
                               fvec=lambda x: np.column_stack([x[:, 1], np.cos(x[:, 0])]))


def test_variable_coefficients_against_dense_oracle(initial, monkeypatch):
    # x-dependent C(x) and beta(x): every element is a class of its own; in
    # batches of 7 the 64 elements make 10 batches, the last one ragged
    prob = _variable_problem()
    mesh = refine_uniform(initial)
    rng = np.random.default_rng(5)
    p = 2
    sol = _manual_solution(mesh, p, rng.standard_normal((mesh.n_triangles, 6)),
                           rng.standard_normal((mesh.n_triangles, 2, 6)), prob)
    assert sol.assembler.classes.max() + 1 == mesh.n_triangles
    _assert_matches_oracle(mesh, prob, sol, monkeypatch)


def test_shared_classes_against_dense_oracle(initial, monkeypatch):
    # example 1 on level 3: 256 elements in 106 classes
    mesh = refine_uniform(refine_uniform(initial))
    prob = example(1)
    sol = assemble_and_solve(mesh, prob, 1, TestNorm.QUASI_OPTIMAL, variant="augmented")
    assert sol.assembler.classes.max() + 1 == 106
    _assert_matches_oracle(mesh, prob, sol, monkeypatch)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_example2_against_dense_oracle(initial, monkeypatch, p):
    mesh = refine_uniform(initial)
    prob = example(2)
    sol = assemble_and_solve(mesh, prob, p, TestNorm.QUASI_OPTIMAL)
    _assert_matches_oracle(mesh, prob, sol, monkeypatch)


def test_foreign_mesh_raises(initial):
    # the bordered matrices are formed on the solve's element classes: the
    # same mesh rotated by 90 degrees (same element count) gave err_post
    # 0.142 instead of 9.5e-4 without an error, a refined mesh a numpy
    # broadcast error
    mesh = refine_uniform(initial)
    prob = example(1)
    sol = assemble_and_solve(mesh, prob, 1, TestNorm.QUASI_OPTIMAL)
    rotated = Mesh(mesh.vertices @ np.array([[0.0, 1.0], [-1.0, 0.0]]) + [1.0, 0.0],
                   mesh.triangles)
    assert rotated.n_triangles == mesh.n_triangles
    for other in (rotated, refine_uniform(mesh)):
        with pytest.raises(ValueError, match="postprocess_u needs the mesh the "
                                             "solution was computed on"):
            postprocess_u(other, prob, sol)


def test_non_finite_drive_raises(initial, monkeypatch):
    # fvec is NaN on {x > 0.9}: the lowest element reaching there is named,
    # in the default batches and in batches of 7
    mesh = refine_uniform(initial)
    prob = example(1)
    sol = assemble_and_solve(mesh, prob, 1, TestNorm.QUASI_OPTIMAL)

    def fvec(x):
        return np.where((x[:, 0] > 0.9)[:, None], np.nan, prob.fvec(x))

    lowest = np.flatnonzero(mesh.vertices[mesh.triangles][:, :, 0].max(axis=1) > 0.9)[0]
    assert lowest >= 7  # past the first batch of 7
    for chunk in (postprocess._CHUNK, 7):
        monkeypatch.setattr(postprocess, "_CHUNK", chunk)
        with pytest.raises(SolverError, match=rf"postprocessing of element {lowest}\b"):
            postprocess_u(mesh, dataclasses.replace(prob, fvec=fvec), sol)


def test_non_finite_bordered_factor_raises():
    # element 1 is so small (det 1e-320) that its stiffness overflows
    t = 1e-160
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-t, -t], [0.0, -t], [-t, 0.0]],
                [[0, 1, 2], [3, 4, 5]])
    rng = np.random.default_rng(7)
    prob = _plain_problem(lambda x: np.zeros(len(x)), lambda x: np.zeros((len(x), 2)),
                          lambda x: np.zeros(len(x)))
    sol = _manual_solution(mesh, 1, rng.standard_normal((2, 3)), np.zeros((2, 2, 3)), prob)
    with pytest.raises(SolverError, match=re.escape("postprocessing of element 1:")), \
            np.errstate(over="ignore", invalid="ignore"):
        postprocess_u(mesh, prob, sol)


def test_postprocess_memory(initial):
    # ex1 level 6, p = 0, random coefficients (no global solve): the traced
    # peak stays below the bytes of one whole-mesh (nt, 2, 2, Q) array of C
    # at the postprocess rule, 12.5 MiB at Q = 25, both with example 1's 144
    # classes and with x-dependent C and beta, one class per element.
    # Measured: 56.1 MiB when the whole mesh was evaluated at once, 3.5 MiB
    # batch by batch; with one class per element, 56.4 MiB when the
    # bordered matrices of all classes were formed at once
    mesh = initial
    for _ in range(5):
        mesh = refine_uniform(mesh)
    assert mesh.n_triangles == 16384
    nq = len(triangle_quadrature(postprocess._postprocess_exactness(0)).weights)
    whole_mesh_C = mesh.n_triangles * 2 * 2 * nq * 8
    rng = np.random.default_rng(11)
    for prob, n_classes in ((example(1), 144), (_variable_problem(), mesh.n_triangles)):
        sol = _manual_solution(mesh, 0, rng.standard_normal((mesh.n_triangles, 1)),
                               rng.standard_normal((mesh.n_triangles, 2, 1)), prob)
        assert sol.assembler.classes.max() + 1 == n_classes
        tracemalloc.start()
        try:
            post = postprocess_u(mesh, prob, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(post.data).all()
        assert peak < whole_mesh_C
