import numpy as np
import pytest

from dpglab.dpg_solver import Solution, assemble_and_solve
from dpglab.forms import Coefficients, ElementAssembler, TestNorm
from dpglab.harness import l2_error
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.postprocess import postprocess_u
from dpglab.problems import ProblemSpec, derive_data, example
from dpglab.spaces import build_dofmap, l2_project


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def _manual_solution(mesh, p, u_coeffs, sigma_coeffs):
    dm = build_dofmap(mesh, p)
    x = np.zeros(dm.total)
    x[dm.field_slice("u")] = u_coeffs.ravel()
    x[dm.field_slice("sigma")] = sigma_coeffs.reshape(mesh.n_triangles, -1).ravel()
    asm = ElementAssembler(mesh, Coefficients.constant(), p)
    return Solution(mesh=mesh, dofmap=dm, p=p, kind=TestNorm.QUASI_OPTIMAL,
                    variant="standard", assembler=asm, x=x)


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
    sol = _manual_solution(initial, p, u_coeffs, sigma_coeffs)
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
    sol = _manual_solution(initial, p, u_proj.by_element(), sigma_coeffs)
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
