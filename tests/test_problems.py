import tracemalloc

import numpy as np
import pytest

from dpglab.forms import Coefficients
from dpglab.harness import l2_error
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.problems import derive_data, example, seam_clearance, zero_data_problem
from dpglab.refelem import triangle_quadrature
from dpglab.spaces import CoefficientVector


@pytest.fixture(scope="module", params=[1, 2])
def problem(request):
    return example(request.param)


def _random_points(n, seed=0):
    return np.random.default_rng(seed).random((n, 2))


def test_first_order_system_identity_a(problem):
    # grad u - beta u + C sigma - C fvec = 0 pointwise
    x = _random_points(100)
    C = problem.coeffs.matrix(x)
    beta = problem.coeffs.advection(x)
    lhs = (problem.grad_u(x) - beta * problem.u(x)[:, None]
           + np.einsum("ncd,nd->nc", C, problem.sigma(x)))
    if problem.fvec is not None:
        lhs -= np.einsum("ncd,nd->nc", C, problem.fvec(x))
    assert np.abs(lhs).max() < 1e-12


def test_first_order_system_identity_b(problem):
    # div sigma + gamma u - f = 0 pointwise on each smooth region
    x = _random_points(100, seed=1)
    lhs = (problem.div_sigma(x) + problem.coeffs.reaction(x) * problem.u(x)
           - problem.f(x))
    assert np.abs(lhs).max() < 1e-12


def test_solution_vanishes_on_boundary(problem):
    s = np.linspace(0.0, 1.0, 33)
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    for pts in (np.column_stack([s, zero]), np.column_stack([s, one]),
                np.column_stack([zero, s]), np.column_stack([one, s])):
        assert np.abs(problem.u(pts)).max() < 1e-14


def test_wellposedness_assumption(problem):
    # (1/2) div(C^{-1} beta) + gamma >= 0 holds because gamma >= 0 and
    # C^{-1} beta is constant on every element, so its divergence vanishes
    mesh = refine_uniform(build_initial_mesh())
    rule = triangle_quadrature(6)
    X = np.einsum("ecd,qd->eqc", mesh.jacobians, rule.points) + mesh.shifts[:, None, :]
    x = X.reshape(-1, 2)
    assert problem.coeffs.reaction(x).min() >= 0.0
    Cinv_beta = np.linalg.solve(problem.coeffs.matrix(x),
                                problem.coeffs.advection(x)[:, :, None])
    per_element = Cinv_beta.reshape(X.shape)
    assert np.abs(per_element - per_element[:, :1]).max() <= 1e-14


def test_example1_pointwise_data():
    prob = example(1)
    assert np.allclose(prob.fvec(np.array([[0.25, 0.1]])), [[1.0, 1.0]])
    assert np.allclose(prob.fvec(np.array([[0.75, 0.1]])), [[1.0, -1.0]])
    # literal branch on the jump line itself
    assert np.allclose(prob.fvec(np.array([[0.5, 0.1]])), [[1.0, -1.0]])
    gam = prob.coeffs.reaction(np.array([[0.5, 0.25], [0.5, 0.75], [0.1, 0.5]]))
    assert np.allclose(gam, [1.0, 0.5, 0.0])
    # inside the lower macro triangle: f = 2 pi^2 u + u
    x = np.array([[0.5, 0.25]])
    u = prob.u(x)
    assert np.allclose(prob.f(x), 2 * np.pi ** 2 * u + u, atol=1e-13)


def test_example2_derived_data():
    prob = example(2)
    x = _random_points(50, seed=3)
    u = prob.u(x)
    want_sigma = -prob.grad_u(x) + np.column_stack([u, u])
    assert np.abs(prob.sigma(x) - want_sigma).max() < 1e-14
    want_f = (2 * np.pi ** 2 * u
              + np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
              + np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]))
    assert np.abs(prob.f(x) - want_f).max() < 1e-12
    beta = prob.coeffs.advection(x)
    assert np.allclose(beta, [1.0, 1.0])


def test_derive_data_plain_diffusion():
    def u(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def grad_u(x):
        return np.pi * np.column_stack([
            np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
            np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])])

    def laplace_u(x):
        return -2 * np.pi ** 2 * u(x)

    sigma, _, f = derive_data(u, grad_u, laplace_u, Coefficients.constant())
    x = _random_points(20, seed=4)
    assert np.abs(sigma(x) + grad_u(x)).max() < 1e-14
    assert np.abs(f(x) - 2 * np.pi ** 2 * u(x)).max() < 1e-12


@pytest.mark.parametrize("prob, convective", [(example(1), False), (example(2), True),
                                               (zero_data_problem(), True)])
def test_derive_data_leaves_out_zero_convection(prob, convective):
    # with beta = 0 neither div sigma nor f evaluates grad u, and both equal
    # the general expression -laplace u + beta . grad u bit for bit, also
    # where grad u has negative components
    calls = []

    def counting_grad(x):
        calls.append(len(x))
        return prob.grad_u(x)

    sigma, div_sigma, f = derive_data(prob.u, counting_grad, prob.laplace_u, prob.coeffs,
                                      prob.fvec)
    x = _random_points(64, seed=6)
    beta = prob.coeffs.advection(x)[0]
    assert np.any(beta != 0) == convective
    want_div = -prob.laplace_u(x) + prob.grad_u(x) @ beta
    want_f = want_div + prob.coeffs.reaction(x) * prob.u(x)
    got_div, got_f = div_sigma(x), f(x)
    assert (len(calls) > 0) == convective
    assert got_div.tobytes() == want_div.tobytes()
    assert got_f.tobytes() == want_f.tobytes()
    assert got_div.tobytes() == prob.div_sigma(x).tobytes()
    assert got_f.tobytes() == prob.f(x).tobytes()
    grad = prob.grad_u(x)
    assert not grad.any() or np.any(grad < 0, axis=0).all()


def test_derive_data_validates_assumptions():
    def u(x):
        return np.zeros(len(x))

    def gu(x):
        return np.zeros((len(x), 2))

    with pytest.raises(ValueError):
        derive_data(u, gu, u, Coefficients.constant(C=np.diag([2.0, 1.0])))
    bad_beta = Coefficients(
        matrix=lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy(),
        advection=lambda x: x.copy(),
        reaction=lambda x: np.zeros(len(x)))
    with pytest.raises(ValueError):
        derive_data(u, gu, u, bad_beta)


def test_zero_data_problem():
    prob = zero_data_problem()
    x = _random_points(10, seed=5)
    assert np.abs(prob.f(x)).max() == 0.0
    assert np.abs(prob.sigma(x)).max() == 0.0


def test_exact_norm_calibrates_error_quadrature():
    # |u|_{L2} = 1/2 for u = sin(pi x) sin(pi y)
    mesh = build_initial_mesh()
    prob = example(1)
    zero = CoefficientVector(np.zeros(mesh.n_triangles), mesh, 0)
    assert abs(l2_error(mesh, zero, prob.u) - 0.5) < 1e-10


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        example(3)


def test_seam_clearance():
    prob = example(1)
    mesh = build_initial_mesh()
    for _ in range(3):
        rule = triangle_quadrature(10)
        assert seam_clearance(prob, mesh, rule) > 1e-12
        mesh = refine_uniform(mesh)
    assert seam_clearance(example(2), mesh, triangle_quadrature(4)) == np.inf


def test_seam_clearance_maps_points_in_batches():
    # ex1 on level 6 (16,384 elements, 36 points each): the points are mapped
    # a batch of elements at a time, so the traced peak stays below a quarter
    # of the 9.4 MB that the points of the whole mesh take (1.3 MB measured;
    # mapping them all at once peaked at 42 MB), and the clearance is the
    # minimum over all points bit for bit
    prob = example(1)
    mesh = build_initial_mesh()
    for _ in range(5):
        mesh = refine_uniform(mesh)
    rule = triangle_quadrature(10)
    whole = mesh.map_points(rule.points)
    want = float(prob.seam_distance(whole.reshape(-1, 2)).min())
    whole_bytes = whole.nbytes
    del whole
    tracemalloc.start()
    try:
        got = seam_clearance(prob, mesh, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 0.25 * whole_bytes
