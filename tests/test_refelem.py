from math import factorial

import numpy as np
import pytest

from dpglab.refelem import (REF_EDGE_LENGTHS, REF_EDGE_NORMALS, REF_VERTICES,
                            RTBasis, edge_quadrature, lagrange_1d,
                            legendre_orthonormal_1d, scalar_basis,
                            triangle_quadrature)


def exact_monomial(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("deg", [0, 1, 2, 5, 8, 14, 20])
def test_triangle_quadrature_exactness(deg):
    rule = triangle_quadrature(deg)
    assert np.all(rule.weights > 0)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            got = (rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b).sum()
            assert got == pytest.approx(exact_monomial(a, b), rel=1e-13)


def test_triangle_quadrature_examples():
    rule = triangle_quadrature(4)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    got = (rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2).sum()
    assert got == pytest.approx(1.0 / 180.0, rel=1e-13)


def test_quadrature_rejects_negative_degree():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        edge_quadrature(-2)


def test_edge_quadrature():
    rule = edge_quadrature(3)
    assert (rule.weights * rule.points ** 3).sum() == pytest.approx(0.25, abs=1e-14)
    assert np.all(rule.weights > 0)


def test_scalar_basis_dimensions_and_constant():
    assert scalar_basis(0).dim == 1
    assert scalar_basis(2).dim == 6
    vals = scalar_basis(0).eval(np.array([[0.3, 0.2], [0.1, 0.7]]))
    assert np.allclose(vals, np.sqrt(2.0))


@pytest.mark.parametrize("p", [1, 3, 5])
def test_scalar_basis_orthonormal(p):
    rule = triangle_quadrature(2 * p)
    V = scalar_basis(p).eval(rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, V, V)
    assert np.abs(gram - np.eye(V.shape[1])).max() < 1e-12


def test_scalar_basis_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    pts = 0.1 + 0.35 * rng.random((20, 2))
    basis = scalar_basis(4)
    g = basis.grad(pts)
    h = 1e-6
    for c, step in enumerate((np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))):
        fd = (basis.eval(pts + step) - basis.eval(pts - step)) / (2 * h)
        scale = np.maximum(np.abs(g[:, :, c]), 1.0)
        assert np.max(np.abs(fd - g[:, :, c]) / scale) < 1e-6


def test_lagrange_1d_kronecker_and_partition():
    q = 3
    nodes = np.linspace(0, 1, q + 1)
    vals = lagrange_1d(q, nodes)
    assert np.allclose(vals, np.eye(q + 1), atol=1e-12)
    t = np.linspace(0.05, 0.95, 7)
    assert np.allclose(lagrange_1d(q, t).sum(axis=1), 1.0, atol=1e-12)


def test_legendre_orthonormal_1d():
    rule = edge_quadrature(10)
    V = legendre_orthonormal_1d(4, rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, V, V)
    assert np.abs(gram - np.eye(5)).max() < 1e-13


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_rt_basis_dof_identity(p):
    basis = RTBasis(p)
    assert basis.dim == (p + 1) * (p + 3)
    ident = np.column_stack([
        basis.apply_dofs(lambda x, j=j: basis.eval(x)[:, j, :])
        for j in range(basis.dim)])
    assert np.abs(ident - np.eye(basis.dim)).max() < 1e-12


def test_rt0_normal_traces_and_divergence():
    basis = RTBasis(0)
    assert basis.dim == 3
    rule = edge_quadrature(4)
    for j in range(3):
        va, vb = ((0, 1), (1, 2), (2, 0))[j]
        pts = ((1 - rule.points)[:, None] * REF_VERTICES[va]
               + rule.points[:, None] * REF_VERTICES[vb])
        tn = basis.eval(pts) @ REF_EDGE_NORMALS[j]
        for k in range(3):
            expected = (1.0 / REF_EDGE_LENGTHS[j]) if k == j else 0.0
            assert np.allclose(tn[:, k], expected, atol=1e-12)
    # divergences of RT^0 are constant
    pts = np.array([[0.2, 0.2], [0.6, 0.1], [0.1, 0.6]])
    div = basis.div(pts)
    assert np.abs(div - div[0]).max() < 1e-12


def test_rt1_dimension():
    assert RTBasis(1).dim == 8


@pytest.mark.parametrize("p", [0, 1])
def test_piola_preserves_edge_normal_moments(p):
    """The Piola map tau(x) = J tau_ref(x_ref) / det J preserves edge
    normal-flux pairings: the physical arclength moment of tau . n against
    q(s) equals the reference-edge moment against the same parameter
    polynomial."""
    from dpglab.mesh import build_initial_mesh

    mesh = build_initial_mesh()
    basis = RTBasis(p)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal(basis.dim)
    rule = edge_quadrature(2 * p + 6)
    leg = legendre_orthonormal_1d(p, rule.points)
    for t in (0, 7):
        J = mesh.jacobians[t]
        det = mesh.dets[t]
        for j in range(3):
            va, vb = ((0, 1), (1, 2), (2, 0))[j]
            ref = ((1 - rule.points)[:, None] * REF_VERTICES[va]
                   + rule.points[:, None] * REF_VERTICES[vb])
            tau_ref = np.einsum("i,qic->qc", coef, basis.eval(ref))
            tau_phys = tau_ref @ J.T / det
            n_phys = mesh.tri_edge_normals[t, j]
            length = mesh.tri_edge_lengths[t, j]
            got = np.einsum("q,q,qm->m", rule.weights * length,
                            tau_phys @ n_phys, leg)
            want = np.einsum("q,q,qm->m", rule.weights * REF_EDGE_LENGTHS[j],
                             tau_ref @ REF_EDGE_NORMALS[j], leg)
            assert np.allclose(got, want, atol=1e-12)
