from math import factorial

import numpy as np
import pytest
from scipy.special import eval_jacobi, eval_legendre

from dpglab import refelem
from dpglab.refelem import (edge_quadrature, lagrange_1d, legendre_1d,
                            legendre_orthonormal_1d, ref_edge_points, rt_span,
                            scalar_dim, scalar_tables, scalar_values,
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
    pts = np.array([[0.3, 0.2], [0.1, 0.7]])
    assert scalar_values(0, pts).shape == (2, scalar_dim(0)) == (2, 1)
    assert scalar_values(2, pts).shape == (2, scalar_dim(2)) == (2, 6)
    assert np.allclose(scalar_values(0, pts), np.sqrt(2.0))
    with pytest.raises(ValueError, match="degree must be >= 0"):
        scalar_tables(-1, pts)


@pytest.mark.parametrize("p", [1, 3, 5])
def test_scalar_basis_orthonormal(p):
    rule = triangle_quadrature(2 * p)
    V = scalar_values(p, rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, V, V)
    assert np.abs(gram - np.eye(V.shape[1])).max() < 1e-12


def test_scalar_basis_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    pts = 0.1 + 0.35 * rng.random((20, 2))
    g = scalar_tables(4, pts)[1]
    h = 1e-6
    for c, step in enumerate((np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))):
        fd = (scalar_values(4, pts + step) - scalar_values(4, pts - step)) / (2 * h)
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


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_polynomials_match_scipy_special(p, monkeypatch):
    # the numpy recurrences against scipy.special on every rule up to the
    # exactness 2p + 24 of the acceptance checks; the Jacobi values agree
    # bit for bit, the Legendre ones but at x = 0, where scipy sums a series
    for e in range(2 * 4 + 25):
        tri, edge = triangle_quadrature(e).points, edge_quadrature(e).points
        got = (*scalar_tables(p, tri), legendre_1d(p, edge))
        with monkeypatch.context() as m:
            m.setattr(refelem, "_jacobi", eval_jacobi)
            m.setattr(refelem, "_legendre", eval_legendre)
            want = (*scalar_tables(p, tri), legendre_1d(p, edge))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_rt_span_dimension():
    # (p+1)(p+3) members of full rank, whose divergences match central
    # differences of their values
    rng = np.random.default_rng(5)
    pts = 0.1 + 0.4 * rng.random((30, 2))
    h = 1e-6
    for p in range(4):
        dim = (p + 1) * (p + 3)
        vals, div = rt_span(p, pts)
        assert vals.shape == (30, dim, 2) and div.shape == (30, dim)
        assert np.linalg.matrix_rank(vals.transpose(0, 2, 1).reshape(-1, dim)) == dim
        fd = sum((rt_span(p, pts + step)[0][:, :, c] - rt_span(p, pts - step)[0][:, :, c])
                 / (2 * h) for c, step in enumerate(np.array([[h, 0.0], [0.0, h]])))
        assert np.abs(fd - div).max() < 1e-6 * max(1.0, np.abs(div).max())


def test_rt0_span_divergence_is_constant():
    pts = np.array([[0.2, 0.2], [0.6, 0.1], [0.1, 0.6]])
    div = rt_span(0, pts)[1]
    assert np.abs(div - div[0]).max() < 1e-12


@pytest.mark.parametrize("p", [0, 1])
def test_piola_preserves_edge_normal_moments(p):
    """The Piola map tau(x) = J tau_ref(x_ref) / det J preserves edge
    normal-flux pairings: the physical arclength moment of tau . n against
    q(s) equals the reference-edge moment against the same parameter
    polynomial."""
    from dpglab.mesh import build_initial_mesh

    # outward unit normals and lengths of the reference edges
    s2 = 1.0 / np.sqrt(2.0)
    ref_normals = np.array([[0.0, -1.0], [s2, s2], [-1.0, 0.0]])
    ref_lengths = np.array([1.0, np.sqrt(2.0), 1.0])
    mesh = build_initial_mesh()
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((p + 1) * (p + 3))
    rule = edge_quadrature(2 * p + 6)
    leg = legendre_orthonormal_1d(p, rule.points)
    for t in (0, 7):
        J = mesh.jacobians[t]
        det = mesh.dets[t]
        for j in range(3):
            tau_ref = np.einsum("i,qic->qc", coef, rt_span(p, ref_edge_points(rule.points, j))[0])
            tau_phys = tau_ref @ J.T / det
            n_phys = mesh.tri_edge_normals[t, j]
            length = mesh.tri_edge_lengths[t, j]
            got = np.einsum("q,q,qm->m", rule.weights * length,
                            tau_phys @ n_phys, leg)
            want = np.einsum("q,q,qm->m", rule.weights * ref_lengths[j],
                             tau_ref @ ref_normals[j], leg)
            assert np.allclose(got, want, atol=1e-12)
