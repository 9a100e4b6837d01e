"""Reference-triangle bases and quadrature.

Reference triangle: conv{(0,0), (1,0), (0,1)}, area 1/2.  Scalar broken
fields use an L2-orthonormal modal basis (collapsed-coordinate Jacobi
construction evaluated through a singularity-free recurrence), which makes
element mass blocks exact identities and keeps the Gram solves well
conditioned.  Skeleton traces use nodal Lagrange data; H(div) interpolation
uses a Raviart-Thomas basis defined by edge and interior moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# reference edge j runs from vertex j to vertex j+1 mod 3
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
_S2 = 1.0 / np.sqrt(2.0)
REF_EDGE_NORMALS = np.array([[0.0, -1.0], [_S2, _S2], [-1.0, 0.0]])
REF_EDGE_LENGTHS = np.array([1.0, np.sqrt(2.0), 1.0])


def ref_edge_points(s: np.ndarray, j: int) -> np.ndarray:
    """Points of reference edge ``j`` at the parameters ``s`` in [0, 1],
    running from vertex ``LOCAL_EDGES[j][0]`` to ``LOCAL_EDGES[j][1]``;
    shape (len(s), 2)."""
    a, b = LOCAL_EDGES[j]
    return (1 - s)[:, None] * REF_VERTICES[a] + s[:, None] * REF_VERTICES[b]


def scalar_dim(p: int) -> int:
    return (p + 1) * (p + 2) // 2


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule; ``points`` are reference coordinates."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Rule exact for all polynomials of total degree <= ``exactness``.

    Built as a collapsed tensor Gauss rule on the unit square mapped by
    (a, b) -> (a(1-b), b); the (1-b) Jacobian is absorbed into the weights,
    so all weights stay positive and any degree is supported.
    """
    if exactness < 0:
        raise ValueError(f"quadrature exactness must be >= 0, got {exactness}")
    na = exactness // 2 + 1
    nb = (exactness + 1) // 2 + 1  # integrand picks up one extra degree in b
    xa, wa = leggauss(na)
    xb, wb = leggauss(nb)
    xa, wa = 0.5 * (xa + 1.0), 0.5 * wa
    xb, wb = 0.5 * (xb + 1.0), 0.5 * wb
    A, B = np.meshgrid(xa, xb, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    points = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
    weights = (WA * WB * (1.0 - B)).ravel()
    return QuadratureRule(points, weights, exactness)


def edge_quadrature(exactness: int) -> QuadratureRule:
    """Gauss rule on the parameter interval [0, 1]."""
    if exactness < 0:
        raise ValueError(f"quadrature exactness must be >= 0, got {exactness}")
    n = exactness // 2 + 1
    x, w = leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, exactness)


def _jacobi(n: int, alpha: int, beta: int, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomial P_n^(alpha, beta)(x) of integer order and weights.

    The recurrence runs on the differences d_k = p_{k+1} - p_k of the
    polynomials normalized to p_k(1) = 1 and ends with the factor
    binom(n + alpha, n) = P_n(1), in the order of operations of
    ``scipy.special.eval_jacobi`` for an integer order.
    """
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (alpha + 1) + (alpha + beta + 2) * (x - 1))
    d = (alpha + beta + 2) * (x - 1) / (2 * (alpha + 1))
    p = d + 1
    for k in range(1, n):
        t = 2 * k + alpha + beta
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p + 2 * k * (k + beta) * (t + 2) * d) \
            / (2 * (k + alpha + 1) * (k + alpha + beta + 1) * t)
        p = d + p
    return comb(n + alpha, n) * p


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_n(x), by the recurrence on the differences
    d_k = P_{k+1} - P_k that ``scipy.special.eval_legendre`` uses for an
    integer order."""
    if n == 0:
        return np.ones_like(x)
    d, p = x - 1, x
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p = d + p
    return p


def _modal_tables(p: int, points: np.ndarray):
    """Values and gradients of the orthonormal modal basis.

    The basis member indexed by (m, n) is
    ``c * P_m(a) * ((1-y)/2 * 2)^m * J_n^{(2m+1,0)}(2y-1)`` in collapsed
    coordinates ``a = 2x/(1-y) - 1``; the product ``P_m(a) (1-y)^m`` is
    evaluated by a three-term recurrence that never divides by ``1-y``, so
    the top vertex is safe.  Ordering: total degree, then m ascending.
    """
    x = points[:, 0]
    y = points[:, 1]
    npts = len(x)
    L = np.zeros((p + 1, npts))
    Lx = np.zeros((p + 1, npts))
    Ly = np.zeros((p + 1, npts))
    L[0] = 1.0
    if p >= 1:
        L[1] = 2.0 * x + y - 1.0
        Lx[1] = 2.0
        Ly[1] = 1.0
    t = 1.0 - y
    a = 2.0 * x + y - 1.0
    for m in range(1, p):
        L[m + 1] = ((2 * m + 1) * a * L[m] - m * t * t * L[m - 1]) / (m + 1)
        Lx[m + 1] = ((2 * m + 1) * (2.0 * L[m] + a * Lx[m]) - m * t * t * Lx[m - 1]) / (m + 1)
        Ly[m + 1] = ((2 * m + 1) * (L[m] + a * Ly[m])
                     - m * (t * t * Ly[m - 1] - 2.0 * t * L[m - 1])) / (m + 1)
    b = 2.0 * y - 1.0
    vals, gx, gy = [], [], []
    for d in range(p + 1):
        for m in range(d + 1):
            n = d - m
            c = np.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
            J = _jacobi(n, 2 * m + 1, 0, b)
            if n >= 1:
                Jy = (n + 2 * m + 2) * _jacobi(n - 1, 2 * m + 2, 1, b)
            else:
                Jy = np.zeros(npts)
            vals.append(c * L[m] * J)
            gx.append(c * Lx[m] * J)
            gy.append(c * (Ly[m] * J + L[m] * Jy))
    return (np.array(vals).T,
            np.stack([np.array(gx).T, np.array(gy).T], axis=2))


class ScalarBasis:
    """L2(ref)-orthonormal polynomial basis of P^p on the reference triangle."""

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("degree must be >= 0")
        self.degree = p
        self.dim = scalar_dim(p)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values, shape (npoints, dim)."""
        return _modal_tables(self.degree, np.atleast_2d(points))[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Basis gradients, shape (npoints, dim, 2)."""
        return _modal_tables(self.degree, np.atleast_2d(points))[1]

    def tables(self, points: np.ndarray):
        """(values, gradients) in one pass."""
        return _modal_tables(self.degree, np.atleast_2d(points))


@lru_cache(maxsize=None)
def scalar_basis(p: int) -> ScalarBasis:
    return ScalarBasis(p)


def lagrange_1d(q: int, t: np.ndarray) -> np.ndarray:
    """Values of the q+1 nodal polynomials on uniform nodes k/q, k=0..q.

    Shape (len(t), q+1); column k is the degree-q polynomial that is 1 at
    node k/q and 0 at the other nodes.
    """
    nodes = np.linspace(0.0, 1.0, q + 1)
    V = np.vander(nodes, q + 1, increasing=True)
    P = np.vander(np.atleast_1d(t), q + 1, increasing=True)
    return P @ np.linalg.inv(V)


def legendre_1d(p: int, t: np.ndarray) -> np.ndarray:
    """Legendre polynomials P_k(2t-1), k = 0..p, on [0,1]; shape (len(t), p+1).
    The leading one is the constant 1 (the RT edge-moment normalization)."""
    t = np.atleast_1d(t)
    return np.column_stack([_legendre(k, 2.0 * t - 1.0) for k in range(p + 1)])


def legendre_orthonormal_1d(p: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre basis on [0,1]; shape (len(t), p+1)."""
    return np.sqrt(2 * np.arange(p + 1) + 1) * legendre_1d(p, t)


class RTBasis:
    """Raviart-Thomas basis RT^p on the reference triangle.

    Degrees of freedom: for each edge, moments of the (outward) normal trace
    against Legendre polynomials in the edge parameter (arclength measure,
    leading moment against the constant 1); for p >= 1, interior moments
    against (P^{p-1})^2.  The stored basis is dual to these functionals.
    """

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("degree must be >= 0")
        self.degree = p
        self.dim = (p + 1) * (p + 3)
        self.n_edge_dofs = 3 * (p + 1)

        # spanning set: (psi_i, 0), (0, psi_i), then x * (homogeneous degree p)
        self._span_scalar = scalar_basis(p)
        self._n_s = self._span_scalar.dim

        rule = triangle_quadrature(max(2 * p, 2 * (p + 1)))
        erule = edge_quadrature(2 * p + 2)
        D = np.empty((self.dim, self.dim))
        D[:self.n_edge_dofs] = self._edge_moments_of_span(erule)
        if p >= 1:
            D[self.n_edge_dofs:] = self._interior_moments_of_span(rule)
        self._dual = np.linalg.inv(D)  # span coefficients of the nodal basis

    # -- spanning set -----------------------------------------------------
    def _span_eval(self, points: np.ndarray) -> np.ndarray:
        """(npts, dim, 2) values of the spanning set."""
        points = np.atleast_2d(points)
        p, ns = self.degree, self._n_s
        psi = self._span_scalar.eval(points)
        out = np.zeros((len(points), self.dim, 2))
        out[:, :ns, 0] = psi
        out[:, ns:2 * ns, 1] = psi
        x, y = points[:, 0], points[:, 1]
        for a in range(p + 1):
            h = x ** (p - a) * y ** a
            out[:, 2 * ns + a, 0] = x * h
            out[:, 2 * ns + a, 1] = y * h
        return out

    def _span_div(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        p, ns = self.degree, self._n_s
        g = self._span_scalar.grad(points)
        out = np.zeros((len(points), self.dim))
        out[:, :ns] = g[:, :, 0]
        out[:, ns:2 * ns] = g[:, :, 1]
        x, y = points[:, 0], points[:, 1]
        for a in range(p + 1):
            # div((x,y) h) = (p + 2) h for h homogeneous of degree p
            out[:, 2 * ns + a] = (p + 2) * x ** (p - a) * y ** a
        return out

    def _edge_moments_of_span(self, erule) -> np.ndarray:
        p = self.degree
        rows = np.empty((self.n_edge_dofs, self.dim))
        leg = legendre_1d(p, erule.points)
        for j in range(3):
            vals = self._span_eval(ref_edge_points(erule.points, j))
            tn = vals @ REF_EDGE_NORMALS[j]
            block = np.einsum("k,km,ki->mi", erule.weights * REF_EDGE_LENGTHS[j], leg, tn)
            rows[j * (p + 1):(j + 1) * (p + 1)] = block
        return rows

    def _interior_moments_of_span(self, rule) -> np.ndarray:
        psi = scalar_basis(self.degree - 1).eval(rule.points)
        vals = self._span_eval(rule.points)
        n_int = 2 * psi.shape[1]
        rows = np.empty((n_int, self.dim))
        rows[0::2] = np.einsum("k,km,ki->mi", rule.weights, psi, vals[:, :, 0])
        rows[1::2] = np.einsum("k,km,ki->mi", rule.weights, psi, vals[:, :, 1])
        return rows

    # -- public evaluators ------------------------------------------------
    def eval(self, points: np.ndarray) -> np.ndarray:
        """(npoints, dim, 2) values of the nodal basis."""
        return np.einsum("qic,ij->qjc", self._span_eval(points), self._dual)

    def div(self, points: np.ndarray) -> np.ndarray:
        return self._span_div(points) @ self._dual

    def apply_dofs(self, func) -> np.ndarray:
        """Apply the defining functionals to a vector field on the reference
        triangle; ``func(points) -> (npoints, 2)``."""
        p = self.degree
        erule = edge_quadrature(2 * p + 2 + 10)
        out = np.empty(self.dim)
        leg = legendre_1d(p, erule.points)
        for j in range(3):
            vals = np.atleast_2d(func(ref_edge_points(erule.points, j)))
            tn = vals @ REF_EDGE_NORMALS[j]
            out[j * (p + 1):(j + 1) * (p + 1)] = np.einsum(
                "k,km,k->m", erule.weights * REF_EDGE_LENGTHS[j], leg, tn)
        if p >= 1:
            rule = triangle_quadrature(2 * p + 10)
            psi = scalar_basis(p - 1).eval(rule.points)
            vals = np.atleast_2d(func(rule.points))
            out[self.n_edge_dofs + 0::2] = np.einsum("k,km,k->m", rule.weights, psi, vals[:, 0])
            out[self.n_edge_dofs + 1::2] = np.einsum("k,km,k->m", rule.weights, psi, vals[:, 1])
        return out
