"""Reference-triangle bases and quadrature.

Reference triangle: conv{(0,0), (1,0), (0,1)}, area 1/2.  Scalar broken
fields use an L2-orthonormal modal basis (collapsed-coordinate Jacobi
construction evaluated through a singularity-free recurrence), which makes
element mass blocks exact identities and keeps the Gram solves well
conditioned.  Skeleton traces use nodal Lagrange data.  Raviart-Thomas
fields are expanded in the spanning set of RT^p (:func:`rt_span`), which is
a basis; :mod:`dpglab.spaces` fixes the coefficients per element from the
edge and interior moments.  Every basis is a plain function of the degree
and the points that returns its tables.
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
    """Positive-weight rule; ``points`` are reference coordinates.  The
    arrays are read-only: a rule is built once per exactness and shared by
    every caller."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Rule exact for all polynomials of total degree <= ``exactness``.

    Built as a collapsed tensor Gauss rule on the unit square mapped by
    (a, b) -> (a(1-b), b); the (1-b) Jacobian is absorbed into the weights,
    so all weights stay positive and any degree is supported.  Built once
    per exactness.
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


@lru_cache(maxsize=None)
def edge_quadrature(exactness: int) -> QuadratureRule:
    """Gauss rule on the parameter interval [0, 1], built once per
    exactness."""
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


def scalar_tables(p: int, points: np.ndarray):
    """Values (npoints, dim) and gradients (npoints, dim, 2) of the
    L2(ref)-orthonormal modal basis of P^p on the reference triangle.

    The basis member indexed by (m, n) is
    ``c * P_m(a) * ((1-y)/2 * 2)^m * J_n^{(2m+1,0)}(2y-1)`` in collapsed
    coordinates ``a = 2x/(1-y) - 1``; the product ``P_m(a) (1-y)^m`` is
    evaluated by a three-term recurrence that never divides by ``1-y``, so
    the top vertex is safe.  Ordering: total degree, then m ascending, so
    the basis is hierarchical: the first ``scalar_dim(d)`` columns are the
    degree-d basis bit for bit.
    """
    if p < 0:
        raise ValueError("degree must be >= 0")
    points = np.atleast_2d(points)
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


def scalar_values(p: int, points: np.ndarray) -> np.ndarray:
    """Values (npoints, dim) of the orthonormal basis of P^p."""
    return scalar_tables(p, points)[0]


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


def rt_span(p: int, points: np.ndarray):
    """Values (npoints, dim, 2) and divergences (npoints, dim) of the
    spanning set of RT^p = (P^p)^2 + x P~^p on the reference triangle.

    The members are (psi_i, 0) and (0, psi_i) for the orthonormal basis
    psi_i of P^p, then (x, y) h_a for the homogeneous h_a = x^(p-a) y^a,
    a = 0..p; the sum is direct, so they are a basis of dimension
    (p + 1)(p + 3).
    """
    points = np.atleast_2d(points)
    psi, dpsi = scalar_tables(p, points)
    ns = psi.shape[1]
    vals = np.zeros((len(points), 2 * ns + p + 1, 2))
    div = np.empty((len(points), 2 * ns + p + 1))
    vals[:, :ns, 0] = psi
    vals[:, ns:2 * ns, 1] = psi
    div[:, :ns] = dpsi[:, :, 0]
    div[:, ns:2 * ns] = dpsi[:, :, 1]
    x, y = points[:, 0], points[:, 1]
    for a in range(p + 1):
        h = x ** (p - a) * y ** a
        vals[:, 2 * ns + a] = points * h[:, None]
        # div((x, y) h) = (p + 2) h for h homogeneous of degree p
        div[:, 2 * ns + a] = (p + 2) * h
    return vals, div
