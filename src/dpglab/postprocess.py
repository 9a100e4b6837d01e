"""Elementwise Neumann postprocessing of the scalar field.

From a solve (u_h, sigma_h) of degree p, a broken degree-(p+1) field
u_tilde is recovered per element from

    (grad u_tilde, grad v)_T = (C fvec - C sigma_h + beta u_h, grad v)_T
    (u_tilde, 1)_T = (u_h, 1)_T

for all v in P^{p+1}(T).  The mean constraint removes the constant kernel of
the local stiffness; it is enforced by a one-row bordered (Lagrange
multiplier) system, which stays trivially well conditioned at the element
sizes involved (dim P^{p+1} <= 15 for p <= 3).

The bordered matrix depends only on the element geometry, which is bitwise
equal on every element of a class of the solve's assembler (see
:class:`dpglab.forms.ElementAssembler`).  It is therefore formed and
inverted once per class: the gradient table is one matmul of the reference
gradients with the class's inverse transposed Jacobian, as in
:meth:`dpglab.mesh.Mesh.map_points`.  The right-hand side pulls the drive
back to the reference element, so all elements share one GEMM against the
reference gradients, and each element's coefficients are its class's
inverse applied to its right-hand side.
"""

from __future__ import annotations

import numpy as np

from .dpg_solver import Solution, SolverError
from .mesh import Mesh
from .refelem import scalar_tables, scalar_values, triangle_quadrature
from .spaces import CoefficientVector, broken_eval

_SQRT2 = np.sqrt(2.0)


def _postprocess_exactness(p: int) -> int:
    """Exactness of the volume quadrature of the postprocessing of a
    degree-p solve."""
    return 2 * (p + 1) + 6


def postprocess_u(mesh: Mesh, problem, solution: Solution) -> CoefficientVector:
    """Local Neumann postprocessing; returns broken degree p+1 coefficients.

    The element mean of the result equals the element mean of ``solution.u``
    up to the local solver roundoff.  ``mesh`` must be the mesh of the solve,
    whose element classes the bordered matrices are formed on; another mesh
    raises ValueError.  Raises :class:`SolverError` naming the lowest element
    whose drive or bordered factor is not finite.
    """
    if mesh is not solution.mesh:
        raise ValueError("postprocess_u needs the mesh the solution was computed on")
    p = solution.p
    rule = triangle_quadrature(_postprocess_exactness(p))
    w = rule.weights
    nt = mesh.n_triangles

    _, Pg = scalar_tables(p + 1, rule.points)  # (Q, n, 2)
    nq, n = Pg.shape[:2]
    sdet = np.sqrt(mesh.dets)

    # u_h, sigma_h and the drive at the quadrature points, one component
    # plane (e, 2, Q) per vector field
    u = solution.u
    uh = broken_eval(u, rule.points)
    sh = (solution.sigma @ scalar_values(p, rule.points).T) / sdet[:, None, None]

    X = mesh.map_points(rule.points)
    flat = X.reshape(-1, 2)
    C = np.asarray(problem.coeffs.matrix(flat)).reshape(nt, nq, 2, 2).transpose(0, 2, 3, 1)
    beta = np.asarray(problem.coeffs.advection(flat)).reshape(nt, nq, 2).transpose(0, 2, 1)
    g = -sh
    if problem.fvec is not None:
        g += np.asarray(problem.fvec(flat)).reshape(nt, nq, 2).transpose(0, 2, 1)
    drive = C[:, :, 0] * g[:, None, 0] + C[:, :, 1] * g[:, None, 1] + beta * uh[:, None]

    # bordered matrix [[K, c], [c^t, 0]] per class, c_i = int_T phi_i
    classes, firsts = solution.assembler.classes, solution.assembler._firsts
    Gp = Pg[None] @ np.swapaxes(mesh.inv_ts[firsts], 1, 2)[:, None]  # (c, Q, n, 2)
    Gw = (np.sqrt(w)[:, None, None] * Gp).swapaxes(2, 3).reshape(len(firsts), -1, n)
    M = np.zeros((len(firsts), n + 1, n + 1))
    M[:, :n, :n] = np.swapaxes(Gw, 1, 2) @ Gw
    M[:, n, 0] = M[:, 0, n] = sdet[firsts] / _SQRT2
    ok = np.isfinite(M).all(axis=(1, 2))
    M[~ok] = np.eye(n + 1)  # flagged already; LAPACK gets finite input only
    Minv = np.linalg.inv(M)
    ok &= np.isfinite(Minv).all(axis=(1, 2))

    # right-hand side: the drive pulled back by inv_t^t, one GEMM over all
    # elements against the weighted reference gradients; then the mean of u_h
    ref = np.swapaxes(mesh.inv_ts, 1, 2) @ drive  # (e, 2, Q)
    b = np.empty((nt, n + 1))
    b[:, :n] = ref.reshape(nt, -1) @ (w[:, None, None] * Pg).transpose(2, 0, 1).reshape(-1, n)
    b[:, :n] *= sdet[:, None]
    b[:, n] = u.by_element()[:, 0] * sdet / _SQRT2  # element mean of u_h (orthonormal basis)
    bad = ~(ok[classes] & np.isfinite(b).all(axis=1))
    if bad.any():
        raise SolverError(f"postprocessing of element {np.flatnonzero(bad)[0]}: "
                          "non-finite drive or bordered factor; check the problem "
                          "data and the solution")
    sol = np.einsum("eij,ej->ei", Minv[classes, :n], b)
    return CoefficientVector(sol.ravel(), mesh, p + 1)
