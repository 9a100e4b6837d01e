"""Elementwise Neumann postprocessing of the scalar field.

From a solve (u_h, sigma_h) of degree p, a broken degree-(p+1) field
u_tilde is recovered per element from

    (grad u_tilde, grad v)_T = (C fvec - C sigma_h + beta u_h, grad v)_T
    (u_tilde, 1)_T = (u_h, 1)_T

for all v in P^{p+1}(T).  The mean constraint removes the constant kernel of
the local stiffness; it is enforced by a one-row bordered (Lagrange
multiplier) system, which stays trivially well conditioned at the element
sizes involved (dim P^{p+1} <= 15 for p <= 3).
"""

from __future__ import annotations

import numpy as np

from .dpg_solver import Solution, SolverError
from .mesh import Mesh
from .refelem import scalar_basis, triangle_quadrature
from .spaces import CoefficientVector

_SQRT2 = np.sqrt(2.0)


def postprocess_u(mesh: Mesh, problem, solution: Solution) -> CoefficientVector:
    """Local Neumann postprocessing; returns broken degree p+1 coefficients.

    The element mean of the result equals the element mean of ``solution.u``
    up to the local solver roundoff.
    """
    p = solution.p
    rule = triangle_quadrature(2 * (p + 1) + 6)
    w = rule.weights
    nt = mesh.n_triangles

    post = scalar_basis(p + 1)
    Pv, Pg = post.tables(rule.points)
    n = post.dim
    inv_t = mesh.inv_ts
    det = mesh.dets
    sdet = np.sqrt(det)
    Gp = np.einsum("ecd,qid->eqic", inv_t, Pg)  # physical gradients / sqrt(det)

    # field values of u_h and sigma_h at the quadrature points
    u = solution.u
    Uv = scalar_basis(u.degree).eval(rule.points)
    Sv = Uv if u.degree == p else scalar_basis(p).eval(rule.points)
    cu = u.by_element()
    uh = (cu @ Uv.T) / sdet[:, None]
    cs = solution.sigma
    sh = np.einsum("ecj,qj->eqc", cs, Sv) / sdet[:, None, None]

    X = mesh.map_points(rule.points)
    flat = X.reshape(-1, 2)
    C = np.asarray(problem.coeffs.matrix(flat)).reshape(nt, -1, 2, 2)
    beta = np.asarray(problem.coeffs.advection(flat)).reshape(nt, -1, 2)
    if problem.fvec is not None:
        fv = np.asarray(problem.fvec(flat)).reshape(nt, -1, 2)
    else:
        fv = np.zeros((nt, len(w), 2))
    drive = np.einsum("eqcd,eqd->eqc", C, fv - sh) + beta * uh[:, :, None]

    K = np.einsum("q,eqic,eqjc->eij", w, Gp, Gp)
    rhs = sdet[:, None] * np.einsum("q,eqc,eqic->ei", w, drive, Gp)

    # bordered system: [[K, c], [c^t, 0]] with c_i = int_T phi_i
    A = np.zeros((nt, n + 1, n + 1))
    A[:, :n, :n] = K
    A[:, n, 0] = A[:, 0, n] = sdet / _SQRT2
    b = np.zeros((nt, n + 1))
    b[:, :n] = rhs
    b[:, n] = cu[:, 0] * sdet / _SQRT2  # element mean of u_h (orthonormal basis)
    try:
        sol = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        for e in range(nt):
            try:
                np.linalg.solve(A[e], b[e])
            except np.linalg.LinAlgError:
                raise SolverError(f"postprocessing system singular on element {e}") from None
        raise SolverError(f"postprocessing solve failed: {exc}") from exc
    return CoefficientVector(sol[:, :n].ravel(), mesh, p + 1)
