"""Manufactured problems on the unit square.

The exact scalar field is chosen first and the data derived from the
first-order system

    grad u - beta u + C sigma = C fvec,     div sigma + gamma u = f,

so every solve has a known solution against which L2 errors are measured.
Both shipped examples use u(x, y) = sin(pi x) sin(pi y) and the identity
diffusion matrix:

* example 1: beta = 0; gamma is a piecewise constant on the two macro
  triangles conv{(0,0),(1,0),(1/2,1/2)} (value 1) and
  conv{(1,1),(0,1),(1/2,1/2)} (value 1/2), zero elsewhere; fvec jumps from
  (1,1) on {x < 1/2} to (1,-1) on {x >= 1/2} and is divergence free on each
  half.  All jump lines are unions of edges of the initial mesh.
* example 2: fvec = 0, gamma = 0 and constant convection beta = (1,1);
  the convective term is what separates the quasi-optimal test norm from
  the simple one in the convergence studies.

Points exactly on a jump line are resolved by the stated case conditions
(closed macro triangles first; the literal x >= 1/2 branch for fvec); volume
quadrature nodes are strictly interior to elements and therefore never land
on an aligned jump line, which `seam_clearance` lets callers verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import Coefficients
from .mesh import Mesh
from .refelem import QuadratureRule

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, exact solution and derived data of one model problem."""

    name: str
    coeffs: Coefficients
    u: Field
    grad_u: Field
    laplace_u: Field
    fvec: Field | None
    f: Field
    sigma: Field
    div_sigma: Field
    seam_distance: Field | None = None  # distance to coefficient jump lines


def derive_data(u: Field, grad_u: Field, laplace_u: Field, coeffs: Coefficients,
                fvec: Field | None = None, div_fvec: Field | None = None):
    """Derive (sigma, div sigma, f) from an exact solution.

    Requires the identity diffusion matrix and constant convection (checked
    at probe points): then sigma = fvec - grad u + beta u and
    div sigma = div fvec - laplace u + beta . grad u, which only needs the
    Laplacian, not the full Hessian.
    """
    rng = np.random.default_rng(1234)
    probes = rng.random((32, 2))
    Cp = np.asarray(coeffs.matrix(probes))
    if not np.allclose(Cp, np.eye(2), atol=1e-14):
        raise ValueError("derive_data requires the identity diffusion matrix")
    bp = np.asarray(coeffs.advection(probes))
    if not np.allclose(bp, bp[0], atol=1e-14):
        raise ValueError("derive_data requires constant convection")
    beta = bp[0].copy()

    def sigma(x):
        g = np.asarray(grad_u(x))
        s = -g + np.asarray(u(x))[:, None] * beta
        if fvec is not None:
            s = s + np.asarray(fvec(x))
        return s

    def div_sigma(x):
        d = -np.asarray(laplace_u(x)) + np.asarray(grad_u(x)) @ beta
        if div_fvec is not None:
            d = d + np.asarray(div_fvec(x))
        return d

    def f(x):
        return div_sigma(x) + np.asarray(coeffs.reaction(x)) * np.asarray(u(x))

    return sigma, div_sigma, f


def _sin_solution():
    def u(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def grad_u(x):
        return np.pi * np.column_stack([
            np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
            np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        ])

    def laplace_u(x):
        return -2.0 * np.pi ** 2 * u(x)

    return u, grad_u, laplace_u


def _make_spec(name, coeffs, fvec=None, div_fvec=None, seam_distance=None,
               u_fields=None) -> ProblemSpec:
    u, grad_u, laplace_u = _sin_solution() if u_fields is None else u_fields
    sigma, div_sigma, f = derive_data(u, grad_u, laplace_u, coeffs, fvec, div_fvec)
    return ProblemSpec(name=name, coeffs=coeffs, u=u, grad_u=grad_u,
                       laplace_u=laplace_u, fvec=fvec, f=f, sigma=sigma,
                       div_sigma=div_sigma, seam_distance=seam_distance)


def _in_lower_macro(x):
    # closed triangle conv{(0,0),(1,0),(1/2,1/2)}
    return (x[:, 1] >= 0) & (x[:, 1] <= x[:, 0]) & (x[:, 1] <= 1.0 - x[:, 0])


def _in_upper_macro(x):
    # closed triangle conv{(1,1),(0,1),(1/2,1/2)}
    return (x[:, 1] <= 1) & (x[:, 1] >= x[:, 0]) & (x[:, 1] >= 1.0 - x[:, 0])


def example(ident: int) -> ProblemSpec:
    """Shipped manufactured problems; ``ident`` is 1 or 2."""
    if ident == 1:
        def gamma(x):
            return np.where(_in_lower_macro(x), 1.0,
                            np.where(_in_upper_macro(x), 0.5, 0.0))

        def fvec(x):
            right = x[:, 0] >= 0.5
            return np.column_stack([np.ones(len(x)), np.where(right, -1.0, 1.0)])

        def seam_distance(x):
            return np.minimum.reduce([
                np.abs(x[:, 0] - 0.5),
                np.abs(x[:, 1] - x[:, 0]) / np.sqrt(2.0),
                np.abs(x[:, 1] - (1.0 - x[:, 0])) / np.sqrt(2.0),
            ])

        coeffs = Coefficients(
            matrix=lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy(),
            advection=lambda x: np.zeros((len(x), 2)),
            reaction=gamma)
        return _make_spec("example-1 (piecewise reaction, jumping load)", coeffs,
                          fvec=fvec, seam_distance=seam_distance)
    if ident == 2:
        coeffs = Coefficients.constant(beta=(1.0, 1.0))
        return _make_spec("example-2 (constant convection)", coeffs)
    raise ValueError(f"unknown example id {ident}; expected 1 or 2")


def zero_data_problem(coeffs: Coefficients | None = None) -> ProblemSpec:
    """Zero solution and zero data; nonzero coefficients by default so the
    solve still exercises every term."""
    if coeffs is None:
        coeffs = Coefficients.constant(beta=(1.0, 1.0), gamma=0.5)

    def zero_s(x):
        return np.zeros(len(x))

    def zero_v(x):
        return np.zeros((len(x), 2))

    return _make_spec("zero-data", coeffs, u_fields=(zero_s, zero_v, zero_s))


def seam_clearance(problem: ProblemSpec, mesh: Mesh, rule: QuadratureRule) -> float:
    """Smallest distance from any mapped volume quadrature point to a
    coefficient jump line; +inf for problems without jumps."""
    if problem.seam_distance is None:
        return np.inf
    X = np.einsum("ecd,qd->eqc", mesh.jacobians, rule.points) + mesh.shifts[:, None, :]
    return float(problem.seam_distance(X.reshape(-1, 2)).min())

