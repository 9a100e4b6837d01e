"""Global trial DOF maps, broken L2 projection and Raviart-Thomas
interpolation.

Trial fields and their element-local column layout, stated once by
:class:`TrialLayout`; the element assembly in :mod:`dpglab.forms` assembles
B against the layout it is given.  The columns of every layout are ordered
[u_p | sigma_x | sigma_y | u_extra | uhat | sighat]:

* ``u``: broken scalars, degree p (p+1 for the augmented variant).  The
  modal basis is hierarchical, so the u of degree p+1 is the u of degree p
  (its first ``ns`` columns) and the p+2 columns of degree p+1, which the
  augmented layout places after sigma (``u_extra``); the standard layout
  is thus the augmented one without its ``u_extra`` columns,
* ``sigma``: broken vectors, degree p, x-component block then y-component,
* ``uhat``: skeleton traces of continuous degree-(p+1) functions vanishing on
  the boundary; local columns are the 3 triangle vertices followed by p nodes
  per local edge, ordered along the global lo->hi edge direction,
* ``sighat``: single-valued normal-trace polynomials of degree p per edge in
  an L2(E)-orthonormal Legendre basis of the lo->hi edge parameter; assembly
  applies the orientation sign n_T . n_E.

Only ``uhat`` and ``sighat`` are numbered globally (:class:`DofMap`); u
and sigma are element-local.  Boundary ``uhat`` DOFs do not exist
(homogeneous Dirichlet data); gather entries for them are -1, which index
the one slot past the end of a global vector extended by one entry: the
solver scatters into such a vector and drops that slot, and gathers from
one whose last entry is zero.

:func:`rt_interpolate` keeps one coefficient row per element in the
Piola-mapped spanning set of RT^p (:func:`dpglab.refelem.rt_span`); one
batched solve of the element moment systems computes them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .refelem import (LOCAL_EDGES, edge_quadrature, legendre_1d, ref_edge_points,
                      rt_span, scalar_dim, scalar_values, triangle_quadrature)


@dataclass(frozen=True)
class TrialLayout:
    """Element-local trial column layout for degree p, the one owner of the
    column order [u_p | sigma_x | sigma_y | u_extra | uhat | sighat] (see
    the module doc)."""

    p: int
    pu: int  # degree of u: p + 1 for the augmented variant, else p
    nu: int
    ns: int
    n_uhat: int  # 3 * (1 + p)
    n_sighat: int  # 3 * (p + 1)

    @property
    def u_cols(self) -> np.ndarray:
        """The columns of the nu u coefficients, in basis order: u_p, then
        u_extra."""
        return np.r_[0:self.ns, 3 * self.ns:self.uh0]

    @property
    def sx0(self) -> int:
        return self.ns

    @property
    def sy0(self) -> int:
        return 2 * self.ns

    @property
    def uh0(self) -> int:
        return self.nu + 2 * self.ns

    @property
    def sh0(self) -> int:
        return self.uh0 + self.n_uhat

    @property
    def total(self) -> int:
        return self.sh0 + self.n_sighat

    def uhat_cols(self, j: int) -> np.ndarray:
        """Local uhat columns of local edge j = (a, b): vertex a, the p edge
        nodes in global lo->hi order, vertex b."""
        a, b = LOCAL_EDGES[j]
        return self.uh0 + np.array([a, *range(3 + j * self.p, 3 + (j + 1) * self.p), b])

    def sighat_cols(self, j: int) -> np.ndarray:
        """Local sighat columns of local edge j, one per Legendre degree."""
        return self.sh0 + j * (self.p + 1) + np.arange(self.p + 1)


def trial_layout(p: int, variant: str = "standard") -> TrialLayout:
    if variant not in ("standard", "augmented"):
        raise ValueError(f"unknown variant {variant!r}")
    pu = p + 1 if variant == "augmented" else p
    return TrialLayout(p=p, pu=pu, nu=scalar_dim(pu),
                       ns=scalar_dim(p), n_uhat=3 * (1 + p), n_sighat=3 * (p + 1))


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of a broken scalar field in the orthonormal basis scaled
    by 1/sqrt(det J) per element (so the physical basis is L2(T)-orthonormal).
    """

    data: np.ndarray  # flat, length nt * dim
    mesh: Mesh = field(repr=False)
    degree: int

    def __post_init__(self):
        if self.data.size != self.mesh.n_triangles * scalar_dim(self.degree):
            raise ValueError("coefficient length does not match mesh/degree")

    def by_element(self) -> np.ndarray:
        return self.data.reshape(self.mesh.n_triangles, scalar_dim(self.degree))


def broken_eval(cv: CoefficientVector, ref_points: np.ndarray) -> np.ndarray:
    """Field values at the same reference points in every element, (nt, nq)."""
    psi = scalar_values(cv.degree, ref_points)
    return (cv.by_element() @ psi.T) / np.sqrt(cv.mesh.dets)[:, None]


class DofMap:
    """Deterministic global numbering of the skeleton trial DOFs.

    u and sigma live in broken spaces: their coefficients belong to one
    element each, and the solve eliminates them element by element (see
    :mod:`dpglab.dpg_solver`).  Only the traces couple elements, so only
    they are numbered: the interior uhat DOFs first, by interior vertex id
    and then p per interior edge id, then the sighat DOFs, p+1 per edge id.
    :attr:`gather` maps the skeleton columns of every element (the local
    columns of a :class:`TrialLayout` from ``uh0`` on, the same for both
    variants) to global DOFs, so one map serves both.
    """

    def __init__(self, mesh: Mesh, p: int):
        if p < 0:
            raise ValueError("degree must be >= 0")
        self.mesh = mesh
        self.p = p
        lay = trial_layout(p)
        nt = mesh.n_triangles

        iv = mesh.interior_vertex_ids()
        ie = mesh.interior_edge_ids()
        self.n_interior_vertices = int((iv >= 0).sum())
        self.n_interior_edges = int((ie >= 0).sum())
        self.n_uhat = self.n_interior_vertices + p * self.n_interior_edges
        self.n_sighat = (p + 1) * mesh.n_edges
        self.total = self.n_uhat + self.n_sighat

        gather = np.empty((nt, lay.total - lay.uh0), dtype=np.int64)
        gather[:, :3] = iv[mesh.triangles]
        for j in range(3):
            eid = ie[mesh.tri_edges[:, j]][:, None]
            gather[:, lay.uhat_cols(j)[1:-1] - lay.uh0] = np.where(
                eid >= 0, self.n_interior_vertices + eid * p + np.arange(p), -1)
            gather[:, lay.sighat_cols(j) - lay.uh0] = \
                self.n_uhat + mesh.tri_edges[:, j:j + 1] * (p + 1) + np.arange(p + 1)
        gather.setflags(write=False)
        self.gather = gather


def build_dofmap(mesh: Mesh, p: int) -> DofMap:
    return DofMap(mesh, p)


def l2_project(mesh: Mesh, p: int, f, exactness: int | None = None):
    """Elementwise L2 projection onto broken P^p.

    With the orthonormal basis the coefficients are plain load integrals.
    ``f(points) -> (n,)`` gives a CoefficientVector; ``-> (n, 2)`` gives a
    tuple of CoefficientVectors, one per component.
    """
    rule = triangle_quadrature(2 * p + 6 if exactness is None else exactness)
    return _project_values(mesh, p, rule, _exact_values(mesh, rule, f))


def _exact_values(mesh: Mesh, rule, f) -> np.ndarray:
    """Values of ``f`` at the mapped points of ``rule`` in every element:
    (nt, nq) for a scalar field, (nt, nq, 2) for a vector field."""
    vals = np.asarray(f(mesh.map_points(rule.points).reshape(-1, 2)))
    return vals.reshape(mesh.n_triangles, len(rule.weights), *vals.shape[1:])


def _project_values(mesh: Mesh, p: int, rule, vals: np.ndarray):
    """The L2 projection onto broken P^p of the values ``vals`` of
    :func:`_exact_values` at ``rule``; one CoefficientVector per component
    of a vector field."""
    if vals.ndim == 3:
        return tuple(_project_values(mesh, p, rule, vals[:, :, c]) for c in range(2))
    psi = scalar_values(p, rule.points)
    coef = np.sqrt(mesh.dets)[:, None] * np.einsum("q,eq,qi->ei", rule.weights, vals, psi)
    return CoefficientVector(coef.ravel(), mesh, p)


@dataclass(frozen=True)
class RTCoefficients:
    """Global H(div)-conforming RT^p interpolant.

    ``coeffs[T]`` expands the field on element T in the Piola-mapped
    spanning set :func:`dpglab.refelem.rt_span`.  The coefficients match
    the moments of the normal trace on each edge, which are computed once
    per edge against the global normal, so the normal trace is
    single-valued by construction.
    """

    mesh: Mesh = field(repr=False)
    degree: int
    coeffs: np.ndarray  # (nt, (p+1)(p+3))

    def div(self, ref_points: np.ndarray) -> np.ndarray:
        """Divergence values at reference points per element, (nt, nq)."""
        dref = rt_span(self.degree, ref_points)[1]  # (nq, dim)
        return (self.coeffs @ dref.T) / self.mesh.dets[:, None]

    def eval(self, ref_points: np.ndarray) -> np.ndarray:
        """Field values at reference points per element, (nt, nq, 2)."""
        vref = rt_span(self.degree, ref_points)[0]  # (nq, dim, 2)
        piola = np.einsum("ecd,qid->eqic", self.mesh.jacobians, vref)
        piola /= self.mesh.dets[:, None, None, None]
        return np.einsum("ei,eqic->eqc", self.coeffs, piola)


def _rt_local_moment_systems(mesh: Mesh, p: int) -> np.ndarray:
    """Moments of the Piola-mapped spanning set of RT^p against the
    *global* edge and interior functionals, batched over elements:
    (nt, dim, dim), one row per functional and one column per member."""
    dim = (p + 1) * (p + 3)
    nt = mesh.n_triangles
    erule = edge_quadrature(2 * p + 4)
    leg_fwd = legendre_1d(p, erule.points)
    leg_rev = legendre_1d(p, 1.0 - erule.points)
    M = np.empty((nt, dim, dim))
    for j in range(3):
        vref = rt_span(p, ref_edge_points(erule.points, j))[0]  # (nq, dim, 2)
        piola = np.einsum("ecd,qid->eqic", mesh.jacobians, vref) / mesh.dets[:, None, None, None]
        n_e = mesh.edge_normals[mesh.tri_edges[:, j]]  # (nt, 2) global normal
        tn = np.einsum("eqic,ec->eqi", piola, n_e)
        # global parameter runs lo->hi; flip the local direction if needed
        flip = mesh.tri_edge_flip[:, j]
        legf = np.where(flip[:, None, None], leg_rev[None], leg_fwd[None])
        wlen = erule.weights[None, :] * mesh.tri_edge_lengths[:, j:j + 1]
        M[:, j * (p + 1):(j + 1) * (p + 1), :] = np.einsum("eq,eqm,eqi->emi", wlen, legf, tn)
    if p >= 1:
        rule = triangle_quadrature(2 * p + 4)
        psi = scalar_values(p - 1, rule.points)  # (nq, npsi)
        vref = rt_span(p, rule.points)[0]
        piola = np.einsum("ecd,qid->eqic", mesh.jacobians, vref) / mesh.dets[:, None, None, None]
        w = rule.weights[None, :] * mesh.dets[:, None]
        rows = np.einsum("eq,qm,eqic->emci", w, psi, piola)
        M[:, 3 * (p + 1):, :] = rows.reshape(nt, -1, dim)
    return M


def rt_interpolate(mesh: Mesh, p: int, tau, exactness: int | None = None) -> RTCoefficients:
    """Interpolate a vector field with single-valued normal traces into
    global RT^p by matching edge normal-trace moments and interior moments.

    The edge moments are against the Legendre polynomials of the lo->hi
    edge parameter in arclength measure, the interior ones (p >= 1) against
    (P^{p-1})^2.  ``tau(points) -> (n, 2)`` must be piecewise smooth; on
    interior edges it is evaluated on the edge itself, so its normal
    component must be single-valued there.  The default moment quadrature
    carries extra exactness because the commuting property only holds up to
    the accuracy of the computed moments for non-polynomial fields.
    """
    nt = mesh.n_triangles
    erule = edge_quadrature(2 * p + 10 if exactness is None else exactness)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    pts = lo[:, None, :] + erule.points[None, :, None] * (hi - lo)[:, None, :]
    vals = np.asarray(tau(pts.reshape(-1, 2))).reshape(mesh.n_edges, -1, 2)
    tn = np.einsum("eqc,ec->eq", vals, mesh.edge_normals)
    leg = legendre_1d(p, erule.points)
    wlen = erule.weights[None, :] * mesh.edge_lengths[:, None]
    moments = np.einsum("eq,qm->em", wlen * tn, leg)  # (ne, p+1)

    rhs = np.empty((nt, (p + 1) * (p + 3)))
    for j in range(3):
        rhs[:, j * (p + 1):(j + 1) * (p + 1)] = moments[mesh.tri_edges[:, j]]
    if p >= 1:
        rule = triangle_quadrature(2 * p + 10 if exactness is None else exactness)
        psi = scalar_values(p - 1, rule.points)
        X = mesh.map_points(rule.points)
        fv = np.asarray(tau(X.reshape(-1, 2))).reshape(nt, -1, 2)
        w = rule.weights[None, :] * mesh.dets[:, None]
        rhs[:, 3 * (p + 1):] = np.einsum("eq,qm,eqc->emc", w, psi, fv).reshape(nt, -1)
    M = _rt_local_moment_systems(mesh, p)
    return RTCoefficients(mesh, p, np.linalg.solve(M, rhs[:, :, None])[:, :, 0])
