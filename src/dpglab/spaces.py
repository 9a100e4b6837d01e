"""Global trial DOF maps, broken L2 projection and Raviart-Thomas
interpolation.

Trial fields and their element-local column layout (shared with the element
assembly in :mod:`dpglab.forms`):

* ``u``: broken scalars, degree p (p+1 for the augmented variant),
* ``sigma``: broken vectors, degree p, x-component block then y-component,
* ``uhat``: skeleton traces of continuous degree-(p+1) functions vanishing on
  the boundary; local columns are the 3 triangle vertices followed by p nodes
  per local edge, ordered along the global lo->hi edge direction,
* ``sighat``: single-valued normal-trace polynomials of degree p per edge in
  an L2(E)-orthonormal Legendre basis of the lo->hi edge parameter; assembly
  applies the orientation sign n_T . n_E.

Boundary ``uhat`` DOFs do not exist (homogeneous Dirichlet data); gather
entries for them are -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .refelem import (RTBasis, edge_quadrature, legendre_1d, ref_edge_points,
                      scalar_basis, scalar_dim, triangle_quadrature)


@dataclass(frozen=True)
class TrialLayout:
    """Element-local trial column layout for degree p."""

    p: int
    variant: str
    pu: int  # degree of u: p + 1 for the augmented variant, else p
    nu: int
    ns: int
    n_uhat: int  # 3 * (1 + p)
    n_sighat: int  # 3 * (p + 1)

    @property
    def u0(self) -> int:
        return 0

    @property
    def sx0(self) -> int:
        return self.nu

    @property
    def sy0(self) -> int:
        return self.nu + self.ns

    @property
    def uh0(self) -> int:
        return self.nu + 2 * self.ns

    @property
    def sh0(self) -> int:
        return self.uh0 + self.n_uhat

    @property
    def total(self) -> int:
        return self.sh0 + self.n_sighat


def trial_layout(p: int, variant: str = "standard") -> TrialLayout:
    if variant not in ("standard", "augmented"):
        raise ValueError(f"unknown variant {variant!r}")
    pu = p + 1 if variant == "augmented" else p
    return TrialLayout(p=p, variant=variant, pu=pu, nu=scalar_dim(pu),
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
    psi = scalar_basis(cv.degree).eval(ref_points)
    scale = 1.0 / np.sqrt(cv.mesh.dets)
    return (cv.by_element() @ psi.T) * scale[:, None]


class DofMap:
    """Deterministic global numbering of the four trial fields."""

    def __init__(self, mesh: Mesh, p: int, variant: str = "standard"):
        if p < 0:
            raise ValueError("degree must be >= 0")
        self.mesh = mesh
        self.p = p
        self.variant = variant
        self.layout = trial_layout(p, variant)
        lay = self.layout
        nt, ne = mesh.n_triangles, mesh.n_edges

        iv = mesh.interior_vertex_ids()
        ie = mesh.interior_edge_ids()
        self.n_interior_vertices = int((iv >= 0).sum())
        self.n_interior_edges = int((ie >= 0).sum())

        self.n_u = nt * lay.nu
        self.n_sigma = 2 * nt * lay.ns
        self.n_uhat = self.n_interior_vertices + p * self.n_interior_edges
        self.n_sighat = (p + 1) * ne
        self.offsets = {
            "u": 0,
            "sigma": self.n_u,
            "uhat": self.n_u + self.n_sigma,
            "sighat": self.n_u + self.n_sigma + self.n_uhat,
        }
        self.total = self.n_u + self.n_sigma + self.n_uhat + self.n_sighat

        gather = np.empty((nt, lay.total), dtype=np.int64)
        el = np.arange(nt)[:, None]
        gather[:, lay.u0:lay.u0 + lay.nu] = el * lay.nu + np.arange(lay.nu)
        base_s = self.offsets["sigma"] + el * 2 * lay.ns
        gather[:, lay.sx0:lay.sx0 + 2 * lay.ns] = base_s + np.arange(2 * lay.ns)

        off_uh = self.offsets["uhat"]
        vert_ids = iv[mesh.triangles]
        gather[:, lay.uh0:lay.uh0 + 3] = np.where(vert_ids >= 0, off_uh + vert_ids, -1)
        for j in range(3):
            cols = lay.uh0 + 3 + j * p + np.arange(p)
            eid = ie[mesh.tri_edges[:, j]]
            base = off_uh + self.n_interior_vertices + eid[:, None] * p
            gather[:, cols] = np.where(eid[:, None] >= 0, base + np.arange(p), -1)

        off_sh = self.offsets["sighat"]
        for j in range(3):
            cols = lay.sh0 + j * (p + 1) + np.arange(p + 1)
            gather[:, cols] = off_sh + mesh.tri_edges[:, j:j + 1] * (p + 1) + np.arange(p + 1)
        gather.setflags(write=False)
        self.gather = gather

    def field_slice(self, name: str) -> slice:
        sizes = {"u": self.n_u, "sigma": self.n_sigma,
                 "uhat": self.n_uhat, "sighat": self.n_sighat}
        start = self.offsets[name]
        return slice(start, start + sizes[name])

    def local_vector(self, x: np.ndarray) -> np.ndarray:
        """Gather a global vector to (nt, n_local); absent boundary-uhat DOFs
        contribute zero."""
        g = self.gather
        return np.where(g >= 0, x[np.clip(g, 0, None)], 0.0)


def build_dofmap(mesh: Mesh, p: int, variant: str = "standard") -> DofMap:
    return DofMap(mesh, p, variant)


def l2_project(mesh: Mesh, p: int, f, exactness: int | None = None):
    """Elementwise L2 projection onto broken P^p.

    With the orthonormal basis the coefficients are plain load integrals.
    ``f(points) -> (n,)`` gives a CoefficientVector; ``-> (n, 2)`` gives a
    tuple of CoefficientVectors, one per component.
    """
    rule = triangle_quadrature(2 * p + 6 if exactness is None else exactness)
    psi = scalar_basis(p).eval(rule.points)
    X = mesh.map_points(rule.points)
    vals = np.asarray(f(X.reshape(-1, 2)))
    sdet = np.sqrt(mesh.dets)
    if vals.ndim == 1:
        fv = vals.reshape(mesh.n_triangles, -1)
        coef = sdet[:, None] * np.einsum("q,eq,qi->ei", rule.weights, fv, psi)
        return CoefficientVector(coef.ravel(), mesh, p)
    fv = vals.reshape(mesh.n_triangles, -1, 2)
    out = []
    for c in range(2):
        coef = sdet[:, None] * np.einsum("q,eq,qi->ei", rule.weights, fv[:, :, c], psi)
        out.append(CoefficientVector(coef.ravel(), mesh, p))
    return tuple(out)


@dataclass(frozen=True)
class RTCoefficients:
    """Global H(div)-conforming RT^p interpolant.

    ``edge_moments[E, k]`` is the moment of the normal trace (against the
    global normal) with the k-th Legendre polynomial of the lo->hi edge
    parameter in arclength measure; ``interior_moments`` holds element
    moments against (P^{p-1})^2.  Element coefficient recovery solves the
    matching local moment systems, so the normal trace is single-valued by
    construction.
    """

    mesh: Mesh = field(repr=False)
    degree: int
    edge_moments: np.ndarray  # (ne, p+1)
    interior_moments: np.ndarray  # (nt, p*(p+1))

    def local_coeffs(self) -> np.ndarray:
        """(nt, dim) coefficients in the Piola-mapped reference RT basis."""
        M, _ = _rt_local_moment_systems(self.mesh, self.degree)
        p = self.degree
        nt = self.mesh.n_triangles
        rhs = np.empty((nt, (p + 1) * (p + 3)))
        for j in range(3):
            rhs[:, j * (p + 1):(j + 1) * (p + 1)] = \
                self.edge_moments[self.mesh.tri_edges[:, j]]
        if p >= 1:
            rhs[:, 3 * (p + 1):] = self.interior_moments
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]

    def div(self, ref_points: np.ndarray) -> np.ndarray:
        """Divergence values at reference points per element, (nt, nq)."""
        dref = RTBasis(self.degree).div(ref_points)  # (nq, dim)
        return (self.local_coeffs() @ dref.T) / self.mesh.dets[:, None]

    def eval(self, ref_points: np.ndarray) -> np.ndarray:
        """Field values at reference points per element, (nt, nq, 2)."""
        vref = RTBasis(self.degree).eval(ref_points)  # (nq, dim, 2)
        piola = np.einsum("ecd,qid->eqic", self.mesh.jacobians, vref)
        piola /= self.mesh.dets[:, None, None, None]
        return np.einsum("ei,eqic->eqc", self.local_coeffs(), piola)


def _rt_local_moment_systems(mesh: Mesh, p: int):
    """Moment matrices of the Piola-mapped RT basis w.r.t. the *global* edge
    and interior functionals, batched over elements: (nt, dim, dim)."""
    basis = RTBasis(p)
    dim = basis.dim
    nt = mesh.n_triangles
    erule = edge_quadrature(2 * p + 4)
    leg_fwd = legendre_1d(p, erule.points)
    leg_rev = legendre_1d(p, 1.0 - erule.points)
    M = np.empty((nt, dim, dim))
    for j in range(3):
        vref = basis.eval(ref_edge_points(erule.points, j))  # (nq, dim, 2)
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
        psi = scalar_basis(p - 1).eval(rule.points)  # (nq, npsi)
        vref = basis.eval(rule.points)
        piola = np.einsum("ecd,qid->eqic", mesh.jacobians, vref) / mesh.dets[:, None, None, None]
        w = rule.weights[None, :] * mesh.dets[:, None]
        rows = np.einsum("eq,qm,eqic->emci", w, psi, piola)
        M[:, 3 * (p + 1):, :] = rows.reshape(nt, -1, dim)
    return M, basis


def rt_interpolate(mesh: Mesh, p: int, tau, exactness: int | None = None) -> RTCoefficients:
    """Interpolate a vector field with single-valued normal traces into
    global RT^p by matching edge normal-trace moments and interior moments.

    ``tau(points) -> (n, 2)`` must be piecewise smooth; on interior edges it
    is evaluated on the edge itself, so its normal component must be
    single-valued there.  The default moment quadrature carries extra
    exactness because the commuting property only holds up to the accuracy
    of the computed moments for non-polynomial fields.
    """
    erule = edge_quadrature(2 * p + 10 if exactness is None else exactness)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    pts = lo[:, None, :] + erule.points[None, :, None] * (hi - lo)[:, None, :]
    vals = np.asarray(tau(pts.reshape(-1, 2))).reshape(mesh.n_edges, -1, 2)
    tn = np.einsum("eqc,ec->eq", vals, mesh.edge_normals)
    leg = legendre_1d(p, erule.points)
    wlen = erule.weights[None, :] * mesh.edge_lengths[:, None]
    edge_moments = np.einsum("eq,qm->em", wlen * tn, leg)

    if p >= 1:
        rule = triangle_quadrature(2 * p + 10 if exactness is None else exactness)
        psi = scalar_basis(p - 1).eval(rule.points)
        X = mesh.map_points(rule.points)
        fv = np.asarray(tau(X.reshape(-1, 2))).reshape(mesh.n_triangles, -1, 2)
        w = rule.weights[None, :] * mesh.dets[:, None]
        interior = np.einsum("eq,qm,eqc->emc",
                             w, psi, fv).reshape(mesh.n_triangles, -1)
    else:
        interior = np.zeros((mesh.n_triangles, 0))
    return RTCoefficients(mesh, p, edge_moments, interior)
