"""Practical DPG solve via element condensation.

Per element the optimal-test-function problem reduces to the normal equations

    S_T = B_T^t G_T^{-1} B_T,    r_T = B_T^t G_T^{-1} F_T,

with G_T the SPD Gram matrix of the chosen test inner product on the enriched
broken test space.  Summing S_T, r_T over elements gives a sparse symmetric
positive definite system for all trial DOFs (field DOFs couple to the traces
of their own element; trace DOFs couple neighbours).  The homogeneous
Dirichlet condition holds by construction: boundary trace DOFs of the scalar
field never exist.

The global system is solved one way only: Jacobi equilibration to unit
diagonal, a SuperLU factorization in symmetric mode (minimum-degree ordering
of A + A^t, diagonal pivots), and iterative refinement until the normwise
backward error is below the solver tolerance.  A solve that fails to factor
or to certify raises :class:`SolverError`; there is no fallback.

The discrete Riesz representative of the residual ("error function") is
recovered per element as eps_T = G_T^{-1} (F_T - B_T u_T); its test-norm is an
energy error estimate and B_T^t eps_T summed over elements reproduces the
algebraic residual (Galerkin orthogonality).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import ElementAssembler, TestNorm
from .mesh import Mesh
from .spaces import CoefficientVector, DofMap, build_dofmap

DEFAULT_CHUNK = 16384


class SolverError(RuntimeError):
    """Raised when an element Gram factorization or the global solve fails."""


@dataclass
class Solution:
    """Discrete solution of one DPG solve."""

    mesh: Mesh = field(repr=False)
    dofmap: DofMap = field(repr=False)
    p: int
    kind: TestNorm
    variant: str
    k1: int
    k2: int
    x: np.ndarray = field(repr=False)  # full trial coefficient vector
    residual: float = 0.0

    @property
    def u(self) -> CoefficientVector:
        pu = self.p + 1 if self.variant == "augmented" else self.p
        return CoefficientVector(np.array(self.x[self.dofmap.field_slice("u")]),
                                 self.mesh, pu)

    @property
    def sigma(self) -> np.ndarray:
        """(nt, 2, ns) component coefficients."""
        ns = self.dofmap.layout.ns
        return self.x[self.dofmap.field_slice("sigma")].reshape(
            self.mesh.n_triangles, 2, ns)

    @property
    def uhat(self) -> np.ndarray:
        return self.x[self.dofmap.field_slice("uhat")]

    @property
    def sighat(self) -> np.ndarray:
        return self.x[self.dofmap.field_slice("sighat")]

    def local_trial(self) -> np.ndarray:
        """(nt, n_local) element trial vectors; boundary traces are zero."""
        return self.dofmap.local_vector(self.x)


@dataclass
class EnergyError:
    """Error function coefficients and norms, plus the assembled Galerkin
    orthogonality residual sum_T B_T^t eps_T."""

    eps: np.ndarray = field(repr=False)  # (nt, n_test)
    element_norms: np.ndarray  # (nt,)
    total: float
    orth_residual: np.ndarray = field(repr=False)
    rhs_norm: float


def condense_element(system) -> tuple[np.ndarray, np.ndarray]:
    """Schur data (S, r) of one element system; S is symmetrized exactly."""
    G = np.asarray(system.G, dtype=float)
    B = np.asarray(system.B, dtype=float)
    F = np.asarray(system.F, dtype=float)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"element Gram matrix is not SPD: {exc}") from exc
    X = np.linalg.solve(G, np.concatenate([B, F[:, None]], axis=1))
    S = B.T @ X[:, :-1]
    return 0.5 * (S + S.T), B.T @ X[:, -1]


def _chunks(n: int, size: int):
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def _condense_batch(B, G, F, els):
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        for i in range(len(G)):
            try:
                np.linalg.cholesky(G[i])
            except np.linalg.LinAlgError:
                raise SolverError(
                    f"Gram matrix of element {els[i]} is not SPD; "
                    "check coefficients and quadrature") from None
        raise
    X = np.linalg.solve(G, np.concatenate([B, F[:, :, None]], axis=2))
    S = np.einsum("eij,eik->ejk", B, X[:, :, :-1])
    return 0.5 * (S + np.swapaxes(S, 1, 2)), np.einsum("eij,ei->ej", B, X[:, :, -1])


def assemble_global(mesh: Mesh, dofmap: DofMap, asm: ElementAssembler,
                    kind: TestNorm, f, fvec, chunk: int = DEFAULT_CHUNK):
    """Assemble the condensed SPD system (CSC matrix, rhs)."""
    n = dofmap.total
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for els in _chunks(mesh.n_triangles, chunk):
        B = asm.b_matrices(els)
        G = asm.gram(kind, els)
        F = asm.loads(f, fvec, els)
        S, r = _condense_batch(B, G, F, els)
        g = dofmap.gather[els]
        keep = g >= 0
        np.add.at(rhs, g[keep], r[keep])
        m, nl = g.shape
        ri = np.broadcast_to(g[:, :, None], (m, nl, nl))
        ci = np.broadcast_to(g[:, None, :], (m, nl, nl))
        ok = (ri >= 0) & (ci >= 0)
        rows.append(ri[ok])
        cols.append(ci[ok])
        vals.append(S[ok])
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsc()
    return A, rhs


def _factor_equilibrated(A):
    """Jacobi-equilibrate the SPD matrix ``A`` and factor it.

    Returns ``(s, lu)`` with ``lu`` the SuperLU factor of ``diag(s) A diag(s)``
    and ``s = diag(A)^{-1/2}``, so ``x = s * lu.solve(s * b)`` solves
    ``A x = b``.  The scaled matrix has unit diagonal and stays SPD, so it is
    factored as such: a minimum-degree ordering of the pattern of A + A^t
    (Liu's multiple-elimination MMD) applied symmetrically to rows and
    columns, and diagonal pivots only.  Gaussian elimination without
    pivoting is backward stable on SPD matrices, and the unit diagonal keeps
    the pivots well scaled; the partial-pivoting COLAMD default of SuperLU
    fills the factor several times more.
    """
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverError("condensed matrix has non-positive diagonal entries "
                          "(rank deficiency)")
    # symmetric Jacobi equilibration: trace and field blocks carry different
    # powers of h, and balancing them keeps the factorization accurate
    s = 1.0 / np.sqrt(d)
    D = sp.diags(s)
    try:
        lu = spla.splu((D @ A @ D).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"SuperLU factorization of the {A.shape[0]}x{A.shape[1]} "
                          f"condensed system failed: {exc}") from exc
    return s, lu


def _solve_spd(A, b, tol: float):
    """Solve the condensed SPD system to normwise backward error <= tol.

    One factorization of the equilibrated matrix (see
    :func:`_factor_equilibrated`), then at most three steps of iterative
    refinement.  The answer is returned only with its certificate: if the
    factorization fails, or the backward error still exceeds ``tol`` after
    the last step, :class:`SolverError` is raised.

    The backward error |b - Ax| / (|A| |x| + |b|) is the certifiable notion
    of a relative residual here: the plain quotient |b - Ax| / |b| bottoms
    out at eps * |A| |x| / |b|, which exceeds 1e-12 on the finest meshes
    simply because evaluating the residual in double precision is that noisy.
    """
    bnorm = np.linalg.norm(b)
    anorm = np.abs(A).sum(axis=1).max()  # inf-norm; A is symmetric

    def backward_error(x):
        denom = anorm * np.linalg.norm(x) + bnorm
        return float(np.linalg.norm(b - A @ x) / denom) if denom > 0 else 0.0

    s, lu = _factor_equilibrated(A)
    x = s * lu.solve(s * b)
    res = backward_error(x)
    steps = 0
    while res > tol and steps < 3:  # iterative refinement
        x = x + s * lu.solve(s * (b - A @ x))
        res = backward_error(x)
        steps += 1
    if res > tol:
        raise SolverError(f"global solve not certified: backward error {res:.3e} "
                          f"> tolerance {tol:.3e} after {steps} refinement steps "
                          f"({A.shape[0]} DOFs)")
    return x, res


def assemble_and_solve(mesh: Mesh, problem, p: int,
                       kind: TestNorm = TestNorm.QUASI_OPTIMAL,
                       variant: str = "standard", k1: int | None = None,
                       k2: int | None = None, solver_tol: float = 1e-12,
                       chunk: int = DEFAULT_CHUNK,
                       volume_exactness: int | None = None,
                       edge_exactness: int | None = None) -> Solution:
    """Solve the practical DPG system for ``problem`` on ``mesh``."""
    dofmap = build_dofmap(mesh, p, variant)
    asm = ElementAssembler(mesh, problem.coeffs, p, variant, k1, k2,
                           volume_exactness, edge_exactness)
    A, b = assemble_global(mesh, dofmap, asm, kind, problem.f, problem.fvec, chunk)
    x, res = _solve_spd(A, b, solver_tol)
    return Solution(mesh=mesh, dofmap=dofmap, p=p, kind=kind, variant=variant,
                    k1=asm.k1, k2=asm.k2, x=x, residual=res)


def error_function(mesh: Mesh, problem, solution: Solution,
                   chunk: int = DEFAULT_CHUNK,
                   volume_exactness: int | None = None,
                   edge_exactness: int | None = None) -> EnergyError:
    """Riesz representative of the residual in the discrete test space."""
    asm = ElementAssembler(mesh, problem.coeffs, solution.p, solution.variant,
                           solution.k1, solution.k2,
                           volume_exactness, edge_exactness)
    dofmap = solution.dofmap
    u_loc_all = solution.local_trial()
    nt = mesh.n_triangles
    eps = np.empty((nt, asm.n_test))
    norms2 = np.empty(nt)
    orth = np.zeros(dofmap.total)
    rhs = np.zeros(dofmap.total)
    for els in _chunks(nt, chunk):
        B = asm.b_matrices(els)
        G = asm.gram(solution.kind, els)
        F = asm.loads(problem.f, problem.fvec, els)
        resid = F - np.einsum("eij,ej->ei", B, u_loc_all[els])
        e = np.linalg.solve(G, resid[:, :, None])[:, :, 0]
        eps[els] = e
        norms2[els] = np.einsum("ei,ei->e", e, resid)
        bt_eps = np.einsum("eij,ei->ej", B, e)
        g = dofmap.gather[els]
        keep = g >= 0
        np.add.at(orth, g[keep], bt_eps[keep])
        r = np.einsum("eij,ei->ej", B, np.linalg.solve(G, F[:, :, None])[:, :, 0])
        np.add.at(rhs, g[keep], r[keep])
    norms2 = np.clip(norms2, 0.0, None)
    return EnergyError(eps=eps, element_norms=np.sqrt(norms2),
                       total=float(np.sqrt(norms2.sum())),
                       orth_residual=orth, rhs_norm=float(np.linalg.norm(rhs)))
