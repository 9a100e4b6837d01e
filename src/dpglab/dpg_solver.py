"""Practical DPG solve via element condensation.

Per element the optimal-test-function problem reduces to the normal equations

    S_T = B_T^t G_T^{-1} B_T,    r_T = B_T^t G_T^{-1} F_T,

with G_T the SPD Gram matrix of the chosen test inner product on the enriched
broken test space.  B_T and G_T are equal on every element of a class (see
:class:`dpglab.forms.ElementAssembler`), so one routine condenses a batch of
elements class by class: it factors each class's G_c = L_c L_c^t by Cholesky
(the factorization is also the SPD check), forms W_c = L_c^{-1} and the
whitened class block Y_c = W_c B_c, and whitens the loads per element,
y_T = W_c F_T.  Then S_T = Y_c^t Y_c and r_T = Y_c^t y_T.  Batches are taken
in class order, so a batch holds few classes.  Summing S_T, r_T over
elements gives a sparse symmetric positive definite system for all trial
DOFs (field DOFs couple to the traces of their own element; trace DOFs couple
neighbours).  The homogeneous Dirichlet condition holds by construction:
boundary trace DOFs of the scalar field never exist.

The global system is solved one way only: Jacobi equilibration to unit
diagonal, a SuperLU factorization in symmetric mode (minimum-degree ordering
of A + A^t, diagonal pivots), and iterative refinement until the normwise
backward error is below the solver tolerance.  A solve that fails to factor
or to certify raises :class:`SolverError`; there is no fallback.

The discrete Riesz representative of the residual ("error function") is
eps_T = G_T^{-1} (F_T - B_T u_T).  It is never formed: the error function
condenses with the assembler of the solve, so it sees the same test space
and quadrature, and with z_T = y_T - Y_c u_T its test norm is |z_T| (the
energy error estimator of Carstensen, Demkowicz and Gopalakrishnan, SIAM J.
Numer. Anal. 52, 2014), and B_T^t eps_T = Y_c^t z_T summed over elements
reproduces the algebraic residual (Galerkin orthogonality).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import ElementAssembler, TestNorm
from .mesh import Mesh
from .spaces import CoefficientVector, DofMap, build_dofmap

# elements condensed per batch; bounds the per-element B, G, F and loads of
# a batch, and the test rows and class factors of the classes in it
_CHUNK = 512


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
    assembler: ElementAssembler = field(repr=False)  # the solve's test space
    x: np.ndarray = field(repr=False)  # full trial coefficient vector
    residual: float = 0.0

    @property
    def u(self) -> CoefficientVector:
        return CoefficientVector(np.array(self.x[self.dofmap.field_slice("u")]),
                                 self.mesh, self.dofmap.layout.pu)

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
    """Element norms of the error function and their total, plus the
    assembled Galerkin orthogonality residual sum_T B_T^t eps_T."""

    element_norms: np.ndarray  # (nt,)
    total: float
    orth_residual: np.ndarray = field(repr=False)
    rhs_norm: float


def gram_cholesky(G):
    """Cholesky factor(s) L of the (stacked) Gram matrix ``G = L L^t``, or None
    when ``G`` does not factor to finite values.  OpenBLAS lets NaN pivots
    through without raising, so a finite factor is part of the SPD test."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def _condense_batch(B, G, F, els, classes):
    """Whitened class blocks Y_c = L_c^{-1} B_c and loads y_T = L_c^{-1} F_T.

    ``B``, ``G`` and ``F`` hold one entry per element of ``els``, and
    ``classes`` the class of each element; B and G are read only at the first
    element of each class.  Returns ``(Y, y, inv)``: one block Y_c per class
    in the batch, one y_T per element, and the position in ``Y`` of each
    element's class.

    The Cholesky factorization G_c = L_c L_c^t is the SPD check: a class whose
    Gram matrix does not factor to finite values raises :class:`SolverError`
    naming the lowest-numbered element of that class in the batch.  The
    batched call does not say which class failed, hence the scan over the
    classes.
    """
    _, first, inv = np.unique(classes, return_index=True, return_inverse=True)
    Gc = G[first]
    L = gram_cholesky(Gc)
    if L is None:
        bad = [c for c, g in enumerate(Gc) if gram_cholesky(g) is None]
        t = els[np.isin(inv, bad)].min()
        raise SolverError(f"Gram matrix of element {t} is not SPD; "
                          "check coefficients and quadrature")
    # numpy has no batched triangular solve; scipy's solve_triangular loops
    # over the batch in Python, so W = L^{-1} comes from an LU solve
    W = np.linalg.solve(L, np.broadcast_to(np.eye(L.shape[-1]), L.shape))
    return W @ B[first], (W[inv] @ F[:, :, None])[:, :, 0], inv


def _condensed(asm: ElementAssembler, kind: TestNorm, f, fvec):
    """Condense all elements in batches taken in class order (stable), so
    that each batch holds few classes; yields ``(els, Y, y, inv)`` with the
    results of :func:`_condense_batch` for the elements ``els``."""
    order = np.argsort(asm.classes, kind="stable")
    for lo in range(0, len(order), _CHUNK):
        els = order[lo:lo + _CHUNK]
        yield els, *_condense_batch(asm.b_matrices(els), asm.gram(kind, els),
                                    asm.loads(f, fvec, els), els, asm.classes[els])


def assemble_global(mesh: Mesh, dofmap: DofMap, asm: ElementAssembler,
                    kind: TestNorm, f, fvec):
    """Assemble the condensed SPD system (CSC matrix, rhs)."""
    n = dofmap.total
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for els, Y, y, inv in _condensed(asm, kind, f, fvec):
        Yt = np.swapaxes(Y, 1, 2)
        S = (Yt @ Y)[inv]  # exactly symmetric: numpy evaluates Y^t Y by syrk
        r = (Yt[inv] @ y[:, :, None])[:, :, 0]
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
    # powers of h, and balancing them keeps the factorization accurate.  The
    # entries are scaled one by one so the ordering sees the assembled
    # pattern: a product D A D drops entries that cancel to exactly zero, and
    # on ex1/simple p2 level 5 the thinned pattern factors 2x slower
    s = 1.0 / np.sqrt(d)
    scaled = A.tocsc(copy=True)
    scaled.data *= s[scaled.indices] * np.repeat(s, np.diff(scaled.indptr))
    try:
        lu = spla.splu(scaled, permc_spec="MMD_AT_PLUS_A",
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
    system has a non-finite entry, the factorization fails, or the backward
    error still exceeds ``tol`` (or is NaN) after the last step,
    :class:`SolverError` is raised.

    The backward error |b - Ax| / (|A| |x| + |b|) is the certifiable notion
    of a relative residual here: the plain quotient |b - Ax| / |b| bottoms
    out at eps * |A| |x| / |b|, which exceeds 1e-12 on the finest meshes
    simply because evaluating the residual in double precision is that noisy.
    """
    if not (np.isfinite(b).all() and np.isfinite(A.data).all()):
        raise SolverError(f"condensed system has non-finite entries ({A.shape[0]} "
                          "DOFs); check the problem data")
    bnorm = np.linalg.norm(b)
    anorm = np.abs(A).sum(axis=1).max()  # inf-norm; A is symmetric

    def backward_error(x):
        denom = anorm * np.linalg.norm(x) + bnorm
        return float(np.linalg.norm(b - A @ x) / denom) if denom != 0 else 0.0

    s, lu = _factor_equilibrated(A)
    x = s * lu.solve(s * b)
    res = backward_error(x)
    steps = 0
    # "not <=" so that a NaN backward error is never certified
    while not res <= tol and steps < 3:  # iterative refinement
        x = x + s * lu.solve(s * (b - A @ x))
        res = backward_error(x)
        steps += 1
    if not res <= tol:
        raise SolverError(f"global solve not certified: backward error {res:.3e} "
                          f"> tolerance {tol:.3e} after {steps} refinement steps "
                          f"({A.shape[0]} DOFs)")
    return x, res


def assemble_and_solve(mesh: Mesh, problem, p: int,
                       kind: TestNorm = TestNorm.QUASI_OPTIMAL,
                       variant: str = "standard", k1: int | None = None,
                       k2: int | None = None,
                       solver_tol: float = 1e-12) -> Solution:
    """Solve the practical DPG system for ``problem`` on ``mesh``."""
    dofmap = build_dofmap(mesh, p, variant)
    asm = ElementAssembler(mesh, problem.coeffs, p, variant, k1, k2)
    A, b = assemble_global(mesh, dofmap, asm, kind, problem.f, problem.fvec)
    x, res = _solve_spd(A, b, solver_tol)
    return Solution(mesh=mesh, dofmap=dofmap, p=p, kind=kind, variant=variant,
                    assembler=asm, x=x, residual=res)


def error_function(mesh: Mesh, problem, solution: Solution) -> EnergyError:
    """Test norms of the Riesz representative of the residual, per element.

    Condenses with the assembler of ``solution``, so the test space, the
    quadrature and the coefficients are those of the solve; the load is
    that of ``problem``.
    """
    if mesh is not solution.mesh:
        raise ValueError("error_function needs the mesh the solution was computed on")
    dofmap = solution.dofmap
    u_loc_all = solution.local_trial()
    norms2 = np.empty(mesh.n_triangles)
    orth = np.zeros(dofmap.total)
    rhs = np.zeros(dofmap.total)
    for els, Y, y, inv in _condensed(solution.assembler, solution.kind,
                                     problem.f, problem.fvec):
        z = y - (Y[inv] @ u_loc_all[els][:, :, None])[:, :, 0]  # L^{-1} (F - B u)
        norms2[els] = np.einsum("ei,ei->e", z, z)
        Yt = np.swapaxes(Y, 1, 2)[inv]
        g = dofmap.gather[els]
        keep = g >= 0
        np.add.at(orth, g[keep], (Yt @ z[:, :, None])[:, :, 0][keep])
        np.add.at(rhs, g[keep], (Yt @ y[:, :, None])[:, :, 0][keep])
    return EnergyError(element_norms=np.sqrt(norms2),
                       total=float(np.sqrt(norms2.sum())),
                       orth_residual=orth, rhs_norm=float(np.linalg.norm(rhs)))
