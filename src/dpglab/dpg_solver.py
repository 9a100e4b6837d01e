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

The global system is solved one way only: a SuperLU factorization of the
assembled matrix in symmetric mode (minimum-degree ordering of A + A^t,
diagonal pivots), and iterative refinement until the normwise backward
error of the assembled matrix is below the solver tolerance.  A solve that
fails to factor or to certify raises :class:`SolverError`; there is no
fallback.

The test space of a mesh, the assembler and the loads F_T, depends on
neither the trial variant nor the test norm; B_c is assembled against the
trial layout of the solve's :class:`dpglab.spaces.DofMap`.  A solve
evaluates F once, in batches, and keeps it on its :class:`Solution` with
its assembler; a solve of the other variant on the same mesh and data can
take that test space (``assemble_and_solve(..., test_space=solution)``)
and then evaluates only its own B_c per class.

The discrete Riesz representative of the residual ("error function") is
eps_T = G_T^{-1} (F_T - B_T u_T).  It is never formed: the error function
condenses with the assembler and the loads of the solve, so it sees the
same test space, quadrature and load, and with z_T = y_T - Y_c u_T its test
norm is |z_T| (the energy error estimator of Carstensen, Demkowicz and
Gopalakrishnan, SIAM J. Numer. Anal. 52, 2014), and B_T^t eps_T = Y_c^t z_T
summed over elements reproduces the algebraic residual (Galerkin
orthogonality).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import _CHUNK, ElementAssembler, TestNorm, _test_degrees
from .mesh import Mesh
from .problems import ProblemSpec
from .spaces import CoefficientVector, DofMap, TrialLayout, build_dofmap

# entries per slice of the loop over the nonzeros of the global matrix that
# takes its inf-norm in _solve_spd, so that it makes no nnz-length temporary
_NNZ_SLICE = 1 << 16


class SolverError(RuntimeError):
    """Raised when an element Gram factorization or the global solve fails."""


@dataclass
class Solution:
    """Discrete solution of one DPG solve, with the test space it lives in:
    the assembler (element classes, quadrature) and the loads F."""

    mesh: Mesh = field(repr=False)
    problem: ProblemSpec = field(repr=False)
    dofmap: DofMap = field(repr=False)
    p: int
    kind: TestNorm
    assembler: ElementAssembler = field(repr=False)
    loads: np.ndarray = field(repr=False)  # (nt, n_test) F of every element
    x: np.ndarray = field(repr=False)  # full trial coefficient vector
    residual: float = 0.0

    @property
    def u(self) -> CoefficientVector:
        lay = self.dofmap.layout
        g = self.dofmap.gather[:, lay.u0:lay.u0 + lay.nu]
        return CoefficientVector(self.x[g].ravel(), self.mesh, lay.pu)

    @property
    def sigma(self) -> np.ndarray:
        """(nt, 2, ns) component coefficients."""
        lay = self.dofmap.layout
        g = self.dofmap.gather[:, lay.sx0:lay.sx0 + 2 * lay.ns]
        return self.x[g].reshape(self.mesh.n_triangles, 2, lay.ns)

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


def _loads(asm: ElementAssembler, f, fvec) -> np.ndarray:
    """The loads F of every element, (nt, n_test), filled batch by batch so
    that the point values of f, fvec and C stay batch-sized."""
    nt = asm.mesh.n_triangles
    F = np.empty((nt, asm.n_test))
    for lo in range(0, nt, _CHUNK):
        F[lo:lo + _CHUNK] = asm.loads(f, fvec, np.arange(lo, min(lo + _CHUNK, nt)))
    return F


def _condensed(asm: ElementAssembler, layout: TrialLayout, kind: TestNorm,
               F: np.ndarray):
    """Condense all elements in batches taken in class order (stable), so
    that each batch holds few classes; yields ``(els, Y, y, inv)`` with the
    results of :func:`_condense_batch` for the elements ``els``.  B is
    assembled against the trial ``layout``; ``F`` holds the loads of every
    element."""
    order = np.argsort(asm.classes, kind="stable")
    for lo in range(0, len(order), _CHUNK):
        els = order[lo:lo + _CHUNK]
        yield els, *_condense_batch(asm.b_matrices(els, layout), asm.gram(kind, els),
                                    F[els], els, asm.classes[els])


def assemble_global(mesh: Mesh, dofmap: DofMap, asm: ElementAssembler,
                    kind: TestNorm, F: np.ndarray):
    """Assemble the condensed SPD system (CSC matrix, rhs) from the loads
    ``F`` of every element.

    The entries of each element between its kept (non-boundary) DOFs are
    written, batch after batch, into triplet arrays preallocated from
    ``dofmap.gather``, with int32 indices.  The CSC conversion sums the
    duplicates of A, and one ``bincount`` those of the rhs, in that order.
    """
    n = dofmap.total
    if n >= 2**31:
        raise SolverError(f"{n} DOFs exceed the int32 indices of the assembly")
    kept = (dofmap.gather >= 0).sum(axis=1)
    nnz = int((kept * kept).sum())
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    ridx = np.empty(kept.sum(), dtype=np.int64)
    rvals = np.empty(len(ridx))
    pos = rpos = 0
    for els, Y, y, inv in _condensed(asm, dofmap.layout, kind, F):
        Yt = np.swapaxes(Y, 1, 2)
        S = (Yt @ Y)[inv]  # exactly symmetric: numpy evaluates Y^t Y by syrk
        r = (Yt[inv] @ y[:, :, None])[:, :, 0]
        g = dofmap.gather[els]
        keep = g >= 0
        k = np.count_nonzero(keep)
        ridx[rpos:rpos + k] = g[keep]
        rvals[rpos:rpos + k] = r[keep]
        rpos += k
        m, nl = g.shape
        ri = np.broadcast_to(g[:, :, None], (m, nl, nl))
        ci = np.broadcast_to(g[:, None, :], (m, nl, nl))
        ok = keep[:, :, None] & keep[:, None, :]
        k = np.count_nonzero(ok)
        rows[pos:pos + k] = ri[ok]
        cols[pos:pos + k] = ci[ok]
        vals[pos:pos + k] = S[ok]
        pos += k
    A = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return A, np.bincount(ridx, rvals, minlength=n)


def _factor(A):
    """SuperLU factor of the SPD matrix ``A``, as assembled.

    A is factored as the SPD matrix it is: a minimum-degree ordering of the
    pattern of A + A^t (Liu's multiple-elimination MMD) applied
    symmetrically to rows and columns, and diagonal pivots only.  Gaussian
    elimination without pivoting is backward stable on SPD matrices; the
    partial-pivoting COLAMD default of SuperLU fills the factor several
    times more.  The ordering reads the pattern only and every nonzero
    diagonal is taken as the pivot, so a diagonal scaling of A by powers of
    two would only rescale the factors exactly and change no bit of a solve.
    ``splu`` sums and sorts its input in place, so a matrix that is not in
    canonical CSC form is factored as a summed copy and the caller's A is
    never written.

    SuperLU factors one column at a time (``panel_size=1``) and relaxes no
    supernode beyond one column (``relax=1``).  Its defaults, panels of 20
    columns and relaxed supernodes of 10, suit wide supernodes; the
    supernodes of these element-block systems are a few columns wide.  A
    panel costs a dense n x panel_size work array plus index arrays of that
    shape, about 300-400 bytes per row held through the whole numeric
    factorization.  On ex1/qopt p0 level 6 (81,921 DOFs) the factor's peak
    memory growth falls from 61.6 to 33.8 MiB and its time from 0.23 to
    0.12 s, with the same ordering, the same pivots and 175 fewer L+U
    entries.  On the eight systems (p 0-3) of the factor table in
    ``BENCH_15.json`` the peak falls by 23-46 % and the time by 18-47 %.
    """
    if np.any(A.diagonal() <= 0):
        raise SolverError("condensed matrix has non-positive diagonal entries "
                          "(rank deficiency)")
    A = A.tocsc()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         relax=1, panel_size=1, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"SuperLU factorization of the {A.shape[0]}x{A.shape[1]} "
                          f"condensed system failed: {exc}") from exc


def _solve_spd(A, b, tol: float):
    """Solve the condensed SPD system to normwise backward error <= tol.

    One factorization of the assembled matrix (see :func:`_factor`), then
    at most three steps of iterative refinement; A is only read.  The
    answer is returned only with its certificate: if the system has a
    non-finite entry, the factorization fails, or the backward error still
    exceeds ``tol`` (or is NaN) after the last step, :class:`SolverError`
    is raised.

    The backward error |b - Ax| / (|A| |x| + |b|) is the certifiable notion
    of a relative residual here: the plain quotient |b - Ax| / |b| bottoms
    out at eps * |A| |x| / |b|, which exceeds 1e-12 on the finest meshes
    simply because evaluating the residual in double precision is that noisy.
    """
    if not (np.isfinite(b).all() and np.isfinite(A.data).all()):
        raise SolverError(f"condensed system has non-finite entries ({A.shape[0]} "
                          "DOFs); check the problem data")
    bnorm = np.linalg.norm(b)
    # inf-norm: the row sums of |A|, added in storage order as |A| @ 1 adds
    # them, slice by slice instead of through a copy of A
    rowsums = np.zeros(A.shape[0])
    for lo in range(0, A.nnz, _NNZ_SLICE):
        np.add.at(rowsums, A.indices[lo:lo + _NNZ_SLICE],
                  np.abs(A.data[lo:lo + _NNZ_SLICE]))
    anorm = rowsums.max()

    def backward_error(x):
        denom = anorm * np.linalg.norm(x) + bnorm
        return float(np.linalg.norm(b - A @ x) / denom) if denom != 0 else 0.0

    lu = _factor(A)
    x = lu.solve(b)
    res = backward_error(x)
    steps = 0
    # "not <=" so that a NaN backward error is never certified
    while not res <= tol and steps < 3:  # iterative refinement
        x = x + lu.solve(b - A @ x)
        res = backward_error(x)
        steps += 1
    if not res <= tol:
        raise SolverError(f"global solve not certified: backward error {res:.3e} "
                          f"> tolerance {tol:.3e} after {steps} refinement steps "
                          f"({A.shape[0]} DOFs)")
    return x, res


def _check_solver_tol(tol: float) -> None:
    """Raise ValueError unless the backward-error tolerance ``tol`` is finite
    and positive: no solve certifies against NaN or 0, and every solve
    against inf."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be finite and positive, got {tol}")


def _check_data(solution: Solution, mesh: Mesh, problem, caller: str) -> None:
    """Raise ValueError unless ``mesh`` and the coefficients and loads of
    ``problem`` are the objects ``solution`` was computed with: its element
    classes and its loads F hold for those only."""
    if mesh is not solution.mesh:
        raise ValueError(f"{caller} needs the mesh the solution was computed on")
    for name in ("coeffs", "f", "fvec"):
        if getattr(problem, name) is not getattr(solution.problem, name):
            raise ValueError(f"{caller} needs the problem {name} the solution "
                             "was computed with")


def assemble_and_solve(mesh: Mesh, problem, p: int,
                       kind: TestNorm = TestNorm.QUASI_OPTIMAL,
                       variant: str = "standard", k1: int | None = None,
                       k2: int | None = None, solver_tol: float = 1e-12,
                       test_space: Solution | None = None) -> Solution:
    """Solve the practical DPG system for ``problem`` on ``mesh``.

    ``test_space`` is a solve on the same mesh with the same coefficients,
    load, trial degree and test degrees, of any variant and test norm; this
    solve then shares its assembler and loads F instead of computing them
    again, with identical results.  Other data raise ValueError, as does a
    ``solver_tol`` that is not finite and positive.
    """
    _check_solver_tol(solver_tol)
    dofmap = build_dofmap(mesh, p, variant)
    if test_space is None:
        asm = ElementAssembler(mesh, problem.coeffs, p, k1, k2)
        F = _loads(asm, problem.f, problem.fvec)
    else:
        _check_data(test_space, mesh, problem, "test_space")
        asm = test_space.assembler
        have, want = (asm.p, asm.k1, asm.k2), (p, *_test_degrees(p, k1, k2))
        if have != want:
            raise ValueError(f"test_space has degrees (p, k1, k2) = {have}; "
                             f"this solve asks for {want}")
        F = test_space.loads
    A, b = assemble_global(mesh, dofmap, asm, kind, F)
    x, res = _solve_spd(A, b, solver_tol)
    return Solution(mesh=mesh, problem=problem, dofmap=dofmap, p=p, kind=kind,
                    assembler=asm, loads=F, x=x, residual=res)


def error_function(mesh: Mesh, problem, solution: Solution) -> EnergyError:
    """Test norms of the Riesz representative of the residual, per element.

    Condenses with the assembler and the loads F of ``solution``, so the
    test space, the quadrature, the coefficients and the load are those of
    the solve.  ``mesh`` and ``problem`` must be the ones the solve was
    given; other objects raise ValueError.
    """
    _check_data(solution, mesh, problem, "error_function")
    dofmap = solution.dofmap
    u_loc_all = solution.local_trial()
    norms2 = np.empty(mesh.n_triangles)
    # kept DOF, orthogonality and rhs entries of every element, in batch
    # order; one bincount per vector sums them as np.add.at would
    idx = np.empty(np.count_nonzero(dofmap.gather >= 0), dtype=np.int64)
    orth, rhs = np.empty(len(idx)), np.empty(len(idx))
    pos = 0
    for els, Y, y, inv in _condensed(solution.assembler, dofmap.layout,
                                     solution.kind, solution.loads):
        z = y - (Y[inv] @ u_loc_all[els][:, :, None])[:, :, 0]  # L^{-1} (F - B u)
        norms2[els] = np.einsum("ei,ei->e", z, z)
        Yt = np.swapaxes(Y, 1, 2)[inv]
        g = dofmap.gather[els]
        keep = g >= 0
        k = np.count_nonzero(keep)
        idx[pos:pos + k] = g[keep]
        orth[pos:pos + k] = (Yt @ z[:, :, None])[:, :, 0][keep]
        rhs[pos:pos + k] = (Yt @ y[:, :, None])[:, :, 0][keep]
        pos += k
    n = dofmap.total
    return EnergyError(element_norms=np.sqrt(norms2),
                       total=float(np.sqrt(norms2.sum())),
                       orth_residual=np.bincount(idx, orth, minlength=n),
                       rhs_norm=float(np.linalg.norm(np.bincount(idx, rhs, minlength=n))))
