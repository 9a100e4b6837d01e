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
boundary trace DOFs of the scalar field never exist.  The field DOFs being
element-local, every entry in a field row or column comes from one element
and only skeleton-skeleton entries are sums; so the canonical CSC pattern
and the place of each element entry in it follow from the DOF map and the
skeleton incidence, and the condensed blocks are added straight into the
CSC arrays, with no triplets and no sort (on example 1, simple norm, p=2,
level 5 the assembly peaks at 1.8 times the bytes of the returned matrix;
triplets and their COO conversion took 2.6 times).

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
and then evaluates only its own B_c per class.  A study level solves the
augmented system first and gives its test space to the standard solve
(:func:`dpglab.harness.run_convergence_study`).

The augmented variant (u of degree p+1) is solved on the standard DOF map.
The modal scalar basis is hierarchical, so its u columns past
scalar_dim(p) are the only ones the standard layout lacks, and they are
element-local.  The solve minimizes sum_T |y_T - Y_c x_T|^2, so they are
eliminated exactly, class by class, before the condensation: with the thin
QR factorization Y_e = Q_e R_e of the extra columns, the other columns are
projected onto the complement of Q_e, and the projected blocks are
condensed like any other, with the loads as they are (static condensation;
N. V. Roberts, Camellia, CAMWA 68, 2014).  On ex1/qopt p0 level 6 the factored system has
81,921 DOFs instead of 114,689, the standard system's pattern.  After the
certified solve the extra coefficients are the local least-squares
solutions x_e = R_e^{-1} Q_e^t (y_T - Y_s x_T), from operators the
assembly sweep kept, so no second condensation runs.  ``Solution.x`` is
the full augmented trial vector; ``Solution.residual`` is the backward
error of the assembled condensed (standard-size) system.

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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (_CHUNK, ElementAssembler, TestNorm, _check_test_degrees,
                    _test_degrees)
from .mesh import Mesh
from .problems import ProblemSpec
from .spaces import CoefficientVector, DofMap, TrialLayout, build_dofmap

# entries per slice of the loop over the nonzeros of the global matrix that
# takes its inf-norm in _solve_spd, so that it makes no nnz-length temporary
_NNZ_SLICE = 1 << 16
# bound on the DOFs and on the nonzeros of the condensed matrix: its indices
# and indptr are int32
_INDEX_BOUND = 2**31
# skeleton pairs looked up at a time in _csc_pattern, so that the lookup's
# arrays stay the size of one condensed batch.  glibc raises its mmap
# threshold to the size of each freed block of up to 32 MiB; once a larger
# temporary of the assembly has been freed, SuperLU's blocks below it come
# from the heap, which does not shrink, and ex1/simple p2 level 5 peaks at
# 259 instead of 213 MiB RSS
_LOOKUPS = 1 << 18


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


def _eliminate(Y, y, inv, els, extra: slice):
    """Eliminate the element-local columns ``extra`` from the whitened class
    blocks ``Y`` of :func:`_condense_batch`, with the loads ``y``.

    With Y_e the extra columns of a class and Y_s the others, the element's
    share of the residual, |y_T - Y_s x_T - Y_e x_e|, is least at
    x_e = R_e^{-1} Q_e^t (y_T - Y_s x_T), Y_e = Q_e R_e the thin QR
    factorization, and is then |(I - Q_e Q_e^t)(y_T - Y_s x_T)|.  Returns
    ``(Ys, E, e)``: the projected blocks (I - Q_e Q_e^t) Y_s per class, which
    condense with the loads y_T as they are (the projector is symmetric and
    idempotent, so Ys^t y_T is the projected rhs), and E_c = R_e^{-1} Q_e^t Y_s
    per class and e_T = R_e^{-1} Q_e^t y_T per element, so that
    x_e = e_T - E_c x_T.

    A class whose R_e has a zero or non-finite diagonal entry, so that Y_e
    has no full column rank, raises :class:`SolverError` naming the
    lowest-numbered element of such a class in the batch.
    """
    Q, R = np.linalg.qr(Y[:, :, extra])
    d = np.diagonal(R, axis1=1, axis2=2)
    bad = np.flatnonzero(~(np.isfinite(d) & (d != 0)).all(axis=1))
    if len(bad):
        t = els[np.isin(inv, bad)].min()
        raise SolverError(f"the extra u columns of element {t} are rank deficient; "
                          "check coefficients and quadrature")
    Ys = np.delete(Y, extra, axis=2)
    Qt = np.swapaxes(Q, 1, 2)
    P = np.linalg.solve(R, Qt)  # R_e^{-1} Q_e^t
    E, e = P @ Ys, (P[inv] @ y[:, :, None])[:, :, 0]
    Ys -= Q @ (Qt @ Ys)
    return Ys, E, e


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


class _CscPattern(NamedTuple):
    """The canonical CSC pattern of the condensed matrix, and where each
    element's local entries go in its ``data`` (see :func:`_csc_pattern`)."""

    indptr: np.ndarray  # (n + 1,) int32
    table: np.ndarray  # (nt, nf + 2 nk + nl) column starts and row offsets
    skel: np.ndarray  # (nt, nk * nk) int32 positions of skeleton-skeleton entries
    first: np.ndarray  # (nl * nl,) the two terms of each local entry's
    second: np.ndarray  # position, as columns of ``table`` and then ``skel``

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def positions(self, els) -> np.ndarray:
        """(len(els), nl * nl) positions in ``data`` of the local entries of
        the elements ``els``, row by row; entries of boundary DOFs go to
        ``nnz``."""
        t = np.concatenate([self.table[els], self.skel[els]], axis=1)
        pos = np.take(t, self.first, axis=1)
        pos += np.take(t, self.second, axis=1)
        return np.minimum(pos, self.nnz, out=pos)


def _csc_pattern(dofmap: DofMap) -> _CscPattern:
    """The pattern of sum_T S_T scattered through ``dofmap.gather``, in
    canonical CSC form (rows ascending in each column, no duplicates), and
    where every element's entries go in it.

    u and sigma are element-local and numbered before the skeleton, and the
    u and sigma DOFs of an element ascend with its local columns from one
    field slot of the DofMap.  So a field column of element e holds the kept
    DOFs of e: its nf = nu + 2 ns field DOFs in local order, then its kept
    skeleton DOFs in ascending order.  A skeleton column c holds the u rows
    of the m_c elements that share c, in slot order, then their sigma rows in
    slot order, then the skeleton rows that share an element with c: column
    c of the pattern of E_s^t E_s, with E_s the incidence of the field slots
    and the kept skeleton DOFs.  The position of each skeleton pair in that
    pattern is read off E_s^t E_s with its data set to 0, 1, ..., nnz_s - 1.

    Each element's row of ``table`` holds the starts F of its field columns,
    the starts U of its u rows and S of its sigma rows in its skeleton
    columns, and the offsets R of its local DOFs in its field columns (u and
    sigma DOFs at 0 .. nf-1); its row of ``skel`` the positions of its
    skeleton-skeleton entries.  Entry (i, j) of the element is at the sum of
    the two values of these rows, joined, that ``first`` and ``second``
    name.  The starts of a boundary column and the offsets of a boundary row
    are nnz, so every entry of a boundary DOF sums to nnz or beyond.
    """
    g = dofmap.gather
    lay = dofmap.layout
    nt, nl = g.shape
    nf = lay.uh0  # u, sigma_x and sigma_y lead the local columns
    off = dofmap.offsets["uhat"]  # the first skeleton DOF
    n = dofmap.total
    gk = g[:, nf:]
    nk = nl - nf
    keep = gk >= 0
    c = np.where(keep, gk - off, 0)
    # E_s, one row per slot, holds 0 .. k-1 in the order of its entries; its
    # CSC copy lists the slots of each column in ascending order, so where
    # an entry lands there is the rank of its slot among those of its column
    order = np.argsort(g[:, lay.u0])  # the elements in slot order
    ko, co = keep[order], c[order]
    k = np.count_nonzero(ko)
    E = sp.csr_matrix((np.arange(k, dtype=np.int32), co[ko],
                       np.r_[0, np.cumsum(ko.sum(axis=1))]), shape=(nt, n - off))
    Ec = E.tocsc()
    landed = np.empty(k, dtype=np.int64)
    landed[Ec.data] = np.arange(k)
    qo = np.zeros((nt, nk), dtype=np.int64)
    qo[ko] = landed - Ec.indptr[co[ko]]
    q = np.empty_like(qo)
    q[order] = qo
    m = np.diff(Ec.indptr)[c]  # elements that share each skeleton DOF
    E.data[:] = Ec.data[:] = 1
    Ps = Ec.T @ E  # symmetric: its CSR arrays are its CSC arrays
    Ps.sort_indices()

    length = np.empty(n, dtype=np.int64)
    length[g[:, :nf]] = nf + np.count_nonzero(keep, axis=1)[:, None]
    length[off:] = np.diff(Ec.indptr) * nf + np.diff(Ps.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    nnz = int(indptr[-1])
    if nnz >= _INDEX_BOUND:
        raise SolverError(f"{nnz} nonzeros exceed the int32 indices of the assembly")

    F, U, S, R, K = np.cumsum([0, nf, nk, nk, nl])
    table = np.empty((nt, K), dtype=np.int64)
    col = np.where(keep, indptr[off + c], nnz)
    table[:, F:U] = indptr[g[:, :nf]]
    table[:, U:S] = col + q * lay.nu
    table[:, S:R] = col + m * lay.nu + q * 2 * lay.ns
    rank = table[:, R:K]
    rank[:, :nf] = np.arange(nf)
    np.put_along_axis(rank[:, nf:], np.argsort(np.where(keep, gk, n), axis=1),
                      nf + np.arange(nk), axis=1)
    rank[:, nf:][~keep] = nnz
    # skeleton column c: m_c nu u rows, m_c 2 ns sigma rows, then Ps[:, c]
    start = col + m * nf - Ps.indptr[c]
    Ps.data = np.arange(Ps.nnz, dtype=np.int32)
    c32 = c.astype(np.int32)  # the index type of Ps, so sampling copies no index
    skel = np.empty((nt, nk, nk), dtype=np.int32)
    step = max(1, _LOOKUPS // nk**2)
    for lo in range(0, nt, step):
        cs = c32[lo:lo + step]
        pair = (len(cs), nk, nk)
        found = np.asarray(Ps[np.broadcast_to(cs[:, None, :], pair).ravel(),
                              np.broadcast_to(cs[:, :, None], pair).ravel()])
        skel[lo:lo + step] = np.minimum(found.reshape(pair) + start[lo:lo + step, None, :],
                                        nnz)
    skel[~keep] = nnz

    # which two values of an element's joined rows sum to the position of (i, j)
    i, j = np.indices((nl, nl))
    first = np.select([j < nf, i < lay.nu, i < nf], [F + j, U + j - nf, S + j - nf],
                      K + (i - nf) * nk + j - nf)
    second = np.select([j < nf, i < lay.nu, i < nf], [R + i, R + i, R + i - lay.nu], R)
    return _CscPattern(indptr=indptr.astype(np.int32), table=table,
                       skel=skel.reshape(nt, -1), first=first.ravel(),
                       second=second.ravel())


def assemble_global(mesh: Mesh, dofmap: DofMap, asm: ElementAssembler,
                    kind: TestNorm, F: np.ndarray, layout: TrialLayout | None = None,
                    recovery: list | None = None):
    """Assemble the condensed SPD system (CSC matrix, rhs) from the loads
    ``F`` of every element, straight into the canonical CSC arrays.

    The pattern and the place of each element's entries in it come from
    ``dofmap.gather`` (:func:`_csc_pattern`).  Each batch of condensed
    elements adds its S_T into ``data`` with one ``np.add.at``, in batch
    order, and writes the row indices at the same places.  No triplet is
    formed and nothing is sorted; only the skeleton-skeleton entries are
    sums, so A is exactly symmetric and the same for any batch size.  One
    ``bincount`` sums the rhs.

    B is assembled against ``layout`` (default: ``dofmap.layout``).  The u
    columns it has beyond ``dofmap.layout`` are element-local; they are
    eliminated class by class (:func:`_eliminate`) before the condensation,
    so the system has the DOFs of ``dofmap``, and ``recovery``, a list,
    receives ``(els, E, inv, e)`` per batch, from which
    :func:`_recover_extra` finds the eliminated coefficients.
    """
    n = dofmap.total
    if n >= _INDEX_BOUND:
        raise SolverError(f"{n} DOFs exceed the int32 indices of the assembly")
    layout = dofmap.layout if layout is None else layout
    extra = slice(dofmap.layout.nu, layout.nu)
    pattern = _csc_pattern(dofmap)
    # one slot past the end takes the entries of the boundary DOFs
    data = np.zeros(pattern.nnz + 1)
    indices = np.empty(pattern.nnz + 1, dtype=np.int32)
    rows = dofmap.gather.astype(np.int32)
    ridx = np.empty(np.count_nonzero(dofmap.gather >= 0), dtype=np.int64)
    rvals = np.empty(len(ridx))
    rpos = 0
    for els, Y, y, inv in _condensed(asm, layout, kind, F):
        if extra.stop > extra.start:
            Y, E, e = _eliminate(Y, y, inv, els, extra)
            recovery.append((els, E, inv, e))
        Yt = np.swapaxes(Y, 1, 2)
        S = (Yt @ Y)[inv]  # exactly symmetric: numpy evaluates Y^t Y by syrk
        r = (Yt[inv] @ y[:, :, None])[:, :, 0]
        g = dofmap.gather[els]
        kept = g >= 0
        k = np.count_nonzero(kept)
        ridx[rpos:rpos + k] = g[kept]
        rvals[rpos:rpos + k] = r[kept]
        rpos += k
        pos = pattern.positions(els)
        np.add.at(data, pos.ravel(), S.ravel())
        indices[pos.reshape(S.shape)] = rows[els][:, :, None]
    A = sp.csc_matrix((data[:-1], indices[:-1], pattern.indptr), shape=(n, n))
    return A, np.bincount(ridx, rvals, minlength=n)


def _recover_extra(system: DofMap, dofmap: DofMap, x: np.ndarray,
                   recovery: list) -> np.ndarray:
    """The trial vector of ``dofmap`` from the solution ``x`` of the system
    on ``system`` that :func:`assemble_global` assembled with the u columns
    of ``dofmap.layout`` beyond ``system.layout`` eliminated: every DOF of
    ``system`` is read from ``x``, and the eliminated coefficients are the
    local least-squares solutions x_e = e_T - E_c x_T of its ``recovery``."""
    nu, lay = system.layout.nu, dofmap.layout
    x_T = system.local_vector(x)
    local = np.empty((len(x_T), lay.total))
    local[:, :nu] = x_T[:, :nu]
    local[:, lay.nu:] = x_T[:, nu:]
    for els, E, inv, e in recovery:
        local[els, nu:lay.nu] = e - (E[inv] @ x_T[els][:, :, None])[:, :, 0]
    keep = dofmap.gather >= 0
    out = np.empty(dofmap.total)
    out[dofmap.gather[keep]] = local[keep]
    return out


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

    The standard variant solves the system of its own DOF map.  The
    augmented variant assembles B against its layout, with u of degree p+1,
    but solves on the standard DOF map: the extra u coefficients are
    eliminated per class and recovered per element by a local least-squares
    solve (see the module doc).  Its ``Solution.x`` is the full augmented
    trial vector, and its ``residual`` certifies the backward error of the
    assembled condensed system.

    ``test_space`` is a solve on the same mesh with the same coefficients,
    load, trial degree and test degrees, of any variant and test norm; this
    solve then shares its assembler and loads F instead of computing them
    again, with bitwise the results of a standalone solve.  A study's
    standard solve takes the test space of its augmented solve.  Other data
    raise ValueError, as do a ``solver_tol`` that is not finite and positive
    and test degrees too low for the variant
    (:func:`dpglab.forms._check_test_degrees`).
    """
    _check_solver_tol(solver_tol)
    dofmap = build_dofmap(mesh, p, variant)
    if test_space is not None:
        _check_data(test_space, mesh, problem, "test_space")
        asm = test_space.assembler
        have, want = (asm.p, asm.k1, asm.k2), (p, *_test_degrees(p, k1, k2))
        if have != want:
            raise ValueError(f"test_space has degrees (p, k1, k2) = {have}; "
                             f"this solve asks for {want}")
    _check_test_degrees(dofmap.layout, k1, k2)
    if test_space is None:
        asm = ElementAssembler(mesh, problem.coeffs, p, k1, k2)
        F = _loads(asm, problem.f, problem.fvec)
    else:
        F = test_space.loads
    # the augmented variant's extra u coefficients are eliminated per class,
    # so its system has the standard DOFs and pattern
    system = dofmap if variant == "standard" else build_dofmap(mesh, p)
    recovery = []
    A, b = assemble_global(mesh, system, asm, kind, F, dofmap.layout, recovery)
    x, res = _solve_spd(A, b, solver_tol)
    if system is not dofmap:
        x = _recover_extra(system, dofmap, x, recovery)
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
