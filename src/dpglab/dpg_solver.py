"""Practical DPG solve via element condensation.

Per element the optimal-test-function problem reduces to the normal equations

    S_T = B_T^t G_T^{-1} B_T,    r_T = B_T^t G_T^{-1} F_T,

with G_T the SPD Gram matrix of the chosen test inner product on the enriched
broken test space.  B_T and G_T are equal on every element of a class (see
:class:`dpglab.forms.ElementAssembler`), so one routine condenses a batch of
elements class by class: it factors each class's G_c = L_c L_c^t by Cholesky
(the factorization is also the SPD check), forms W_c = L_c^{-1} and the
whitened class block Y_c = W_c B_c, and whitens the loads per element,
y_T = W_c F_T.  Then S_T = Y_c^t Y_c and r_T = Y_c^t y_T, and the solve
minimizes sum_T |y_T - Y_c x_T|^2.  Batches are taken in class order, so a
batch holds few classes.

Only the skeleton couples elements: u and sigma live in broken spaces, so
their columns of each class block are element-local and are eliminated
exactly, class by class, before anything is assembled (static condensation;
N. V. Roberts, Camellia, CAMWA 68, 2014), in the least-squares view of DPG
(Demkowicz and Gopalakrishnan, An overview of the DPG method, 2014), which
is conditioned like Y, not like Y^t Y.  Every solve, of either trial
variant, whitens B against the augmented layout (u of degree p+1), as
assembled: its columns are ordered [u_p | sigma | u_extra | skeleton]
(:class:`dpglab.spaces.TrialLayout`), and the standard layout is the same
without the p+2 u_extra columns.  One Householder QR factorization
Y_c = Q_c R_c per class (:func:`_eliminate`) and, per element,
rho_T = Q_c^t y_T and tau_T = |y_T - Q_c rho_T| serve both variants,
because |y_T - Y_c x|^2 = |rho_T - R_c x|^2 + tau_T^2 for every x.  A
variant with nf field columns (``layout.uh0``, the first nf columns) takes
the rows of R_c from nf on, restricted to the skeleton columns:
M_c = R_c[nf:, skel] and g_T = rho_T[nf:]; for the standard variant these
are p+2 rows more than for the augmented one.  Summed over elements,
M_c^t M_c and M_c^t g_T give a sparse symmetric positive definite system
for the skeleton DOFs of the :class:`dpglab.spaces.DofMap`; after the solve
each element's fields are its local least-squares solution
x_f = R_ff^{-1} (rho_f - R_fs x_s), and the element's residual
z_T = y_T - Y_c x_T has the norm |z_T|^2 = |g_T - M_c x_s|^2 + tau_T^2.
That is the energy error estimator of Carstensen, Demkowicz and
Gopalakrishnan (SIAM J. Numer. Anal. 52, 2014), the test norm of the Riesz
representative of the residual on each element
(``Solution.estimator``).  The homogeneous Dirichlet condition holds by
construction: boundary trace DOFs of the scalar field never exist.  The
canonical CSC pattern of the skeleton system and the place of each element
entry in it follow from the skeleton incidence, and the condensed blocks are
added straight into the CSC arrays, with no triplets and no sort.  Every
skeleton vector is scattered and gathered one way: through the gather of
the DOF map into a vector with one slot past the end, where the gather
entry -1 of a boundary trace DOF lands (it reads zero there).

A :class:`Solution` keeps its class QR, 8 (c k ncols + nt (k + 1)) bytes
of floats: per class block R_c, k x ncols with ncols the augmented field
and skeleton columns and k = min(n_test, ncols), c blocks over the batches
(a class that spans two batches is kept twice), and per element rho_T
(k floats) and tau_T (one).  Each batch also keeps its element and class
indices, 16 bytes per element.  At ex1/qopt p0 level 6 (k = ncols = 11,
173 blocks) R takes 0.17 MB and rho and tau 1.6 MB; at ex1/simple p2
level 5 (k = ncols = 40, 149 blocks) 1.9 and 1.3 MB.  With one class per
element R takes the most: 15.9 MB at p0 level 6 and 52.4 MB at p2 level 5.
An augmented :class:`Solution` also keeps the SuperLU factor of its
skeleton system, about 12 bytes per entry of L + U: 1.49 M entries, 17.9
MB, at ex1/qopt p0 level 6 and 3.20 M, 38.4 MB, at ex1/simple p2 level 5.

The skeleton system is solved one way only (:func:`_solve_spd`): from the
first iterate x_0 = F^{-1} b, with F a SuperLU factor in symmetric mode
(minimum-degree ordering of A + A^t, diagonal pivots), conjugate gradients
preconditioned by F (Saad, Iterative Methods for Sparse Linear Systems,
2nd ed., ch. 9) run until the normwise backward error of the assembled
matrix is at most 1e-16 (``_PCG_TARGET``, or the solver tolerance if that
is lower), or fails to decrease over a step once it is within the
tolerance (a rounding floor), or 50 steps (``_PCG_STEPS``) have run.  The
backward error of the best iterate is then certified against the solver
tolerance; ``Solution.residual`` is that backward error.  F is the factor
of A itself unless the solve is handed one.  With A's own factor, x_0 is
the direct solve; it meets the target in every solve of the acceptance
matrix, and such a solve takes no step and returns x_0.  A solve that
fails to factor or to certify raises :class:`SolverError`; there is no
fallback.
The target lies five orders of magnitude below the default tolerance
1e-12, which keeps its meaning: a stop at 1e-12 moves the printed digits
of the finest ex1/qopt p0 errors.

The class QR depends on the mesh, the data, the degrees and the test
norm, not on the trial variant.  A solve evaluates the loads F in batches,
uses them in its QR sweep and drops them; its :class:`Solution` keeps the
DOF map, the assembler and the class QR.  A solve on the same mesh, data,
degrees and test norm can take that solution as its test space
(``assemble_and_solve(..., test_space=solution)``): it shares all three
and evaluates no F, B, G or QR at all, only its own rows of R.  A test
space of another test norm raises ValueError.  A study level solves the
augmented system first and gives it to the standard solve as its test
space (:func:`dpglab.harness.run_convergence_study`), and reads the energy
error from the standard solve's estimator.  The augmented test space also
hands over its factor: the standard rows are the augmented ones plus the
p+2 u_extra rows Z_c = R_c[nf_std:nf_aug, skel], so A_std = A_aug +
sum_T Z_T^t Z_T on the same pattern, every eigenvalue of A_aug^{-1} A_std
is at least 1, and the standard solve takes 1-8 steps on the studies of
the acceptance matrix instead of a factorization.  Its x is that of a
standalone solve to rounding (within 1e-9 of max|x|), not bit for bit; a
standard test space hands over no factor, so the augmented solve on it is
the standalone one bit for bit.  The study drops the factor after the
standard solve.

:func:`error_function` is the independent check of that estimator: it
evaluates F again and condenses again with the assembler of the solve,
against the solve's own trial layout, and forms z_T = y_T - Y_c u_T from
the solve's trial vector, so it sees the same test space, quadrature and
load.  Its element norms are |z_T|, and B_T^t eps_T = Y_c^t z_T, with
eps_T = G_T^{-1} (F_T - B_T u_T), reproduces the algebraic residual of
every trial DOF (Galerkin orthogonality): summed over elements in the
skeleton rows, element by element in the field rows.
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
from .spaces import CoefficientVector, DofMap, TrialLayout, build_dofmap, trial_layout

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
# the preconditioned CG loop of _solve_spd stops at this backward error (or
# at the solver tolerance, if that is lower), five orders of magnitude below
# the default tolerance: a stop at 1e-12 moves the printed digits of the
# finest ex1/qopt p0 errors.  It runs at most _PCG_STEPS steps
_PCG_TARGET = 1e-16
_PCG_STEPS = 50


class SolverError(RuntimeError):
    """Raised when an element Gram factorization or the global solve fails."""


class _ClassQR(NamedTuple):
    """Householder QR of the whitened class blocks of one batch of elements,
    columns in the order of the augmented layout (see the module doc), and
    the whitened loads of its elements in Q's coordinates."""

    els: np.ndarray  # (e,) elements of the batch
    inv: np.ndarray  # (e,) position of each element's class in R
    R: np.ndarray  # (c, k, ncols) R_c of each class in the batch
    rho: np.ndarray  # (e, k) Q_c^t y_T
    tau: np.ndarray  # (e,) |y_T - Q_c rho_T|


@dataclass
class Solution:
    """Discrete solution of one DPG solve, with the test space it lives in:
    the DOF map, the assembler (element classes, quadrature) and the class
    QR of the whitened blocks (see the module doc for its bytes).  The
    fields and the element trial vectors are in the column order of
    ``layout``, the trial layout of the solve's variant."""

    mesh: Mesh = field(repr=False)
    problem: ProblemSpec = field(repr=False)
    dofmap: DofMap = field(repr=False)
    layout: TrialLayout = field(repr=False)
    p: int
    kind: TestNorm
    assembler: ElementAssembler = field(repr=False)
    x: np.ndarray = field(repr=False)  # skeleton coefficients, numbered by dofmap
    fields: np.ndarray = field(repr=False)  # (nt, layout.uh0) field columns per element
    residual: float = 0.0
    qr: list = field(default_factory=list, repr=False)  # _ClassQR per batch
    estimator: np.ndarray | None = field(default=None, repr=False)  # (nt,) |z_T|
    # the SuperLU factor of an augmented solve, which preconditions the
    # standard solve that takes this solution as its test space
    _lu: object = field(default=None, repr=False)

    @property
    def u(self) -> CoefficientVector:
        lay = self.layout
        return CoefficientVector(self.fields[:, lay.u_cols].ravel(), self.mesh, lay.pu)

    @property
    def sigma(self) -> np.ndarray:
        """(nt, 2, ns) component coefficients."""
        lay = self.layout
        return self.fields[:, lay.sx0:lay.sx0 + 2 * lay.ns].reshape(
            self.mesh.n_triangles, 2, lay.ns)

    @property
    def energy(self) -> float:
        """The energy error estimator: the test norm of the Riesz
        representative of the residual, sqrt(sum_T |z_T|^2)."""
        return float(np.sqrt(np.sum(self.estimator ** 2)))

    def local_trial(self) -> np.ndarray:
        """(nt, n_local) element trial vectors; boundary traces are zero."""
        return np.concatenate([self.fields, self.dofmap.local_vector(self.x)], axis=1)


@dataclass
class EnergyError:
    """Element norms of the error function and their total, plus the
    Galerkin orthogonality residual B^t eps of every trial DOF: the
    assembled skeleton rows, then the field rows of each element in turn."""

    element_norms: np.ndarray  # (nt,)
    total: float
    orth_residual: np.ndarray = field(repr=False)
    rhs_norm: float  # norm of B^t G^{-1} F over the same rows


def gram_cholesky(G):
    """Cholesky factor(s) L of the (stacked) Gram matrix ``G = L L^t``, or None
    when ``G`` does not factor to finite values.  OpenBLAS lets NaN pivots
    through without raising, so a finite factor is part of the SPD test."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def _class_failure(els, inv, bad, what: str) -> SolverError:
    """The error naming the lowest-numbered element of ``els`` whose class
    (``inv``, the position of each element's class in the batch) is one of
    ``bad``; ``what`` says what failed, with ``{t}`` for the element."""
    t = els[np.isin(inv, bad)].min()
    return SolverError(what.format(t=t) + "; check coefficients and quadrature")


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
        raise _class_failure(els, inv, bad, "Gram matrix of element {t} is not SPD")
    # numpy has no batched triangular solve; scipy's solve_triangular loops
    # over the batch in Python, so W = L^{-1} comes from an LU solve
    W = np.linalg.solve(L, np.broadcast_to(np.eye(L.shape[-1]), L.shape))
    return W @ B[first], (W[inv] @ F[:, :, None])[:, :, 0], inv


def _eliminate(Y, y, inv, els) -> _ClassQR:
    """Householder QR of the whitened class blocks ``Y`` of
    :func:`_condense_batch`, with the loads ``y`` of the elements ``els``.

    With Y_c = Q_c R_c the thin factorization, rho_T = Q_c^t y_T and
    tau_T = |y_T - Q_c rho_T|, the element's share of the residual is
    |y_T - Y_c x|^2 = |rho_T - R_c x|^2 + tau_T^2 for every trial vector x;
    :func:`_variant_rows` takes a variant's rows from it.  A rank-deficient
    column is no error here: only the field columns of the variant that
    solves must have full rank.
    """
    Q, R = np.linalg.qr(Y)
    Qe = Q[inv]
    rho = (y[:, None, :] @ Qe)[:, 0]
    tau = np.linalg.norm(y - (Qe @ rho[:, :, None])[:, :, 0], axis=1)
    return _ClassQR(els, inv, R, rho, tau)


def _variant_rows(qr: _ClassQR, nf: int, nk: int):
    """The rows of a variant with ``nf`` field columns and ``nk`` skeleton
    columns: M_c = R_c[nf:, skel] per class and g_T = rho_T[nf:] per
    element, so that the element's residual, minimized over its fields, is
    |g_T - M_c x_s|^2 + tau_T^2.

    A class whose R_ff = R_c[:nf, :nf] has a zero or non-finite diagonal
    entry, so that the variant's field columns have no full column rank,
    raises :class:`SolverError` naming the lowest-numbered element of such a
    class in the batch.
    """
    d = np.diagonal(qr.R[:, :nf, :nf], axis1=1, axis2=2)
    bad = np.flatnonzero(~(np.isfinite(d) & (d != 0)).all(axis=1))
    if len(bad):
        raise _class_failure(qr.els, qr.inv, bad,
                             "field columns of element {t} are rank deficient")
    # contiguous, so that M^t M is evaluated by syrk and exactly symmetric
    return np.ascontiguousarray(qr.R[:, nf:, -nk:]), qr.rho[:, nf:]


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


def _csc_pattern(dofmap: DofMap):
    """The canonical CSC pattern of the skeleton system and the place of
    every element entry in it: ``(indptr, indices, pos)``, with pos[t, i, j]
    (int32) the place in ``data`` of the entry in row gather[t, i] and column
    gather[t, j]; the entries of boundary DOFs go to ``nnz``.

    The pattern is that of E^t E, with E the incidence of the elements and
    their kept skeleton DOFs.  E^t E is symmetric, so its sorted CSR arrays
    are its CSC arrays, and with its data set to 0, 1, ..., nnz - 1 a lookup
    of a DOF pair reads the place of its entry.  The pairs are looked up
    ``_LOOKUPS`` at a time.
    """
    g = dofmap.gather
    nt, nk = g.shape
    keep = g >= 0
    E = sp.csr_matrix((np.ones(np.count_nonzero(keep), dtype=np.int32), g[keep],
                       np.r_[0, np.cumsum(np.count_nonzero(keep, axis=1))]),
                      shape=(nt, dofmap.total))
    P = E.T.tocsr() @ E
    P.sort_indices()
    nnz = P.nnz
    if nnz >= _INDEX_BOUND:
        raise SolverError(f"{nnz} nonzeros exceed the int32 indices of the assembly")
    P.data = np.arange(nnz, dtype=np.int32)
    c = np.where(keep, g, 0).astype(P.indices.dtype)  # so sampling copies no index
    pos = np.empty((nt, nk, nk), dtype=np.int32)
    step = max(1, _LOOKUPS // nk**2)
    for lo in range(0, nt, step):
        cs = c[lo:lo + step]
        pair = (len(cs), nk, nk)
        # P[c_j, c_i] is the CSC place of the entry in row c_i, column c_j
        pos[lo:lo + step] = np.asarray(P[np.broadcast_to(cs[:, None, :], pair).ravel(),
                                         np.broadcast_to(cs[:, :, None], pair).ravel()]
                                       ).reshape(pair)
    pos[~keep] = nnz
    np.swapaxes(pos, 1, 2)[~keep] = nnz
    return P.indptr.astype(np.int32), P.indices.astype(np.int32, copy=False), pos


def assemble_global(dofmap: DofMap, layout: TrialLayout, qr: list):
    """Assemble the skeleton system (CSC matrix, rhs) of the variant of the
    trial ``layout`` from the class QR ``qr``, the :class:`_ClassQR` of
    every batch, straight into the canonical CSC arrays of
    :func:`_csc_pattern`.  Nothing is evaluated per element;
    :func:`_recover` then finds the fields and the estimator from ``qr``.

    Each batch adds its M_c^t M_c (:func:`_variant_rows`) per element into
    ``data`` and its M_c^t g_T into the rhs with one ``np.add.at`` each, in
    batch order.  Both arrays have one slot past the end, which takes the
    entries of the boundary DOFs: their places are ``nnz`` and their gather
    entries -1.  No triplet is formed, no index is written and nothing is
    sorted; A is exactly symmetric and the same for any batch size.
    """
    n = dofmap.total
    if n >= _INDEX_BOUND:
        raise SolverError(f"{n} DOFs exceed the int32 indices of the assembly")
    indptr, indices, positions = _csc_pattern(dofmap)
    data = np.zeros(len(indices) + 1)
    b = np.zeros(n + 1)
    nf, nk = layout.uh0, dofmap.gather.shape[1]
    for batch in qr:
        M, g = _variant_rows(batch, nf, nk)
        Mt = np.swapaxes(M, 1, 2)
        S = (Mt @ M)[batch.inv]  # exactly symmetric: numpy evaluates M^t M by syrk
        np.add.at(data, positions[batch.els].ravel(), S.ravel())
        np.add.at(b, dofmap.gather[batch.els].ravel(),
                  (Mt[batch.inv] @ g[:, :, None]).ravel())
    return sp.csc_matrix((data[:-1], indices, indptr), shape=(n, n)), b[:-1]


def _recover(dofmap: DofMap, layout: TrialLayout, x: np.ndarray, qr: list):
    """The field coefficients of every element, (nt, nf) in the columns of
    ``layout``, the first nf of the class QR's, and the estimator |z_T| of
    every element, (nt,), from the solution ``x`` of the skeleton system
    that :func:`assemble_global` assembled from the class QR ``qr``.

    With r_T = rho_T - R_c[:, skel] x_s, the fields are the local
    least-squares solution x_f = R_ff^{-1} r_T[:nf], one triangular inverse
    per class, and |z_T|^2 = |r_T[nf:]|^2 + tau_T^2.
    """
    nf, nk = layout.uh0, dofmap.gather.shape[1]
    x_s = dofmap.local_vector(x)
    fields = np.empty((len(x_s), nf))
    norms2 = np.empty(len(x_s))
    for els, inv, R, rho, tau in qr:
        # contiguous before the gather, which then copies whole blocks
        R_s = np.ascontiguousarray(R[:, :, -nk:])
        r = rho - (R_s[inv] @ x_s[els][:, :, None])[:, :, 0]
        # numpy has no batched triangular solve (see _condense_batch)
        fields[els] = (np.linalg.inv(R[:, :nf, :nf])[inv] @ r[:, :nf, None])[:, :, 0]
        norms2[els] = np.einsum("ei,ei->e", r[:, nf:], r[:, nf:]) + tau * tau
    return fields, np.sqrt(norms2)


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
    factorization.  On the field-and-skeleton system that ex1/qopt p0
    level 6 factored before the fields were eliminated, the factor's peak
    memory growth fell from 61.6 to 33.8 MiB and its time from 0.23 to
    0.12 s, with the same ordering, the same pivots and 175 fewer L+U
    entries; on the eight systems (p 0-3) of the factor table in
    ``BENCH_15.json`` the peak fell by 23-46 % and the time by 18-47 %.
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


def _solve_spd(A, b, tol: float, lu=None):
    """Solve the condensed SPD system to normwise backward error <= tol.

    ``lu`` is a factor whose solve approximates A^{-1}: the SuperLU factor
    of A or of a matrix A' <= A of the same pattern (see the module doc).
    Only without one is A factored (:func:`_factor`); A is only read.  From
    x_0 = lu.solve(b), conjugate gradients preconditioned by ``lu`` run
    until the backward error is at most min(tol, ``_PCG_TARGET``), fails to
    decrease over a step once it is at most ``tol``, turns NaN, or
    ``_PCG_STEPS`` steps have run; the iterate of the least backward error
    is kept.  A first iterate that meets the target takes no step.
    Returns ``(x, backward error, lu)``.  The answer is returned only with
    its certificate: if the system has a non-finite entry, the
    factorization fails, or the backward error exceeds ``tol`` (or is NaN)
    when the loop stops, :class:`SolverError` is raised.

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

    def backward_error(x, r):
        denom = anorm * np.linalg.norm(x) + bnorm
        return float(np.linalg.norm(r) / denom) if denom != 0 else 0.0

    if lu is None:
        lu = _factor(A)
    x = lu.solve(b)
    r = b - A @ x
    res = backward_error(x, r)
    target = min(tol, _PCG_TARGET)
    steps = 0
    # x and res are the best iterate so far; "not <=" so that a NaN
    # backward error never certifies
    if not res <= target:
        xk, rk = x, r
        z = lu.solve(rk)
        d, rz = z, rk @ z
        while steps < _PCG_STEPS:
            Ad = A @ d
            alpha = rz / (d @ Ad)
            xk = xk + alpha * d
            rk = b - A @ xk
            resk = backward_error(xk, rk)
            steps += 1
            if resk < res:
                x, res = xk, resk
                if res <= target:
                    break
            elif np.isnan(resk) or res <= tol:
                break  # NaN, or the rounding floor of a certified iterate
            z = lu.solve(rk)
            rz, rz_prev = rk @ z, rz
            d = z + (rz / rz_prev) * d
    if not res <= tol:
        raise SolverError(f"global solve not certified: backward error {res:.3e} "
                          f"> tolerance {tol:.3e} after {steps} PCG steps "
                          f"({A.shape[0]} DOFs)")
    return x, res, lu


def _check_solver_tol(tol: float) -> None:
    """Raise ValueError unless the backward-error tolerance ``tol`` is finite
    and positive: no solve certifies against NaN or 0, and every solve
    against inf."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be finite and positive, got {tol}")


def _check_data(solution: Solution, mesh: Mesh, problem, caller: str) -> None:
    """Raise ValueError unless ``mesh`` and the coefficients and loads of
    ``problem`` are the objects ``solution`` was computed with: its element
    classes and its class QR hold for those only."""
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

    Both variants take the rows of their field columns from one class QR,
    solve the skeleton system of their DOF map and recover the fields and
    the energy error estimator per element by a local least-squares solve
    (see the module doc); the augmented variant has u of degree p+1.
    ``Solution.residual`` certifies the backward error of the assembled
    skeleton system.

    ``test_space`` is a solve on the same mesh with the same coefficients,
    load, trial degree, test degrees and test norm, of either variant; this
    solve then shares its DOF map, assembler and class QR instead of
    computing them again.  An augmented test space also hands over the
    factor of its system, which preconditions this solve in place of a
    factorization of its own (see the module doc); its results are then
    those of a standalone solve to rounding.  A study's standard solve
    takes the test space of its augmented solve.
    Other data raise ValueError, as do a ``solver_tol`` that is not finite
    and positive and test degrees too low for the variant
    (:func:`dpglab.forms._check_test_degrees`).
    """
    _check_solver_tol(solver_tol)
    layout = trial_layout(p, variant)
    if test_space is not None:
        _check_data(test_space, mesh, problem, "test_space")
        asm = test_space.assembler
        have, want = (asm.p, asm.k1, asm.k2), (p, *_test_degrees(p, k1, k2))
        if have != want:
            raise ValueError(f"test_space has degrees (p, k1, k2) = {have}; "
                             f"this solve asks for {want}")
        if test_space.kind is not kind:
            raise ValueError(f"test_space has the {test_space.kind.value} test norm; "
                             f"this solve asks for {kind.value}")
    _check_test_degrees(layout, k1, k2)
    if test_space is None:
        dofmap = build_dofmap(mesh, p)
        asm = ElementAssembler(mesh, problem.coeffs, p, k1, k2)
        # the sweep drops F and its last batch's B and G before
        # assemble_global builds the position table of the pattern
        qr = [_eliminate(Y, y, inv, els) for els, Y, y, inv in
              _condensed(asm, trial_layout(p, "augmented"), kind,
                         _loads(asm, problem.f, problem.fvec))]
    else:
        dofmap, qr = test_space.dofmap, test_space.qr
    A, b = assemble_global(dofmap, layout, qr)
    x, res, lu = _solve_spd(A, b, solver_tol, None if test_space is None else test_space._lu)
    fields, estimator = _recover(dofmap, layout, x, qr)
    return Solution(mesh=mesh, problem=problem, dofmap=dofmap, layout=layout, p=p,
                    kind=kind, assembler=asm, x=x, fields=fields, residual=res,
                    qr=qr, estimator=estimator, _lu=lu if variant == "augmented" else None)


def error_function(mesh: Mesh, problem, solution: Solution) -> EnergyError:
    """Test norms of the Riesz representative of the residual, per element.

    Evaluates the loads F of ``problem`` again and condenses with the
    assembler of ``solution`` against its trial layout, so the test space,
    the quadrature, the coefficients and the load are those of the solve.
    It does not reuse the solve's class QR, so its element norms check
    ``Solution.estimator`` and its Galerkin orthogonality residual checks
    the skeleton solve and the field recovery alike.

    Its skeleton rows are summed batch by batch with ``np.add.at`` into a
    vector with a boundary slot past the end, as :func:`assemble_global`
    sums the rhs.  ``mesh`` and ``problem`` must be the ones the solve was
    given; other objects raise ValueError.
    """
    _check_data(solution, mesh, problem, "error_function")
    dofmap, asm = solution.dofmap, solution.assembler
    nf = solution.layout.uh0
    u_loc_all = solution.local_trial()
    norms2 = np.empty(mesh.n_triangles)
    # skeleton rows, summed as in assemble_global (boundary entries into the
    # last slot), and the field rows of every element
    orth_s, rhs_s = np.zeros((2, dofmap.total + 1))
    orth_f, rhs_f = np.empty((2, mesh.n_triangles, nf))
    for els, Y, y, inv in _condensed(asm, solution.layout, solution.kind,
                                     _loads(asm, problem.f, problem.fvec)):
        z = y - (Y[inv] @ u_loc_all[els][:, :, None])[:, :, 0]  # L^{-1} (F - B u)
        norms2[els] = np.einsum("ei,ei->e", z, z)
        Yt = np.swapaxes(Y, 1, 2)[inv]
        Ytz, Yty = (Yt @ z[:, :, None])[:, :, 0], (Yt @ y[:, :, None])[:, :, 0]
        orth_f[els], rhs_f[els] = Ytz[:, :nf], Yty[:, :nf]
        g = dofmap.gather[els].ravel()
        np.add.at(orth_s, g, Ytz[:, nf:].ravel())
        np.add.at(rhs_s, g, Yty[:, nf:].ravel())
    rhs = np.concatenate([rhs_s[:-1], rhs_f.ravel()])
    return EnergyError(element_norms=np.sqrt(norms2),
                       total=float(np.sqrt(norms2.sum())),
                       orth_residual=np.concatenate([orth_s[:-1], orth_f.ravel()]),
                       rhs_norm=float(np.linalg.norm(rhs)))
