"""Element matrices for the ultra-weak first-order system.

For the system

    grad u - beta u + C sigma = C fvec,   div sigma + gamma u = f,   u|_bnd = 0

the broken (per-element) bilinear form is

    b(u, v) = (u, -div tau - beta . tau + gamma v)_T + (sigma, C tau - grad v)_T
              + <uhat, tau . n_T>_dT + <sighat, v>_dT

with test pair v = (v, tau) in P^{k1}(T) x P^{k2}(T)^2 and load
F(v) = (f, v) + (fvec, C tau).  The volume part pairs (u, sigma) with the
adjoint A*(v, tau) = (-div tau - beta . tau + gamma v, C tau - grad v).
Three test inner products are supported:

* quasi-optimal:  |(-div tau - beta.tau + gamma v)|^2
                  + |C^{1/2} tau - C^{-1/2} grad v|^2 + |C^{1/2} tau|^2 + |v|^2
* standard:       |C^{-1/2} grad v|^2 + |v|^2 + |div tau|^2 + |C^{1/2} tau|^2
* simple:         |grad v|^2 + |v|^2 + |div tau|^2 + |tau|^2

Each is a sum of squares of pointwise linear functionals ("rows") of the
test pair, so every Gram matrix is G = P^t W P for the stacked rows P at the
volume quadrature points with weights W.  The C^{+-1/2} terms are realised
with the pointwise Cholesky factor C = L L^t: |C^{1/2} tau| = |L^t tau| and
|C^{-1/2} a| = |L^{-1} a|.  The same adjoint rows give the volume part of B
and of the consistency residual.  Only the quasi-optimal product sees the
convection term.

B and G of an element depend only on its geometry, its edge orientation and
the coefficient values at its volume quadrature points.  The assembler sorts
the elements into classes on which all of these are bitwise equal and
evaluates B and G once per class; on the uniformly refined criss-cross
meshes with elementwise-constant coefficients a few dozen classes cover the
mesh, and variable coefficients give one class per element.

The assembler holds the test space only: the element classes, the
quadrature and the test tables.  The trial space is the caller's: B is
assembled against the :class:`dpglab.spaces.TrialLayout` it is given, so
the standard and the augmented variant share one assembler.

All bases are scaled by 1 / sqrt(det J) per element, which cancels the
Jacobian factor in every volume pairing of two scaled functions.  Test rows
are ordered [v block | tau_x block | tau_y block]; trial columns follow the
layout B is assembled against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .mesh import Mesh
from .refelem import (edge_quadrature, lagrange_1d, legendre_orthonormal_1d,
                      ref_edge_points, scalar_tables, scalar_values,
                      triangle_quadrature)
from .spaces import TrialLayout

# elements per batch of the class key here and of the loads and the
# condensation in dpglab.dpg_solver; bounds the point values, the per-element
# B, G and whitened loads of a batch, and the test rows and class factors of
# the classes in it
_CHUNK = 512


class TestNorm(Enum):
    __test__ = False  # not a pytest collection target

    QUASI_OPTIMAL = "qopt"
    STANDARD = "std"
    SIMPLE = "simple"

    @classmethod
    def from_name(cls, name: str) -> "TestNorm":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown test norm {name!r}; expected qopt|std|simple")


@dataclass(frozen=True)
class Coefficients:
    """Pointwise-evaluable coefficients C (SPD matrix), beta, gamma.

    Discontinuities must be aligned with the mesh so that volume quadrature
    points never straddle a jump.
    """

    matrix: Callable[[np.ndarray], np.ndarray]  # (n,2,2)
    advection: Callable[[np.ndarray], np.ndarray]  # (n,2)
    reaction: Callable[[np.ndarray], np.ndarray]  # (n,)

    @staticmethod
    def constant(C=None, beta=(0.0, 0.0), gamma=0.0) -> "Coefficients":
        Cm = np.eye(2) if C is None else np.asarray(C, dtype=float)
        bv = np.asarray(beta, dtype=float)
        g = float(gamma)
        return Coefficients(
            matrix=lambda x: np.broadcast_to(Cm, (len(x), 2, 2)).copy(),
            advection=lambda x: np.broadcast_to(bv, (len(x), 2)).copy(),
            reaction=lambda x: np.full(len(x), g),
        )


def _test_degrees(p: int, k1: int | None, k2: int | None) -> tuple[int, int]:
    """Test degrees (k1, k2) of an assembler of trial degree ``p``; each
    defaults to p + 2."""
    return (p + 2 if k1 is None else int(k1), p + 2 if k2 is None else int(k2))


def _check_test_degrees(layout: TrialLayout, k1: int | None, k2: int | None) -> None:
    """Raise ValueError unless k1 >= p + 1 and k2 >= pu + 1 for the trial
    layout's degrees p (sigma) and pu (u).

    Then grad v reaches the degree of sigma and div tau that of u.  Lower
    test degrees can leave the discrete system singular, which no backward
    error detects (err_u 1e15 at p = 1, k2 = 1), or lose the
    superconvergence (k1 = p)."""
    k1, k2 = _test_degrees(layout.p, k1, k2)
    if k1 < layout.p + 1 or k2 < layout.pu + 1:
        raise ValueError(
            f"test degrees (k1, k2) = ({k1}, {k2}) are too low for trial degrees "
            f"(p, pu) = ({layout.p}, {layout.pu}); need k1 >= {layout.p + 1} "
            f"and k2 >= {layout.pu + 1}")


def _volume_exactness(k1: int, k2: int) -> int:
    """Default exactness of the volume quadrature for test degrees (k1, k2)."""
    return 2 * max(k1, k2) + 4


class _TestRows(NamedTuple):
    """Test basis at the volume quadrature points of a chunk of elements.

    Every value carries the square root of the quadrature weight of its
    point, so a sum over points of the product of two rows is a volume
    integral.  ``adjoint`` spans all test columns [v | tau_x | tau_y]; the
    basis tables cover one column block each.
    """

    adjoint: np.ndarray  # (e, 3, Q, n_test) rows of A*(v, tau)
    v: np.ndarray  # (Q, n1) v basis
    tau: np.ndarray  # (Q, n2) basis of each tau component
    grad_v: np.ndarray  # (2, e, Q, n1)
    grad_tau: np.ndarray  # (2, e, Q, n2) gradient of each tau component basis
    C: np.ndarray  # (e, Q, 2, 2) coefficient values
    points: np.ndarray  # (e, Q, 2) mapped quadrature points


def _cholesky2x2(C: np.ndarray):
    """Pointwise factor C = L L^t of 2x2 matrices as (l11, l21, l22), each
    with a trailing axis for broadcasting over test columns.  Entries are
    NaN where C is not SPD; the Gram factorization then rejects the element."""
    with np.errstate(invalid="ignore", divide="ignore"):
        l11 = np.sqrt(C[..., 0, 0])
        l21 = C[..., 1, 0] / l11
        l22 = np.sqrt(C[..., 1, 1] - l21 * l21)
    return l11[..., None], l21[..., None], l22[..., None]


class ElementAssembler:
    """Batched assembly of B, G and F over (a subset of) the elements.

    Reference basis/quadrature tables are computed once.  Construction sorts
    the elements into classes (:attr:`classes`) on which every input of B
    and G is bitwise equal; :meth:`b_matrices` and :meth:`gram` evaluate
    their kernels once per class among the requested elements and return
    one matrix per requested element.  The class key is built and hashed
    batch by batch over the mesh; afterwards the assembler keeps one class
    id per element and one representative per class, and the memory of a
    call grows with the number of requested elements.

    The classes, the quadrature and the test tables make up the test space.
    It does not depend on the trial variant: :meth:`b_matrices` takes the
    trial layout to assemble against, so one assembler serves the standard
    and the augmented solve (u of degree p + 1) alike.
    """

    def __init__(self, mesh: Mesh, coeffs: Coefficients, p: int,
                 k1: int | None = None, k2: int | None = None,
                 volume_exactness: int | None = None,
                 edge_exactness: int | None = None):
        if p < 0:
            raise ValueError("trial degree must be >= 0")
        self.mesh = mesh
        self.coeffs = coeffs
        self.p = p
        self.k1, self.k2 = _test_degrees(p, k1, k2)
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("test degrees must be >= 1")
        kmax = max(self.k1, self.k2)

        vol_ex = (_volume_exactness(self.k1, self.k2) if volume_exactness is None
                  else volume_exactness)
        edge_ex = 2 * kmax + 2 if edge_exactness is None else edge_exactness
        if edge_ex < (p + 1) + kmax:
            raise ValueError(
                f"edge quadrature exactness {edge_ex} insufficient for trace degree "
                f"{p + 1} with test degrees ({self.k1},{self.k2})")
        self.rule = triangle_quadrature(vol_ex)
        self.erule = edge_quadrature(edge_ex)
        # the highest volume trial degree is p + 1, that of the augmented u
        if self.rule.exactness < max(2 * kmax, (p + 1) + kmax):
            raise ValueError(
                f"volume quadrature exactness {self.rule.exactness} insufficient for "
                f"trial degree {p + 1} with test degrees ({self.k1},{self.k2})")

        # reference test tables at volume quadrature points
        self.V1, self.dV1 = scalar_tables(self.k1, self.rule.points)
        if self.k2 == self.k1:
            self.V2, self.dV2 = self.V1, self.dV1
        else:
            self.V2, self.dV2 = scalar_tables(self.k2, self.rule.points)
        self.n1 = self.V1.shape[1]
        self.n2 = self.V2.shape[1]
        self.n_test = self.n1 + 2 * self.n2
        n1, n2 = self.n1, self.n2
        self._col_blocks = [slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n1 + 2 * n2)]

        # reference tables on the three local edges
        s = self.erule.points
        self.V1E, self.V2E = [], []
        for j in range(3):
            pts = ref_edge_points(s, j)
            self.V1E.append(scalar_values(self.k1, pts))
            self.V2E.append(scalar_values(self.k2, pts)
                            if self.k2 != self.k1 else self.V1E[-1])
        # uhat nodal values in the column order of TrialLayout.uhat_cols:
        # local vertex a, the edge nodes lo->hi, local vertex b.  The nodes
        # are uniform on the lo->hi parameter, so a flipped edge only
        # reverses them: [q, 1, ..., q-1, 0]
        q = p + 1
        self.lag_fwd = lagrange_1d(q, s)
        self.lag_rev = lagrange_1d(q, 1.0 - s)[:, [q, *range(1, q), 0]]
        self.leg_fwd = legendre_orthonormal_1d(p, s)
        self.leg_rev = legendre_orthonormal_1d(p, 1.0 - s)
        # trial basis of degree p + 1; the basis is hierarchical, so its first
        # scalar_dim(d) columns are the degree-d basis bit for bit
        self.U = scalar_values(p + 1, self.rule.points)

        self.classes, self._firsts = self._element_classes()

    def _element_classes(self):
        """Class id of every element and the first element of each class.

        The key row of an element holds every per-element value B and G
        read; rows are compared as bytes, so unequal bits (even -0.0 against
        0.0) only split classes.  Classes are numbered in the order of their
        first element.  The rows are built and hashed ``_CHUNK`` elements at
        a time, so the point values of the coefficients stay batch-sized."""
        m = self.mesh
        nt = m.n_triangles
        ids = {}
        classes = np.empty(nt, dtype=np.int64)
        for lo in range(0, nt, _CHUNK):
            els = np.arange(lo, min(lo + _CHUNK, nt))
            n = len(els)
            _, inv_t, X = self._geom(els)
            flat = X.reshape(-1, 2)
            key = np.concatenate([
                inv_t.reshape(n, -1), m.dets[els, None], m.tri_edge_lengths[els],
                m.tri_edge_normals[els].reshape(n, -1), m.tri_edge_signs[els],
                m.tri_edge_flip[els],
                np.asarray(self.coeffs.matrix(flat)).reshape(n, -1),
                np.asarray(self.coeffs.advection(flat)).reshape(n, -1),
                np.asarray(self.coeffs.reaction(flat)).reshape(n, -1),
            ], axis=1)
            classes[els] = [ids.setdefault(row.tobytes(), len(ids)) for row in key]
        return classes, np.unique(classes, return_index=True)[1]

    def _representatives(self, els: np.ndarray):
        """First elements of the classes among ``els``, and for each element
        of ``els`` the position of its class among them."""
        cls, inverse = np.unique(self.classes[els], return_inverse=True)
        return self._firsts[cls], inverse

    # -- helpers -----------------------------------------------------------
    def _geom(self, els: np.ndarray):
        m = self.mesh
        return m.dets[els], m.inv_ts[els], m.map_points(self.rule.points, els)

    def _edge_data(self, els: np.ndarray, j: int):
        m = self.mesh
        return (m.tri_edge_lengths[els, j], m.tri_edge_normals[els, j],
                m.tri_edge_signs[els, j].astype(float), m.tri_edge_flip[els, j])

    def _all(self, elements) -> np.ndarray:
        if elements is None:
            return np.arange(self.mesh.n_triangles)
        return np.asarray(elements)

    def _rows(self, els: np.ndarray) -> _TestRows:
        """Test rows at the volume quadrature points of the elements ``els``:
        the rows of the adjoint
        A*(v, tau) = (-div tau - beta . tau + gamma v, C tau - grad v)
        and the basis tables the test norms are made of."""
        _, inv_t, X = self._geom(els)
        flat = X.reshape(-1, 2)
        gam = np.asarray(self.coeffs.reaction(flat)).reshape(X.shape[:2] + (1,))
        beta = np.asarray(self.coeffs.advection(flat)).reshape(X.shape[:2] + (2, 1))
        C = np.asarray(self.coeffs.matrix(flat)).reshape(X.shape[:2] + (2, 2))
        sw = np.sqrt(self.rule.weights)[:, None]
        V1, V2 = sw * self.V1, sw * self.V2
        grad_v = np.einsum("ecd,qid->ceqi", inv_t, sw[..., None] * self.dV1)
        grad_tau = np.einsum("ecd,qid->ceqi", inv_t, sw[..., None] * self.dV2)

        cv, ct = self._col_blocks[0], self._col_blocks[1:]
        adjoint = np.zeros((len(els), 3, len(sw), self.n_test))
        adjoint[:, 0, :, cv] = gam * V1
        for c in range(2):
            adjoint[:, 0, :, ct[c]] = -grad_tau[c] - beta[..., c, :] * V2
            adjoint[:, 1 + c, :, cv] = -grad_v[c]
            for d in range(2):
                adjoint[:, 1 + c, :, ct[d]] = C[..., c, d, None] * V2
        return _TestRows(adjoint, V1, V2, grad_v, grad_tau, C, X)

    def _norm_rows(self, kind: TestNorm, els: np.ndarray) -> list[np.ndarray]:
        """Rows whose squares, summed over rows and points, give the test norm."""
        r = self._rows(els)

        def row(*blocks):  # full-width row from (column block, values) pairs
            out = np.zeros(r.adjoint[:, 0].shape)
            for c, values in blocks:
                out[..., self._col_blocks[c]] = values
            return out

        v = row((0, r.v))
        grad_v = [row((0, g)) for g in r.grad_v]
        tau = [row((1, r.tau)), row((2, r.tau))]
        div_tau = row((1, r.grad_tau[0]), (2, r.grad_tau[1]))
        if kind is TestNorm.SIMPLE:
            return [*grad_v, v, div_tau, *tau]
        l11, l21, l22 = _cholesky2x2(r.C)
        lt_tau = [l11 * tau[0] + l21 * tau[1], l22 * tau[1]]  # L^t tau

        def l_inv(a):  # L^{-1} a for a pair of rows
            b0 = a[0] / l11
            return [b0, (a[1] - l21 * b0) / l22]

        if kind is TestNorm.STANDARD:
            return [*l_inv(grad_v), v, div_tau, *lt_tau]
        if kind is TestNorm.QUASI_OPTIMAL:
            return [r.adjoint[:, 0], *l_inv([r.adjoint[:, 1], r.adjoint[:, 2]]),
                    *lt_tau, v]
        raise ValueError(f"unknown test norm kind {kind!r}")

    # -- B -----------------------------------------------------------------
    def b_matrices(self, elements, layout: TrialLayout) -> np.ndarray:
        """B of each of the ``elements`` against the trial ``layout``,
        evaluated once per element class."""
        lay = layout
        if lay.p != self.p:
            raise ValueError(f"trial layout of degree {lay.p} for an assembler "
                             f"of degree {self.p}")
        els, inverse = self._representatives(np.asarray(elements))
        sdet = np.sqrt(self.mesh.dets[els])

        B = np.zeros((len(els), self.n_test, lay.total))
        # volume part: adjoint rows against the trial tables of u, sigma_x,
        # sigma_y; the rows carry sqrt(w), the tables the other sqrt(w)
        adj = np.swapaxes(self._rows(els).adjoint, 2, 3)
        sw = np.sqrt(self.rule.weights)[:, None]
        B[:, :, lay.u0:lay.u0 + lay.nu] = adj[:, 0] @ (sw * self.U[:, :lay.nu])
        S = sw * self.U[:, :lay.ns]
        B[:, :, lay.sx0:lay.sx0 + lay.ns] = adj[:, 1] @ S
        B[:, :, lay.sy0:lay.sy0 + lay.ns] = adj[:, 2] @ S

        rv, rt = self._col_blocks[0], self._col_blocks[1:]
        we = self.erule.weights
        for j in range(3):
            length, nrm, sgn, flip = self._edge_data(els, j)
            lag = np.where(flip[:, None, None], self.lag_rev[None], self.lag_fwd[None])
            leg = np.where(flip[:, None, None], self.leg_rev[None], self.leg_fwd[None])
            # <uhat, tau . n_T>
            cols = lay.uhat_cols(j)
            for c in range(2):
                B[:, rt[c], cols] += np.einsum("k,e,ekz,ki->eiz", we,
                                               length * nrm[:, c] / sdet, lag, self.V2E[j])
            # <sighat, v> with orientation sign against the global edge normal
            fac = sgn * np.sqrt(length) / sdet
            B[:, rv, lay.sighat_cols(j)] += np.einsum("k,e,ekm,ki->eim", we, fac, leg,
                                                      self.V1E[j])
        return B[inverse]

    # -- G -----------------------------------------------------------------
    def gram(self, kind: TestNorm, elements=None) -> np.ndarray:
        """Gram matrices P^t W P of the test norm ``kind`` (see module doc);
        the rows carry sqrt(W), so G = sum_r P_r^t P_r over the norm's rows.
        Evaluated once per element class among the requested elements."""
        els, inverse = self._representatives(self._all(elements))
        G = sum(np.swapaxes(r, 1, 2) @ r for r in self._norm_rows(kind, els))
        return G[inverse]

    # -- F -----------------------------------------------------------------
    def loads(self, f, fvec, elements=None) -> np.ndarray:
        els = self._all(elements)
        det, _, X = self._geom(els)
        sdet = np.sqrt(det)
        w = self.rule.weights
        F = np.zeros((len(els), self.n_test))
        flat = X.reshape(-1, 2)
        if f is not None:
            fv = np.asarray(f(flat)).reshape(X.shape[:2])
            F[:, :self.n1] = sdet[:, None] * np.einsum("q,eq,qi->ei", w, fv, self.V1)
        if fvec is not None:
            C = np.asarray(self.coeffs.matrix(flat)).reshape(X.shape[:2] + (2, 2))
            gv = np.asarray(fvec(flat)).reshape(X.shape[:2] + (2,))
            Cg = np.einsum("eqcd,eqd->eqc", C, gv)
            for c in range(2):
                F[:, self._col_blocks[1 + c]] = sdet[:, None] * np.einsum(
                    "q,eq,qi->ei", w, Cg[:, :, c], self.V2)
        return F

    # -- consistency residual ----------------------------------------------
    def residual_of_fields(self, u, sigma, f, fvec, elements=None) -> np.ndarray:
        """Per-element residual b((u, sigma, traces of u/sigma), test_i) - F_i
        for exact callables; vanishes to quadrature accuracy when (u, sigma)
        solves the system with data (f, fvec)."""
        els = self._all(elements)
        sdet = np.sqrt(self.mesh.dets[els])
        rows = self._rows(els)
        flat = rows.points.reshape(-1, 2)
        shape = rows.points.shape[:2]
        fields = np.concatenate([np.asarray(u(flat)).reshape(shape + (1,)),
                                 np.asarray(sigma(flat)).reshape(shape + (2,))], axis=2)
        # volume part: (u, sigma) against the adjoint rows, which carry sqrt(w)
        R = sdet[:, None] * np.einsum("q,eqk,ekqi->ei", np.sqrt(self.rule.weights),
                                      fields, rows.adjoint)

        s = self.erule.points
        we = self.erule.weights
        for j in range(3):
            XE = self.mesh.map_points(ref_edge_points(s, j), els)
            length, nrm, _, _ = self._edge_data(els, j)
            ue = np.asarray(u(XE.reshape(-1, 2))).reshape(XE.shape[:2])
            se = np.asarray(sigma(XE.reshape(-1, 2))).reshape(XE.shape[:2] + (2,))
            sn = np.einsum("eqc,ec->eq", se, nrm)
            R[:, :self.n1] += (length / sdet)[:, None] * \
                np.einsum("k,ek,ki->ei", we, sn, self.V1E[j])
            for c in range(2):
                R[:, self._col_blocks[1 + c]] += (length * nrm[:, c] / sdet)[:, None] * \
                    np.einsum("k,ek,ki->ei", we, ue, self.V2E[j])
        return R - self.loads(f, fvec, els)

