import numpy as np
import pytest
import scipy.linalg as sla

from dpglab import forms
from dpglab.dpg_solver import SolverError, assemble_global
from dpglab.forms import Coefficients, ElementAssembler, TestNorm
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.problems import example
from dpglab.refelem import (LOCAL_EDGES, REF_VERTICES, scalar_tables,
                            scalar_values, triangle_quadrature)
from dpglab.spaces import build_dofmap, trial_layout

# anisotropic SPD diffusion matrix with convection and reaction
ANISO = dict(C=[[2.0, 0.6], [0.6, 0.5]], beta=(1.0, -0.5), gamma=0.3)


def _aniso_coefficients():
    """The ANISO coefficients, and the same C, beta with example 1's
    piecewise gamma (1, 1/2 and 0 on mesh-aligned regions)."""
    const = Coefficients.constant(**ANISO)
    return [const, Coefficients(matrix=const.matrix, advection=const.advection,
                                reaction=example(1).coeffs.reaction)]


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


@pytest.fixture(scope="module")
def level3(initial):
    return refine_uniform(refine_uniform(initial))


def test_testnorm_parsing():
    assert TestNorm.from_name("qopt") is TestNorm.QUASI_OPTIMAL
    with pytest.raises(ValueError):
        TestNorm.from_name("fancy")


def test_b_zero_action(initial):
    prob = example(1)
    B = ElementAssembler(initial, prob.coeffs, 1).b_matrices(np.array([0]), trial_layout(1))[0]
    assert np.abs(B @ np.zeros(B.shape[1])).max() == 0.0


def test_b_constant_test_function_row(initial):
    """Pairing against the test pair (v, tau) = (1, 0) reduces to plain
    integrals: <u_j, gamma>_T on the u block, edge integrals of the sighat
    basis on the trace block, zero elsewhere."""
    coeffs = Coefficients.constant(gamma=1.0)
    p = 1
    t = 3
    asm = ElementAssembler(initial, coeffs, p)
    B = asm.b_matrices(np.array([t]), trial_layout(p))[0]
    det = initial.dets[t]
    # expansion of the constant 1 in the scaled orthonormal test basis
    c = np.zeros(asm.n_test)
    c[0] = np.sqrt(det) / np.sqrt(2.0)
    row = c @ B

    lay = trial_layout(p)
    rule = triangle_quadrature(2 * p + 6)
    psi = scalar_values(p, rule.points)
    # oracle: direct quadrature of <phi_j, 1>_T for the scaled basis
    want_u = np.sqrt(det) * np.einsum("q,qj->j", rule.weights, psi)
    assert np.allclose(row[lay.u0:lay.u0 + lay.nu], want_u, atol=1e-13)
    assert np.abs(row[lay.sx0:lay.uh0]).max() < 1e-13  # sigma pairs with -grad v
    assert np.abs(row[lay.uh0:lay.sh0]).max() < 1e-13  # uhat pairs with tau.n
    # sighat columns integrate the orthonormal edge basis times the sign
    for j in range(3):
        e_len = initial.tri_edge_lengths[t, j]
        sign = initial.tri_edge_signs[t, j]
        want = sign * np.sqrt(e_len) * np.array([1.0, 0.0])
        got = row[lay.sh0 + j * (p + 1): lay.sh0 + (j + 1) * (p + 1)]
        assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("ex", [1, 2])
def test_exact_solution_consistency(initial, ex):
    prob = example(ex)
    for p in (0, 1, 4):
        asm = ElementAssembler(initial, prob.coeffs, p,
                               volume_exactness=2 * p + 24,
                               edge_exactness=2 * p + 24)
        R = asm.residual_of_fields(prob.u, prob.sigma, prob.f, prob.fvec)
        F = asm.loads(prob.f, prob.fvec)
        assert np.abs(R).max() <= 1e-12 * np.abs(F).max()


def test_gram_spd_and_symmetric(initial):
    rng = np.random.default_rng(5)
    prob = example(2)
    for p in (0, 2, 4):
        asm = ElementAssembler(initial, prob.coeffs, p)
        for kind in TestNorm:
            G = asm.gram(kind)
            sym = np.abs(G - np.swapaxes(G, 1, 2)).max() / np.abs(G).max()
            assert sym < 1e-13
            np.linalg.cholesky(G)  # raises if not SPD
            v = rng.standard_normal((100, G.shape[1]))
            quad = np.einsum("ki,eij,kj->ek", v, G, v)
            assert quad.min() > 0


def test_standard_equals_simple_identity_matrix(initial):
    prob = example(1)  # C is the identity
    for p in (0, 1, 2):
        asm = ElementAssembler(initial, prob.coeffs, p)
        Gstd = asm.gram(TestNorm.STANDARD)
        Gsim = asm.gram(TestNorm.SIMPLE)
        assert np.abs(Gstd - Gsim).max() <= 1e-13 * np.abs(Gsim).max()


def _matrix_power(C, power):
    w, Q = np.linalg.eigh(C)
    return (Q * w ** power) @ Q.T


def _sq(a):
    """Pointwise squared magnitude of scalar (Q,) or vector (Q, 2) values."""
    return (a ** 2).sum(axis=-1) if a.ndim == 2 else a ** 2


@pytest.mark.parametrize("p", [0, 1])
def test_norms_with_anisotropic_matrix(level3, p):
    """c^t G c equals each norm's integral for random test coefficients c,
    with C^{+-1/2} taken from an eigendecomposition of C != I, on every
    element of a level-3 mesh, for constant and for piecewise gamma."""
    C, beta = np.array(ANISO["C"]), np.array(ANISO["beta"])
    Ch, Cmh = _matrix_power(C, 0.5), _matrix_power(C, -0.5)
    rng = np.random.default_rng(11)
    for coeffs in _aniso_coefficients():
        asm = ElementAssembler(level3, coeffs, p)
        k = asm.k1
        rule = triangle_quadrature(2 * k + 2)  # integrands have degree <= 2k
        V, dV = scalar_tables(k, rule.points)
        n = V.shape[1]
        grams = {kind: asm.gram(kind) for kind in TestNorm}
        for t in range(level3.n_triangles):
            inv_t = level3.inv_ts[t]
            gam = coeffs.reaction(rule.points @ level3.jacobians[t].T + level3.shifts[t])
            c = rng.standard_normal(3 * n)
            # scaled basis: the 1/sqrt(det) factors cancel the volume Jacobian
            v = V @ c[:n]
            grad_v = np.einsum("qid,i->qd", dV, c[:n]) @ inv_t.T
            tau = np.column_stack([V @ c[n:2 * n], V @ c[2 * n:]])
            div_tau = sum((np.einsum("qid,i->qd", dV, c[n + m * n:2 * n + m * n])
                           @ inv_t.T)[:, m] for m in range(2))
            adj = -div_tau - tau @ beta + gam * v
            want = {
                TestNorm.QUASI_OPTIMAL: _sq(adj) + _sq(tau @ Ch - grad_v @ Cmh)
                + _sq(tau @ Ch) + _sq(v),
                TestNorm.STANDARD: _sq(grad_v @ Cmh) + _sq(v) + _sq(div_tau)
                + _sq(tau @ Ch),
                TestNorm.SIMPLE: _sq(grad_v) + _sq(v) + _sq(div_tau) + _sq(tau),
            }
            for kind in TestNorm:
                got = c @ grams[kind][t] @ c
                assert got == pytest.approx(rule.weights @ want[kind], rel=1e-12)
        diff = np.abs(grams[TestNorm.STANDARD] - grams[TestNorm.SIMPLE]).max()
        assert diff > 0.1 * np.abs(grams[TestNorm.SIMPLE]).max()


@pytest.mark.parametrize("kind", [TestNorm.STANDARD, TestNorm.QUASI_OPTIMAL])
def test_indefinite_matrix_raises_naming_element(initial, kind):
    coeffs = Coefficients.constant(C=[[1.0, 2.0], [2.0, 1.0]], beta=ANISO["beta"],
                                   gamma=ANISO["gamma"])
    asm = ElementAssembler(initial, coeffs, 0)
    with pytest.raises(SolverError, match="Gram matrix of element 0 is not SPD"):
        assemble_global(initial, build_dofmap(initial, 0), asm, kind,
                        asm.loads(lambda x: np.zeros(len(x)), None), [])


def _anisotropic_solution(gamma):
    """Polynomial (u, sigma) and the data f = div sigma + gamma u,
    fvec = sigma + C^{-1}(grad u - beta u) for the ANISO C and beta and the
    reaction callable ``gamma``."""
    Cinv = np.linalg.inv(ANISO["C"])
    beta = np.array(ANISO["beta"])

    def u(x):
        return x[:, 0] ** 2 * x[:, 1] + 0.5 * x[:, 0] - x[:, 1] ** 2

    def grad_u(x):
        return np.column_stack([2 * x[:, 0] * x[:, 1] + 0.5,
                                x[:, 0] ** 2 - 2 * x[:, 1]])

    def sigma(x):
        return np.column_stack([x[:, 0] * x[:, 1], x[:, 0] ** 2 - x[:, 1]])

    def f(x):
        return x[:, 1] - 1.0 + gamma(x) * u(x)

    def fvec(x):
        return sigma(x) + (grad_u(x) - u(x)[:, None] * beta) @ Cinv.T

    return u, sigma, f, fvec


@pytest.mark.parametrize("p", [0, 1, 2])
def test_consistency_with_anisotropic_matrix(initial, p):
    coeffs = Coefficients.constant(**ANISO)
    u, sigma, f, fvec = _anisotropic_solution(coeffs.reaction)
    asm = ElementAssembler(initial, coeffs, p)
    R = asm.residual_of_fields(u, sigma, f, fvec)
    F = asm.loads(f, fvec)
    assert np.abs(R).max() <= 1e-12 * np.abs(F).max()


def test_b_maps_exact_trial_vector_to_load_anisotropic(level3):
    """B x = F on every element of a level-3 mesh, for constant and for
    piecewise gamma, when x holds the exact fields and traces: the augmented
    p = 2 trial space represents u (degree 3), sigma (degree 2), their traces
    and normal traces exactly.  The trace columns of each element check its
    edge orientation (flips and signs)."""
    p = 2
    for coeffs in _aniso_coefficients():
        u, sigma, f, fvec = _anisotropic_solution(coeffs.reaction)
        asm = ElementAssembler(level3, coeffs, p)
        lay, w = trial_layout(p, "augmented"), asm.rule.weights
        U, S = (scalar_values(d, asm.rule.points) for d in (p + 1, p))
        B = asm.b_matrices(np.arange(level3.n_triangles), lay)
        F = asm.loads(f, fvec)
        for t in range(level3.n_triangles):
            def to_phys(ref):
                return ref @ level3.jacobians[t].T + level3.shifts[t]

            # fields: coefficients in the orthonormal basis scaled by 1/sqrt(det)
            X = to_phys(asm.rule.points)
            sdet = np.sqrt(level3.dets[t])
            x = np.zeros(lay.total)
            x[lay.u0:lay.u0 + lay.nu] = sdet * (w * u(X)) @ U
            x[lay.sx0:lay.sx0 + lay.ns] = sdet * (w * sigma(X)[:, 0]) @ S
            x[lay.sy0:lay.sy0 + lay.ns] = sdet * (w * sigma(X)[:, 1]) @ S
            # uhat: vertex values, then p interior nodes per edge in global order
            x[lay.uh0:lay.uh0 + 3] = u(to_phys(REF_VERTICES))
            for j, (a, b) in enumerate(LOCAL_EDGES):
                flip = level3.tri_edge_flip[t, j]
                s = np.arange(1, p + 1) / (p + 1)
                s = 1.0 - s if flip else s
                nodes = (1 - s)[:, None] * REF_VERTICES[a] + s[:, None] * REF_VERTICES[b]
                x[lay.uh0 + 3 + j * p:lay.uh0 + 3 + (j + 1) * p] = u(to_phys(nodes))
                # sighat: orthonormal Legendre coefficients of sqrt(|e|) sigma . n
                # against the global edge normal
                se = asm.erule.points
                pts = to_phys((1 - se)[:, None] * REF_VERTICES[a]
                              + se[:, None] * REF_VERTICES[b])
                sn = (level3.tri_edge_signs[t, j]
                      * sigma(pts) @ level3.tri_edge_normals[t, j])
                leg = asm.leg_rev if flip else asm.leg_fwd
                c0 = lay.sh0 + j * (p + 1)
                x[c0:c0 + p + 1] = (np.sqrt(level3.tri_edge_lengths[t, j])
                                    * (asm.erule.weights * sn) @ leg)
            assert np.abs(B[t] @ x - F[t]).max() <= 1e-12 * np.abs(F).max()


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("ex", [1, 2])
def test_one_assembler_serves_both_layouts(level3, ex, p):
    # the augmented B differs from the standard one only by the u columns of
    # degree p + 1; the sigma, uhat and sighat columns, flipped edges
    # included, are bitwise equal, and so are the first nu u columns for
    # p >= 1.  At p = 0 the standard u block is a matrix-vector product,
    # which rounds differently from the 3-column product.
    assert level3.tri_edge_flip.any()
    asm = ElementAssembler(level3, example(ex).coeffs, p)
    std, aug = trial_layout(p), trial_layout(p, "augmented")
    els = np.arange(level3.n_triangles)
    Bs = asm.b_matrices(els, std)
    Ba = asm.b_matrices(els, aug)
    assert Bs.shape[2] == std.total and Ba.shape[2] == aug.total
    assert Ba[:, :, aug.sx0:].tobytes() == Bs[:, :, std.sx0:].tobytes()
    us, ua = Bs[:, :, :std.nu], Ba[:, :, :std.nu]
    if p >= 1:
        assert ua.tobytes() == us.tobytes()
    else:
        assert np.abs(ua - us).max() <= 4e-16 * np.abs(us).max()
    with pytest.raises(ValueError, match="trial layout of degree"):
        asm.b_matrices(els, trial_layout(p + 1))


def test_qopt_scalar_block_equals_simple_when_unreactive(initial):
    # C = I, beta = 0, gamma = 0: both scalar blocks are |grad v|^2 + |v|^2
    coeffs = Coefficients.constant()
    asm = ElementAssembler(initial, coeffs, 1)
    Gq = asm.gram(TestNorm.QUASI_OPTIMAL)
    Gs = asm.gram(TestNorm.SIMPLE)
    n1 = asm.n1
    assert np.abs(Gq[:, :n1, :n1] - Gs[:, :n1, :n1]).max() < 1e-13


def test_element_b_rank_structure(initial):
    """The element B is injective exactly up to local homogeneous solutions.

    With gamma = 0, C = I and constant beta the tuple
    (u, sigma, uhat, sighat) = (1, beta, 1, beta . n) satisfies the
    ultra-weak element form against every broken test function (divergence
    theorem), so B has a kernel spanned by such tuples; well-posedness is the
    global property (the assembled Schur matrix is PD, tested elsewhere).
    On reaction elements no polynomial homogeneous solution exists and B has
    full column rank.
    """
    # kernel dimension = #{u in P^p : laplace u = beta . grad u} for
    # beta = (1,1): span{1} at p=0, span{1, x-y} at p=1
    prob = example(2)
    mesh = refine_uniform(initial)
    for p, kdim in ((0, 1), (1, 2)):
        asm = ElementAssembler(mesh, prob.coeffs, p)
        B = asm.b_matrices(np.arange(mesh.n_triangles), trial_layout(p))
        sv = np.linalg.svd(B, compute_uv=False)
        assert (sv[:, -kdim - 1] > 1e-10 * sv[:, 0]).all()
        assert (sv[:, -kdim] < 1e-12 * sv[:, 0]).all()

    # example 1 elements inside the lower macro triangle carry gamma = 1
    prob1 = example(1)
    centroids = initial.vertices[initial.triangles].mean(axis=1)
    reactive = np.flatnonzero((centroids[:, 1] <= centroids[:, 0])
                              & (centroids[:, 1] <= 1 - centroids[:, 0]))
    asm = ElementAssembler(initial, prob1.coeffs, 1)
    sv = np.linalg.svd(asm.b_matrices(reactive, trial_layout(1)), compute_uv=False)
    assert (sv[:, -1] > 1e-10 * sv[:, 0]).all()


def test_element_schur_positive_semidefinite(initial):
    prob = example(2)
    asm = ElementAssembler(initial, prob.coeffs, 1)
    B = asm.b_matrices(np.arange(initial.n_triangles), trial_layout(1))
    G = asm.gram(TestNorm.QUASI_OPTIMAL)
    X = np.linalg.solve(G, B)
    S = np.einsum("eij,eik->ejk", B, X)
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    w = np.linalg.eigvalsh(S)
    assert w.min() > -1e-12 * w.max()


def test_norm_equivalence_interval():
    # generalized eigenvalues of (G_qopt, G_simple) stay inside a fixed
    # interval across refinement levels (frozen from observed spectra)
    lo, hi = 0.15, 5.5
    for ex in (1, 2):
        prob = example(ex)
        mesh = build_initial_mesh()
        for _ in range(3):
            for p in (0, 1, 2):
                asm = ElementAssembler(mesh, prob.coeffs, p)
                els = np.arange(min(mesh.n_triangles, 64))
                Gq = asm.gram(TestNorm.QUASI_OPTIMAL, els)
                Gs = asm.gram(TestNorm.SIMPLE, els)
                for e in range(len(els)):
                    w = sla.eigh(Gq[e], Gs[e], eigvals_only=True)
                    assert lo < w.min() and w.max() < hi
            mesh = refine_uniform(mesh)


def test_element_load_oracle(initial):
    t = 7
    asm = ElementAssembler(initial, Coefficients.constant(), 0)
    k = asm.k1
    F = asm.loads(lambda x: np.ones(len(x)), None, np.array([t]))[0]
    det = initial.dets[t]
    rule = triangle_quadrature(2 * k + 4)
    V = scalar_values(k, rule.points)
    want = np.sqrt(det) * np.einsum("q,qi->i", rule.weights, V)
    n1 = V.shape[1]
    assert np.allclose(F[:n1], want, atol=1e-14)
    assert np.abs(F[n1:]).max() == 0.0

    Fz = asm.loads(None, None, np.array([t]))[0]
    assert np.abs(Fz).max() == 0.0


def test_element_load_piecewise_vector_field(initial):
    prob = example(1)
    # element fully right of x = 1/2: constant load (1, -1) against C tau
    centroids = initial.vertices[initial.triangles].mean(axis=1)
    t = np.flatnonzero(centroids[:, 0] > 0.75)[:1]

    def const(x):
        return np.column_stack([np.ones(len(x)), -np.ones(len(x))])

    asm = ElementAssembler(initial, prob.coeffs, 0)
    F = asm.loads(None, prob.fvec, t)
    assert np.allclose(F, asm.loads(None, const, t), atol=1e-14)


def test_quadrature_insufficiency_raises(initial):
    prob = example(1)
    with pytest.raises(ValueError):
        ElementAssembler(initial, prob.coeffs, 2, volume_exactness=3)
    with pytest.raises(ValueError):
        ElementAssembler(initial, prob.coeffs, 2, edge_exactness=2)
    with pytest.raises(ValueError):
        ElementAssembler(initial, prob.coeffs, 1, k1=0)


def _whole_mesh_classes(asm):
    """Class ids from one key row per element built over the whole mesh at
    once, numbered in the order of their first element."""
    m = asm.mesh
    nt = m.n_triangles
    flat = m.map_points(asm.rule.points, np.arange(nt)).reshape(-1, 2)
    key = np.concatenate([
        m.inv_ts.reshape(nt, -1), m.dets[:, None], m.tri_edge_lengths,
        m.tri_edge_normals.reshape(nt, -1), m.tri_edge_signs, m.tri_edge_flip,
        np.asarray(asm.coeffs.matrix(flat)).reshape(nt, -1),
        np.asarray(asm.coeffs.advection(flat)).reshape(nt, -1),
        np.asarray(asm.coeffs.reaction(flat)).reshape(nt, -1),
    ], axis=1)
    ids = {}
    return np.array([ids.setdefault(row.tobytes(), len(ids)) for row in key])


@pytest.mark.parametrize("chunk", [7, 512])
def test_batched_class_key_equals_whole_mesh_key(initial, monkeypatch, chunk):
    # the class key is built _CHUNK elements at a time; the class ids must
    # be those of the key over the whole mesh, bitwise
    monkeypatch.setattr(forms, "_CHUNK", chunk)
    meshes = [initial]
    for _ in range(4):
        meshes.append(refine_uniform(meshes[-1]))
    for ex in (1, 2):
        coeffs = example(ex).coeffs
        for mesh in meshes:
            for p in range(3):
                asm = ElementAssembler(mesh, coeffs, p)
                want = _whole_mesh_classes(asm)
                assert np.array_equal(asm.classes, want)
                assert np.array_equal(asm._firsts,
                                      np.unique(want, return_index=True)[1])
