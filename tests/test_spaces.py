import numpy as np
import pytest

from dpglab.harness import l2_error
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.refelem import triangle_quadrature
from dpglab.spaces import (CoefficientVector, broken_eval, build_dofmap,
                           l2_project, rt_interpolate, trial_layout)


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def test_dofmap_counts_initial_p0(initial):
    # only the skeleton is numbered: u and sigma are element-local
    dm = build_dofmap(initial, 0)
    assert dm.n_uhat == 5  # 13 vertices - 8 boundary, no edge nodes at p=0
    assert dm.n_sighat == 28
    assert dm.total == 33
    assert dm.gather.shape == (16, 6)
    lay = trial_layout(0)
    assert (lay.nu, lay.ns, lay.uh0) == (1, 1, 3)
    assert lay.u_cols.tolist() == [0] and (lay.sx0, lay.sy0) == (1, 2)


def test_dofmap_counts_augmented(initial):
    # the augmented variant has more element-local u columns, placed after
    # sigma: [u_p | sigma_x | sigma_y | u_extra | uhat | sighat].  Its sigma
    # columns are those of the standard layout, and both number the same
    # skeleton columns, so one DofMap serves both
    aug = trial_layout(0, "augmented")
    assert (aug.nu, aug.ns, aug.uh0) == (3, 1, 5)  # broken P^1
    assert aug.u_cols.tolist() == [0, 3, 4] and (aug.sx0, aug.sy0) == (1, 2)
    for p in range(4):
        std, aug = trial_layout(p), trial_layout(p, "augmented")
        ns = std.ns
        assert (aug.pu, aug.nu, aug.ns) == (p + 1, ns + p + 2, ns)
        assert (aug.sx0, aug.sy0) == (std.sx0, std.sy0) == (ns, 2 * ns)
        assert aug.u_cols.tolist() == [*range(ns), *range(3 * ns, aug.uh0)]
        assert std.u_cols.tolist() == list(range(ns))
        assert aug.uh0 == std.uh0 + p + 2
        assert aug.total - aug.uh0 == std.total - std.uh0


def test_sighat_count_p1(initial):
    mesh = refine_uniform(initial)
    dm = build_dofmap(mesh, 1)
    assert dm.n_sighat == 2 * mesh.n_edges


def test_uhat_gather_structure(initial):
    p = 1
    dm = build_dofmap(initial, p)
    lay = trial_layout(p)
    iv = initial.interior_vertex_ids()
    for t in range(initial.n_triangles):
        for loc, v in enumerate(initial.triangles[t]):
            g = dm.gather[t, loc]
            if initial.boundary_vertex[v]:
                assert g == -1
            else:
                assert g == iv[v]
        for j in range(3):
            e = initial.tri_edges[t, j]
            cols = dm.gather[t, lay.uhat_cols(j)[1:-1] - lay.uh0]
            if initial.boundary_edge[e]:
                assert np.all(cols == -1)
            else:
                assert np.all(cols >= 0)


def test_uhat_boundary_dofs_absent(initial):
    # every boundary vertex and boundary edge is excluded by construction
    dm = build_dofmap(initial, 2)
    n_int_v = int((~initial.boundary_vertex).sum())
    n_int_e = int((~initial.boundary_edge).sum())
    assert dm.n_uhat == n_int_v + 2 * n_int_e


def test_l2_project_reproduces_polynomials(initial):
    def f(x):
        return 1.5 - 2.0 * x[:, 0] + 0.5 * x[:, 1]

    cv = l2_project(initial, 1, f)
    rule = triangle_quadrature(4)
    X = np.einsum("ecd,qd->eqc", initial.jacobians, rule.points) \
        + initial.shifts[:, None, :]
    vals = broken_eval(cv, rule.points)
    exact = f(X.reshape(-1, 2)).reshape(initial.n_triangles, -1)
    assert np.abs(vals - exact).max() < 1e-12


def test_l2_project_zero(initial):
    cv = l2_project(initial, 2, lambda x: np.zeros(len(x)))
    assert np.abs(cv.data).max() == 0.0


def test_l2_project_idempotent(initial):
    def f(x):
        return np.sin(np.pi * x[:, 0]) * np.cos(x[:, 1])

    cv = l2_project(initial, 2, f)
    cv2 = l2_project(initial, 2, lambda x, _c=cv: _eval_at_physical(initial, _c, x))
    assert np.abs(cv.data - cv2.data).max() < 1e-13


def _eval_at_physical(mesh, cv, pts):
    """Evaluate a broken field at arbitrary physical points (test helper)."""
    from dpglab.refelem import scalar_values
    out = np.empty(len(pts))
    inv = np.linalg.inv(mesh.jacobians)
    coef = cv.by_element()
    # locate the element containing each point (small meshes only)
    for i, x in enumerate(pts):
        ref = np.einsum("ecd,ed->ec", inv, x[None, :] - mesh.shifts)
        inside = np.flatnonzero((ref[:, 0] >= -1e-12) & (ref[:, 1] >= -1e-12)
                                & (ref.sum(axis=1) <= 1 + 1e-12))
        e = inside[0]
        psi = scalar_values(cv.degree, ref[e][None, :])[0]
        out[i] = coef[e] @ psi / np.sqrt(mesh.dets[e])
    return out


def test_l2_project_sin_rate(initial):
    def f(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    mesh = initial
    for _ in range(2):
        mesh = refine_uniform(mesh)
    errs = []
    for _ in range(3):  # levels 3, 4, 5
        cv = l2_project(mesh, 0, f)
        errs.append(l2_error(mesh, cv, f))
        mesh = refine_uniform(mesh)
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 1.0) <= 0.02)


def test_coefficient_vector_validation(initial):
    with pytest.raises(ValueError):
        CoefficientVector(np.zeros(5), initial, 0)


def test_rt_interpolate_reproduces_rt_fields(initial):
    rng = np.random.default_rng(3)
    # global polynomial fields of Raviart-Thomas form (a + x h, b + y h); the
    # interpolant reproduces them only if the span is a basis of RT^p
    for p in range(4):
        powers = [(i, d - i) for d in range(p + 1) for i in range(d + 1)]
        a = rng.uniform(-1, 1, len(powers))
        b = rng.uniform(-1, 1, len(powers))
        c = rng.uniform(-1, 1)

        def tau(x, a=a, b=b, c=c, p=p, powers=powers):
            mono = np.column_stack([x[:, 0] ** i * x[:, 1] ** j for i, j in powers])
            h = c * (x[:, 0] + 0.7 * x[:, 1]) ** p
            return np.column_stack([mono @ a + x[:, 0] * h, mono @ b + x[:, 1] * h])

        interp = rt_interpolate(initial, p, tau)
        rule = triangle_quadrature(6)
        got = interp.eval(rule.points)
        X = np.einsum("ecd,qd->eqc", initial.jacobians, rule.points) \
            + initial.shifts[:, None, :]
        want = tau(X.reshape(-1, 2)).reshape(got.shape)
        assert np.abs(got - want).max() < 1e-12


def test_rt_interpolate_commutes_for_linear_field(initial):
    interp = rt_interpolate(initial, 0, lambda x: x.copy())
    rule = triangle_quadrature(2)
    div = interp.div(rule.points)
    assert np.abs(div - 2.0).max() < 1e-12


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_commuting_diagram(initial, p):
    def tau(x):
        return np.column_stack([
            np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + x[:, 0],
            np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) + x[:, 1] ** 2,
        ])

    def div_tau(x):
        return (np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 1.0
                - np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
                + 2.0 * x[:, 1])

    interp = rt_interpolate(initial, p, tau)
    proj = l2_project(initial, p, div_tau)
    rule = triangle_quadrature(2 * p + 8)
    diff = interp.div(rule.points) - broken_eval(proj, rule.points)
    err = np.sqrt(np.einsum("q,eq,e->", rule.weights, diff * diff, initial.dets))
    assert err < 1e-10


def test_rt_interpolant_normal_trace_single_valued(initial):
    def tau(x):
        return np.column_stack([np.sin(x[:, 1]), np.cos(x[:, 0])])

    interp = rt_interpolate(initial, 1, tau)
    from dpglab.refelem import edge_quadrature, ref_edge_points, rt_span
    erule = edge_quadrature(6)
    mesh = initial
    for e in np.flatnonzero(~mesh.boundary_edge):
        t0, t1 = mesh.edge_tris[e]
        vals = []
        for t in (t0, t1):
            j = list(mesh.tri_edges[t]).index(e)
            s = erule.points if not mesh.tri_edge_flip[t, j] else 1 - erule.points
            vref = rt_span(1, ref_edge_points(s, j))[0]
            piola = np.einsum("cd,qid->qic", mesh.jacobians[t], vref) / mesh.dets[t]
            tn = np.einsum("i,qic,c->q", interp.coeffs[t], piola, mesh.edge_normals[e])
            vals.append(tn)
        assert np.abs(vals[0] - vals[1]).max() < 1e-11
