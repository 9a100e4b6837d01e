import numpy as np
import pytest

from dpglab.mesh import Mesh, build_initial_mesh, refine_uniform
from dpglab.refelem import triangle_quadrature


@pytest.fixture(scope="module")
def initial():
    return build_initial_mesh()


def test_initial_counts(initial):
    assert initial.n_triangles == 16
    assert initial.n_vertices == 13
    assert initial.n_edges == 28
    # Euler characteristic of a disk
    assert initial.n_vertices - initial.n_edges + initial.n_triangles == 1


def test_initial_vertices_are_lattice_and_centers(initial):
    pts = {tuple(v) for v in initial.vertices}
    lattice = {(i / 2, j / 2) for i in range(3) for j in range(3)}
    centers = {((2 * i + 1) / 4, (2 * j + 1) / 4) for i in range(2) for j in range(2)}
    assert pts == lattice | centers


def _areas(mesh):
    return 0.5 * mesh.dets


def test_total_area_is_one(initial):
    assert abs(_areas(initial).sum() - 1.0) < 1e-12
    assert np.all(_areas(initial) > 0)


def test_ccw_enforced():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 2, 1]]))


def test_boundary_edges(initial):
    assert int(initial.boundary_edge.sum()) == 8
    # bottom boundary edges carry the outward normal (0, -1) and sign +1
    on_bottom = np.all(initial.vertices[initial.edges][:, :, 1] == 0.0, axis=1)
    assert on_bottom.sum() == 2
    assert np.allclose(initial.edge_normals[on_bottom], [0.0, -1.0])
    for e in np.flatnonzero(on_bottom):
        (t0, t1) = initial.edge_tris[e]
        assert t1 == -1
        j = list(initial.tri_edges[t0]).index(e)
        assert initial.tri_edge_signs[t0, j] == 1


def test_interior_edges_have_opposite_signs(initial):
    counts = np.zeros(initial.n_edges, dtype=int)
    sums = np.zeros(initial.n_edges, dtype=int)
    for t in range(initial.n_triangles):
        for j in range(3):
            e = initial.tri_edges[t, j]
            counts[e] += 1
            sums[e] += int(initial.tri_edge_signs[t, j])
    assert np.all(counts[initial.boundary_edge] == 1)
    assert np.all(counts[~initial.boundary_edge] == 2)
    assert np.all(sums[initial.boundary_edge] == 1)
    assert np.all(sums[~initial.boundary_edge] == 0)


def test_macro_triangles_and_seam_alignment(initial):
    # conv{(0,0),(1,0),(1/2,1/2)} is a union of 4 elements
    centroids = initial.vertices[initial.triangles].mean(axis=1)
    in_t1 = (centroids[:, 1] <= centroids[:, 0]) & (centroids[:, 1] <= 1 - centroids[:, 0])
    assert in_t1.sum() == 4
    assert abs(_areas(initial)[in_t1].sum() - 0.25) < 1e-12
    # x = 1/2 is a union of edges
    x_half = np.all(np.abs(initial.vertices[initial.edges][:, :, 0] - 0.5) < 1e-14, axis=1)
    assert x_half.sum() == 2
    assert abs(initial.edge_lengths[x_half].sum() - 1.0) < 1e-12


def _h_max(mesh):
    return float(mesh.tri_edge_lengths.max())


def _shape_regularity(mesh):
    """max over triangles of diam(T)^2 / area(T)."""
    return float((mesh.tri_edge_lengths.max(axis=1) ** 2 / _areas(mesh)).max())


def test_refinement_counts_and_similarity(initial):
    mesh = initial
    reg0 = _shape_regularity(mesh)
    h0 = _h_max(mesh)
    for level in range(2, 5):
        child = refine_uniform(mesh)
        assert child.n_triangles == 4 * mesh.n_triangles
        assert child.n_triangles == 16 * 4 ** (level - 1)
        assert abs(_h_max(child) - h0 / 2 ** (level - 1)) < 1e-12
        assert abs(_shape_regularity(child) - reg0) < 1e-12
        # combinatorial identity for conforming triangulations
        nb = int(child.boundary_edge.sum())
        assert child.n_edges == (3 * child.n_triangles + nb) / 2
        # children 4t..4t+3 quarter the area of their parent t
        parent = np.repeat(np.arange(mesh.n_triangles), 4)
        assert np.allclose(_areas(child), _areas(mesh)[parent] / 4, rtol=1e-12)
        mesh = child


def test_refinement_is_conforming_and_aligned(initial):
    child = refine_uniform(refine_uniform(initial))
    assert abs(_areas(child).sum() - 1.0) < 1e-12
    # the seam x = 1/2 stays a union of edges
    x_half = np.all(np.abs(child.vertices[child.edges][:, :, 0] - 0.5) < 1e-14, axis=1)
    assert abs(child.edge_lengths[x_half].sum() - 1.0) < 1e-12


def test_element_geometry(initial):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ref = Mesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))
    assert np.allclose(ref.jacobians[0], np.eye(2))
    assert abs(ref.dets[0] - 1.0) < 1e-14

    tiny = Mesh(np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.25]]), np.array([[0, 1, 2]]))
    assert abs(tiny.dets[0] - 0.125) < 1e-14

    # the affine map x = J xhat + shift takes the reference vertices to the
    # element's vertices
    ref_verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for t in (0, 5, 11):
        mapped = ref_verts @ initial.jacobians[t].T + initial.shifts[t]
        assert np.allclose(mapped, initial.vertices[initial.triangles[t]], atol=1e-14)
    assert np.allclose(initial.map_points(ref_verts),
                       initial.vertices[initial.triangles], atol=1e-14)
    # map_points equals the sum over the two reference coordinates bitwise,
    # so mapped quadrature points (and the element classes keyed on the
    # coefficient values there) do not depend on how the product is formed
    points = triangle_quadrature(10).points
    mesh = initial
    for _ in range(3):
        want = np.einsum("ecd,qd->eqc", mesh.jacobians, points) + mesh.shifts[:, None, :]
        assert np.array_equal(mesh.map_points(points), want)
        assert np.array_equal(mesh.map_points(points, np.array([3, 1])), want[[3, 1]])
        mesh = refine_uniform(mesh)


def test_inverse_transpose(initial):
    ident = np.einsum("eij,ekj->eik", initial.jacobians, initial.inv_ts)
    assert np.allclose(ident, np.eye(2)[None], atol=1e-13)


def _reference_skeleton(mesh):
    """The skeleton arrays of ``mesh`` numbered by a row-wise unique of the
    sorted vertex pairs and a lexsort: the numbering the skeleton DOFs, and
    with them SuperLU's ordering, are pinned to."""
    nt = mesh.n_triangles
    locv = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(nt * 3, 2)
    edges, inverse = np.unique(np.sort(locv, axis=1), axis=0, return_inverse=True)
    tri_edges = inverse.reshape(nt, 3).astype(np.int64)
    e_flat, t_flat = tri_edges.ravel(), np.repeat(np.arange(nt), 3)
    order = np.lexsort((t_flat, e_flat))
    es, ts = e_flat[order], t_flat[order]
    first = np.ones(len(es), dtype=bool)
    first[1:] = es[1:] != es[:-1]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[es[first], 0] = ts[first]
    edge_tris[es[~first], 1] = ts[~first]
    sign = np.where(edge_tris[tri_edges, 0] == np.arange(nt)[:, None], 1, -1)
    edge_normals = np.zeros((len(edges), 2))
    own = sign.ravel() == 1
    edge_normals[e_flat[own]] = mesh.tri_edge_normals.reshape(-1, 2)[own]
    boundary_edge = np.bincount(e_flat, minlength=len(edges)) == 1
    boundary_vertex = np.zeros(mesh.n_vertices, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True
    return dict(
        edges=edges, tri_edges=tri_edges, edge_tris=edge_tris,
        tri_edge_signs=sign.astype(np.int8),
        tri_edge_flip=locv[:, 0].reshape(nt, 3) > locv[:, 1].reshape(nt, 3),
        edge_normals=edge_normals, boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex,
        edge_lengths=np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]],
                                    axis=1))


def test_skeleton_arrays_are_pinned(initial):
    # the edge ids are the skeleton DOF numbering the factorization's
    # ordering reads, so every skeleton array stays bit for bit that of the
    # reference numbering, with edges in (lo, hi) lexicographic order
    mesh = initial
    for level in range(7):
        for name, want in _reference_skeleton(mesh).items():
            got = getattr(mesh, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (level, name)
            assert got.tobytes() == want.tobytes(), (level, name)
        lo, hi = mesh.edges.T
        assert np.all(lo < hi)
        assert np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])))
        if level < 6:
            mesh = refine_uniform(mesh)
