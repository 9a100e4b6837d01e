"""Triangulations of the unit square: criss-cross initial grid, uniform red
refinement, and skeleton (edge) connectivity.

All meshes are immutable after construction; refinement returns a new mesh.
Conventions:

* triangles are counterclockwise vertex index triples,
* local edge ``j`` of a triangle runs from local vertex ``j`` to ``j+1 mod 3``,
* each global edge stores its vertices as ``(lo, hi)`` with ``lo < hi``; the
  edge parameter ``t in [0, 1]`` always runs from ``lo`` to ``hi``,
* the fixed global edge normal points out of the lower-index adjacent
  triangle (outward for boundary edges); the per-element orientation sign is
  ``n_T . n_E`` which is +1 or -1.
"""

from __future__ import annotations

import numpy as np


class Mesh:
    """Conforming triangle mesh with precomputed geometry and skeleton data.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Counterclockwise vertex indices; a flipped triangle raises.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)

        tri_xy = self.vertices[self.triangles]  # (nt, 3, 2)
        d1 = tri_xy[:, 1] - tri_xy[:, 0]
        d2 = tri_xy[:, 2] - tri_xy[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0):
            bad = int(np.argmin(det))
            raise ValueError(f"triangle {bad} is not counterclockwise (det={det[bad]})")

        self.jacobians = np.stack([d1, d2], axis=2)  # columns are edge vectors
        self.dets = det
        self.shifts = tri_xy[:, 0].copy()
        inv_t = np.empty_like(self.jacobians)  # inverse transpose of J
        inv_t[:, 0, 0] = d2[:, 1]
        inv_t[:, 0, 1] = -d1[:, 1]
        inv_t[:, 1, 0] = -d2[:, 0]
        inv_t[:, 1, 1] = d1[:, 0]
        self.inv_ts = inv_t / det[:, None, None]

        self._build_skeleton_arrays(tri_xy)
        for arr in (self.vertices, self.triangles, self.jacobians, self.dets,
                    self.shifts, self.inv_ts, self.edges,
                    self.tri_edges, self.tri_edge_signs, self.tri_edge_flip,
                    self.tri_edge_lengths, self.tri_edge_normals,
                    self.edge_tris, self.edge_normals, self.edge_lengths,
                    self.boundary_edge, self.boundary_vertex):
            arr.setflags(write=False)

    def _build_skeleton_arrays(self, tri_xy):
        nt = self.n_triangles
        locv = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(nt * 3, 2)
        pairs = np.sort(locv, axis=1)
        # edge ids in (lo, hi) lexicographic order: the key lo * nv + hi
        # sorts as the pair does, since hi < nv
        nv = self.n_vertices
        keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
        self.edges = np.column_stack(np.divmod(keys, nv))
        self.tri_edges = inverse.reshape(nt, 3).astype(np.int64)
        # local edge direction vs. the global lo->hi parameterization
        self.tri_edge_flip = locv[:, 0].reshape(nt, 3) > locv[:, 1].reshape(nt, 3)

        ne = len(self.edges)
        counts = np.bincount(self.tri_edges.ravel(), minlength=ne)
        if counts.max() > 2:
            raise ValueError("non-conforming mesh: edge shared by more than 2 triangles")
        self.boundary_edge = counts == 1
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True

        # adjacent triangles in ascending index order (-1 pads boundary edges)
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        e_flat = self.tri_edges.ravel()
        t_flat = np.repeat(np.arange(nt), 3)
        # t_flat ascends, so a stable sort by edge orders each edge's
        # triangles by index
        order = np.argsort(e_flat, kind="stable")
        es, ts = e_flat[order], t_flat[order]
        first = np.ones(len(es), dtype=bool)
        first[1:] = es[1:] != es[:-1]
        edge_tris[es[first], 0] = ts[first]
        edge_tris[es[~first], 1] = ts[~first]
        self.edge_tris = edge_tris

        # outward normal per triangle edge: rotate the directed edge by -90 deg
        vec = tri_xy[:, [1, 2, 0], :] - tri_xy  # (nt, 3, 2), local edge vectors
        lengths = np.linalg.norm(vec, axis=2)
        normals = np.stack([vec[:, :, 1], -vec[:, :, 0]], axis=2) / lengths[:, :, None]
        self.tri_edge_lengths = lengths
        self.tri_edge_normals = normals

        # global normal: outward from the lower-index adjacent triangle
        sign = np.where(edge_tris[self.tri_edges, 0] == np.arange(nt)[:, None], 1, -1)
        self.tri_edge_signs = sign.astype(np.int8)
        edge_normals = np.zeros((ne, 2))
        own = sign.ravel() == 1
        edge_normals[e_flat[own]] = normals.reshape(-1, 2)[own]
        self.edge_normals = edge_normals
        self.edge_lengths = np.linalg.norm(
            self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]], axis=1)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def map_points(self, points: np.ndarray, elements=None) -> np.ndarray:
        """Images (e, q, 2) of the reference points (q, 2) under the affine
        maps of ``elements`` (all triangles by default)."""
        els = slice(None) if elements is None else elements
        return points @ np.swapaxes(self.jacobians[els], 1, 2) + self.shifts[els][:, None]

    def interior_vertex_ids(self) -> np.ndarray:
        """Compact ids for interior vertices, -1 on the boundary."""
        ids = np.full(self.n_vertices, -1, dtype=np.int64)
        interior = ~self.boundary_vertex
        ids[interior] = np.arange(interior.sum())
        return ids

    def interior_edge_ids(self) -> np.ndarray:
        ids = np.full(self.n_edges, -1, dtype=np.int64)
        interior = ~self.boundary_edge
        ids[interior] = np.arange(interior.sum())
        return ids


def build_initial_mesh() -> Mesh:
    """The 16-triangle criss-cross mesh of (0,1)^2.

    Each of the 2x2 subsquares is split into four triangles through its
    center.  The lines y = x, y = 1 - x and x = 1/2 are unions of edges, so
    mesh-aligned piecewise coefficient data on conv{(0,0),(1,0),(1/2,1/2)},
    conv{(1,1),(0,1),(1/2,1/2)} and the two halves {x < 1/2}, {x > 1/2} is
    resolved exactly.
    """
    grid = [(i / 2.0, j / 2.0) for j in range(3) for i in range(3)]
    centers = [((2 * i + 1) / 4.0, (2 * j + 1) / 4.0) for j in range(2) for i in range(2)]
    vertices = np.array(grid + centers)
    triangles = []
    for j in range(2):
        for i in range(2):
            ll = 3 * j + i
            lr = ll + 1
            ul = 3 * (j + 1) + i
            ur = ul + 1
            c = 9 + 2 * j + i
            triangles += [(ll, lr, c), (lr, ur, c), (ur, ul, c), (ul, ll, c)]
    return Mesh(vertices, np.array(triangles))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Uniform quadrisection: every triangle is split into 4 children via its
    edge midpoints, cutting the central quad from the midpoint of the longest
    edge towards the opposite vertex (two sweeps of longest-edge bisection).

    On the right-isosceles criss-cross family this produces 4 congruent
    children similar to the parent and maps the level-l mesh onto the
    criss-cross of the 2^l x 2^l grid, so element shapes, the constant
    max diam(T)^2/|T| and the alignment of coefficient jump lines are all
    preserved exactly.  Children of triangle t occupy indices 4t..4t+3.
    """
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mid])
    m = mesh.n_vertices + mesh.tri_edges  # (nt, 3) midpoint ids per local edge
    j = np.argmax(mesh.tri_edge_lengths, axis=1)  # longest edge, first on ties
    rows = np.arange(mesh.n_triangles)
    a = mesh.triangles[rows, j]
    b = mesh.triangles[rows, (j + 1) % 3]
    c = mesh.triangles[rows, (j + 2) % 3]
    m_ab = m[rows, j]
    m_bc = m[rows, (j + 1) % 3]
    m_ca = m[rows, (j + 2) % 3]
    children = np.stack([
        np.column_stack([a, m_ab, m_ca]),
        np.column_stack([m_ab, b, m_bc]),
        np.column_stack([m_ab, m_bc, c]),
        np.column_stack([m_ab, c, m_ca]),
    ], axis=1).reshape(-1, 3)
    return Mesh(vertices, children)
