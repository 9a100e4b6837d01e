"""Hash every array of a fixed set of DPG solves, to show that a change
leaves them bit for bit.

    PYTHONPATH=src python tools/solve_digest.py > digest.txt

Run it on two trees (``PYTHONPATH`` pointing at each tree's ``src``) and
``diff`` the outputs: one line per solve with the first 32 hex digits of
the SHA-256 of its arrays, then one line with the SHA-256 of all of them.  The set of solves:

* examples 1 and 2, p = 0..3, the three test norms, levels 1..3: the
  augmented solve, then the standard solve on its test space, as a study
  level makes them (144 solves);
* the x-dependent C, beta and gamma of the dense-oracle test of
  ``tests/test_solver.py``, one class per element, level 2, p = 0..2, the
  three norms and both variants, with batches of the default ``_CHUNK``
  elements and of 7 (36 solves).

Each solve hashes its skeleton system (``indptr``, ``indices``, ``data``
and the rhs), ``x``, ``fields``, ``estimator`` and ``residual``, the
``els``, ``inv``, ``R``, ``rho`` and ``tau`` of every batch of its class
QR, and every field of its :func:`dpglab.dpg_solver.error_function`.
It takes about 7 s with one BLAS thread.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from dpglab import dpg_solver
from dpglab.dpg_solver import assemble_and_solve, assemble_global, error_function
from dpglab.forms import Coefficients, TestNorm
from dpglab.mesh import build_initial_mesh, refine_uniform
from dpglab.problems import example


def _variable_coefficients() -> Coefficients:
    """SPD C(x), beta(x) and gamma that give every element its own class."""
    def matrix(x):
        C = np.empty((len(x), 2, 2))
        C[:, 0, 0] = 2.0 + x[:, 0]
        C[:, 0, 1] = C[:, 1, 0] = 0.3 * np.sin(np.pi * x[:, 1])
        C[:, 1, 1] = 1.0 + x[:, 1] ** 2
        return C

    return Coefficients(matrix=matrix,
                        advection=lambda x: np.column_stack([1.0 + x[:, 1], -x[:, 0]]),
                        reaction=lambda x: np.full(len(x), 0.5))


def _digest(mesh, prob, sol) -> str:
    """SHA-256 of every array of the solve ``sol`` (see the module doc)."""
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            a = np.asarray(a)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    A, b = assemble_global(sol.dofmap, sol.layout, sol.qr)
    add(A.indptr, A.indices, A.data, b, sol.x, sol.fields, sol.estimator, sol.residual)
    for batch in sol.qr:
        add(*batch)
    ee = error_function(mesh, prob, sol)
    add(*(getattr(ee, f.name) for f in dataclasses.fields(ee)))
    return h.hexdigest()


def _cases():
    """Yield ``(name, mesh, problem, solution)`` for every solve of the set."""
    initial = build_initial_mesh()
    meshes = [initial, refine_uniform(initial)]
    meshes.append(refine_uniform(meshes[-1]))
    for ex in (1, 2):
        prob = example(ex)
        for p in range(4):
            for kind in TestNorm:
                for level, mesh in enumerate(meshes, 1):
                    name = f"ex{ex} {kind.value} p{p} L{level}"
                    aug = assemble_and_solve(mesh, prob, p, kind, "augmented")
                    yield f"{name} augmented", mesh, prob, aug
                    std = assemble_and_solve(mesh, prob, p, kind, test_space=aug)
                    yield f"{name} standard", mesh, prob, std
    prob = dataclasses.replace(example(1), coeffs=_variable_coefficients())
    default = dpg_solver._CHUNK
    try:
        for chunk in (default, 7):
            dpg_solver._CHUNK = chunk
            for p in range(3):
                for kind in TestNorm:
                    for variant in ("standard", "augmented"):
                        sol = assemble_and_solve(meshes[1], prob, p, kind, variant)
                        yield (f"x-dependent {kind.value} p{p} L2 {variant} chunk {chunk}",
                               meshes[1], prob, sol)
    finally:
        dpg_solver._CHUNK = default


def main() -> None:
    total = hashlib.sha256()
    for name, mesh, prob, sol in _cases():
        digest = _digest(mesh, prob, sol)
        total.update(digest.encode())
        print(f"{digest[:32]}  {name}")
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
