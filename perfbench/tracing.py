"""Span tracing of dpglab's layers by attribute replacement.

Nothing here edits library source.  :func:`install` replaces the entry points
named in :data:`FUNCTIONS`, :data:`METHODS` and :data:`SCIPY` with wrappers
that open a span around the original call, wherever a loaded ``dpglab``
module (or ``scipy.sparse.linalg``) binds them, and returns a
:class:`Patches` that puts every original back.  Spans are kept in memory;
:func:`layer_metrics` reduces them to the per-layer metrics of the benchmark.

A span's self time is its duration minus the durations of its child spans.
The calls are single-threaded, so children never overlap and the subtraction
is exact.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name): the function object found at module.attr is
# replaced wherever any dpglab module binds it, so harness's
# ``from .dpg_solver import assemble_and_solve`` is traced as well
FUNCTIONS = [
    ("dpglab.harness", "run_convergence_study", "harness.study"),
    ("dpglab.harness", "l2_error", "harness.l2_error"),
    ("dpglab.mesh", "refine_uniform", "mesh.refine_uniform"),
    ("dpglab.spaces", "build_dofmap", "spaces.build_dofmap"),
    ("dpglab.spaces", "l2_project", "spaces.l2_project"),
    ("dpglab.dpg_solver", "assemble_global", "dpg_solver.assemble_global"),
    ("dpglab.dpg_solver", "assemble_and_solve", "dpg_solver.assemble_and_solve"),
    ("dpglab.dpg_solver", "error_function", "dpg_solver.error_function"),
    ("dpglab.postprocess", "postprocess_u", "postprocess.postprocess_u"),
]
METHODS = [
    ("__init__", "forms.assembler_init"),
    ("b_matrices", "forms.b_matrices"),
    ("gram", "forms.gram"),
    ("loads", "forms.loads"),
]
SCIPY = [("splu", "superlu.factor"), ("cg", "dpg_solver.cg")]

# bookkeeping done by the wrappers themselves (reading the L and U factors);
# its own span keeps it out of every layer's self time
OVERHEAD = "trace.overhead"

# per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "mesh.refine_uniform_s": "s",
    "spaces.build_dofmap_s": "s",
    "spaces.l2_project_s": "s",
    "forms.assembler_init_s": "s",
    "forms.gram_s": "s",
    "forms.b_matrices_s": "s",
    "forms.loads_s": "s",
    "forms.elements": "count",
    "forms.gram_mb": "MB",
    "dpg_solver.assemble_global_self_s": "s",
    "dpg_solver.assemble_and_solve_self_s": "s",
    "dpg_solver.error_function_s": "s",
    "superlu.factor_s": "s",
    "superlu.fill_nnz": "count",
    "superlu.refine_steps": "count",
    "dpg_solver.ndof": "count",
    "dpg_solver.nnz": "count",
    "dpg_solver.cg_fallbacks": "count",
    "dpg_solver.certified_frac": "1",
    "dpg_solver.backward_error_max": "1",
    "postprocess.postprocess_u_s": "s",
    "harness.l2_error_s": "s",
    "harness.study_self_s": "s",
}


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.residuals: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][3] = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [s[3] - s[2] for s in self.spans]
        for name, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds summed per span name."""
        incl: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for (name, _, start, end), st in zip(self.spans, self.self_times()):
            incl[name] += end - start
            own[name] += st
        return incl, own

    def records(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": a, "end": b}
                for n, p, a, b in self.spans]


class _LUProxy:
    """Forwards to a SuperLU object and counts ``solve`` calls."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts["superlu.solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _wrap_special(tracer: Tracer, name: str, fn):
    """Wrappers that also count what the call produced."""
    counts = tracer.counts

    if name in ("forms.b_matrices", "forms.gram"):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            counts["forms.elements"] += len(out)
            if name == "forms.gram":
                counts["forms.gram_bytes"] += out.nbytes
            return out
    elif name == "dpg_solver.assemble_global":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            A, rhs = tracer.call(name, fn, *args, **kwargs)
            counts["dpg_solver.ndof"] += A.shape[0]
            counts["dpg_solver.nnz"] += A.nnz
            return A, rhs
    elif name == "dpg_solver.assemble_and_solve":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts["dpg_solver.solves"] += 1
            cg_before = counts["dpg_solver.cg_calls"]
            sol = tracer.call(name, fn, *args, **kwargs)
            tracer.residuals.append(sol.residual)
            if counts["dpg_solver.cg_calls"] == cg_before:
                counts["dpg_solver.certified_lu"] += 1
            return sol
    elif name == "superlu.factor":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lu = tracer.call(name, fn, *args, **kwargs)
            counts["superlu.factorizations"] += 1
            index = tracer.open(OVERHEAD)
            # L and U are built on access; the temporaries are freed one by one
            counts["superlu.fill_nnz"] += lu.L.nnz + lu.U.nnz
            tracer.close(index)
            return _LUProxy(lu, tracer)
    elif name == "dpg_solver.cg":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts["dpg_solver.cg_calls"] += 1
            return tracer.call(name, fn, *args, **kwargs)
    else:
        return _wrap(tracer, name, fn)
    return traced


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _dpglab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "dpglab" or k.startswith("dpglab.")) and m is not None]


def replace_everywhere(patches: Patches, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded dpglab module."""
    for mod in _dpglab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.replace(mod, attr, replacement)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; the caller restores the patches."""
    import scipy.sparse.linalg as spla

    from dpglab.forms import ElementAssembler

    patches = Patches()
    try:
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            replace_everywhere(patches, original, _wrap_special(tracer, name, original))
        for attr, name in METHODS:
            patches.replace(ElementAssembler, attr,
                            _wrap_special(tracer, name, ElementAssembler.__dict__[attr]))
        for attr, name in SCIPY:
            patches.replace(spla, attr, _wrap_special(tracer, name, getattr(spla, attr)))
    except BaseException:
        patches.restore()
        raise
    return patches


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one workload execution.

    Names ending in ``_self_s`` are self times; other ``_s`` names are the
    inclusive time of the call (for leaf layers the two agree).
    """
    incl, own = tracer.totals()
    c = tracer.counts
    solves = c["dpg_solver.solves"]
    return {
        "mesh.refine_uniform_s": incl["mesh.refine_uniform"],
        "spaces.build_dofmap_s": incl["spaces.build_dofmap"],
        "spaces.l2_project_s": incl["spaces.l2_project"],
        "forms.assembler_init_s": incl["forms.assembler_init"],
        "forms.gram_s": incl["forms.gram"],
        "forms.b_matrices_s": incl["forms.b_matrices"],
        "forms.loads_s": incl["forms.loads"],
        "forms.elements": c["forms.elements"],
        "forms.gram_mb": c["forms.gram_bytes"] / 1e6,
        "dpg_solver.assemble_global_self_s": own["dpg_solver.assemble_global"],
        "dpg_solver.assemble_and_solve_self_s": own["dpg_solver.assemble_and_solve"],
        "dpg_solver.error_function_s": incl["dpg_solver.error_function"],
        "superlu.factor_s": incl["superlu.factor"],
        "superlu.fill_nnz": c["superlu.fill_nnz"],
        "superlu.refine_steps": c["superlu.solves"] - c["superlu.factorizations"],
        "dpg_solver.ndof": c["dpg_solver.ndof"],
        "dpg_solver.nnz": c["dpg_solver.nnz"],
        "dpg_solver.cg_fallbacks": c["dpg_solver.cg_calls"],
        "dpg_solver.certified_frac": c["dpg_solver.certified_lu"] / solves if solves else 0.0,
        "dpg_solver.backward_error_max": max(tracer.residuals, default=0.0),
        "postprocess.postprocess_u_s": incl["postprocess.postprocess_u"],
        "harness.l2_error_s": incl["harness.l2_error"],
        "harness.study_self_s": own["harness.study"],
    }


def stage_seconds(tracer: Tracer) -> float:
    """Summed self time of every layer span, the wrappers' own work excluded."""
    return sum(st for (name, *_), st in zip(tracer.spans, tracer.self_times())
               if name != OVERHEAD)
