"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dpglab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    tr = tracing.Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    c = tr.open("c")
    d = tr.open("d")
    tr.close(d)
    tr.close(c)
    tr.close(a)
    assert tr.self_times() == [4, 2, 3, 1]
    incl, own = tr.totals()
    assert incl == {"a": 10, "b": 2, "c": 4, "d": 1}
    assert own == {"a": 4, "b": 2, "c": 3, "d": 1}
    assert sum(tr.self_times()) == 10


def test_self_time_through_wrapped_calls():
    tr = tracing.Tracer(clock=fake_clock([0, 2, 5, 9]))
    inner = tracing._wrap(tr, "inner", lambda x: x + 1)
    outer = tracing._wrap(tr, "outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [s[:2] for s in tr.spans] == [["outer", -1], ["inner", 0]]
    assert tr.self_times() == [9 - 3, 3]


def test_spans_closed_out_of_order_raise():
    tr = tracing.Tracer(clock=fake_clock(range(10)))
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def _bindings():
    import scipy.sparse.linalg as spla
    owners = [m for k, m in sys.modules.items() if k.startswith("dpglab") and m]
    owners += [dpglab.ElementAssembler, spla]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_wraps_and_restore_puts_originals_back():
    before = _bindings()
    original = dpglab.dpg_solver.assemble_and_solve
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert dpglab.harness.assemble_and_solve is not original
        assert dpglab.assemble_and_solve is dpglab.harness.assemble_and_solve
        mesh, problem = dpglab.build_initial_mesh(), dpglab.example(2)
        sol = dpglab.assemble_and_solve(mesh, problem, 0, dpglab.TestNorm.QUASI_OPTIMAL)
    finally:
        patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    names = {s[0] for s in tracer.spans}
    assert {"dpg_solver.assemble_and_solve", "dpg_solver.assemble_global",
            "spaces.build_dofmap", "forms.assembler_init", "forms.gram",
            "forms.b_matrices", "forms.loads", "superlu.factor"} <= names
    m = tracing.layer_metrics(tracer)
    assert m.keys() == tracing.LAYER_UNITS.keys()
    assert m["dpg_solver.ndof"] == sol.dofmap.total
    assert m["forms.elements"] == 2 * mesh.n_triangles
    assert m["superlu.fill_nnz"] > m["dpg_solver.nnz"] / 2
    assert m["superlu.refine_steps"] >= 0
    assert m["dpg_solver.certified_frac"] == 1.0
    assert m["dpg_solver.backward_error_max"] == sol.residual
    top = tracer.spans[0]
    assert tracing.stage_seconds(tracer) <= top[3] - top[2] + 1e-9


def test_perturbed_study_fixture_fails_its_row():
    fixture = workloads.load_fixtures()["study-qopt-p0-energy"]
    record = copy.deepcopy(fixture)
    assert workloads.row_failures(record, fixture, 6, []) == [False] * 6

    lines = fixture["csv"].splitlines()
    lines[3] = lines[3].replace("4.64e-02", "4.65e-02")
    perturbed = dict(fixture, csv="\n".join(lines) + "\n")
    assert workloads.row_failures(record, perturbed, 6, []) == [
        False, False, True, False, False, False]

    perturbed = dict(fixture, energy=fixture["energy"][:5] + ["4.47e-02"])
    assert sum(workloads.row_failures(record, perturbed, 6, [])) == 1
    assert sum(workloads.row_failures(record, fixture, 6, [(2, 1e-9)])) == 1
    assert all(workloads.row_failures(None, fixture, 6, []))


def test_perturbed_sweep_fixture_raises_failed_count(monkeypatch):
    fixtures = workloads.load_fixtures()
    sweep = workloads.Sweep(seed=3)
    sweep.configs = [c for c in sweep.configs if c[-1] == 1][:4]
    monkeypatch.setattr(workloads, "load_fixtures", lambda: fixtures)
    assert sweep.run().failed == 0

    key = workloads.sweep_key(sweep.configs[1])
    fixtures[workloads.SWEEP][key] = dict(fixtures[workloads.SWEEP][key], err_u="9.99e+09")
    outcome = sweep.run()
    assert (outcome.attempted, outcome.failed) == (4, 1)


def test_sweep_order_depends_only_on_seed():
    grid = workloads.sweep_grid()
    assert len(grid) == 96 == len(set(grid))
    a, b = workloads.Sweep(seed=7).configs, workloads.Sweep(seed=7).configs
    assert a == b and sorted(a) == sorted(grid)
    assert workloads.Sweep(seed=8).configs != a


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    assert gated <= set(run.WORKLOADS) and run.WORKLOADS == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert set(workloads.load_fixtures()) == set(workloads.NAMES)


def test_fastest_cpu_is_an_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        assert run.fastest_cpu(sorted(allowed)) in allowed
    finally:
        os.sched_setaffinity(0, allowed)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-coarse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
