"""The supported API is ``dpglab.__all__``; the README example uses only it."""

import re
from pathlib import Path

import dpglab

README = Path(__file__).resolve().parents[1] / "README.md"

SUPPORTED = [
    "Coefficients", "ElementAssembler", "EnergyError", "ErrorTable", "Mesh",
    "ProblemSpec", "Solution", "SolverError", "StudyConfig", "TestNorm",
    "assemble_and_solve", "build_initial_mesh", "emit_table", "error_function",
    "example", "l2_error", "postprocess_u", "refine_uniform",
    "run_convergence_study",
]


def test_all_is_the_supported_api():
    assert sorted(dpglab.__all__) == sorted(SUPPORTED)
    for name in dpglab.__all__:
        assert getattr(dpglab, name) is not None


def test_readme_example_runs_on_the_supported_api(capsys):
    text = README.read_text()
    start = text.find("Minimal API example")
    assert start >= 0, "README has no 'Minimal API example'"
    code = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    used = set(re.findall(r"\bd\.(\w+)", code))
    assert used and used <= set(dpglab.__all__), used - set(dpglab.__all__)
    exec(compile(code, str(README), "exec"), {})
    errors = [float(v) for v in capsys.readouterr().out.split()]
    assert len(errors) == 2 and 0 < errors[1] < errors[0] < 1
