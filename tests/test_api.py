"""The supported API is ``dpglab.__all__``; the README example uses only it;
the package and its tests import nothing they do not use."""

import ast
import re
from pathlib import Path

import pytest

import dpglab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; the names of ``__all__``
    count as read (the package re-exports them)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("folder", ["src/dpglab", "tests", "tools"])
def test_no_unused_import_and_no_long_line(folder):
    # the hygiene a linter would check; no lint tool is a dependency
    problems = []
    for path in sorted((ROOT / folder).glob("*.py")):
        text = path.read_text()
        problems += [f"{path.name}: unused import {name}"
                     for name in _unused_imports(ast.parse(text))]
        problems += [f"{path.name}:{n}: {len(line)} characters"
                     for n, line in enumerate(text.splitlines(), 1) if len(line) > 99]
    assert not problems, "\n".join(problems)
