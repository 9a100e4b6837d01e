"""Practical DPG solver for second-order elliptic problems in first-order
form on the unit square, with selectable test norms, an augmented-trial
variant, local postprocessing and a manufactured-solution study harness.

``__all__`` is the supported API; the other names stay importable from
their modules."""

from .dpg_solver import (EnergyError, Solution, SolverError, assemble_and_solve,
                         error_function)
from .forms import Coefficients, ElementAssembler, TestNorm
from .harness import (ErrorTable, StudyConfig, emit_table, l2_error,
                      run_convergence_study)
from .mesh import Mesh, build_initial_mesh, refine_uniform
from .postprocess import postprocess_u
from .problems import ProblemSpec, example

__version__ = "0.1.0"

__all__ = [
    "Coefficients", "ElementAssembler", "EnergyError", "ErrorTable", "Mesh",
    "ProblemSpec", "Solution", "SolverError", "StudyConfig", "TestNorm",
    "assemble_and_solve", "build_initial_mesh", "emit_table", "error_function",
    "example", "l2_error", "postprocess_u", "refine_uniform",
    "run_convergence_study",
]
