"""Practical DPG solver for second-order elliptic problems in first-order
form on the unit square, with selectable test norms, an augmented-trial
variant, local postprocessing and a manufactured-solution study harness."""

from .dpg_solver import (EnergyError, Solution, SolverError, assemble_and_solve,
                         error_function)
from .forms import (Coefficients, ElementAssembler, TestNorm, element_b_matrix,
                    element_gram, element_load)
from .harness import (ErrorRow, ErrorTable, StudyConfig, emit_table, l2_error,
                      parse_table_csv, rate, run_convergence_study)
from .mesh import Mesh, build_initial_mesh, refine_uniform
from .postprocess import postprocess_u
from .problems import ProblemSpec, derive_data, example, zero_data_problem
from .refelem import (LagrangeBasis, QuadratureRule, RTBasis, ScalarBasis,
                      edge_quadrature, rt_basis, scalar_basis, triangle_quadrature)
from .spaces import (CoefficientVector, DofMap, RTCoefficients, broken_eval,
                     build_dofmap, l2_project, rt_interpolate, trial_layout)

__version__ = "0.1.0"

__all__ = [
    "Coefficients", "CoefficientVector", "DofMap", "ElementAssembler",
    "EnergyError", "ErrorRow", "ErrorTable", "LagrangeBasis",
    "Mesh", "ProblemSpec", "QuadratureRule", "RTBasis", "RTCoefficients",
    "ScalarBasis", "Solution", "SolverError", "StudyConfig", "TestNorm",
    "assemble_and_solve", "broken_eval", "build_dofmap", "build_initial_mesh",
    "derive_data", "edge_quadrature",
    "element_b_matrix", "element_gram", "element_load",
    "emit_table", "error_function", "example", "l2_error", "l2_project",
    "parse_table_csv", "postprocess_u", "rate", "refine_uniform",
    "rt_basis", "rt_interpolate", "run_convergence_study", "scalar_basis",
    "triangle_quadrature", "trial_layout", "zero_data_problem",
]
