"""Spectra of piecewise 1-D oscillation systems.

Computes complex eigenvalues (frequencies and damping rates) and mode
shapes of linear problems defined piecewise on an interval with interface
conditions at interior points, by propagating normal fundamental matrices
interval by interval and finding roots of the characteristic determinant.
"""

from .errors import (
    BoundaryDegeneracyError,
    IntegrationError,
    NotARootError,
    PoleError,
    PropagationError,
    SolverError,
    UnsupportedModelError,
)
from .integrate import estimate_step, integrate_fundamental
from .models import (
    build_cable_snapshot,
    build_fixed_fixed_string,
    build_fixed_free_string,
    build_machine_unit,
    build_model,
    build_pipeline,
    build_point_mass_string,
    build_spacecraft_bar,
    model_defaults,
)
from .oracle import (
    FDOracleConfig,
    closed_form_determinant,
    closed_form_roots,
    fd_polynomial_eigenvalues,
    leading_frequencies,
)
from .poly import PolyMatrix
from .problem import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    ProblemDefinition,
    insert_breakpoint,
    validate,
)
from .reduction import reduce_complex, reduce_real_split
from .serialize import dump_problem, load_problem, problem_from_dict, problem_to_dict
from .spectrum import (
    Bracket,
    ModeShape,
    SolveOptions,
    characteristic_determinant,
    mode_shape,
    refine_root,
    scan_real_axis,
    solve_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDegeneracyError",
    "BoundaryOperator",
    "Bracket",
    "CoefficientField",
    "ConjugationOperator",
    "FDOracleConfig",
    "IntegrationError",
    "ModeShape",
    "NotARootError",
    "Partition",
    "PolyMatrix",
    "PoleError",
    "ProblemDefinition",
    "PropagationError",
    "SolveOptions",
    "SolverError",
    "UnsupportedModelError",
    "build_cable_snapshot",
    "build_fixed_fixed_string",
    "build_fixed_free_string",
    "build_machine_unit",
    "build_model",
    "build_pipeline",
    "build_point_mass_string",
    "build_spacecraft_bar",
    "characteristic_determinant",
    "closed_form_determinant",
    "closed_form_roots",
    "dump_problem",
    "estimate_step",
    "fd_polynomial_eigenvalues",
    "insert_breakpoint",
    "integrate_fundamental",
    "leading_frequencies",
    "load_problem",
    "mode_shape",
    "model_defaults",
    "problem_from_dict",
    "problem_to_dict",
    "reduce_complex",
    "reduce_real_split",
    "refine_root",
    "scan_real_axis",
    "solve_spectrum",
    "validate",
]
