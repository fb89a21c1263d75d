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
from .integrate import FundamentalMatrix, estimate_step, integrate_fundamental
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
    ScalarWaveForm,
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
    LambdaCoefficientField,
    Partition,
    ProblemDefinition,
    ReducedSystem,
    evaluate_coefficients,
    insert_breakpoint,
    validate,
)
from .reduction import reduce_complex, reduce_real_split
from .serialize import dump_problem, load_problem, problem_from_dict, problem_to_dict
from .spectrum import (
    Bracket,
    ModeShape,
    SolveOptions,
    SpectralResult,
    characteristic_determinant,
    initial_coefficients,
    mode_shape,
    mode_shapes,
    propagate,
    refine_root,
    resolve_step,
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
    "FundamentalMatrix",
    "IntegrationError",
    "LambdaCoefficientField",
    "ModeShape",
    "NotARootError",
    "Partition",
    "PolyMatrix",
    "PoleError",
    "ProblemDefinition",
    "PropagationError",
    "ReducedSystem",
    "ScalarWaveForm",
    "SolveOptions",
    "SolverError",
    "SpectralResult",
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
    "evaluate_coefficients",
    "fd_polynomial_eigenvalues",
    "initial_coefficients",
    "insert_breakpoint",
    "integrate_fundamental",
    "leading_frequencies",
    "load_problem",
    "mode_shape",
    "mode_shapes",
    "model_defaults",
    "problem_from_dict",
    "problem_to_dict",
    "propagate",
    "reduce_complex",
    "reduce_real_split",
    "refine_root",
    "resolve_step",
    "scan_real_axis",
    "solve_spectrum",
    "validate",
]
