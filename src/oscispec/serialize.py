"""JSON problem format.

Schema (all numbers plain JSON doubles, which round-trip exactly):

    {
      "name": str,
      "breakpoints": [y0, y1, ...],
      "dimension": N,              # N, i and the degrees: integral numbers
      "bound": M,                  # finite, >= 0
      "coefficients": [            # one object per interval
        {"A": poly_matrix, "B": poly_matrix, "C": poly_matrix,
         "denominator": [q0, q1, q2]}    # optional, 1 to 3 coefficients
      ],
      "boundary_left":  poly_matrix,   # m x N, lambda polynomials
      "boundary_right": poly_matrix,
      "boundary_left_max_degree": int,   # optional, default 2
      "boundary_right_max_degree": int,  # optional, default 2
      "conjugations": [{"interface_index": i, "D": poly_matrix, "B": poly_matrix}]
    }

A poly_matrix is a row-major nested list: matrix[i][j] is the coefficient
list of the entry polynomial, ordered constant-first.  An interval's
"denominator" lists the coefficients of q(lambda), constant-first, and
makes its coefficient (A + lambda^2 B + lambda C) / q (Kelvin-Voigt
models); an interval without one has none.
"""

from __future__ import annotations

import json

from .poly import PolyMatrix
from .problem import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    MAX_LAMBDA_DEGREE,
    Partition,
    ProblemDefinition,
)


def problem_to_dict(problem: ProblemDefinition) -> dict:
    coeffs = problem.coefficients
    out = {
        "name": problem.name,
        "breakpoints": list(problem.partition.breakpoints),
        "dimension": problem.dim,
        "bound": coeffs.bound,
        "coefficients": [_interval_dict(coeffs, i) for i in range(problem.partition.n_intervals)],
        "boundary_left": problem.boundary_left.matrix.to_lists(),
        "boundary_right": problem.boundary_right.matrix.to_lists(),
        "conjugations": [
            {
                "interface_index": c.interface,
                "D": c.d_matrix.to_lists(),
                "B": c.b_matrix.to_lists(),
            }
            for c in problem.conjugations
        ],
    }
    if problem.boundary_left.max_degree != MAX_LAMBDA_DEGREE:
        out["boundary_left_max_degree"] = problem.boundary_left.max_degree
    if problem.boundary_right.max_degree != MAX_LAMBDA_DEGREE:
        out["boundary_right_max_degree"] = problem.boundary_right.max_degree
    return out


def _interval_dict(coeffs: CoefficientField, i: int) -> dict:
    out = {
        "A": coeffs.a_polys[i].to_lists(),
        "B": coeffs.b_polys[i].to_lists(),
        "C": coeffs.c_polys[i].to_lists(),
    }
    if coeffs.denominators[i] is not None:
        out["denominator"] = [float(c) for c in coeffs.denominators[i]]
    return out


def problem_from_dict(data: dict) -> ProblemDefinition:
    try:
        part = Partition(tuple(float(b) for b in data["breakpoints"]))
        dim = _integer(data, "dimension")
        bound = float(data.get("bound", 1.0))
        a_polys, b_polys, c_polys, dens = [], [], [], []
        for entry in data["coefficients"]:
            a_polys.append(PolyMatrix.from_entries(entry["A"]))
            b_polys.append(PolyMatrix.from_entries(entry["B"]))
            c_polys.append(PolyMatrix.from_entries(entry["C"]))
            den = entry.get("denominator")
            dens.append(None if den is None else tuple(float(c) for c in den))
        coeffs = CoefficientField(
            tuple(a_polys), tuple(b_polys), tuple(c_polys), bound, tuple(dens)
        )
        left, right = (
            BoundaryOperator(side, PolyMatrix.from_entries(data[f"boundary_{side}"]),
                             _integer(data, f"boundary_{side}_max_degree", MAX_LAMBDA_DEGREE))
            for side in ("left", "right")
        )
        conjs = tuple(
            ConjugationOperator(_integer(c, "interface_index"), PolyMatrix.from_entries(c["D"]),
                                PolyMatrix.from_entries(c["B"]))
            for c in data.get("conjugations", [])
        )
        name = str(data.get("name", "unnamed"))
        if dim != coeffs.dim:
            raise ValueError(f"declared dimension {dim} != coefficient matrix size {coeffs.dim}")
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed problem data: {exc}") from exc
    return ProblemDefinition(name, part, coeffs, left, right, conjs)


def _integer(data: dict, key: str, default: int | None = None) -> int:
    """data[key] (default where given and the key is absent) as an int: 2 or
    2.0 pass, and 2.5, "2", true or any other value is a ValueError."""
    value = data[key] if default is None else data.get(key, default)
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def dump_problem(problem: ProblemDefinition, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def load_problem(path) -> ProblemDefinition:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    return problem_from_dict(data)
