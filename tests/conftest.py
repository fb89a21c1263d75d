import numpy as np
import pytest

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    PolyMatrix,
    ProblemDefinition,
)


def make_string_problem(rho=1.0, tension=1.0, length=1.0, left="pinned", right="free",
                        breakpoints=None, conjugations=()):
    """Hand-assembled wave-equation problem with state (u, u_x).

    Kept independent of the model library so core tests do not depend on it.
    """
    part = Partition(breakpoints if breakpoints is not None else (0.0, length))
    n = part.n_intervals
    a = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b = PolyMatrix.constant(np.array([[0.0, 0.0], [rho / tension, 0.0]]))
    c = PolyMatrix.zero(2, 2)
    field = CoefficientField((a,) * n, (b,) * n, (c,) * n, max(1.0, rho / tension))
    rows = {"pinned": [[[1.0], [0.0]]], "free": [[[0.0], [1.0]]]}
    left_op = BoundaryOperator("left", PolyMatrix.from_entries(rows[left]))
    right_op = BoundaryOperator("right", PolyMatrix.from_entries(rows[right]))
    return ProblemDefinition(
        f"string_{left}_{right}", part, field, left_op, right_op, tuple(conjugations)
    )


@pytest.fixture
def fixed_free_string():
    return make_string_problem(left="pinned", right="free")


@pytest.fixture
def fixed_fixed_string():
    return make_string_problem(left="pinned", right="pinned")


def identity_conjugation(interface, dim=2):
    return ConjugationOperator.identity(interface, dim)


#: the pinned-free string over the denominator q = 1 + lam^2: a valid
#: problem with poles at lam = +-1j, inside the span of a scan to p = 1
POLE_STRING = {
    "name": "pole_string", "breakpoints": [0, 1], "dimension": 2, "bound": 1.0,
    "coefficients": [{"A": [[[0], [1]], [[0], [0]]], "B": [[[0], [0]], [[1], [0]]],
                      "C": [[[0], [0]], [[0], [0]]], "denominator": [1, 0, 1]}],
    "boundary_left": [[[1], [0]]], "boundary_right": [[[0], [1]]], "conjugations": [],
}
