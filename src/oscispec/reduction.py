"""Harmonic reduction of the time-dependent problem to a lambda-bound ODE system.

Substituting z(y, t) = phi(y) exp(lam t) turns the second-order-in-time
problem into dphi/dy = [A(y) + lam^2 B(y) + lam C(y)] phi, the complex
system that the solver integrates.  reduce_real_split writes the same system
at lam = i*p in real components.  Eigenvalues are complex lam = q + i*p with
q the growth/decay rate and p the angular frequency; reported spectra use
the p >= 0 convention (conjugate pairs deduplicated).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import PoleError
from .linalg import adjugate_form, realify, row_adjugate_form, rref_null_basis
from .poly import PolyMatrix
from .problem import (
    CoefficientField,
    LambdaCoefficientField,
    ProblemDefinition,
    ReducedSystem,
    each_lambda,
)


def reduce_complex(
    problem: ProblemDefinition, lam: complex | np.ndarray, variational: bool = False
) -> ReducedSystem:
    """Bind lambda into the complex N-dimensional first-order system.

    The coefficient evaluator returns A(y) + lam^2 B(y) + lam C(y); boundary
    and interface polynomials are evaluated at lam into constant complex
    matrices (bind_matrix), and a lambda-free left boundary brings the
    null-basis table it forms once per problem.  A 1-D array of lambdas
    gives one stacked system whose matrices carry a leading lambda axis,
    except the lambda-free boundary and interface matrices, which the
    stack shares; each slice is computed with the same arithmetic as a
    single lambda, bit for bit.

    With variational it carries its lambda-derivatives
    (ReducedSystem.derivatives): A_lam = 2 lam B + C of a polynomial field,
    a central difference from the same call of a lambda field's evaluator.
    """
    lam = _lambda_arg(lam, complex)
    coeffs = problem.coefficients
    parts = _poly_parts if isinstance(coeffs, CoefficientField) else _lambda_parts
    consts, varying = parts(coeffs, lam, variational)
    left_matrix = bind_matrix(problem.boundary_left.matrix, lam)
    right_matrix = bind_matrix(problem.boundary_right.matrix, lam)
    return ReducedSystem(
        partition=problem.partition,
        dim=problem.dim,
        lam=lam,
        left_matrix=left_matrix,
        right_matrix=right_matrix,
        interfaces=tuple(
            (bind_matrix(c.d_matrix, lam), bind_matrix(c.b_matrix, lam))
            for c in problem.conjugations_in_order
        ),
        coefficient_bound=coeffs.bound,
        coeff_batch=_coeff_batch(consts, varying),
        constant_coeffs=consts,
        left_table=problem.boundary_left.constant_table,
        derivatives=_derivatives(problem, left_matrix, right_matrix, lam) if variational else None,
    )


def _derivatives(problem: ProblemDefinition, left_matrix, right_matrix, lam) -> tuple:
    """ReducedSystem.derivatives.  Lambda-free left rows have a constant
    table; one row [a0, a1] has [-a1; a0], linear in the row; other rows
    take a central difference of their tables, polynomials in lambda."""
    left = problem.boundary_left.matrix
    m, dim = left_matrix.shape[-2:]
    if problem.boundary_left.constant_table is not None:
        d_table = np.zeros((dim, dim - m), dtype=complex)
    elif (m, dim) == (1, 2):
        d_left = np.broadcast_to(bind_matrix(left.derivative, lam), left_matrix.shape)
        d_table = row_adjugate_form(d_left)
    else:
        stack, split = _central(lam)
        d_table = split(_adjugate_table(left(stack)))[1]
    return (
        d_table,
        _dual(right_matrix, bind_matrix(problem.boundary_right.matrix.derivative, lam)),
        tuple(
            (bind_matrix(c.d_matrix.derivative, lam), bind_matrix(c.b_matrix.derivative, lam))
            for c in problem.conjugations_in_order
        ),
    )


def _adjugate_table(rows: np.ndarray) -> np.ndarray:
    """The adjugate-form null basis of a stack of rows; zeros where they lose
    rank, which the table's own check (spectrum._initial_table) names."""
    reduced = rref_null_basis(rows)
    if reduced.pivots is None or np.any(reduced[0] != rows.shape[-2]):
        return np.zeros(rows.shape[:-2] + (rows.shape[-1], rows.shape[-1] - rows.shape[-2]), complex)
    return adjugate_form(rows, reduced)


def _central(lam):
    """The stack of lam, lam + h and lam - h (h = 1e-5 max(|lam|, 1)), and
    split(values): f's matrices there as (f(lam), f'(lam)), the derivative
    a central difference over the span the sums really took.  A scalar lam
    gives matrices without the stack axis."""
    z = np.asarray(lam, dtype=complex).reshape(-1)
    h = 1e-5 * np.maximum(np.abs(z), 1.0)
    up, down = z + h, z - h
    span = (up - down)[:, np.newaxis, np.newaxis]

    def split(values):
        a, a_up, a_down = values.reshape((3, len(z)) + values.shape[1:])
        shape = np.shape(lam) + a.shape[1:]
        return a.reshape(shape), ((a_up - a_down) / span).reshape(shape)

    return np.concatenate((z, up, down)), split


def reduce_real_split(problem: ProblemDefinition, p: float | np.ndarray) -> ReducedSystem:
    """Bind a real frequency p into the 2N-dimensional real system.

    The state stacks (real part, imaginary part) of phi: this is the complex
    system at lam = i*p with every matrix realified, [[Re, -Im], [Im, Re]],
    so the coefficient matrix of real A, B, C takes the block form
    [[A - p^2 B, -p C], [p C, A - p^2 B]] and each boundary or interface
    row contributes two rows, which are reduced per call (no left_table).
    A 1-D array of frequencies gives one stacked system, as in
    reduce_complex.  No solver path integrates it: real-split mode shapes
    are the complex ones in real components (spectrum.mode_shapes).
    """
    p = _lambda_arg(p, float)
    system = reduce_complex(problem, 1j * p)
    batch = system.coeff_batch
    consts = tuple(None if c is None else realify(c) for c in system.constant_coeffs)
    return replace(
        system,
        dim=2 * system.dim,
        left_matrix=realify(system.left_matrix),
        right_matrix=realify(system.right_matrix),
        interfaces=tuple((realify(d), realify(b)) for d, b in system.interfaces),
        coeff_batch=_coeff_batch(consts, lambda interval, ys: realify(batch(interval, ys))),
        constant_coeffs=consts,
        left_table=None,
    )


def bind_matrix(matrix: PolyMatrix, lam) -> np.ndarray:
    """A boundary or interface polynomial matrix at lambda, complex.

    A matrix stored as one constant is its shared read-only value
    (PolyMatrix.fixed_value), formed once per problem: one matrix even for
    a stack, which numpy's matmul and solve broadcast over it with the
    arithmetic of each lambda alone.  Any other matrix is evaluated at
    lambda, or at each lambda of a stack.
    """
    fixed = matrix.fixed_value
    return fixed if fixed is not None else np.asarray(matrix(lam), dtype=complex)


def _lambda_arg(value, kind):
    """A Python number for a scalar, a 1-D array of that kind for a stack."""
    if not isinstance(value, np.ndarray) or value.ndim == 0:
        return kind(value)
    if value.ndim != 1:
        raise ValueError("lambda must be a scalar or a 1-D array")
    return value.astype(kind, copy=False)


# ---------------------------------------------------------------------------
# coefficient evaluators
# ---------------------------------------------------------------------------
#
# Each *_parts function returns (consts, varying): per interval the reduced
# coefficient matrix where it is constant in y (None elsewhere), and an
# evaluator varying(interval, ys) -> (len(ys), dim, dim) for the other
# intervals.  For a stack of K lambdas the matrices are (K, dim, dim) and
# varying returns (len(ys), K, dim, dim).  With variational every matrix is
# the 2 dim x 2 dim block [[A, 0], [A_lam, A]] instead (_dual).
#
# lam is a Python number, or an ndarray for a stack.  The polynomial field
# enters a stack into the elementwise arithmetic as a (K, 1, 1) column,
# which broadcasts the same operations over it; its lam^2 is squared in
# Python, one lambda at a time: numpy's vectorized complex product may fuse
# multiply and add, and would then differ from the scalar product in the
# last bit.  A lambda field's evaluator is called with the whole stack (one
# lambda as a 0-d array), once per interval, or once per node where it
# varies in y; by its contract (LambdaCoefficientField) one lambda takes the
# array arithmetic of a stack, so each slice is bit-identical to its own call.


def _coeff_batch(consts, varying):
    def batch(interval: int, ys: np.ndarray) -> np.ndarray:
        const = consts[interval]
        if const is not None:
            return np.broadcast_to(const, (len(ys),) + const.shape)
        return varying(interval, ys)

    return batch


def _column(x):
    return x[:, np.newaxis, np.newaxis] if isinstance(x, np.ndarray) else x


def _per_node(values: np.ndarray, x) -> np.ndarray:
    """(len(ys), dim, dim) values with the stack's lambda axis inserted."""
    return values[:, np.newaxis] if isinstance(x, np.ndarray) else values


def _square(lam):
    if isinstance(lam, np.ndarray):
        return np.array([z * z for z in lam.tolist()])
    return lam * lam


def _dual(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """The variational block [[a, 0], [da, a]] of a matrix and its
    lambda-derivative, or of each of a stack (da broadcast to a)."""
    r, c = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (2 * r, 2 * c), dtype=complex)
    out[..., :r, :c] = a
    out[..., r:, c:] = a
    out[..., r:, :c] = da
    return out


def _poly_parts(coeffs: CoefficientField, lam, variational: bool):
    lam2 = _column(_square(lam))
    lam = _column(lam)

    def value(a, b, c):
        return a + lam2 * b + lam * c

    def form(a, b, c):
        return _dual(value(a, b, c), 2 * lam * b + c) if variational else value(a, b, c)

    consts = tuple(None if abc is None else form(*abc) for abc in coeffs.constant_abc)

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        polys = (coeffs.a_polys, coeffs.b_polys, coeffs.c_polys)
        return form(*(_per_node(p[interval](ys), lam) for p in polys)).astype(complex)

    return consts, varying


def _lambda_parts(coeffs: LambdaCoefficientField, lam, variational: bool):
    # with variational, lambda and lambda +- h go in one call (_central); a
    # pole at lambda +- h is the failure of lambda, the point it is formed for
    lams, split = _central(lam) if variational else (np.asarray(lam, dtype=complex), None)

    def evaluate(interval: int, y: float) -> np.ndarray:
        try:
            values = np.asarray(coeffs.evaluators[interval](y, lams), dtype=complex)
        except PoleError as exc:
            hit = np.flatnonzero(lams == exc.lam) if np.ndim(exc.lam) == 0 else []
            if split is not None and len(hit):
                exc.lam = each_lambda(lam)[hit[0] % (len(lams) // 3)]
            raise
        return values if split is None else _dual(*split(values))

    if coeffs.y_independent:
        return tuple(evaluate(i, y) for i, y in enumerate(coeffs.partition.midpoints)), None

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        return np.stack([evaluate(interval, y) for y in ys.tolist()])

    return (None,) * coeffs.partition.n_intervals, varying
