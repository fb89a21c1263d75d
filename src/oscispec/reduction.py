"""Harmonic reduction of the time-dependent problem to a lambda-bound ODE system.

Substituting z(y, t) = phi(y) exp(lam t) turns the second-order-in-time
problem into dphi/dy = [A(y) + lam^2 B(y) + lam C(y)] phi.  Two routes are
provided: the complex path keeps the N-dimensional complex system, the
real-split path separates real and imaginary parts of phi at lam = i*p into
a 2N-dimensional real system, the realified complex one, which only mode
shapes use.  Eigenvalues are complex lam = q + i*p with q the growth/decay
rate and p the angular frequency; reported spectra use the p >= 0
convention (conjugate pairs deduplicated).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .linalg import realify
from .poly import PolyMatrix
from .problem import (
    CoefficientField,
    LambdaCoefficientField,
    ProblemDefinition,
    ReducedSystem,
)


def reduce_complex(problem: ProblemDefinition, lam: complex | np.ndarray) -> ReducedSystem:
    """Bind lambda into the complex N-dimensional first-order system.

    The coefficient evaluator returns A(y) + lam^2 B(y) + lam C(y); boundary
    and interface polynomials are evaluated at lam into constant complex
    matrices (bind_matrix), and a lambda-free left boundary brings the
    null-basis table it forms once per problem.  A 1-D array of lambdas
    gives one stacked system whose matrices carry a leading lambda axis,
    except the lambda-free boundary and interface matrices, which the
    stack shares; each slice is computed with the same arithmetic as a
    single lambda, bit for bit.
    """
    lam = _lambda_arg(lam, complex)
    coeffs = problem.coefficients
    if isinstance(coeffs, CoefficientField):
        consts, varying = _poly_parts(coeffs, lam)
    else:
        consts, varying = _lambda_parts(coeffs, lam)

    return ReducedSystem(
        partition=problem.partition,
        dim=problem.dim,
        lam=lam,
        left_matrix=bind_matrix(problem.boundary_left.matrix, lam),
        right_matrix=bind_matrix(problem.boundary_right.matrix, lam),
        interfaces=tuple(
            (bind_matrix(c.d_matrix, lam), bind_matrix(c.b_matrix, lam))
            for c in problem.conjugations_in_order
        ),
        coefficient_bound=coeffs.bound,
        coeff_batch=_coeff_batch(consts, varying),
        constant_coeffs=consts,
        left_table=problem.boundary_left.constant_table,
    )


def reduce_real_split(problem: ProblemDefinition, p: float | np.ndarray) -> ReducedSystem:
    """Bind a real frequency p into the 2N-dimensional real system.

    The state stacks (real part, imaginary part) of phi: this is the complex
    system at lam = i*p with every matrix realified, [[Re, -Im], [Im, Re]],
    so the coefficient matrix of real A, B, C takes the block form
    [[A - p^2 B, -p C], [p C, A - p^2 B]] and each boundary or interface
    row contributes two rows.  A 1-D array of frequencies gives one stacked
    system, as in reduce_complex.
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
        left_table=problem.boundary_left.constant_split_table,
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
# varying returns (len(ys), K, dim, dim).
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


def _poly_parts(coeffs: CoefficientField, lam):
    lam2 = _column(_square(lam))
    lam = _column(lam)
    consts = tuple(
        None if abc is None else abc[0] + lam2 * abc[1] + lam * abc[2]
        for abc in coeffs.constant_abc
    )

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        return (
            _per_node(coeffs.a_polys[interval](ys), lam)
            + lam2 * _per_node(coeffs.b_polys[interval](ys), lam)
            + lam * _per_node(coeffs.c_polys[interval](ys), lam)
        ).astype(complex)

    return consts, varying


def _lambda_parts(coeffs: LambdaCoefficientField, lam):
    n = coeffs.partition.n_intervals
    lams = np.asarray(lam, dtype=complex)
    if coeffs.y_independent:
        mids = coeffs.partition.midpoints
        consts = tuple(
            np.asarray(ev(mids[i], lams), dtype=complex) for i, ev in enumerate(coeffs.evaluators)
        )
        return consts, None

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        ev = coeffs.evaluators[interval]
        return np.stack([np.asarray(ev(y, lams), dtype=complex) for y in ys.tolist()])

    return (None,) * n, varying
