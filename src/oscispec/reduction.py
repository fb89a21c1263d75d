"""Harmonic reduction of the time-dependent problem to a lambda-bound ODE system.

Substituting z(y, t) = phi(y) exp(lam t) turns the second-order-in-time
problem into dphi/dy = [A(y) + lam^2 B(y) + lam C(y)] phi, divided by the
interval's denominator q(lam) where the field has one: the complex system
that the solver integrates.  reduce_real_split writes the same system
at lam = i*p in real components.  Eigenvalues are complex lam = q + i*p with
q the growth/decay rate and p the angular frequency; reported spectra use
the p >= 0 convention (conjugate pairs deduplicated).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import PoleError
from .linalg import adjugate_table, realify, row_adjugate_form
from .poly import PolyMatrix
from .problem import CoefficientField, ProblemDefinition, ReducedSystem


def reduce_complex(
    problem: ProblemDefinition, lam: np.ndarray, variational: bool = False
) -> ReducedSystem:
    """Bind a 1-D stack of lambdas into the complex N-dimensional
    first-order system; one lambda is the stack np.array([lam]).

    The coefficients are A(y) + lam^2 B(y) + lam C(y), over q(lam) on an
    interval with a denominator (_poly_parts); boundary and interface
    polynomials are evaluated at lam into constant complex matrices
    (bind_matrix), and a lambda-free left boundary brings the null-basis
    table it forms once per problem.  Every matrix carries a leading
    lambda axis, except the lambda-free boundary and interface matrices,
    which the stack shares; each slice is bit-identical to its stack of
    one.  Anything but a 1-D array is a ValueError.

    With variational it carries its lambda-derivatives
    (ReducedSystem.derivatives), A_lam exact (_poly_parts).  A lambda on a
    pole of a denominator raises PoleError naming it.
    """
    lam = _lambda_stack(lam, complex)
    coeffs = problem.coefficients
    consts, varying = _poly_parts(coeffs, lam, variational)
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
        varying=varying,
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
        rows = left(stack)
        table = adjugate_table(rows)[1]
        if table is None:  # zeros: the table's own check (spectrum._initial_table) names the lambda
            table = np.zeros(rows.shape[:-2] + (dim, dim - m), complex)
        d_table = split(table)[1]
    return (
        d_table,
        _dual(right_matrix, bind_matrix(problem.boundary_right.matrix.derivative, lam)),
        tuple(
            (bind_matrix(c.d_matrix.derivative, lam), bind_matrix(c.b_matrix.derivative, lam))
            for c in problem.conjugations_in_order
        ),
    )


def _central(lam):
    """The stack of lam, lam + h and lam - h (h = 1e-5 max(|lam|, 1)), and
    split(values): f's matrices there as (f(lam), f'(lam)), the derivative
    a central difference over the span the sums really took."""
    h = 1e-5 * np.maximum(np.abs(lam), 1.0)
    up, down = lam + h, lam - h
    span = (up - down)[:, np.newaxis, np.newaxis]

    def split(values):
        a, a_up, a_down = values.reshape((3, len(lam)) + values.shape[1:])
        return a, (a_up - a_down) / span

    return np.concatenate((lam, up, down)), split


def reduce_real_split(problem: ProblemDefinition, p: np.ndarray) -> ReducedSystem:
    """Bind a 1-D stack of real frequencies p into the 2N-dimensional real
    system; one frequency is the stack np.array([p]).

    The state stacks (real part, imaginary part) of phi: this is the complex
    system at lam = i*p with every matrix realified, [[Re, -Im], [Im, Re]],
    so the coefficient matrix of real A, B, C takes the block form
    [[A - p^2 B, -p C], [p C, A - p^2 B]] and each boundary or interface
    row contributes two rows, which are reduced per call (no left_table).
    Anything but a 1-D array is a ValueError, as in reduce_complex.  No
    solver path integrates it: real-split mode shapes are the complex ones
    in real components (spectrum.mode_shapes).
    """
    p = _lambda_stack(p, float)
    system = reduce_complex(problem, 1j * p)
    varying = system.varying
    consts = tuple(None if c is None else realify(c) for c in system.constant_coeffs)
    return replace(
        system,
        dim=2 * system.dim,
        left_matrix=realify(system.left_matrix),
        right_matrix=realify(system.right_matrix),
        interfaces=tuple((realify(d), realify(b)) for d, b in system.interfaces),
        varying=lambda interval, ys: realify(varying(interval, ys)),
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


def _lambda_stack(value, kind) -> np.ndarray:
    """A 1-D array of lambdas as that kind; a ValueError for anything else."""
    if not isinstance(value, np.ndarray) or value.ndim != 1:
        raise ValueError("lambda must be a 1-D stack: one lambda is np.array([lam])")
    return value.astype(kind, copy=False)


# ---------------------------------------------------------------------------
# coefficient evaluators
# ---------------------------------------------------------------------------
#
# _poly_parts returns (consts, varying) for a stack of K lambdas: per
# interval the (K, dim, dim) reduced coefficient matrices where they are
# constant in y (None elsewhere), and an evaluator varying(interval, ys) ->
# (len(ys), K, dim, dim), which integration reads where consts is None.
# With variational every matrix is the 2 dim x 2 dim block
# [[A, 0], [A_lam, A]] instead (_dual).
#
# The stack enters the elementwise arithmetic as a (K, 1, 1) column that
# broadcasts the same operations over it.  Its lam^2, the one product of
# two complex numbers with both parts nonzero, is formed by _square with
# the bits of Python's complex product: numpy's vectorized complex product
# may fuse multiply and add.  So each slice of a stack is bit-identical to
# its stack of one.


# overflow gives inf as Python's complex product does, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _square(lam):
    """lam * lam of each lambda of a stack, with the bits of Python's
    complex product: its parts are formed as (a^2 - b^2) + (ab + ba)i by
    separate real operations, where numpy's vectorized complex product may
    fuse a multiply and an add and differ in the last bit."""
    re, im = lam.real, lam.imag
    out = np.empty(lam.shape, dtype=complex)
    out.real = re * re - im * im
    out.imag = re * im + im * re
    return out


def _dual(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """The variational block [[a, 0], [da, a]] of a matrix and its
    lambda-derivative, or of each of a stack (da broadcast to a)."""
    r, c = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (2 * r, 2 * c), dtype=complex)
    out[..., :r, :c] = a
    out[..., r:, c:] = a
    out[..., r:, :c] = da
    return out


def _denominator(q: tuple[float, ...], lam, lam2, interval: int):
    """(q, q_lam) at each lambda of a stack from the coefficients q of one
    interval's denominator: q as a (K, 1, 1) column, and q_lam so too, or
    as a number where it is constant.

    A lambda with |q(lam)| <= 1e-12 sum_k |q_k| |lam|^k is a pole: the
    first in the stack raises PoleError naming the interval and that lambda.
    """
    q0, q1, *q2 = tuple(q) + (0.0,) * (2 - len(q))
    r = np.abs(lam)
    value, slope, scale = q0 + q1 * lam, q1, abs(q0) + abs(q1) * r
    if q2:
        value = value + q2[0] * lam2
        slope = slope + 2 * q2[0] * lam
        scale = scale + abs(q2[0]) * (r * r)
    pole = np.abs(value) <= 1e-12 * scale
    if pole.any():
        raise PoleError(f"coefficient denominator of interval {interval} vanishes",
                        complex(lam[pole][0]))
    value = value[:, np.newaxis, np.newaxis]
    return value, (slope[:, np.newaxis, np.newaxis] if q2 else slope)


def _poly_parts(coeffs: CoefficientField, lam, variational: bool):
    """Per interval N = A + lam^2 B + lam C and, with a denominator q, the
    quotient N / q, whose lambda-derivative is formed exactly as (N_lam -
    (N / q) q_lam) / q, that is (N_lam q - N q_lam) / q^2."""
    lam2 = _square(lam)
    quotients = tuple(None if q is None else _denominator(q, lam, lam2, i)
                      for i, q in enumerate(coeffs.denominators))
    lam2 = lam2[:, np.newaxis, np.newaxis]
    lam = lam[:, np.newaxis, np.newaxis]

    def value(a, b, c):
        return a + lam2 * b + lam * c

    def form(interval, a, b, c):
        n, dn = value(a, b, c), (2 * lam * b + c if variational else None)
        if quotients[interval] is not None:
            q, dq = quotients[interval]
            n = n / q
            dn = None if dn is None else (dn - n * dq) / q
        return n if dn is None else _dual(n, dn)

    consts = tuple(
        None if abc is None else form(i, *abc) for i, abc in enumerate(coeffs.constant_abc)
    )

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        polys = (coeffs.a_polys, coeffs.b_polys, coeffs.c_polys)
        return form(interval, *(p[interval](ys)[:, np.newaxis] for p in polys)).astype(complex)

    return consts, varying
