"""Harmonic reduction of the time-dependent problem to a lambda-bound ODE system.

Substituting z(y, t) = phi(y) exp(lam t) turns the second-order-in-time
problem into dphi/dy = [A(y) + lam^2 B(y) + lam C(y)] phi.  Two routes are
provided: the complex path keeps the N-dimensional complex system, the
real-split path separates real and imaginary parts of phi at lam = i*p into
a 2N-dimensional real system.  Eigenvalues are complex lam = q + i*p with
q the growth/decay rate and p the angular frequency; reported spectra use
the p >= 0 convention (conjugate pairs deduplicated).
"""

from __future__ import annotations

import numpy as np

from .linalg import real_blocks, realify
from .problem import (
    CoefficientField,
    LambdaCoefficientField,
    ProblemDefinition,
    ReducedSystem,
)


def reduce_complex(problem: ProblemDefinition, lam: complex) -> ReducedSystem:
    """Bind lambda into the complex N-dimensional first-order system.

    The coefficient evaluator returns A(y) + lam^2 B(y) + lam C(y); boundary
    and interface polynomials are evaluated at lam into constant complex
    matrices.
    """
    lam = complex(lam)
    coeffs = problem.coefficients
    if isinstance(coeffs, CoefficientField):
        consts, varying = _poly_parts(coeffs, lam)
    else:
        consts, varying = _lambda_parts(coeffs, lam)

    return ReducedSystem(
        partition=problem.partition,
        dim=problem.dim,
        lam=lam,
        is_real=False,
        left_matrix=np.asarray(problem.boundary_left(lam), dtype=complex),
        right_matrix=np.asarray(problem.boundary_right(lam), dtype=complex),
        interfaces=tuple(
            (
                np.asarray(c.d_matrix(lam), dtype=complex),
                np.asarray(c.b_matrix(lam), dtype=complex),
            )
            for c in sorted(problem.conjugations, key=lambda c: c.interface)
        ),
        bound=_reduced_bound(coeffs, lam),
        coeff_batch=_coeff_batch(consts, varying),
        constant_coeffs=consts,
    )


def reduce_real_split(problem: ProblemDefinition, p: float) -> ReducedSystem:
    """Bind a real frequency p into the 2N-dimensional real system.

    The state stacks (real part, imaginary part) of phi; the coefficient
    matrix takes the block form [[A - p^2 B, -p C], [p C, A - p^2 B]].
    Boundary and interface matrices evaluated at lam = i*p are doubled the
    same way, [[Re, -Im], [Im, Re]], each original row contributing two rows.
    """
    p = float(p)
    lam = 1j * p
    coeffs = problem.coefficients
    if isinstance(coeffs, CoefficientField):
        consts, varying = _poly_split_parts(coeffs, p)
    else:
        consts, varying = _lambda_split_parts(coeffs, lam)

    return ReducedSystem(
        partition=problem.partition,
        dim=2 * problem.dim,
        lam=lam,
        is_real=True,
        left_matrix=realify(problem.boundary_left(lam)),
        right_matrix=realify(problem.boundary_right(lam)),
        interfaces=tuple(
            (realify(c.d_matrix(lam)), realify(c.b_matrix(lam)))
            for c in sorted(problem.conjugations, key=lambda c: c.interface)
        ),
        bound=_reduced_bound(coeffs, lam),
        coeff_batch=_coeff_batch(consts, varying),
        constant_coeffs=consts,
    )


# ---------------------------------------------------------------------------
# coefficient evaluators
# ---------------------------------------------------------------------------
#
# Each *_parts function returns (consts, varying): per interval the reduced
# coefficient matrix where it is constant in y (None elsewhere), and an
# evaluator varying(interval, ys) -> (len(ys), dim, dim) for the other
# intervals.


def _reduced_bound(coeffs, lam: complex) -> float:
    r = abs(lam)
    return coeffs.bound * (1.0 + r + r * r)


def _coeff_batch(consts, varying):
    def batch(interval: int, ys: np.ndarray) -> np.ndarray:
        const = consts[interval]
        if const is not None:
            return np.broadcast_to(const, (len(ys),) + const.shape)
        return varying(interval, ys)

    return batch


def _constant_abc(coeffs: CoefficientField):
    """Per interval the constant (A, B, C) matrices, None where any varies in y."""
    return [
        (a.coeffs[0], b.coeffs[0], c.coeffs[0])
        if a.is_constant() and b.is_constant() and c.is_constant()
        else None
        for a, b, c in zip(coeffs.a_polys, coeffs.b_polys, coeffs.c_polys)
    ]


def _poly_parts(coeffs: CoefficientField, lam: complex):
    lam2 = lam * lam
    consts = tuple(
        None if abc is None else abc[0] + lam2 * abc[1] + lam * abc[2]
        for abc in _constant_abc(coeffs)
    )

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        return (
            coeffs.a_polys[interval](ys)
            + lam2 * coeffs.b_polys[interval](ys)
            + lam * coeffs.c_polys[interval](ys)
        ).astype(complex)

    return consts, varying


def _poly_split_parts(coeffs: CoefficientField, p: float):
    p2 = p * p
    consts = tuple(
        None
        if abc is None
        else real_blocks(np.real(abc[0]) - p2 * np.real(abc[1]), p * np.real(abc[2]))
        for abc in _constant_abc(coeffs)
    )

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        av = coeffs.a_polys[interval](ys)
        bv = coeffs.b_polys[interval](ys)
        cv = coeffs.c_polys[interval](ys)
        return real_blocks(av - p2 * bv, p * cv)

    return consts, varying


def _lambda_parts(coeffs: LambdaCoefficientField, lam: complex):
    n = coeffs.partition.n_intervals
    if coeffs.y_independent:
        mids = [0.5 * (lo + hi) for lo, hi in map(coeffs.partition.interval, range(n))]
        consts = tuple(
            np.asarray(ev(mids[i], lam), dtype=complex)
            for i, ev in enumerate(coeffs.evaluators)
        )
        return consts, None

    def varying(interval: int, ys: np.ndarray) -> np.ndarray:
        ev = coeffs.evaluators[interval]
        return np.stack([np.asarray(ev(float(y), lam), dtype=complex) for y in ys])

    return (None,) * n, varying


def _lambda_split_parts(coeffs: LambdaCoefficientField, lam: complex):
    consts, varying = _lambda_parts(coeffs, lam)

    def varying_split(interval: int, ys: np.ndarray) -> np.ndarray:
        return realify(varying(interval, ys))

    return tuple(None if c is None else realify(c) for c in consts), varying_split
