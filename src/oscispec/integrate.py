"""Normal fundamental systems by fixed-step classical Runge-Kutta.

On each interval the N (or 2N) solutions with identity initial data at the
interval's left endpoint are integrated together.  Rows index solutions and
columns index components: end_matrix[k, j] is component j of solution k at
the right endpoint.  Fixed step keeps results reproducible bit-for-bit for
a given h and makes the semigroup property exactly testable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .problem import ReducedSystem

#: |det| of an end matrix below this triggers a step-size warning
DET_WARN_TOL = 1e-12

#: safety constant in the local-error step model
_STEP_SAFETY = 10.0


@dataclass(frozen=True)
class FundamentalMatrix:
    """End values (and optional dense samples) of one interval's solutions."""

    interval: int
    end_matrix: np.ndarray  # (dim, dim), rows = solutions
    step: float
    sample_ys: np.ndarray | None = None
    samples: np.ndarray | None = None  # (n_samples, dim, dim), rows = solutions


def estimate_step(system: ReducedSystem, target_error: float) -> float:
    """Step size from the coefficient bound and the RK4 local error model.

    h = (target / (C * M^5 * L))^(1/4) with C = 10, M the reduced
    coefficient bound and L the total domain length, clamped to
    [1e-6 * L, L / 16].
    """
    if target_error <= 0:
        raise ValueError("target_error must be positive")
    length = system.partition.total_length
    hi = length / 16.0
    lo = 1e-6 * length
    m = system.bound
    if m <= 0.0:
        return hi
    h = (target_error / (_STEP_SAFETY * m**5 * length)) ** 0.25
    return min(hi, max(lo, h))


def integrate_fundamental(
    system: ReducedSystem,
    interval: int,
    step: float,
    keep_samples: bool = False,
) -> FundamentalMatrix:
    """Integrate the identity-initialized solutions across one interval.

    The step actually used is h = length / ceil(length / step) so the grid
    lands exactly on the interval ends.  Raises IntegrationError if the
    solution overflows.

    Where the interval's coefficients are constant every step matrix is the
    same: it is formed once and raised to the n-th power along the pairwise
    tree of the general path, with bit-identical results in O(log n)
    products.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = system.partition.interval(interval)
    length = hi - lo
    n_steps = max(1, int(np.ceil(length / step - 1e-12)))
    h = length / n_steps

    nodes = lo + h * np.arange(n_steps + 1)
    const = system.constant_coeffs[interval]

    # overflow is caught by the finiteness check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if const is None:
            a_nodes = system.coeff_batch(interval, nodes)
            a_mids = system.coeff_batch(interval, nodes[:-1] + 0.5 * h)
            steps = _rk4_steps(a_nodes[:-1], a_mids, a_nodes[1:], h)
        else:
            # a length-1 stack, so S is computed exactly as steps[j] above
            a = np.broadcast_to(const, (1,) + const.shape)
            steps = np.broadcast_to(_rk4_steps(a, a, a, h), (n_steps,) + const.shape)

        samples = None
        if keep_samples:
            eye = np.eye(system.dim, dtype=steps.dtype)
            samples = np.empty((n_steps + 1, system.dim, system.dim), dtype=steps.dtype)
            samples[0] = eye
            transfer = eye
            for j in range(n_steps):
                transfer = steps[j] @ transfer
                samples[j + 1] = transfer.T
            end = transfer.T
        elif const is None:
            end = _chain_product(steps).T
        else:
            end = _constant_power(steps[0], n_steps).T

    if not np.all(np.isfinite(end)):
        raise IntegrationError(interval, system.lam)
    det = np.linalg.det(end)
    if abs(det) < DET_WARN_TOL:
        warnings.warn(
            f"fundamental matrix nearly singular on interval {interval} "
            f"(|det|={abs(det):.3e}); consider a smaller step",
            RuntimeWarning,
            stacklevel=2,
        )

    return FundamentalMatrix(
        interval=interval,
        end_matrix=end,
        step=h,
        sample_ys=nodes if keep_samples else None,
        samples=samples,
    )


def _rk4_steps(a_left, a_mid, a_right, h: float) -> np.ndarray:
    """One-step propagators S_j for the column dynamics z' = a(y) z.

    The arguments are stacks of the coefficient at each step's left end,
    midpoint and right end.
    """
    eye = np.eye(a_left.shape[-1], dtype=a_left.dtype)
    k1 = a_left
    k2 = a_mid @ (eye + (0.5 * h) * k1)
    k3 = a_mid @ (eye + (0.5 * h) * k2)
    k4 = a_right @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by pairwise reduction (deterministic order)."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        half = n // 2
        paired = mats[1 : 2 * half : 2] @ mats[0 : 2 * half : 2]
        if n % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def _constant_power(mat: np.ndarray, n: int) -> np.ndarray:
    """mat^n, bit-identical to _chain_product of n copies of mat.

    Every level of the pairwise tree on identical factors is `count` copies
    of one power followed by at most one carried remainder, so a level
    costs at most two products: about 2 log2(n) in all instead of n - 1.
    np.linalg.matrix_power is not used: it forms mat^3 as (mat @ mat) @ mat,
    where the tree has mat @ (mat @ mat).
    """
    power, count, rest = mat, n, None
    while count + (rest is not None) > 1:
        if count % 2:
            # the odd copy pairs with the remainder, or becomes it
            rest = power if rest is None else rest @ power
        count //= 2
        if count:
            power = power @ power
    return power if count else rest
