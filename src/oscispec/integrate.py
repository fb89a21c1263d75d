"""Normal fundamental systems: in closed form, or by fixed-step classical
Runge-Kutta.

On each interval the N (or 2N) solutions with identity initial data at the
interval's left endpoint are propagated together.  Rows index solutions and
columns index components: end_matrix[k, j] is component j of solution k at
the right endpoint.  Fixed step keeps results reproducible bit-for-bit for
a given h and makes the semigroup property exactly testable.

A constant interval of an N = 2 system has the closed-form transfer matrix
of _exact_fundamental, with no step error; integrate_fundamental takes every
other interval by RK4.

RK4 propagation runs in real arithmetic.  Complex coefficients are
realified, [[Re, -Im], [Im, Re]], before the step matrices are formed, and
the products are read back as complex once, at the end: numpy's stacked
product of realified 2N x 2N float64 matrices is several times faster than
that of N x N complex128 ones.  Dense samples come from prefix products in
blocks of about sqrt(n) steps rather than from n sequential products.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .linalg import realify, transpose
from .problem import ProblemDefinition, ReducedSystem, failed_lambdas

#: |det| of an end matrix below this triggers a step-size warning
DET_WARN_TOL = 1e-12

#: safety constant in the local-error step model
_STEP_SAFETY = 10.0


@dataclass(frozen=True)
class FundamentalMatrix:
    """End values (and optional dense samples) of one interval's solutions."""

    interval: int
    end_matrix: np.ndarray  # (K, dim, dim), rows = solutions
    step: float
    sample_ys: np.ndarray | None = None
    samples: np.ndarray | None = None  # (n_samples, K, dim, dim), rows = solutions


def estimate_step(problem: ProblemDefinition, lam_scale: float, target_error: float) -> float:
    """Step size from the problem's coefficient bound and the RK4 local
    error model at spectral scale |lambda| = lam_scale.

    h = (target / (C * M^5 * L))^(1/4) with C = 10, M = bound (1 + r + r^2)
    the declared coefficient bound scaled to r = lam_scale, and L the total
    domain length, clamped to [1e-6 * L, L / 16]; bound 0, whose
    coefficients all vanish, takes L / 16.  A bound that is not finite and
    >= 0, or a target that is not > 0, is a ValueError.
    """
    # written so that NaN fails too
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    bound = problem.coefficients.bound
    if not (math.isfinite(bound) and bound >= 0.0):
        raise ValueError(f"coefficient bound {bound!r} is not finite and >= 0")
    length = problem.partition.total_length
    hi = length / 16.0
    lo = 1e-6 * length
    m = bound * (1.0 + lam_scale + lam_scale * lam_scale)
    if m <= 0.0:
        return hi
    h = (target_error / (_STEP_SAFETY * m**5 * length)) ** 0.25
    return min(hi, max(lo, h))


def _step_count(length: float, step: float) -> int:
    """Steps of at most `step` across an interval of this length, at least
    one; a ValueError where that count is not finite and positive."""
    if step <= 0:
        raise ValueError("step must be positive")
    count = length / step
    if not math.isfinite(count):
        raise ValueError(f"step {step!r} gives no finite step count")
    return max(1, math.ceil(count - 1e-12))


# overflow is caught by the finiteness check below, not warned about; the
# decorator form enters the error state at a fraction of a `with` block's cost
@np.errstate(over="ignore", invalid="ignore")
def integrate_fundamental(
    system: ReducedSystem,
    interval: int,
    step: float,
    keep_samples: bool = False,
) -> FundamentalMatrix:
    """Integrate the identity-initialized solutions across one interval, at
    every lambda of the system's stack in one pass.

    The step actually used is h = length / ceil(length / step) so the grid
    lands exactly on the interval ends.  Coefficients come from
    system.constant_coeffs, or from system.varying at the nodes and
    midpoints where that is None.  Raises IntegrationError if the solution
    overflows, naming every lambda of the stack where it does.

    Complex coefficients are propagated as their realified images and the
    end matrix (and samples) converted back before the checks below, so a
    complex system still gives complex results; real ones, as
    reduction.reduce_real_split forms, are propagated as they are.

    Where the interval's coefficients are constant every step matrix is the
    same: it is formed once and raised to the n-th power along the pairwise
    tree of the general path, with bit-identical results in O(log n)
    products.  With keep_samples the transfer matrix at every node comes
    from blocked prefix products (_sampled_prefixes), whose constant case is
    likewise bit-identical to the general one.

    Every result carries the stack's leading lambda axis, each lambda
    bit-identical to its stack of one; the finiteness check and the
    near-singular warning stay per lambda.  The warning's determinant of a
    2 x 2 end matrix is ad - bc.

    A system with derivatives (ReducedSystem.derivatives) has the end
    matrix [[G, G'], [0, G]] in rows form, G' = dPhi/dlam^T the derivative
    of the RK4 map itself; the warning looks at G, its leading block.
    """
    lo, hi = system.partition.interval(interval)
    length = hi - lo
    n_steps = _step_count(length, step)
    h = length / n_steps

    const = system.constant_coeffs[interval]
    # the node grid is read only for y-dependent coefficients and samples
    nodes = lo + h * np.arange(n_steps + 1) if const is None or keep_samples else None

    if const is None:
        a_nodes = _real_form(system.varying(interval, nodes))
        a_mids = _real_form(system.varying(interval, nodes[:-1] + 0.5 * h))
        steps = _rk4_steps(a_nodes[:-1], a_mids, a_nodes[1:], h)
    else:
        # a length-1 stack, so S is computed exactly as steps[j] above
        a = _real_form(const)[np.newaxis]
        steps = _rk4_steps(a, a, a, h)

    dim = system.dim * (1 if system.derivatives is None else 2)
    samples = None
    if keep_samples:
        samples = _solution_rows(_sampled_prefixes(steps, n_steps), dim)
        end = samples[-1]
    elif const is None:
        end = _solution_rows(_chain_product(steps), dim)
    else:
        end = _solution_rows(_constant_power(steps[0], n_steps), dim)

    _check_end(system, interval, end, "consider a smaller step")
    return FundamentalMatrix(
        interval=interval,
        end_matrix=end,
        step=h,
        sample_ys=nodes if keep_samples else None,
        samples=samples,
    )


# as integrate_fundamental: overflow shows in the finiteness check; the
# closed form's 0 / 0 at s = 0 falls in the entries that the series
# overwrites
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _exact_fundamental(
    system: ReducedSystem,
    interval: int,
    step: float,
    keep_samples: bool = False,
) -> FundamentalMatrix:
    """integrate_fundamental of a constant interval of an N = 2 system, in
    closed form (_exact_transfer), with its checks and its result layout.

    There is no step error: the step sets only the sample spacing, and the
    samples sit at the RK4 nodes lo + k h, h = length / ceil(length / step),
    with the last one at the interval's end.  Without samples no step count
    is formed, so that any positive step gives the same end matrix, and the
    one closed-form step is reported as h = length.  On such an interval
    |det| of the end matrix is exp(length Re tr A), so the near-singular
    warning gives no step advice.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = system.partition.interval(interval)
    length = hi - lo
    n_steps = _step_count(length, step) if keep_samples else 1
    t = np.linspace(0.0, length, n_steps + 1)[:, np.newaxis] if keep_samples else length
    rows = transpose(_exact_transfer(system.constant_coeffs[interval], t))
    end = rows[-1] if keep_samples else rows
    _check_end(system, interval, end, "the interval's solutions decay below the float range")
    h = length / n_steps
    return FundamentalMatrix(
        interval=interval,
        end_matrix=end,
        step=h,
        sample_ys=lo + h * np.arange(n_steps + 1) if keep_samples else None,
        samples=rows if keep_samples else None,
    )


#: Taylor coefficients of sinh(r)/r = sum c_k q^k, c_k = 1 / (2k + 1)!, and
#: of twice its q-derivative, sum 2 (k + 1) c_(k+1) q^k, in q = r^2: row k
#: holds the two coefficients of q^k, k = 0..8.  Where |q| < 1 the first
#: omitted terms lie below 1e-16 of the sums.  Complex, so that no step casts
_SINHC_TERMS = np.array(
    [[[1 / math.factorial(2 * k + 1)], [2 * (k + 1) / math.factorial(2 * k + 3)]] for k in range(9)],
    dtype=complex,
)


def _sinhc_series(q: np.ndarray) -> np.ndarray:
    """(sinh(r)/r, twice its q-derivative) at each q = r^2 of a 1-D array,
    stacked on a new leading axis, by Estrin's scheme: the pairs c_k + c_(k+1)
    q of even k, pairs of those with q^2, and the two halves with q^4.  Its
    ten numpy calls are fewer than the sixteen of Horner's rule, whose
    per-call overhead sets the cost on the few entries of a Newton round."""
    c = _SINHC_TERMS
    pairs = c[0:8:2] + c[1:8:2] * q
    q2 = q * q
    quads = pairs[0::2] + pairs[1::2] * q2
    q4 = q2 * q2
    return quads[0] + (quads[1] + c[8] * q4) * q4


def _exact_transfer(blocks: np.ndarray, t) -> np.ndarray:
    """The transfer matrices exp(t M) of the column dynamics z' = M z, for
    each block M of a (K, 2, 2) stack, or of a (K, 4, 4) stack of
    variational blocks [[A, 0], [A_lam, A]]: (K, d, d) for one length t,
    (S, K, d, d) for lengths t of shape (S, 1).

    A 2 x 2 block A = mu I + B, mu = tr A / 2, has B^2 = s^2 I with s^2 =
    b00^2 + b01 b10, and E = exp(t A) = alpha I + beta B, alpha = e^{t mu}
    cosh(ts), beta = e^{t mu} sinh(ts) / s.  Both come from the
    exponentials e+- = e^{t (mu +- s)}, alpha = (e+ + e-) / 2 and beta =
    (e+ - e-) / (2 s), so that no factor e^{t mu} meets an overflowing
    cosh(ts); E is even in s, so the branch of the root does not matter.
    Two kinds of entry are then formed again:
    - where |t^2 s^2| < 1, beta takes sinh(ts)/(ts) from its series
      (_sinhc_series): (e+ - e-) / (2 s) loses digits there, and is 0 / 0
      at s = 0;
    - elsewhere, where |Re(b00 / s)| > 1/2, the diagonal entries are those
      of e+ P+ + e- P-, P+- = (I +- B/s) / 2, with the one of s +- b00 that
      cancels formed as b01 b10 / (s -+ b00): alpha +- beta b00 would lose
      an entry far below the largest, such as e^{-40} of A = [[-40, 1],
      [0, 0]].
    A real A gives a real E, e+ and e- being conjugate where s^2 < 0: the
    determinant of an undamped model stays real on the imaginary lambda
    axis.

    A variational block gets [[E, 0], [E', E]], E' the lambda-derivative of
    the same formula through mu' = tr A_lam / 2 and (s^2)': alpha' = t mu'
    alpha + t beta (s^2)' / 2, beta' = t mu' beta + gamma (s^2)' / 2 with
    gamma = (t alpha - beta) / s^2 (t^3 e^{t mu} times the series where
    |t^2 s^2| < 1), and E' = alpha' I + beta' B + beta B'.  Every operation
    is elementwise, so each lambda gets the bytes it gets in a stack of one.
    """
    a00, a01, a10, a11 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    mu = 0.5 * (a00 + a11)
    b00 = a00 - mu
    cross = a01 * a10
    ss = b00 * b00 + cross
    s = np.sqrt(ss)
    grow, decay = np.exp(t * (mu + s)), np.exp(t * (mu - s))
    alpha = 0.5 * (grow + decay)
    beta = (grow - decay) / (2 * s)
    q = (t * t) * ss
    dim = blocks.shape[-1]
    if dim == 4:
        gamma = (t * alpha - beta) / ss
    small = np.abs(q) < 1.0
    if np.count_nonzero(small):
        t_scale = t * np.exp(t * mu)
        sinhc, slope2 = _sinhc_series(q[small])
        beta[small] = t_scale[small] * sinhc
        if dim == 4:
            gamma[small] = ((t * t) * t_scale)[small] * slope2
    beta_b00 = beta * b00
    out = np.zeros(q.shape + (dim, dim), dtype=complex)
    e00, e11 = out[..., 0, 0], out[..., 1, 1]
    np.add(alpha, beta_b00, out=e00)
    np.subtract(alpha, beta_b00, out=e11)
    np.multiply(beta, a01, out=out[..., 0, 1])
    np.multiply(beta, a10, out=out[..., 1, 0])
    if np.count_nonzero(b00):
        ratio = b00 / s
        skew = (np.abs(ratio.real) > 0.5) & ~small
        plus, minus = s + b00, s - b00
        keep = ratio.real > 0
        plus, minus = np.where(keep, plus, cross / minus), np.where(keep, cross / plus, minus)
        e00[skew] = ((grow * plus + decay * minus) / (2 * s))[skew]
        e11[skew] = ((grow * minus + decay * plus) / (2 * s))[skew]
    if dim == 2:
        return out
    d00, d01, d10, d11 = blocks[:, 2, 0], blocks[:, 2, 1], blocks[:, 3, 0], blocks[:, 3, 1]
    t_dmu = (0.5 * t) * (d00 + d11)
    db00 = 0.5 * (d00 - d11)
    half_dss = b00 * db00 + 0.5 * (d01 * a10 + a01 * d10)  # (s^2)' / 2
    dalpha = t_dmu * alpha + (t * beta) * half_dss
    dbeta = t_dmu * beta + gamma * half_dss
    dbeta_b00 = dbeta * b00 + beta * db00
    np.add(dalpha, dbeta_b00, out=out[..., 2, 0])
    np.subtract(dalpha, dbeta_b00, out=out[..., 3, 1])
    np.add(dbeta * a01, beta * d01, out=out[..., 2, 1])
    np.add(dbeta * a10, beta * d10, out=out[..., 3, 0])
    out[..., 2:, 2:] = out[..., :2, :2]
    return out


def _check_finite(system: ReducedSystem, interval: int, values: np.ndarray) -> None:
    """Raise IntegrationError naming every lambda of a stack whose matrix of
    values, propagated across the interval, is not finite."""
    if not np.isfinite(values).all():
        lams = [z for _, z in failed_lambdas(system.lam, ~np.isfinite(values).all(axis=(-2, -1)))]
        raise IntegrationError(interval, lams[0], lams=lams)


def _check_end(system: ReducedSystem, interval: int, end: np.ndarray, advice: str) -> None:
    """_check_finite on an end matrix, then warn, with advice, per lambda
    whose leading block (G of a variational end matrix) has |det| below
    DET_WARN_TOL.  The determinant of a 2 x 2 block is ad - bc."""
    _check_finite(system, interval, end)
    lead = end[..., : system.dim, : system.dim]
    if system.dim == 2:
        dets = lead[..., 0, 0] * lead[..., 1, 1] - lead[..., 0, 1] * lead[..., 1, 0]
    else:
        dets = np.linalg.det(lead)
    dets = np.abs(dets).reshape(-1)
    for det in dets[dets < DET_WARN_TOL].tolist():
        warnings.warn(
            f"fundamental matrix nearly singular on interval {interval} (|det|={det:.3e}); {advice}",
            RuntimeWarning,
            stacklevel=4,  # past this helper and the error-state decorator, at the caller
        )


def _rk4_steps(a_left, a_mid, a_right, h: float) -> np.ndarray:
    """One-step propagators S_j for the column dynamics z' = a(y) z.

    The arguments are stacks of the coefficient at each step's left end,
    midpoint and right end.
    """
    eye = _identity(a_left.shape[-1], a_left.dtype)
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


def _sampled_prefixes(steps: np.ndarray, n: int) -> np.ndarray:
    """The n + 1 transfer matrices steps[j - 1] @ ... @ steps[0], j = 0..n.

    The steps are cut into blocks of b = isqrt(n).  The prefixes inside
    every block take one stacked product per position in the block, the
    carries (the product of all blocks before one) follow in order, and one
    stacked product applies each carry to its block: about 2 sqrt(n) numpy
    calls instead of n.  A length-1 steps stack stands for n copies of its
    matrix: every block then has the same prefixes, formed once by the same
    products, so the result is bit-identical to passing the n copies.
    """
    shape = steps.shape[1:]
    b = math.isqrt(n)
    full, tail = divmod(n, b)
    constant = len(steps) == 1
    # in place: prefix[i*b + k] = S[i*b + k] @ ... @ S[i*b], one block if constant
    prefix = np.repeat(steps, b, axis=0) if constant else steps
    for k in range(1, b):
        this = prefix[k::b]
        np.matmul(this, prefix[k - 1 :: b][: len(this)], out=this)

    # carries[i] is the product of blocks 0..i, so it multiplies block i + 1
    carries = np.empty((full - 1 + (tail > 0),) + shape, dtype=prefix.dtype)
    for i in range(len(carries)):
        block_end = prefix[b - 1 if constant else (i + 1) * b - 1]
        if i:
            np.matmul(block_end, carries[i - 1], out=carries[i])
        else:
            carries[0] = block_end

    out = np.empty((n + 1,) + shape, dtype=prefix.dtype)
    out[0] = _identity(shape[-1], prefix.dtype)
    body = out[1:]
    body[:b] = prefix[:b]
    if full > 1:
        blocks = (full - 1, b) + shape
        later = prefix[np.newaxis] if constant else prefix[b : full * b].reshape(blocks)
        np.matmul(later, carries[: full - 1, np.newaxis], out=body[b : full * b].reshape(blocks))
    if tail:
        last = prefix[:tail] if constant else prefix[full * b :]
        np.matmul(last, carries[-1], out=body[full * b :])
    return out


@functools.cache
def _identity(dim: int, dtype) -> np.ndarray:
    """The dim x dim identity, built once per size and dtype; read-only."""
    eye = np.eye(dim, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _real_form(coeffs: np.ndarray) -> np.ndarray:
    """Complex coefficients as their realified images; real ones unchanged."""
    return realify(coeffs) if np.iscomplexobj(coeffs) else coeffs


def _solution_rows(transfer: np.ndarray, dim: int) -> np.ndarray:
    """Rows-as-solutions form of a transfer matrix, or of a stack of them.

    That is its transpose; a realified transfer R = realify(T) of a
    dim-dimensional complex system is first read back as
    T = R[:dim, :dim] + i R[dim:, :dim].
    """
    if transfer.shape[-1] == dim:
        return transpose(transfer)
    rows = np.empty(transfer.shape[:-2] + (dim, dim), dtype=complex)
    rows.real = transpose(transfer[..., :dim, :dim])
    rows.imag = transpose(transfer[..., dim:, :dim])
    return rows
