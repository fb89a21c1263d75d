"""Characteristic determinant assembly, root finding and mode shapes.

The pipeline for one lambda: reduce the problem, build the left-boundary
null basis, integrate the normal fundamental matrix of each interval,
carry the coefficient table across each interface by a linear solve, and
close with the right boundary rows.  Eigenvalues are the zeros of the
resulting m x m determinant.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundaryDegeneracyError, NotARootError, PropagationError, SolverError
from .integrate import FundamentalMatrix, estimate_step, integrate_fundamental
from .linalg import adjugate_form, row_adjugate_form, rref_null_basis, transpose
from .problem import (
    BoundaryOperator,
    ConjugationOperator,
    ProblemDefinition,
    ReducedSystem,
    TOL_SINGULAR,
    each_lambda,
)
from .reduction import bind_matrix, reduce_complex
from .reduction import reduce_real_split  # noqa: F401  (perfbench/tracing.py wraps it by name)

#: largest exponent fed to exp() when undoing the log-scale normalization;
#: the m = 1 closed form clamps its modulus at _EXP_MAX = e^_EXP_CLAMP
_EXP_CLAMP = 700.0
_EXP_MAX = math.exp(_EXP_CLAMP)

#: matrix entries one coefficient array of a stacked y-dependent integration,
#: or one sampled array of a stacked mode-shape propagation, may hold: 4 MB as
#: complex128, and 8 MB while the propagation holds it realified as float64;
#: longer lambda stacks are evaluated in chunks
_STACK_ENTRIES = 1 << 18

#: the bytes of one complex128 memo key: two doubles in native order, as in
#: a numpy array
_KEY = struct.Struct("=dd")

#: a scan flags a local minimum of |D| below this share of the grid median
_MINIMUM_RATIO = 0.05

#: mode_shapes raises NotARootError where the normalized |D| of the closure
#: matrix is above this, and asks its null vector for this relative residual
_RANK_TOL = 1e-6


@dataclass(frozen=True)
class Bracket:
    """A candidate root location from a real-frequency scan."""

    p_lo: float
    p_hi: float
    kind: str  # "sign_change" or "minimum"
    p_seed: float


@dataclass(frozen=True)
class ModeShape:
    """Sampled eigenfunction, normalized to unit max-abs.

    Interface breakpoints appear twice in ys (left and right traces differ
    in the non-continuous components).  values has one row per sample and
    one column per state component, complex; on the real-split path the
    real columns [Re, Im] of the same shape (mode_shapes).
    """

    lam: complex
    ys: np.ndarray
    values: np.ndarray
    normalization: complex
    interval_slices: tuple[slice, ...]


@dataclass(frozen=True)
class SpectralResult:
    """One refined eigenvalue candidate."""

    lam: complex
    residual: float
    iterations: int
    converged: bool
    message: str = ""
    mode: ModeShape | None = None


@dataclass
class SolveOptions:
    """Configuration for a spectrum solve."""

    scan: tuple[float, float, int] | None = None
    rect: tuple[float, float, float, float, int, int] | None = None
    step: float | None = None
    target_error: float = 1e-10
    tol: float = 1e-10
    max_iter: int = 100
    path: str = "complex"


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def initial_coefficients(left_boundary: BoundaryOperator, lam: complex) -> np.ndarray:
    """Null-space basis (N x m) of the left boundary matrix at lambda.

    For the canonical selection form (row r picks component r) this is
    exactly the complementary 0/1 pattern.  Raises BoundaryDegeneracyError
    if the matrix is rank deficient at lambda.
    """
    matrix = np.asarray(left_boundary(lam), dtype=complex)
    return _null_basis_checked(matrix, lam)[1]


def _null_basis_checked(matrix: np.ndarray, lam):
    """rref_null_basis of a boundary matrix, or of each matrix of a stack;
    raises BoundaryDegeneracyError for the first lambda whose rows lose rank."""
    rows = matrix.shape[-2]
    reduced = rref_null_basis(matrix)
    for z, r in zip(each_lambda(lam), np.atleast_1d(reduced[0]).tolist()):
        if r != rows:
            raise BoundaryDegeneracyError(z, r, rows)
    return reduced


def _initial_table(matrix: np.ndarray, lam, constant=None) -> np.ndarray:
    """The left null basis in adjugate form (linalg.adjugate_form), per
    lambda of a stack, reduced in one call; raises BoundaryDegeneracyError
    for the first lambda whose rows lose rank.

    `constant` is the (rank, table) pair of rows that do not depend on
    lambda, formed once per problem (BoundaryOperator.constant_table); a
    stack then shares that one table, as it shares the rows.  One row
    [a0, a1] of N = 2 (m = 1) takes its adjugate form [-a1; a0] directly
    (linalg.row_adjugate_form), with no row reduction.
    """
    if constant is not None:
        rank, basis = constant
        rows = matrix.shape[-2]
        if rank != rows:
            raise BoundaryDegeneracyError(each_lambda(lam)[0], rank, rows)
        return basis
    if matrix.shape[-2:] != (1, 2):
        return adjugate_form(matrix, _null_basis_checked(matrix, lam))
    lost = (matrix[..., 0, 0] == 0) & (matrix[..., 0, 1] == 0)
    if lost.any():
        raise BoundaryDegeneracyError(each_lambda(lam)[int(np.argmax(lost))], 0, 1)
    return row_adjugate_form(matrix)


def propagate(
    u: np.ndarray,
    fundamental: FundamentalMatrix | np.ndarray,
    conj: ConjugationOperator,
    lam: complex,
) -> np.ndarray:
    """Carry the coefficient table across one interface.

    Computes the end values W = G^T U of the propagated solutions, then
    solves B(lam) U_next = D(lam) W columnwise.  Equivalent to the
    determinant-ratio recurrence but via LU factorization.
    """
    g = fundamental.end_matrix if isinstance(fundamental, FundamentalMatrix) else fundamental
    dmat = bind_matrix(conj.d_matrix, lam)
    bmat = bind_matrix(conj.b_matrix, lam)
    return _interface_solve(transpose(g) @ u, dmat, bmat, conj.interface, lam)


def _interface_solve(w, dmat, bmat, interface: int, lam) -> np.ndarray:
    n = bmat.shape[-1]
    # a lambda-free B is one matrix shared by a stack (bind_matrix), so it
    # is checked once, at the first lambda
    scales = np.max(np.abs(bmat), axis=(-2, -1)).reshape(-1).tolist()
    dets = np.linalg.det(bmat).reshape(-1).tolist()
    for scale, det, z in zip(scales, dets, each_lambda(lam)):
        if scale == 0.0 or abs(det) <= TOL_SINGULAR * scale**n:
            raise PropagationError(interface, z, "det below singularity tolerance")
    try:
        return np.linalg.solve(bmat, dmat @ w)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(interface, lam, str(exc)) from None


# ---------------------------------------------------------------------------
# determinant assembly
# ---------------------------------------------------------------------------


def _assemble(reduced: ReducedSystem, step: float, keep_samples: bool):
    """Run the full propagation at a bound lambda, or at a stack of them.

    Returns (u_tables, fundamentals, end_values, closure) where end_values
    W = G^T U are the last interval's propagated end values and closure is
    the m x m matrix whose determinant vanishes at eigenvalues.  A stacked
    system gives every array a leading lambda axis; only without
    keep_samples, which mode shapes ask for, is a lambda-free left table
    the one table the stack shares.

    With derivatives (ReducedSystem.derivatives) each table is the stack
    [U; U'], which the variational end matrix carries to [W; W'] and the
    right rows' block to the closure [C; C'] (2m x m); through an interface
    U'_next = B^-1 (D' W + D W' - B' U_next).  end_values is W alone.
    """
    u = _initial_table(reduced.left_matrix, reduced.lam, reduced.left_table)
    if keep_samples:
        u = np.broadcast_to(u, np.shape(reduced.lam) + u.shape[-2:])
    slopes = reduced.derivatives
    if slopes is not None:
        u = np.concatenate([u, slopes[0]], axis=-2)
    u_tables = [u]
    fundamentals: list[FundamentalMatrix] = []
    n, dim = reduced.partition.n_intervals, reduced.dim
    w = None
    for i in range(n):
        fm = integrate_fundamental(reduced, i, step, keep_samples=keep_samples)
        fundamentals.append(fm)
        w = transpose(fm.end_matrix) @ u
        if i < n - 1:
            dmat, bmat = reduced.interfaces[i]
            u = _interface_solve(w[..., :dim, :], dmat, bmat, i + 1, reduced.lam)
            if slopes is not None:
                d_dmat, d_bmat = slopes[2][i]
                rhs = d_dmat @ w[..., :dim, :] + dmat @ w[..., dim:, :] - d_bmat @ u
                u = np.concatenate([u, np.linalg.solve(bmat, rhs)], axis=-2)
            u_tables.append(u)
    closure = (reduced.right_matrix if slopes is None else slopes[1]) @ w
    return u_tables, fundamentals, w[..., :dim, :], closure


# a ratio beyond the float range is clamped below, as the general route
# clamps its exponent, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _normalized_det(closure: np.ndarray, end_values: np.ndarray):
    """det(closure) divided by the product of the m largest row maxima of W.

    The raw determinant grows or decays exponentially with frequency and
    domain length through the fundamental solutions; dividing by the
    dominant row scales of the propagated end values keeps it O(1) without
    moving its zeros.  A complex for one closure matrix, an array for a
    stack of them.  For m = 1 it is c / max|W| of the one closure entry c,
    zero where c or W vanishes and clamped at the modulus e^_EXP_CLAMP:
    the rules of the general route (_log_normalized_det), which it matches
    to rounding.
    """
    if closure.shape[-1] != 1:
        return _log_normalized_det(closure, end_values)
    # one lambda as a length-1 stack, so it takes the arithmetic of a stack;
    # c = 0 gives 0 by the division itself
    c = closure.reshape(-1)
    top = np.abs(end_values).reshape(len(c), -1).max(axis=1)
    if top.all():
        value = c / top
    else:
        value = c / np.where(top == 0.0, 1.0, top)
        value[top == 0.0] = 0j
    clamped = np.abs(value) > _EXP_MAX
    if clamped.any():
        value[clamped] = c[clamped] / np.abs(c[clamped]) * _EXP_MAX
    return complex(value[0]) if closure.ndim == 2 else value


def _log_normalized_det(closure: np.ndarray, end_values: np.ndarray):
    """_normalized_det of any m, by slogdet: sign * exp(log|det| - sum of
    the log row scales), the exponent clamped at _EXP_CLAMP."""
    m = closure.shape[-1]
    top = np.sort(np.abs(end_values).max(axis=-1), axis=-1)[..., -m:]
    sign, logdet = np.linalg.slogdet(closure)
    # top ascends, so a zero row scale shows in its first entry; log(1)
    # stands in for the row scales of a vanishing value
    vanishes = (top[..., 0] == 0.0) | (sign == 0)
    exponent = logdet - np.log(np.where(vanishes[..., np.newaxis], 1.0, top)).sum(axis=-1)
    value = np.where(vanishes, 0j, sign * np.exp(np.minimum(exponent, _EXP_CLAMP)))
    return complex(value) if value.ndim == 0 else value


def characteristic_determinant(
    problem: ProblemDefinition,
    lam: complex | np.ndarray,
    step: float,
) -> complex | np.ndarray:
    """Scale-stabilized characteristic determinant D(lambda) of the complex system.

    For a 1-D array of lambdas the whole stack is evaluated in one pass,
    with the same arithmetic as one lambda at a time and bit-identical
    values, and an array is returned; a stack raises the first error its
    pass meets.
    """
    if not isinstance(lam, np.ndarray) or lam.ndim == 0:
        return _determinant(problem, complex(lam), step)
    lams = lam.astype(complex, copy=False)
    chunk = _stack_chunk(problem, step) or max(len(lams), 1)
    parts = [_determinant(problem, lams[i : i + chunk], step) for i in range(0, len(lams), chunk)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=complex)


def _determinant(problem: ProblemDefinition, lam, step: float):
    reduced = reduce_complex(problem, lam)
    _, _, w, closure = _assemble(reduced, step, keep_samples=False)
    return _normalized_det(closure, w)


@np.errstate(divide="ignore", invalid="ignore")
def _newton_values(problem: ProblemDefinition, lam: np.ndarray, step: float) -> list[tuple]:
    """(D, log|F|, F'/F) at each lambda of a stack, in chunks as a
    y-dependent integration needs (_stack_chunk): F = det C the analytic
    closure determinant, D its normalized form, and F'/F = tr(C^-1 C') by
    Jacobi's formula, NaN where F = 0 (and D = 0)."""
    values = []
    chunk = _stack_chunk(problem, step, variational=True) or max(len(lam), 1)
    for i in range(0, len(lam), chunk):
        reduced = reduce_complex(problem, lam[i : i + chunk], variational=True)
        _, _, w, closure = _assemble(reduced, step, keep_samples=False)
        m = closure.shape[-1]
        c, dc = closure[:, :m], closure[:, m:]
        if m == 1:
            log_f, ratio = np.log(np.abs(c[:, 0, 0])), dc[:, 0, 0] / c[:, 0, 0]
        else:
            sign, log_f = np.linalg.slogdet(c)
            singular = (sign == 0)[:, np.newaxis, np.newaxis]
            ratio = np.trace(np.linalg.solve(np.where(singular, np.eye(m), c), dc), axis1=1, axis2=2)
            ratio[sign == 0] = math.nan
        values += zip(_normalized_det(c, w).tolist(), log_f.tolist(), ratio.tolist())
    return values


def _stack_chunk(
    problem: ProblemDefinition, step: float, *, variational: bool = False, keep_samples: bool = False
) -> int | None:
    """Largest stack whose y-dependent integration, or with keep_samples
    whose sampled fundamental matrices, stay within _STACK_ENTRIES per
    array; None when neither is stored.  The variational system has twice
    the problem's dimension."""
    if not (keep_samples or problem.coefficients.varies_in_y):
        return None
    dim = problem.dim * (2 if variational else 1)
    part = problem.partition
    nodes = part.total_length / step + 2 * part.n_intervals
    return max(1, int(_STACK_ENTRIES // (nodes * dim * dim)))


# ---------------------------------------------------------------------------
# root location
# ---------------------------------------------------------------------------


def scan_real_axis(
    problem: ProblemDefinition,
    p_min: float,
    p_max: float,
    n_grid: int,
    step: float,
) -> list[Bracket]:
    """Locate root candidates of D(i p) on a uniform frequency grid.

    Returns sign-change intervals of Re D, plus local minima of |D| below
    _MINIMUM_RATIO times the grid median as candidate roots.  Grids
    too coarse to separate neighboring roots merge their brackets.  Both
    paths search from these brackets.
    """
    return _scan(problem, p_min, p_max, n_grid, step)[0]


def _scan(problem, p_min, p_max, n_grid, step):
    """scan_real_axis's brackets, the Newton start of each (_start) from the
    grid's D, and the grid's values (_determinants): D, or the error its
    lambda raised, where D reads NaN and starts no bracket."""
    if not (p_min < p_max):
        raise ValueError("need p_min < p_max")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    ps = np.linspace(p_min, p_max, n_grid)
    values, dvals = _determinants(problem, 1j * ps, step)
    f = dvals.real
    mag = np.abs(dvals)

    # sign changes of Re D, then the interior minima of |D| below the
    # threshold that no sign-change bracket touches
    cross = np.flatnonzero(f[:-1] * f[1:] < 0.0)
    flagged = np.zeros(n_grid, dtype=bool)
    flagged[cross] = flagged[cross + 1] = True
    inner = mag[1:-1]
    low = (
        ~(flagged[:-2] | flagged[1:-1] | flagged[2:])
        & (inner < _MINIMUM_RATIO * _median(mag))
        & (inner <= mag[:-2])
        & (inner <= mag[2:])
    )
    dips = np.flatnonzero(low) + 1

    brackets = [
        Bracket(ps[i], ps[i + 1], "sign_change", 0.5 * (ps[i] + ps[i + 1])) for i in cross
    ]
    brackets += [Bracket(ps[i - 1], ps[i + 1], "minimum", ps[i]) for i in dips]
    brackets.sort(key=lambda b: b.p_seed)
    grid = dict(zip(ps.tolist(), dvals.tolist()))  # D at each p; equal p, equal D
    return brackets, [_start(b, grid[b.p_lo], grid[b.p_hi]) for b in brackets], values


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D float array, bit for bit, from one sort: the middle
    value, or (a + b) / 2 of the middle two, and NaN when any value is NaN.
    np.median itself imports numpy.ma on its first call."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):  # the sort puts NaN last
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def refine_root(
    problem: ProblemDefinition,
    target: Bracket | complex,
    tol: float = 1e-10,
    max_iter: int = 100,
    step: float = 1e-3,
) -> SpectralResult:
    """Polish one root candidate: the one-target case of the lockstep refinement.

    Every candidate is polished by one damped Newton loop (_newton) on the
    analytic closure determinant F, each point bringing its exact F'/F
    (_newton_values).  A sign-change bracket evaluates D at its two ends,
    in one call, and starts Newton from them (_start); any other bracket
    starts at its seed.  Every value is computed with this call's step;
    solve_spectrum refines all its candidates at once (_refine_all) with
    the same results.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not isinstance(target, Bracket):
        start = complex(target), False
    elif target.kind == "sign_change":
        ends = np.array([1j * target.p_lo, 1j * target.p_hi])
        start = _start(target, *_determinants(problem, ends, step)[1].tolist())
    else:
        start = _start(target, None, None)
    return _refine_all(problem, [start], tol, max_iter, step, {})[0]


def _determinants(problem: ProblemDefinition, lams: np.ndarray, step: float):
    """D at each lambda of a stack (_each): the list of values, with the
    error of each lambda that failed in its place, and their array, with
    NaN there."""
    values = _each(lambda z: characteristic_determinant(problem, z, step).tolist(), lams)
    d = [math.nan if isinstance(value, SolverError) else value for value in values]
    return values, np.array(d, dtype=complex)


def _key(lam) -> bytes:
    """The memo key of one lambda: its bytes as numpy stores them (signed
    zeros apart, a NaN finds itself), packed without a trip through numpy."""
    z = complex(lam)
    return _KEY.pack(z.real, z.imag)


def _each(evaluate, lams: np.ndarray) -> list:
    """evaluate(lams) as a list of one value per lambda.  A SolverError that
    names lambdas of the call (SolverError.per_lambda) gives each its own
    error as its value, and the rest goes in one call again.  An error that
    names none, or a whole stack, is raised."""
    failed: dict[int, SolverError] = {}
    while True:
        rest = np.delete(lams, list(failed)) if failed else lams
        try:
            values = evaluate(rest) if len(rest) else []
            break
        except SolverError as exc:
            named = {k: error for z, error in exc.per_lambda() if np.ndim(z) == 0
                     for k in np.flatnonzero(lams == z).tolist() if k not in failed}
            if not named:
                raise
            failed.update(named)
    if not failed:
        return values
    values = iter(values)
    return [failed[k] if k in failed else next(values) for k in range(len(lams))]


def _refine_all(
    problem: ProblemDefinition,
    starts: list[tuple[complex, bool]],
    tol: float,
    max_iter: int,
    step: float,
    memo: dict[bytes, tuple | SolverError],
) -> list[SpectralResult]:
    """Newton (_newton) from every start (seed, axis) in lockstep: one result
    per start, in order, each refine_root's bit for bit.  memo maps each
    lambda evaluated (_key) to its (D, log|F|, F'/F), or to the error it
    raised, which answers (NaN, NaN, NaN) so that Newton halves its step
    past it.  Each round answers what it can from memo and evaluates the
    rest, one lambda per live candidate, in one call (_each): a solve costs
    as many calls as its longest candidate chain."""
    results: list[SpectralResult | None] = [None] * len(starts)
    chains = [_newton(seed, tol, max_iter, axis) for seed, axis in starts]

    def answer(lam):
        value = memo[_key(lam)]
        return (math.nan,) * 3 if isinstance(value, SolverError) else value

    replies = dict.fromkeys(range(len(chains)))  # None starts a chain
    while replies:
        asks = {}
        for k, reply in replies.items():
            try:
                lam = chains[k].send(reply)
                while _key(lam) in memo:
                    lam = chains[k].send(answer(lam))
                asks[k] = lam
            except StopIteration as stop:
                results[k] = stop.value
        lams = {_key(lam): lam for lam in asks.values()}
        outcomes = _each(lambda z: _newton_values(problem, z, step), np.array(list(lams.values())))
        memo.update(zip(lams, outcomes))
        replies = {k: answer(lam) for k, lam in asks.items()}
    return results


def _start(bracket: Bracket, d_lo, d_hi) -> tuple[complex, bool]:
    """Newton's (seed, axis) for a bracket with D = d_lo, d_hi at its ends.

    A sign change of Re D between finite ends starts at the false-position
    point, on the axis where D is real at both ends: Re D changes sign while
    Im D is 0 there, so the zero lies on the axis.  Where D is complex on
    the axis (a damped model) the root near the crossing lies off it.  Any
    other bracket starts at its seed."""
    if (bracket.kind != "sign_change" or not (cmath.isfinite(d_lo) and cmath.isfinite(d_hi))
            or d_lo.real * d_hi.real > 0):
        return 1j * bracket.p_seed, False
    seed = 1j * _false_position(bracket.p_lo, bracket.p_hi, d_lo.real, d_hi.real)
    return seed, d_lo.imag == 0.0 and d_hi.imag == 0.0


def _false_position(lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The false-position point of a bracket, or its midpoint whenever that
    point is not inside (lo, hi)."""
    mid = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else lo
    return mid if lo < mid < hi else 0.5 * (lo + hi)


def _newton(lam: complex, tol, max_iter, axis: bool = False):
    """Damped Newton on the analytic closure determinant F from the seed lam.

    The step -F/F' is cut to ten times max(|lambda|, 1), since F vanishes at
    model poles (1 + beta lambda on pipeline), and halved while it does not
    lower log|F|, the function it linearizes (|D| divides F by a row scale
    that moves along the step).  With axis lambda keeps Re = 0.0 and takes
    the step's part along p, the Gauss-Newton step there.  It converges
    where |D| falls to tol times its seed value or the step below tol; else
    it exits "derivative vanished", "derivative not finite", "determinant
    not finite" (at the seed, or on every halving), "stagnated" (25
    halvings) or "max_iter exceeded; suspected multiple root", at the point
    of least |D| it reached.  A generator: it yields each lambda it needs
    (D, log|F|, F'/F) at, is sent them, and returns its SpectralResult.
    """
    d, log_f, ratio = yield lam
    if not cmath.isfinite(d):
        return SpectralResult(lam, math.inf, 0, False, "determinant not finite at the seed")
    d0 = max(abs(d), np.finfo(float).tiny)
    best_lam, best_res = lam, abs(d)
    iters = 0
    converged = False
    message = ""
    for _ in range(max_iter):
        if abs(d) <= tol * d0:
            converged = True
            break
        iters += 1
        if ratio == 0:
            message = "derivative vanished"
            break
        s = -1 / ratio if cmath.isfinite(ratio) else math.nan
        if not cmath.isfinite(s):
            message = "derivative not finite"
            break
        if axis:
            s = 1j * s.imag
        reach = 10.0 * max(abs(lam), 1.0)
        if abs(s) > reach:
            s *= reach / abs(s)
        for _ in range(25):
            cand = lam + s
            d_cand, log_f_cand, ratio_cand = yield cand
            if cmath.isfinite(d_cand) and (log_f_cand <= log_f or abs(s) < tol):
                break
            s *= 0.5
        else:
            message = "stagnated" if cmath.isfinite(d_cand) else "determinant not finite"
            break
        lam, d, log_f, ratio = cand, d_cand, log_f_cand, ratio_cand
        if abs(d) < best_res:
            best_lam, best_res = lam, abs(d)
        if abs(s) < tol:
            converged = True
            break
    else:
        message = "max_iter exceeded; suspected multiple root"

    if best_res <= tol * d0:
        converged = True
    return SpectralResult(best_lam, best_res, iters, converged, message)


# ---------------------------------------------------------------------------
# mode shapes
# ---------------------------------------------------------------------------


def mode_shape(
    problem: ProblemDefinition,
    lam: complex,
    step: float,
    path: str = "complex",
) -> ModeShape:
    """Reconstruct the eigenfunction at a converged root: the one-lambda
    case of mode_shapes."""
    (shape,) = mode_shapes(problem, [lam], step, path)
    return shape


def mode_shapes(
    problem: ProblemDefinition,
    lams: Iterable[complex],
    step: float,
    path: str = "complex",
) -> Iterator[ModeShape]:
    """Reconstruct the eigenfunctions at converged roots, yielded in order.

    The lambdas are reduced and propagated with sampling as stacks, in
    chunks that keep each sampled array within _STACK_ENTRIES entries, so a
    fine step takes them one at a time; the samples are bit-identical to
    those of one lambda alone.  If a chunk fails, its lambdas are redone one
    at a time, so every shape before the first failing lambda is yielded
    first.  Per lambda, the free-constant vector c is the near-null
    direction of the closure matrix (two inverse-iteration sweeps on M^H M
    from e1); each interval's solution is the corresponding combination of
    its fundamental solutions on the stored integration grid.  Raises
    NotARootError when the closure matrix is numerically full rank.
    real_split (on the imaginary axis only) writes it as [Re phi, Im phi]
    for c conj(c_0), the phase of the realified closure's null vector.
    """
    lams = [complex(z) for z in lams]
    if path not in ("complex", "real_split"):
        raise ValueError(f"unknown path {path!r}")
    split = path == "real_split"
    if split and any(abs(z.real) > 1e-12 * max(1.0, abs(z)) for z in lams):
        raise ValueError("real_split path is defined on the imaginary axis only")
    size = _stack_chunk(problem, step, keep_samples=True)
    chunks = [lams[i : i + size] for i in range(0, len(lams), size)]
    while chunks:
        chunk = chunks.pop(0)
        try:
            reduced = reduce_complex(problem, np.array(chunk))
            u_tables, fundamentals, w, closure = _assemble(reduced, step, keep_samples=True)
        except SolverError:
            if len(chunk) == 1:
                raise
            # one at a time, in order: the first failing lambda raises
            chunks[:0] = [[z] for z in chunk]
            continue
        for k, lam in enumerate(chunk):
            c_free = _null_vector(closure[k], w[k], lam, _RANK_TOL)
            yield _combine(lam, u_tables, fundamentals, k, c_free, split)


def _combine(lam: complex, u_tables, fundamentals, k: int, c_free, split: bool) -> ModeShape:
    """The mode shape of lambda k of a sampled stack, normalized to unit
    max-abs; split gives [Re, Im] of the combination c_free conj(c_free[0])."""
    if split:
        c_free = c_free * c_free[0].conjugate()
    parts = [np.tensordot(fm.samples[:, k], u[k] @ c_free, axes=([1], [0]))
             for u, fm in zip(u_tables, fundamentals)]
    values = np.concatenate(parts, axis=0)
    if split:
        values = np.concatenate([values.real, values.imag], axis=1)
    scale = values.reshape(-1)[int(np.argmax(np.abs(values)))]
    ends = np.cumsum([0] + [len(fm.sample_ys) for fm in fundamentals]).tolist()
    return ModeShape(
        lam=lam,
        ys=np.concatenate([fm.sample_ys for fm in fundamentals]),
        values=values / scale,
        normalization=complex(scale),
        interval_slices=tuple(slice(a, b) for a, b in zip(ends, ends[1:])),
    )


def _null_vector(closure: np.ndarray, end_values: np.ndarray, lam: complex, rank_tol: float) -> np.ndarray:
    svals = np.linalg.svd(closure, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if abs(_normalized_det(closure, end_values)) > rank_tol:
        raise NotARootError(lam, smin)
    m = closure.shape[0]
    if m == 1:
        return np.ones(1, dtype=closure.dtype)
    gram = closure.conj().T @ closure
    v = np.zeros(m, dtype=closure.dtype)
    v[0] = 1.0
    try:
        for _ in range(2):
            v = np.linalg.solve(gram, v)
            v = v / np.linalg.norm(v)
    except np.linalg.LinAlgError:
        v = np.zeros(0)
    if v.size == 0 or np.linalg.norm(closure @ v) > rank_tol * max(smax, 1.0):
        # start vector orthogonal to the null direction, or gram exactly
        # singular: fall back to the smallest right singular vector
        _, _, vh = np.linalg.svd(closure)
        v = vh[-1].conj()
    return v


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------


def solve_spectrum(problem: ProblemDefinition, options: SolveOptions) -> list[SpectralResult]:
    """Scan, refine, deduplicate and sort the spectrum of a problem.

    The scan brackets, started from the scan's own values (_start), and
    then the rect seeds are refined in lockstep (_refine_all), as
    refine_root refines each.  Returns converged roots only, with Im >= 0
    (conjugate pairs reported once), sorted by |Im| then Re.  An empty list
    is a valid answer.  real_split keeps those with |Re| <= tol *
    max(|lambda|, 1), projected onto the axis.  A non-positive tol or an
    unknown path is rejected before the scan.  Only if every value failed
    (_each) is the first failure raised: the scan's in grid order, then
    refinement's in evaluation order.
    """
    if options.tol <= 0:
        raise ValueError("tol must be positive")
    if options.path not in ("complex", "real_split"):
        raise ValueError(f"unknown path {options.path!r}")
    step = resolve_step(problem, options)
    starts: list[tuple[complex, bool]] = []
    values: list = []
    if options.scan is not None:
        p_min, p_max, n_grid = options.scan
        _, starts, values = _scan(problem, p_min, p_max, n_grid, step)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        starts += [
            (complex(re, im), False)
            for re in np.linspace(re0, re1, int(nr))
            for im in np.linspace(im0, im1, int(ni))
        ]
    memo: dict[bytes, tuple | SolverError] = {}
    results = _refine_all(problem, starts, options.tol, options.max_iter, step, memo)
    values += memo.values()
    if values and all(isinstance(value, SolverError) for value in values):
        raise values[0]
    roots = _dedupe([r for r in results if r.converged], options.tol)
    if options.path == "real_split":
        tol = options.tol
        roots = [replace(r, lam=1j * r.lam.imag) for r in roots
                 if abs(r.lam.real) <= tol * max(abs(r.lam), 1.0)]
    return roots


def resolve_step(problem: ProblemDefinition, options: SolveOptions) -> float:
    """The integration step a solve with these options will use.

    An explicit step wins; otherwise one conservative step is derived from
    the target error at the largest |lambda| the search can probe, so every
    determinant evaluation of the run shares the same grid.
    """
    if options.step is not None:
        if options.step <= 0:
            raise ValueError("step must be positive")
        return options.step
    probes = [0.0]
    if options.scan is not None:
        probes.append(abs(options.scan[0]))
        probes.append(abs(options.scan[1]))
    if options.rect is not None:
        re0, re1, im0, im1, _, _ = options.rect
        probes.append(max(abs(re0), abs(re1)) + max(abs(im0), abs(im1)))
    lam_scale = max(probes)
    reduced = reduce_complex(problem, 1j * lam_scale)
    return estimate_step(reduced, options.target_error)


def _dedupe(results: Iterable[SpectralResult], tol: float) -> list[SpectralResult]:
    """The distinct roots, each as the first result in target order that
    found it (conjugates canonicalized to Im >= 0), sorted by |Im| then Re.
    Which duplicate is kept never follows residuals at rounding level."""
    kept: list[SpectralResult] = []
    for r in results:
        lam = r.lam.conjugate() if r.lam.imag < 0 else r.lam
        atol = max(1e3 * tol, 1e-7) + 1e-7 * abs(lam)
        if all(abs(k.lam - lam) > atol for k in kept):
            kept.append(replace(r, lam=lam))
    kept.sort(key=lambda r: (abs(r.lam.imag), r.lam.real))
    return kept
