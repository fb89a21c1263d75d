"""Characteristic determinant assembly, root finding and mode shapes.

The pipeline for a stack of lambdas: reduce the problem, build the
left-boundary null basis, integrate the normal fundamental matrix of each
interval, carry the coefficient table across each interface by a linear
solve, and close with the right boundary rows.  Eigenvalues are the zeros
of the resulting m x m determinant.  One lambda is a stack of length 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundaryDegeneracyError, NotARootError, PropagationError, SolverError
from .integrate import FundamentalMatrix, _check_finite, _exact_fundamental
from .integrate import estimate_step, integrate_fundamental
from .linalg import adjugate_table, row_adjugate_form, transpose
from .problem import ProblemDefinition, ReducedSystem, failed_lambdas, is_singular
from .reduction import reduce_complex
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

#: a scan flags a local minimum of |D| below this share of the median of the
#: grid's finite |D|
_MINIMUM_RATIO = 0.05

#: a sign-change bracket's Newton start is the root of the interpolant of F on
#: this many grid points nearest the bracket (_interpolated_root).  At the
#: default window (0.2, 10, 240) these starts lie within 3e-14 of the
#: undamped built-ins' roots and 2.7e-7 of the damped ones', where the
#: false-position point of Re D lay 5.5e-6 to 5.6e-4 and 8.5e-4 to 0.49
#: away.  A benchmark scan_catalog round refines in 28 Newton rounds with 4
#: points, 26 with 6 and 15 with 8 or 10; over 1,100 random windows of the
#: built-ins, 4 and 6 points lost 45 and 9 of the roots the false-position
#: starts found, 8 and 10 none
_STENCIL = 8

#: Newton steps at most on that interpolant; from the false-position point
#: they reach its root to rounding in about five
_INTERPOLANT_STEPS = 12

#: Newton converges at a point whose correction |s| is at most
#: min(tol, _ROUNDING * max(|lambda|, 1)), without evaluating lambda + s, a
#: step that would move lambda by little more than rounding.  With the
#: interpolated starts a benchmark scan_catalog round (seven default solves
#: and a five-point sweep) then refines in 15 Newton rounds, 26 without this
#: exit and 49 from the false-position starts; roots move by at most 1.2e-11
#: relative over 1,100 random windows of the built-ins
_ROUNDING = 1e-13

#: mode_shapes raises NotARootError where the normalized |D| of the closure
#: matrix is above this, and asks its null vector for this relative residual
_RANK_TOL = 1e-6


@dataclass(frozen=True)
class Bracket:
    """A candidate root location from a real-frequency scan, with the Newton
    start the scan computed for it (_start): Newton begins at start, and
    keeps Re lambda = 0 where axis.  A bracket made without a start begins
    at i p_seed, off the axis."""

    p_lo: float
    p_hi: float
    kind: str  # "sign_change" or "minimum"
    p_seed: float
    start: complex | None = None
    axis: bool = False


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


def _initial_table(matrix: np.ndarray, lam, constant=None) -> np.ndarray:
    """The left null basis in adjugate form (linalg.adjugate_table), per
    lambda of a stack, reduced in one call; raises BoundaryDegeneracyError
    for the first lambda whose rows lose rank.

    `constant` is the (rank, table) pair of rows that do not depend on
    lambda, formed once per problem (BoundaryOperator.constant_table); a
    stack then shares that one table, as it shares the rows.  One row
    [a0, a1] of N = 2 (m = 1) takes its adjugate form [-a1; a0] directly
    (linalg.row_adjugate_form), with no row reduction: it loses rank only
    where both entries vanish.
    """
    if constant is not None:
        ranks, table = constant
    elif matrix.shape[-2:] == (1, 2):
        ranks = (matrix[..., 0, 0] != 0) | (matrix[..., 0, 1] != 0)  # True is rank 1
        table = row_adjugate_form(matrix) if ranks.all() else None
    else:
        ranks, table = adjugate_table(matrix)
    if table is None:
        rows = matrix.shape[-2]
        k, z = failed_lambdas(lam, ranks != rows)[0]
        raise BoundaryDegeneracyError(z, int(np.reshape(ranks, -1)[k]), rows)
    return table


def _interface_solve(w, dmat, bmat, interface: int, lam) -> np.ndarray:
    """U_next solving B U_next = D W, per lambda of a stack; raises
    PropagationError for the first lambda whose B is singular.  A
    lambda-free B is one matrix shared by a stack (bind_matrix), checked
    once, so that it fails at the first lambda."""
    singular = is_singular(bmat)
    if singular.any():
        _, z = failed_lambdas(lam, singular)[0]
        raise PropagationError(interface, z, "det below singularity tolerance")
    try:
        return np.linalg.solve(bmat, dmat @ w)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(interface, lam, str(exc)) from None


# ---------------------------------------------------------------------------
# determinant assembly
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _assemble(reduced: ReducedSystem, step: float, keep_samples: bool):
    """Run the full propagation at the reduced system's stack of lambdas.

    A constant interval of an N = 2 system takes its closed-form
    fundamental matrix (_exact_fundamental), with no step error; a y-varying
    interval, or any interval of an N != 2 system, is integrated by RK4
    (integrate_fundamental).  As in those, an overflow is not warned about:
    a lambda whose end values W are not finite fails (_check_finite).

    Returns (u_tables, fundamentals, end_values, closure) where end_values
    W = G^T U are the last interval's propagated end values and closure is
    the m x m matrix whose determinant vanishes at eigenvalues.  Every
    array carries the stack's leading lambda axis, each slice bit-identical
    to its stack of one; only without keep_samples, which mode shapes ask
    for, is a lambda-free left table the one table the stack shares.

    With derivatives (ReducedSystem.derivatives) each table is the stack
    [U; U'], which the variational end matrix carries to [W; W'] and the
    right rows' block to the closure [C; C'] (2m x m); through an interface
    U'_next = B^-1 (D' W + D W' - B' U_next).  end_values is W alone.
    """
    u = _initial_table(reduced.left_matrix, reduced.lam, reduced.left_table)
    if keep_samples:
        u = np.broadcast_to(u, reduced.lam.shape + u.shape[-2:])
    slopes = reduced.derivatives
    if slopes is not None:
        u = np.concatenate([u, slopes[0]], axis=-2)
    u_tables = [u]
    fundamentals: list[FundamentalMatrix] = []
    n, dim = reduced.partition.n_intervals, reduced.dim
    w = None
    for i in range(n):
        exact = dim == 2 and reduced.constant_coeffs[i] is not None
        propagator = _exact_fundamental if exact else integrate_fundamental
        fm = propagator(reduced, i, step, keep_samples=keep_samples)
        fundamentals.append(fm)
        w = transpose(fm.end_matrix) @ u
        _check_finite(reduced, i, w[..., :dim, :])
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
def _normalized_det(closure: np.ndarray, end_values: np.ndarray) -> np.ndarray:
    """det(closure) divided by the product of the m largest row maxima of W,
    per closure matrix of a stack.

    The raw determinant grows or decays exponentially with frequency and
    domain length through the fundamental solutions; dividing by the
    dominant row scales of the propagated end values keeps it O(1) without
    moving its zeros.  For m = 1 it is c / max|W| of the one closure entry
    c, zero where c or W vanishes and clamped at the modulus e^_EXP_CLAMP:
    the rules of the general route (_log_normalized_det), which it matches
    to rounding.
    """
    if closure.shape[-1] != 1:
        return _log_normalized_det(closure, end_values)
    # c = 0 gives 0 by the division itself
    c = closure[:, 0, 0]
    top = np.abs(end_values).reshape(len(c), -1).max(axis=1)
    vanishes = top == 0.0
    value = c / np.where(vanishes, 1.0, top)
    value[vanishes] = 0j
    clamped = np.abs(value) > _EXP_MAX
    if clamped.any():
        value[clamped] = c[clamped] / np.abs(c[clamped]) * _EXP_MAX
    return value


def _log_normalized_det(closure: np.ndarray, end_values: np.ndarray) -> np.ndarray:
    """_normalized_det of any m, by slogdet: sign * exp(log|det| - sum of
    the log row scales), the exponent clamped at _EXP_CLAMP."""
    m = closure.shape[-1]
    top = np.sort(np.abs(end_values).max(axis=-1), axis=-1)[..., -m:]
    sign, logdet = np.linalg.slogdet(closure)
    # top ascends, so a zero row scale shows in its first entry; log(1)
    # stands in for the row scales of a vanishing value
    vanishes = (top[..., 0] == 0.0) | (sign == 0)
    exponent = logdet - np.log(np.where(vanishes[..., np.newaxis], 1.0, top)).sum(axis=-1)
    return np.where(vanishes, 0j, sign * np.exp(np.minimum(exponent, _EXP_CLAMP)))


def characteristic_determinant(
    problem: ProblemDefinition,
    lam: complex | np.ndarray,
    step: float,
) -> complex | np.ndarray:
    """Scale-stabilized characteristic determinant D(lambda) of the complex system.

    For a 1-D array of lambdas the whole stack is evaluated in one pass and
    an array is returned; a stack raises the first error its pass meets.
    One lambda is evaluated as a length-1 stack and its value returned as a
    complex, so each lambda of a stack is bit-identical to its own call.
    """
    if not isinstance(lam, np.ndarray) or lam.ndim == 0:
        return complex(_closure_values(problem, np.array([complex(lam)]), step)[0][0])
    if not len(lam):
        return np.empty(0, dtype=complex)
    return _closure_values(problem, lam.astype(complex, copy=False), step)[0]


def _newton_values(problem: ProblemDefinition, lam: np.ndarray, step: float) -> list[tuple]:
    """(D, log|F|, F'/F) at each lambda of a stack (_closure_values)."""
    return list(zip(*(column.tolist() for column in _closure_values(problem, lam, step, True))))


def _scan_values(problem: ProblemDefinition, lam: np.ndarray, step: float) -> list[tuple]:
    """(D, log|F|) at each lambda of a stack (_closure_values)."""
    return list(zip(*(column.tolist() for column in _closure_values(problem, lam, step))))


@np.errstate(divide="ignore", invalid="ignore")
def _closure_values(problem: ProblemDefinition, lam: np.ndarray, step: float,
                    variational: bool = False) -> list[np.ndarray]:
    """[D, log|F|] at each lambda of a non-empty stack, in chunks as a
    y-dependent integration needs (_stack_chunk), and with variational also
    F'/F: F = det C the analytic closure determinant, D its normalized form
    (_normalized_det), which keeps the phase of F, and F'/F = tr(C^-1 C') by
    Jacobi's formula, NaN where F = 0 (and D = 0)."""
    chunk = _stack_chunk(problem, step, variational=variational) or len(lam)
    parts = []
    for i in range(0, len(lam), chunk):
        reduced = reduce_complex(problem, lam[i : i + chunk], variational=variational)
        _, _, w, closure = _assemble(reduced, step, keep_samples=False)
        m = closure.shape[-1]
        c = closure[:, :m, :]
        if m == 1:
            log_f = np.log(np.abs(c[:, 0, 0]))
        else:
            sign, log_f = np.linalg.slogdet(c)
        part = [_normalized_det(c, w), log_f]
        if variational and m == 1:
            part.append(closure[:, 1, 0] / c[:, 0, 0])
        elif variational:
            singular = (sign == 0)[:, np.newaxis, np.newaxis]
            ratio = np.trace(np.linalg.solve(np.where(singular, np.eye(m), c), closure[:, m:]),
                             axis1=1, axis2=2)
            ratio[sign == 0] = math.nan
            part.append(ratio)
        parts.append(part)
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(column) for column in zip(*parts)]


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
    return max(1, int(_STACK_ENTRIES // (sample_nodes(problem, step) * dim * dim)))


def sample_nodes(problem: ProblemDefinition, step: float) -> float:
    """Size of the sample grid at a step: one node per step of every
    interval, plus its ends.  A float, so that a step too fine for an
    integer count still compares."""
    part = problem.partition
    return part.total_length / step + 2 * part.n_intervals


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
    _MINIMUM_RATIO times the median of the grid's finite |D| as candidate
    roots, each with its Newton start (_start).  Grids too coarse to
    separate neighboring roots merge their brackets.  Both paths search from
    these brackets.
    """
    return _scan(problem, p_min, p_max, n_grid, step)[0]


def _scan(problem, p_min, p_max, n_grid, step):
    """scan_real_axis's brackets, each started by _start from the grid's
    values, and those values (_scan_values, in one stacked pass through
    _each): (D, log|F|), or the error its lambda raised, where D reads NaN
    and starts no bracket."""
    if not (p_min < p_max):
        raise ValueError("need p_min < p_max")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    ps = np.linspace(p_min, p_max, n_grid)
    values = _each(lambda z: _scan_values(problem, z, step), 1j * ps)
    grid = [(math.nan,) * 2 if isinstance(value, SolverError) else value for value in values]
    dvals = np.array([value[0] for value in grid], dtype=complex)
    f = dvals.real
    mag = np.abs(dvals)

    # sign changes of Re D, then the interior minima of |D| below the
    # threshold that no sign-change bracket touches; a failed lambda's NaN
    # takes no part in the median
    cross = np.flatnonzero(f[:-1] * f[1:] < 0.0)
    flagged = np.zeros(n_grid, dtype=bool)
    flagged[cross] = flagged[cross + 1] = True
    finite = mag[np.isfinite(mag)]
    threshold = _MINIMUM_RATIO * _median(finite) if finite.size else math.nan
    inner = mag[1:-1]
    low = (
        ~(flagged[:-2] | flagged[1:-1] | flagged[2:])
        & (inner < threshold)
        & (inner <= mag[:-2])
        & (inner <= mag[2:])
    )
    dips = np.flatnonzero(low) + 1

    spans = [(i, i + 1, "sign_change", 0.5 * (ps[i] + ps[i + 1])) for i in cross.tolist()]
    spans += [(i - 1, i + 1, "minimum", ps[i]) for i in dips.tolist()]
    spans.sort(key=lambda span: span[3])
    brackets = [Bracket(ps[lo], ps[hi], kind, seed, *_start(ps, grid, lo, hi, kind, seed))
                for lo, hi, kind, seed in spans]
    return brackets, values


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
    (_newton_values).  A bracket starts where its scan put it
    (Bracket.start, kept on the axis where Bracket.axis), one made without a
    start at i p_seed; no bracket end is evaluated.  Every value is computed
    with this call's step, each when its Newton point asks for it, with no
    value kept for a later point; solve_spectrum refines all its candidates
    at once (_refine_all) with the same results.  A non-positive tol or a
    max_iter below 1 is rejected before any evaluation.
    """
    _check_limits(tol, max_iter)
    return _refine_all(problem, [_seed(target)], tol, max_iter, step)[0][0]


def _check_limits(tol: float, max_iter: int) -> None:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _seed(target: Bracket | complex) -> tuple[complex, bool]:
    """Newton's (seed, axis) for a refinement target: a bracket's start, i
    p_seed for one without, or a complex seed itself, off the axis."""
    if not isinstance(target, Bracket):
        return complex(target), False
    return (1j * target.p_seed if target.start is None else target.start), target.axis


def _each(evaluate, lams: np.ndarray) -> list:
    """evaluate(lams) as a list of one value per lambda: the one failure rule
    of the scan, the Newton rounds and the mode-shape chunks.  A SolverError
    that names lambdas of the call (SolverError.per_lambda) gives each its
    own error as its value, and the rest goes in one call again (k failures,
    k + 1 calls).  An error that names none, or a whole stack, is raised."""
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
) -> tuple[list[SpectralResult], list]:
    """Newton (_newton) from every start (seed, axis) in lockstep: one result
    per start, in order, each refine_root's bit for bit, and every value
    evaluated, in evaluation order: (D, log|F|, F'/F), or the error its
    lambda raised, which answers (NaN, NaN, NaN) so that Newton halves its
    step past it.  Each round evaluates the lambda each live candidate asks
    for, all in one call (_each), and keeps nothing for later rounds: a
    solve costs as many calls as its longest candidate chain."""
    results: list[SpectralResult | None] = [None] * len(starts)
    chains = [_newton(seed, tol, max_iter, axis) for seed, axis in starts]
    evaluated: list = []
    replies = dict.fromkeys(range(len(chains)))  # None starts a chain
    while replies:
        asks = {}
        for k, reply in replies.items():
            try:
                asks[k] = chains[k].send(reply)
            except StopIteration as stop:
                results[k] = stop.value
        outcomes = _each(lambda z: _newton_values(problem, z, step), np.array(list(asks.values())))
        evaluated += outcomes
        replies = {k: (math.nan,) * 3 if isinstance(value, SolverError) else value
                   for k, value in zip(asks, outcomes)}
    return results, evaluated


def _start(ps: np.ndarray, grid: list, lo: int, hi: int, kind: str, p_seed) -> tuple[complex, bool]:
    """Newton's (seed, axis) for a bracket of kind between grid points lo and
    hi, from the grid's (D, log|F|).

    A sign change of Re D is first placed at the false-position point of Re
    D, on the axis where D is real at both ends: Re D changes sign while Im
    D is 0 there, so the zero lies on the axis.  Where D is complex on the
    axis (a damped model) the root near the crossing lies off it.  It starts
    at the root of the interpolant of F around it (_interpolated_root),
    found from that point, which stays the start where there is no such
    root.  A minimum starts at its seed, off the axis: its dip has no sign
    change to place it, and on coarse grids the interpolant's root near a
    dip led Newton to a neighbouring root of the same cell (machine_unit's
    lambda = 0 on the 18-point grid of a -0.33 to 6.59 window).
    """
    if kind != "sign_change":
        return 1j * p_seed, False
    d_lo, d_hi = grid[lo][0], grid[hi][0]
    p = _false_position(ps[lo], ps[hi], d_lo.real, d_hi.real)
    axis = d_lo.imag == 0.0 and d_hi.imag == 0.0
    root = _interpolated_root(ps, grid, lo, float(p), axis)
    if root is not None:
        p = root
    return (complex(0.0, p) if axis else 1j * p), axis


def _interpolated_root(ps: np.ndarray, grid: list, lo: int, p0: float, axis: bool):
    """The root in p, found by Newton from p0, of the polynomial through F(i p)
    at the _STENCIL grid points nearest the cell lo..lo + 1; real where axis.

    F is interpolated, not D: D divides F by a row scale that varies with p.
    It is scaled to the stencil's largest |F|, exp(log|F| - max log|F|)
    times the phase of D, and the polynomial is held in Newton form on the
    stencil's nodes mapped to [0, 1].  None where the grid has fewer than
    _STENCIL points, a stencil value is not finite, or the root's frequency
    Re p lies outside that cell and the grid cells next to it: on coarse
    grids the stencil spans most of the grid, and its interpolant can lead
    a bracket to a neighbouring bracket's root or past the grid's end.
    """
    n = len(ps)
    if n < _STENCIL:
        return None
    j0 = min(max(lo + 1 - _STENCIL // 2, 0), n - _STENCIL)
    stencil = grid[j0 : j0 + _STENCIL]
    top = max(log_f for _, log_f in stencil)
    if not (all(cmath.isfinite(d) for d, _ in stencil) and math.isfinite(top)):
        return None
    x = ps[j0 : j0 + _STENCIL].tolist()
    width = x[-1] - x[0]
    t = [(xj - x[0]) / width for xj in x]
    a = [d / abs(d) * math.exp(log_f - top) if d else 0.0 for d, log_f in stencil]
    if axis:
        a = [value.real for value in a]
    for k in range(1, _STENCIL):  # divided differences, in place
        for j in range(_STENCIL - 1, k - 1, -1):
            a[j] = (a[j] - a[j - 1]) / (t[j] - t[j - k])
    z = (p0 - x[0]) / width
    for _ in range(_INTERPOLANT_STEPS):
        value, slope = a[-1], 0.0
        for k in range(_STENCIL - 2, -1, -1):
            slope = slope * (z - t[k]) + value
            value = value * (z - t[k]) + a[k]
        if slope == 0:
            return None
        dz = value / slope
        z -= dz
        if abs(dz) <= 1e-15:
            break
    p = x[0] + z * width
    near = ps[max(lo - 1, 0)] <= p.real <= ps[min(lo + 2, n - 1)]
    return p if near and cmath.isfinite(p) else None


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
    the step's part along p, the Gauss-Newton step there.  It converges at
    a point whose step is at most min(tol, _ROUNDING * max(|lambda|, 1)),
    reporting that point and its |D| without evaluating the step, so a seed
    that already is the root takes 0 iterations; or where |D| falls to tol
    times its seed value or a step taken is below tol.  Else it exits
    "derivative vanished", "derivative not finite", "determinant not
    finite" (at the seed, or on every halving), "stagnated" (25 halvings)
    or "max_iter exceeded" (a slow chain, such as one at a multiple root;
    multiplicity is not checked), at the point of least |D| it reached.  A
    generator: it yields each lambda it needs (D, log|F|, F'/F) at, is sent
    them, and returns its SpectralResult.
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
        s = -1 / ratio if ratio != 0 and cmath.isfinite(ratio) else math.nan
        if axis and cmath.isfinite(s):
            s = 1j * s.imag
        if abs(s) <= min(tol, _ROUNDING * max(abs(lam), 1.0)):
            return SpectralResult(lam, abs(d), iters, True)
        iters += 1
        if ratio == 0:
            message = "derivative vanished"
            break
        if not cmath.isfinite(s):
            message = "derivative not finite"
            break
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
        message = "max_iter exceeded"

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
    those of one lambda alone.  Each chunk is one _each call, so a lambda
    that fails is that lambda's outcome: every shape before the first
    failing lambda is yielded, then its own error is raised.  Per lambda,
    the free-constant vector c is the null direction of the closure matrix,
    its last right singular vector (_null_vector); each interval's solution
    is the corresponding combination of its fundamental solutions on the
    stored integration grid.  A lambda whose closure matrix is numerically
    full rank fails with NotARootError.
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
    for i in range(0, len(lams), size):
        for shape in _each(lambda z: _shapes(problem, z, step, split), np.array(lams[i : i + size])):
            if isinstance(shape, SolverError):
                raise shape
            yield shape


def _shapes(problem: ProblemDefinition, lams: np.ndarray, step: float, split: bool) -> list[ModeShape]:
    """The mode shape at each lambda of a stack, from one sampled
    propagation whose normalized determinants, sample grid and interval
    slices serve every shape: the combination of the fundamental solutions
    for the free constants c (_null_vector), normalized to unit max-abs;
    split gives [Re, Im] of the combination for c conj(c[0])."""
    u_tables, fundamentals, w, closure = _assemble(reduce_complex(problem, lams), step, keep_samples=True)
    dets = _normalized_det(closure, w)
    ys = np.concatenate([fm.sample_ys for fm in fundamentals])
    ends = np.cumsum([0] + [len(fm.sample_ys) for fm in fundamentals]).tolist()
    slices = tuple(slice(a, b) for a, b in zip(ends, ends[1:]))
    shapes = []
    for k, lam in enumerate(lams.tolist()):
        c = _null_vector(closure[k], dets[k], lam, _RANK_TOL)
        if split:
            c = c * c[0].conjugate()
        values = np.concatenate([np.tensordot(fm.samples[:, k], u[k] @ c, axes=([1], [0]))
                                 for u, fm in zip(u_tables, fundamentals)])
        if split:
            values = np.concatenate([values.real, values.imag], axis=1)
        scale = values.reshape(-1)[int(np.argmax(np.abs(values)))]
        shapes.append(ModeShape(lam, ys, values / scale, complex(scale), slices))
    return shapes


def _null_vector(closure: np.ndarray, det: complex, lam: complex, rank_tol: float) -> np.ndarray:
    """The free-constant vector of an m x m closure matrix whose normalized
    determinant is det: ones for m = 1, else its last right singular
    vector, of unit norm.  Raises NotARootError, with the smallest singular
    value, where |det| is above rank_tol."""
    _, svals, vh = np.linalg.svd(closure)
    if abs(det) > rank_tol:
        raise NotARootError(lam, float(svals[-1]))
    if closure.shape[0] == 1:
        return np.ones(1, dtype=closure.dtype)
    return vh[-1].conj()


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------


def solve_spectrum(problem: ProblemDefinition, options: SolveOptions) -> list[SpectralResult]:
    """Scan, refine, deduplicate and sort the spectrum of a problem.

    The scan brackets, each started where the scan put it (_start), and
    then the rect seeds are refined in lockstep (_refine_all), as
    refine_root refines each.  Returns converged roots only, with Im >= 0
    (conjugate pairs reported once), sorted by |Im| then Re.  An empty list
    is a valid answer.  real_split keeps those with |Re| <= tol *
    max(|lambda|, 1), projected onto the axis.  A non-positive tol, a
    max_iter below 1 or an unknown path is rejected before the scan.  Only
    if every value failed (_each) is the first failure raised: the scan's
    in grid order, then refinement's in evaluation order, where a lambda
    that two Newton points ask for is evaluated for each.
    """
    _check_limits(options.tol, options.max_iter)
    if options.path not in ("complex", "real_split"):
        raise ValueError(f"unknown path {options.path!r}")
    step = resolve_step(problem, options)
    targets: list[Bracket | complex] = []
    values: list = []
    if options.scan is not None:
        p_min, p_max, n_grid = options.scan
        targets, values = _scan(problem, p_min, p_max, n_grid, step)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        targets += [
            complex(re, im)
            for re in np.linspace(re0, re1, int(nr))
            for im in np.linspace(im0, im1, int(ni))
        ]
    starts = [_seed(target) for target in targets]
    results, evaluated = _refine_all(problem, starts, options.tol, options.max_iter, step)
    values += evaluated
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
    the target error and the problem's declared bound at the largest
    |lambda| the search can probe (estimate_step), so every determinant
    evaluation of the run shares the same grid.  No lambda is evaluated
    for it: a pole at that scale is a failed lambda of the search only.
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
    return estimate_step(problem, max(probes), options.target_error)


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
