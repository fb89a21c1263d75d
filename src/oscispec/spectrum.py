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
from .integrate import FundamentalMatrix, _check_finite, _exact_fundamental, _stack_room
from .integrate import estimate_step, integrate_fundamental
from .linalg import adjugate_table, transpose
from .problem import ProblemDefinition, ReducedSystem, failed_lambdas, is_singular, require_valid
from .reduction import reduce_complex
from .reduction import reduce_real_split  # noqa: F401  (perfbench/tracing.py wraps it by name)

#: largest exponent fed to exp() when undoing the log-scale normalization;
#: the m = 1 closed form clamps its modulus at _EXP_MAX = e^_EXP_CLAMP
_EXP_CLAMP = 700.0
_EXP_MAX = math.exp(_EXP_CLAMP)

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

#: refine_root's step, and the CLI's where neither --step nor --target-error
#: is given
DEFAULT_STEP = 1e-3

#: the solve paths, the default first: complex keeps every root and writes
#: complex mode columns; real_split keeps the roots on the frequency axis and
#: writes a mode as its [Re, Im] columns
PATHS = ("complex", "real_split")


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


@dataclass(frozen=True)
class SolveOptions:
    """Configuration for a spectrum solve, checked when it is built, so that
    every SolveOptions can be solved.  With NaN failing every test, a
    ValueError refuses neither scan nor rect, a scan that is not finite
    p_min < p_max with an integer n >= 2, a rect without finite corners and
    integers NR, NI >= 1, a step not > 0 (inf passes) or, with no step, a
    target_error not > 0, a tol outside (0, 1), a max_iter that is not an
    integer >= 1, and a path not in PATHS."""

    scan: tuple[float, float, int] | None = None
    rect: tuple[float, float, float, float, int, int] | None = None
    step: float | None = None
    target_error: float = 1e-10
    tol: float = 1e-10
    max_iter: int = 100
    path: str = PATHS[0]

    def __post_init__(self):
        if self.scan is None and self.rect is None:
            raise ValueError("a solve needs a scan or a rect")
        if self.scan is not None:
            _check_window(*self.scan)
        if self.rect is not None:
            message = "rect needs finite corners, nr >= 1 and ni >= 1"
            if not np.isfinite(self.rect[:4]).all():
                raise ValueError(message)
            for count in self.rect[4:]:
                _check_count(count, 1, message)
        if self.step is None:
            _check_positive(self.target_error, "target_error")
        else:
            _check_positive(self.step, "step")
        _check_limits(self.tol, self.max_iter)
        _check_path(self.path)


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def _initial_table(matrix: np.ndarray, lam) -> np.ndarray:
    """The left null basis in adjugate form (linalg.adjugate_table), per
    lambda of a stack, reduced in one call; raises BoundaryDegeneracyError
    for the first lambda whose rows lose rank.

    Lambda-free rows are one (m, N) matrix that the stack shares
    (reduction.bind_matrix), so they give one (N, N - m) table for the
    whole stack and, losing rank, fail at its first lambda.
    """
    ranks, table = adjugate_table(matrix)
    if table is None:
        rows = matrix.shape[-2]
        k, z = failed_lambdas(lam, ranks != rows)[0]
        raise BoundaryDegeneracyError(z, int(np.reshape(ranks, -1)[k]), rows)
    return table


def _interface_solve(rhs, bmat, interface: int, lam, dim: int) -> np.ndarray:
    """B^-1 rhs per lambda of a stack (U_next of B U_next = D W); raises
    PropagationError for the first lambda whose B, the leading dim x dim
    block of a variational [[B, 0], [B', B]], is singular.  A lambda-free B
    is one matrix shared by a stack (bind_matrix), checked once, so that it
    fails at the first lambda.  B None, the identity (reduce_complex),
    gives rhs with no check or solve."""
    if bmat is None:
        return rhs
    singular = is_singular(bmat[..., :dim, :dim])
    if singular.any():
        _, z = failed_lambdas(lam, singular)[0]
        raise PropagationError(interface, z, "det below singularity tolerance")
    try:
        return np.linalg.solve(bmat, rhs)
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
    for, is the table of lambda-free left rows (_initial_table) the one
    table the stack shares.

    A variational system (ReducedSystem.left_slope) runs the same pass on
    its dual blocks: the table [U; U'] starts from the left slope, and the
    end matrices, interfaces and right rows carry it to the closure
    [C; C'] (2m x m).  end_values is W alone.
    """
    u = _initial_table(reduced.left_matrix, reduced.lam)
    if reduced.left_slope is not None:
        u = np.concatenate([u, reduced.left_slope], axis=-2)
    if keep_samples:
        u = np.broadcast_to(u, reduced.lam.shape + u.shape[-2:])
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
            u = _interface_solve(dmat @ w, bmat, i + 1, reduced.lam, dim)
            u_tables.append(u)
    return u_tables, fundamentals, w[..., :dim, :], reduced.right_matrix @ w


# a ratio beyond the float range is clamped below, as the general route
# clamps its exponent, not warned about; log|c| of c = 0 is -inf
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _normalized_det(closure: np.ndarray, end_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, log|F|) per closure matrix of a stack: F = det(closure), and D
    that determinant divided by the product of the m largest row maxima of
    W.

    The raw determinant grows or decays exponentially with frequency and
    domain length through the fundamental solutions; dividing by the
    dominant row scales of the propagated end values keeps it O(1) without
    moving its zeros.  For m = 1 D is c / max|W| of the one closure entry
    c, zero where c or W vanishes and clamped at the modulus e^_EXP_CLAMP:
    the rules of the general route (_log_normalized_det), which it matches
    to rounding; log|F| is log|c|.
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
    return value, np.log(np.abs(c))


def _log_normalized_det(closure: np.ndarray, end_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_normalized_det of any m, by one slogdet: D = sign * exp(log|det| -
    sum of the log row scales), the exponent clamped at _EXP_CLAMP, and
    log|F| = log|det|, -inf where det = 0."""
    m = closure.shape[-1]
    top = np.sort(np.abs(end_values).max(axis=-1), axis=-1)[..., -m:]
    sign, logdet = np.linalg.slogdet(closure)
    # top ascends, so a zero row scale shows in its first entry; log(1)
    # stands in for the row scales of a vanishing value
    vanishes = (top[..., 0] == 0.0) | (sign == 0)
    exponent = logdet - np.log(np.where(vanishes[..., np.newaxis], 1.0, top)).sum(axis=-1)
    return np.where(vanishes, 0j, sign * np.exp(np.minimum(exponent, _EXP_CLAMP))), logdet


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
    A problem that fails validation, or a step not > 0, is a ValueError.
    """
    require_valid(problem)
    _check_positive(step, "step")
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
    """[D, log|F|] at each lambda of a non-empty stack, in one pass (whose
    RK4 integration bounds its own arrays, integrate_fundamental), and with
    variational also F'/F: F = det C the analytic closure determinant, D
    its normalized form, which keeps the phase of F (both from one
    _normalized_det call), and F'/F = tr(C^-1 C') by Jacobi's formula, NaN
    where F = 0 (and D = 0)."""
    reduced = reduce_complex(problem, lam, variational=variational)
    _, _, w, closure = _assemble(reduced, step, keep_samples=False)
    m = closure.shape[-1]
    c = closure[:, :m, :]
    values = list(_normalized_det(c, w))
    if variational and m == 1:
        values.append(closure[:, 1, 0] / c[:, 0, 0])
    elif variational:
        # log|F| is -inf exactly where slogdet's sign is 0
        singular = values[1] == -math.inf
        safe = np.where(singular[:, np.newaxis, np.newaxis], np.eye(m), c)
        ratio = np.trace(np.linalg.solve(safe, closure[:, m:]), axis1=1, axis2=2)
        ratio[singular] = math.nan
        values.append(ratio)
    return values


def _stack_chunk(problem: ProblemDefinition, step: float) -> int:
    """Largest stack whose sampled fundamental matrices, one per node of the
    sample grid (sample_nodes), fit integrate._STACK_ENTRIES per array: the
    samples are output, so mode_shapes bounds them by chunking lambdas."""
    return _stack_room(sample_nodes(problem, step) * problem.dim * problem.dim)


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
    these brackets.  The grid's (D, log|F|) come from one stacked pass
    (_scan_values, through _each): a lambda that fails reads D = NaN and
    starts no bracket, and a scan in which every lambda failed raises the
    first failure, in grid order.  Problem and step are refused as in
    characteristic_determinant, and a window that is not finite p_min <
    p_max with an integer n_grid >= 2, before any lambda.
    """
    require_valid(problem)
    _check_positive(step, "step")
    _check_window(p_min, p_max, n_grid)
    ps = np.linspace(p_min, p_max, n_grid)
    values = _each(lambda z: _scan_values(problem, z, step), 1j * ps)
    if all(isinstance(value, SolverError) for value in values):
        raise values[0]
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
    return [Bracket(ps[lo], ps[hi], kind, seed, *_start(ps, grid, lo, hi, kind, seed))
            for lo, hi, kind, seed in spans]


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
    tol: float = SolveOptions.tol,
    max_iter: int = SolveOptions.max_iter,
    step: float = DEFAULT_STEP,
) -> SpectralResult:
    """Polish one root candidate: the one-target case of the lockstep refinement.

    Every candidate is polished by one damped Newton loop (_newton) on the
    analytic closure determinant F, each point bringing its exact F'/F
    (_newton_values).  A bracket starts where its scan put it
    (Bracket.start, kept on the axis where Bracket.axis), one made without a
    start at i p_seed; no bracket end is evaluated.  Every value is computed
    with this call's step, each when its Newton point asks for it, with no
    value kept for a later point; solve_spectrum refines all its candidates
    at once (_refine_all) with the same results.  A tol or step that is
    not > 0 (NaN too), a tol of 1 or more (which the seed itself meets), a
    max_iter that is not an integer >= 1 or a problem that fails validation
    (require_valid) is rejected before any evaluation.
    """
    _check_limits(tol, max_iter)
    require_valid(problem)
    _check_positive(step, "step")
    return _refine_all(problem, [_seed(target)], tol, max_iter, step)[0][0]


def _check_limits(tol: float, max_iter: int) -> None:
    _check_positive(tol, "tol")
    # at tol >= 1 the seed itself meets Newton's |D| <= tol |D(seed)|
    if not tol < 1:
        raise ValueError("tol must be below 1")
    _check_count(max_iter, 1, "max_iter must be at least 1")


def _check_window(p_min: float, p_max: float, n_grid: int) -> None:
    if not -math.inf < p_min < p_max < math.inf:
        raise ValueError("need finite p_min < p_max")
    _check_count(n_grid, 2, "need n_grid >= 2")


def _check_positive(value: float, name: str) -> None:
    # NaN fails too, and inf passes (a step of inf is one step per interval)
    if not value > 0:
        raise ValueError(f"{name} must be positive")


def _check_path(path: str) -> None:
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")


def _check_count(value: int, least: int, message: str) -> None:
    # an integer, which NaN and 2.5 are not, of at least `least`
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{message}: {value!r} is not an integer")
    if value < least:
        raise ValueError(message)


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
    path: str = SolveOptions.path,
) -> ModeShape:
    """Reconstruct the eigenfunction at a converged root: the one-lambda
    case of mode_shapes."""
    (shape,) = mode_shapes(problem, [lam], step, path)
    return shape


def mode_shapes(
    problem: ProblemDefinition,
    lams: Iterable[complex],
    step: float,
    path: str = SolveOptions.path,
) -> Iterator[ModeShape]:
    """Reconstruct the eigenfunctions at converged roots, yielded in order.

    The lambdas are reduced and propagated with sampling as stacks, in
    chunks that keep each sampled array within budget (_stack_chunk), so a
    fine step takes them one at a time; the samples are bit-identical to
    those of one lambda alone.  Each chunk is one _each call, so a lambda
    that fails is that lambda's outcome: every shape before the first
    failing lambda is yielded, then its own error is raised.  Per lambda,
    the free-constant vector c is the null direction of the closure matrix,
    its last right singular vector (_null_vector); each interval's solution
    is the corresponding combination of its fundamental solutions on the
    stored integration grid.  A lambda whose closure matrix is numerically
    full rank fails with NotARootError, and a problem that fails
    validation or a step not > 0 with ValueError before any lambda.
    real_split (on the imaginary axis only) writes it as [Re phi, Im phi]
    for c conj(c_0), the phase of the realified closure's null vector.
    """
    lams = [complex(z) for z in lams]
    _check_path(path)
    split = path == "real_split"
    if split and any(abs(z.real) > 1e-12 * max(1.0, abs(z)) for z in lams):
        raise ValueError("real_split path is defined on the imaginary axis only")
    require_valid(problem)
    _check_positive(step, "step")
    size = _stack_chunk(problem, step)
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
    dets, _ = _normalized_det(closure, w)
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
    determinant is det: ones for m = 1, with no SVD, else its last right
    singular vector, of unit norm.  Raises NotARootError, with the smallest
    singular value of numpy's full SVD, where |det| is above rank_tol."""
    if abs(det) > rank_tol:
        raise NotARootError(lam, float(np.linalg.svd(closure)[1][-1]))
    if closure.shape[0] == 1:
        return np.ones(1, dtype=closure.dtype)
    return np.linalg.svd(closure)[2][-1].conj()


# ---------------------------------------------------------------------------
# end-to-end solve
# ---------------------------------------------------------------------------


def solve_spectrum(problem: ProblemDefinition, options: SolveOptions) -> list[SpectralResult]:
    """Scan, refine, deduplicate and sort the spectrum of a problem.

    The scan brackets (scan_real_axis), each started where the scan put it,
    and then the rect seeds are refined in lockstep (_refine_all), as
    refine_root refines each.  Returns converged roots only, with Im >= 0
    (conjugate pairs reported once), sorted by |Im| then Re; two results
    are one root where they lie within 1e-7 (1 + |lambda|), compared where
    Newton polishes them at the default tol when tol is looser (_dedupe).
    An empty list is a valid answer.  real_split keeps those with |Re| <=
    tol * max(|lambda|, 1), projected onto the axis.  The options were
    checked when they were built (SolveOptions), and a problem that fails
    validation is refused before any lambda.  A scan in which every lambda
    failed raises its first failure, in grid order, whether or not a rect
    is given; a solve with no scan raises the first failure, in evaluation
    order, only if every lambda it evaluated failed, where a lambda that
    two Newton points ask for is evaluated for each.
    """
    require_valid(problem)
    step = resolve_step(problem, options)
    targets: list[Bracket | complex] = []
    if options.scan is not None:
        targets = scan_real_axis(problem, *options.scan, step)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        targets += [complex(re, im) for re in np.linspace(re0, re1, nr) for im in np.linspace(im0, im1, ni)]
    starts = [_seed(target) for target in targets]
    results, evaluated = _refine_all(problem, starts, options.tol, options.max_iter, step)
    if options.scan is None and evaluated and all(
            isinstance(value, SolverError) for value in evaluated):
        raise evaluated[0]
    found = [(r, axis) for r, (_, axis) in zip(results, starts) if r.converged]
    keys = [r.lam for r, _ in found]
    if options.tol > SolveOptions.tol:
        # Newton's residual exit stops early at a loose tol: on the
        # benchmark rects two results of one root lie up to ~0.2 apart at
        # tol 0.1 and ~2 at 0.5, more than the spacing of some roots
        polished, _ = _refine_all(problem, [(r.lam, axis) for r, axis in found],
                                  SolveOptions.tol, options.max_iter, step)
        keys = [p.lam if p.converged else key for p, key in zip(polished, keys)]
    roots = _dedupe([r for r, _ in found], keys)
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
        return options.step
    probes = [0.0]
    if options.scan is not None:
        probes.append(abs(options.scan[0]))
        probes.append(abs(options.scan[1]))
    if options.rect is not None:
        re0, re1, im0, im1, _, _ = options.rect
        probes.append(max(abs(re0), abs(re1)) + max(abs(im0), abs(im1)))
    return estimate_step(problem, max(probes), options.target_error)


def _dedupe(results: list[SpectralResult], keys: list[complex]) -> list[SpectralResult]:
    """The distinct roots, each as the first result in target order that
    found it (conjugates canonicalized to Im >= 0), sorted by |Im| then Re.
    Two results are one root where their keys, each a result's lambda or
    the lambda its polish reached, lie within 1e-7 (1 + |key|), which
    holds two results of one root at the default tol (at most 9.1e-11
    apart on the benchmark rects).  Which duplicate is kept never follows
    residuals at rounding level."""
    kept: list[SpectralResult] = []
    kept_keys: list[complex] = []
    for r, key in zip(results, keys):
        key = key.conjugate() if key.imag < 0 else key
        if all(abs(k - key) > 1e-7 * (1.0 + abs(key)) for k in kept_keys):
            kept_keys.append(key)
            kept.append(replace(r, lam=r.lam.conjugate() if r.lam.imag < 0 else r.lam))
    kept.sort(key=lambda r: (abs(r.lam.imag), r.lam.real))
    return kept
