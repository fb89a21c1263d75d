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
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundaryDegeneracyError, NotARootError, PropagationError, SolverError
from .integrate import FundamentalMatrix, estimate_step, integrate_fundamental
from .linalg import rref_null_basis, transpose
from .problem import (
    BoundaryOperator,
    ConjugationOperator,
    ProblemDefinition,
    ReducedSystem,
    TOL_SINGULAR,
    each_lambda,
)
from .reduction import reduce_complex, reduce_real_split

#: largest exponent fed to exp() when undoing the log-scale normalization
_EXP_CLAMP = 700.0

#: matrix entries one coefficient array of a stacked y-dependent integration,
#: or one sampled array of a stacked mode-shape propagation, may hold (4 MB
#: complex); longer lambda stacks are evaluated in chunks
_STACK_ENTRIES = 1 << 18


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
    one column per state component; complex on the complex path, real of
    doubled dimension on the real-split path.
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
    return _null_basis_checked(matrix, lam)


def _null_basis_checked(matrix: np.ndarray, lam: complex) -> np.ndarray:
    rows = matrix.shape[0]
    rank, basis = rref_null_basis(matrix)
    if rank != rows:
        raise BoundaryDegeneracyError(lam, rank, rows)
    return basis


def _initial_table(matrix: np.ndarray, lam) -> np.ndarray:
    """Null basis of the left boundary matrix, per lambda of a stack.

    A stack whose boundary rows do not change with lambda shares one basis.
    """
    if matrix.ndim == 2:
        return _null_basis_checked(matrix, lam)
    lams = each_lambda(lam)
    if np.all(matrix == matrix[0]):
        basis = _null_basis_checked(matrix[0], lams[0])
        return np.broadcast_to(basis, (len(lams),) + basis.shape)
    return np.stack([_null_basis_checked(m, z) for m, z in zip(matrix, lams)])


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
    dmat = np.asarray(conj.d_matrix(lam))
    bmat = np.asarray(conj.b_matrix(lam))
    return _interface_solve(u, g, dmat, bmat, conj.interface, lam)


def _interface_solve(u, g, dmat, bmat, interface: int, lam) -> np.ndarray:
    w = transpose(g) @ u
    n = bmat.shape[-1]
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


def _reduce(problem: ProblemDefinition, lam, path: str) -> ReducedSystem:
    if path == "complex":
        return reduce_complex(problem, lam)
    if path == "real_split":
        if any(abs(z.real) > 1e-12 * max(1.0, abs(z)) for z in each_lambda(lam)):
            raise ValueError("real_split path is defined on the imaginary axis only")
        return reduce_real_split(problem, lam.imag)
    raise ValueError(f"unknown path {path!r}")


def _assemble(reduced: ReducedSystem, step: float, keep_samples: bool):
    """Run the full propagation at a bound lambda, or at a stack of them.

    Returns (u_tables, fundamentals, end_values, closure) where end_values
    W = G^T U are the last interval's propagated end values and closure is
    the m x m matrix whose determinant vanishes at eigenvalues.  A stacked
    system gives every array a leading lambda axis.
    """
    u = _initial_table(reduced.left_matrix, reduced.lam)
    u_tables = [u]
    fundamentals: list[FundamentalMatrix] = []
    n = reduced.partition.n_intervals
    w = None
    for i in range(n):
        fm = integrate_fundamental(reduced, i, step, keep_samples=keep_samples)
        fundamentals.append(fm)
        w = transpose(fm.end_matrix) @ u
        if i < n - 1:
            dmat, bmat = reduced.interfaces[i]
            u = _interface_solve(u, fm.end_matrix, dmat, bmat, i + 1, reduced.lam)
            u_tables.append(u)
    closure = reduced.right_matrix @ w
    return u_tables, fundamentals, w, closure


def _normalized_det(closure: np.ndarray, end_values: np.ndarray):
    """det(closure) divided by the product of the m largest row maxima of W.

    The raw determinant grows or decays exponentially with frequency and
    domain length through the fundamental solutions; dividing by the
    dominant row scales of the propagated end values keeps it O(1) without
    moving its zeros.  A complex for one closure matrix, an array for a
    stack of them.
    """
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
    path: str = "complex",
) -> complex | np.ndarray:
    """Scale-stabilized characteristic determinant D(lambda).

    For a 1-D array of lambdas the whole stack is evaluated in one pass,
    with the same arithmetic as one lambda at a time and bit-identical
    values, and an array is returned.  If any lambda of a stack fails, the
    lambdas are evaluated one at a time in order, so the error raised is
    the one of the first failing lambda.
    """
    if not isinstance(lam, np.ndarray) or lam.ndim == 0:
        return _determinant(problem, complex(lam), step, path)
    lams = lam.astype(complex, copy=False)
    chunk = _stack_chunk(problem, step, path) or max(len(lams), 1)
    try:
        parts = [
            _determinant(problem, lams[i : i + chunk], step, path)
            for i in range(0, len(lams), chunk)
        ]
    except SolverError:
        # one at a time, in order: the first failing lambda raises
        parts = [[_determinant(problem, z, step, path) for z in lams.tolist()]]
    return np.concatenate(parts) if parts else np.empty(0, dtype=complex)


def _determinant(problem: ProblemDefinition, lam, step: float, path: str):
    reduced = _reduce(problem, lam, path)
    _, _, w, closure = _assemble(reduced, step, keep_samples=False)
    return _normalized_det(closure, w)


def _stack_chunk(
    problem: ProblemDefinition, step: float, path: str, keep_samples: bool = False
) -> int | None:
    """Largest stack whose y-dependent integration, or with keep_samples
    whose sampled fundamental matrices, stay within _STACK_ENTRIES per
    array; None when neither is stored."""
    if not (keep_samples or problem.coefficients.varies_in_y):
        return None
    dim = problem.dim * (2 if path == "real_split" else 1)
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
    path: str = "complex",
    minimum_ratio: float = 0.05,
) -> list[Bracket]:
    """Locate root candidates of D(i p) on a uniform frequency grid.

    Returns sign-change intervals of Re D, plus local minima of |D| below
    minimum_ratio times the grid median as candidate (double) roots.  Grids
    too coarse to separate neighboring roots merge their brackets.
    """
    if not (p_min < p_max):
        raise ValueError("need p_min < p_max")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    ps = np.linspace(p_min, p_max, n_grid)
    dvals = characteristic_determinant(problem, 1j * ps, step, path)
    f = dvals.real
    mag = np.abs(dvals)

    brackets: list[Bracket] = []
    flagged = np.zeros(n_grid, dtype=bool)
    for i in range(n_grid - 1):
        if f[i] * f[i + 1] < 0.0:
            brackets.append(
                Bracket(ps[i], ps[i + 1], "sign_change", 0.5 * (ps[i] + ps[i + 1]))
            )
            flagged[i] = flagged[i + 1] = True

    threshold = minimum_ratio * float(np.median(mag))
    for i in range(1, n_grid - 1):
        if flagged[i - 1] or flagged[i] or flagged[i + 1]:
            continue
        if mag[i] < threshold and mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1]:
            brackets.append(Bracket(ps[i - 1], ps[i + 1], "minimum", ps[i]))

    brackets.sort(key=lambda b: b.p_seed)
    return brackets


def refine_root(
    problem: ProblemDefinition,
    target: Bracket | complex,
    tol: float = 1e-10,
    max_iter: int = 100,
    step: float = 1e-3,
    path: str = "complex",
) -> SpectralResult:
    """Polish one root candidate: the one-target case of the lockstep refinement.

    Sign-change brackets are narrowed along the imaginary axis by false
    position in its Illinois form, which keeps the bracket and converges
    superlinearly, until the bracket or the last step is below tol; if the
    residual there is not genuinely small the point is rehanded to Newton (a
    sign change of Re D alone need not be a root when D is complex).  Seeds
    are refined by damped Newton with a central finite-difference
    derivative; on the real-split path the search stays on the frequency
    axis, where roots touch zero quadratically, so it takes the
    multiplicity-2 step -2 f/f' and finishes with a parabolic vertex polish.
    Newton stops with a reason when halving its step 25 times does not lower
    |D| ("stagnated") or when D is not finite.  The two points of each
    difference and the three probes of each polish pass are evaluated as one
    stack.  solve_spectrum refines all its candidates at once (_refine_all)
    with the same steps and the same results.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def dfun(lam):
        return characteristic_determinant(problem, lam, step, path)

    return _run(_refine_steps(target, tol, max_iter, path), dfun)


# The refinement steps below are generators: each yields the lambda, or the
# lambda stack, whose determinant it needs next and is sent the value back;
# it returns its SpectralResult.  _run answers one of them with a callable,
# _refine_all answers many at once with one stacked determinant per round.


def _run(steps, dfun, reply=None):
    """Drive refinement steps to their result, answering each request with
    dfun; `reply` answers the request of steps already under way."""
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = dfun(request)


def _refine_steps(target: Bracket | complex, tol, max_iter, path):
    if isinstance(target, Bracket):
        if target.kind == "sign_change":
            return _bisect_bracket(target, tol, max_iter, path)
        seed = 1j * target.p_seed
    else:
        seed = complex(target)
    return _newton(seed, tol, max_iter, path)


def _refine_all(
    problem: ProblemDefinition,
    targets: list[Bracket | complex],
    tol: float,
    max_iter: int,
    step: float,
    path: str,
) -> list[SpectralResult]:
    """Refine every target in lockstep, one result per target in order.

    Each round gathers the pending request of every live candidate and
    evaluates them all with one characteristic_determinant call, so a solve
    costs as many calls as its longest candidate chain.  The values are
    those of refine_root, bit for bit.  If a round fails, the live
    candidates are finished one at a time in target order, so the error
    raised is the one refining the targets one after another raises.
    """

    def dfun(lam):
        return characteristic_determinant(problem, lam, step, path)

    steps = [_refine_steps(t, tol, max_iter, path) for t in targets]
    results: list[SpectralResult | None] = [None] * len(steps)
    replies = dict.fromkeys(range(len(steps)))
    while True:
        requests = {}
        for k, reply in replies.items():
            try:
                requests[k] = steps[k].send(reply)
            except StopIteration as stop:
                results[k] = stop.value
        if not requests:
            return results
        try:
            values = dfun(np.concatenate([np.atleast_1d(r) for r in requests.values()]))
        except SolverError:
            # one candidate at a time, in target order: the first failing
            # candidate raises
            for k, request in requests.items():
                results[k] = _run(steps[k], dfun, dfun(request))
            return results
        replies = {}
        offset = 0
        for k, request in requests.items():
            size = np.size(request)
            part = values[offset : offset + size]
            replies[k] = part if np.ndim(request) else complex(part[0])
            offset += size


def _bisect_bracket(bracket: Bracket, tol, max_iter, path):
    lo, hi = bracket.p_lo, bracket.p_hi
    d_lo = yield 1j * lo
    d_hi = yield 1j * hi
    f_lo, f_hi = d_lo.real, d_hi.real
    iters = 0
    if not (cmath.isfinite(d_lo) and cmath.isfinite(d_hi)) or f_lo * f_hi > 0:
        return (yield from _newton(1j * bracket.p_seed, tol, max_iter, path))
    d_mid = d_lo
    mid = lo
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    while hi - lo > tol and iters < max_iter:
        # Illinois false position; the midpoint whenever it leaves (lo, hi)
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else lo
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        d_mid = yield 1j * mid
        iters += 1
        f = d_mid.real
        if f == 0.0 or not cmath.isfinite(d_mid):
            break
        # an end kept twice in a row has its stored value halved, so that
        # end moves too and the convergence stays superlinear
        if f_lo * f < 0:
            moved, hi, f_hi = hi - mid, mid, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        else:
            moved, lo, f_lo = mid - lo, mid, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        if moved < tol:
            break
    residual = _modulus(d_mid)
    endpoint_scale = max(abs(d_lo), abs(d_hi))
    if residual <= 1e-4 * endpoint_scale:
        return SpectralResult(1j * mid, residual, iters, converged=True)
    # Re D crossed zero without |D| vanishing: not a root on the axis, so
    # hand the last point to Newton in the complex plane.
    newton = yield from _newton(1j * mid, tol, max_iter, path)
    return SpectralResult(
        newton.lam,
        newton.residual,
        iters + newton.iterations,
        newton.converged,
        newton.message,
    )


def _modulus(d: complex) -> float:
    """|d|, or inf when d is not finite.

    A non-finite D (an overflowed propagation far off the axis) then never
    counts as a decrease; abs() of a NaN complex may also raise OverflowError.
    """
    return abs(d) if cmath.isfinite(d) else math.inf


def _fd_delta(lam: complex) -> float:
    # relative 1e-6 perturbation, floored so seeds near the origin still
    # get a usable central difference
    return 1e-6 * max(abs(lam), 1.0)


def _newton(seed: complex, tol, max_iter, path):
    on_axis = path == "real_split"
    lam = 1j * seed.imag if on_axis else seed
    d = yield lam
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
        delta = _fd_delta(lam)
        if on_axis:
            d_plus, d_minus = (yield np.array([lam + 1j * delta, lam - 1j * delta])).tolist()
            dp = (d_plus - d_minus).real / (2 * delta)
            dcur = d.real
        else:
            d_plus, d_minus = (yield np.array([lam + delta, lam - delta])).tolist()
            dp = (d_plus - d_minus) / (2 * delta)
            dcur = d
        if dp == 0:
            message = "derivative vanished"
            break
        s = -dcur / dp
        if not cmath.isfinite(s):
            message = "derivative not finite"
            break
        if on_axis:
            # roots on the axis are double zeros of D(i p) (see
            # _vertex_polish): twice the Newton step keeps it quadratic
            s = 2j * s
        # damp: halve the step while it does not lower |D|
        for _ in range(25):
            cand = lam + s
            d_cand = yield cand
            res_cand = _modulus(d_cand)
            if res_cand <= abs(d) or (abs(s) < tol and res_cand < math.inf):
                break
            s *= 0.5
        else:
            message = "stagnated" if res_cand < math.inf else "determinant not finite"
            break
        lam, d = cand, d_cand
        if abs(d) < best_res:
            best_lam, best_res = lam, abs(d)
        if abs(s) < tol:
            converged = True
            break
    else:
        message = "max_iter exceeded; suspected multiple root"

    if on_axis:
        vert_lam, vert_res, extra, touching = yield from _vertex_polish(best_lam, best_res, tol)
        iters += extra
        if vert_res <= best_res:
            best_lam, best_res = vert_lam, vert_res
        converged = converged or best_res <= tol * d0 or best_res <= 1e-10 * d0
        if converged and not touching:
            converged, message = False, "D(i p) changes sign: not a touching zero"
        return SpectralResult(best_lam, best_res, iters, converged, message)

    if not converged and best_res <= tol * d0:
        converged = True
    return SpectralResult(best_lam, best_res, iters, converged, message)


def _vertex_polish(lam: complex, res: float, tol: float):
    """Parabolic vertex steps for quadratic (touching) zeros of D(i p).

    On the real-split path the determinant is the squared modulus of the
    complex-path determinant up to a smooth factor, so roots are quadratic
    minima; the vertex of a three-point parabola nails them.  A wide probe
    keeps the vertex insensitive to evaluation noise; narrower recentered
    passes remove the residual bias.  Also returns whether the wide probes
    show a touching zero.  A zero where D(i p) changes sign is not one: on
    machine_unit and pipeline D(i p) is odd in p, so it changes sign at p = 0
    whether or not lambda = 0 is a root (pipeline has none there).
    """
    p0 = lam.imag
    scale = max(abs(p0), 1.0)
    p = p0
    passes = 0
    # Shrinking probes: the wide pass is noise-immune, the narrow passes
    # remove the O(delta^2) bias from the smooth factor's slope.
    for delta in (1e-4 * scale, 1e-5 * scale, 1e-6 * scale):
        probes = yield np.array([1j * (p - delta), 1j * p, 1j * (p + delta)])
        dm, d0, dp = (d.real for d in probes.tolist())
        passes += 1
        if passes == 1:
            touching = dm * dp > 0.0
        curvature = dm - 2.0 * d0 + dp
        if not 0.0 < abs(curvature) < math.inf:  # flat, or a probe not finite
            continue
        step_p = -delta * (dp - dm) / (2.0 * curvature)
        if abs(step_p) > 10.0 * delta:  # fit not trustworthy this far out
            step_p = np.sign(step_p) * 10.0 * delta
        p = p + step_p
    res_new = _modulus((yield 1j * p))
    if res_new <= 10.0 * res or res_new <= tol:
        return 1j * p, res_new, passes, touching
    return lam, res, passes, touching


# ---------------------------------------------------------------------------
# mode shapes
# ---------------------------------------------------------------------------


def mode_shape(
    problem: ProblemDefinition,
    lam: complex,
    step: float,
    path: str = "complex",
    rank_tol: float = 1e-6,
) -> ModeShape:
    """Reconstruct the eigenfunction at a converged root: the one-lambda
    case of mode_shapes."""
    (shape,) = mode_shapes(problem, [lam], step, path, rank_tol)
    return shape


def mode_shapes(
    problem: ProblemDefinition,
    lams: Iterable[complex],
    step: float,
    path: str = "complex",
    rank_tol: float = 1e-6,
) -> Iterator[ModeShape]:
    """Reconstruct the eigenfunctions at converged roots, yielded in order.

    The lambdas are reduced and propagated with sampling as stacks, in
    chunks that keep each sampled array within _STACK_ENTRIES entries, so a
    fine step takes them one at a time; the samples are bit-identical to
    those of one lambda alone.  If a chunk fails, its lambdas are redone one
    at a time, so every shape before the first failing lambda is yielded
    first.  Per lambda, the free-constant vector is the near-null direction
    of the closure matrix (two inverse-iteration sweeps on M^H M from e1);
    each interval's solution is the corresponding combination of its
    fundamental solutions on the stored integration grid.  Raises
    NotARootError when the closure matrix is numerically full rank.
    """
    lams = [complex(z) for z in lams]
    size = _stack_chunk(problem, step, path, keep_samples=True)
    chunks = [lams[i : i + size] for i in range(0, len(lams), size)]
    while chunks:
        chunk = chunks.pop(0)
        try:
            reduced = _reduce(problem, np.array(chunk), path)
            u_tables, fundamentals, w, closure = _assemble(reduced, step, keep_samples=True)
        except SolverError:
            if len(chunk) == 1:
                raise
            # one at a time, in order: the first failing lambda raises
            chunks[:0] = [[z] for z in chunk]
            continue
        for k, lam in enumerate(chunk):
            c_free = _null_vector(closure[k], w[k], lam, rank_tol)
            yield _combine(lam, u_tables, fundamentals, k, c_free)


def _combine(lam: complex, u_tables, fundamentals, k: int, c_free) -> ModeShape:
    """The mode shape of lambda k of a sampled stack, normalized to unit
    max-abs."""
    ys_parts = []
    val_parts = []
    slices = []
    offset = 0
    for u, fm in zip(u_tables, fundamentals):
        coeff = u[k] @ c_free
        vals = np.tensordot(fm.samples[:, k], coeff, axes=([1], [0]))
        ys_parts.append(fm.sample_ys)
        val_parts.append(vals)
        slices.append(slice(offset, offset + len(fm.sample_ys)))
        offset += len(fm.sample_ys)

    ys = np.concatenate(ys_parts)
    values = np.concatenate(val_parts, axis=0)
    flat_idx = int(np.argmax(np.abs(values)))
    scale = values.reshape(-1)[flat_idx]
    values = values / scale

    return ModeShape(
        lam=lam,
        ys=ys,
        values=values,
        normalization=complex(scale),
        interval_slices=tuple(slices),
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

    The scan brackets and then the rect seeds are refined in lockstep
    (_refine_all), with the results and errors of refine_root applied to
    each in turn.  Returns converged roots only, with Im >= 0 (conjugate
    pairs reported once), sorted by |Im| then Re.  An empty list is a valid
    answer.  A non-positive tol is rejected before the scan.
    """
    if options.tol <= 0:
        raise ValueError("tol must be positive")
    step = resolve_step(problem, options)
    targets: list[Bracket | complex] = []
    if options.scan is not None:
        p_min, p_max, n_grid = options.scan
        targets += scan_real_axis(problem, p_min, p_max, n_grid, step, options.path)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        targets += [
            complex(re, im)
            for re in np.linspace(re0, re1, int(nr))
            for im in np.linspace(im0, im1, int(ni))
        ]
    results = _refine_all(problem, targets, options.tol, options.max_iter, step, options.path)
    accepted = [r for r in results if r.converged]
    return _dedupe(accepted, options.tol)


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
    reduced = _reduce(problem, 1j * lam_scale, "complex")
    return estimate_step(reduced, options.target_error)


def _dedupe(results: Iterable[SpectralResult], tol: float) -> list[SpectralResult]:
    canonical: list[SpectralResult] = []
    for r in results:
        lam = r.lam
        if lam.imag < 0:
            lam = lam.conjugate()
        canonical.append(
            SpectralResult(lam, r.residual, r.iterations, r.converged, r.message, r.mode)
        )
    canonical.sort(key=lambda r: (abs(r.lam.imag), r.lam.real, r.residual))
    kept: list[SpectralResult] = []
    for r in canonical:
        atol = max(1e3 * tol, 1e-7) + 1e-7 * abs(r.lam)
        dup = None
        for i, k in enumerate(kept):
            if abs(k.lam - r.lam) <= atol:
                dup = i
                break
        if dup is None:
            kept.append(r)
        elif r.residual < kept[dup].residual:
            kept[dup] = r
    kept.sort(key=lambda r: (abs(r.lam.imag), r.lam.real))
    return kept
