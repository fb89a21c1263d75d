"""Problem data model.

A problem is defined piecewise on an interval: within each subinterval the
state z(y, t) of dimension N obeys

    dz_k/dy = sum_j A_kj(y) z_j + B_kj(y) d2z_j/dt2 + C_kj(y) dz_j/dt,

(in lambda, optionally over a scalar denominator q(lambda) per interval),
with m = N/2 homogeneous boundary rows at each end (entries polynomial in
the spectral parameter) and an interface relation D(lam) z_left = B(lam)
z_right at every interior breakpoint.

All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import adjugate_table, det
from .poly import PolyMatrix

#: maximum degree of coefficient entries in the space coordinate
MAX_Y_DEGREE = 8
#: maximum degree of boundary/interface entries in lambda (unless overridden)
MAX_LAMBDA_DEGREE = 2
#: relative determinant cutoff below which an interface B matrix counts singular
TOL_SINGULAR = 1e-12

#: number of sample points per interval used for bound checking
_BOUND_SAMPLES = 33


@dataclass(frozen=True)
class Partition:
    """Breakpoints y_0 < y_1 < ... < y_n of the solution domain."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))

    @property
    def n_intervals(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def total_length(self) -> float:
        return self.breakpoints[-1] - self.breakpoints[0]

    def interval(self, i: int) -> tuple[float, float]:
        """Closed interval (y_{i}, y_{i+1}) for 0-based interval index i."""
        return self.breakpoints[i], self.breakpoints[i + 1]

    def is_increasing(self) -> bool:
        b = self.breakpoints
        return all(b[i] < b[i + 1] for i in range(len(b) - 1))


@dataclass(frozen=True)
class CoefficientField:
    """Per-interval coefficient matrices A, B, C, polynomial in y, with an
    optional scalar denominator in lambda, and a bound.

    a_polys/b_polys/c_polys hold one N x N PolyMatrix (in y) per interval.
    denominators holds per interval the coefficients q_0, q_1[, q_2] of a
    scalar polynomial q(lam), constant first, or None; the reduced
    coefficient is then (A(y) + lam^2 B(y) + lam C(y)) / q(lam), rational
    in lambda, as a Kelvin-Voigt factor dividing a restoring term makes it.
    Left out, no interval has one.  The roots of q are the field's poles.
    bound is the declared constant M with |entry(y)| <= M max_k |q_k| on
    its interval (M itself where there is no denominator), finite and not
    negative.  The intervals are those of the problem's partition.
    """

    a_polys: tuple[PolyMatrix, ...]
    b_polys: tuple[PolyMatrix, ...]
    c_polys: tuple[PolyMatrix, ...]
    bound: float
    denominators: tuple[tuple[float, ...] | None, ...] = ()

    def __post_init__(self):
        if not self.denominators:
            object.__setattr__(self, "denominators", (None,) * len(self.a_polys))

    @property
    def dim(self) -> int:
        return self.a_polys[0].shape[0]

    @cached_property
    def constant_abc(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, ...]:
        """Per interval the constant (A, B, C) matrices, None where any varies in y."""
        return tuple(
            (a.coeffs[0], b.coeffs[0], c.coeffs[0])
            if a.is_constant() and b.is_constant() and c.is_constant()
            else None
            for a, b, c in zip(self.a_polys, self.b_polys, self.c_polys)
        )

    @cached_property
    def varies_in_y(self) -> bool:
        return any(abc is None for abc in self.constant_abc)


@dataclass(frozen=True)
class BoundaryOperator:
    """One end condition block: matrix(lam) z(end) = 0, matrix m x N."""

    side: str  # "left" or "right"
    matrix: PolyMatrix
    max_degree: int = MAX_LAMBDA_DEGREE

    def __call__(self, lam: complex) -> np.ndarray:
        return self.matrix(lam)


@dataclass(frozen=True)
class ConjugationOperator:
    """Interface relation d_matrix(lam) z_left = b_matrix(lam) z_right.

    interface is the 1-based interior breakpoint index (1..n-1); z_left is
    the trace from the interval left of the breakpoint, z_right from the
    interval right of it.
    """

    interface: int
    d_matrix: PolyMatrix
    b_matrix: PolyMatrix

    @classmethod
    def identity(cls, interface: int, dim: int) -> "ConjugationOperator":
        eye = PolyMatrix.constant(np.eye(dim))
        return cls(interface, eye, eye)


@dataclass(frozen=True)
class ProblemDefinition:
    """A complete piecewise boundary eigenvalue problem."""

    name: str
    partition: Partition
    coefficients: CoefficientField
    boundary_left: BoundaryOperator
    boundary_right: BoundaryOperator
    conjugations: tuple[ConjugationOperator, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    #: optional scalar second-order description consumed by the FD oracle
    scalar_form: object | None = None

    @property
    def dim(self) -> int:
        return self.coefficients.dim

    @cached_property
    def conjugations_in_order(self) -> tuple[ConjugationOperator, ...]:
        """The conjugations by interface index, sorted once per problem."""
        return tuple(sorted(self.conjugations, key=lambda c: c.interface))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """validate(self), run once per problem object (require_valid)."""
        return tuple(validate(self))


@dataclass(frozen=True)
class ReducedSystem:
    """A first-order system bound at a stack of lambdas, ready for integration.

    lam is the 1-D stack of K lambdas.  dim is the dimension of the state;
    boundary and interface matrices are constant (already evaluated at
    lambda), each with a leading lambda axis, (K, rows, cols), except a
    lambda-free one, which is one (rows, cols) matrix shared by the stack:
    lambda-free left rows then give the whole stack one null-basis table
    (spectrum._initial_table).  An interface B that is the identity
    (PolyMatrix.is_identity) is None: the table crosses it with no solve.
    constant_coeffs holds, per interval, the (K, dim, dim) coefficient
    matrices where they do not depend on y, or None; varying(interval, ys)
    evaluates an interval's coefficients at each y, (len(ys), K, dim, dim),
    and is what integration reads where constant_coeffs is None.

    A variational system (reduction.reduce_complex) binds each coefficient,
    right-boundary and interface matrix M as the block [[M, 0], [M', M]],
    M' = dM/dlam, so its integration carries dPhi/dlam beside Phi; its
    left_slope, None otherwise, is the lambda-derivative U0' of the left
    table (shaped as the table, zeros where the left rows are lambda-free).
    """

    partition: Partition
    dim: int
    lam: np.ndarray
    left_matrix: np.ndarray
    right_matrix: np.ndarray
    interfaces: tuple[tuple[np.ndarray, np.ndarray | None], ...]
    varying: Callable[[int, np.ndarray], np.ndarray]
    constant_coeffs: tuple[np.ndarray | None, ...]
    left_slope: np.ndarray | None = None


def is_singular(bmat: np.ndarray) -> np.ndarray:
    """Whether an interface matrix B, or each B of a stack, counts singular:
    zero, or |det B| (linalg.det: ad - bc for N = 2) at most TOL_SINGULAR
    times its largest modulus to the power N."""
    scale = np.max(np.abs(bmat), axis=(-2, -1))
    return (scale == 0.0) | (np.abs(det(bmat)) <= TOL_SINGULAR * scale ** bmat.shape[-1])


def failed_lambdas(lam: np.ndarray, failed) -> list[tuple[int, complex]]:
    """(index, lambda) of each lambda of a 1-D stack where `failed` holds,
    in stack order, the lambda as a Python number: the one lookup by which a
    check names the lambdas it fails.  failed is one flag per lambda, or a
    single flag for a lambda-free matrix that the stack shares, which then
    fails at every lambda."""
    index = np.flatnonzero(np.broadcast_to(failed, lam.shape))
    return list(zip(index.tolist(), lam[index].tolist()))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def require_valid(problem: ProblemDefinition) -> None:
    """Raise one ValueError listing the problem's violations, if it has any
    (ProblemDefinition.violations): the one gate of the solver's entry
    points and of the CLI."""
    if problem.violations:
        raise ValueError("problem fails validation:\n  " + "\n  ".join(problem.violations))


def validate(problem: ProblemDefinition) -> list[str]:
    """Collect model violations; an empty list means the problem is well formed.

    Violations are data, not exceptions: dimension mismatches, non-increasing
    breakpoints, degree caps, nonfinite coefficients, coefficient-bound
    violations, boundary rows that lose rank at lambda = 0 or 1j and singular
    interface matrices at lambda = 0 are all reported together.  A block
    with a nonfinite coefficient is not evaluated for its rank probe, and a
    declared bound that is not finite and >= 0 is one violation, with no
    entry compared against it.
    """
    out: list[str] = []
    part = problem.partition
    n = part.n_intervals

    if len(part.breakpoints) < 2:
        out.append("breakpoints: need at least two")
        return out
    if not part.is_increasing():
        out.append("breakpoints not increasing")

    dim = problem.dim
    if dim % 2 != 0:
        out.append(f"dimension: N={dim} must be even")
    m = dim // 2

    out.extend(_validate_field(problem.coefficients, part, dim))

    for bnd in (problem.boundary_left, problem.boundary_right):
        rows, cols = bnd.matrix.shape
        if rows != m:
            out.append(f"boundary_{bnd.side}: {rows} rows, expected m={m}")
        if cols != dim:
            out.append(f"boundary_{bnd.side}: {cols} columns, expected N={dim}")
        degree = bnd.matrix.degree
        if degree > bnd.max_degree:
            out.append(
                f"boundary_{bnd.side}: lambda degree {degree} exceeds cap {bnd.max_degree}"
            )
        if not np.all(np.isfinite(bnd.matrix.coeffs)):
            out.append(f"boundary_{bnd.side}: nonfinite coefficient")
            continue
        # lambda-free rows have one rank, which lambda = 0 shows
        for lam in (0.0,) if degree == 0 else (0.0, 1j):
            rank = adjugate_table(bnd(lam))[0]
            if rank != min(rows, dim):
                out.append(f"boundary_{bnd.side}: rank {rank} < {rows} at lambda={lam}")
                break

    if len(problem.conjugations) != n - 1:
        out.append(f"conjugations: {len(problem.conjugations)} given, expected {n - 1}")
    seen = set()
    for conj in problem.conjugations:
        if not (1 <= conj.interface <= n - 1):
            out.append(f"conjugation interface index {conj.interface} out of range")
            continue
        if conj.interface in seen:
            out.append(f"conjugation interface {conj.interface} repeated")
        seen.add(conj.interface)
        for tag, pm in (("D", conj.d_matrix), ("B", conj.b_matrix)):
            if pm.shape != (dim, dim):
                out.append(
                    f"conjugation {conj.interface}: {tag} shape {pm.shape}, "
                    f"expected ({dim}, {dim})"
                )
            if pm.degree > MAX_LAMBDA_DEGREE:
                out.append(
                    f"conjugation {conj.interface}: {tag} lambda degree "
                    f"{pm.degree} exceeds cap {MAX_LAMBDA_DEGREE}"
                )
            if not np.all(np.isfinite(pm.coeffs)):
                out.append(f"conjugation {conj.interface}: {tag} nonfinite coefficient")
        # a B of the wrong shape, or with nonfinite entries, is not probed
        bmat = conj.b_matrix
        if bmat.shape == (dim, dim) and np.all(np.isfinite(bmat.coeffs)) and is_singular(bmat(0.0)):
            out.append(f"conjugation {conj.interface}: Bmat singular at lambda=0")

    return out


def _validate_field(coeffs: CoefficientField, part: Partition, dim: int) -> list[str]:
    out: list[str] = []
    n = part.n_intervals
    bound_ok = bool(np.isfinite(coeffs.bound)) and coeffs.bound >= 0
    if not bound_ok:
        out.append(f"bound: {coeffs.bound:g} must be finite and >= 0")
    scales = [1.0] * n
    if len(coeffs.denominators) != n:
        out.append(f"coefficients: {len(coeffs.denominators)} denominators, expected {n}")
    for i, q in enumerate(coeffs.denominators[:n]):
        if q is None:
            continue
        if not 1 <= len(q) <= MAX_LAMBDA_DEGREE + 1:
            out.append(f"denominator[{i}]: {len(q)} coefficients, degree cap {MAX_LAMBDA_DEGREE}")
        elif not np.all(np.isfinite(q)):
            out.append(f"denominator[{i}]: nonfinite coefficient")
        elif not any(q):
            out.append(f"denominator[{i}]: identically zero")
        else:
            scales[i] = max(abs(c) for c in q)
    for tag, seq in (("A", coeffs.a_polys), ("B", coeffs.b_polys), ("C", coeffs.c_polys)):
        if len(seq) != n:
            out.append(f"coefficients {tag}: {len(seq)} intervals, expected {n}")
            continue
        for i, pm in enumerate(seq):
            if pm.shape != (dim, dim):
                out.append(f"coefficients {tag}[{i}]: shape {pm.shape}, expected ({dim}, {dim})")
            degree = pm.degree
            if degree > MAX_Y_DEGREE:
                out.append(f"coefficients {tag}[{i}]: y degree {degree} exceeds cap {MAX_Y_DEGREE}")
            if not np.all(np.isfinite(pm.coeffs)):
                out.append(f"coefficients {tag}[{i}]: nonfinite coefficient")
                continue
            if not bound_ok:
                continue
            if degree == 0:
                # every sample of a constant is its one coefficient
                vals = pm.coeffs[0]
            else:
                vals = pm(np.linspace(*part.interval(i), _BOUND_SAMPLES))
            worst = float(np.max(np.abs(vals)))
            bound = coeffs.bound * scales[i]
            if worst > bound * (1 + 1e-12):
                out.append(
                    f"coefficients {tag}[{i}]: |entry| up to {worst:.6g} "
                    f"exceeds declared bound {bound:.6g}"
                )
    return out


def insert_breakpoint(problem: ProblemDefinition, y_new: float) -> ProblemDefinition:
    """New problem with an artificial breakpoint and identity conjugation.

    The coefficient data on the split interval is duplicated on both halves,
    so the underlying differential problem is unchanged.
    """
    bps = problem.partition.breakpoints
    if not (bps[0] < y_new < bps[-1]):
        raise ValueError(f"y_new={y_new} not interior to the domain")
    if y_new in bps:
        raise ValueError(f"y_new={y_new} is already a breakpoint")
    split = next(i for i in range(problem.partition.n_intervals) if bps[i] < y_new < bps[i + 1])

    new_part = Partition(bps[: split + 1] + (y_new,) + bps[split + 1 :])
    coeffs = problem.coefficients
    new_coeffs = CoefficientField(
        a_polys=_dup(coeffs.a_polys, split),
        b_polys=_dup(coeffs.b_polys, split),
        c_polys=_dup(coeffs.c_polys, split),
        bound=coeffs.bound,
        denominators=_dup(coeffs.denominators, split),
    )

    new_conj = [ConjugationOperator.identity(split + 1, problem.dim)]
    for conj in problem.conjugations:
        idx = conj.interface if conj.interface <= split else conj.interface + 1
        new_conj.append(replace(conj, interface=idx))
    new_conj.sort(key=lambda c: c.interface)

    return replace(
        problem,
        partition=new_part,
        coefficients=new_coeffs,
        conjugations=tuple(new_conj),
    )


def _dup(seq: Sequence, split: int) -> tuple:
    return tuple(seq[: split + 1]) + (seq[split],) + tuple(seq[split + 1 :])
