"""Problem data model.

A problem is defined piecewise on an interval: within each subinterval the
state z(y, t) of dimension N obeys

    dz_k/dy = sum_j A_kj(y) z_j + B_kj(y) d2z_j/dt2 + C_kj(y) dz_j/dt,

with m = N/2 homogeneous boundary rows at each end (entries polynomial in
the spectral parameter) and an interface relation D(lam) z_left = B(lam)
z_right at every interior breakpoint.

All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import rref_null_basis
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

    def length(self, i: int) -> float:
        a, b = self.interval(i)
        return b - a

    def is_increasing(self) -> bool:
        b = self.breakpoints
        return all(b[i] < b[i + 1] for i in range(len(b) - 1))


@dataclass(frozen=True)
class CoefficientField:
    """Per-interval polynomial coefficient matrices A, B, C with a bound.

    a_polys/b_polys/c_polys hold one N x N PolyMatrix (in y) per interval.
    bound is the declared constant M with |entry(y)| <= M on its interval.
    """

    partition: Partition
    a_polys: tuple[PolyMatrix, ...]
    b_polys: tuple[PolyMatrix, ...]
    c_polys: tuple[PolyMatrix, ...]
    bound: float

    @property
    def dim(self) -> int:
        return self.a_polys[0].shape[0]


@dataclass(frozen=True)
class LambdaCoefficientField:
    """Per-interval reduced coefficient evaluators a(y, lambda).

    Covers models whose reduced coefficients are rational in lambda (for
    example a Kelvin-Voigt factor dividing the restoring term), which cannot
    be stored as the polynomial triple.  Each evaluator maps (y, lam) to the
    N x N complex matrix of the reduced first-order system at that lambda.

    bound scales the coefficient magnitude as bound * (1 + |lam| + |lam|^2),
    used for step-size estimation.  y_independent marks evaluators constant
    in y so integration can evaluate them once per interval.

    Not serializable to the JSON problem format.
    """

    partition: Partition
    evaluators: tuple[Callable[[float, complex], np.ndarray], ...]
    dim: int
    bound: float
    y_independent: bool = True


@dataclass(frozen=True)
class BoundaryOperator:
    """One end condition block: matrix(lam) z(end) = 0, matrix m x N."""

    side: str  # "left" or "right"
    matrix: PolyMatrix
    max_degree: int = MAX_LAMBDA_DEGREE

    def __call__(self, lam: complex) -> np.ndarray:
        return self.matrix(lam)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


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
    coefficients: CoefficientField | LambdaCoefficientField
    boundary_left: BoundaryOperator
    boundary_right: BoundaryOperator
    conjugations: tuple[ConjugationOperator, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    #: optional scalar second-order description consumed by the FD oracle
    scalar_form: object | None = None

    @property
    def dim(self) -> int:
        return self.coefficients.dim

    @property
    def half_dim(self) -> int:
        return self.dim // 2


@dataclass(frozen=True)
class ReducedSystem:
    """A lambda-bound first-order system ready for integration.

    dim is N for the complex path and 2N for the real-split path; boundary
    and interface matrices are constant (already evaluated at lambda).
    constant_coeffs holds, per interval, the coefficient matrix that
    coeff_batch returns at every y, or None where it depends on y.
    """

    partition: Partition
    dim: int
    lam: complex
    is_real: bool
    left_matrix: np.ndarray
    right_matrix: np.ndarray
    interfaces: tuple[tuple[np.ndarray, np.ndarray], ...]
    bound: float
    coeff_batch: Callable[[int, np.ndarray], np.ndarray]
    constant_coeffs: tuple[np.ndarray | None, ...]

    def coefficient(self, interval: int, y: float) -> np.ndarray:
        return self.coeff_batch(interval, np.asarray([float(y)]))[0]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def evaluate_coefficients(field: CoefficientField, interval: int, y: float):
    """Values (A(y), B(y), C(y)) on one interval; exact for polynomials.

    Raises ValueError if y lies outside the closed interval.
    """
    lo, hi = field.partition.interval(interval)
    if not (lo <= y <= hi):
        raise ValueError(f"y={y} outside interval {interval} [{lo}, {hi}]")
    return (
        field.a_polys[interval](y),
        field.b_polys[interval](y),
        field.c_polys[interval](y),
    )


def validate(problem: ProblemDefinition) -> list[str]:
    """Collect model violations; an empty list means the problem is well formed.

    Violations are data, not exceptions: dimension mismatches, non-increasing
    breakpoints, degree caps, coefficient-bound violations and singular
    interface matrices at lambda = 0 are all reported together.
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

    coeffs = problem.coefficients
    if coeffs.partition != part:
        out.append("coefficients: partition differs from problem partition")

    if isinstance(coeffs, CoefficientField):
        out.extend(_validate_poly_field(coeffs, n, dim))
    else:
        out.extend(_validate_lambda_field(coeffs, n, dim))

    for bnd in (problem.boundary_left, problem.boundary_right):
        rows, cols = bnd.matrix.shape
        if rows != m:
            out.append(f"boundary_{bnd.side}: {rows} rows, expected m={m}")
        if cols != dim:
            out.append(f"boundary_{bnd.side}: {cols} columns, expected N={dim}")
        if bnd.matrix.degree > bnd.max_degree:
            out.append(
                f"boundary_{bnd.side}: lambda degree {bnd.matrix.degree} "
                f"exceeds cap {bnd.max_degree}"
            )
        for lam in (0.0, 1j):
            mat = bnd(lam)
            rank, _ = rref_null_basis(mat)
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
        bmat0 = conj.b_matrix(0.0)
        scale = float(np.max(np.abs(bmat0)))
        if scale == 0.0 or abs(np.linalg.det(bmat0)) <= TOL_SINGULAR * scale**bmat0.shape[0]:
            out.append(f"conjugation {conj.interface}: Bmat singular at lambda=0")

    return out


def _validate_poly_field(coeffs: CoefficientField, n: int, dim: int) -> list[str]:
    out: list[str] = []
    for tag, seq in (("A", coeffs.a_polys), ("B", coeffs.b_polys), ("C", coeffs.c_polys)):
        if len(seq) != n:
            out.append(f"coefficients {tag}: {len(seq)} intervals, expected {n}")
            continue
        for i, pm in enumerate(seq):
            if pm.shape != (dim, dim):
                out.append(f"coefficients {tag}[{i}]: shape {pm.shape}, expected ({dim}, {dim})")
            if pm.degree > MAX_Y_DEGREE:
                out.append(f"coefficients {tag}[{i}]: y degree {pm.degree} exceeds cap {MAX_Y_DEGREE}")
            if not np.all(np.isfinite(pm.coeffs)):
                out.append(f"coefficients {tag}[{i}]: nonfinite coefficient")
                continue
            lo, hi = coeffs.partition.interval(i) if i < n else (0.0, 0.0)
            ys = np.linspace(lo, hi, _BOUND_SAMPLES)
            vals = pm(ys)
            worst = float(np.max(np.abs(vals)))
            if worst > coeffs.bound * (1 + 1e-12):
                out.append(
                    f"coefficients {tag}[{i}]: |entry| up to {worst:.6g} "
                    f"exceeds declared bound {coeffs.bound:.6g}"
                )
    return out


def _validate_lambda_field(coeffs: LambdaCoefficientField, n: int, dim: int) -> list[str]:
    out: list[str] = []
    if len(coeffs.evaluators) != n:
        out.append(f"coefficients: {len(coeffs.evaluators)} evaluators, expected {n}")
        return out
    for i, ev in enumerate(coeffs.evaluators):
        lo, hi = coeffs.partition.interval(i)
        try:
            mat = np.asarray(ev(0.5 * (lo + hi), 1j))
        except Exception as exc:  # probe failure is a model defect
            out.append(f"coefficients[{i}]: evaluator failed at probe: {exc}")
            continue
        if mat.shape != (dim, dim):
            out.append(f"coefficients[{i}]: shape {mat.shape}, expected ({dim}, {dim})")
        elif not np.all(np.isfinite(mat)):
            out.append(f"coefficients[{i}]: nonfinite value at probe")
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
    if isinstance(coeffs, CoefficientField):
        new_coeffs: CoefficientField | LambdaCoefficientField = CoefficientField(
            partition=new_part,
            a_polys=_dup(coeffs.a_polys, split),
            b_polys=_dup(coeffs.b_polys, split),
            c_polys=_dup(coeffs.c_polys, split),
            bound=coeffs.bound,
        )
    else:
        new_coeffs = replace(
            coeffs, partition=new_part, evaluators=_dup(coeffs.evaluators, split)
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
