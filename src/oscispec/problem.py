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
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import adjugate_form, rref_null_basis
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

    @cached_property
    def midpoints(self) -> tuple[float, ...]:
        """The midpoint of each interval, in order."""
        b = self.breakpoints
        return tuple(0.5 * (b[i] + b[i + 1]) for i in range(self.n_intervals))

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
class LambdaCoefficientField:
    """Per-interval reduced coefficient evaluators a(y, lambda).

    Covers models whose reduced coefficients are rational in lambda (for
    example a Kelvin-Voigt factor dividing the restoring term), which cannot
    be stored as the polynomial triple.  Each evaluator maps (y, lam) to the
    complex matrices of the reduced first-order system: lam is a complex
    ndarray, 0-d for one lambda or 1-D for a stack, and the result has shape
    lam.shape + (N, N), so a stack takes one call.  Each lambda of a stack
    must get the bits of its own 0-d call: numpy's elementwise array loops
    give that, but numpy turns 0-d results into scalars, whose arithmetic
    may round otherwise.  A pole raises PoleError naming the first
    offending lambda in stack order, in its message and as its lam.

    bound scales the coefficient magnitude as bound * (1 + |lam| + |lam|^2),
    used for step-size estimation.  y_independent marks evaluators constant
    in y so integration can evaluate them once per interval.

    Not serializable to the JSON problem format.
    """

    partition: Partition
    evaluators: tuple[Callable[[float, np.ndarray], np.ndarray], ...]
    dim: int
    bound: float
    y_independent: bool = True

    @property
    def varies_in_y(self) -> bool:
        return not self.y_independent


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

    @cached_property
    def constant_table(self) -> tuple[int, np.ndarray | None] | None:
        """Rank and adjugate-form left null basis of lambda-free (degree-0)
        rows, formed once per problem.

        Every finite lambda evaluates such rows to the same complex matrix,
        so its rank check and table (linalg.adjugate_form) hold for all.
        The table is None below full row rank, and the pair is None where
        the rows depend on lambda.  The table is read-only: it is shared by
        every determinant evaluation of the problem.
        """
        return _rank_and_table(self.matrix(0j)) if self.matrix.is_constant() else None


def _rank_and_table(rows: np.ndarray) -> tuple[int, np.ndarray | None]:
    """The rank of boundary rows and, at full row rank, their read-only
    adjugate-form table."""
    reduced = rref_null_basis(rows)
    if reduced[0] != rows.shape[0]:
        return reduced[0], None
    table = adjugate_form(rows, reduced)
    table.flags.writeable = False
    return reduced[0], table


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

    @cached_property
    def conjugations_in_order(self) -> tuple[ConjugationOperator, ...]:
        """The conjugations by interface index, sorted once per problem."""
        return tuple(sorted(self.conjugations, key=lambda c: c.interface))


@dataclass(frozen=True)
class ReducedSystem:
    """A lambda-bound first-order system ready for integration.

    dim is the dimension of the state; boundary and interface matrices are
    constant (already evaluated at lambda).  constant_coeffs holds, per
    interval, the coefficient matrix that coeff_batch returns at every y, or
    None where it depends on y.  left_table is the left boundary's constant
    table (BoundaryOperator.constant_table), or None: the left rows are then
    reduced per call.  coefficient_bound is the problem's declared
    coefficient bound; `bound` scales it to lambda.

    lam is one complex number, or a 1-D array for a stack of lambdas: then
    every matrix carries a leading lambda axis, (K, rows, cols), except a
    lambda-free boundary or interface matrix, which is one (rows, cols)
    matrix shared by the stack, and coeff_batch returns
    (len(ys), K, dim, dim).

    derivatives, formed only when asked for, holds the lambda-derivative U0'
    of the left table (shaped as the table), the right rows' block
    [[R, 0], [R', R]] and each interface's (D', B'); the coefficients are
    then the variational blocks [[A, 0], [A_lam, A]], whose integration
    carries dPhi/dlam beside Phi.
    """

    partition: Partition
    dim: int
    lam: complex
    left_matrix: np.ndarray
    right_matrix: np.ndarray
    interfaces: tuple[tuple[np.ndarray, np.ndarray], ...]
    coefficient_bound: float
    coeff_batch: Callable[[int, np.ndarray], np.ndarray]
    constant_coeffs: tuple[np.ndarray | None, ...]
    left_table: tuple[int, np.ndarray | None] | None = None
    derivatives: tuple | None = None

    @property
    def bound(self) -> float:
        """The reduced coefficient bound M (1 + |lam| + |lam|^2) used for
        step-size estimation, formed only when asked for."""
        r = abs(self.lam)
        return self.coefficient_bound * (1.0 + r + r * r)

    def coefficient(self, interval: int, y: float) -> np.ndarray:
        return self.coeff_batch(interval, np.asarray([float(y)]))[0]


def each_lambda(lam) -> list[complex]:
    """The lambdas of a scalar or of a 1-D stack, in order, as Python numbers."""
    return lam.tolist() if isinstance(lam, np.ndarray) and lam.ndim else [lam]


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
        degree = bnd.matrix.degree
        if degree > bnd.max_degree:
            out.append(
                f"boundary_{bnd.side}: lambda degree {degree} exceeds cap {bnd.max_degree}"
            )
        if degree == 0:
            # lambda-free rows have one rank, formed with their constant table
            ranks = ((0.0, bnd.constant_table[0]),)
        else:
            ranks = ((lam, rref_null_basis(bnd(lam))[0]) for lam in (0.0, 1j))
        for lam, rank in ranks:
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
            degree = pm.degree
            if degree > MAX_Y_DEGREE:
                out.append(f"coefficients {tag}[{i}]: y degree {degree} exceeds cap {MAX_Y_DEGREE}")
            if not np.all(np.isfinite(pm.coeffs)):
                out.append(f"coefficients {tag}[{i}]: nonfinite coefficient")
                continue
            if degree == 0:
                # every sample of a constant is its one coefficient
                vals = pm.coeffs[0]
            else:
                lo, hi = coeffs.partition.interval(i) if i < n else (0.0, 0.0)
                vals = pm(np.linspace(lo, hi, _BOUND_SAMPLES))
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
        try:
            mat = np.asarray(ev(coeffs.partition.midpoints[i], np.asarray(1j)))
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
