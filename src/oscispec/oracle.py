"""Independent verification engines.

Two routes that share no code with the solve path: closed-form
characteristic functions for textbook string configurations, and a global
finite-difference discretization of the scalar second-order model solved as
a polynomial eigenvalue problem: shift-invert Arnoldi for a few leading
eigenvalues, which factors only the n x n matrix polynomial at the shift, or
dense QZ on the companion pencil for the whole spectrum.  Test and
verification use only; variable-in-y coefficients are not supported here
(the main solver supports them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: hard cap on the dimension of the dense linearized pencil (QZ route only;
#: the sparse route stores no dense matrix)
_DIM_CAP = 6000

#: eigenvalues with modulus above this are companion-pencil artifacts
_SPURIOUS_CUTOFF = 1e8

#: shift of the sparse route.  It sits on the positive imaginary axis, close
#: to the low oscillatory eigenvalues; 0 itself is unusable because rigid-body
#: models (machine_unit) have an eigenvalue within 1e-9 of it.
_SHIFT = 0.5j

#: Arnoldi restarts allowed per sparse attempt.  Certified runs on the
#: built-in models (n_fd 100 to 800, count 3 and 5) need at most 6; an
#: overdamped cluster just outside the requested eigenvalues stalls
#: convergence, and then the dense route is cheaper.
_ARNOLDI_MAXITER = 30


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_determinant(
    model_tag: str,
    p,
    rho: float = 1.0,
    tension: float = 1.0,
    length: float = 1.0,
    mass: float = 1.0,
    position: float = 0.5,
):
    """Textbook characteristic function whose zeros are the eigenfrequencies.

    fixed_fixed_string -> sin(k l); fixed_free_string -> cos(k l);
    point_mass_string (pinned-pinned, one mass) ->
    mass * p^2 sin(k c) sin(k (l-c)) - tension * k sin(k l), with k = p/a and
    a the wave speed.  A float p gives a float, an array of them an array.
    """
    a = math.sqrt(tension / rho)
    p = np.asarray(p, dtype=float)
    k = p / a
    if model_tag == "fixed_fixed_string":
        value = np.sin(k * length)
    elif model_tag == "fixed_free_string":
        value = np.cos(k * length)
    elif model_tag == "point_mass_string":
        c = position
        value = mass * p * p * np.sin(k * c) * np.sin(k * (length - c)) - (
            tension * k * np.sin(k * length)
        )
    else:
        raise ValueError(f"unknown closed-form tag {model_tag!r}")
    return float(value) if value.ndim == 0 else value


def closed_form_roots(
    model_tag: str,
    p_min: float,
    p_max: float,
    n_grid: int = 4000,
    xtol: float = 1e-13,
    **params,
) -> list[float]:
    """Brute-force bisection roots of a closed-form characteristic function.

    The grid is evaluated in one call, and every sign-change interval of it
    is bisected in lockstep, one call per halving; a grid point where the
    function is exactly 0 is a root itself.
    """
    ps = np.linspace(p_min, p_max, n_grid)
    vals = closed_form_determinant(model_tag, ps, **params)
    on_grid = np.flatnonzero(vals[:-1] == 0.0)
    cells = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))
    lo, hi, f_lo = ps[cells], ps[cells + 1], vals[cells]
    while True:
        live = hi - lo > xtol
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        f_mid = closed_form_determinant(model_tag, mid, **params)
        # a zero at the midpoint closes its interval there
        zero = live & (f_mid == 0.0)
        left = live & (f_lo * f_mid < 0)
        right = live & ~zero & ~left
        hi = np.where(left | zero, mid, hi)
        lo = np.where(right | zero, mid, lo)
        f_lo = np.where(right, f_mid, f_lo)
    found = np.concatenate([ps[on_grid], 0.5 * (lo + hi)])
    return found[np.argsort(np.concatenate([on_grid, cells]), kind="stable")].tolist()


# ---------------------------------------------------------------------------
# finite-difference polynomial eigenvalue oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarWaveForm:
    """Constant-coefficient scalar model a_tt u_tt = a_xx u_xx + a_xxt u_xxt.

    Boundary rows are pairs of lambda-polynomial coefficient tuples
    (poly_u, poly_ux) acting on (u, u_x) at the end; interface rows act on
    (u_left, u_x_left, u_right, u_x_right), two rows per interface.  This is
    the description the FD oracle discretizes; builders attach it to their
    problems as the oracle route.
    """

    breakpoints: tuple[float, ...]
    mass: tuple[float, ...]
    stiffness: tuple[float, ...]
    damping: tuple[float, ...]
    left_row: tuple[tuple[float, ...], tuple[float, ...]]
    right_row: tuple[tuple[float, ...], tuple[float, ...]]
    interface_rows: tuple[
        tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]], ...
    ] = ()


@dataclass(frozen=True)
class FDOracleConfig:
    """Grid size for the finite-difference route (central second differences,
    one-sided second-order end stencils)."""

    n_fd: int = 400

    def __post_init__(self):
        if self.n_fd < 50:
            raise ValueError("n_fd must be at least 50")


def fd_polynomial_eigenvalues(
    problem, config: FDOracleConfig = FDOracleConfig(), count: int | None = None
):
    """Eigenvalues of the globally discretized second-order problem.

    Central second differences for u_xx on roughly n_fd cells across the
    domain; boundary and interface u_x terms use one-sided second-order
    stencils.  The resulting matrix polynomial in lambda (degree 2, or 3
    when a boundary row carries third time derivatives) is linearized to a
    generalized eigenvalue problem.

    With count=None the whole finite spectrum is computed by dense QZ.  With
    count=k only the eigenvalues nearest a shift on the imaginary axis are
    computed, by shift-invert Arnoldi on the linearization; they are
    returned only when they provably contain the k leading oscillatory
    eigenvalues, so that leading_frequencies(result, k) equals the dense
    selection.  Otherwise (singular factorization, no convergence, or the
    certificate unmet) the dense route runs.  Returns finite eigenvalues
    sorted by |Im|.

    The matrix coefficients are assembled as (rows, columns, values) blocks,
    one per interval and degree for the interior stencils, and made dense
    only for the QZ route, which raises ValueError above _DIM_CAP; the
    sparse route takes any grid.

    The problem must carry a ScalarWaveForm (built-in models do); JSON
    problems have no oracle route.
    """
    if count is not None and count < 1:
        raise ValueError("count must be at least 1")
    form = getattr(problem, "scalar_form", None) or problem
    if not isinstance(form, ScalarWaveForm):
        raise ValueError("problem has no scalar second-order form; no oracle route")

    bps = form.breakpoints
    n_int = len(bps) - 1
    total = bps[-1] - bps[0]
    cells = [max(8, round(config.n_fd * (bps[i + 1] - bps[i]) / total)) for i in range(n_int)]
    offsets = []
    n_unknowns = 0
    for k in cells:
        offsets.append(n_unknowns)
        n_unknowns += k + 1

    max_deg = max(
        2,
        *(len(p) - 1 for p in form.left_row),
        *(len(p) - 1 for p in form.right_row),
        *(len(p) - 1 for rows in form.interface_rows for row in rows for p in row),
    )

    # per degree, (rows, columns, values) blocks in the order they add up
    entries: list[list[tuple]] = [[] for _ in range(max_deg + 1)]
    row = 0

    # interior equations: mass lam^2 u = (stiffness + lam damping) u_xx
    central = np.array([1.0, -2.0, 1.0])
    for i in range(n_int):
        h = (bps[i + 1] - bps[i]) / cells[i]
        w = 1.0 / (h * h)
        nodes = offsets[i] + np.arange(1, cells[i])
        rows = row + np.arange(cells[i] - 1)
        row += cells[i] - 1
        entries[2].append((rows, nodes, np.full(len(rows), form.mass[i])))
        # the stencil (g - 1, g, g + 1) of each node g, row by row
        rows3 = np.repeat(rows, 3)
        cols3 = np.repeat(nodes, 3) + np.tile([-1, 0, 1], len(nodes))
        for deg, coef in ((0, form.stiffness[i]), (1, form.damping[i])):
            entries[deg].append((rows3, cols3, np.tile(-(coef * central * w), len(nodes))))

    # boundary rows with one-sided second-order u_x stencils
    h0 = (bps[1] - bps[0]) / cells[0]
    _add_trace_row(entries, row, form.left_row, offsets[0], h0, forward=True)
    row += 1
    hl = (bps[-1] - bps[-2]) / cells[-1]
    _add_trace_row(
        entries, row, form.right_row, offsets[-1] + cells[-1], hl, forward=False
    )
    row += 1

    # interface rows
    for i, rows in enumerate(form.interface_rows):
        h_left = (bps[i + 1] - bps[i]) / cells[i]
        h_right = (bps[i + 2] - bps[i + 1]) / cells[i + 1]
        left_node = offsets[i] + cells[i]
        right_node = offsets[i + 1]
        for row_polys in rows:
            pu_m, pux_m, pu_p, pux_p = row_polys
            _add_trace_row(entries, row, (pu_m, pux_m), left_node, h_left, forward=False)
            _add_trace_row(entries, row, (pu_p, pux_p), right_node, h_right, forward=True)
            row += 1

    assert row == n_unknowns

    eigs = None if count is None else _polyeig_near(_sparse_coefficients(entries, n_unknowns), count)
    if eigs is None:
        if max_deg * n_unknowns > _DIM_CAP:
            raise ValueError(
                f"linearized dimension {max_deg * n_unknowns} exceeds cap {_DIM_CAP}"
            )
        eigs = _polyeig(_dense_coefficients(entries, n_unknowns))
        eigs = eigs[np.isfinite(eigs)]
        eigs = eigs[np.abs(eigs) < _SPURIOUS_CUTOFF]
    return eigs[np.argsort(np.abs(eigs.imag), kind="stable")]


def _add_trace_row(entries, row: int, polys, node: int, h: float, forward: bool):
    """Add the entries of poly_u(lam) u + poly_ux(lam) u_x at an interval end
    node."""
    pu, pux = polys
    for deg, c in enumerate(pu):
        if c:
            entries[deg].append(([row], [node], [c]))
    if forward:
        stencil = ((0, -3.0), (1, 4.0), (2, -1.0))
    else:
        stencil = ((0, 3.0), (-1, -4.0), (-2, 1.0))
    for deg, c in enumerate(pux):
        if c:
            cols = [node + dj for dj, _ in stencil]
            entries[deg].append(([row] * 3, cols, [c * s / (2.0 * h) for _, s in stencil]))


def _triplets(deg_entries):
    """One degree's (rows, columns, values) blocks joined into three arrays."""
    if not deg_entries:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    rows, cols, vals = zip(*deg_entries)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals, dtype=float)


def _dense_coefficients(entries, n: int) -> list[np.ndarray]:
    """The n x n coefficient matrices, entries summed in order, without the
    all-zero top degrees."""
    mats = []
    for deg_entries in entries:
        mat = np.zeros((n, n))
        rows, cols, vals = _triplets(deg_entries)
        np.add.at(mat, (rows, cols), vals)
        mats.append(mat)
    while len(mats) > 1 and not np.any(mats[-1]):
        mats.pop()
    return mats


def _sparse_coefficients(entries, n: int) -> list:
    """The coefficient matrices as CSC arrays holding their nonzero entries
    only, without the all-zero top degrees."""
    import scipy.sparse

    mats = []
    for deg_entries in entries:
        rows, cols, vals = _triplets(deg_entries)
        mat = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsc()
        mat.eliminate_zeros()
        mats.append(mat)
    while len(mats) > 1 and not mats[-1].nnz:
        mats.pop()
    return mats


def _companion(mats, eye):
    """Block rows of the companion pencil (A, B) of sum_k lam^k mats[k].

    A x = lam B x with x = (u, lam u, ..., lam^(deg-1) u); None marks a zero
    block.  The dense QZ route assembles it; the sparse route applies its
    shift-invert operator by _shift_invert without forming it.
    """
    deg = len(mats) - 1
    a = [[eye if j == i + 1 else None for j in range(deg)] for i in range(deg - 1)]
    b = [[eye if j == i else None for j in range(deg)] for i in range(deg - 1)]
    a.append([-m for m in mats[:-1]])
    b.append([None] * (deg - 1) + [mats[-1]])
    return a, b


def _polyeig(mats: list[np.ndarray]) -> np.ndarray:
    """All eigenvalues of sum_k lam^k mats[k], by QZ on the dense pencil."""
    import scipy.linalg

    n = mats[0].shape[0]
    zero = np.zeros((n, n))
    big_a, big_b = (
        np.block([[zero if blk is None else blk for blk in row] for row in rows])
        for rows in _companion(mats, np.eye(n))
    )
    return scipy.linalg.eigvals(big_a, big_b)


def _shift_invert(mats, lu):
    """The map y -> (A - sigma B)^-1 B y of the companion pencil of the CSC
    matrices mats at sigma = _SHIFT, given lu, a factorization of
    P(sigma) = sum_k sigma^k mats[k].

    With y = (y_0, ..., y_(d-1)), the first d - 1 block rows of the pencil
    give x_k = sigma^k x_0 + c_k, where c_0 = 0 and
    c_k = sigma c_(k-1) + y_(k-1); the last one then leaves one n x n solve,
    P(sigma) x_0 = -(mats[d] (y_(d-1) + sigma c_(d-1)) + sum_(0<k<d) mats[k] c_k).
    """
    deg = len(mats) - 1
    n = mats[0].shape[0]
    powers = _SHIFT ** np.arange(deg)[:, None]

    def apply(y):
        y = np.reshape(y, (deg, n))
        c = np.empty((deg, n), dtype=complex)
        c[0] = 0.0
        for k in range(1, deg):
            c[k] = _SHIFT * c[k - 1] + y[k - 1]
        rhs = mats[deg] @ (y[deg - 1] + _SHIFT * c[deg - 1])
        for k in range(1, deg):
            rhs += mats[k] @ c[k]
        c += powers * lu.solve(-rhs)
        return c.ravel()

    return apply


def _polyeig_near(mats: list[np.ndarray], count: int) -> np.ndarray | None:
    """Eigenvalues nearest _SHIFT that certainly hold the count leading
    oscillatory ones, or None when that cannot be shown.

    Arnoldi on (A - sigma B)^-1 B, for the companion pencil (A, B), returns
    the nev eigenvalues nearest sigma.  That operator costs one n x n solve
    with P(sigma), factored once (see _shift_invert); the 2n- or 3n-dimensional
    pencil is never formed.  Every eigenvalue inside the disc around sigma
    that the farthest Ritz value spans has been found.  When that disc
    contains the whole sector |Re| <= Im <= Im(k-th leading), no eigenvalue
    the dense selection would pick is missing.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    mats = [scipy.sparse.csc_array(m) for m in mats]
    p_shift = sum(_SHIFT**k * m for k, m in enumerate(mats)).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(p_shift)
    except RuntimeError:  # exactly singular: the shift is an eigenvalue
        return None
    size = (len(mats) - 1) * p_shift.shape[0]
    op = scipy.sparse.linalg.LinearOperator(
        (size, size), matvec=_shift_invert(mats, lu), dtype=complex
    )
    # fixed start vector: reruns give the same bytes
    v0 = np.random.default_rng(0).standard_normal(size)
    # the certificate disc reaches about sqrt(2) Im(k-th), which holds about
    # 3k eigenvalues of a string-like spectrum (conjugates included)
    for nev in (3 * count + 3, 6 * count + 6):
        if nev >= size - 1:
            break
        try:
            theta = scipy.sparse.linalg.eigs(
                op, k=nev, v0=v0, maxiter=_ARNOLDI_MAXITER, return_eigenvectors=False
            )
        except scipy.sparse.linalg.ArpackError:
            return None
        eigs = _SHIFT + 1.0 / theta
        lead = leading_frequencies(eigs, count)
        if len(lead) < count:
            continue
        top = lead[-1].imag
        reach = max(abs(_SHIFT), abs(complex(top, top) - _SHIFT))
        # strict, with room for the Ritz values' rounding
        if reach < (1.0 - 1e-9) * np.max(np.abs(eigs - _SHIFT)):
            return eigs
    return None


def leading_frequencies(eigs: np.ndarray, count: int, im_min: float = 1e-6) -> np.ndarray:
    """First count eigenvalues of the oscillatory sector, ordered by Im.

    The sector is |Re| <= Im with Im above im_min.  It leaves out overdamped
    eigenvalues, such as the Kelvin-Voigt cluster of the FD spectrum near
    Re = -stiffness/damping, whose Im can be small.
    """
    sel = eigs[(eigs.imag > im_min) & (np.abs(eigs.real) <= eigs.imag)]
    sel = sel[np.argsort(sel.imag, kind="stable")]
    return sel[:count]
