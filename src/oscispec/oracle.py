"""Independent verification engines.

Two routes that share no code with the solve path: closed-form
characteristic functions for textbook string configurations, and a global
finite-difference discretization of the scalar second-order model solved as
a polynomial eigenvalue problem in plain numpy: one shift-invert operator,
through one banded factorization, serves Arnoldi for a few leading
eigenvalues and a dense eigendecomposition for the whole spectrum.  Test and
verification use only; variable-in-y coefficients are not supported here
(the main solver supports them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: hard cap on the linearized dimension of the whole-spectrum route, whose
#: dense operator takes 576 MB at the cap (the sparse route stores none)
_DIM_CAP = 6000

#: eigenvalues with modulus above this are artifacts: shift-invert images of
#: the pencil's defective infinite eigenvalues, whose mu is rounding, not 0
_SPURIOUS_CUTOFF = 1e8

#: shift of both routes.  Real, so a real pencil stays in real arithmetic;
#: 0.5 from machine_unit's rigid-body eigenvalue at 0, and right of the
#: imaginary axis, where a passive model has no eigenvalue.  A feedback one
#: may (pipeline: 0.538 at alpha1=1.5); one on the shift is left to the
#: whole-spectrum route at _SECOND_SHIFT.
_SHIFT = 0.5

#: the whole-spectrum route's shift where P(_SHIFT) is singular
_SECOND_SHIFT = 0.5 + 2j

#: half-bandwidth of the FD coefficient matrices with each row at its node:
#: a one-sided end stencil reaches two nodes, an interface row across to the
#: other side
_HALF_BAND = 3

#: Arnoldi steps allowed per sparse attempt (the Krylov dimension cap).
#: Certified runs on the built-in models (n_fd 100 to 1600, count 1, 3 and
#: 5) take 18 to 50; a run not certified by the cap is refused, and the
#: dense route runs.
_KRYLOV_CAP = 100

#: Arnoldi steps before the first Ritz check, per requested eigenvalue, and
#: between later checks.  A check (an eigendecomposition of the real
#: Hessenberg matrix of order 30 to 38) costs about as much as 5 to 10 steps
#: at n_fd=400; the built-in models certify at 9 to 12 steps per eigenvalue.
_FIRST_CHECK = 10
_NEXT_CHECK = 4

#: a Ritz value theta is converged when its residual is below this times |theta|
_RITZ_TOL = 1e-10


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
    (u_left, u_x_left, u_right, u_x_right), two rows per interface.  It is
    the built-in models' one description: the FD oracle discretizes it, and
    each builder derives its first-order problem from it and attaches it to
    that problem as the oracle route.
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

    Both routes use its shift-invert operator (A - sigma B)^-1 B, whose
    eigenvalues mu give lam = sigma + 1/mu.  With count=None the whole
    finite spectrum comes from that operator's dense matrix.  With count=k
    only the eigenvalues nearest the shift are computed, by Arnoldi; they
    are returned only when they provably contain the k leading oscillatory
    eigenvalues, so that leading_frequencies(result, k) equals the
    whole-spectrum selection.  Otherwise (a singular factorization, or the
    certificate unmet within _KRYLOV_CAP Arnoldi steps) the whole-spectrum
    route runs.  Returns finite eigenvalues sorted by |Im|.

    Each coefficient matrix is held as its 2 _HALF_BAND + 1 diagonals from
    assembly on: every equation row is added straight into the band row of
    the node it is centred on, which makes every coefficient banded.  The
    whole-spectrum route raises ValueError above _DIM_CAP; the sparse route
    takes any grid.

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

    # bands[k, g, _HALF_BAND + d] is entry (g, g + d) of the k-th coefficient
    # matrix, in the equation row centred on node g
    bands = np.zeros((max_deg + 1, n_unknowns, 2 * _HALF_BAND + 1))

    # interior equations: mass lam^2 u = (stiffness + lam damping) u_xx
    central = np.array([1.0, -2.0, 1.0])
    for i in range(n_int):
        h = (bps[i + 1] - bps[i]) / cells[i]
        w = 1.0 / (h * h)
        nodes = slice(offsets[i] + 1, offsets[i] + cells[i])
        bands[2, nodes, _HALF_BAND] += form.mass[i]
        # the stencil (g - 1, g, g + 1) of each node g
        for deg, coef in ((0, form.stiffness[i]), (1, form.damping[i])):
            bands[deg, nodes, _HALF_BAND - 1 : _HALF_BAND + 2] += -(coef * central * w)

    # boundary rows with one-sided second-order u_x stencils
    h0 = (bps[1] - bps[0]) / cells[0]
    _add_trace_row(bands, 0, form.left_row, 0, h0, forward=True)
    hl = (bps[-1] - bps[-2]) / cells[-1]
    last = n_unknowns - 1
    _add_trace_row(bands, last, form.right_row, last, hl, forward=False)

    # interface rows, the first centred on the left end node, the second on
    # the right one
    for i, rows in enumerate(form.interface_rows):
        h_left = (bps[i + 1] - bps[i]) / cells[i]
        h_right = (bps[i + 2] - bps[i + 1]) / cells[i + 1]
        left_node = offsets[i] + cells[i]
        right_node = offsets[i + 1]
        for row_polys, centre in zip(rows, (left_node, right_node)):
            pu_m, pux_m, pu_p, pux_p = row_polys
            _add_trace_row(bands, centre, (pu_m, pux_m), left_node, h_left, forward=False)
            _add_trace_row(bands, centre, (pu_p, pux_p), right_node, h_right, forward=True)

    # without the all-zero top degrees
    top = len(bands)
    while top > 1 and not bands[top - 1].any():
        top -= 1
    bands = bands[:top]
    eigs = None if count is None else _polyeig_near(bands, count)
    if eigs is None:
        if max_deg * n_unknowns > _DIM_CAP:
            raise ValueError(
                f"linearized dimension {max_deg * n_unknowns} exceeds cap {_DIM_CAP}"
            )
        eigs = _polyeig_all(bands)
    return eigs[np.argsort(np.abs(eigs.imag), kind="stable")]


def _add_trace_row(bands, centre: int, polys, node: int, h: float, forward: bool):
    """Add poly_u(lam) u + poly_ux(lam) u_x at the interval end node into
    the equation row centred on node centre."""
    pu, pux = polys
    for deg, c in enumerate(pu):
        bands[deg, centre, _HALF_BAND + node - centre] += c
    if forward:
        stencil = ((0, -3.0), (1, 4.0), (2, -1.0))
    else:
        stencil = ((0, 3.0), (-1, -4.0), (-2, 1.0))
    for deg, c in enumerate(pux):
        for dj, s in stencil:
            bands[deg, centre, _HALF_BAND + node + dj - centre] += c * s / (2.0 * h)


def _band_factor(band: np.ndarray):
    """A solver r -> P^-1 r for the banded n x n matrix P whose row i holds
    entries (i, i - _HALF_BAND .. i + _HALF_BAND), or None when P is
    numerically singular.

    Substructuring: the nodes split into interior blocks of about sqrt(n)
    nodes, separated by _HALF_BAND separator nodes, so that no two interior
    blocks are coupled.  Each interior block's window, its rows and columns
    with the separators on either side, is cut from the band as one dense
    matrix.  The interior blocks are inverted (LAPACK pivots inside each),
    all in one batched call, and the separators' Schur complement, block
    tridiagonal and about 3 sqrt(n) wide, densely.  A solve is then two
    batched products over the blocks and one product with the inverse Schur
    complement.  A grid past the last node is padded with identity rows.
    """
    n = len(band)
    s = _HALF_BAND
    b = max(2 * s, round(math.sqrt(n)))
    period = b + s
    m = -(-(n + s) // period)
    # block j is interior nodes j period .. j period + b - 1, then separator
    # j; the last separator lies past the grid.  The band gets s zero rows
    # in front, for the separator before block 0, and identity rows behind
    padded = np.zeros((s + m * period, 2 * s + 1), dtype=band.dtype)
    padded[s : s + n] = band
    padded[s + n :, s] = 1.0
    # window j: rows j period - s .. (j + 1) period - 1, and their diagonals
    # scattered into the same columns
    size = period + s
    windows = np.lib.stride_tricks.as_strided(
        padded, (m, size, 2 * s + 1), (period * padded.strides[0], *padded.strides)
    )
    dense = np.zeros((m, size, size), dtype=band.dtype)
    rows = np.arange(size)
    for d in range(-s, s + 1):
        r = rows[max(0, -d) : size - max(0, d)]
        dense[:, r, r + d] = windows[:, r, s + d]
    inner = dense[:, s:-s, s:-s]
    to_sep = np.concatenate([dense[:, s:-s, :s], dense[:, s:-s, -s:]], axis=2)
    from_sep = np.concatenate([dense[:, :s, s:-s], dense[:, -s:, s:-s]], axis=1)
    try:
        inner_inv = np.linalg.inv(inner)
        # rows :b give an interior block's own solution, rows b: its
        # coupling into the separators on both sides
        gather = np.concatenate([inner_inv, from_sep @ inner_inv], axis=1)
        spread = inner_inv @ to_sep
        coupling = from_sep @ spread
        # the separators' own blocks and their coupling through the interiors,
        # with a zero separator at either end for the ones off the grid
        own = np.zeros(((m + 1) * s, (m + 1) * s), dtype=band.dtype)
        full = np.zeros_like(own)
        for j in range(m):
            own[(j + 1) * s : (j + 2) * s, (j + 1) * s : (j + 2) * s] = dense[j, -s:, -s:]
            full[j * s : (j + 2) * s, j * s : (j + 2) * s] += coupling[j]
        schur_inv = np.linalg.inv(own[s:-s, s:-s] - full[s:-s, s:-s])
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(gather)) and np.all(np.isfinite(schur_inv))):
        return None

    def solve(rhs):
        r = np.zeros((m, period), dtype=np.result_type(gather, rhs))
        r.reshape(-1)[:n] = rhs
        part = np.matmul(gather, r[:, :b, None])[..., 0]
        own, pull = part[:, :b], part[:, b:]
        # the separators, with the zero ones off the grid at either end
        x_sep = np.zeros((m + 1, s), dtype=r.dtype)
        sep = r[:-1, b:] - pull[:-1, s:] - pull[1:, :s]
        x_sep[1:-1] = (schur_inv @ sep.ravel()).reshape(m - 1, s)
        either_side = np.concatenate([x_sep[:-1], x_sep[1:]], axis=1)
        x = np.empty((m, period), dtype=r.dtype)
        x[:, :b] = own - np.matmul(spread, either_side[..., None])[..., 0]
        x[:, b:] = x_sep[1:]
        return x.reshape(-1)[:n]

    return solve


def _shift_invert(bands: np.ndarray, solve, shift: complex):
    """The map y -> (A - sigma B)^-1 B y at sigma = shift, for the companion
    pencil A x = lam B x, x = (u, lam u, ..., lam^(d-1) u), of the banded
    matrices bands, given solve, a solver with P(sigma) = sum_k sigma^k M_k.

    With y = (y_0, ..., y_(d-1)), the first d - 1 block rows of the pencil
    give x_k = sigma x_(k-1) + y_(k-1); the last one then leaves one n x n
    solve, P(sigma) x_0 = -sum_(k>0) M_k c_k, with c_0 = 0 and
    c_k = sigma c_(k-1) + y_(k-1).  That right-hand side is
    sum_i Q_i y_i with Q_i = sum_(k>i) sigma^(k-1-i) M_k, one banded product.
    Real bands and shift keep the arithmetic real: the map then takes real
    vectors only.
    """
    deg, n, width = len(bands) - 1, *bands.shape[1:]
    dtype = np.result_type(bands, shift)
    q = np.zeros((deg, n, width), dtype=dtype)
    for i in range(deg):
        for k in range(i + 1, deg + 1):
            q[i] += shift ** (k - 1 - i) * bands[k]
    # y with _HALF_BAND zeros either side; windows[i, r, j] is its entry
    # (i, r + j), the one that diagonal j of row r multiplies
    padded = np.zeros((deg, n + width - 1), dtype=dtype)
    windows = np.lib.stride_tricks.as_strided(
        padded, (deg, n, width), (padded.strides[0], padded.itemsize, padded.itemsize)
    )

    def apply(y):
        y = np.reshape(y, (deg, n))
        padded[:, _HALF_BAND : _HALF_BAND + n] = y
        x = np.empty((deg, n), dtype=dtype)
        x[0] = solve(-np.einsum("kij,kij->i", q, windows))
        for k in range(1, deg):
            x[k] = shift * x[k - 1] + y[k - 1]
        return x.ravel()

    return apply


def _polyeig_all(bands: np.ndarray) -> np.ndarray:
    """All finite eigenvalues of the banded matrix polynomial bands (as
    assembled by fd_polynomial_eigenvalues).

    The sparse route's operator (A - sigma B)^-1 B, one factorization of
    P(sigma) (see _band_factor and _shift_invert), is applied to every unit
    vector to form its dense matrix; each of its eigenvalues mu gives an
    eigenvalue lam = sigma + 1/mu of the pencil.  sigma is _SHIFT (real
    arithmetic), or _SECOND_SHIFT where P(_SHIFT) is singular.  The infinite
    eigenvalues have mu at rounding level; the lam that are not finite or
    reach _SPURIOUS_CUTOFF in modulus are dropped.
    """
    deg, n = len(bands) - 1, bands.shape[1]
    for shift in (_SHIFT, _SECOND_SHIFT):
        solve = _band_factor(np.tensordot(shift ** np.arange(deg + 1), bands, axes=1))
        if solve is not None:
            break
    else:
        raise ValueError("matrix polynomial singular at both shifts")
    apply = _shift_invert(bands, solve, shift)
    size = deg * n
    # column-major, as LAPACK takes it, so that each column is one write
    op = np.empty((size, size), dtype=np.result_type(bands, shift), order="F")
    unit = np.zeros(size, dtype=op.dtype)
    for j in range(size):
        unit[j] = 1.0
        op[:, j] = apply(unit)
        unit[j] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        eigs = shift + 1.0 / np.linalg.eigvals(op).astype(complex)
    eigs = eigs[np.isfinite(eigs)]
    return eigs[np.abs(eigs) < _SPURIOUS_CUTOFF]


def _polyeig_near(bands: np.ndarray, count: int) -> np.ndarray | None:
    """Eigenvalues nearest _SHIFT that certainly hold the count leading
    oscillatory ones, or None when that cannot be shown.

    Arnoldi on (A - sigma B)^-1 B, for the companion pencil (A, B) of the
    banded matrices bands, finds the eigenvalues nearest sigma first.  That
    operator costs one n x n solve with P(sigma), factored once (see
    _band_factor and _shift_invert); the 2n- or 3n-dimensional pencil is
    never formed.  The basis grows one vector per step, orthogonalized by
    classical Gram-Schmidt with a second pass where needed, from a fixed
    start vector (a multiplicative hash of the index), so reruns give equal
    arrays; the built-in models certify in 18 to 50 steps.  At checkpoints
    the Ritz values are accepted nearest first while their residuals are
    below _RITZ_TOL, at most 6 count + 6 of them.  Every eigenvalue inside
    the disc around sigma that the farthest accepted one spans has then
    been found.  When that disc holds the three vertices of the sector
    |Re| <= Im <= Im(k-th leading), no eigenvalue the whole-spectrum
    selection would pick is missing.  Past _KRYLOV_CAP steps, None.
    """
    deg, n = len(bands) - 1, bands.shape[1]
    solve = _band_factor(np.tensordot(_SHIFT ** np.arange(deg + 1), bands, axes=1))
    if solve is None:  # the shift is (numerically) an eigenvalue
        return None
    apply = _shift_invert(bands, solve, _SHIFT)
    size = deg * n
    dim = min(_KRYLOV_CAP, size)
    basis = np.empty((dim + 1, size), dtype=np.result_type(bands, _SHIFT))
    hess = np.zeros((dim + 1, dim), dtype=basis.dtype)
    # Knuth's multiplicative hash of the index: spread over [-1/2, 1/2)
    # without importing numpy.random
    start = (np.arange(size, dtype=np.uint64) * 2654435761 % 2**32) / 2**32 - 0.5
    basis[0] = start / np.linalg.norm(start)
    keep = 6 * count + 6
    check = min(_FIRST_CHECK * count, dim)
    for j in range(dim):
        w = apply(basis[j])
        known = basis[: j + 1]
        norm = math.sqrt(np.vdot(w, w).real)
        h = (known @ w.conj()).conj()
        w -= h @ known
        beta = math.sqrt(np.vdot(w, w).real)
        # a second pass unless the first one kept most of w (DGKS)
        if beta < 0.7 * norm:
            again = (known @ w.conj()).conj()
            w -= again @ known
            h += again
            beta = math.sqrt(np.vdot(w, w).real)
        hess[: j + 1, j] = h
        hess[j + 1, j] = beta
        if beta > 0.0:
            basis[j + 1] = w / beta
        if j + 1 < check and beta > 0.0:
            continue
        check = min(check + _NEXT_CHECK, dim)
        theta, vecs = np.linalg.eig(hess[: j + 1, : j + 1])
        order = np.argsort(-np.abs(theta), kind="stable")
        converged = beta * np.abs(vecs[-1, order]) <= _RITZ_TOL * np.abs(theta[order])
        accepted = min(keep, len(order) if converged.all() else int(np.argmin(converged)))
        eigs = _SHIFT + 1.0 / theta[order[:accepted]]
        lead = leading_frequencies(eigs, count)
        if len(lead) == count:
            top = lead[-1].imag
            reach = max(abs(v - _SHIFT) for v in (0, complex(-top, top), complex(top, top)))
            # strict, with room for the Ritz values' rounding
            if reach < (1.0 - 1e-9) * np.max(np.abs(eigs - _SHIFT)):
                return eigs
        if beta == 0.0:  # an invariant subspace: nothing more to find
            return None
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
