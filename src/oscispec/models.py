"""Built-in application models.

Each builder turns a named physical parameter record into a
ProblemDefinition in first-order form with state (value, slope), attaching
the scalar second-order description used by the finite-difference
verification route.  Default parameter values are order-of-magnitude
placeholders in normalized units; supply a consistent unit system for real
studies.

Second-order spatial operators with a rate-dependent factor (for example
Kelvin-Voigt damping) reduce to coefficients rational in lambda; those
models use lambda-field evaluators instead of stored polynomials, numpy
expressions that take a whole stack of lambdas in one call.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .errors import PoleError, UnsupportedModelError
from .oracle import ScalarWaveForm
from .poly import PolyMatrix
from .problem import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    LambdaCoefficientField,
    Partition,
    ProblemDefinition,
)

_PINNED = ((1.0,), (0.0,))
_SLOPE_FREE = ((0.0,), (1.0,))


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _row_operator(side: str, entries, max_degree: int = 2) -> BoundaryOperator:
    return BoundaryOperator(side, PolyMatrix.from_entries([list(entries)]), max_degree)


def _rational_restoring(num, den, floor, message: str):
    """Lambda-field evaluator of the (value, slope) system [[0, 1], [r, 0]]
    of a wave equation whose restoring coefficient r = num / den is
    rational in lambda.

    It computes on the stack's 1-D form even for one lambda: numpy turns
    0-d results into scalars, whose arithmetic may round otherwise than the
    array loops.  A lambda with |den| <= floor(|lambda|) is a pole; the
    first in the stack raises PoleError naming it.
    """

    def coefficient(y: float, lam: np.ndarray) -> np.ndarray:
        z = np.asarray(lam, dtype=complex).reshape(-1)
        d = den(z)
        pole = np.abs(d) <= floor(np.abs(z))
        if pole.any():
            raise PoleError(message, complex(z[pole][0]))
        out = np.zeros(z.shape + (2, 2), dtype=complex)
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = num(z) / d
        return out.reshape(np.shape(lam) + (2, 2))

    return coefficient


# ---------------------------------------------------------------------------
# strings and the cable-way snapshot
# ---------------------------------------------------------------------------


def _wave_field(part: Partition, rho: float, tension: float) -> CoefficientField:
    n = part.n_intervals
    a = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b = PolyMatrix.constant(np.array([[0.0, 0.0], [rho / tension, 0.0]]))
    c = PolyMatrix.zero(2, 2)
    return CoefficientField(part, (a,) * n, (b,) * n, (c,) * n, max(1.0, rho / tension))


def build_cable_snapshot(
    rho: float = 1.0,
    T: float = 1.0,
    l: float = 1.0,
    masses: tuple[float, ...] = (1.0,),
    positions: tuple[float, ...] = (0.5,),
    v: float = 0.0,
    name: str = "cable_snapshot",
) -> ProblemDefinition:
    """Taut cable with discrete loads frozen at one instant.

    Transverse wave equation on each span, pinned ends, and at every load a
    continuity row plus the dynamic force-balance row.  The load's
    convective curvature term is eliminated through the span equation, so
    the interface stays a relation in (value, slope).  v is the steady load
    speed entering the interface rows; the load positions themselves are the
    snapshot values (moving-boundary dynamics are out of scope).
    """
    _require(rho > 0 and T > 0 and l > 0, "rho, T, l must be positive")
    _require(v >= 0, "v must be nonnegative")
    masses = tuple(float(m) for m in np.atleast_1d(masses)) if masses else ()
    positions = tuple(float(x) for x in np.atleast_1d(positions)) if positions else ()
    _require(len(masses) == len(positions), "masses and positions must pair up")
    _require(all(m >= 0 for m in masses), "masses must be nonnegative")
    _require(
        all(0 < x < l for x in positions)
        and all(positions[i] < positions[i + 1] for i in range(len(positions) - 1)),
        "load positions must be strictly increasing inside (0, l)",
    )

    part = Partition((0.0,) + positions + (l,))
    field = _wave_field(part, rho, T)
    left = _row_operator("left", _PINNED)
    right = _row_operator("right", _PINNED)

    conjs = []
    iface_rows = []
    for i, m in enumerate(masses):
        inertia = m * (1.0 + v * v * rho / T)
        d_mat = PolyMatrix.from_entries(
            [
                [[1.0], [0.0]],
                [[0.0, 0.0, inertia], [T, 2.0 * m * v]],
            ]
        )
        b_mat = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [T]]])
        conjs.append(ConjugationOperator(i + 1, d_mat, b_mat))
        iface_rows.append(
            (
                ((1.0,), (0.0,), (-1.0,), (0.0,)),
                ((0.0, 0.0, inertia), (T, 2.0 * m * v), (0.0,), (-T,)),
            )
        )

    params = {"rho": rho, "T": T, "l": l, "masses": masses, "positions": positions, "v": v}
    form = ScalarWaveForm(
        breakpoints=part.breakpoints,
        mass=(rho,) * part.n_intervals,
        stiffness=(T,) * part.n_intervals,
        damping=(0.0,) * part.n_intervals,
        left_row=_PINNED,
        right_row=_PINNED,
        interface_rows=tuple(iface_rows),
    )
    return ProblemDefinition(name, part, field, left, right, tuple(conjs), params, form)


def build_fixed_fixed_string(rho: float = 1.0, T: float = 1.0, l: float = 1.0) -> ProblemDefinition:
    """Uniform string pinned at both ends: eigenfrequencies k*pi*a/l."""
    prob = build_cable_snapshot(rho, T, l, (), (), 0.0, name="fixed_fixed_string")
    params = {"rho": rho, "T": T, "l": l}
    return ProblemDefinition(
        prob.name, prob.partition, prob.coefficients, prob.boundary_left,
        prob.boundary_right, prob.conjugations, params, prob.scalar_form,
    )


def build_fixed_free_string(rho: float = 1.0, T: float = 1.0, l: float = 1.0) -> ProblemDefinition:
    """Uniform string pinned at the left end, slope-free at the right."""
    _require(rho > 0 and T > 0 and l > 0, "rho, T, l must be positive")
    part = Partition((0.0, l))
    field = _wave_field(part, rho, T)
    form = ScalarWaveForm(
        breakpoints=part.breakpoints,
        mass=(rho,),
        stiffness=(T,),
        damping=(0.0,),
        left_row=_PINNED,
        right_row=_SLOPE_FREE,
    )
    return ProblemDefinition(
        "fixed_free_string",
        part,
        field,
        _row_operator("left", _PINNED),
        _row_operator("right", _SLOPE_FREE),
        (),
        {"rho": rho, "T": T, "l": l},
        form,
    )


def build_point_mass_string(
    rho: float = 1.0,
    T: float = 1.0,
    l: float = 1.0,
    m0: float = 1.0,
    position: float = 0.5,
) -> ProblemDefinition:
    """Pinned-pinned string with one attached point mass."""
    _require(m0 > 0, "m0 must be positive")
    prob = build_cable_snapshot(rho, T, l, (m0,), (position,), 0.0, name="point_mass_string")
    params = {"rho": rho, "T": T, "l": l, "m0": m0, "position": position}
    return ProblemDefinition(
        prob.name, prob.partition, prob.coefficients, prob.boundary_left,
        prob.boundary_right, prob.conjugations, params, prob.scalar_form,
    )


# ---------------------------------------------------------------------------
# torsional machine unit
# ---------------------------------------------------------------------------


def build_machine_unit(
    G: float = 1.0,
    Ip: float = 1.0,
    rho: float = 1.0,
    zeta1: float = 0.01,
    J1: float = 0.5,
    J2: float = 0.3,
    beta: float = 0.1,
    m0: float = 1.0,
    alpha1: float = 0.05,
    L: float = 1.0,
    left_end: str = "rotor",
    right_end: str = "tool",
) -> ProblemDefinition:
    """Motor / elastic shaft / tool unit in torsion.

    G shear modulus, Ip polar inertia moment, rho line density of the shaft
    material, zeta1 shaft dissipation, J1 motor rotor inertia, J2 reduced
    tool-side inertia, beta rigidity of the motor mechanical characteristic,
    m0 tool mass, alpha1 linear-rate tool resistance coefficient, L shaft
    length.  left_end/right_end accept "clamped" or "free" to replace the
    dynamic end rows explicitly (preferred over huge-inertia surrogates).

    The shaft dissipation multiplies the spatial operator, so the reduced
    restoring coefficient is rho*Ip*lam^2 / (G*Ip + zeta1*lam), evaluated
    for a whole lambda stack at once.
    """
    _require(G > 0 and Ip > 0 and rho > 0 and L > 0, "G, Ip, rho, L must be positive")
    _require(
        min(zeta1, J1, J2, beta, m0, alpha1) >= 0,
        "zeta1, J1, J2, beta, m0, alpha1 must be nonnegative",
    )

    gip = G * Ip
    rip = rho * Ip

    coefficient = _rational_restoring(
        lambda z: rip * z * z,
        lambda z: gip + zeta1 * z,
        lambda r: 1e-12 * (gip + zeta1 * r),
        "machine unit: G*Ip + zeta1*lam vanishes",
    )

    part = Partition((0.0, L))
    field = LambdaCoefficientField(part, (coefficient,), dim=2, bound=max(1.0, rip / gip))

    ends = {
        "rotor": ([[0.0, beta, J1], [-gip, -zeta1]], ((0.0, beta, J1), (-gip, -zeta1))),
        "tool": ([[0.0, -m0 * alpha1, J2], [gip, zeta1]], ((0.0, -m0 * alpha1, J2), (gip, zeta1))),
        "clamped": ([[1.0], [0.0]], _PINNED),
        "free": ([[0.0], [gip, zeta1]], ((0.0,), (gip, zeta1))),
    }
    if left_end not in ("rotor", "clamped", "free"):
        raise ValueError(f"left_end {left_end!r} not one of rotor/clamped/free")
    if right_end not in ("tool", "clamped", "free"):
        raise ValueError(f"right_end {right_end!r} not one of tool/clamped/free")
    left_row, left_form = ends[left_end]
    right_row, right_form = ends[right_end]

    params = {
        "G": G, "Ip": Ip, "rho": rho, "zeta1": zeta1, "J1": J1, "J2": J2,
        "beta": beta, "m0": m0, "alpha1": alpha1, "L": L,
        "left_end": left_end, "right_end": right_end,
    }
    form = ScalarWaveForm(
        breakpoints=part.breakpoints,
        mass=(rip,),
        stiffness=(gip,),
        damping=(zeta1,),
        left_row=left_form,
        right_row=right_form,
    )
    return ProblemDefinition(
        "machine_unit",
        part,
        field,
        _row_operator("left", left_row),
        _row_operator("right", right_row),
        (),
        params,
        form,
    )


# ---------------------------------------------------------------------------
# spacecraft bar with end assembly
# ---------------------------------------------------------------------------


def build_spacecraft_bar(
    rho: float = 1.0,
    S: float = 1.0,
    E: float = 1.0,
    beta: float = 0.01,
    b: float = 0.1,
    c: float = 1.0,
    d: float = 0.05,
    m: float = 0.5,
    l: float = 1.0,
    right_end: str = "assembly",
) -> ProblemDefinition:
    """Elastic bar with Kelvin-Voigt dissipation and an actively damped end body.

    rho unit-volume mass, S cross-section area, E elastic modulus, beta
    material dissipation, b executive-mechanism damping, c centering-spring
    rigidity, d feedback coefficient, m specimen mass, l bar length.  The
    bar is held at x=0; the end-body balance at x=l carries third time
    derivatives, so that boundary row is a cubic in lambda (per-row degree
    override).  right_end "clamped" and "free" replace the assembly row.
    """
    _require(rho > 0 and S > 0 and E > 0 and l > 0, "rho, S, E, l must be positive")
    _require(min(beta, b, c, d, m) >= 0, "beta, b, c, d, m must be nonnegative")

    es = E * S

    coefficient = _rational_restoring(
        lambda z: rho * S * z * z,
        lambda z: es * (1.0 + beta * z),
        lambda r: 1e-12 * es * (1.0 + beta * r),
        "spacecraft bar: 1 + beta*lam vanishes",
    )

    part = Partition((0.0, l))
    field = LambdaCoefficientField(part, (coefficient,), dim=2, bound=max(1.0, rho / E))

    if right_end == "assembly" and m == 0 and b == 0 and c == 0 and d == 0:
        right_end = "free"  # the assembly row would be identically zero
    if right_end == "assembly":
        value_poly = [0.0, 0.0, m * c, m * (d + b)]
        slope_poly = [es * c, es * (b + beta * c), es * (m + beta * b), es * beta * m]
        right = _row_operator("right", [value_poly, slope_poly], max_degree=3)
        right_form = (tuple(value_poly), tuple(slope_poly))
    elif right_end == "clamped":
        right = _row_operator("right", [[1.0], [0.0]])
        right_form = _PINNED
    elif right_end == "free":
        # force balance with the end assembly removed
        right = _row_operator("right", [[0.0], [es, es * beta]])
        right_form = ((0.0,), (es, es * beta))
    else:
        raise ValueError(f"right_end {right_end!r} not one of assembly/clamped/free")

    params = {
        "rho": rho, "S": S, "E": E, "beta": beta, "b": b, "c": c, "d": d,
        "m": m, "l": l, "right_end": right_end,
    }
    form = ScalarWaveForm(
        breakpoints=part.breakpoints,
        mass=(rho * S,),
        stiffness=(es,),
        damping=(es * beta,),
        left_row=_PINNED,
        right_row=right_form,
    )
    return ProblemDefinition(
        "spacecraft_bar",
        part,
        field,
        _row_operator("left", [[1.0], [0.0]]),
        right,
        (),
        params,
        form,
    )


# ---------------------------------------------------------------------------
# deep-water transmission pipeline
# ---------------------------------------------------------------------------


def build_pipeline(
    E: float = 1.0,
    rho: float = 1.0,
    beta: float = 0.01,
    S: float = 1.0,
    k: float = 1.0,
    M: float = 0.5,
    L: float = 1.0,
    alpha1: float = 0.0,
    alpha3: float = 0.0,
    left_end: str = "elastic",
) -> ProblemDefinition:
    """Longitudinally vibrating pipe on an elastic hanger with an end platform.

    E elastic modulus, rho material density, beta internal friction, S
    cross-section area, k hanger rigidity, M platform mass, L pipe length,
    alpha1 linear coefficient of the flow resistance force at the platform.
    The cubic resistance coefficient alpha3 is accepted for interface
    compatibility but must be zero (the nonlinear end condition is out of
    scope).  left_end "clamped" replaces the hanger row by u(0)=0.
    """
    if alpha3 != 0.0:
        raise UnsupportedModelError(
            "pipeline: cubic resistance term alpha3*(du/dt)^3 is not supported; "
            "set alpha3=0"
        )
    _require(E > 0 and rho > 0 and S > 0 and L > 0 and k > 0, "E, rho, S, L, k must be positive")
    _require(min(beta, M, alpha1) >= 0, "beta, M, alpha1 must be nonnegative")

    es = E * S
    a2 = E / rho

    coefficient = _rational_restoring(
        lambda z: z * z,
        lambda z: a2 * (1.0 + beta * z),
        lambda r: 1e-12 * a2 * (1.0 + beta * r),
        "pipeline: 1 + beta*lam vanishes",
    )

    part = Partition((0.0, L))
    field = LambdaCoefficientField(part, (coefficient,), dim=2, bound=max(1.0, 1.0 / a2))

    if left_end == "elastic":
        left = _row_operator("left", [[-k], [es, es * beta]])
        left_form = ((-k,), (es, es * beta))
    elif left_end == "clamped":
        left = _row_operator("left", [[1.0], [0.0]])
        left_form = _PINNED
    else:
        raise ValueError(f"left_end {left_end!r} not one of elastic/clamped")

    right = _row_operator("right", [[0.0, -alpha1, M], [es, es * beta]])

    params = {
        "E": E, "rho": rho, "beta": beta, "S": S, "k": k, "M": M, "L": L,
        "alpha1": alpha1, "alpha3": alpha3, "left_end": left_end,
    }
    form = ScalarWaveForm(
        breakpoints=part.breakpoints,
        mass=(1.0,),
        stiffness=(a2,),
        damping=(a2 * beta,),
        left_row=left_form,
        right_row=((0.0, -alpha1, M), (es, es * beta)),
    )
    return ProblemDefinition(
        "pipeline",
        part,
        field,
        left,
        right,
        (),
        params,
        form,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BUILDERS = {
    "machine_unit": build_machine_unit,
    "spacecraft_bar": build_spacecraft_bar,
    "cable_snapshot": build_cable_snapshot,
    "pipeline": build_pipeline,
    "fixed_free_string": build_fixed_free_string,
    "fixed_fixed_string": build_fixed_fixed_string,
    "point_mass_string": build_point_mass_string,
}

#: oracle route per model: a closed-form tag, or "fd" for the FD eigensolver
ORACLE_ROUTES = {
    "fixed_free_string": "fixed_free_string",
    "fixed_fixed_string": "fixed_fixed_string",
    "point_mass_string": "point_mass_string",
    "machine_unit": "fd",
    "spacecraft_bar": "fd",
    "cable_snapshot": "fd",
    "pipeline": "fd",
}

#: default scan windows (p_min, p_max, n_grid) covering the first few modes
SCAN_DEFAULTS = {
    "machine_unit": (0.2, 10.0, 240),
    "spacecraft_bar": (0.2, 10.0, 240),
    "cable_snapshot": (0.2, 10.0, 240),
    "pipeline": (0.2, 10.0, 240),
    "fixed_free_string": (0.2, 10.0, 240),
    "fixed_fixed_string": (0.2, 10.0, 240),
    "point_mass_string": (0.2, 10.0, 240),
}


@functools.cache
def _defaults(name: str) -> dict:
    """A builder's keyword defaults, read from its signature once; callers
    must not edit the dict (model_defaults hands out copies)."""
    if name not in BUILDERS:
        raise ValueError(f"unknown model {name!r}; known: {sorted(BUILDERS)}")
    return {
        k: p.default
        for k, p in inspect.signature(BUILDERS[name]).parameters.items()
        if p.default is not inspect.Parameter.empty and k != "name"
    }


def model_defaults(name: str) -> dict:
    """Default parameter record of a built-in model, a fresh dict per call."""
    return dict(_defaults(name))


def build_model(name: str, **params) -> ProblemDefinition:
    """Build a registered model, rejecting unknown parameter names."""
    defaults = _defaults(name)
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for model {name!r}; "
            f"accepted: {sorted(defaults)}"
        )
    return BUILDERS[name](**params)
