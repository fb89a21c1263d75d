"""Built-in application models.

Each built-in is written once, as the scalar second-order ScalarWaveForm
that the finite-difference verification route discretizes; _problem derives
from it the first-order ProblemDefinition with state (value, slope).  A
Kelvin-Voigt factor makes a damped interval's coefficients rational in
lambda, stored over a scalar denominator (CoefficientField.denominators), so
every built-in has the JSON form of serialize.  Default parameter values are
order-of-magnitude placeholders in normalized units; supply a consistent
unit system for real studies.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace

import numpy as np

from .errors import UnsupportedModelError
from .oracle import ScalarWaveForm
from .poly import PolyMatrix
from .problem import (
    MAX_LAMBDA_DEGREE,
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    ProblemDefinition,
)

_PINNED = ((1.0,), (0.0,))
_SLOPE_FREE = ((0.0,), (1.0,))


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _problem(name: str, form: ScalarWaveForm, params: dict) -> ProblemDefinition:
    """The first-order (value, slope) problem of a scalar form.

    On an interval mass u_tt = (stiffness u_y + damping u_yt)_y.  Without
    damping that is the wave system A = [[0, 1], [0, 0]], B = [[0, 0],
    [mass / stiffness, 0]].  With damping the restoring coefficient mass
    lam^2 / q(lam), q = stiffness + damping lam, is rational in lambda and
    written over q: A = [[0, stiffness], [0, 0]], B = [[0, 0], [mass, 0]],
    C = [[0, damping], [0, 0]]; the root of q is a pole.  An end row is the
    boundary row, capped at MAX_LAMBDA_DEGREE or its stored degree if
    higher.  An interface's rows act on (u-, u-_y, u+, u+_y): D z- = B z+
    takes D from their left half and B from their right half negated.
    """
    part = Partition(form.breakpoints)
    a_polys, b_polys, c_polys, denominators = [], [], [], []
    for mass, stiffness, damping in zip(form.mass, form.stiffness, form.damping):
        # without damping q = stiffness is divided out
        a, b = (stiffness, mass) if damping else (1.0, mass / stiffness)
        a_polys.append(PolyMatrix.constant(np.array([[0.0, a], [0.0, 0.0]])))
        b_polys.append(PolyMatrix.constant(np.array([[0.0, 0.0], [b, 0.0]])))
        c_polys.append(PolyMatrix.constant(np.array([[0.0, damping or 0.0], [0.0, 0.0]])))
        denominators.append((stiffness, damping) if damping else None)
    bound = max(1.0, *(m / s for m, s in zip(form.mass, form.stiffness)))
    field = CoefficientField(
        tuple(a_polys), tuple(b_polys), tuple(c_polys), bound, tuple(denominators)
    )

    def end(side, row):
        cap = max(MAX_LAMBDA_DEGREE, *(len(p) - 1 for p in row))
        return BoundaryOperator(side, PolyMatrix.from_entries([row]), cap)

    # 0.0 - c, not -c, so that a zero entry stays +0.0
    conjugations = tuple(
        ConjugationOperator(
            i,
            PolyMatrix.from_entries([row[:2] for row in rows]),
            PolyMatrix.from_entries([[tuple(0.0 - c for c in p) for p in row[2:]] for row in rows]),
        )
        for i, rows in enumerate(form.interface_rows, start=1)
    )
    return ProblemDefinition(
        name, part, field, end("left", form.left_row), end("right", form.right_row),
        conjugations, params, form,
    )


# ---------------------------------------------------------------------------
# strings and the cable-way snapshot
# ---------------------------------------------------------------------------


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

    n = len(positions) + 1
    # per load: continuity, then the force balance
    iface_rows = tuple(
        (
            ((1.0,), (0.0,), (-1.0,), (0.0,)),
            ((0.0, 0.0, m * (1.0 + v * v * rho / T)), (T, 2.0 * m * v), (0.0,), (-T,)),
        )
        for m in masses
    )
    form = ScalarWaveForm(
        breakpoints=(0.0,) + positions + (l,), mass=(rho,) * n, stiffness=(T,) * n,
        damping=(0.0,) * n, left_row=_PINNED, right_row=_PINNED, interface_rows=iface_rows,
    )
    params = {"rho": rho, "T": T, "l": l, "masses": masses, "positions": positions, "v": v}
    return _problem(name, form, params)


def build_fixed_fixed_string(rho: float = 1.0, T: float = 1.0, l: float = 1.0) -> ProblemDefinition:
    """Uniform string pinned at both ends: eigenfrequencies k*pi*a/l."""
    prob = build_cable_snapshot(rho, T, l, (), (), 0.0, name="fixed_fixed_string")
    return replace(prob, params={"rho": rho, "T": T, "l": l})


def build_fixed_free_string(rho: float = 1.0, T: float = 1.0, l: float = 1.0) -> ProblemDefinition:
    """Uniform string pinned at the left end, slope-free at the right."""
    _require(rho > 0 and T > 0 and l > 0, "rho, T, l must be positive")
    form = ScalarWaveForm(
        breakpoints=(0.0, l), mass=(rho,), stiffness=(T,), damping=(0.0,),
        left_row=_PINNED, right_row=_SLOPE_FREE,
    )
    return _problem("fixed_free_string", form, {"rho": rho, "T": T, "l": l})


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
    return replace(prob, params={"rho": rho, "T": T, "l": l, "m0": m0, "position": position})


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
    restoring coefficient is rho*Ip*lam^2 / (G*Ip + zeta1*lam), with a pole
    at -G*Ip/zeta1.
    """
    _require(G > 0 and Ip > 0 and rho > 0 and L > 0, "G, Ip, rho, L must be positive")
    _require(
        min(zeta1, J1, J2, beta, m0, alpha1) >= 0,
        "zeta1, J1, J2, beta, m0, alpha1 must be nonnegative",
    )
    if left_end not in ("rotor", "clamped", "free"):
        raise ValueError(f"left_end {left_end!r} not one of rotor/clamped/free")
    if right_end not in ("tool", "clamped", "free"):
        raise ValueError(f"right_end {right_end!r} not one of tool/clamped/free")

    gip = G * Ip
    ends = {
        "rotor": ((0.0, beta, J1), (-gip, -zeta1)),
        "tool": ((0.0, -m0 * alpha1, J2), (gip, zeta1)),
        "clamped": _PINNED,
        "free": ((0.0,), (gip, zeta1)),
    }
    form = ScalarWaveForm(
        breakpoints=(0.0, L), mass=(rho * Ip,), stiffness=(gip,), damping=(zeta1,),
        left_row=ends[left_end], right_row=ends[right_end],
    )
    params = {
        "G": G, "Ip": Ip, "rho": rho, "zeta1": zeta1, "J1": J1, "J2": J2,
        "beta": beta, "m0": m0, "alpha1": alpha1, "L": L,
        "left_end": left_end, "right_end": right_end,
    }
    return _problem("machine_unit", form, params)


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
    derivatives, so that boundary row is a cubic in lambda (its cap is its
    degree, 3).  right_end "clamped" and "free" replace the assembly row.
    """
    _require(rho > 0 and S > 0 and E > 0 and l > 0, "rho, S, E, l must be positive")
    _require(min(beta, b, c, d, m) >= 0, "beta, b, c, d, m must be nonnegative")

    es = E * S
    if right_end == "assembly" and m == 0 and b == 0 and c == 0 and d == 0:
        right_end = "free"  # the assembly row would be identically zero
    ends = {
        "assembly": (
            (0.0, 0.0, m * c, m * (d + b)),
            (es * c, es * (b + beta * c), es * (m + beta * b), es * beta * m),
        ),
        "clamped": _PINNED,
        # force balance with the end assembly removed
        "free": ((0.0,), (es, es * beta)),
    }
    if right_end not in ends:
        raise ValueError(f"right_end {right_end!r} not one of assembly/clamped/free")

    form = ScalarWaveForm(
        breakpoints=(0.0, l), mass=(rho * S,), stiffness=(es,), damping=(es * beta,),
        left_row=_PINNED, right_row=ends[right_end],
    )
    params = {
        "rho": rho, "S": S, "E": E, "beta": beta, "b": b, "c": c, "d": d,
        "m": m, "l": l, "right_end": right_end,
    }
    return _problem("spacecraft_bar", form, params)


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
    ends = {"elastic": ((-k,), (es, es * beta)), "clamped": _PINNED}
    if left_end not in ends:
        raise ValueError(f"left_end {left_end!r} not one of elastic/clamped")

    form = ScalarWaveForm(
        breakpoints=(0.0, L), mass=(1.0,), stiffness=(a2,), damping=(a2 * beta,),
        left_row=ends[left_end], right_row=((0.0, -alpha1, M), (es, es * beta)),
    )
    params = {
        "E": E, "rho": rho, "beta": beta, "S": S, "k": k, "M": M, "L": L,
        "alpha1": alpha1, "alpha3": alpha3, "left_end": left_end,
    }
    return _problem("pipeline", form, params)


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

#: default scan window (p_min, p_max, n_grid) per model, one for all: it
#: covers the first few modes of each
SCAN_DEFAULTS = dict.fromkeys(BUILDERS, (0.2, 10.0, 240))


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
    """Build a registered model, rejecting unknown parameter names and a
    text value for a parameter whose default is not text."""
    defaults = _defaults(name)
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for model {name!r}; "
            f"accepted: {sorted(defaults)}"
        )
    for key, value in params.items():
        if isinstance(value, str) and not isinstance(defaults[key], str):
            raise ValueError(f"parameter {key!r} of {name} expects a number, got {value!r}")
    return BUILDERS[name](**params)
