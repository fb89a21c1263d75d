"""Built-in models: classical limits, damping signs, snapshot semantics."""

import math
import re

import numpy as np
import pytest

from oscispec import (
    PoleError,
    PolyMatrix,
    SolveOptions,
    UnsupportedModelError,
    build_cable_snapshot,
    build_fixed_fixed_string,
    build_fixed_free_string,
    build_machine_unit,
    build_model,
    build_pipeline,
    build_point_mass_string,
    build_spacecraft_bar,
    characteristic_determinant,
    closed_form_roots,
    model_defaults,
    reduce_complex,
    solve_spectrum,
    validate,
)
from oscispec import reduction
from oscispec.integrate import _exact_fundamental
from oscispec.models import SCAN_DEFAULTS
from oscispec.spectrum import _assemble

OPTS = SolveOptions(scan=(0.3, 10.5, 240), step=1e-3, tol=1e-11)


def _imags(roots, count):
    return [r.lam.imag for r in roots[:count]]


class TestValidation:
    @pytest.mark.parametrize(
        "builder",
        [
            build_machine_unit,
            build_spacecraft_bar,
            build_cable_snapshot,
            build_pipeline,
            build_fixed_free_string,
            build_fixed_fixed_string,
            build_point_mass_string,
        ],
    )
    def test_every_builder_validates(self, builder):
        assert validate(builder()) == []

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_model("pipeline", bogus=1.0)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("fixed_free_string", {"T": "abc"},
             "parameter 'T' of fixed_free_string expects a number, got 'abc'"),
            ("cable_snapshot", {"masses": "abc"},
             "parameter 'masses' of cable_snapshot expects a number, got 'abc'"),
        ],
    )
    def test_text_for_a_numeric_parameter_is_named(self, name, params, message):
        with pytest.raises(ValueError) as info:
            build_model(name, **params)
        assert str(info.value) == message

    def test_defaults_exposed(self):
        d = model_defaults("spacecraft_bar")
        assert d["beta"] == 0.01 and "right_end" in d

    def test_editing_the_defaults_changes_no_later_build(self):
        d = model_defaults("spacecraft_bar")
        d["beta"] = 0.5
        d["bogus"] = 1.0
        assert model_defaults("spacecraft_bar")["beta"] == 0.01
        assert build_model("spacecraft_bar").params["beta"] == 0.01
        with pytest.raises(ValueError, match="unknown parameter"):
            build_model("spacecraft_bar", bogus=1.0)


KELVIN_VOIGT_MODELS = ("machine_unit", "spacecraft_bar", "pipeline")


class TestStackEvaluators:
    """A Kelvin-Voigt field's rational coefficient is formed for a whole
    stack of lambdas in one reduction."""

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_stack_equals_each_lambda_bit_for_bit(self, name):
        # off the axis both parts of lambda are nonzero, where a fused and a
        # plain complex product would part; with variational the blocks
        # carry the exact A_lam too.  Every built-in, Kelvin-Voigt or not:
        # each lambda's coefficients, closed-form samples (_exact_fundamental)
        # and end values and closure (_assemble) are those of its stack of one
        rng = np.random.default_rng(9)
        off_axis = rng.uniform(-0.5, 0.0, 120) + 1j * rng.uniform(0.2, 9.0, 120)
        lams = np.concatenate([1j * np.linspace(0.2, 10.0, 120), off_axis])
        problem = build_model(name)
        intervals = range(problem.partition.n_intervals)
        for variational, dim in ((False, 2), (True, 4)):
            reduced = reduce_complex(problem, lams, variational)
            samples = [_exact_fundamental(reduced, i, 1e-2, True).samples for i in intervals]
            _, _, w, closure = _assemble(reduced, 1e-2, keep_samples=False)
            for stacked in reduced.constant_coeffs:
                assert stacked.shape == (240, dim, dim) and stacked.dtype == complex
            for k, z in enumerate(lams.tolist()):
                one = reduce_complex(problem, np.array([z]), variational)
                for i in intervals:
                    assert one.constant_coeffs[i].shape == (1, dim, dim)
                    assert one.constant_coeffs[i][0].tobytes() == reduced.constant_coeffs[i][k].tobytes()
                    alone = _exact_fundamental(one, i, 1e-2, keep_samples=True).samples
                    assert alone[:, 0].tobytes() == samples[i][:, k].tobytes()
                _, _, w_one, closure_one = _assemble(one, 1e-2, keep_samples=False)
                assert w_one[0].tobytes() == w[k].tobytes()
                assert closure_one[0].tobytes() == closure[k].tobytes()

    def test_stack_through_a_pole_names_its_first_pole(self):
        # G*Ip + zeta1*lam vanishes at -2; the last lambda is within the
        # pole tolerance too, but comes later in the stack
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-1.8, -1.9, -2.0, -2.1, -2.0 + 1e-13]) + 0j
        message = "coefficient denominator of interval 0 vanishes at lambda=(-2+0j)"
        with pytest.raises(PoleError, match=re.escape(message) + "$"):
            reduce_complex(problem, lams)

    @pytest.mark.parametrize("name", KELVIN_VOIGT_MODELS)
    def test_one_denominator_evaluation_per_stacked_determinant(self, name, monkeypatch):
        calls = []
        original = reduction._denominator

        def counting(q, lam, *args):
            calls.append(np.shape(lam))
            return original(q, lam, *args)

        monkeypatch.setattr(reduction, "_denominator", counting)
        problem = build_model(name)
        characteristic_determinant(problem, 1j * np.linspace(0.2, 10.0, 240), 1e-3)
        assert calls == [(240,)]
        characteristic_determinant(problem, 2.0j, 1e-3)
        assert calls == [(240,), (1,)]


class TestUndampedVariants:
    """With the damping off, an interval takes the wave system, which has no
    denominator, so lambda enters only as the real lam^2 on the axis: D(ip)
    is exactly real, which the real-split cases of the CI rely on.
    machine_unit needs alpha1 = 0 too: its tool row damps."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("spacecraft_bar", {"beta": 0, "b": 0, "d": 0}),
            ("pipeline", {"beta": 0, "alpha1": 0}),
            ("machine_unit", {"zeta1": 0, "alpha1": 0, "left_end": "free"}),
        ],
    )
    def test_determinant_is_real_on_the_axis(self, name, params):
        lams = 1j * np.linspace(0.2, 10.0, 240)
        d = characteristic_determinant(build_model(name, **params), lams, 1e-3)
        assert np.all(d.imag == 0) and np.all(np.isfinite(d))


def _stored(pm):
    """A polynomial matrix's stored coefficients, the signs of zeros included."""
    return pm.coeffs.shape, pm.coeffs.tobytes()


_WAVE_A = [[0.0, 1.0], [0.0, 0.0]]
_NO_C = [[0.0, 0.0], [0.0, 0.0]]
_PINNED = ([[[1.0], [0.0]]], 2)

#: first-order systems assembled by hand: per interval (A, B, C,
#: denominator), the bound, each end row with its lambda-degree cap, and per
#: interface (D, B) of D z- = B z+
HAND_ASSEMBLED = [
    pytest.param(
        "fixed_free_string", {"rho": 3.0, "T": 2.0},
        dict(breakpoints=(0.0, 1.0), bound=1.5,
             intervals=[(_WAVE_A, [[0.0, 0.0], [1.5, 0.0]], _NO_C, None)],
             left=_PINNED, right=([[[0.0], [1.0]]], 2), interfaces=[]),
        id="string",
    ),
    pytest.param(
        "machine_unit",
        {"G": 4.0, "Ip": 0.5, "rho": 6.0, "zeta1": 0.25, "J1": 0.5, "J2": 0.25,
         "beta": 0.125, "m0": 2.0, "alpha1": 0.25},
        dict(breakpoints=(0.0, 1.0), bound=1.5,
             intervals=[([[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]],
                         [[0.0, 0.25], [0.0, 0.0]], (2.0, 0.25))],
             left=([[[0.0, 0.125, 0.5], [-2.0, -0.25]]], 2),
             right=([[[0.0, -0.5, 0.25], [2.0, 0.25]]], 2), interfaces=[]),
        id="kelvin_voigt",
    ),
    pytest.param(
        "cable_snapshot", {"T": 3.0, "masses": (2.0,), "positions": (0.4,)},
        dict(breakpoints=(0.0, 0.4, 1.0), bound=1.0,
             intervals=[(_WAVE_A, [[0.0, 0.0], [1.0 / 3.0, 0.0]], _NO_C, None)] * 2,
             left=_PINNED, right=_PINNED,
             interfaces=[([[[1.0], [0.0]], [[0.0, 0.0, 2.0], [3.0]]],
                          [[[1.0], [0.0]], [[0.0], [3.0]]])]),
        id="cable_one_load",
    ),
    pytest.param(
        # inertia m (1 + v^2 rho / T) = 3 m and convective term 2 m v
        "cable_snapshot",
        {"T": 2.0, "masses": (0.5, 1.5), "positions": (0.25, 0.75), "v": 2.0},
        dict(breakpoints=(0.0, 0.25, 0.75, 1.0), bound=1.0,
             intervals=[(_WAVE_A, [[0.0, 0.0], [0.5, 0.0]], _NO_C, None)] * 3,
             left=_PINNED, right=_PINNED,
             interfaces=[([[[1.0], [0.0]], [[0.0, 0.0, 1.5], [2.0, 2.0]]],
                          [[[1.0], [0.0]], [[0.0], [2.0]]]),
                         ([[[1.0], [0.0]], [[0.0, 0.0, 4.5], [2.0, 6.0]]],
                          [[[1.0], [0.0]], [[0.0], [2.0]]])]),
        id="cable_two_moving_loads",
    ),
    pytest.param(
        "spacecraft_bar",
        {"S": 2.0, "E": 3.0, "beta": 0.25, "b": 0.5, "c": 2.0, "d": 0.25, "m": 0.5},
        dict(breakpoints=(0.0, 1.0), bound=1.0,
             intervals=[([[0.0, 6.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]],
                         [[0.0, 1.5], [0.0, 0.0]], (6.0, 1.5))],
             left=_PINNED, right=([[[0.0, 0.0, 1.0, 0.375], [12.0, 6.0, 3.75, 0.75]]], 3),
             interfaces=[]),
        id="cubic_assembly_row",
    ),
    pytest.param(
        "machine_unit",
        {"G": 4.0, "Ip": 0.5, "rho": 6.0, "zeta1": 0.0, "left_end": "clamped",
         "right_end": "free"},
        dict(breakpoints=(0.0, 1.0), bound=1.5,
             intervals=[(_WAVE_A, [[0.0, 0.0], [1.5, 0.0]], _NO_C, None)],
             left=_PINNED, right=([[[0.0], [2.0, 0.0]]], 2), interfaces=[]),
        id="undamped_kelvin_voigt",
    ),
]


@pytest.mark.parametrize("name, params, want", HAND_ASSEMBLED)
def test_problem_equals_hand_assembled(name, params, want):
    """A built-in's first-order problem is derived from its scalar form; it
    matches the system assembled by hand, entry for entry."""
    prob = build_model(name, **params)
    field = prob.coefficients
    assert prob.partition.breakpoints == want["breakpoints"]
    assert field.bound == want["bound"]
    assert [
        (_stored(a), _stored(b), _stored(c), q)
        for a, b, c, q in zip(field.a_polys, field.b_polys, field.c_polys, field.denominators)
    ] == [
        (*(_stored(PolyMatrix.constant(np.array(m))) for m in abc), q)
        for *abc, q in want["intervals"]
    ]
    for end, (rows, cap) in ((prob.boundary_left, want["left"]), (prob.boundary_right, want["right"])):
        assert (_stored(end.matrix), end.max_degree) == (_stored(PolyMatrix.from_entries(rows)), cap)
    assert [(c.interface, _stored(c.d_matrix), _stored(c.b_matrix)) for c in prob.conjugations] == [
        (i, _stored(PolyMatrix.from_entries(d)), _stored(PolyMatrix.from_entries(b)))
        for i, (d, b) in enumerate(want["interfaces"], start=1)
    ]
    assert validate(prob) == []


class TestMachineUnit:
    def test_clamped_clamped_torsion_spectrum(self):
        prob = build_machine_unit(
            G=4.0, rho=1.0, L=2.0, zeta1=0.0, left_end="clamped", right_end="clamped"
        )
        roots = solve_spectrum(prob, OPTS)
        a = math.sqrt(4.0 / 1.0)
        expected = [k * math.pi * a / 2.0 for k in (1, 2, 3)]
        assert _imags(roots, 3) == pytest.approx(expected, abs=1e-7)
        assert all(abs(r.lam.real) < 1e-9 for r in roots[:3])

    def test_free_free_admits_rigid_rotation(self):
        prob = build_machine_unit(zeta1=0.0, J1=0.0, J2=0.0, beta=0.0, alpha1=0.0)
        assert abs(characteristic_determinant(prob, 0.0, step=1e-3)) <= 1e-12

    def test_shaft_dissipation_damps_all_modes(self):
        prob = build_machine_unit(
            zeta1=0.05, left_end="clamped", right_end="clamped"
        )
        roots = solve_spectrum(prob, OPTS)
        assert len(roots) >= 2
        assert all(r.lam.real < 0 for r in roots)
        # the third mode sits deep below the axis; a rectangle search finds it
        deep = solve_spectrum(
            prob,
            SolveOptions(rect=(-3.0, -0.5, 8.5, 10.5, 4, 4), step=1e-3),
        )
        third = [r for r in deep if 8.5 < r.lam.imag < 10.5]
        assert third and all(r.lam.real < 0 for r in third)

    def test_pole_reported(self):
        prob = build_machine_unit(zeta1=1.0)
        with pytest.raises(PoleError) as info:
            reduce_complex(prob, np.array([-1.0]))  # G*Ip + zeta1*lam = 0
        assert info.value.lam == -1.0


class TestSpacecraftBar:
    def test_clamped_clamped_limit(self):
        prob = build_spacecraft_bar(beta=0.0, b=0.0, d=0.0, right_end="clamped")
        roots = solve_spectrum(prob, OPTS)
        assert _imags(roots, 3) == pytest.approx(
            [math.pi, 2 * math.pi, 3 * math.pi], abs=1e-7
        )

    def test_degenerate_assembly_becomes_free_end(self):
        prob = build_spacecraft_bar(m=0.0, c=0.0, b=0.0, beta=0.0, d=0.0)
        assert prob.params["right_end"] == "free"
        roots = solve_spectrum(prob, OPTS)
        expected = [(2 * k - 1) * math.pi / 2 for k in (1, 2, 3)]
        assert _imags(roots, 3) == pytest.approx(expected, abs=1e-7)

    def test_cubic_boundary_row_coefficients(self):
        prob = build_spacecraft_bar(rho=2.0, S=3.0, E=5.0, beta=0.1, b=0.2,
                                    c=0.7, d=0.4, m=1.5)
        row = prob.boundary_right.matrix
        assert row.degree == 3
        es = 15.0
        lam = 0.3 + 0.9j
        value = row(lam)
        expected_u = 1.5 * (0.4 + 0.2) * lam**3 + 1.5 * 0.7 * lam**2
        expected_ux = es * (0.1 * 1.5 * lam**3 + (1.5 + 0.1 * 0.2) * lam**2
                            + (0.2 + 0.1 * 0.7) * lam + 0.7)
        assert value[0, 0] == pytest.approx(expected_u, rel=1e-14)
        assert value[0, 1] == pytest.approx(expected_ux, rel=1e-14)

    def test_feedback_sweep_moves_leading_decay_rate(self):
        reals = []
        for d in np.linspace(0.0, 0.2, 5):
            prob = build_spacecraft_bar(d=float(d))
            roots = solve_spectrum(prob, SolveOptions(scan=(0.3, 2.0, 60), step=1e-3))
            reals.append(roots[0].lam.real)
        assert max(reals) - min(reals) > 1e-5
        assert all(np.diff(reals) < 0) or all(np.diff(reals) > 0)


class TestCableSnapshot:
    def test_no_loads_is_pinned_pinned_string(self):
        prob = build_cable_snapshot(masses=(), positions=())
        roots = solve_spectrum(prob, OPTS)
        assert _imags(roots, 3) == pytest.approx(
            [math.pi, 2 * math.pi, 3 * math.pi], abs=1e-7
        )

    def test_single_mass_matches_transcendental_roots(self):
        prob = build_cable_snapshot(masses=(1.0,), positions=(0.5,), v=0.0)
        roots = solve_spectrum(prob, OPTS)
        reference = closed_form_roots("point_mass_string", 0.3, 10.5)
        assert len(roots) >= 3
        for got, want in zip(_imags(roots, 3), reference[:3]):
            assert got == pytest.approx(want, abs=1e-8)

    def test_vanishing_mass_recovers_clean_spectrum(self):
        prob = build_cable_snapshot(masses=(1e-6,), positions=(0.5,))
        roots = solve_spectrum(prob, OPTS)
        bare = [math.pi, 2 * math.pi, 3 * math.pi]
        for got, want in zip(_imags(roots, 3), bare):
            assert abs(got - want) < 1e-4

    def test_moving_load_speed_enters_interface(self):
        prob = build_cable_snapshot(masses=(0.5,), positions=(0.5,), v=2.0)
        assert validate(prob) == []
        dmat = prob.conjugations[0].d_matrix
        np.testing.assert_allclose(dmat(0.0), [[1.0, 0.0], [0.0, 1.0]])
        lam = 1j
        val = dmat(lam)
        inertia = 0.5 * (1.0 + 4.0)  # m (1 + v^2 rho / T)
        assert val[1, 0] == pytest.approx(inertia * lam**2)
        assert val[1, 1] == pytest.approx(1.0 + 2.0 * 0.5 * 2.0 * lam)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_cable_snapshot(masses=(1.0, 1.0), positions=(0.5, 0.5))


class TestPipeline:
    def test_clamped_hanger_limit_is_fixed_free(self):
        prob = build_pipeline(M=0.0, alpha1=0.0, beta=0.0, left_end="clamped")
        roots = solve_spectrum(prob, OPTS)
        expected = [(2 * k - 1) * math.pi / 2 for k in (1, 2, 3)]
        assert _imags(roots, 3) == pytest.approx(expected, abs=1e-7)

    def test_internal_friction_damps(self):
        prob = build_pipeline(beta=0.02, alpha1=0.0)
        roots = solve_spectrum(prob, OPTS)
        assert len(roots) >= 3
        assert all(r.lam.real < 0 for r in roots)

    def test_cubic_resistance_unsupported(self):
        with pytest.raises(UnsupportedModelError, match="alpha3"):
            build_pipeline(alpha3=0.1)


class TestUnitScaling:
    def test_time_rescaling_scales_eigenvalues(self):
        # same physical string measured with length unit 1/0.5 and time
        # unit 1/2: tension rescales by (sigma_L/sigma_T)^2, eigenvalues by
        # 1/sigma_T
        sigma_l, sigma_t = 0.5, 2.0
        base = build_fixed_fixed_string(rho=1.0, T=1.0, l=1.0)
        scaled = build_fixed_fixed_string(
            rho=1.0, T=(sigma_l / sigma_t) ** 2, l=sigma_l
        )
        r_base = solve_spectrum(base, SolveOptions(scan=(0.5, 10.5, 240), step=1e-3, tol=1e-12))
        r_scaled = solve_spectrum(
            scaled,
            SolveOptions(scan=(0.5 / sigma_t, 10.5 / sigma_t, 240),
                         step=1e-3 * sigma_l, tol=1e-12),
        )
        for a, b in zip(_imags(r_base, 3), _imags(r_scaled, 3)):
            assert abs(b - a / sigma_t) <= 1e-8 * abs(b)
