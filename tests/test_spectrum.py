"""Determinant assembly, root finding, mode shapes, and their invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscispec import (
    BoundaryDegeneracyError,
    Bracket,
    CoefficientField,
    ConjugationOperator,
    IntegrationError,
    LambdaCoefficientField,
    NotARootError,
    Partition,
    PoleError,
    PolyMatrix,
    ProblemDefinition,
    PropagationError,
    SolveOptions,
    SolverError,
    build_machine_unit,
    build_point_mass_string,
    build_spacecraft_bar,
    characteristic_determinant,
    initial_coefficients,
    insert_breakpoint,
    integrate_fundamental,
    mode_shape,
    propagate,
    refine_root,
    scan_real_axis,
    solve_spectrum,
)
from oscispec import spectrum
from oscispec.models import SCAN_DEFAULTS, build_model
from oscispec.reduction import reduce_complex
from oscispec.spectrum import _assemble

from conftest import identity_conjugation, make_string_problem

HALF_PI = math.pi / 2.0


class TestInitialCoefficients:
    def test_canonical_first_component_pinned(self, fixed_free_string):
        u = initial_coefficients(fixed_free_string.boundary_left, 0.5j)
        np.testing.assert_array_equal(u, [[0.0], [1.0]])

    def test_complementary_selection(self):
        prob = make_string_problem(left="free", right="pinned")
        u = initial_coefficients(prob.boundary_left, 1j)
        np.testing.assert_array_equal(u, [[1.0], [0.0]])

    def test_dynamic_row_null_space(self):
        # the motor-side row at lambda=0 reduces to a slope condition
        prob = build_machine_unit(beta=0.5)
        u = initial_coefficients(prob.boundary_left, 0.0)
        assert u.shape == (2, 1)
        row = prob.boundary_left(0.0)
        assert np.max(np.abs(row @ u)) <= 1e-12

    def test_rank_deficiency_detected(self):
        from oscispec import BoundaryOperator

        degenerate = BoundaryOperator(
            "left", PolyMatrix.from_entries([[[0.0, 1.0], [0.0]]])
        )
        with pytest.raises(BoundaryDegeneracyError):
            initial_coefficients(degenerate, 0.0)


class TestPropagate:
    def _string_fundamental(self, prob, lam):
        reduced = reduce_complex(prob, lam)
        return integrate_fundamental(reduced, 0, step=1e-4)

    def test_identity_interface_is_transpose_product(self, fixed_free_string):
        lam = 1.3j
        fm = self._string_fundamental(fixed_free_string, lam)
        u = np.array([[0.0], [1.0]], dtype=complex)
        out = propagate(u, fm, identity_conjugation(1), lam)
        np.testing.assert_allclose(out, fm.end_matrix.T @ u, rtol=0, atol=1e-15)

    def test_common_scalar_cancels(self, fixed_free_string):
        lam = 0.9j
        fm = self._string_fundamental(fixed_free_string, lam)
        u = np.array([[0.0], [1.0]], dtype=complex)
        base = ConjugationOperator(
            1,
            PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, -1.0], [1.0]]]),
            PolyMatrix.constant(np.eye(2)),
        )
        scaled = ConjugationOperator(
            1,
            PolyMatrix.from_entries([[[7.3], [0.0]], [[0.0, 0.0, -7.3], [7.3]]]),
            PolyMatrix.constant(7.3 * np.eye(2)),
        )
        np.testing.assert_allclose(
            propagate(u, fm, base, lam),
            propagate(u, fm, scaled, lam),
            rtol=1e-13,
            atol=1e-15,
        )

    def test_point_mass_jump_hand_computed(self, fixed_free_string):
        # D = [[1,0],[-m0 lam^2, 1]], B = I encodes the end-value relation
        # z2+ = z2- + m0 p^2 z1- at lam = i p; propagate must reproduce it.
        m0, p = 1.0, 1.1
        lam = 1j * p
        fm = self._string_fundamental(fixed_free_string, lam)
        u = np.array([[0.0], [1.0]], dtype=complex)
        conj = ConjugationOperator(
            1,
            PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, -m0], [1.0]]]),
            PolyMatrix.constant(np.eye(2)),
        )
        out = propagate(u, fm, conj, lam)
        z = fm.end_matrix.T @ u
        expected = np.array([z[0], z[1] + m0 * p * p * z[0]])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @given(scale=st.floats(0.1, 50.0))
    @settings(max_examples=15, deadline=None)
    def test_scalar_invariance_property(self, scale):
        lam = 1.7j
        fm = self._string_fundamental(make_string_problem(), lam)
        u = np.array([[0.0], [1.0]], dtype=complex)
        d = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.3], [1.0]]])
        base = ConjugationOperator(1, d, PolyMatrix.constant(np.eye(2)))
        scaled = ConjugationOperator(
            1,
            PolyMatrix(d.coeffs * scale),
            PolyMatrix.constant(scale * np.eye(2)),
        )
        np.testing.assert_allclose(
            propagate(u, fm, base, lam),
            propagate(u, fm, scaled, lam),
            rtol=1e-12,
            atol=1e-14,
        )


class TestCharacteristicDeterminant:
    def test_fixed_free_root_at_half_pi(self, fixed_free_string):
        d = characteristic_determinant(fixed_free_string, 1j * HALF_PI, step=1e-3)
        assert abs(d) <= 1e-8

    def test_zero_frequency_unit_value(self, fixed_free_string):
        d = characteristic_determinant(fixed_free_string, 0.0, step=1e-3)
        assert abs(d) == pytest.approx(1.0, abs=1e-12)

    def test_tracks_cosine_sign_pattern(self, fixed_free_string):
        # same zeros and sign pattern as cos(p) even though the smooth
        # scale normalization varies with p
        for p in (0.5, 1.2, 2.0, 3.0, 4.0):
            d = characteristic_determinant(fixed_free_string, 1j * p, step=1e-3)
            assert abs(d.imag) < 1e-12
            assert np.sign(d.real) == np.sign(math.cos(p))

    def test_point_mass_lowers_fixed_free_fundamental(self):
        # closed form: p^2 sin(p c) cos(p (l-c)) = p cos(p l); the first
        # root sits near 1.0769, strictly below pi/2
        prob = make_string_problem(
            breakpoints=(0.0, 0.5, 1.0),
            left="pinned",
            right="free",
            conjugations=(
                ConjugationOperator(
                    1,
                    PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, 1.0], [1.0]]]),
                    PolyMatrix.constant(np.eye(2)),
                ),
            ),
        )
        roots = solve_spectrum(prob, SolveOptions(scan=(0.2, 1.5, 100), step=1e-3))
        assert roots, "expected the shifted fundamental in (0.2, 1.5)"
        assert roots[0].lam.imag < HALF_PI - 0.3
        assert roots[0].lam.imag == pytest.approx(1.0768739863, abs=1e-7)


class TestScan:
    def test_single_bracket_contains_half_pi(self, fixed_free_string):
        brackets = scan_real_axis(fixed_free_string, 0.1, 5.0, 200, step=1e-3)
        crossings = [b for b in brackets if b.kind == "sign_change"]
        in_range = [b for b in crossings if b.p_lo <= HALF_PI <= b.p_hi]
        assert len(in_range) == 1
        assert len(crossings) == 2  # pi/2 and 3pi/2 lie inside (0.1, 5)

    def test_rootless_window_empty(self, fixed_free_string):
        assert scan_real_axis(fixed_free_string, 0.1, 1.0, 60, step=1e-3) == []

    def test_coarse_grid_merges_brackets(self):
        # point-mass string roots at 2pi and ~6.851 both fall inside the
        # single cell (6.0, 7.2): the two sign flips cancel, so the bracket
        # count drops below the root count (documented coarse-grid behavior)
        prob = build_point_mass_string()
        coarse = scan_real_axis(prob, 6.0, 7.2, 2, step=1e-3)
        assert len(coarse) < 2
        fine = scan_real_axis(prob, 6.0, 7.2, 40, step=1e-3)
        assert len([b for b in fine if b.kind == "sign_change"]) == 2


class TestRefine:
    def test_bisection_to_half_pi(self, fixed_free_string):
        res = refine_root(
            fixed_free_string,
            Bracket(1.5, 1.6, "sign_change", 1.55),
            tol=1e-10,
            max_iter=100,
            step=1e-3,
        )
        assert res.converged
        assert res.lam.imag == pytest.approx(HALF_PI, abs=1e-10)
        assert res.lam.real == 0.0

    def test_seed_at_exact_root_stops_immediately(self, fixed_free_string):
        root = refine_root(
            fixed_free_string, Bracket(1.5, 1.6, "sign_change", 1.55),
            tol=1e-12, max_iter=100, step=1e-3,
        ).lam
        res = refine_root(fixed_free_string, root, tol=1e-6, max_iter=100, step=1e-3)
        assert res.converged
        assert res.iterations <= 2
        assert abs(res.lam - root) <= 1e-8

    def test_damped_roots_have_negative_real_part(self):
        prob = build_spacecraft_bar(beta=0.02)
        roots = solve_spectrum(prob, SolveOptions(scan=(0.3, 6.0, 150), step=1e-3))
        assert len(roots) >= 2
        assert all(r.lam.real < 0 for r in roots)


class TestModeShape:
    def test_string_fundamental_is_sine(self, fixed_free_string):
        shape = mode_shape(fixed_free_string, 1j * HALF_PI, step=1e-3)
        displacement = shape.values[:, 0]
        displacement = displacement / displacement[np.argmax(np.abs(displacement))]
        np.testing.assert_allclose(
            displacement.real, np.sin(HALF_PI * shape.ys), atol=1e-6
        )
        np.testing.assert_allclose(displacement.imag, 0.0, atol=1e-9)

    def test_unit_max_abs_and_left_boundary(self, fixed_free_string):
        shape = mode_shape(fixed_free_string, 1j * HALF_PI, step=1e-3)
        assert np.max(np.abs(shape.values)) == pytest.approx(1.0, abs=1e-14)
        left_residual = fixed_free_string.boundary_left(shape.lam) @ shape.values[0]
        assert np.max(np.abs(left_residual)) <= 1e-8

    def test_point_mass_slope_jump(self):
        prob = build_point_mass_string()  # m0=1 at 0.5, rho=T=1
        roots = solve_spectrum(prob, SolveOptions(scan=(1.0, 2.5, 80), step=1e-3, tol=1e-12))
        lam = roots[0].lam
        p = lam.imag
        shape = mode_shape(prob, lam, step=1e-3)
        left_end = shape.values[shape.interval_slices[0]][-1]
        right_start = shape.values[shape.interval_slices[1]][0]
        jump = right_start[1] - left_end[1]
        expected = -p * p * left_end[0]  # m0 p^2 z1 / T with m0 = T = 1
        assert abs(jump - expected) <= 1e-6 * max(1.0, abs(expected))
        # displacement itself is continuous
        assert abs(right_start[0] - left_end[0]) <= 1e-12

    def test_interface_rows_satisfied(self):
        prob = build_point_mass_string()
        roots = solve_spectrum(prob, SolveOptions(scan=(1.0, 2.5, 80), step=1e-3, tol=1e-12))
        lam = roots[0].lam
        shape = mode_shape(prob, lam, step=1e-3)
        conj = prob.conjugations[0]
        z_left = shape.values[shape.interval_slices[0]][-1]
        z_right = shape.values[shape.interval_slices[1]][0]
        lhs = conj.d_matrix(lam) @ z_left
        rhs = conj.b_matrix(lam) @ z_right
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-6

    def test_not_a_root_rejected(self, fixed_free_string):
        with pytest.raises(NotARootError, match="not a root"):
            mode_shape(fixed_free_string, 1.0j, step=1e-3)


class TestPipelineInvariants:
    def test_breakpoint_insertion_leaves_determinant(self, fixed_free_string):
        refined = insert_breakpoint(fixed_free_string, 0.37)
        for p in np.linspace(0.3, 6.0, 12):
            lam = 0.31 + 1j * p
            d0 = characteristic_determinant(fixed_free_string, lam, step=1e-3)
            d1 = characteristic_determinant(refined, lam, step=1e-3)
            assert abs(abs(d1) - abs(d0)) <= 1e-8 * abs(d0)

    def test_identity_conjugations_compose_transposes(self):
        prob = make_string_problem(
            breakpoints=(0.0, 0.3, 0.7, 1.0),
            conjugations=(identity_conjugation(1), identity_conjugation(2)),
        )
        lam = 1.2j
        reduced = reduce_complex(prob, lam)
        u_tables, fundamentals, _, _ = _assemble(reduced, step=1e-3, keep_samples=False)
        g1 = fundamentals[0].end_matrix
        g2 = fundamentals[1].end_matrix
        expected = g2.T @ (g1.T @ u_tables[0])
        np.testing.assert_allclose(u_tables[2], expected, rtol=0, atol=1e-15)

    def test_interface_scaling_leaves_roots(self):
        base = build_point_mass_string()
        scaled_conj = ConjugationOperator(
            1,
            PolyMatrix(base.conjugations[0].d_matrix.coeffs * 7.3),
            PolyMatrix(base.conjugations[0].b_matrix.coeffs * 7.3),
        )
        scaled = base.__class__(
            base.name, base.partition, base.coefficients, base.boundary_left,
            base.boundary_right, (scaled_conj,), base.params, base.scalar_form,
        )
        opts = SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=1e-11)
        r1 = solve_spectrum(base, opts)
        r2 = solve_spectrum(scaled, opts)
        assert len(r1) == len(r2) >= 3
        for a, b in zip(r1, r2):
            assert abs(a.lam - b.lam) <= 1e-9

    def test_reduction_paths_agree_on_string(self, fixed_free_string):
        opts_c = SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=1e-11)
        opts_r = SolveOptions(scan=(0.5, 8.0, 160), step=1e-3, tol=1e-11, path="real_split")
        rc = solve_spectrum(fixed_free_string, opts_c)
        rr = solve_spectrum(fixed_free_string, opts_r)
        assert len(rc) == len(rr) >= 3
        for a, b in zip(rc, rr):
            assert abs(a.lam - b.lam) <= 1e-8

    def test_conjugate_of_complex_root_is_also_root(self):
        prob = build_spacecraft_bar()
        roots = solve_spectrum(prob, SolveOptions(scan=(0.3, 4.0, 100), step=1e-3))
        lam = roots[0].lam
        assert lam.imag > 0 and lam.real < 0
        d_conj = characteristic_determinant(prob, lam.conjugate(), step=1e-3)
        assert abs(d_conj) == pytest.approx(roots[0].residual, rel=1e-6, abs=1e-12)


def _y_varying_problem():
    """Two intervals, the second with y-polynomial A, B, C and a mass interface."""
    part = Partition((0.0, 0.4, 1.0))
    a0 = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b0 = PolyMatrix.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
    a1 = PolyMatrix.from_entries([[[0.0], [1.0, 0.2]], [[0.3, -0.5, 0.1], [0.0]]])
    b1 = PolyMatrix.from_entries([[[0.0], [0.0]], [[1.0, 0.4], [0.0, 0.05]]])
    c1 = PolyMatrix.from_entries([[[0.0], [0.0]], [[0.02, 0.01], [0.0]]])
    field = CoefficientField(part, (a0, a1), (b0, b1), (PolyMatrix.zero(2, 2), c1), 3.0)
    conj = ConjugationOperator(
        1,
        PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, 0.3], [1.0]]]),
        PolyMatrix.constant(np.eye(2)),
    )
    base = make_string_problem()
    right = type(base.boundary_right)(
        "right", PolyMatrix.from_entries([[[0.0, 0.1, 0.2], [1.0]]])
    )
    return ProblemDefinition("y_varying", part, field, base.boundary_left, right, (conj,))


def _y_varying_lambda_problem():
    """A lambda-field evaluator that depends on y, so no interval is constant."""
    part = Partition((0.0, 1.0))

    def coefficient(y, lam):
        return np.array([[0.0, 1.0], [lam * lam * (1.0 + 0.3 * y) / (1.0 + 0.01 * lam), 0.0]])

    field = LambdaCoefficientField(part, (coefficient,), dim=2, bound=1.3, y_independent=False)
    base = make_string_problem()
    return ProblemDefinition("y_lambda", part, field, base.boundary_left, base.boundary_right, ())


def _off_axis(n):
    """n lambdas with full-length mantissas in the left half-plane strip."""
    rng = np.random.default_rng(11)
    return rng.uniform(-0.5, 0.0, n) + 1j * rng.uniform(0.2, 9.0, n)


def _per_lambda(problem, lams, step, path="complex"):
    return np.array([characteristic_determinant(problem, z, step, path) for z in lams.tolist()])


def _first_error(problem, lams, step, path="complex"):
    for z in lams.tolist():
        try:
            characteristic_determinant(problem, z, step, path)
        except SolverError as exc:
            return exc
    raise AssertionError("no lambda of the loop failed")


class TestStackedDeterminant:
    """A stack of lambdas gives, bit for bit, what one lambda at a time gives."""

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    @pytest.mark.parametrize("path", ["complex", "real_split"])
    def test_scan_grid_bit_identical(self, name, path):
        p_min, p_max, n_grid = SCAN_DEFAULTS[name]
        problem = build_model(name)
        lams = 1j * np.linspace(p_min, p_max, n_grid)
        stacked = characteristic_determinant(problem, lams, 1e-3, path)
        assert stacked.shape == (n_grid,) and stacked.dtype == complex
        assert stacked.tobytes() == _per_lambda(problem, lams, 1e-3, path).tobytes()

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_off_axis_bit_identical(self, name):
        # Newton's difference pairs leave the axis: products of complex
        # numbers with both parts nonzero are where fused and plain
        # multiply-adds would part
        lams = _off_axis(25)
        problem = build_model(name)
        stacked = characteristic_determinant(problem, lams, 2e-3)
        assert stacked.tobytes() == _per_lambda(problem, lams, 2e-3).tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            _y_varying_problem,
            _y_varying_lambda_problem,
            lambda: insert_breakpoint(build_model("machine_unit"), 0.37),
            lambda: insert_breakpoint(build_model("point_mass_string"), 0.8),
        ],
        ids=["y_varying", "y_varying_lambda", "machine_unit_breakpoint", "point_mass_breakpoint"],
    )
    @pytest.mark.parametrize("path", ["complex", "real_split"])
    def test_general_path_and_interfaces_bit_identical(self, make, path):
        problem = make()
        lams = _off_axis(60) if path == "complex" else 1j * np.linspace(0.2, 10.0, 60)
        stacked = characteristic_determinant(problem, lams, 2e-3, path)
        assert stacked.tobytes() == _per_lambda(problem, lams, 2e-3, path).tobytes()

    def test_chunked_stack_bit_identical(self, monkeypatch):
        problem = _y_varying_problem()
        lams = 1j * np.linspace(0.2, 10.0, 40) - 0.2
        whole = characteristic_determinant(problem, lams, 2e-3)
        # a budget of a few lambdas per chunk
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 3 * 4 * 502)
        assert spectrum._stack_chunk(problem, 2e-3, "complex") == 2
        assert characteristic_determinant(problem, lams, 2e-3).tobytes() == whole.tobytes()

    def test_constant_problems_are_not_chunked(self):
        assert spectrum._stack_chunk(build_model("cable_snapshot"), 1e-6, "complex") is None

    def test_scalar_returns_python_complex(self):
        problem = build_model("machine_unit")
        assert type(characteristic_determinant(problem, 2.0j, 1e-3)) is complex
        assert type(characteristic_determinant(problem, np.complex128(2.0j), 1e-3)) is complex
        one = characteristic_determinant(problem, np.array([2.0j]), 1e-3)
        assert isinstance(one, np.ndarray) and one.shape == (1,)

    def test_stack_through_a_pole_raises_the_loops_error(self):
        # Kelvin-Voigt factor G*Ip + zeta1*lam vanishes at -G*Ip/zeta1 = -2
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-1.8, -1.9, -2.0, -2.1, -2.0]) + 0j
        expected = _first_error(problem, lams, 1e-2)
        assert isinstance(expected, PoleError)
        with pytest.raises(PoleError) as info:
            characteristic_determinant(problem, lams, 1e-2)
        assert str(info.value) == str(expected)
        assert "lambda=(-2+0j)" in str(info.value)

    def test_failing_stack_raises_the_first_failure_in_grid_order(self):
        # -1.999999 overflows in integration, after the whole stack has
        # passed reduction, where the pole at -2 fails; the loop meets the
        # overflow first, and so must the stack
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-1.8, -1.999999, -2.0, -2.1]) + 0j
        expected = _first_error(problem, lams, 1e-2)
        with pytest.raises(IntegrationError) as info:
            characteristic_determinant(problem, lams, 1e-2)
        assert type(expected) is IntegrationError
        assert (str(info.value), info.value.interval) == (str(expected), expected.interval)
        assert info.value.lam == -1.999999

    def test_stack_with_singular_interface_raises_the_loops_error(self):
        # B(lam) = diag(1, 1 + lam^2 / 4) is singular at lam = 2i
        conj = ConjugationOperator(
            1,
            PolyMatrix.constant(np.eye(2)),
            PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [1.0, 0.0, 0.25]]]),
        )
        problem = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(conj,))
        # |det B| = 2e-13 passes the solve but not the singularity tolerance
        lams = 1j * np.array([1.0, 1.5, 2.0 + 2e-13, 2.5])
        expected = _first_error(problem, lams, 1e-3)
        with pytest.raises(PropagationError) as info:
            characteristic_determinant(problem, lams, 1e-3)
        assert (info.value.interface, info.value.lam) == (expected.interface, expected.lam)
        assert info.value.lam == lams[2]
        assert str(info.value) == str(expected)
        with pytest.raises(PropagationError, match="interface 1, lambda=2j"):
            scan_real_axis(problem, 1.0, 3.0, 5, step=1e-3)

    def test_near_singular_warnings_match_the_loop(self):
        # trace(A + lam C) = -40 lam, so |det G| = exp(-40 Re(lam) length)
        # falls below the warning level for the larger real parts
        base = make_string_problem(breakpoints=(0.0, 0.37, 1.0),
                                   conjugations=(identity_conjugation(1),))
        field = base.coefficients
        c = PolyMatrix.constant(np.array([[-40.0, 0.0], [0.0, 0.0]]))
        field = CoefficientField(field.partition, field.a_polys, field.b_polys, (c, c), 40.0)
        problem = ProblemDefinition("lossy", base.partition, field, base.boundary_left,
                                    base.boundary_right, base.conjugations)
        lams = np.linspace(0.0, 1.5, 12) + 2.0j

        def messages(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            return sorted(str(w.message) for w in caught if "nearly singular" in str(w.message))

        stacked = messages(lambda: characteristic_determinant(problem, lams, 1e-2))
        looped = messages(lambda: _per_lambda(problem, lams, 1e-2))
        assert len(looped) > 0
        assert stacked == looped

    def test_refinement_unchanged_by_stacked_probes(self, monkeypatch):
        # the difference pairs and the polish probes go in as stacks; the
        # refined roots must equal those refined from one lambda at a time
        def refine_all():
            return [
                refine_root(build_model("spacecraft_bar", beta=0.02), complex(-0.1, 1.4),
                            tol=1e-10, max_iter=50, step=2e-3),
                refine_root(build_model("fixed_free_string"), 1.5j, tol=1e-10,
                            max_iter=50, step=1e-3, path="real_split"),
            ]

        stacked = refine_all()
        original = spectrum.characteristic_determinant

        def one_at_a_time(problem, lam, step, path="complex"):
            if np.ndim(lam) == 0:
                return original(problem, lam, step, path)
            return np.array([original(problem, z, step, path) for z in lam.tolist()])

        monkeypatch.setattr(spectrum, "characteristic_determinant", one_at_a_time)
        looped = refine_all()
        assert all(r.converged for r in stacked)
        for a, b in zip(stacked, looped):
            assert (a.lam, a.residual, a.iterations) == (b.lam, b.residual, b.iterations)


@pytest.fixture
def det_calls(monkeypatch):
    """The lambdas of every characteristic_determinant call refinement makes."""
    calls = []
    original = spectrum.characteristic_determinant

    def counting(problem, lam, step, path="complex"):
        calls.append(lam)
        return original(problem, lam, step, path)

    monkeypatch.setattr(spectrum, "characteristic_determinant", counting)
    return calls


def _nan_off(strip, root):
    """A D(lambda) = lambda - root that is NaN wherever |Re lambda| > strip."""

    def dfun(lam):
        lam = np.asarray(lam)
        d = np.where(np.abs(lam.real) > strip, complex("nan+nanj"), lam - root)
        return complex(d) if d.ndim == 0 else d

    return dfun


class TestSuperlinearRefinement:
    """False position on scan brackets, the double-root step on the axis,
    and the exits refinement takes when it cannot go on."""

    def test_false_position_reaches_half_pi_in_few_calls(self, fixed_free_string, det_calls):
        # bisection of this scan bracket down to tol made 31 calls
        brackets = scan_real_axis(fixed_free_string, 0.2, 10.0, 240, step=1e-3)
        bracket = next(b for b in brackets if b.kind == "sign_change")
        del det_calls[:]
        res = refine_root(fixed_free_string, bracket, tol=1e-10, max_iter=100, step=1e-3)
        assert res.converged
        assert res.lam.real == 0.0
        assert res.lam.imag == pytest.approx(HALF_PI, abs=1e-10)
        assert len(det_calls) <= 8

    @pytest.mark.parametrize("kept", ["hi", "lo"])
    def test_illinois_step_moves_the_kept_end(self, kept):
        # p^10 - 1/2 is so convex on (0, 1) that plain false position keeps
        # the upper end and creeps up from below; its mirror image keeps the
        # lower end.  Bisection takes 40 steps
        def dfun(lam):
            p = lam.imag if kept == "hi" else 1.0 - lam.imag
            return complex(p**10 - 0.5)

        root = 0.5**0.1 if kept == "hi" else 1.0 - 0.5**0.1
        res = spectrum._run(spectrum._bisect_bracket(Bracket(0.0, 1.0, "sign_change", 0.5), 1e-12, 100, "complex"), dfun)
        assert res.converged
        assert res.lam.imag == pytest.approx(root, abs=1e-11)
        assert res.iterations <= 20

    def test_double_root_step_on_the_axis(self, fixed_free_string, det_calls):
        # plain Newton only halves the error at a double zero: 39 calls
        res = refine_root(fixed_free_string, 1.5j, tol=1e-10, max_iter=100, step=1e-3,
                          path="real_split")
        assert res.converged
        assert res.lam.imag == pytest.approx(HALF_PI, abs=1e-10)
        assert len(det_calls) <= 12

    def test_damped_bracket_hands_off_to_newton(self, det_calls):
        # Re D crosses zero on the axis but the root lies off it; the root
        # is the one bisection followed by Newton found, in 38 calls
        prob = build_spacecraft_bar(beta=0.02)
        bracket = scan_real_axis(prob, 0.3, 6.0, 150, step=1e-3)[0]
        del det_calls[:]
        res = refine_root(prob, bracket, tol=1e-10, max_iter=100, step=1e-3)
        assert res.converged
        assert res.lam.real < 0.0
        assert abs(res.lam - complex(-0.009547444530718822, 0.9102870862506228)) <= 1e-10
        assert len(det_calls) <= 20

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_bracket_point_lies_inside_the_bracket(self, name, monkeypatch):
        # Newton replaced by the identity, so every result is the point the
        # bracket phase accepted or handed on
        def no_newton(seed, tol, max_iter, path):
            return spectrum.SpectralResult(seed, 0.0, 0, False)
            yield

        monkeypatch.setattr(spectrum, "_newton", no_newton)
        prob = build_model(name)
        brackets = [
            b for b in scan_real_axis(prob, *SCAN_DEFAULTS[name], step=2e-3)
            if b.kind == "sign_change"
        ]
        assert brackets
        for b in brackets:
            res = refine_root(prob, b, tol=1e-10, max_iter=100, step=2e-3)
            assert res.lam.real == 0.0
            assert b.p_lo <= res.lam.imag <= b.p_hi

    def test_real_split_without_axis_roots_stagnates(self, det_calls):
        # spacecraft_bar has no root on the axis.  Its minimum seeds used to
        # accept steps that raised |D| and made 4,434 calls in all
        prob = build_model("spacecraft_bar")
        options = SolveOptions(scan=SCAN_DEFAULTS["spacecraft_bar"], path="real_split")
        assert solve_spectrum(prob, options) == []
        assert len(det_calls) <= 400

        step = spectrum.resolve_step(prob, options)
        brackets = scan_real_axis(prob, *options.scan, step=step, path="real_split")
        results = [refine_root(prob, b, step=step, path="real_split") for b in brackets]
        assert results and all(r.message == "stagnated" for r in results)
        assert not any(r.converged for r in results)

    def test_sign_change_on_the_axis_is_not_a_root(self):
        # pipeline's real-split D(i p) is odd in p, with a simple zero at
        # p = 0, but the complex-path D(0) is 0.5: lambda = 0 is no root
        prob = build_model("pipeline")
        assert abs(characteristic_determinant(prob, 0j, 1e-3)) > 0.1
        res = refine_root(prob, 0.01j, step=1e-3, path="real_split")
        assert not res.converged
        assert res.message == "D(i p) changes sign: not a touching zero"

    @pytest.mark.parametrize(
        "strip, root, seed, message",
        [
            # every off-axis lambda is NaN: the difference pair is
            (0.0, complex(-0.1, 1.5), 1.4j, "derivative not finite"),
            # the damped steps toward a far root find nothing finite
            (1e-3, complex(-100.0, 1.4), 1.4j, "determinant not finite"),
            (0.0, complex(-0.1, 1.5), complex(0.1, 1.4), "determinant not finite at the seed"),
        ],
        ids=["difference_pair", "damped_steps", "seed"],
    )
    def test_non_finite_determinant_is_an_exit(self, strip, root, seed, message):
        res = spectrum._run(spectrum._newton(seed, 1e-10, 100, "complex"), _nan_off(strip, root))
        assert not res.converged
        assert res.message == message
        assert abs(res.lam.real) <= strip or res.lam == seed

    def test_small_step_onto_a_non_finite_value_is_halved(self):
        # a step below tol is taken even when |D| grows, but never onto NaN
        res = spectrum._run(spectrum._newton(1.4j, 1e-2, 100, "complex"), _nan_off(1e-3, complex(-100.0, 1.4)))
        assert -1e-3 <= res.lam.real < 0.0

    def test_polish_skips_a_non_finite_probe(self):
        def dfun(lam):
            lam = np.asarray(lam)
            assert np.all(np.isfinite(lam))
            d = np.where(lam.imag > 1.5, complex("nan+nanj"), (lam.imag - 1.5) ** 2 + 0j)
            return complex(d) if d.ndim == 0 else d

        lam, res, _, touching = spectrum._run(spectrum._vertex_polish(1.5j, 1e-3, 1e-10), dfun)
        assert (lam, res, touching) == (1.5j, 0.0, False)

    def test_non_finite_value_inside_a_bracket_is_not_accepted(self):
        # NaN off the axis and inside (1.4, 1.5) on it: the bracket phase
        # hands its last point to Newton, which reports the seed
        def dfun(lam):
            lam = np.asarray(lam)
            bad = (lam.real != 0.0) | ((lam.imag > 1.4) & (lam.imag < 1.5))
            d = np.where(bad, complex("nan+nanj"), lam.imag - 1.45 + 0j)
            return complex(d) if d.ndim == 0 else d

        res = spectrum._run(spectrum._bisect_bracket(Bracket(1.0, 2.0, "sign_change", 1.5), 1e-10, 100, "complex"), dfun)
        assert not res.converged
        assert res.message == "determinant not finite at the seed"


# ---------------------------------------------------------------------------
# lockstep refinement and stacked mode shapes
# ---------------------------------------------------------------------------

#: the two complex search rectangles of the benchmark's rect_search workload
BENCH_RECTS = [
    (("machine_unit", {"left_end": "clamped", "right_end": "clamped"}), (-0.5, 0.0, 0.5, 10.0, 4, 4)),
    (("spacecraft_bar", {"beta": 0.02}), (-0.5, 0.0, 0.5, 6.0, 4, 6)),
]

PARITY_CASES = (
    [
        pytest.param(name, {}, SolveOptions(scan=SCAN_DEFAULTS[name], path=path), id=f"{name}-{path}")
        for name in sorted(SCAN_DEFAULTS)
        for path in ("complex", "real_split")
    ]
    + [
        pytest.param(name, params, SolveOptions(rect=rect, step=1e-3), id=f"rect-{name}")
        for (name, params), rect in BENCH_RECTS
    ]
    + [
        pytest.param("spacecraft_bar", {"beta": 0.02},
                     SolveOptions(scan=(0.3, 6.0, 150), step=1e-3), id="damped_bar_scan")
    ]
)


def _targets(problem, options, step):
    """The candidates of a solve, in the order solve_spectrum refines them."""
    targets = []
    if options.scan is not None:
        targets += scan_real_axis(problem, *options.scan, step=step, path=options.path)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        targets += [complex(re, im) for re in np.linspace(re0, re1, nr)
                    for im in np.linspace(im0, im1, ni)]
    return targets


def _fields(results):
    return [(r.lam, r.residual, r.iterations, r.converged, r.message) for r in results]


class TestLockstepRefinement:
    """All candidates of a solve refined at once give what refining them one
    after another gives, in fewer determinant calls."""

    @pytest.mark.parametrize("name, params, options", PARITY_CASES)
    def test_solve_equals_the_sequential_loop(self, name, params, options):
        problem = build_model(name, **params)
        step = spectrum.resolve_step(problem, options)
        targets = _targets(problem, options, step)
        looped = [refine_root(problem, t, options.tol, options.max_iter, step, options.path)
                  for t in targets]
        lockstep = spectrum._refine_all(problem, targets, options.tol, options.max_iter,
                                        step, options.path)
        assert _fields(lockstep) == _fields(looped)
        expected = spectrum._dedupe([r for r in looped if r.converged], options.tol)
        assert _fields(solve_spectrum(problem, options)) == _fields(expected)

    def test_calls_follow_the_longest_chain(self, fixed_free_string, det_calls):
        # at the benchmark's scan window the three chains take 9 calls each:
        # 27 one after another, 9 in lockstep
        options = SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="real_split")
        brackets = scan_real_axis(fixed_free_string, *options.scan, step=1e-3, path="real_split")
        chains = []
        for b in brackets:
            del det_calls[:]
            refine_root(fixed_free_string, b, step=1e-3, path="real_split")
            chains.append(len(det_calls))
        assert len(chains) >= 2 and max(chains) < sum(chains)
        del det_calls[:]
        solve_spectrum(fixed_free_string, options)
        assert len(det_calls) == 1 + max(chains)  # the scan, then refinement

    @pytest.mark.parametrize("scan", [(0.2, 1.0, 10), (0.2, 10.0, 240)], ids=["no_candidate", "candidates"])
    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_non_positive_tol_is_rejected_before_the_scan(self, fixed_free_string, det_calls, scan, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=scan, step=1e-3, tol=tol))
        assert det_calls == []

    def test_failing_round_raises_the_sequential_loops_error(self, monkeypatch):
        # D = (lambda - r)^3 around two roots, so Newton takes many steps.
        # Candidate 2's third request and candidate 1's seventh fail: in
        # lockstep candidate 2 fails first, but one after another candidate
        # 1 does, and its error is the one to raise
        roots = [complex(1.0, 1.0), complex(5.0, 5.0)]
        seeds = [complex(1.3, 1.1), complex(5.4, 4.8)]

        def cubic(lam):
            lam = np.asarray(lam, dtype=complex)
            d = np.where(lam.real < 3.0, (lam - roots[0]) ** 3, (lam - roots[1]) ** 3)
            return complex(d) if d.ndim == 0 else d

        requests = []
        for seed in seeds:
            seen = []

            def recording(lam, seen=seen):
                seen.append(lam)
                return cubic(lam)

            spectrum._run(spectrum._newton(seed, 1e-10, 100, "complex"), recording)
            requests.append(seen)
        assert len(requests[0]) > 7 and len(requests[1]) > 3
        poison = {
            z: (PropagationError, 1) for z in np.atleast_1d(requests[0][6]).tolist()
        } | {z: (IntegrationError, 0) for z in np.atleast_1d(requests[1][2]).tolist()}

        raised = []

        def stub(problem, lam, step, path="complex"):
            for z in np.atleast_1d(lam).tolist():
                if z in poison:
                    error, where = poison[z]
                    raised.append(error)
                    raise error(where, z, "stub")
            return cubic(lam)

        monkeypatch.setattr(spectrum, "characteristic_determinant", stub)
        with pytest.raises(SolverError) as looped:
            for seed in seeds:
                refine_root(None, seed, 1e-10, 100, 1e-3)
        del raised[:]
        with pytest.raises(SolverError) as lockstep:
            spectrum._refine_all(None, seeds, 1e-10, 100, 1e-3, "complex")
        assert raised == [IntegrationError, PropagationError]
        assert type(looped.value) is PropagationError
        assert type(lockstep.value) is type(looped.value)
        assert str(lockstep.value) == str(looped.value)
        assert lockstep.value.lam == looped.value.lam
        assert lockstep.value.interface == looped.value.interface == 1


MODE_CASES = [
    pytest.param(name, {}, path, id=f"{name}-{path}")
    for name in ("fixed_free_string", "fixed_fixed_string", "point_mass_string", "cable_snapshot")
    for path in ("complex", "real_split")
] + [pytest.param("spacecraft_bar", {}, "complex", id="spacecraft_bar-complex")]


class TestStackedModeShapes:
    @pytest.mark.parametrize("name, params, path", MODE_CASES)
    def test_stack_equals_one_at_a_time(self, name, params, path):
        problem = build_model(name, **params)
        options = SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3, path=path)
        lams = [r.lam for r in solve_spectrum(problem, options)[:3]]
        assert len(lams) == 3
        stacked = list(spectrum.mode_shapes(problem, lams, 1e-3, path))
        assert len(stacked) == 3
        for lam, got in zip(lams, stacked):
            want = mode_shape(problem, lam, 1e-3, path)
            assert got.lam == want.lam == lam
            assert got.ys.tobytes() == want.ys.tobytes()
            assert got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()
            assert got.normalization == want.normalization
            assert got.interval_slices == want.interval_slices
        if name == "spacecraft_bar":
            # a damped shape: its CSV carries im_comp_k columns
            assert all(np.max(np.abs(s.values.imag)) > 1e-12 for s in stacked)

    def test_sampled_stacks_are_chunked(self, monkeypatch):
        problem = build_model("fixed_free_string")
        # 1000 steps + 2 end nodes, 4 x 4 real-split matrices per sample
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 2 * 16 * 1002)
        assert spectrum._stack_chunk(problem, 1e-3, "real_split", keep_samples=True) == 2
        assert spectrum._stack_chunk(problem, 1e-3, "real_split") is None
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 1)
        assert spectrum._stack_chunk(problem, 1e-3, "real_split", keep_samples=True) == 1

    def test_a_failing_lambda_comes_after_the_shapes_before_it(self, monkeypatch):
        # a stack holding the second root fails in integration; the first
        # shape is still yielded, then the second root's own error is raised
        problem = build_model("fixed_free_string")
        lams = [0.5j * math.pi * k for k in (1, 3, 5)]
        original = spectrum.integrate_fundamental

        def failing(reduced, interval, step, keep_samples=False):
            if lams[1] in spectrum.each_lambda(reduced.lam):
                raise IntegrationError(interval, lams[1], "stub")
            return original(reduced, interval, step, keep_samples)

        monkeypatch.setattr(spectrum, "integrate_fundamental", failing)
        shapes = spectrum.mode_shapes(problem, lams, 1e-3)
        assert next(shapes).lam == lams[0]
        with pytest.raises(IntegrationError, match="stub") as info:
            next(shapes)
        assert info.value.lam == lams[1]
