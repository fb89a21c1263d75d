"""Determinant assembly, root finding, mode shapes, and their invariants."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscispec import (
    BoundaryDegeneracyError,
    BoundaryOperator,
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
from oscispec import problem as problem_module
from oscispec import spectrum
from oscispec.linalg import adjugate_form
from oscispec.models import SCAN_DEFAULTS, build_model
from oscispec.oracle import FDOracleConfig, fd_polynomial_eigenvalues
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


def _machine_unit_roots(params):
    problem = build_model("machine_unit", **params)
    roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
    return [(r.lam, r.residual, r.iterations) for r in roots]


class TestBoundOncePerProblem:
    """What a problem fixes is computed once per problem, not per lambda."""

    def test_constant_left_row_reduced_once_per_problem(self, monkeypatch):
        problem = build_model("fixed_free_string")
        left = problem.boundary_left(0j)
        reduced, dets = [], []

        def watch(module):
            original = module.rref_null_basis

            def counting(matrix, tol=1e-12):
                rows = np.asarray(matrix)
                if rows.shape[-2:] == left.shape and np.all(rows == left):
                    reduced.append(rows.shape)
                return original(matrix, tol)

            monkeypatch.setattr(module, "rref_null_basis", counting)

        watch(problem_module)
        watch(spectrum)
        for name in ("_determinant", "_newton_values"):
            original = getattr(spectrum, name)
            monkeypatch.setattr(
                spectrum, name, lambda *args, original=original: dets.append(1) or original(*args)
            )
        roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        assert len(roots) == 3 and len(dets) > 1
        assert reduced == [(1, 2)]

    def test_boundary_variants_solved_in_turn_give_their_own_roots(self):
        # clamped and the undamped free rotor are lambda-free rows with
        # different tables; the damped free row and the default depend on
        # lambda.  Each variant alone runs in a fresh interpreter.
        variants = (
            {"left_end": "clamped"},
            {"left_end": "free"},
            {},
            {"left_end": "free", "zeta1": 0.0},
        )
        in_turn = [repr(_machine_unit_roots(params)) for params in variants]
        src = str(Path(spectrum.__file__).resolve().parents[1])
        tests_dir = str(Path(__file__).resolve().parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests_dir])}
        code = (
            "import json, sys; from test_spectrum import _machine_unit_roots; "
            "print(repr(_machine_unit_roots(json.loads(sys.argv[1]))))"
        )
        for params, roots in zip(variants, in_turn):
            proc = subprocess.run(
                [sys.executable, "-c", code, json.dumps(params)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == roots
        assert len(set(in_turn)) == 4

    def test_rank_deficient_constant_left_row_names_the_first_lambda(self):
        degenerate = BoundaryOperator("left", PolyMatrix.from_entries([[[0.0], [0.0]]]))
        problem = dataclasses.replace(make_string_problem(), boundary_left=degenerate)
        lams = 1j * np.linspace(0.5, 3.0, 6)
        with pytest.raises(BoundaryDegeneracyError) as info:
            _assemble(reduce_complex(problem, lams), 1e-2, keep_samples=False)
        assert info.value.lam == lams[0]
        assert (info.value.rank, info.value.expected) == (0, 1)
        with pytest.raises(BoundaryDegeneracyError) as info:
            characteristic_determinant(problem, lams, 1e-2)
        assert info.value.lam == lams[0]

    def test_singular_constant_interface_names_the_first_lambda(self):
        conj = ConjugationOperator(
            1, PolyMatrix.constant(np.eye(2)), PolyMatrix.constant(np.diag([1.0, 0.0]))
        )
        problem = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(conj,))
        lams = 1j * np.linspace(0.5, 3.0, 6)
        with pytest.raises(PropagationError) as info:
            _assemble(reduce_complex(problem, lams), 1e-2, keep_samples=False)
        assert (info.value.interface, info.value.lam) == (1, lams[0])

    def test_constant_matrix_at_a_stack_is_one_shared_view(self):
        matrix = PolyMatrix.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        lams = 1j * np.linspace(0.5, 3.0, 6)
        stacked = matrix(lams)
        assert stacked.shape == (6, 2, 2) and stacked.dtype == complex
        assert stacked.strides[0] == 0 and not stacked.flags.writeable
        for k, z in enumerate(lams.tolist()):
            assert stacked[k].tobytes() == matrix(z).tobytes()


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


#: scan windows of every built-in: SCAN_DEFAULTS, one that holds lambda = 0,
#: a short one, a coarse one and one that starts near 0
SCAN_WINDOWS = [(0.2, 10.0, 240), (-1.0, 10.0, 220), (0.3, 2.0, 50), (-0.13, 0.87, 5), (0.05, 3.0, 31)]


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

    @pytest.mark.parametrize("window", SCAN_WINDOWS, ids=lambda w: ":".join(map(str, w)))
    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_scan_equals_the_plain_loop(self, name, window):
        problem = build_model(name)
        brackets, memo = spectrum._scan(problem, *window, 1e-3)
        ps = np.linspace(*window)
        dvals = characteristic_determinant(problem, 1j * ps, 1e-3)
        _same_brackets(brackets, _loop_brackets(ps, dvals))
        assert memo == dict(zip(_keys(1j * ps), dvals.tolist()))

    @pytest.mark.parametrize("seed", range(40))
    def test_scan_equals_the_plain_loop_on_ties_and_nan(self, seed, monkeypatch):
        # small integer values: zeros, equal neighbours, minima next to sign
        # changes and NaN, which the built-in grids seldom show
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        dvals = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n) * 0.01
        dvals[rng.random(n) < 0.05] = np.nan
        monkeypatch.setattr(spectrum, "characteristic_determinant", lambda *args: dvals)
        brackets, _ = spectrum._scan(None, 0.0, 1.0, n, 1e-3)
        _same_brackets(brackets, _loop_brackets(np.linspace(0.0, 1.0, n), dvals))


def _loop_brackets(ps, dvals):
    # the per-point bracket loop the vectorized search replaced, kept as the
    # reference
    f, mag = dvals.real, np.abs(dvals)
    expected, flagged = [], np.zeros(len(ps), dtype=bool)
    for i in range(len(ps) - 1):
        if f[i] * f[i + 1] < 0.0:
            expected.append(Bracket(ps[i], ps[i + 1], "sign_change", 0.5 * (ps[i] + ps[i + 1])))
            flagged[i] = flagged[i + 1] = True
    threshold = spectrum._MINIMUM_RATIO * float(np.median(mag))
    for i in range(1, len(ps) - 1):
        if flagged[i - 1] or flagged[i] or flagged[i + 1]:
            continue
        if mag[i] < threshold and mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1]:
            expected.append(Bracket(ps[i - 1], ps[i + 1], "minimum", ps[i]))
    expected.sort(key=lambda b: b.p_seed)
    return expected


def _same_brackets(brackets, expected):
    # equal values, kinds and order, every coordinate a float64
    assert brackets == expected
    types = {type(getattr(b, k)) for b in brackets for k in ("p_lo", "p_hi", "p_seed")}
    assert types <= {np.float64}


class TestMedian:
    """spectrum._median is np.median bit for bit, without numpy.ma."""

    @staticmethod
    def _same(values):
        ours, ref = spectrum._median(values), np.median(values)
        assert type(ours) is float
        assert ours.hex() == float(ref).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 240, 241])
    def test_random_magnitudes_over_ten_decades(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            self._same(10.0 ** rng.uniform(-5.0, 5.0, n))

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_ties_and_zeros(self, n):
        self._same(np.zeros(n))
        self._same(np.r_[np.zeros(n // 2), np.ones(n - n // 2)])
        self._same(np.r_[np.full(n - 1, 1e-300), np.inf])
        with np.errstate(over="ignore"):  # a + b overflows, as in np.median
            self._same(np.full(n, np.finfo(float).max))

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_determinant_grid_of_each_built_in(self, name):
        ps = np.linspace(*SCAN_DEFAULTS[name])
        mag = np.abs(characteristic_determinant(build_model(name), 1j * ps, 1e-3))
        self._same(mag)
        self._same(mag[1:])  # and an even length

    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("at", [0, -1])
    def test_any_nan_gives_nan(self, n, at):
        values = np.arange(1.0, n + 1.0)
        values[at] = np.nan
        assert math.isnan(spectrum._median(values))
        assert math.isnan(np.median(values))


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

    @pytest.mark.parametrize(
        "path, lam, message",
        [("bogus", 1j * HALF_PI, "unknown path 'bogus'"),
         ("real_split", complex(0.1, HALF_PI), "imaginary axis only")],
        ids=["unknown_path", "off_axis"],
    )
    def test_bad_path_rejected_before_propagation(
        self, fixed_free_string, monkeypatch, path, lam, message
    ):
        calls = []
        monkeypatch.setattr(spectrum, "reduce_complex", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=message):
            mode_shape(fixed_free_string, lam, 1e-3, path)
        assert calls == []


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

    @pytest.mark.parametrize(
        "name", ["cable_snapshot", "fixed_fixed_string", "fixed_free_string", "point_mass_string"]
    )
    def test_reduction_paths_agree_on_string(self, name):
        # D is real on the axis of an undamped model: both paths refine
        # every bracket with the same axis Newton, from the same memo
        problem = build_model(name)
        rc = solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3))
        rr = solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3, path="real_split"))
        assert len(rc) >= 3
        assert rc == rr

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
        # lam is a 0-d or 1-D complex array; computed on its 1-D form
        z = lam.reshape(-1)
        out = np.zeros(z.shape + (2, 2), dtype=complex)
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = z * z * (1.0 + 0.3 * y) / (1.0 + 0.01 * z)
        return out.reshape(lam.shape + (2, 2))

    field = LambdaCoefficientField(part, (coefficient,), dim=2, bound=1.3, y_independent=False)
    base = make_string_problem()
    return ProblemDefinition("y_lambda", part, field, base.boundary_left, base.boundary_right, ())


def _off_axis(n):
    """n lambdas with full-length mantissas in the left half-plane strip."""
    rng = np.random.default_rng(11)
    return rng.uniform(-0.5, 0.0, n) + 1j * rng.uniform(0.2, 9.0, n)


def _per_lambda(problem, lams, step):
    return np.array([characteristic_determinant(problem, z, step) for z in lams.tolist()])


def _first_error(problem, lams, step):
    for z in lams.tolist():
        try:
            characteristic_determinant(problem, z, step)
        except SolverError as exc:
            return exc
    raise AssertionError("no lambda of the loop failed")


class TestStackedDeterminant:
    """A stack of lambdas gives, bit for bit, what one lambda at a time gives."""

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_scan_grid_bit_identical(self, name):
        p_min, p_max, n_grid = SCAN_DEFAULTS[name]
        problem = build_model(name)
        lams = 1j * np.linspace(p_min, p_max, n_grid)
        stacked = characteristic_determinant(problem, lams, 1e-3)
        assert stacked.shape == (n_grid,) and stacked.dtype == complex
        assert stacked.tobytes() == _per_lambda(problem, lams, 1e-3).tobytes()

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
    def test_general_path_and_interfaces_bit_identical(self, make):
        problem = make()
        lams = _off_axis(60)
        stacked = characteristic_determinant(problem, lams, 2e-3)
        assert stacked.tobytes() == _per_lambda(problem, lams, 2e-3).tobytes()

    def test_chunked_stack_bit_identical(self, monkeypatch):
        problem = _y_varying_problem()
        lams = 1j * np.linspace(0.2, 10.0, 40) - 0.2
        whole = characteristic_determinant(problem, lams, 2e-3)
        # a budget of a few lambdas per chunk
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 3 * 4 * 502)
        assert spectrum._stack_chunk(problem, 2e-3) == 2
        assert characteristic_determinant(problem, lams, 2e-3).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("replay_fails", [True, False])
    def test_failed_chunk_is_replayed_alone(self, monkeypatch, replay_fails):
        # the second chunk fails as a stack; the first is kept, and only
        # the second is evaluated again, one lambda at a time
        calls = []

        def stub(problem, lam, step):
            calls.append(np.atleast_1d(lam).tolist())
            if 3j in calls[-1] and (replay_fails or np.ndim(lam)):
                raise SolverError(f"failed at {calls[-1]}")
            return 2 * lam

        monkeypatch.setattr(spectrum, "_determinant", stub)
        monkeypatch.setattr(spectrum, "_stack_chunk", lambda *args, **kwargs: 2)
        lams = 1j * np.arange(1.0, 6.0)
        if replay_fails:
            with pytest.raises(SolverError, match=r"failed at \[3j\]"):
                characteristic_determinant(build_model("machine_unit"), lams, 1e-3)
            assert calls == [[1j, 2j], [3j, 4j], [3j]]
        else:
            values = characteristic_determinant(build_model("machine_unit"), lams, 1e-3)
            assert values.tolist() == (2 * lams).tolist()
            assert calls == [[1j, 2j], [3j, 4j], [3j], [4j], [5j]]

    def test_constant_problems_are_not_chunked(self):
        assert spectrum._stack_chunk(build_model("cable_snapshot"), 1e-6) is None

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
        # the difference pairs go in as stacks; the refined roots must equal
        # those refined from one lambda at a time
        def refine_all():
            return [
                refine_root(build_model("spacecraft_bar", beta=0.02), complex(-0.1, 1.4),
                            tol=1e-10, max_iter=50, step=2e-3),
                refine_root(build_model("fixed_free_string"), 1.5j, tol=1e-10,
                            max_iter=50, step=1e-3),
            ]

        stacked = refine_all()
        original = spectrum.characteristic_determinant

        def one_at_a_time(problem, lam, step):
            if np.ndim(lam) == 0:
                return original(problem, lam, step)
            return np.array([original(problem, z, step) for z in lam.tolist()])

        monkeypatch.setattr(spectrum, "characteristic_determinant", one_at_a_time)
        looped = refine_all()
        assert all(r.converged for r in stacked)
        for a, b in zip(stacked, looped):
            assert (a.lam, a.residual, a.iterations) == (b.lam, b.residual, b.iterations)


@pytest.fixture
def det_calls(monkeypatch):
    """The lambdas of every determinant evaluation, characteristic_determinant
    or Newton's (_newton_values), in call order."""
    calls = []
    for name in ("characteristic_determinant", "_newton_values"):
        original = getattr(spectrum, name)

        def counting(problem, lam, step, original=original):
            calls.append(lam)
            return original(problem, lam, step)

        monkeypatch.setattr(spectrum, name, counting)
    return calls


def _analytic(d_of, slope_of):
    """Refinement's evaluate(lams, newton) for an analytic D = d_of(lambda)
    with derivative slope_of(lambda): D alone, or Newton's (D, log|D|, D'/D)."""

    def evaluate(lams, newton):
        with np.errstate(all="ignore"):
            d = np.asarray(d_of(lams), dtype=complex)
            if not newton:
                return d.tolist()
            ratio = np.asarray(slope_of(lams), dtype=complex) / d
            return list(zip(d.tolist(), np.log(np.abs(d)).tolist(), ratio.tolist()))

    return evaluate


def _stub_evaluations(monkeypatch, evaluate, before=None):
    """Answer characteristic_determinant and _newton_values from evaluate, in
    their call forms; before(lams) runs first at every call."""

    def stub(newton):
        def call(problem, lam, step):
            lams = np.atleast_1d(lam)
            if before is not None:
                before(lams)
            values = evaluate(lams, newton)
            if newton:
                return values
            return complex(values[0]) if np.ndim(lam) == 0 else np.array(values)

        return call

    monkeypatch.setattr(spectrum, "characteristic_determinant", stub(False))
    monkeypatch.setattr(spectrum, "_newton_values", stub(True))


def _nan_off(strip, root, slope=1.0):
    """The evaluate of D(lambda) = lambda - root, NaN wherever |Re lambda| >
    strip, with D' = slope."""

    def d_of(lams):
        return np.where(np.abs(lams.real) > strip, complex("nan+nanj"), lams - root)

    return _analytic(d_of, lambda lams: np.full(lams.shape, slope, dtype=complex))


class TestSuperlinearRefinement:
    """Newton from the false-position point of scan brackets, the
    Gauss-Newton step on the axis, and the exits refinement takes when it
    cannot go on."""

    def test_false_position_reaches_half_pi_in_few_calls(self, fixed_free_string, det_calls):
        # the two ends, then the false-position point and two Gauss-Newton
        # steps, each with its difference pair; bisection of this scan
        # bracket down to tol made 31 calls
        brackets = scan_real_axis(fixed_free_string, 0.2, 10.0, 240, step=1e-3)
        bracket = next(b for b in brackets if b.kind == "sign_change")
        del det_calls[:]
        res = refine_root(fixed_free_string, bracket, tol=1e-10, max_iter=100, step=1e-3)
        assert res.converged
        assert res.lam.real == 0.0
        assert res.lam.imag == pytest.approx(HALF_PI, abs=1e-10)
        assert len(det_calls) <= 5

    def test_gauss_newton_step_on_the_axis(self, fixed_free_string, det_calls):
        # the complex-path D has a simple zero on the axis, so Newton from a
        # seed on it converges quadratically.  Plain Newton on the double
        # zero of the real-split D took 39 calls, the multiplicity-2 step 12
        res = refine_root(fixed_free_string, 1.5j, tol=1e-10, max_iter=100, step=1e-3)
        assert res.converged
        assert res.lam.imag == pytest.approx(HALF_PI, abs=1e-10)
        assert len(det_calls) <= 5

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
        # bracket phase handed on
        def no_newton(seed, tol, max_iter, axis=False):
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

    def test_real_split_bracket_with_a_complex_root_on_the_axis(self, monkeypatch):
        # Re D and Im D change sign together: Gauss-Newton along the axis.
        # D(ip) = (p - 2)(1 + 0.3i), continued off the axis as p = -i lambda
        _stub_evaluations(monkeypatch, _analytic(lambda lam: (-1j * lam - 2.0) * (1 + 0.3j),
                                                 lambda lam: -1j * (1 + 0.3j) + 0 * lam))
        options = SolveOptions(scan=(1.0, 3.0, 20), step=1e-3, path="real_split")
        (root,) = solve_spectrum(None, options)
        assert root.converged and abs(root.lam - 2j) <= 1e-10

    @pytest.mark.parametrize("path", ["complex", "real_split"])
    @pytest.mark.parametrize(
        "scan", [(1.5707, 1.5709, 50), (1.5707963, 1.5707964, 20), (1.570796326, 1.570796327, 20)]
    )
    def test_real_split_bracket_on_a_narrow_scan(self, fixed_free_string, scan, path):
        # the false-position point lies within 3e-12 of the root, where |D|
        # (4e-12, 9e-15, 9.7e-16) is near its rounding floor: an axis test
        # measured against |D| there, or against 1e-5 of the ends' |D| on
        # the narrowest window, rejected the root.  D is real at both ends,
        # so no axis test applies
        options = SolveOptions(scan=scan, step=1e-3, path=path)
        (root,) = solve_spectrum(fixed_free_string, options)
        assert root.lam.imag == pytest.approx(HALF_PI, abs=1e-10)

    @pytest.mark.parametrize(
        "strip, root, seed, message, slope",
        [
            # D is finite, but its F'/F is NaN
            (1.0, complex(-0.1, 1.5), 1.4j, "derivative not finite", math.nan),
            # the damped steps toward a far root find nothing finite
            (1e-3, complex(-100.0, 1.4), 1.4j, "determinant not finite", 1.0),
            (0.0, complex(-0.1, 1.5), complex(0.1, 1.4), "determinant not finite at the seed", 1.0),
        ],
        ids=["derivative", "damped_steps", "seed"],
    )
    def test_non_finite_determinant_is_an_exit(self, strip, root, seed, message, slope):
        res = spectrum._run(spectrum._refine_steps(seed, 1e-10, 100), _nan_off(strip, root, slope))
        assert not res.converged
        assert res.message == message
        assert abs(res.lam.real) <= strip or res.lam == seed

    def test_small_step_onto_a_non_finite_value_is_halved(self):
        # a step below tol is taken even when |D| grows, but never onto NaN
        res = spectrum._run(spectrum._refine_steps(1.4j, 1e-2, 100), _nan_off(1e-3, complex(-100.0, 1.4)))
        assert -1e-3 <= res.lam.real < 0.0

    def test_non_finite_value_inside_a_bracket_is_not_accepted(self):
        # NaN off the axis and inside (1.4, 1.5) on it: the bracket phase
        # hands its false-position point to Newton, which reports the seed
        def d_of(lam):
            bad = (lam.real != 0.0) | ((lam.imag > 1.4) & (lam.imag < 1.5))
            return np.where(bad, complex("nan+nanj"), -1j * lam - 1.45)

        evaluate = _analytic(d_of, lambda lam: np.full(lam.shape, -1j))
        res = spectrum._run(spectrum._bisect_bracket(Bracket(1.0, 2.0, "sign_change", 1.5), 1e-10, 100), evaluate)
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
        targets += scan_real_axis(problem, *options.scan, step=step)
    if options.rect is not None:
        re0, re1, im0, im1, nr, ni = options.rect
        targets += [complex(re, im) for re in np.linspace(re0, re1, nr)
                    for im in np.linspace(im0, im1, ni)]
    return targets


def _fields(results):
    return [(r.lam, r.residual, r.iterations, r.converged, r.message) for r in results]


def _axis_roots(results, tol):
    """The results on the frequency axis, |Re| <= tol * max(|lambda|, 1),
    projected onto it: the real-split spectrum of a complex one."""
    return [
        dataclasses.replace(r, lam=1j * r.lam.imag)
        for r in results
        if abs(r.lam.real) <= tol * max(abs(r.lam), 1.0)
    ]


def _reported(results, options):
    """What solve_spectrum reports from its refined candidates."""
    roots = spectrum._dedupe([r for r in results if r.converged], options.tol)
    return _axis_roots(roots, options.tol) if options.path == "real_split" else roots


class TestLockstepRefinement:
    """All candidates of a solve refined at once give what refining them one
    after another gives, in fewer determinant calls."""

    @pytest.mark.parametrize("name, params, options", PARITY_CASES)
    def test_solve_equals_the_sequential_loop(self, name, params, options):
        problem = build_model(name, **params)
        step = spectrum.resolve_step(problem, options)
        targets = _targets(problem, options, step)
        looped = [refine_root(problem, t, options.tol, options.max_iter, step)
                  for t in targets]
        lockstep = spectrum._refine_all(problem, targets, options.tol, options.max_iter, step)
        assert _fields(lockstep) == _fields(looped)
        assert _fields(solve_spectrum(problem, options)) == _fields(_reported(looped, options))

    def test_calls_follow_the_longest_chain(self, fixed_free_string, det_calls):
        # at the benchmark's scan window the three chains, answered from the
        # scan's memo as in a solve, take 3 calls each: 9 one after another,
        # 3 in lockstep
        options = SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="real_split")
        brackets, memo = spectrum._scan(fixed_free_string, *options.scan, step=1e-3)
        evaluate = spectrum._evaluator(fixed_free_string, 1e-3)

        chains = []
        for b in brackets:
            del det_calls[:]
            steps = spectrum._refine_steps(b, options.tol, options.max_iter)
            spectrum._run(steps, evaluate, memo=dict(memo))
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

    def test_unknown_path_is_rejected_before_the_scan(self, fixed_free_string, det_calls):
        with pytest.raises(ValueError, match="unknown path 'split'"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="split"))
        assert det_calls == []

    @pytest.mark.parametrize("residuals", [(4.5e-14, 1.1e-13), (1.1e-13, 4.5e-14)])
    def test_duplicates_keep_the_first_in_target_order(self, residuals, monkeypatch):
        # two seeds of one root, 1e-14 apart: the reported root and its
        # iterations are the first seed's, whichever residual is smaller
        lam = complex(-0.379618038196, 4.917221666967)
        first = spectrum.SpectralResult(lam, residuals[0], 6, True)
        second = spectrum.SpectralResult(lam + 1e-14, residuals[1], 4, True)
        monkeypatch.setattr(spectrum, "_refine_all", lambda *args: [first, second])
        (root,) = solve_spectrum(None, SolveOptions(rect=(-0.5, 0.0, 0.5, 6.0, 1, 2), step=1e-3))
        assert (root.lam, root.residual, root.iterations) == (lam, residuals[0], 6)

    def test_failing_round_raises_the_sequential_loops_error(self, monkeypatch):
        # D = (lambda - r)^3 around two roots, so Newton takes many steps.
        # Candidate 2's third request and candidate 1's seventh fail: in
        # lockstep candidate 2 fails first, but one after another candidate
        # 1 does, and its error is the one to raise
        roots = [complex(1.0, 1.0), complex(5.0, 5.0)]
        seeds = [complex(1.3, 1.1), complex(5.4, 4.8)]

        def root(lam):
            return np.where(lam.real < 3.0, roots[0], roots[1])

        cubic = _analytic(lambda lam: (lam - root(lam)) ** 3, lambda lam: 3 * (lam - root(lam)) ** 2)
        requests = []
        for seed in seeds:
            seen = []

            def recording(lams, newton, seen=seen):
                seen.append(lams)
                return cubic(lams, newton)

            spectrum._run(spectrum._refine_steps(seed, 1e-10, 100), recording)
            requests.append(seen)
        assert len(requests[0]) > 7 and len(requests[1]) > 3
        poison = {
            z: (PropagationError, 1) for z in np.atleast_1d(requests[0][6]).tolist()
        } | {z: (IntegrationError, 0) for z in np.atleast_1d(requests[1][2]).tolist()}

        raised = []

        def check(lams):
            for z in lams.tolist():
                if z in poison:
                    error, where = poison[z]
                    raised.append(error)
                    raise error(where, z, "stub")

        _stub_evaluations(monkeypatch, cubic, check)
        with pytest.raises(SolverError) as looped:
            for seed in seeds:
                refine_root(None, seed, 1e-10, 100, 1e-3)
        del raised[:]
        with pytest.raises(SolverError) as lockstep:
            spectrum._refine_all(None, seeds, 1e-10, 100, 1e-3)
        assert raised == [IntegrationError, PropagationError]
        assert type(looped.value) is PropagationError
        assert type(lockstep.value) is type(looped.value)
        assert str(lockstep.value) == str(looped.value)
        assert lockstep.value.lam == looped.value.lam
        assert lockstep.value.interface == looped.value.interface == 1



def _plain(steps, evaluate):
    """Drive refinement steps one request at a time, with no memo: every
    lambda evaluated when asked for, in a call of its own.  The values and
    errors refinement had before it reused values."""
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        if isinstance(request, np.ndarray):
            reply = np.array(evaluate(request, False))
        else:
            (reply,) = evaluate(np.array([request]), True)


def _keys(lams):
    return [np.complex128(z).tobytes() for z in np.atleast_1d(lams).tolist()]


#: determinant calls of solve_spectrum at SCAN_DEFAULTS, step 1e-3: the scan
#: and the refinement rounds, the same on both paths since real_split filters
#: the complex solve.  In comments the calls before values were reused; on
#: real_split, first the calls while the search scanned the split determinant
#: and seeded refinement on the complex-path D, then before it refined on D
SOLVE_CALLS = {
    ("cable_snapshot", "complex"): 5,  # 9
    ("cable_snapshot", "real_split"): 5,  # 5, 8
    ("fixed_fixed_string", "complex"): 4,  # 8
    ("fixed_fixed_string", "real_split"): 4,  # 5, 8
    ("fixed_free_string", "complex"): 4,  # 8
    ("fixed_free_string", "real_split"): 4,  # 5, 8
    ("machine_unit", "complex"): 11,  # 17
    ("machine_unit", "real_split"): 11,  # 7, 138
    ("pipeline", "complex"): 11,  # 17
    ("pipeline", "real_split"): 11,  # 8, 251
    ("point_mass_string", "complex"): 5,  # 9
    ("point_mass_string", "real_split"): 5,  # 5, 8
    ("spacecraft_bar", "complex"): 17,  # 25
    ("spacecraft_bar", "real_split"): 17,  # 12, 129
}


class TestDeterminantMemo:
    """A solve evaluates each lambda once, and each Newton point alone, with
    the values and errors of evaluating every request on its own."""

    @pytest.mark.parametrize("name, path", sorted(SOLVE_CALLS))
    def test_solve_evaluates_each_lambda_once(self, name, path, det_calls):
        problem = build_model(name)
        solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3, path=path))
        calls = [_keys(lam) for lam in det_calls]
        assert len(calls) <= SOLVE_CALLS[name, path]
        scanned, refined = calls[0], [key for call in calls[1:] for key in call]
        assert len(scanned) == SCAN_DEFAULTS[name][2]
        assert not set(scanned) & set(refined)
        assert len(set(refined)) == len(refined)

    def test_refine_root_evaluates_at_its_own_step(self, fixed_free_string, det_calls):
        # brackets from a coarse scan, refined at a finer step: every value
        # refinement uses is one of the finer step, the bracket ends included
        bracket = next(b for b in scan_real_axis(fixed_free_string, 0.2, 10.0, 240, 4e-3)
                       if b.kind == "sign_change")
        del det_calls[:]
        res = refine_root(fixed_free_string, bracket, step=1e-3)
        evaluated = [key for lam in det_calls for key in _keys(lam)]
        assert _keys([1j * bracket.p_lo, 1j * bracket.p_hi]) == evaluated[:2]
        evaluate = spectrum._evaluator(fixed_free_string, 1e-3)
        plain = _plain(spectrum._refine_steps(bracket, 1e-10, 100), evaluate)
        assert _fields([res]) == _fields([plain])

    @pytest.mark.parametrize("name, params, options", PARITY_CASES)
    def test_results_equal_evaluating_every_request(self, name, params, options):
        problem = build_model(name, **params)
        step = spectrum.resolve_step(problem, options)
        targets = _targets(problem, options, step)
        evaluate = spectrum._evaluator(problem, step)
        plain = [_plain(spectrum._refine_steps(t, options.tol, options.max_iter), evaluate)
                 for t in targets]
        lockstep = spectrum._refine_all(problem, targets, options.tol, options.max_iter, step)
        assert _fields(lockstep) == _fields(plain)
        assert all(type(r.lam) is type(p.lam) for r, p in zip(lockstep, plain))
        assert _fields(solve_spectrum(problem, options)) == _fields(_reported(plain, options))

    def test_accepted_step_takes_one_call(self):
        # a linear D: the first Newton step lands on the root.  Seed, pair,
        # step was three calls, then two of three lambdas each; the step's
        # derivative now comes with its point
        calls = []
        linear = _analytic(lambda lam: lam - complex(-0.1, 1.5), lambda lam: np.ones(lam.shape))

        def recording(lams, newton):
            calls.append(lams)
            return linear(lams, newton)

        res = spectrum._run(spectrum._refine_steps(1.4j, 1e-10, 100), recording)
        assert res.converged and abs(res.lam - complex(-0.1, 1.5)) <= 1e-12
        assert [np.size(lam) for lam in calls] == [1, 1]

    def test_halved_retries_carry_no_pair(self):
        # Newton on arctan(lambda - r) overshoots from 2 away: its full steps
        # are halved.  Every point, halved or not, is one lambda alone
        arctan = _analytic(lambda lam: np.arctan(lam - 1j), lambda lam: 1 / (1 + (lam - 1j) ** 2))
        calls = []

        def recording(lams, newton):
            calls.append(np.size(lams))
            return arctan(lams, newton)

        seed = complex(2.0, 1.0)
        want = _plain(spectrum._refine_steps(seed, 1e-10, 100), arctan)
        res = spectrum._run(spectrum._refine_steps(seed, 1e-10, 100), recording)
        assert res.converged and _fields([res]) == _fields([want])
        assert res.iterations < len(calls) and set(calls) == {1}

    def test_far_step_carries_no_pair(self):
        # a linear D whose root lies 100 away from a seed of size 1: the
        # step is cut to ten times the seed's size, and taken alone
        calls = []
        linear = _analytic(lambda lam: lam - complex(100.0, 1.0), lambda lam: np.ones(lam.shape))

        def recording(lams, newton):
            calls.append(lams)
            return linear(lams, newton)

        res = spectrum._run(spectrum._refine_steps(1.0j, 1e-10, 100), recording)
        assert res.converged and abs(res.lam - complex(100.0, 1.0)) <= 1e-10
        assert [np.size(lam) for lam in calls][:3] == [1, 1, 1]
        assert abs(calls[1][0] - 1.0j) == pytest.approx(10.0)

    #: D = (lambda - (1 + i))^3 and its derivative
    _cubic = staticmethod(_analytic(lambda lam: (lam - complex(1.0, 1.0)) ** 3,
                                    lambda lam: 3 * (lam - complex(1.0, 1.0)) ** 2))

    def _lambdas(self, driver, seed=complex(1.3, 1.1)):
        """(result, every lambda evaluated) of Newton on the cubic."""
        seen = []

        def recording(lams, newton):
            seen.extend(lams.tolist())
            return self._cubic(lams, newton)

        return driver(spectrum._refine_steps(seed, 1e-10, 100), recording), seen

    def _poisoned(self, monkeypatch, poison):
        """Stub evaluations of the cubic, raising at the first poisoned
        lambda of a call; returns the list of lambdas it raised at."""
        raised = []

        def check(lams):
            for z in lams.tolist():
                if z in poison:
                    raised.append(z)
                    raise PropagationError(1, z, "stub")

        _stub_evaluations(monkeypatch, self._cubic, check)
        return raised

    def test_failing_point_raises_at_once(self, monkeypatch):
        _, needed = self._lambdas(_plain)
        point = needed[1]  # the first Newton point
        raised = self._poisoned(monkeypatch, {point})
        with pytest.raises(PropagationError) as got:
            refine_root(None, complex(1.3, 1.1), 1e-10, 100, 1e-3)
        assert got.value.lam == point
        assert raised == [point]  # not evaluated a second time alone


class TestStackedRealSplitPropagation:
    """The sampled propagation that mode shapes run on both paths, real-split
    ones included, gives, bit for bit, for a stack of lambdas on the axis
    what one lambda at a time gives: samples, coefficient tables and closure
    matrices."""

    @pytest.mark.parametrize(
        "make",
        [lambda name=name: build_model(name) for name in sorted(SCAN_DEFAULTS)] + [
            _y_varying_problem,
            _y_varying_lambda_problem,
            lambda: insert_breakpoint(build_model("machine_unit"), 0.37),
            lambda: insert_breakpoint(build_model("point_mass_string"), 0.8),
        ],
        ids=sorted(SCAN_DEFAULTS) + [
            "y_varying", "y_varying_lambda", "machine_unit_breakpoint", "point_mass_breakpoint",
        ],
    )
    def test_sampled_stack_bit_identical(self, make):
        problem = make()
        lams = 1j * np.linspace(0.2, 10.0, 6)
        u_tables, fundamentals, w, closure = _assemble(
            reduce_complex(problem, lams), 2e-3, keep_samples=True
        )
        assert closure.shape[0] == len(lams) and closure.dtype == complex
        for k, z in enumerate(lams.tolist()):
            alone = _assemble(reduce_complex(problem, z), 2e-3, keep_samples=True)
            assert [u[k].tobytes() for u in u_tables] == [u.tobytes() for u in alone[0]]
            for got, want in zip(fundamentals, alone[1], strict=True):
                assert got.end_matrix[k].tobytes() == want.end_matrix.tobytes()
                assert got.sample_ys.tobytes() == want.sample_ys.tobytes()
                assert got.samples[:, k].tobytes() == want.samples.tobytes()
            assert w[k].tobytes() == alone[2].tobytes()
            assert closure[k].tobytes() == alone[3].tobytes()


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
        # 1000 steps + 2 end nodes, 2 x 2 complex matrices per sample
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 2 * 4 * 1002)
        assert spectrum._stack_chunk(problem, 1e-3, keep_samples=True) == 2
        assert spectrum._stack_chunk(problem, 1e-3) is None
        monkeypatch.setattr(spectrum, "_STACK_ENTRIES", 1)
        assert spectrum._stack_chunk(problem, 1e-3, keep_samples=True) == 1

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


class TestFrozenScaleNewton:
    """Newton on the analytic closure determinant F, with F'/F from the
    variational system: damped scan brackets go straight to it and find the
    roots the real-direction step missed."""

    #: lambdas on the axis and off it, away from roots and model poles
    LAMS = [0.7j, 3.1j, complex(-0.2, 1.3), complex(-0.05, 6.4), complex(0.3, 2.2)]

    @staticmethod
    def _closure_det(problem, lam):
        closure = _assemble(reduce_complex(problem, lam), 1e-3, keep_samples=False)[3]
        return np.linalg.det(closure)

    @pytest.mark.parametrize(
        "make",
        [lambda name=name: build_model(name) for name in sorted(SCAN_DEFAULTS)]
        + [_y_varying_problem, _y_varying_lambda_problem, lambda: _n4_problem(),
           lambda: build_model("machine_unit", left_end="clamped", right_end="clamped"),
           lambda: _lambda_interface_problem()],
        ids=sorted(SCAN_DEFAULTS) + ["y_varying", "y_varying_lambda", "n4", "machine_unit_clamped",
                                     "lambda_interface"],
    )
    def test_log_derivative_matches_richardson(self, make):
        # a Richardson-extrapolated central difference of det(closure) at the
        # same step, whose own error is about 1e-10 here
        problem = make()
        values = spectrum._newton_values(problem, np.array(self.LAMS), 1e-3)
        for lam, (d, log_f, ratio) in zip(self.LAMS, values):
            f = self._closure_det(problem, lam)
            h = 1e-3 * max(abs(lam), 1.0)

            def central(h):
                return (self._closure_det(problem, lam + h) - self._closure_det(problem, lam - h)) / (2 * h)

            want = (4 * central(h / 2) - central(h)) / 3 / f
            assert ratio == pytest.approx(want, rel=1e-7)
            assert log_f == pytest.approx(math.log(abs(f)), rel=1e-12, abs=1e-12)
            assert d == pytest.approx(characteristic_determinant(problem, lam, 1e-3), rel=1e-10)

    @pytest.mark.parametrize("name, real_ends", [("spacecraft_bar", False), ("fixed_free_string", True)])
    def test_bracket_newton_starts_at_the_false_position_point(self, name, real_ends, det_calls, monkeypatch):
        # a bracket with a real D at both ends keeps to the axis, a damped
        # one does not
        newtons = []

        def recording_newton(seed, tol, max_iter, axis=False):
            newtons.append((seed, axis))
            return spectrum.SpectralResult(seed, 0.0, 0, False)
            yield

        monkeypatch.setattr(spectrum, "_newton", recording_newton)
        prob = build_model(name)
        bracket = next(b for b in scan_real_axis(prob, *SCAN_DEFAULTS[name], step=1e-3)
                       if b.kind == "sign_change")
        del det_calls[:]
        refine_root(prob, bracket, step=1e-3)
        # the module's own name: evaluated here, not recorded
        d_lo, d_hi = (characteristic_determinant(prob, 1j * p, 1e-3) for p in (bracket.p_lo, bracket.p_hi))
        assert (d_lo.imag == 0.0 and d_hi.imag == 0.0) is real_ends
        # the two ends in one call, and no evaluation of the bracket phase's own
        assert [_keys(lams) for lams in det_calls] == [_keys([1j * bracket.p_lo, 1j * bracket.p_hi])]
        lo, hi = bracket.p_lo, bracket.p_hi
        want = hi - d_hi.real * (hi - lo) / (d_hi.real - d_lo.real)
        assert newtons == [(1j * want, real_ends)] and lo < want < hi

    @pytest.mark.parametrize(
        "name, rounds", [("fixed_free_string", [3, 3, 2]), ("machine_unit", [4, 4, 4, 4, 3])]
    )
    def test_each_round_evaluates_one_lambda_per_live_candidate(self, name, rounds, det_calls):
        # at HEAD of the difference stencils the refinement took 27 lambdas
        # in 3 calls (fixed_free_string) and 57 in 5 (machine_unit)
        problem = build_model(name)
        brackets = scan_real_axis(problem, *SCAN_DEFAULTS[name], step=1e-3)
        del det_calls[:]
        solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3))
        assert [np.size(lams) for lams in det_calls[1:]] == rounds
        assert rounds[0] == len(brackets)

    def test_y_dependent_evaluator_calls(self, monkeypatch):
        # the lambda field is evaluated once per RK4 node and midpoint for a
        # whole chunk: lambda and lambda +- h ride in that one call, so a
        # refinement call makes no more calls than the 2,001 of one plain
        # chunk, and a 240-lambda scan (4 chunks) the 8,004 it made before
        problem = _y_varying_lambda_problem()
        (evaluator,) = problem.coefficients.evaluators
        sizes = []

        def counting(y, lam):
            sizes.append(np.size(lam))
            return evaluator(y, lam)

        coefficients = dataclasses.replace(problem.coefficients, evaluators=(counting,))
        problem = dataclasses.replace(problem, coefficients=coefficients)
        characteristic_determinant(problem, 1j * np.linspace(0.2, 10.0, 240), 1e-3)
        assert len(sizes) == 8004
        del sizes[:]
        spectrum._newton_values(problem, np.array([1.5j, 4.7j, -0.1 + 7.8j]), 1e-3)
        assert len(sizes) == 2001 and set(sizes) == {9}

    def test_spacecraft_bar_reports_all_four_roots(self):
        prob = build_model("spacecraft_bar")
        roots = solve_spectrum(prob, SolveOptions(scan=SCAN_DEFAULTS["spacecraft_bar"], step=1e-3))
        assert len(roots) == 4
        assert min(abs(r.lam - complex(-0.462327785416, 7.970061989550)) for r in roots) <= 1e-6

    def test_beta_002_bracket_finds_its_own_root(self):
        # the third bracket (p 4.89-4.93) used to converge to the root at 0.91
        prob = build_spacecraft_bar(beta=0.02)
        roots = solve_spectrum(prob, SolveOptions(scan=(0.3, 6.0, 150), step=1e-3))
        assert len(roots) == 3
        assert min(abs(r.lam - complex(-0.379618038196, 4.917221666967)) for r in roots) <= 1e-6

    @pytest.mark.parametrize("name", ["machine_unit", "pipeline", "spacecraft_bar"])
    def test_damped_solve_takes_few_calls(self, name, det_calls):
        # the scan, then 5 rounds: the real-direction step took 11-17 calls
        solve_spectrum(build_model(name), SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3))
        assert len(det_calls) <= 8



#: circles (centre, radius) on machine_unit's real axis, and the eigenvalues
#: of the dense FD oracle (n_fd = 400) inside each: the rigid-body root 0 and
#: the real root near -0.028, neither, and 0.  The rotor row's pivot
#: beta lam + J1 lam^2 vanishes at 0 and at -beta / J1 = -0.2
MACHINE_UNIT_CIRCLES = [((-0.1, 0.3), 2), ((-0.2, 0.05), 0), ((0.0, 0.01), 1)]


@pytest.fixture(scope="module")
def machine_unit_fd_eigenvalues():
    return fd_polynomial_eigenvalues(build_model("machine_unit"), FDOracleConfig(400))


class TestAnalyticDeterminant:
    """The closure determinant keeps the zeros where the left boundary's
    pivot vanishes, so one root search serves both paths."""

    @pytest.mark.parametrize("circle, count", MACHINE_UNIT_CIRCLES, ids=["both", "pole", "origin"])
    def test_winding_counts_the_oracle_eigenvalues(self, circle, count, machine_unit_fd_eigenvalues):
        # with the rref basis, which divides by the pivot, the windings were
        # 0, -1 and 0
        (centre, radius) = circle
        lams = centre + radius * np.exp(2j * math.pi * np.arange(2000) / 2000)
        d = characteristic_determinant(build_model("machine_unit"), lams, 1e-3)
        increments = np.angle(np.roll(d, -1) / d)
        assert np.max(np.abs(increments)) < math.pi / 4
        assert round(increments.sum() / (2 * math.pi)) == count
        assert np.count_nonzero(np.abs(machine_unit_fd_eigenvalues - centre) < radius) == count

    @pytest.mark.parametrize("path", ["complex", "real_split"])
    def test_rigid_body_root_is_found(self, path, det_calls):
        # the complex path missed lambda = 0 in 33 calls; the real-split axis
        # search found it through a kink of |D| in 73
        roots = solve_spectrum(build_model("machine_unit"), SolveOptions(scan=(-1.0, 10.0, 220), path=path))
        assert min(abs(r.lam) for r in roots) <= 1e-9
        assert len(det_calls) <= 7

    @pytest.mark.parametrize("window", SCAN_WINDOWS, ids=lambda w: ":".join(map(str, w)))
    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_real_split_is_the_complex_solve_on_the_axis(self, name, window):
        problem = build_model(name)
        complex_roots = solve_spectrum(problem, SolveOptions(scan=window, step=1e-3))
        split_roots = solve_spectrum(problem, SolveOptions(scan=window, step=1e-3, path="real_split"))
        assert _fields(split_roots) == _fields(_axis_roots(complex_roots, 1e-10))
        assert all(r.lam.real == 0.0 for r in split_roots)


def _general_route(monkeypatch):
    """Route every determinant through the general forms the closed ones
    replace for N = 2, m = 1: rref_null_basis + adjugate_form for a
    lambda-dependent left row, slogdet for the normalization."""
    closed = spectrum._initial_table

    def table(matrix, lam, constant=None):
        if constant is not None:
            return closed(matrix, lam, constant)
        return adjugate_form(matrix, spectrum._null_basis_checked(matrix, lam))

    monkeypatch.setattr(spectrum, "_initial_table", table)
    monkeypatch.setattr(spectrum, "_normalized_det", spectrum._log_normalized_det)


def _lambda_interface_problem():
    """A string with an interface whose D and B both depend on lambda:
    D = [[1, 0], [0.3 lam^2, 1]], B = diag(1, 1 + lam^2 / 4)."""
    conj = ConjugationOperator(
        1,
        PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, 0.3], [1.0]]]),
        PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [1.0, 0.0, 0.25]]]),
    )
    return make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(conj,))


def _n4_problem():
    """Two unit strings with lambda-dependent left rows [[lam - 2i, 1, 0, 0],
    [0, lam - 2i, 0, 1]] and right rows pinning both: N = 4, m = 2."""
    part = Partition((0.0, 1.0))
    a = np.zeros((4, 4))
    a[0, 1] = a[2, 3] = 1.0
    b = np.zeros((4, 4))
    b[1, 0] = b[3, 2] = 1.0
    field = CoefficientField(
        part, (PolyMatrix.constant(a),), (PolyMatrix.constant(b),), (PolyMatrix.zero(4, 4),), 1.0
    )
    left = np.zeros((2, 2, 4), dtype=complex)
    left[0] = [[-2j, 1, 0, 0], [0, -2j, 0, 1]]
    left[1] = [[1, 0, 0, 0], [0, 1, 0, 0]]
    right = np.zeros((1, 2, 4))
    right[0, 0, 0] = right[0, 1, 2] = 1.0
    return ProblemDefinition(
        "n4", part, field, BoundaryOperator("left", PolyMatrix(left)),
        BoundaryOperator("right", PolyMatrix(right)), (),
    )


class TestClosedForms:
    """For N = 2, m = 1 the left table is [-a1; a0] and D is c / max|W|; they
    agree with the general route to rounding, and N >= 4 keeps it."""

    LAMS = np.concatenate([
        1j * np.linspace(0.2, 10.0, 240),
        np.array([-0.3 + 2j, -1.0 + 5j, 0.5 + 0.5j, -0.05 + 9.5j, -2.0 + 1j, 0.2 + 7j, -0.7 + 3.3j]),
    ])

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_match_the_general_route(self, name, monkeypatch):
        problem = build_model(name)
        closed = characteristic_determinant(problem, self.LAMS, 1e-3)
        assert closed.tobytes() == _per_lambda(problem, self.LAMS, 1e-3).tobytes()
        _general_route(monkeypatch)
        general = characteristic_determinant(problem, self.LAMS, 1e-3)
        np.testing.assert_allclose(closed, general, rtol=1e-14, atol=0)

    def test_zero_and_clamp_rules_of_the_general_route(self):
        # a vanishing W, a vanishing c, an overflowing ratio, and an
        # ordinary value, as one stack and one at a time
        closure = np.array([[[2.0 + 1j]], [[0j]], [[1e300 - 1e300j]], [[3.0 - 4j]]])
        w = np.array([[[0j], [0j]], [[1.0], [2j]], [[1e-300], [0j]], [[0.5], [-2.0]]])
        closed = spectrum._normalized_det(closure, w)
        general = spectrum._log_normalized_det(closure, w)
        assert closed[0] == general[0] == 0 and closed[1] == general[1] == 0
        np.testing.assert_allclose(closed[2:], general[2:], rtol=1e-14)
        assert abs(closed[2]) == pytest.approx(math.exp(700.0), rel=1e-14)
        for k in range(4):
            assert spectrum._normalized_det(closure[k], w[k]) == closed[k]

    def test_vanishing_one_row_left_boundary_names_its_lambda(self, monkeypatch):
        # [lam - 1.5i, 2 (lam - 1.5i)] loses rank at 1.5i, the third lambda
        row = BoundaryOperator("left", PolyMatrix.from_entries([[[-1.5j, 1.0], [-3j, 2.0]]]))
        problem = dataclasses.replace(make_string_problem(), boundary_left=row)
        lams = 1j * np.linspace(0.5, 3.0, 6)
        for route in ("closed", "general"):
            if route == "general":
                _general_route(monkeypatch)
            for lam in (lams, 1.5j):
                with pytest.raises(BoundaryDegeneracyError) as info:
                    characteristic_determinant(problem, lam, 1e-2)
                assert info.value.lam == 1.5j
                assert (info.value.rank, info.value.expected) == (0, 1)

    def test_n4_takes_the_general_route(self, monkeypatch):
        problem = _n4_problem()
        lams = 1j * np.linspace(0.3, 5.0, 17) - 0.05
        calls = []
        monkeypatch.setattr(spectrum, "adjugate_form", lambda *a: calls.append(1) or adjugate_form(*a))
        d = characteristic_determinant(problem, lams, 1e-3)
        assert calls
        assert d.tobytes() == _per_lambda(problem, lams, 1e-3).tobytes()
        _general_route(monkeypatch)
        assert d.tobytes() == characteristic_determinant(problem, lams, 1e-3).tobytes()


def _real_form(problem, lam, step):
    """A real-split shape by its rule: the complex mode's combination with c
    rephased to c conj(c_0), as the real columns [Re phi, Im phi] divided by
    their real entry of largest modulus."""
    u_tables, fundamentals, w, closure = _assemble(
        reduce_complex(problem, lam), step, keep_samples=True
    )
    c = spectrum._null_vector(closure, w, lam, spectrum._RANK_TOL)
    c = c * np.conj(c[0])
    phi = np.concatenate(
        [np.einsum("skj,k->sj", fm.samples, u @ c) for u, fm in zip(u_tables, fundamentals)]
    )
    real = np.hstack([phi.real, phi.imag])
    return real / real.flat[np.argmax(np.abs(real))]


#: every root on the axis: the undamped built-ins at their default windows
#: (the damped ones have none there), the undamped bar and pipeline,
#: machine_unit's rigid-body root lambda = 0 and the m = 2 problem
REAL_SPLIT_CASES = [
    pytest.param(lambda name=name: build_model(name), SCAN_DEFAULTS[name], 3, id=name)
    for name in ("cable_snapshot", "fixed_fixed_string", "fixed_free_string", "point_mass_string")
] + [
    pytest.param(lambda: build_model("spacecraft_bar", beta=0, b=0, d=0), (0.2, 10.0, 240), 3,
                 id="spacecraft_bar_undamped"),
    pytest.param(lambda: build_model("pipeline", beta=0, alpha1=0), (0.2, 10.0, 240), 3,
                 id="pipeline_undamped"),
    pytest.param(lambda: build_model("machine_unit"), (-1.0, 10.0, 220), 1, id="machine_unit_zero"),
    pytest.param(lambda: _n4_problem(), (0.2, 10.0, 240), 3, id="n4"),
]


class TestRealSplitModeShapes:
    """Real-split mode shapes are the complex modes written in real
    components; no realified system is reduced or propagated for them."""

    @pytest.mark.parametrize("make, window, count", REAL_SPLIT_CASES)
    def test_shape_is_the_complex_mode_in_real_form(self, make, window, count):
        problem = make()
        options = SolveOptions(scan=window, step=1e-3, path="real_split")
        lams = [r.lam for r in solve_spectrum(problem, options)]
        assert len(lams) >= count
        shapes = list(spectrum.mode_shapes(problem, lams, 1e-3, "real_split"))
        assert len(shapes) == len(lams)
        for lam, shape in zip(lams, shapes):
            want = _real_form(problem, lam, 1e-3)
            assert shape.lam == lam
            assert shape.values.dtype == float and shape.values.shape == want.shape
            assert shape.values.shape[1] == 2 * problem.dim
            assert np.max(np.abs(shape.values - want)) <= 1e-15

    @pytest.mark.parametrize("make", [lambda: build_model("fixed_free_string"), _n4_problem],
                             ids=["m1", "n4"])
    def test_shape_ignores_the_phase_of_the_null_vector(self, make, monkeypatch):
        # c conj(c_0) fixes the phase that a null vector from the SVD
        # fallback would leave free
        problem = make()
        options = SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="real_split")
        lams = [r.lam for r in solve_spectrum(problem, options)]
        want = list(spectrum.mode_shapes(problem, lams, 1e-3, "real_split"))
        null_vector = spectrum._null_vector
        monkeypatch.setattr(spectrum, "_null_vector",
                            lambda *args: null_vector(*args) * complex(-0.6, 0.8))
        got = list(spectrum.mode_shapes(problem, lams, 1e-3, "real_split"))
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(a.values - b.values)) <= 1e-15
