"""Determinant assembly, root finding, mode shapes, and their invariants."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
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
    NotARootError,
    Partition,
    PoleError,
    PolyMatrix,
    ProblemDefinition,
    PropagationError,
    SolveOptions,
    SolverError,
    build_point_mass_string,
    build_spacecraft_bar,
    characteristic_determinant,
    insert_breakpoint,
    integrate_fundamental,
    mode_shape,
    refine_root,
    scan_real_axis,
    solve_spectrum,
    validate,
)
from oscispec import integrate, linalg, spectrum
from oscispec.linalg import adjugate_form, adjugate_table
from oscispec.models import ORACLE_ROUTES, SCAN_DEFAULTS, build_model
from oscispec.problem import is_singular
from oscispec.oracle import FDOracleConfig, closed_form_roots, fd_polynomial_eigenvalues
from oscispec.reduction import bind_matrix, reduce_complex
from oscispec.serialize import problem_from_dict
from oscispec.spectrum import _assemble

from conftest import POLE_STRING, identity_conjugation, make_string_problem

HALF_PI = math.pi / 2.0


def _machine_unit_roots(params):
    problem = build_model("machine_unit", **params)
    roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
    return [(r.lam, r.residual, r.iterations) for r in roots]


class TestBoundOncePerProblem:
    """What a problem fixes is computed once per problem, not per lambda."""

    def test_constant_left_row_reduced_once_per_problem(self, monkeypatch):
        # the row is never row-reduced, by validation or as a lambda stack
        # (a one-row block takes its closed form): every pass takes one
        # (2, 1) table from the shared row
        problem = build_model("fixed_free_string")
        left = problem.boundary_left(0j)
        reduced, dets, tables = [], [], []

        def counting(matrix, tol=1e-12, original=linalg.rref_null_basis):
            rows = np.asarray(matrix)
            if rows.shape[-2:] == left.shape and np.all(rows == left):
                reduced.append(rows.shape)
            return original(matrix, tol)

        def table(matrix, lam, original=spectrum._initial_table):
            tables.append(original(matrix, lam))
            return tables[-1]

        monkeypatch.setattr(linalg, "rref_null_basis", counting)
        monkeypatch.setattr(spectrum, "_initial_table", table)
        for name in ("_scan_values", "_newton_values"):
            original = getattr(spectrum, name)
            monkeypatch.setattr(
                spectrum, name, lambda *args, original=original: dets.append(1) or original(*args)
            )
        roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        assert len(roots) == 3 and len(dets) > 1
        assert reduced == []
        assert len(tables) == len(dets) and all(t.shape == (2, 1) for t in tables)

    def test_padded_constant_rows_are_one_shared_matrix(self):
        # a degree-0 row stored with trailing zero coefficients, as a JSON
        # row may give it, binds as its trimmed form does: one read-only
        # matrix that the stack shares, with the same solve, bit for bit
        trimmed = make_string_problem()
        padded = dataclasses.replace(
            trimmed,
            boundary_left=BoundaryOperator("left", PolyMatrix.from_entries([[[1.0, 0.0, 0.0], [0.0]]])),
            boundary_right=BoundaryOperator("right", PolyMatrix.from_entries([[[0.0], [1.0, 0.0, 0.0]]])),
        )
        for side in (padded.boundary_left, padded.boundary_right):
            bound = bind_matrix(side.matrix, np.array([1j, 2j, 3j]))
            assert bound.shape == (1, 2) and not bound.flags.writeable
        options = SolveOptions(scan=(0.2, 10.0, 240), step=1e-3)
        assert repr(solve_spectrum(padded, options)) == repr(solve_spectrum(trimmed, options))

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
        with pytest.raises(ValueError, match="boundary_left: rank 0 < 1 at lambda=0.0"):
            characteristic_determinant(problem, lams, 1e-2)

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


class TestValidationGate:
    """The solver's entry points refuse what validate refuses."""

    def test_entry_points_refuse_an_invalid_problem(self):
        # a copy of a valid problem, validated and solved, is validated anew
        valid = build_model("spacecraft_bar")
        invalid = build_model("spacecraft_bar", d=math.inf)
        characteristic_determinant(valid, 1.5j, 1e-2)
        copy = dataclasses.replace(valid, boundary_right=invalid.boundary_right)
        message = "^problem fails validation:\n  boundary_right: nonfinite coefficient$"
        for problem in (invalid, copy):
            calls = (
                lambda: solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 24), step=1e-2)),
                lambda: refine_root(problem, 1.5j, step=1e-2),
                lambda: scan_real_axis(problem, 0.2, 10.0, 24, 1e-2),
                lambda: list(spectrum.mode_shapes(problem, [1.5j], 1e-2)),
                lambda: characteristic_determinant(problem, 1j * np.linspace(0.5, 3.0, 6), 1e-2),
            )
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()
        assert valid.violations == ()


class TestInterfaceSolve:
    """The interface step of the assembly: B(lam) U_next = D(lam) W."""

    @staticmethod
    def _carry(prob, conj, lam):
        # the end values W = G^T U of the pinned string's table, carried
        # across the interface
        fm = integrate_fundamental(reduce_complex(prob, np.array([lam])), 0, step=1e-4)
        w = fm.end_matrix[0].T @ np.array([[0.0], [1.0]], dtype=complex)
        dmat, bmat = bind_matrix(conj.d_matrix, lam), bind_matrix(conj.b_matrix, lam)
        return w, spectrum._interface_solve(dmat @ w, bmat, conj.interface, lam, 2)

    def test_common_scalar_cancels(self, fixed_free_string):
        lam = 0.9j
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
            self._carry(fixed_free_string, base, lam)[1],
            self._carry(fixed_free_string, scaled, lam)[1],
            rtol=1e-13,
            atol=1e-15,
        )

    @pytest.mark.parametrize("variational", [False, True])
    def test_identity_b_crosses_with_no_solve(self, monkeypatch, variational):
        # both multi-interval built-ins join their spans with B = I: it is
        # bound as None and crossed as D W (a variational pass's dual D W),
        # with no LAPACK call and the bytes of the solve against I it took
        # before
        lams = np.concatenate([1j * np.linspace(0.5, 9.0, 7), [0j, -0.3 + 2.0j]])
        eye = np.eye(4 if variational else 2, dtype=complex)

        def lapack(*args):
            raise AssertionError("LAPACK called")

        for name in ("cable_snapshot", "point_mass_string"):
            problem = build_model(name)
            assert all(c.b_matrix.is_identity for c in problem.conjugations)
            reduced = reduce_complex(problem, lams, variational)
            assert all(b is None for _, b in reduced.interfaces)
            solved = dataclasses.replace(reduced, interfaces=tuple((d, eye) for d, _ in reduced.interfaces))
            want_tables, _, _, want_closure = _assemble(solved, 1e-3, keep_samples=False)
            with monkeypatch.context() as patch:
                for routine in ("solve", "det"):
                    patch.setattr(np.linalg, routine, lapack)
                u_tables, _, _, closure = _assemble(reduced, 1e-3, keep_samples=False)
            assert closure.tobytes() == want_closure.tobytes()
            assert [u.tobytes() for u in u_tables] == [u.tobytes() for u in want_tables]

    @pytest.mark.parametrize(
        "make",
        [lambda: build_model("cable_snapshot", T=2.0, masses=(1.0, 2.0, 3.0), positions=(0.2, 0.5, 0.8)),
         lambda: _lambda_interface_problem()],
        ids=["cable_three_loads", "lambda_interface"],
    )
    def test_variational_bindings_are_dual_blocks(self, make):
        # a variational system binds the right rows and each interface's D
        # and B as [[M, 0], [M', M]] of their plain bindings M and M'
        problem = make()
        lams = np.array([1.5j, 0.3 + 2.0j, 4.0j])
        plain, dual = reduce_complex(problem, lams), reduce_complex(problem, lams, variational=True)

        def block(matrix, value):
            slope = np.broadcast_to(bind_matrix(matrix.derivative, lams), value.shape)
            zero = np.zeros_like(value)
            return np.concatenate([np.concatenate([value, zero], axis=-1),
                                   np.concatenate([slope, value], axis=-1)], axis=-2)

        bound = [(problem.boundary_right.matrix, plain.right_matrix, dual.right_matrix)]
        for conj, (d, b), (dual_d, dual_b) in zip(problem.conjugations_in_order, plain.interfaces,
                                                   dual.interfaces):
            bound.append((conj.d_matrix, d, dual_d))
            if conj.b_matrix.is_identity:
                assert b is None and dual_b is None
            else:
                bound.append((conj.b_matrix, b, dual_b))
        assert len(bound) > 1
        for matrix, value, got in bound:
            assert got.tobytes() == block(matrix, value).tobytes()
            # a lambda-free matrix is one block the stack shares
            assert got.ndim == (2 if matrix.fixed_value is not None else 3)

    def test_singularity_is_read_on_the_leading_block(self, fixed_free_string):
        # D = B = diag(1, 1e-8): |det B| = 1e-8 is above the 1e-12 cutoff, so
        # the problem is valid and keeps the string's roots.  Its dual block
        # [[B, 0], [B', B]] has det 1e-16: checked whole, every Newton point
        # failed and the solve found no root
        scale = PolyMatrix.constant(np.diag([1.0, 1e-8]))
        problem = dataclasses.replace(insert_breakpoint(fixed_free_string, 0.37),
                                      conjugations=(ConjugationOperator(1, scale, scale),))
        assert validate(problem) == []
        b = bind_matrix(scale, np.array([1.5j]))
        assert not is_singular(b) and is_singular(np.kron(np.eye(2), b))
        roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        np.testing.assert_allclose([r.lam for r in roots], HALF_PI * 1j * np.array([1, 3, 5]), rtol=1e-12)
        root = refine_root(problem, 1.5j, step=1e-3)
        assert root.converged and abs(root.lam - HALF_PI * 1j) < 1e-12

    def test_point_mass_jump_hand_computed(self, fixed_free_string):
        # D = [[1,0],[-m0 lam^2, 1]], B = I encodes the end-value relation
        # z2+ = z2- + m0 p^2 z1- at lam = i p; the interface step must
        # reproduce it.
        m0, p = 1.0, 1.1
        lam = 1j * p
        conj = ConjugationOperator(
            1,
            PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, -m0], [1.0]]]),
            PolyMatrix.constant(np.eye(2)),
        )
        z, out = self._carry(fixed_free_string, conj, lam)
        expected = np.array([z[0], z[1] + m0 * p * p * z[0]])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @given(scale=st.floats(0.1, 50.0))
    @settings(max_examples=15, deadline=None)
    def test_scalar_invariance_property(self, scale):
        lam = 1.7j
        d = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.3], [1.0]]])
        base = ConjugationOperator(1, d, PolyMatrix.constant(np.eye(2)))
        scaled = ConjugationOperator(
            1,
            PolyMatrix(d.coeffs * scale),
            PolyMatrix.constant(scale * np.eye(2)),
        )
        np.testing.assert_allclose(
            self._carry(make_string_problem(), base, lam)[1],
            self._carry(make_string_problem(), scaled, lam)[1],
            rtol=1e-12,
            atol=1e-14,
        )


class TestFirstFailingLambda:
    """A check that fails at later lambdas of a stack, not at the first, names
    the first of them (problem.failed_lambdas)."""

    LAMS = 1j * np.array([0.5, 1.0, 1.5, 2.0, 2.5])

    def test_interface_singular_at_two_lambdas(self):
        # B = diag(1, (lam - 1.5i)(lam - 2.5i)) vanishes exactly at the third
        # and fifth lambdas
        conj = ConjugationOperator(
            1,
            PolyMatrix.constant(np.eye(2)),
            PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [-3.75, -4j, 1.0]]]),
        )
        problem = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(conj,))
        with pytest.raises(PropagationError) as info:
            characteristic_determinant(problem, self.LAMS, 1e-2)
        assert (info.value.interface, info.value.lam) == (1, 1.5j)
        assert str(info.value) == (
            "singular interface matrix at interface 1, lambda=1.5j (det below singularity tolerance)"
        )

    def test_end_matrix_nonfinite_at_two_lambdas(self):
        system = reduce_complex(make_string_problem(), self.LAMS)
        end = np.ones((5, 2, 2), dtype=complex)
        end[1, 0, 1] = np.inf
        end[3, 1, 1] = np.nan
        with pytest.raises(IntegrationError) as info:
            integrate._check_end(system, 0, end, "advice")
        assert (info.value.lam, info.value.lams) == (1j, (1j, 2j))
        assert str(info.value) == "integration overflow on interval 0 at lambda=1j"


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
        brackets = scan_real_axis(problem, *window, 1e-3)
        ps = np.linspace(*window)
        values = spectrum._scan_values(problem, 1j * ps, 1e-3)
        dvals = characteristic_determinant(problem, 1j * ps, 1e-3)
        _same_brackets(brackets, _loop_brackets(ps, dvals))
        assert [value[0] for value in values] == dvals.tolist()
        # each sign-change bracket starts at the root of the interpolant of F
        # on the grid points around it; a minimum, or a bracket on a grid of
        # fewer points than the stencil, starts where the plain rule puts it
        for b in brackets:
            first, axis = _first_place(b, ps, dvals)
            assert b.axis == axis and (b.start.real == 0.0 or not axis)
            if b.kind == "minimum" or len(ps) < spectrum._STENCIL:
                assert b.start == 1j * first
            else:
                _starts_at_the_interpolant_root(b, ps, values, first)

    @pytest.mark.parametrize("seed", range(40))
    def test_scan_equals_the_plain_loop_on_ties_and_nan(self, seed, fixed_free_string, monkeypatch):
        # small integer values: zeros, equal neighbours, minima next to sign
        # changes and NaN, which the built-in grids seldom show
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        dvals = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n) * 0.01
        dvals[rng.random(n) < 0.05] = np.nan
        monkeypatch.setattr(spectrum, "_scan_values", lambda *args: _scan_form(dvals))
        brackets = scan_real_axis(fixed_free_string, 0.0, 1.0, n, 1e-3)
        _same_brackets(brackets, _loop_brackets(np.linspace(0.0, 1.0, n), dvals))

    def test_a_failed_grid_point_keeps_the_minimum_brackets(self, monkeypatch):
        # the real root -0.5687 has only a |D|-minimum bracket; with the grid
        # point p = 10 failed, a median over every |D| was NaN, no minimum
        # qualified and that root was lost
        problem = build_model("spacecraft_bar", b=2.0)
        options = SolveOptions(scan=(-1.0, 10.0, 220), step=1e-3)
        roots = [r.lam for r in solve_spectrum(problem, options)]
        original = spectrum._scan_values

        def failing(problem, lam, step):
            if 10j in lam.tolist():
                raise PropagationError(1, 10j, "stub")
            return original(problem, lam, step)

        monkeypatch.setattr(spectrum, "_scan_values", failing)
        brackets = scan_real_axis(problem, *options.scan, options.step)
        ps = np.linspace(*options.scan)
        values = spectrum._each(lambda z: spectrum._scan_values(problem, z, options.step), 1j * ps)
        assert isinstance(values[-1], PropagationError)
        assert any(b.kind == "minimum" for b in brackets)
        found = [r.lam for r in solve_spectrum(problem, options)]
        assert len(roots) == len(found) == 4
        assert min(abs(z + 0.56866) for z in found) <= 1e-5
        assert all(abs(a - b) <= 1e-10 for a, b in zip(roots, found))

    def test_a_scan_whose_every_lambda_fails_raises_the_first(self, fixed_free_string, monkeypatch):
        # the failures are met from the grid's end; the scan raises its
        # first lambda's, where it returned [] before
        monkeypatch.setattr(spectrum, "_scan_values", _fail_every_lambda)
        with pytest.raises(PropagationError) as info:
            scan_real_axis(fixed_free_string, 0.2, 10.0, 12, 1e-3)
        assert info.value.lam == 0.2j

    def test_a_stiff_scan_raises_its_first_lambdas_failure(self):
        # criterion 9's stiff problem overflows at every frequency
        problem = problem_from_dict(STIFF_PROBLEM)
        expected = _first_error(problem, 1j * np.linspace(0.5, 2.0, 10), 1e-3)
        with pytest.raises(IntegrationError) as info:
            scan_real_axis(problem, 0.5, 2.0, 10, 1e-3)
        assert (str(info.value), info.value.lam) == (str(expected), 0.5j)

    @pytest.mark.parametrize("rect", [None, (-0.5, 0.0, 0.5, 6.0, 2, 2)], ids=["scan_only", "scan_and_rect"])
    def test_a_solve_raises_the_failure_of_a_scan_that_failed_everywhere(
        self, fixed_free_string, monkeypatch, rect
    ):
        # Newton's pass is not stubbed, so the rect alone finds roots; a
        # scan and a rect returned the rect's roots before
        if rect is not None:
            assert solve_spectrum(fixed_free_string, SolveOptions(rect=rect, step=1e-3))

        monkeypatch.setattr(spectrum, "_scan_values", _fail_every_lambda)
        with pytest.raises(PropagationError) as info:
            solve_spectrum(fixed_free_string, SolveOptions(scan=(0.2, 10.0, 12), rect=rect, step=1e-3))
        assert info.value.lam == 0.2j

    def test_a_rect_whose_every_lambda_fails_raises_the_first_it_evaluated(self, fixed_free_string, monkeypatch):
        # every seed fails, met from the last; the first seed's failure is
        # the solve's
        monkeypatch.setattr(spectrum, "_newton_values", _fail_every_lambda)
        with pytest.raises(PropagationError) as info:
            solve_spectrum(fixed_free_string, SolveOptions(rect=(-0.5, 0.0, 0.5, 6.0, 2, 2), step=1e-3))
        assert info.value.lam == complex(-0.5, 0.5)

    def test_a_solve_scans_through_the_public_scan(self, fixed_free_string, monkeypatch):
        # the benchmark's tracer wraps spectrum.scan_real_axis by name, so a
        # solve that scanned by another name showed no scan span
        calls = []
        scan = spectrum.scan_real_axis
        monkeypatch.setattr(spectrum, "scan_real_axis", lambda *args: calls.append(args) or scan(*args))
        roots = solve_spectrum(fixed_free_string, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        assert len(calls) == 1 and len(roots) == 3


class TestInterpolatedStart:
    """A sign-change bracket starts at the root of the interpolant of F on the
    grid around it, unless the grid cannot give one near the bracket; a
    minimum starts at its seed."""

    def test_failed_stencil_point_starts_at_the_first_place(self, fixed_free_string, monkeypatch):
        # a failed grid point two cells from the crossing at pi/2 leaves that
        # bracket's stencil one value short: it starts at its false-position
        # point; the other brackets keep their interpolated starts
        window = (0.2, 10.0, 240)
        ps = np.linspace(*window)
        dvals = characteristic_determinant(fixed_free_string, 1j * ps, 1e-3)
        before = scan_real_axis(fixed_free_string, *window, 1e-3)
        i = int(np.searchsorted(ps, HALF_PI))
        original = spectrum._scan_values

        def failing(problem, lam, step):
            if 1j * ps[i + 2] in lam.tolist():
                raise PropagationError(1, 1j * ps[i + 2], "stub")
            return original(problem, lam, step)

        monkeypatch.setattr(spectrum, "_scan_values", failing)
        after = scan_real_axis(fixed_free_string, *window, 1e-3)
        assert len(before) == len(after) == 3
        for b, a in zip(before, after):
            if a.p_lo <= HALF_PI <= a.p_hi:
                first, axis = _first_place(a, ps, dvals)
                assert a.start == 1j * first and a.axis and axis
                assert abs(b.start - 1j * HALF_PI) < abs(a.start - 1j * HALF_PI)
            else:
                assert (a.start, a.axis) == (b.start, b.axis)

    def test_two_brackets_never_share_an_interpolated_start(self):
        # on 8 grid points the interpolants of the second and third brackets
        # both have the root near 4.89i: the third, whose bracket it lies in,
        # keeps it, and the second, whose bracket lies more than a grid cell
        # below it, starts at its false-position point, from which Newton
        # finds the root near 2.22i
        problem = build_model("spacecraft_bar")
        window = (0.2, 10.0, 8)
        ps = np.linspace(*window)
        dvals = characteristic_determinant(problem, 1j * ps, 1e-3)
        brackets = scan_real_axis(problem, *window, 1e-3)
        assert len(brackets) == 4
        assert brackets[1].start == 1j * _first_place(brackets[1], ps, dvals)[0]
        assert abs(brackets[2].start - complex(-0.2734, 4.8868)) <= 1e-4
        assert abs(brackets[1].start - brackets[2].start) > ps[1] - ps[0]
        roots = solve_spectrum(problem, SolveOptions(scan=window, step=1e-3))
        assert min(abs(r.lam - complex(-0.1678, 2.2224)) for r in roots) <= 1e-4
        assert len(roots) == 4

    @pytest.mark.parametrize("params, window, kind", [
        (dict(G=0.5217, Ip=1.0103, J1=0.6611, J2=0.1686, alpha1=0.0627, beta=0.0705, m0=1.6677,
              rho=0.7957, zeta1=0.0116), (-0.3324, 6.5862, 18), "minimum"),
        (dict(G=0.5330, Ip=0.5684, J1=0.5277, J2=0.5831, alpha1=0.0521, beta=0.0644, m0=0.6063,
              rho=1.5790, zeta1=0.0122), (0.4010, 7.7179, 8), "sign_change"),
    ], ids=["minimum_at_its_seed", "root_before_the_grid"])
    def test_coarse_grid_keeps_the_rigid_body_root(self, params, window, kind):
        # machine_unit has the real roots 0 and about +-0.02, one grid cell
        # apart or less.  The interpolant's root near the dip of the first
        # grid, or before the first point of the second, led Newton to the
        # root beside 0; the first bracket's seed, or its false-position
        # point, leads it to 0
        problem = build_model("machine_unit", **params)
        ps = np.linspace(*window)
        dvals = characteristic_determinant(problem, 1j * ps, 1e-3)
        first = scan_real_axis(problem, *window, 1e-3)[0]
        assert first.kind == kind and first.start == 1j * _first_place(first, ps, dvals)[0]
        roots = solve_spectrum(problem, SolveOptions(scan=window, step=1e-3))
        assert abs(roots[0].lam) <= 1e-8
        assert all(abs(r.lam.real) > 0.03 for r in roots[1:])


#: root counts of solve_spectrum (step 1e-3) on the edges of each of
#: SCAN_WINDOWS at each grid size of WINDOW_SIZES, measured with the
#: false-position starts of Re D that the interpolated starts replaced: per
#: built-in and window one digit per size, the complex path, then real_split
WINDOW_SIZES = (2, 3, 5, 8, 12, 40, 240)
ROOT_COUNTS = {
    "cable_snapshot": ("1111333 1111333", "1112233 1112233", "1111111 1111111", "0000000 0000000", "1111111 1111111"),
    "fixed_fixed_string": ("1133333 1133333", "1133333 1133333", "0000000 0000000", "0000000 0000000", "0000000 0000000"),
    "fixed_free_string": ("1133333 1133333", "1133333 1133333", "1111111 1111111", "0000000 0000000", "1111111 1111111"),
    "machine_unit": ("0044444 0010000", "0024455 0000011", "1111111 0000000", "0001111 0001111", "1111111 1000000"),
    "pipeline": ("0024444 0000000", "1134444 0000000", "1111111 0000000", "1111111 0000000", "0222222 0000000"),
    "point_mass_string": ("1111333 1111333", "1112233 1112233", "1111111 1111111", "0000000 0000000", "1111111 1111111"),
    "spacecraft_bar": ("0224444 0000000", "1134444 0000000", "1111111 0000000", "0000000 0000000", "0222222 0000000"),
}


class TestSearchOutcome:
    @pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
    def test_root_counts_on_every_window_and_grid_size(self, name):
        problem = build_model(name)
        for (lo, hi, _), counts in zip(SCAN_WINDOWS, ROOT_COUNTS[name]):
            for path, want in zip(("complex", "real_split"), counts.split()):
                options = [SolveOptions(scan=(lo, hi, n), step=1e-3, path=path) for n in WINDOW_SIZES]
                got = "".join(str(len(solve_spectrum(problem, o))) for o in options)
                assert (lo, hi, path, got) == (lo, hi, path, want)


def _fail_every_lambda(problem, lam, step):
    """A stub pass that fails the last lambda of its stack, so _each meets
    a stack's failures from its end."""
    raise PropagationError(1, lam[-1], "stub")


def _scan_form(dvals):
    """The scan's (D, log|F|) of stub values D, taking F = D."""
    with np.errstate(divide="ignore"):
        d = np.asarray(dvals, dtype=complex)
        return list(zip(d.tolist(), np.log(np.abs(d)).tolist()))


def _first_place(bracket, ps, dvals):
    """(p, axis) of the plain start rule: the false-position point of a
    sign-change bracket, on the axis where D is real at both ends; else the
    seed, off the axis."""
    if bracket.kind != "sign_change":
        return bracket.p_seed, False
    lo, hi = bracket.p_lo, bracket.p_hi
    d_lo, d_hi = dvals[ps == lo][0], dvals[ps == hi][0]
    return hi - d_hi.real * (hi - lo) / (d_hi.real - d_lo.real), d_lo.imag == 0.0 and d_hi.imag == 0.0


def _starts_at_the_interpolant_root(bracket, ps, values, first):
    # the degree-7 polynomial through F, scaled to its largest modulus on
    # the stencil, at the 8 grid points centred on the bracket's cell
    # (shifted into the grid), solved as a Vandermonde system on the nodes
    # mapped to [0, 1]; its root lies at most a grid cell outside the
    # bracket and within the grid, or the bracket starts at its first place
    lo = int(np.flatnonzero(ps == bracket.p_lo)[0])
    p = -1j * bracket.start
    assert ps[max(lo - 1, 0)] <= p.real <= ps[min(lo + 2, len(ps) - 1)]
    if p == first:
        return
    j0 = min(max(lo - 3, 0), len(ps) - 8)
    x = ps[j0 : j0 + 8]
    d = np.array([values[j][0] for j in range(j0, j0 + 8)])
    log_f = np.array([values[j][1] for j in range(j0, j0 + 8)])
    f = d / np.abs(d) * np.exp(log_f - log_f.max())
    t = (x - x[0]) / (x[-1] - x[0])
    coefficients = np.linalg.solve(np.vander(t, 8, increasing=True), f.real if bracket.axis else f)
    residual = np.polynomial.polynomial.polyval((p - x[0]) / (x[-1] - x[0]), coefficients)
    assert abs(residual) <= 1e-9 * np.abs(f).max()


def _loop_brackets(ps, dvals):
    # the per-point bracket loop the vectorized search replaced, kept as the
    # reference; the threshold is a share of the median of the finite |D|
    f, mag = dvals.real, np.abs(dvals)
    expected, flagged = [], np.zeros(len(ps), dtype=bool)
    for i in range(len(ps) - 1):
        if f[i] * f[i + 1] < 0.0:
            expected.append(Bracket(ps[i], ps[i + 1], "sign_change", 0.5 * (ps[i] + ps[i + 1])))
            flagged[i] = flagged[i + 1] = True
    finite = mag[np.isfinite(mag)]
    threshold = spectrum._MINIMUM_RATIO * float(np.median(finite)) if finite.size else math.nan
    for i in range(1, len(ps) - 1):
        if flagged[i - 1] or flagged[i] or flagged[i + 1]:
            continue
        if mag[i] < threshold and mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1]:
            expected.append(Bracket(ps[i - 1], ps[i + 1], "minimum", ps[i]))
    expected.sort(key=lambda b: b.p_seed)
    return expected


def _same_brackets(brackets, expected):
    # equal values, kinds and order, every coordinate a float64; the starts
    # are checked apart
    assert [dataclasses.replace(b, start=None, axis=False) for b in brackets] == expected
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

    def test_max_iter_exit_names_no_multiplicity(self):
        # a rect seed deep in the left half-plane of the cable: Newton burns
        # its iterations, and nothing checks whether the root is multiple.
        # There the spans' solutions decay below the float range, which the
        # propagator warns of
        with pytest.warns(RuntimeWarning, match="nearly singular .* decay below the float range"):
            res = refine_root(build_model("cable_snapshot"), -250 + 0j, step=1e-3)
        assert (res.iterations, res.converged, res.message) == (100, False, "max_iter exceeded")


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
        reduced = reduce_complex(prob, np.array([lam]))
        u_tables, fundamentals, _, _ = _assemble(reduced, step=1e-3, keep_samples=False)
        g1 = fundamentals[0].end_matrix[0]
        g2 = fundamentals[1].end_matrix[0]
        expected = g2.T @ (g1.T @ u_tables[0])
        np.testing.assert_allclose(u_tables[2][0], expected, rtol=0, atol=1e-15)

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


class TestResolveStep:
    """A derived step comes from the problem's declared bound, scaled to the
    largest |lambda| the search probes; no lambda is evaluated for it."""

    #: resolve_step at the default target 1e-10, as the solver gave it when
    #: the bound was read from a system reduced at the probe scale
    SCAN_STEP = 4.935671835949824e-06
    RECTS = (
        ("machine_unit", {"left_end": "clamped", "right_end": "clamped"},
         (-0.5, 0.0, 0.5, 10.0, 4, 4), 4.397074132192028e-06),
        ("spacecraft_bar", {"beta": 0.02}, (-0.5, 0.0, 0.5, 6.0, 4, 6), 1.345887140623971e-05),
    )

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_scan_defaults_keep_their_step(self, name):
        options = SolveOptions(scan=SCAN_DEFAULTS[name])
        assert spectrum.resolve_step(build_model(name), options) == self.SCAN_STEP

    @pytest.mark.parametrize("name, params, rect, step", RECTS)
    def test_rects_keep_their_step(self, name, params, rect, step):
        options = SolveOptions(rect=rect)
        assert spectrum.resolve_step(build_model(name, **params), options) == step

    def test_pole_at_the_probe_scale_leaves_the_solve_to_the_grid(self):
        # the scan to p = 1 probes |lambda| = 1, a pole of q = 1 + lam^2:
        # the derived step is still formed, and the solve matches the
        # default step's, exact propagation having no step error
        problem = problem_from_dict(POLE_STRING)
        assert validate(problem) == []
        options = SolveOptions(scan=(0.2, 1.0, 40))
        default = solve_spectrum(problem, dataclasses.replace(options, step=1e-3))
        assert len(default) == 3
        assert solve_spectrum(problem, options) == default


def _y_varying_problem():
    """Two intervals, the second with y-polynomial A, B, C and a mass interface."""
    part = Partition((0.0, 0.4, 1.0))
    a0 = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b0 = PolyMatrix.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
    a1 = PolyMatrix.from_entries([[[0.0], [1.0, 0.2]], [[0.3, -0.5, 0.1], [0.0]]])
    b1 = PolyMatrix.from_entries([[[0.0], [0.0]], [[1.0, 0.4], [0.0, 0.05]]])
    c1 = PolyMatrix.from_entries([[[0.0], [0.0]], [[0.02, 0.01], [0.0]]])
    field = CoefficientField((a0, a1), (b0, b1), (PolyMatrix.zero(2, 2), c1), 3.0)
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
    """A rational field that depends on y, so no interval is constant: r =
    lam^2 (1 + 0.3 y) / (1 + 0.01 lam)."""
    part = Partition((0.0, 1.0))
    a = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b = PolyMatrix.from_entries([[[0.0], [0.0]], [[1.0, 0.3], [0.0]]])
    c = PolyMatrix.constant(np.array([[0.0, 0.01], [0.0, 0.0]]))
    field = CoefficientField((a,), (b,), (c,), 1.3, ((1.0, 0.01),))
    base = make_string_problem()
    return ProblemDefinition("y_lambda", part, field, base.boundary_left, base.boundary_right, ())


def _graded_string():
    """The pinned-free string with B = 1 + y/2 (CI's graded.json): one
    y-dependent interval, which RK4 integrates."""
    base = make_string_problem()
    b = PolyMatrix.from_entries([[[0.0], [0.0]], [[1.0, 0.5], [0.0]]])
    field = dataclasses.replace(base.coefficients, b_polys=(b,), bound=2.0)
    return dataclasses.replace(base, name="graded", coefficients=field)


def _off_axis(n):
    """n lambdas with full-length mantissas in the left half-plane strip."""
    rng = np.random.default_rng(11)
    return rng.uniform(-0.5, 0.0, n) + 1j * rng.uniform(0.2, 9.0, n)


#: acceptance criterion 9's stiff problem: its solutions overflow at every
#: frequency of a default-step solve
STIFF_PROBLEM = {
    "name": "overflow",
    "breakpoints": [0.0, 1.0],
    "dimension": 2,
    "bound": 800.0,
    "coefficients": [
        {"A": [[[800.0], [0.0]], [[0.0], [-800.0]]],
         "B": [[[0.0], [0.0]], [[0.0], [0.0]]],
         "C": [[[0.0], [0.0]], [[0.0], [0.0]]]}
    ],
    "boundary_left": [[[1.0], [0.0]]],
    "boundary_right": [[[1.0], [0.0]]],
    "conjugations": [],
}


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
        # budgets of one step per y-block; of 8 (plain) or 2 (variational)
        # steps per block for 40 lambdas, so a 300-step interval takes 38
        # blocks; and of 16 or 4 for 12 lambdas: each with a shorter last
        # block, and each the bytes of the whole budget
        for problem in (_y_varying_problem(), _y_varying_lambda_problem(), _graded_string()):
            for lams, budget in [(_off_axis(12), 1), (_off_axis(40), 40 * 4 * 8),
                                 (_off_axis(12), 7 * 16 * 12)]:
                whole = [spectrum._closure_values(problem, lams, 2e-3, variational=v) for v in (False, True)]
                with monkeypatch.context() as patch:
                    patch.setattr(integrate, "_STACK_ENTRIES", budget)
                    for v in (False, True):
                        values = spectrum._closure_values(problem, lams, 2e-3, variational=v)
                        assert [c.tobytes() for c in values] == [c.tobytes() for c in whole[v]]

    @pytest.mark.parametrize("nodes", [2**16, 2**18])
    def test_newton_pass_memory_is_bounded(self, nodes):
        # one variational lambda of the graded string needs about 3.6 KB per
        # node (225 MB at 2^16 nodes) if a pass holds all its step arrays at
        # once; in y-blocks they stay within the entry budget at any count
        problem = _graded_string()
        assert not problem.violations  # validated before the trace
        tracemalloc.start()
        try:
            spectrum._newton_values(problem, np.array([2.0j]), 1.0 / nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

    def test_sampled_pass_memory_is_bounded(self):
        # one sampled lambda of the graded string takes 237 MB at 2^18 nodes
        # if its pass forms every step matrix at once; in y-blocks it holds
        # the samples and one block
        system = reduce_complex(_graded_string(), np.array([2.0j]))
        tracemalloc.start()
        try:
            integrate_fundamental(system, 0, 1.0 / 2**18, keep_samples=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128e6

    @pytest.mark.parametrize("budget", [4, 20, 256])
    def test_sampled_blocks_keep_each_lambda(self, monkeypatch, budget):
        # blocks of 1, 4 and 64 of 500 steps: each lambda's samples are the
        # bytes of its stack of one, and the sequential product's to rounding
        monkeypatch.setattr(integrate, "_STACK_ENTRIES", budget)
        problem, lams, h = _graded_string(), _off_axis(3), 2e-3
        system = reduce_complex(problem, lams)
        fm = integrate_fundamental(system, 0, h, keep_samples=True)
        for k, z in enumerate(lams.tolist()):
            one = integrate_fundamental(reduce_complex(problem, np.array([z])), 0, h, keep_samples=True)
            assert fm.samples[:, k].tobytes() == one.samples[:, 0].tobytes()
        a_nodes = system.varying(0, fm.sample_ys)
        mids = system.varying(0, fm.sample_ys[:-1] + 0.5 * h)
        transfer = np.broadcast_to(np.eye(2), (3, 2, 2))
        for j, s in enumerate(integrate._rk4_steps(a_nodes[:-1], mids, a_nodes[1:], h)):
            transfer = s @ transfer
            np.testing.assert_allclose(fm.samples[j + 1], np.swapaxes(transfer, 1, 2), rtol=0, atol=1e-12)

    def test_block_products_fold_as_they_arrive(self, monkeypatch):
        # 1000 lambdas with a budget of one step per block give 512 block
        # products of 128 KB (realified 4 x 4): held all at once and stacked
        # they would take 128 MB, folded as they arrive about 10 of them
        problem = _graded_string()
        assert not problem.violations  # validated before the trace
        monkeypatch.setattr(integrate, "_STACK_ENTRIES", 1000 * 4)
        tracemalloc.start()
        try:
            spectrum._closure_values(problem, 1j * np.linspace(0.2, 10.0, 1000), 1.0 / 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_failed_chunk_is_not_replayed(self, monkeypatch):
        # the stack fails in its one pass: its error is raised as it is,
        # and no lambda is evaluated again
        calls = []

        original = spectrum.reduce_complex

        def stub(problem, lam, variational=False):
            calls.append(np.atleast_1d(lam).tolist())
            if 3j in calls[-1]:
                raise SolverError(f"failed at {calls[-1]}")
            return original(problem, lam, variational=variational)

        monkeypatch.setattr(spectrum, "reduce_complex", stub)
        lams = 1j * np.arange(1.0, 6.0)
        with pytest.raises(SolverError, match=r"failed at \[1j, 2j, 3j, 4j, 5j\]"):
            characteristic_determinant(_y_varying_problem(), lams, 1e-3)
        assert calls == [[1j, 2j, 3j, 4j, 5j]]

    def test_constant_problems_are_not_chunked(self, monkeypatch):
        # one reduction per pass, whether the intervals are constant or
        # vary in y: the y-dependent integration bounds its own arrays
        calls = []
        original = spectrum.reduce_complex

        def counting(problem, lam, variational=False):
            calls.append(len(lam))
            return original(problem, lam, variational=variational)

        monkeypatch.setattr(spectrum, "reduce_complex", counting)
        lams = 1j * np.linspace(0.2, 10.0, 240)
        for problem in (build_model("cable_snapshot"), _y_varying_problem()):
            characteristic_determinant(problem, lams, 1e-3)
            spectrum._newton_values(problem, lams, 1e-3)
        assert calls == [240] * 4

    def test_scalar_returns_python_complex(self):
        problem = build_model("machine_unit")
        assert type(characteristic_determinant(problem, 2.0j, 1e-3)) is complex
        assert type(characteristic_determinant(problem, np.complex128(2.0j), 1e-3)) is complex
        one = characteristic_determinant(problem, np.array([2.0j]), 1e-3)
        assert isinstance(one, np.ndarray) and one.shape == (1,)

    def test_end_values_that_overflow_fail_their_lambda(self):
        # cable_snapshot's end values W overflow on its second interval
        # from Re -800: an IntegrationError there, not a numpy overflow
        # warning and a NaN determinant
        problem = build_model("cable_snapshot")
        lams = np.array([-800 + 0j, -700 + 0j])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            values = spectrum._each(lambda z: spectrum._newton_values(problem, z, 1e-3), lams)
        assert not [w for w in record if "overflow" in str(w.message)]
        assert isinstance(values[0], IntegrationError) and values[0].interval == 1
        assert values[0].lam == -800 and all(math.isfinite(abs(v)) for v in values[1])

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
        assert info.value.lam == expected.lam == lams[2]

    @pytest.mark.parametrize(
        "name, params, pole",
        [("machine_unit", {"zeta1": 0.5}, -2.0), ("spacecraft_bar", {"beta": 0.5}, -2.0),
         ("pipeline", {"beta": 0.25}, -4.0)],
    )
    def test_pole_is_named_on_every_path(self, name, params, pole):
        # -G*Ip/zeta1 and -1/beta, the roots of the stored denominators, on
        # the scan's stacked determinant, a Newton round and a mode shape
        problem = build_model(name, **params)
        calls = (
            lambda: characteristic_determinant(problem, np.array([1j, pole]), 1e-2),
            lambda: spectrum._newton_values(problem, np.array([1j, pole]), 1e-2),
            lambda: mode_shape(problem, pole, 1e-2),
        )
        for call in calls:
            with pytest.raises(PoleError) as info:
                call()
            assert info.value.lam == pole
            message = f"coefficient denominator of interval 0 vanishes at lambda=({pole:g}+0j)"
            assert str(info.value) == message

    def test_failing_stack_raises_the_error_its_pass_meets(self):
        # -1.999999 overflows in integration, but the whole stack is reduced
        # first, where the pole at -2 fails: the stack raises the pole,
        # where a loop would meet the overflow first
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-1.8, -1.999999, -2.0, -2.1]) + 0j
        assert type(_first_error(problem, lams, 1e-2)) is IntegrationError
        with pytest.raises(PoleError) as info:
            characteristic_determinant(problem, lams, 1e-2)
        assert info.value.lam == -2.0

    def test_each_failure_costs_one_stacked_call(self, det_calls):
        # the pole at -2 and the overflow at -1.999999 each take the stack
        # down once; the third call evaluates the rest
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-1.8, -1.999999, -2.0, -2.1]) + 0j
        values = spectrum._each(lambda z: spectrum.characteristic_determinant(problem, z, 1e-2).tolist(), lams)
        assert [len(lam) for lam in det_calls] == [4, 3, 2]
        for k in (1, 2):
            expected = _first_error(problem, lams[k : k + 1], 1e-2)
            assert (type(values[k]), str(values[k])) == (type(expected), str(expected))
        kept = np.array([values[0], values[3]])
        assert kept.tobytes() == _per_lambda(problem, lams[[0, 3]], 1e-2).tobytes()

    def test_every_overflowing_lambda_of_a_pass_fails_at_once(self, det_calls):
        # one pass names every lambda whose solutions overflow, each with
        # the error it raises alone; one pass per failed lambda took a
        # 2000-point scan of this problem 2000 calls over 2,001,000 lambdas
        problem = problem_from_dict(STIFF_PROBLEM)
        lams = 1j * np.linspace(0.5, 2.0, 7)
        values = spectrum._each(lambda z: spectrum.characteristic_determinant(problem, z, 1e-3).tolist(), lams)
        assert len(det_calls) == 1
        for k, value in enumerate(values):
            expected = _first_error(problem, lams[k : k + 1], 1e-3)
            assert (type(value), str(value), value.lam) == (type(expected), str(expected), expected.lam)
        del det_calls[:]
        with pytest.raises(IntegrationError) as info:
            solve_spectrum(problem, SolveOptions(scan=(0.5, 2.0, 2000)))
        assert str(info.value) == "integration overflow on interval 0 at lambda=0.5j"
        assert len(det_calls) <= 2

    def test_pole_next_to_a_newton_point_is_that_points_outcome(self):
        # Newton's A_lam is exact, so a point 1e-5 from the Kelvin-Voigt
        # pole at -2 evaluates; a point on the pole fails alone, naming it,
        # and the others get the values they get alone
        problem = build_model("machine_unit", zeta1=0.5)
        lams = np.array([-2 / (1 - 1e-5), -2.0, 1j])
        values = spectrum._each(lambda z: spectrum._newton_values(problem, z, 1e-2), lams)
        assert isinstance(values[1], PoleError) and values[1].lam == -2.0
        assert str(values[1]) == "coefficient denominator of interval 0 vanishes at lambda=(-2+0j)"
        alone = spectrum._newton_values(problem, lams[[0, 2]], 1e-2)
        assert np.isfinite(np.array(alone)).all()
        assert np.array([values[0], values[2]]).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("lam", [None, 5j], ids=["none", "outside"])
    def test_error_naming_no_lambda_of_the_call_is_raised(self, lam):
        calls = []

        def evaluate(lams):
            calls.append(lams)
            error = SolverError("no lambda of the call")
            error.lam = lam
            raise error

        with pytest.raises(SolverError, match="no lambda of the call"):
            spectrum._each(evaluate, np.array([1j, 2j]))
        assert len(calls) == 1

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
        # in a scan the failed point is a gap: D = NaN there starts no bracket
        brackets = scan_real_axis(problem, 1.0, 3.0, 5, step=1e-3)
        values = spectrum._each(lambda z: spectrum._scan_values(problem, z, 1e-3), 1j * np.linspace(1.0, 3.0, 5))
        failed = values[2]  # p = 2
        assert isinstance(failed, PropagationError) and failed.lam == 2j
        assert all(not (b.p_lo <= 2.0 <= b.p_hi) for b in brackets)

    def test_near_singular_warnings_match_the_loop(self):
        # trace(A + lam C) = -40 lam, so |det G| = exp(-40 Re(lam) length)
        # falls below the warning level for the larger real parts
        base = make_string_problem(breakpoints=(0.0, 0.37, 1.0),
                                   conjugations=(identity_conjugation(1),))
        field = base.coefficients
        c = PolyMatrix.constant(np.array([[-40.0, 0.0], [0.0, 0.0]]))
        field = CoefficientField(field.a_polys, field.b_polys, (c, c), 40.0)
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
    """The lambdas of every determinant evaluation, characteristic_determinant,
    the scan's (_scan_values) or Newton's (_newton_values), in call order."""
    calls = []
    for name in ("characteristic_determinant", "_scan_values", "_newton_values"):
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
    """Answer characteristic_determinant, _scan_values (F = D) and
    _newton_values from evaluate, in their call forms; before(lams) runs
    first at every call."""

    def stub(name):
        def call(problem, lam, step):
            lams = np.atleast_1d(lam)
            if before is not None:
                before(lams)
            values = evaluate(lams, name == "_newton_values")
            if name == "_newton_values":
                return values
            if name == "_scan_values":
                return _scan_form(values)
            return complex(values[0]) if np.ndim(lam) == 0 else np.array(values)

        return call

    for name in ("characteristic_determinant", "_scan_values", "_newton_values"):
        monkeypatch.setattr(spectrum, name, stub(name))


#: a valid problem for the entry points' validation gate, where stubs
#: answer every evaluation and never read it
_STUBBED = make_string_problem()


def _refined(monkeypatch, target, evaluate, tol=1e-10):
    """refine_root of one target, every evaluation answered by evaluate."""
    _stub_evaluations(monkeypatch, evaluate)
    return refine_root(_STUBBED, target, tol, 100, 1e-3)


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
        # scan handed on: inside the bracket on the axis where D is real at
        # both ends; off it, within a grid cell of the bracket and much
        # nearer the root Newton converges to than the false-position point
        def no_newton(seed, tol, max_iter, axis=False):
            return spectrum.SpectralResult(seed, 0.0, 0, False)
            yield

        prob = build_model(name)
        ps = np.linspace(*SCAN_DEFAULTS[name])
        dvals = characteristic_determinant(prob, 1j * ps, 2e-3)
        brackets = [
            b for b in scan_real_axis(prob, *SCAN_DEFAULTS[name], step=2e-3)
            if b.kind == "sign_change"
        ]
        roots = [refine_root(prob, b, tol=1e-10, max_iter=100, step=2e-3).lam for b in brackets]
        monkeypatch.setattr(spectrum, "_newton", no_newton)
        assert brackets
        for b, root in zip(brackets, roots):
            res = refine_root(prob, b, tol=1e-10, max_iter=100, step=2e-3)
            if b.axis:
                assert res.lam.real == 0.0
                assert b.p_lo <= res.lam.imag <= b.p_hi
            else:
                cell = ps[1] - ps[0]
                assert b.p_lo - cell <= res.lam.imag <= b.p_hi + cell
                false_position = 1j * _first_place(b, ps, dvals)[0]
                assert abs(res.lam - root) <= 1e-4 * abs(false_position - root)

    def test_real_split_bracket_with_a_complex_root_on_the_axis(self, monkeypatch):
        # Re D and Im D change sign together: Gauss-Newton along the axis.
        # D(ip) = (p - 2)(1 + 0.3i), continued off the axis as p = -i lambda
        _stub_evaluations(monkeypatch, _analytic(lambda lam: (-1j * lam - 2.0) * (1 + 0.3j),
                                                 lambda lam: -1j * (1 + 0.3j) + 0 * lam))
        options = SolveOptions(scan=(1.0, 3.0, 20), step=1e-3, path="real_split")
        (root,) = solve_spectrum(_STUBBED, options)
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
    def test_non_finite_determinant_is_an_exit(self, strip, root, seed, message, slope, monkeypatch):
        res = _refined(monkeypatch, seed, _nan_off(strip, root, slope))
        assert not res.converged
        assert res.message == message
        assert abs(res.lam.real) <= strip or res.lam == seed

    def test_small_step_onto_a_non_finite_value_is_halved(self, monkeypatch):
        # a step below tol is taken even when |D| grows, but never onto NaN
        res = _refined(monkeypatch, 1.4j, _nan_off(1e-3, complex(-100.0, 1.4)), tol=1e-2)
        assert -1e-3 <= res.lam.real < 0.0

    def test_non_finite_value_inside_a_bracket_is_not_accepted(self, monkeypatch):
        # NaN off the axis and inside (1.4, 1.5) on it: the scan hands its
        # start, the false-position point 1.45 on the axis, to Newton, which
        # reports the seed
        def d_of(lam):
            bad = (lam.real != 0.0) | ((lam.imag > 1.4) & (lam.imag < 1.5))
            return np.where(bad, complex("nan+nanj"), -1j * lam - 1.45)

        evaluate = _analytic(d_of, lambda lam: np.full(lam.shape, -1j))
        bracket = Bracket(1.0, 2.0, "sign_change", 1.5, start=1.45j, axis=True)
        res = _refined(monkeypatch, bracket, evaluate)
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


def _starts(problem, options, step):
    """The Newton starts of a solve's candidates, in the order solve_spectrum
    refines them: each scan bracket's as the scan put it."""
    return [spectrum._seed(t) for t in _targets(problem, options, step)]


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
    """What solve_spectrum reports from its refined candidates at a tol no
    looser than the default, where no result is polished."""
    converged = [r for r in results if r.converged]
    roots = spectrum._dedupe(converged, [r.lam for r in converged])
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
        starts = _starts(problem, options, step)
        lockstep, _ = spectrum._refine_all(problem, starts, options.tol, options.max_iter, step)
        assert _fields(lockstep) == _fields(looped)
        assert _fields(solve_spectrum(problem, options)) == _fields(_reported(looped, options))

    def test_calls_follow_the_longest_chain(self, det_calls):
        # at the benchmark's scan window the four chains, started where the
        # scan put them as in a solve, take 1 or 2 calls each: 6 one after
        # another, 2 in lockstep
        problem = build_model("machine_unit")
        options = SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="real_split")
        brackets = scan_real_axis(problem, *options.scan, step=1e-3)
        chains = []
        for bracket in brackets:
            del det_calls[:]
            spectrum._refine_all(problem, [spectrum._seed(bracket)], options.tol, options.max_iter, 1e-3)
            chains.append(len(det_calls))
        assert len(chains) >= 2 and max(chains) < sum(chains)
        del det_calls[:]
        solve_spectrum(problem, options)
        assert len(det_calls) == 1 + max(chains)  # the scan, then refinement

    @pytest.mark.parametrize("scan", [(0.2, 1.0, 10), (0.2, 10.0, 240)], ids=["no_candidate", "candidates"])
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_non_positive_tol_is_rejected_before_the_scan(self, fixed_free_string, det_calls, scan, tol):
        # unchecked, a NaN tol gives a solve [] and runs refine_root's
        # Newton to max_iter at the exact root
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=scan, step=1e-3, tol=tol))
        with pytest.raises(ValueError, match="tol must be positive"):
            refine_root(fixed_free_string, 1.5j, tol=tol)
        assert det_calls == []

    @pytest.mark.parametrize("scan", [(0.2, 1.0, 10), (0.2, 10.0, 240)], ids=["no_candidate", "candidates"])
    @pytest.mark.parametrize("tol", [1.0, math.inf])
    def test_tol_of_1_or_more_is_rejected_before_the_scan(self, fixed_free_string, det_calls, scan, tol):
        # unchecked, every seed meets |D| <= tol |D(seed)| and is a root
        # after 0 iterations
        with pytest.raises(ValueError, match="tol must be below 1"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=scan, step=1e-3, tol=tol))
        with pytest.raises(ValueError, match="tol must be below 1"):
            refine_root(fixed_free_string, 1j, tol=tol)
        assert det_calls == []

    @pytest.mark.parametrize(
        "search, match",
        [
            ({}, "a solve needs a scan or a rect"),
            ({"rect": (-0.5, 0.0, 0.5, 6.0, 0, 2)}, "rect needs finite corners"),
            ({"rect": (-0.5, 0.0, 0.5, 6.0, 2, 0)}, "rect needs finite corners"),
            ({"rect": (-0.5, 0.0, 0.5, math.inf, 2, 2)}, "rect needs finite corners"),
            ({"rect": (math.nan, 0.0, 0.5, 6.0, 2, 2)}, "rect needs finite corners"),
            ({"scan": (0.2, math.inf, 10)}, "need finite p_min < p_max"),
            ({"scan": (math.nan, 10.0, 10)}, "need finite p_min < p_max"),
            ({"scan": (0.2, 10.0, 10), "step": math.nan}, "step must be positive"),
        ],
        ids=["no_search", "rect_nr", "rect_ni", "rect_inf", "rect_nan", "scan_inf", "scan_nan", "step_nan"],
    )
    def test_searches_the_cli_refuses_are_rejected_before_the_scan(
        self, fixed_free_string, det_calls, search, match
    ):
        # unchecked, the first three give [], an infinite scan end or a
        # non-finite corner an IntegrationError, and the NaN step is taken;
        # a NaN scan end already failed p_min < p_max
        options = SolveOptions(**{"step": 1e-3, **search})
        with pytest.raises(ValueError, match=match):
            solve_spectrum(fixed_free_string, options)
        assert det_calls == []

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_rejected_before_the_scan(self, fixed_free_string, det_calls, max_iter):
        # with max_iter = 0 every candidate ran no iteration and the solve
        # returned an empty spectrum
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, max_iter=max_iter))
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            refine_root(fixed_free_string, 1.5j, max_iter=max_iter)
        assert det_calls == []

    def test_unknown_path_is_rejected_before_the_scan(self, fixed_free_string, det_calls):
        with pytest.raises(ValueError, match="unknown path 'split'"):
            solve_spectrum(fixed_free_string, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3, path="split"))
        assert det_calls == []

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan])
    def test_step_not_positive_is_rejected_before_any_lambda(
        self, fixed_free_string, det_calls, monkeypatch, step
    ):
        # unchecked, mode_shape raised a ZeroDivisionError at 0 and failed
        # to convert NaN to an integer, and on this closed-form problem the
        # others took a NaN step and returned values
        assembled = []
        assemble = spectrum._assemble
        monkeypatch.setattr(spectrum, "_assemble",
                            lambda *args, **kwargs: assembled.append(args) or assemble(*args, **kwargs))
        calls = (
            lambda: characteristic_determinant(fixed_free_string, 1.5j, step),
            lambda: scan_real_axis(fixed_free_string, 0.2, 10.0, 24, step),
            lambda: refine_root(fixed_free_string, 1.5j, step=step),
            lambda: mode_shape(fixed_free_string, HALF_PI * 1j, step),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^step must be positive$"):
                call()
        assert det_calls == [] and assembled == []

    def test_infinite_step_takes_one_step_per_interval(self, fixed_free_string):
        # the closed-form propagator takes any positive step, inf too
        root = refine_root(fixed_free_string, 1.5j, step=math.inf)
        assert root.converged and abs(root.lam - HALF_PI * 1j) < 1e-12
        assert len(scan_real_axis(fixed_free_string, 0.2, 10.0, 24, math.inf)) == 3
        assert len(mode_shape(fixed_free_string, root.lam, math.inf).ys) == 2

    @pytest.mark.parametrize("residuals", [(4.5e-14, 1.1e-13), (1.1e-13, 4.5e-14)])
    def test_duplicates_keep_the_first_in_target_order(self, residuals, monkeypatch):
        # two seeds of one root, 1e-14 apart: the reported root and its
        # iterations are the first seed's, whichever residual is smaller
        lam = complex(-0.379618038196, 4.917221666967)
        first = spectrum.SpectralResult(lam, residuals[0], 6, True)
        second = spectrum.SpectralResult(lam + 1e-14, residuals[1], 4, True)
        monkeypatch.setattr(spectrum, "_refine_all", lambda *args: ([first, second], []))
        (root,) = solve_spectrum(_STUBBED, SolveOptions(rect=(-0.5, 0.0, 0.5, 6.0, 1, 2), step=1e-3))
        assert (root.lam, root.residual, root.iterations) == (lam, residuals[0], 6)

    def test_failing_points_of_a_round_are_halved_past(self, monkeypatch):
        # D = (lambda - r)^3 around two roots, so Newton takes many steps.
        # Candidate 1's seventh point and candidate 2's third fail: each is
        # evaluated once and answers NaN, and its candidate halves that step
        # and goes on to its root
        roots = [complex(1.0, 1.0), complex(5.0, 5.0)]
        seeds = [complex(1.3, 1.1), complex(5.4, 4.8)]

        def root(lam):
            return np.where(lam.real < 3.0, roots[0], roots[1])

        cubic = _analytic(lambda lam: (lam - root(lam)) ** 3, lambda lam: 3 * (lam - root(lam)) ** 2)
        chains = []
        for seed in seeds:
            seen = []

            def recording(lams, newton, seen=seen):
                seen.extend(lams.tolist())
                return cubic(lams, newton)

            _plain(spectrum._newton(seed, 1e-10, 100), recording)
            chains.append(seen)
        assert len(chains[0]) > 7 and len(chains[1]) > 3
        poison = {chains[0][6]: (PropagationError, 1), chains[1][2]: (IntegrationError, 0)}
        evaluated = []

        def check(lams):
            evaluated.extend(lams.tolist())
            for z in lams.tolist():
                if z in poison:
                    error, where = poison[z]
                    raise error(where, z, "stub")

        _stub_evaluations(monkeypatch, cubic, check)
        results, _ = spectrum._refine_all(None, [(seed, False) for seed in seeds], 1e-10, 100, 1e-3)
        assert [evaluated.count(z) for z in poison] == [1, 1]
        for chain, k, res, r in zip(chains, (6, 2), results, roots):
            half = 0.5 * (chain[k - 1] + chain[k])
            assert any(abs(z - half) <= 1e-12 for z in evaluated)
            assert res.converged and abs(res.lam - r) <= 1e-3

    @pytest.mark.parametrize("case", BENCH_RECTS, ids=[name for (name, _), _ in BENCH_RECTS])
    def test_each_round_evaluates_what_its_chains_ask(self, case, det_calls):
        # nothing is kept between rounds: round r evaluates the r-th lambda
        # of every chain still running, in start order, as each chain asks
        # for it alone, repeats included
        (name, params), rect = case
        problem = build_model(name, **params)
        options = SolveOptions(rect=rect, step=1e-3)
        starts = _starts(problem, options, 1e-3)
        chains = []
        for seed, axis in starts:
            asks = []

            def recording(lams, newton, asks=asks):
                asks.extend(lams.tolist())
                return spectrum._newton_values(problem, lams, 1e-3)

            _plain(spectrum._newton(seed, options.tol, options.max_iter, axis), recording)
            chains.append(asks)
        del det_calls[:]
        _, evaluated = spectrum._refine_all(problem, starts, options.tol, options.max_iter, 1e-3)
        rounds = [[chain[r] for chain in chains if len(chain) > r] for r in range(max(map(len, chains)))]
        assert [_keys(lams) for lams in det_calls] == [_keys(lams) for lams in rounds]
        assert len(evaluated) == sum(map(len, chains))


def _plain(chain, evaluate):
    """Drive a Newton chain one lambda at a time, with no memo: every lambda
    evaluated when asked for, in a call of its own.  The values refinement
    had before it reused values."""
    reply = None
    while True:
        try:
            lam = chain.send(reply)
        except StopIteration as stop:
            return stop.value
        (reply,) = evaluate(np.array([lam]), True)


def _plain_refine(problem, target, tol, max_iter, step):
    """refine_root of one target with no memo: each Newton point from the
    target's start evaluated in a call of its own."""
    seed, axis = spectrum._seed(target)
    return _plain(spectrum._newton(seed, tol, max_iter, axis),
                  lambda lams, newton: spectrum._newton_values(problem, lams, step))


def _keys(lams):
    return [np.complex128(z).tobytes() for z in np.atleast_1d(lams).tolist()]


#: determinant calls of solve_spectrum at SCAN_DEFAULTS, step 1e-3: the scan
#: and at most 2 Newton rounds (1 on the undamped models), the same on both
#: paths since real_split filters the complex solve.  In comments the calls
#: from the false-position starts of Re D, then before values were reused
SOLVE_CALLS = {
    ("cable_snapshot", "complex"): 2,  # 5, 9
    ("cable_snapshot", "real_split"): 2,  # 5, 5
    ("fixed_fixed_string", "complex"): 2,  # 4, 8
    ("fixed_fixed_string", "real_split"): 2,  # 4, 5
    ("fixed_free_string", "complex"): 2,  # 4, 8
    ("fixed_free_string", "real_split"): 2,  # 4, 5
    ("machine_unit", "complex"): 3,  # 11, 17
    ("machine_unit", "real_split"): 3,  # 11, 7
    ("pipeline", "complex"): 3,  # 11, 17
    ("pipeline", "real_split"): 3,  # 11, 8
    ("point_mass_string", "complex"): 2,  # 5, 9
    ("point_mass_string", "real_split"): 2,  # 5, 5
    ("spacecraft_bar", "complex"): 3,  # 17, 25
    ("spacecraft_bar", "real_split"): 3,  # 17, 12
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

    @pytest.mark.parametrize("d", np.linspace(0.0, 0.2, 5).tolist())
    def test_benchmark_sweep_point_refines_in_one_call(self, d, det_calls):
        # spacecraft_bar's benchmark sweep, d:0:0.2:5 on 0.3:2.0:50: the scan
        # and one Newton round, where the false-position starts took 4
        solve_spectrum(build_model("spacecraft_bar", d=d), SolveOptions(scan=(0.3, 2.0, 50), step=1e-3))
        assert len(det_calls) == 2

    def test_refine_root_evaluates_at_its_own_step(self, fixed_free_string, det_calls):
        # brackets from a coarse scan, refined at a finer step: every value
        # refinement uses is one of the finer step, from the bracket's start
        # on; no bracket end is evaluated
        bracket = next(b for b in scan_real_axis(fixed_free_string, 0.2, 10.0, 240, 4e-3)
                       if b.kind == "sign_change")
        del det_calls[:]
        res = refine_root(fixed_free_string, bracket, step=1e-3)
        evaluated = [key for lam in det_calls for key in _keys(lam)]
        assert _keys([bracket.start]) == evaluated[:1]
        assert not set(_keys([1j * bracket.p_lo, 1j * bracket.p_hi])) & set(evaluated)
        plain = _plain_refine(fixed_free_string, bracket, 1e-10, 100, 1e-3)
        assert _fields([res]) == _fields([plain])

    @pytest.mark.parametrize("name, params, options", PARITY_CASES)
    def test_results_equal_evaluating_every_request(self, name, params, options):
        problem = build_model(name, **params)
        step = spectrum.resolve_step(problem, options)
        targets = _targets(problem, options, step)
        plain = [_plain_refine(problem, t, options.tol, options.max_iter, step) for t in targets]
        starts = _starts(problem, options, step)
        lockstep, _ = spectrum._refine_all(problem, starts, options.tol, options.max_iter, step)
        assert _fields(lockstep) == _fields(plain)
        assert all(type(r.lam) is type(p.lam) for r, p in zip(lockstep, plain))
        assert _fields(solve_spectrum(problem, options)) == _fields(_reported(plain, options))

    def test_accepted_step_takes_one_call(self, monkeypatch):
        # a linear D: the first Newton step lands on the root.  Seed, pair,
        # step was three calls, then two of three lambdas each; the step's
        # derivative now comes with its point
        calls = []
        linear = _analytic(lambda lam: lam - complex(-0.1, 1.5), lambda lam: np.ones(lam.shape))

        def recording(lams, newton):
            calls.append(lams)
            return linear(lams, newton)

        res = _refined(monkeypatch, 1.4j, recording)
        assert res.converged and abs(res.lam - complex(-0.1, 1.5)) <= 1e-12
        assert [np.size(lam) for lam in calls] == [1, 1]

    @pytest.mark.parametrize("offset, tol, calls", [(1e-14, 1e-10, 1), (1e-12, 1e-10, 2), (1e-14, 1e-15, 2)],
                             ids=["rounding", "above_rounding", "above_tol"])
    def test_rounding_level_correction_ends_the_chain(self, offset, tol, calls, monkeypatch):
        # a linear D with its root offset from the seed: a correction of at
        # most min(tol, 1e-13 max(|lambda|, 1)) ends the chain at the seed,
        # with its own |D| and no iteration, and lambda + s is not evaluated
        root = complex(-0.1, 1.5)
        seen = []
        linear = _analytic(lambda lam: lam - root, lambda lam: np.ones(lam.shape))

        def recording(lams, newton):
            seen.append(lams.tolist())
            return linear(lams, newton)

        seed = root + offset
        res = _refined(monkeypatch, seed, recording, tol=tol)
        assert res.converged and res.message == "" and len(seen) == calls
        if calls == 1:
            assert (res.lam, res.residual, res.iterations) == (seed, abs(seed - root), 0)
        else:
            assert res.iterations == 1 and abs(res.lam - root) <= 1e-15

    def test_halved_retries_carry_no_pair(self, monkeypatch):
        # Newton on arctan(lambda - r) overshoots from 2 away: its full steps
        # are halved.  Every point, halved or not, is one lambda alone
        arctan = _analytic(lambda lam: np.arctan(lam - 1j), lambda lam: 1 / (1 + (lam - 1j) ** 2))
        calls = []

        def recording(lams, newton):
            calls.append(np.size(lams))
            return arctan(lams, newton)

        seed = complex(2.0, 1.0)
        want = _plain(spectrum._newton(seed, 1e-10, 100), arctan)
        res = _refined(monkeypatch, seed, recording)
        assert res.converged and _fields([res]) == _fields([want])
        assert res.iterations < len(calls) and set(calls) == {1}

    def test_far_step_carries_no_pair(self, monkeypatch):
        # a linear D whose root lies 100 away from a seed of size 1: the
        # step is cut to ten times the seed's size, and taken alone
        calls = []
        linear = _analytic(lambda lam: lam - complex(100.0, 1.0), lambda lam: np.ones(lam.shape))

        def recording(lams, newton):
            calls.append(lams)
            return linear(lams, newton)

        res = _refined(monkeypatch, 1.0j, recording)
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

        return driver(spectrum._newton(seed, 1e-10, 100), recording), seen

    def _poisoned(self, monkeypatch, poison):
        """Stub evaluations of the cubic, raising at the first poisoned
        lambda of a call; returns the lambdas of every call, in order."""
        seen = []

        def check(lams):
            seen.extend(lams.tolist())
            for z in lams.tolist():
                if z in poison:
                    raise PropagationError(1, z, "stub")

        _stub_evaluations(monkeypatch, self._cubic, check)
        return seen

    def test_failing_point_is_evaluated_once_and_halved_past(self, monkeypatch):
        _, needed = self._lambdas(_plain)
        seed, point = needed[:2]  # the seed, then the first Newton point
        seen = self._poisoned(monkeypatch, {point})
        res = refine_root(_STUBBED, seed, 1e-10, 100, 1e-3)
        assert seen[:2] == [seed, point] and seen.count(point) == 1
        assert abs(seen[2] - 0.5 * (seed + point)) <= 1e-12  # the step halved
        assert res.converged

    def test_failing_seed_is_no_root(self, monkeypatch):
        # a failed lambda answers (NaN, NaN, NaN), never a value Newton accepts
        seed = complex(1.3, 1.1)
        seen = self._poisoned(monkeypatch, {seed})
        res = refine_root(_STUBBED, seed, 1e-10, 100, 1e-3)
        assert (res.converged, res.message) == (False, "determinant not finite at the seed")
        assert seen == [seed]


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
    @pytest.mark.parametrize("variational", [False, True])
    def test_sampled_stack_bit_identical(self, make, variational):
        problem = make()
        lams = 1j * np.linspace(0.2, 10.0, 6)
        u_tables, fundamentals, w, closure = _assemble(
            reduce_complex(problem, lams, variational), 2e-3, keep_samples=True
        )
        assert closure.shape[0] == len(lams) and closure.dtype == complex
        for k, z in enumerate(lams.tolist()):
            alone = _assemble(reduce_complex(problem, np.array([z]), variational), 2e-3,
                              keep_samples=True)
            assert [u[k].tobytes() for u in u_tables] == [u[0].tobytes() for u in alone[0]]
            for got, want in zip(fundamentals, alone[1], strict=True):
                assert got.end_matrix[k].tobytes() == want.end_matrix[0].tobytes()
                assert got.sample_ys.tobytes() == want.sample_ys.tobytes()
                assert got.samples[:, k].tobytes() == want.samples[:, 0].tobytes()
            assert w[k].tobytes() == alone[2][0].tobytes()
            assert closure[k].tobytes() == alone[3][0].tobytes()


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
        monkeypatch.setattr(integrate, "_STACK_ENTRIES", 2 * 4 * 1002)
        assert spectrum._stack_chunk(problem, 1e-3) == 2
        monkeypatch.setattr(integrate, "_STACK_ENTRIES", 1)
        assert spectrum._stack_chunk(problem, 1e-3) == 1

    def test_a_failing_lambda_comes_after_the_shapes_before_it(self, monkeypatch):
        # a stack holding the second root fails in integration; the first
        # shape is still yielded, then the second root's own error is raised
        problem = build_model("fixed_free_string")
        lams = [0.5j * math.pi * k for k in (1, 3, 5)]
        original = spectrum._exact_fundamental

        def failing(reduced, interval, step, keep_samples=False):
            if lams[1] in np.atleast_1d(reduced.lam).tolist():
                raise IntegrationError(interval, lams[1], "stub")
            return original(reduced, interval, step, keep_samples)

        monkeypatch.setattr(spectrum, "_exact_fundamental", failing)
        shapes = spectrum.mode_shapes(problem, lams, 1e-3)
        assert next(shapes).lam == lams[0]
        with pytest.raises(IntegrationError, match="stub") as info:
            next(shapes)
        assert info.value.lam == lams[1]

    def test_a_chunk_is_one_each_call(self, monkeypatch):
        # one pass names the second and third roots: the chunk fails once
        # and the first root goes again alone (k failures, k + 1 reductions),
        # then the second root's own error is raised after the first shape
        problem = build_model("fixed_free_string")
        lams = [0.5j * math.pi * k for k in (1, 3, 5)]
        reduce, integrate = spectrum.reduce_complex, spectrum._exact_fundamental
        stacks = []

        def counting(problem, lam, **kwargs):
            stacks.append(np.atleast_1d(lam).tolist())
            return reduce(problem, lam, **kwargs)

        def failing(reduced, interval, step, keep_samples=False):
            bad = [z for z in np.atleast_1d(reduced.lam).tolist() if z in lams[1:]]
            if bad:
                raise IntegrationError(interval, bad[0], "stub", lams=bad)
            return integrate(reduced, interval, step, keep_samples)

        monkeypatch.setattr(spectrum, "reduce_complex", counting)
        monkeypatch.setattr(spectrum, "_exact_fundamental", failing)
        shapes = spectrum.mode_shapes(problem, lams, 1e-3)
        assert next(shapes).lam == lams[0]
        with pytest.raises(IntegrationError, match="stub") as info:
            next(shapes)
        assert info.value.lam == lams[1]
        assert stacks == [lams, lams[:1]]


class TestFrozenScaleNewton:
    """Newton on the analytic closure determinant F, with F'/F from the
    variational system: damped scan brackets go straight to it and find the
    roots the real-direction step missed."""

    #: lambdas on the axis and off it, away from roots and model poles
    LAMS = [0.7j, 3.1j, complex(-0.2, 1.3), complex(-0.05, 6.4), complex(0.3, 2.2)]

    @staticmethod
    def _closure_det(problem, lam):
        closure = _assemble(reduce_complex(problem, np.array([lam])), 1e-3, keep_samples=False)[3][0]
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

    @pytest.mark.parametrize("name, real_ends, root", [
        ("spacecraft_bar", False, complex(-0.006759082590473, 0.910439132135824)),
        ("fixed_free_string", True, 1j * HALF_PI),
    ])
    def test_bracket_newton_starts_at_the_interpolated_root(self, name, real_ends, root, det_calls,
                                                           monkeypatch):
        # a bracket with a real D at both ends keeps to the axis, a damped
        # one does not; either starts nearer its root than the false-position
        # point of its ends, and refine_root evaluates nothing before Newton
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
        assert det_calls == []
        assert newtons == [(bracket.start, real_ends)]
        # the module's own name: evaluated here, not recorded
        d_lo, d_hi = (characteristic_determinant(prob, 1j * p, 1e-3) for p in (bracket.p_lo, bracket.p_hi))
        assert (d_lo.imag == 0.0 and d_hi.imag == 0.0) is real_ends
        lo, hi = bracket.p_lo, bracket.p_hi
        false_position = 1j * (hi - d_hi.real * (hi - lo) / (d_hi.real - d_lo.real))
        assert abs(bracket.start - root) <= 1e-6 * abs(false_position - root)
        assert (bracket.start.real == 0.0) is real_ends

    def test_minimum_bracket_evaluates_no_end(self, fixed_free_string, det_calls):
        bracket = Bracket(1.5, 1.6, "minimum", 1.55)
        assert refine_root(fixed_free_string, bracket, step=1e-3).converged
        assert _keys(det_calls[0]) == _keys([1j * bracket.p_seed])

    @pytest.mark.parametrize(
        "bracket",
        [Bracket(1.5, 1.6, "minimum", 1.55), Bracket(1.0, 1.2, "sign_change", 1.1),
         Bracket(1.5, 1.6, "sign_change", 1.55)],
        ids=["minimum", "ends_share_a_sign", "sign_change"],
    )
    def test_brackets_without_a_start_start_newton_at_their_seed(self, fixed_free_string, bracket,
                                                                 det_calls, monkeypatch):
        # off the axis switch, and no bracket end is evaluated
        newtons = []

        def recording_newton(seed, tol, max_iter, axis=False):
            newtons.append((seed, axis))
            return spectrum.SpectralResult(seed, 0.0, 0, False)
            yield

        monkeypatch.setattr(spectrum, "_newton", recording_newton)
        refine_root(fixed_free_string, bracket, step=1e-3)
        assert det_calls == []
        assert newtons == [(1j * bracket.p_seed, False)]

    @pytest.mark.parametrize(
        "name, rounds", [("fixed_free_string", [3]), ("machine_unit", [4, 4])]
    )
    def test_each_round_evaluates_one_lambda_per_live_candidate(self, name, rounds, det_calls):
        # at HEAD of the difference stencils the refinement took 27 lambdas
        # in 3 calls (fixed_free_string) and 57 in 5 (machine_unit); from the
        # false-position points of Re D it took [3, 3, 2] and [4, 4, 4, 4, 3]
        problem = build_model(name)
        brackets = scan_real_axis(problem, *SCAN_DEFAULTS[name], step=1e-3)
        del det_calls[:]
        solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3))
        assert [np.size(lams) for lams in det_calls[1:]] == rounds
        assert rounds[0] == len(brackets)

    def test_y_polynomial_evaluations_per_chunk(self):
        # a y-varying interval evaluates each of A, B, C once on the RK4
        # nodes and once on the midpoints of a y-block, for the whole stack:
        # a 240-lambda scan (one pass, 4 blocks of up to 256 steps) makes 24
        # polynomial calls, not one per node
        problem = _y_varying_lambda_problem()
        sizes = []

        class Counting(PolyMatrix):
            def __call__(self, x):
                sizes.append(np.size(x))
                return super().__call__(x)

        field = problem.coefficients
        counted = dataclasses.replace(field, **{
            name: tuple(Counting(p.coeffs) for p in getattr(field, name))
            for name in ("a_polys", "b_polys", "c_polys")
        })
        problem = dataclasses.replace(problem, coefficients=counted)
        assert not problem.violations  # validated once, before the count
        del sizes[:]
        characteristic_determinant(problem, 1j * np.linspace(0.2, 10.0, 240), 1e-3)
        assert sizes == ([257] * 3 + [256] * 3) * 3 + [233] * 3 + [232] * 3
        del sizes[:]
        spectrum._newton_values(problem, np.array([1.5j, 4.7j, -0.1 + 7.8j]), 1e-3)
        assert sizes == [1001] * 3 + [1000] * 3

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

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_log_derivative_matches_a_difference_of_log_f(self, name):
        # log F(lambda + h) - log F(lambda - h) over 2h, h = 1e-6 max(|lambda|,
        # 1), whose own error is below 2e-9 here
        problem = build_model(name)
        lams = self.LAMS[2:]
        for lam, (_, _, ratio) in zip(lams, spectrum._newton_values(problem, np.array(lams), 1e-3)):
            h = 1e-6 * max(abs(lam), 1.0)
            f_up, f_down = (self._closure_det(problem, lam + d) for d in (h, -h))
            assert abs(np.log(f_up / f_down) / (2 * h) - ratio) <= 1e-7 * abs(ratio)


class TestExactIntervals:
    """Every interval of the built-ins is constant with N = 2, so it takes the
    closed-form transfer matrix: no root carries step error."""

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_roots_do_not_depend_on_the_step(self, name):
        problem = build_model(name)
        coarse, fine = (solve_spectrum(problem, SolveOptions(scan=SCAN_DEFAULTS[name], step=h))
                        for h in (1e-2, 1e-3))
        assert len(fine) >= 3
        assert _fields(coarse) == _fields(fine)

    @pytest.mark.parametrize("name", ["fixed_fixed_string", "fixed_free_string", "point_mass_string"])
    def test_string_roots_are_their_closed_form_roots(self, name):
        # RK4 at step 1e-3 was 1.7e-11 to 6.6e-11 relative off
        p_min, p_max, _ = SCAN_DEFAULTS[name]
        roots = solve_spectrum(build_model(name), SolveOptions(scan=SCAN_DEFAULTS[name], step=1e-3))
        want = closed_form_roots(ORACLE_ROUTES[name], p_min, p_max)
        assert len(roots) == len(want) >= 3
        for r, p in zip(roots, want):
            assert r.lam.real == 0.0
            assert abs(r.lam.imag - p) <= 1e-12 * p

    @pytest.mark.parametrize(
        "make, rk4_intervals",
        [*((functools.partial(build_model, name), []) for name in sorted(SCAN_DEFAULTS)),
         (_y_varying_problem, [1]), (lambda: _n4_problem(), [0])],
        ids=[*sorted(SCAN_DEFAULTS), "y_varying", "n4"],
    )
    def test_rk4_integrates_only_y_varying_or_n4_intervals(self, make, rk4_intervals, monkeypatch):
        # on the scan's, Newton's and the mode shapes' propagation
        calls = []
        original = spectrum.integrate_fundamental

        def counting(system, interval, step, keep_samples=False):
            calls.append(interval)
            return original(system, interval, step, keep_samples)

        monkeypatch.setattr(spectrum, "integrate_fundamental", counting)
        problem = make()
        lams = np.array([1.3j, -0.1 + 2.2j])
        characteristic_determinant(problem, lams, 1e-2)
        spectrum._newton_values(problem, lams, 1e-2)
        _assemble(reduce_complex(problem, lams), 1e-2, keep_samples=True)
        assert calls == rk4_intervals * 3



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
    replace for N = 2, m = 1: linalg.adjugate_table for a lambda-dependent
    left row, slogdet for the normalization."""
    closed = spectrum._initial_table

    def table(matrix, lam):
        # rows that lose rank at some lambda raise by _initial_table's own check
        general = adjugate_table(matrix)[1]
        return closed(matrix, lam) if general is None else general

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
        (PolyMatrix.constant(a),), (PolyMatrix.constant(b),), (PolyMatrix.zero(4, 4),), 1.0
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
        # ordinary value, as one stack
        closure = np.array([[[2.0 + 1j]], [[0j]], [[1e300 - 1e300j]], [[3.0 - 4j]]])
        w = np.array([[[0j], [0j]], [[1.0], [2j]], [[1e-300], [0j]], [[0.5], [-2.0]]])
        closed = spectrum._normalized_det(closure, w)
        general = spectrum._log_normalized_det(closure, w)
        assert closed[0] == general[0] == 0 and closed[1] == general[1] == 0
        np.testing.assert_allclose(closed[2:], general[2:], rtol=1e-14)
        assert abs(closed[2]) == pytest.approx(math.exp(700.0), rel=1e-14)

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_one_lambda_is_its_length_one_stack(self, name):
        # lambda = 0 too, and -100, the Kelvin-Voigt pole of the damped
        # built-ins: the same bytes, or the same error and message
        problem = build_model(name)
        damped = name in ("machine_unit", "pipeline", "spacecraft_bar")

        def outcome(lam):
            try:
                return characteristic_determinant(problem, lam, 1e-3)
            except SolverError as exc:
                return exc

        for lam in [*self.LAMS.tolist(), 0j] + [-100 + 0j] * damped:
            one, stack = outcome(lam), outcome(np.array([lam]))
            if isinstance(one, SolverError):
                assert (type(one), str(one)) == (type(stack), str(stack))
            else:
                assert type(one) is complex and np.array([one]).tobytes() == stack.tobytes()
        assert isinstance(one, PoleError) == damped

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
        monkeypatch.setattr(linalg, "adjugate_form", lambda *a: calls.append(1) or adjugate_form(*a))
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
        reduce_complex(problem, np.array([lam])), step, keep_samples=True
    )
    det = spectrum._normalized_det(closure, w)[0]
    c = spectrum._null_vector(closure[0], det, lam, spectrum._RANK_TOL)
    c = c * np.conj(c[0])
    phi = np.concatenate(
        [np.einsum("skj,k->sj", fm.samples[:, 0], u[0] @ c) for u, fm in zip(u_tables, fundamentals)]
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

    def test_null_vector_of_an_m2_closure_is_a_unit_singular_vector(self):
        # at the m = 2 problem's roots, and on a closure of exact rank 1,
        # whose C^H C is exactly singular
        problem = _n4_problem()
        roots = solve_spectrum(problem, SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        lams = np.array([r.lam for r in roots])
        _, _, w, closures = _assemble(reduce_complex(problem, lams), 1e-3, keep_samples=True)
        cases = list(zip(closures, spectrum._normalized_det(closures, w), lams.tolist()))
        cases.append((np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex), 0j, 1j))
        assert len(cases) >= 4
        for closure, det, lam in cases:
            v = spectrum._null_vector(closure, det, lam, spectrum._RANK_TOL)
            smax = np.linalg.svd(closure, compute_uv=False)[0]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
            assert np.linalg.norm(closure @ v) <= spectrum._RANK_TOL * max(smax, 1.0)

    def test_null_vector_takes_an_svd_only_where_it_is_used(self, monkeypatch):
        # an m = 1 closure gives ones with no SVD; a closure that is not a
        # root carries the smallest singular value of numpy's full SVD, bit
        # for bit, not |c| (on numpy 2.4.6 with OpenBLAS 0.3.31 the two
        # differ in the last bit in about 4 of 10 such 1 x 1 closures)
        rng = np.random.default_rng(46)
        scale = 10.0 ** rng.uniform(-8, 3, (300, 1, 1))
        ones = scale * (rng.standard_normal((300, 1, 1)) + 1j * rng.standard_normal((300, 1, 1)))
        twos = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        svd = np.linalg.svd
        for closures in (ones, twos):
            for closure in closures:
                with pytest.raises(NotARootError) as info:
                    spectrum._null_vector(closure, 1.0, 1j, spectrum._RANK_TOL)
                assert info.value.smallest_singular == float(svd(closure)[1][-1])

        def lapack(*args, **kwargs):
            raise AssertionError("SVD called")

        monkeypatch.setattr(np.linalg, "svd", lapack)
        for closure in ones[:10]:
            c = spectrum._null_vector(closure, 1e-9, 1j, spectrum._RANK_TOL)
            assert c.dtype == complex and c.tolist() == [1]

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
