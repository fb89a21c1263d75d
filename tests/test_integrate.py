"""Fundamental matrices: the closed form of constant N = 2 intervals, and RK4
integration: exactness, order, step estimation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    IntegrationError,
    Partition,
    PolyMatrix,
    ProblemDefinition,
    estimate_step,
    integrate_fundamental,
    reduce_complex,
    reduce_real_split,
)
from oscispec.integrate import (
    _chain_product,
    _constant_power,
    _exact_fundamental,
    _rk4_steps,
    _sampled_prefixes,
)
from oscispec.models import SCAN_DEFAULTS, build_model

from conftest import identity_conjugation, make_string_problem


def _system_from_matrix(a, lam=0.0, bound=None, breakpoints=(0.0, 1.0)):
    """Reduced system whose coefficient matrix is the constant a (via A-field)."""
    return reduce_complex(_problem_from_matrix(a, bound, breakpoints), np.array([lam]))


def _problem_from_matrix(a, bound=None, breakpoints=(0.0, 1.0)):
    """Problem whose coefficient matrix is the constant a (via A-field)."""
    a = np.asarray(a, dtype=float)
    part = Partition(breakpoints)
    n = part.n_intervals
    dim = a.shape[0]
    if dim % 2:  # pad odd test matrices into an even-dimension field
        raise ValueError("use even dimension")
    field = CoefficientField(
        (PolyMatrix.constant(a),) * n,
        (PolyMatrix.zero(dim, dim),) * n,
        (PolyMatrix.zero(dim, dim),) * n,
        bound if bound is not None else max(1.0, float(np.max(np.abs(a)))),
    )
    m = dim // 2
    left = BoundaryOperator("left", PolyMatrix.constant(np.eye(dim)[:m]))
    right = BoundaryOperator("right", PolyMatrix.constant(np.eye(dim)[m:]))
    conjs = tuple(identity_conjugation(i + 1, dim) for i in range(n - 1))
    return ProblemDefinition("test", part, field, left, right, conjs)


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestEndMatrices:
    def test_zero_dynamics_identity(self):
        sys0 = _system_from_matrix(np.zeros((2, 2)))
        fm = integrate_fundamental(sys0, 0, step=0.1)
        np.testing.assert_array_equal(fm.end_matrix[0], np.eye(2))

    def test_nilpotent_closed_form(self):
        sysn = _system_from_matrix([[0.0, 1.0], [0.0, 0.0]])
        fm = integrate_fundamental(sysn, 0, step=1e-3)
        np.testing.assert_allclose(fm.end_matrix[0], [[1.0, 0.0], [1.0, 1.0]], atol=1e-13)

    def test_rotation_closed_form(self):
        sysr = _system_from_matrix(ROTATION)
        fm = integrate_fundamental(sysr, 0, step=1e-3)
        expected = np.array(
            [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]
        )
        np.testing.assert_allclose(fm.end_matrix[0], expected, atol=1e-10)

    def test_identity_sample_is_exact(self):
        sysr = _system_from_matrix(ROTATION)
        fm = integrate_fundamental(sysr, 0, step=0.01, keep_samples=True)
        assert np.array_equal(fm.samples[0, 0], np.eye(2, dtype=complex))
        assert fm.sample_ys[0] == 0.0 and fm.sample_ys[-1] == 1.0

    def test_step_rounding_divides_interval(self):
        sysr = _system_from_matrix(ROTATION)
        fm = integrate_fundamental(sysr, 0, step=0.3)
        assert fm.step == pytest.approx(0.25)

    # 1e80 overflows within the single step; 1e4 at step 0.01 keeps each
    # step matrix finite (about 4.4e6) and overflows only in their product
    @pytest.mark.parametrize("keep_samples", [False, True], ids=["end", "samples"])
    @pytest.mark.parametrize(
        "scale, step", [(1e80, 1.0), (1e4, 0.01)], ids=["one_step", "many_steps"]
    )
    def test_overflow_raises(self, scale, step, keep_samples):
        huge = _system_from_matrix([[scale, 0.0], [0.0, 0.0]], bound=scale)
        with pytest.raises(IntegrationError, match="interval 0"):
            integrate_fundamental(huge, 0, step=step, keep_samples=keep_samples)

    def test_step_with_no_finite_count_is_a_value_error(self):
        # length / 1e-320 is infinite, so no integer count exists; the
        # closed form forms no count without samples
        sysr = _system_from_matrix(ROTATION)
        for propagate, keep_samples in ((integrate_fundamental, False), (_exact_fundamental, True)):
            with pytest.raises(ValueError, match="gives no finite step count"):
                propagate(sysr, 0, 1e-320, keep_samples=keep_samples)
        assert np.isfinite(_exact_fundamental(sysr, 0, 1e-320).end_matrix).all()

    def test_samples_match_endpoint_path(self):
        sysr = _system_from_matrix(ROTATION)
        a = integrate_fundamental(sysr, 0, step=1e-2, keep_samples=True)
        b = integrate_fundamental(sysr, 0, step=1e-2, keep_samples=False)
        np.testing.assert_allclose(a.end_matrix, b.end_matrix, rtol=1e-12, atol=1e-14)


class TestConstantFastPath:
    """Constant intervals take one step matrix and O(log n) products."""

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_power_matches_chain_product(self, dtype):
        rng = np.random.default_rng(7)
        mat = np.eye(3) + 1e-3 * rng.standard_normal((3, 3))
        if dtype is complex:
            mat = mat + 1e-3j * rng.standard_normal((3, 3))
        for n in [*range(1, 71), 1000, 1023, 1024, 1025]:
            expected = _chain_product(np.broadcast_to(mat, (n, 3, 3)))
            assert np.array_equal(_constant_power(mat, n), expected), n

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    @pytest.mark.parametrize("path", ["complex", "real_split"])
    @pytest.mark.parametrize("keep_samples", [False, True])
    def test_bit_identical_to_general_path(self, name, path, keep_samples):
        p_min, p_max, _ = SCAN_DEFAULTS[name]
        p = 0.37 * p_min + 0.63 * p_max
        problem = build_model(name)
        if path == "complex":
            reduced = reduce_complex(problem, np.array([complex(-0.05, p)]))
        else:
            reduced = reduce_real_split(problem, np.array([p]))
        n = reduced.partition.n_intervals
        assert all(c is not None for c in reduced.constant_coeffs)
        general = dataclasses.replace(reduced, constant_coeffs=(None,) * n)
        for i in range(n):
            fast = integrate_fundamental(reduced, i, 3e-3, keep_samples=keep_samples)
            ref = integrate_fundamental(general, i, 3e-3, keep_samples=keep_samples)
            assert np.array_equal(fast.end_matrix, ref.end_matrix)
            if keep_samples:
                assert np.array_equal(fast.samples, ref.samples)
                assert np.array_equal(fast.sample_ys, ref.sample_ys)


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _complex_system(rng, varying):
    """A one-interval complex system with random A(y) = A0 (+ y A1)."""
    base = _system_from_matrix(np.zeros((2, 2)))
    a0 = _random_complex(rng, (2, 2))
    if varying:
        a1 = _random_complex(rng, (2, 2))
        return dataclasses.replace(
            base,
            varying=lambda i, ys: a0 + ys[:, np.newaxis, np.newaxis] * a1,
            constant_coeffs=(None,),
        )
    return dataclasses.replace(
        base,
        varying=lambda i, ys: np.broadcast_to(a0, (len(ys), 2, 2)),
        constant_coeffs=(a0,),
    )


class TestRealArithmetic:
    """Complex systems are propagated as realified 2N x 2N real matrices."""

    @pytest.mark.parametrize("varying", [False, True], ids=["constant", "y_varying"])
    def test_matches_complex_sequential_product(self, varying):
        system = _complex_system(np.random.default_rng(11), varying)
        n, h = 100, 0.01
        fm = integrate_fundamental(system, 0, h, keep_samples=True)
        end = integrate_fundamental(system, 0, h).end_matrix
        assert fm.samples.dtype == end.dtype == complex
        ys = h * np.arange(n + 1)
        a_nodes = system.varying(0, ys)
        steps = _rk4_steps(a_nodes[:-1], system.varying(0, ys[:-1] + 0.5 * h), a_nodes[1:], h)
        transfer = np.eye(2, dtype=complex)
        want = [transfer.T]
        for s in steps:
            transfer = s @ transfer
            want.append(transfer.T)
        np.testing.assert_allclose(fm.samples, np.array(want), rtol=1e-12)
        np.testing.assert_allclose(end, want[-1], rtol=1e-12)
        np.testing.assert_allclose(fm.end_matrix, want[-1], rtol=1e-12)

    @pytest.mark.parametrize("keep_samples", [False, True])
    def test_complex_path_is_the_real_split_propagation(self, keep_samples):
        # on the imaginary axis the real-split coefficients are the realified
        # complex ones, so both paths run the very same real products
        problem = build_model("spacecraft_bar")
        p = 1.3
        cplx = integrate_fundamental(reduce_complex(problem, np.array([1j * p])), 0, 3e-3, keep_samples)
        split = integrate_fundamental(reduce_real_split(problem, np.array([p])), 0, 3e-3, keep_samples)
        n = problem.dim
        assert np.array_equal(cplx.end_matrix.real, split.end_matrix[..., :n, :n])
        assert np.array_equal(cplx.end_matrix.imag, split.end_matrix[..., :n, n:])
        if keep_samples:
            assert np.array_equal(cplx.samples.real, split.samples[..., :n, :n])
            assert np.array_equal(cplx.samples.imag, split.samples[..., :n, n:])

    @pytest.mark.parametrize("name", ["spacecraft_bar", "cable_snapshot"])
    @pytest.mark.parametrize("general", [False, True], ids=["constant", "general"])
    def test_stack_samples_equal_one_lambda_at_a_time(self, name, general):
        problem = build_model(name)
        lams = np.array([0.4j, -0.05 + 1.7j, -0.3 + 6.2j])
        stacked = reduce_complex(problem, lams)
        singles = [reduce_complex(problem, np.array([z])) for z in lams.tolist()]
        if general:
            n = problem.partition.n_intervals
            stacked = dataclasses.replace(stacked, constant_coeffs=(None,) * n)
            singles = [dataclasses.replace(s, constant_coeffs=(None,) * n) for s in singles]
        for i in range(problem.partition.n_intervals):
            fm = integrate_fundamental(stacked, i, 3e-3, keep_samples=True)
            for k, single in enumerate(singles):
                one = integrate_fundamental(single, i, 3e-3, keep_samples=True)
                assert fm.samples[:, k].tobytes() == one.samples[:, 0].tobytes()
                assert fm.end_matrix[k].tobytes() == one.end_matrix[0].tobytes()


BLOCK_EDGES = [1, 2, 3, 15, 16, 17, 1000, 1023, 1024, 1025]


class TestSampledPrefixes:
    """Sampled transfer matrices come from blocked prefix products."""

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_matches_sequential_loop(self, n):
        rng = np.random.default_rng(n)
        steps = np.eye(4) + 1e-3 * rng.standard_normal((n, 3, 4, 4))
        got = _sampled_prefixes(steps.copy(), n)
        transfer = np.broadcast_to(np.eye(4), (3, 4, 4))
        assert np.array_equal(got[0], transfer)
        for j in range(n):
            transfer = steps[j] @ transfer
            np.testing.assert_allclose(got[j + 1], transfer, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_constant_bit_identical_to_general(self, n):
        rng = np.random.default_rng(n)
        step = np.eye(4) + 1e-3 * rng.standard_normal((2, 4, 4))
        general = _sampled_prefixes(np.repeat(step[np.newaxis], n, axis=0), n)
        assert _sampled_prefixes(step[np.newaxis], n).tobytes() == general.tobytes()


class TestSemigroup:
    def test_split_composition(self):
        whole = _system_from_matrix(ROTATION)
        split = _system_from_matrix(ROTATION, breakpoints=(0.0, 0.37, 1.0))
        h = 1e-3
        g_whole = integrate_fundamental(whole, 0, h).end_matrix
        g_left = integrate_fundamental(split, 0, h).end_matrix
        g_right = integrate_fundamental(split, 1, h).end_matrix
        np.testing.assert_allclose(g_left @ g_right, g_whole, atol=10 * h**4)


class TestConvergenceOrder:
    def test_rk4_order_against_richardson(self):
        sysr = _system_from_matrix(ROTATION)
        hs = [0.04, 0.02, 0.01, 0.005]
        mats = [integrate_fundamental(sysr, 0, h).end_matrix for h in hs]
        richardson = mats[-1] + (mats[-1] - mats[-2]) / 15.0
        errors = [np.max(np.abs(m - richardson)) for m in mats[:-1]]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0


class TestEstimateStep:
    def test_reference_value(self):
        prob = _problem_from_matrix(ROTATION, bound=1.0)
        h = estimate_step(prob, 0.0, 1e-8)
        assert h == pytest.approx((1e-8 / 10.0) ** 0.25, rel=1e-12)
        assert h == pytest.approx(0.0056, abs=3e-4)

    def test_scale_multiplies_the_bound_by_one_plus_r_plus_r_squared(self):
        prob = _problem_from_matrix(ROTATION, bound=1.0)
        assert estimate_step(prob, 2.0, 1e-8) == (1e-8 / (10.0 * 7.0**5)) ** 0.25

    def test_quarter_power_scaling(self):
        prob = _problem_from_matrix(ROTATION, bound=1.0)
        h1 = estimate_step(prob, 0.0, 1e-8)
        h2 = estimate_step(prob, 0.0, 0.5e-8)
        assert h1 / h2 == pytest.approx(2.0**0.25, rel=1e-12)

    def test_zero_bound_clamps_high(self):
        prob = _problem_from_matrix(np.zeros((2, 2)), bound=0.0)
        assert estimate_step(prob, 0.0, 1e-8) == pytest.approx(1.0 / 16.0)

    def test_low_clamp(self):
        stiff = _problem_from_matrix(ROTATION, bound=1e9)
        assert estimate_step(stiff, 0.0, 1e-12) == pytest.approx(1e-6)

    def test_rejects_bad_target(self):
        prob = _problem_from_matrix(ROTATION)
        with pytest.raises(ValueError):
            estimate_step(prob, 0.0, 0.0)

    def test_rejects_a_nan_target(self):
        prob = _problem_from_matrix(ROTATION)
        with pytest.raises(ValueError, match="target_error"):
            estimate_step(prob, 10.0, float("nan"))

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_rejects_a_nonfinite_bound(self, bound):
        prob = _problem_from_matrix(ROTATION, bound=bound)
        with pytest.raises(ValueError, match="bound"):
            estimate_step(prob, 10.0, 1e-10)

    def test_rejects_a_negative_bound(self, fixed_free_string):
        # no coefficient has a negative bound; it took the coarsest step L / 16,
        # which only bound 0, of all-zero coefficients, keeps
        field = dataclasses.replace(fixed_free_string.coefficients, bound=-1.0)
        prob = dataclasses.replace(fixed_free_string, coefficients=field)
        with pytest.raises(ValueError, match=r"bound -1\.0 is not finite and >= 0"):
            estimate_step(prob, 10.0, 1e-10)


def _interval_q(problem, lam, interval):
    """t^2 s^2 of a constant interval at lambda: its length t squared times
    s^2 = ((a00 - a11) / 2)^2 + a01 a10 of its coefficient A."""
    a = reduce_complex(problem, np.array([lam])).constant_coeffs[interval][0]
    lo, hi = problem.partition.interval(interval)
    return (hi - lo) ** 2 * ((0.5 * (a[0, 0] - a[1, 1])) ** 2 + a[0, 1] * a[1, 0])


def _lossy_string():
    """The pinned-free string on intervals 0.37 and 0.63 long, with the
    lambda-linear term C = [[-40, 0], [0, 10]] on both: A + lam C has a00 =
    -40 lam and a11 = 10 lam, so B = A - mu I has the diagonal b00 = -25 lam,
    tr A_lam is -30 and b00' = -25, and b00 / s = -+25 / sqrt(626) is near
    -+1."""
    base = make_string_problem(breakpoints=(0.0, 0.37, 1.0), conjugations=(identity_conjugation(1),))
    field = base.coefficients
    c = PolyMatrix.constant(np.array([[-40.0, 0.0], [0.0, 10.0]]))
    field = CoefficientField(field.a_polys, field.b_polys, (c, c), 40.0)
    return ProblemDefinition("lossy", base.partition, field, base.boundary_left,
                             base.boundary_right, base.conjugations)


class TestExactPropagation:
    """A constant interval of an N = 2 system takes the closed-form transfer
    matrix, and the variational system the lambda-derivative of that same
    formula."""

    #: off the axis, away from roots and model poles
    LAMS = [complex(-0.2, 1.3), complex(-0.05, 6.4), complex(0.3, 2.2)]

    @pytest.mark.parametrize("keep_samples", [False, True])
    def test_rotation_turns_by_the_interval_length(self, keep_samples):
        # z' = [[0, 1], [-1, 0]] z: the solution from e_0 is (cos y, -sin y),
        # the one from e_1 (sin y, cos y); |t^2 s^2| = t^2 takes the series
        # at every sample but the last
        fm = _exact_fundamental(_system_from_matrix(ROTATION), 0, 0.01, keep_samples)
        ys = fm.sample_ys if keep_samples else np.array([1.0])
        c, s = np.cos(ys), np.sin(ys)
        want = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        np.testing.assert_allclose(fm.samples[:, 0] if keep_samples else fm.end_matrix, want,
                                   rtol=0, atol=4e-16)
        if keep_samples:
            assert fm.sample_ys.tobytes() == integrate_fundamental(
                _system_from_matrix(ROTATION), 0, 0.01, keep_samples=True).sample_ys.tobytes()
            assert fm.end_matrix.tobytes() == fm.samples[-1].tobytes()

    @staticmethod
    def _ends(problem, lam, interval):
        """G at lambda, and the blocks G and G' of the variational end
        matrix [[G, G'], [0, G]], rows as solutions."""
        stack = np.array([lam])
        plain = _exact_fundamental(reduce_complex(problem, stack), interval, 1e-3).end_matrix[0]
        dual = _exact_fundamental(reduce_complex(problem, stack, variational=True), interval, 1e-3).end_matrix[0]
        return plain, dual[:2, :2], dual[:2, 2:]

    def _check_slope(self, problem, lam):
        # G' against a central difference of G with h = 1e-6 max(|lambda|, 1),
        # whose own error is below 1e-10 here; the variational end matrix's
        # leading block is G to rounding
        h = 1e-6 * max(abs(lam), 1.0)
        for i in range(problem.partition.n_intervals):
            g, lead, slope = self._ends(problem, lam, i)
            assert np.max(np.abs(lead - g)) <= 4e-16 * np.max(np.abs(g))
            central = (self._ends(problem, lam + h, i)[0] - self._ends(problem, lam - h, i)[0]) / (2 * h)
            scale = max(np.max(np.abs(g)), np.max(np.abs(slope)))
            assert np.max(np.abs(central - slope)) <= 1e-8 * scale

    @pytest.mark.parametrize("lam", LAMS, ids=str)
    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_slope_matches_a_central_difference(self, name, lam):
        self._check_slope(build_model(name), lam)

    def test_slope_at_the_rigid_body_root(self):
        # lambda = 0 of machine_unit: s = 0, where sinh(ts)/(ts) is 0 / 0 in
        # closed form and comes from its series
        problem = build_model("machine_unit")
        assert _interval_q(problem, 0j, 0) == 0
        self._check_slope(problem, 0j)

    @pytest.mark.parametrize("modulus", [0.98, 1.02], ids=["series", "closed_form"])
    def test_slope_on_both_sides_of_the_series_edge(self, modulus):
        problem = build_model("fixed_free_string")
        lam = modulus * complex(math.cos(2.1), math.sin(2.1))
        q = abs(_interval_q(problem, lam, 0))
        assert 0.95 < q < 1.0 if modulus < 1 else 1.0 < q < 1.05
        self._check_slope(problem, lam)

    def test_near_singular_warning_wordings(self):
        # tr A = -30, so |det G| = exp(-30) on the exact interval, below the
        # warning level whatever the step; RK4 comes within its step error
        system = _system_from_matrix([[-15.0, 0.5], [-0.5, -15.0]])

        def messages(propagate):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                propagate(system, 0, 0.01)
            return [str(w.message) for w in caught]

        exact, rk4 = messages(_exact_fundamental), messages(integrate_fundamental)
        assert exact == ["fundamental matrix nearly singular on interval 0 (|det|=9.358e-14); "
                         "the interval's solutions decay below the float range"]
        assert len(rk4) == 1 and rk4[0].endswith("; consider a smaller step")
        assert rk4[0].startswith("fundamental matrix nearly singular on interval 0 (|det|=9.3")

    #: the lossy string with |t^2 s^2| < 1 on both intervals (0.02 + 0.05j),
    #: where the diagonal entries are alpha +- beta b00, and beyond it with
    #: b00 / s near +1 (Re lam < 0) and near -1 (Re lam > 0), where they are
    #: those of e+ P+ + e- P-
    LOSSY_LAMS = [complex(0.02, 0.05), complex(-0.2, 2.0), complex(1.5, 2.0)]

    @pytest.mark.filterwarnings("ignore:fundamental matrix nearly singular:RuntimeWarning")
    @pytest.mark.parametrize("lam", LOSSY_LAMS, ids=str)
    def test_diagonal_and_trace_against_rk4_and_the_difference(self, lam):
        # G against RK4 at step 2e-5, whose own error is below 1e-10 here,
        # entry by entry; G' against a central difference of G
        problem = _lossy_string()
        series = [abs(_interval_q(problem, lam, i)) < 1 for i in range(problem.partition.n_intervals)]
        assert series == ([True, True] if abs(lam) < 1 else [False, False])
        system = reduce_complex(problem, np.array([lam]))
        for i in range(problem.partition.n_intervals):
            exact = _exact_fundamental(system, i, 1e-3).end_matrix
            rk4 = integrate_fundamental(system, i, 2e-5).end_matrix
            np.testing.assert_allclose(exact, rk4, rtol=1e-10, atol=0)
        self._check_slope(problem, lam)

    @pytest.mark.filterwarnings("ignore:fundamental matrix nearly singular:RuntimeWarning")
    def test_stiff_interval_stays_finite(self):
        # A = [[0, 1], [0, -1500]] on a unit interval: e^{t mu} = e^{-750}
        # underflows where cosh(ts) = cosh(750) overflows, yet exp(A) =
        # [[1, (1 - e^{-1500}) / 1500], [0, e^{-1500}]] is finite; RK4 at
        # step 1e-5 agrees within its step error
        system = _system_from_matrix([[0.0, 1.0], [0.0, -1500.0]])
        exact = _exact_fundamental(system, 0, 1e-3).end_matrix[0]
        np.testing.assert_allclose(exact, [[1.0, 0.0], [1.0 / 1500.0, 0.0]], rtol=4e-16, atol=0)
        rk4 = integrate_fundamental(system, 0, 1e-5).end_matrix[0]
        np.testing.assert_allclose(exact, rk4, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("a00, a11", [(-40.0, 0.0), (0.0, -40.0)])
    def test_triangular_keeps_its_small_entry(self, a00, a11):
        # exp(A) = [[e^a00, (e^a00 - e^a11) / (a00 - a11)], [0, e^a11]]: the
        # entry e^-40 = 4.2e-18 lies 18 orders below the largest and keeps
        # its digits, and so does |det| = e^-40 in the warning; RK4 at step
        # 1e-4 agrees within its step error
        system = _system_from_matrix([[a00, 1.0], [0.0, a11]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exact = _exact_fundamental(system, 0, 1e-3).end_matrix[0]
        want = [[math.exp(a00), 0.0], [(math.exp(a00) - math.exp(a11)) / (a00 - a11), math.exp(a11)]]
        np.testing.assert_allclose(exact, want, rtol=4e-16, atol=0)
        assert [str(w.message) for w in caught] == [
            "fundamental matrix nearly singular on interval 0 (|det|=4.248e-18); "
            "the interval's solutions decay below the float range"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rk4 = integrate_fundamental(system, 0, 1e-4).end_matrix[0]
        np.testing.assert_allclose(exact, rk4, rtol=1e-9, atol=0)
