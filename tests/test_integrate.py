"""Fundamental-matrix integration: exactness, order, step estimation."""

import dataclasses
import math

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
from oscispec.integrate import _chain_product, _constant_power, _rk4_steps, _sampled_prefixes
from oscispec.models import SCAN_DEFAULTS, build_model

from conftest import identity_conjugation


def _system_from_matrix(a, lam=0.0, bound=None, breakpoints=(0.0, 1.0)):
    """Reduced system whose coefficient matrix is the constant a (via A-field)."""
    a = np.asarray(a, dtype=float)
    part = Partition(breakpoints)
    n = part.n_intervals
    dim = a.shape[0]
    if dim % 2:  # pad odd test matrices into an even-dimension field
        raise ValueError("use even dimension")
    field = CoefficientField(
        part,
        (PolyMatrix.constant(a),) * n,
        (PolyMatrix.zero(dim, dim),) * n,
        (PolyMatrix.zero(dim, dim),) * n,
        bound if bound is not None else max(1.0, float(np.max(np.abs(a)))),
    )
    m = dim // 2
    left = BoundaryOperator("left", PolyMatrix.constant(np.eye(dim)[:m]))
    right = BoundaryOperator("right", PolyMatrix.constant(np.eye(dim)[m:]))
    conjs = tuple(identity_conjugation(i + 1, dim) for i in range(n - 1))
    prob = ProblemDefinition("test", part, field, left, right, conjs)
    return reduce_complex(prob, lam)


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestEndMatrices:
    def test_zero_dynamics_identity(self):
        sys0 = _system_from_matrix(np.zeros((2, 2)))
        fm = integrate_fundamental(sys0, 0, step=0.1)
        np.testing.assert_array_equal(fm.end_matrix, np.eye(2))

    def test_nilpotent_closed_form(self):
        sysn = _system_from_matrix([[0.0, 1.0], [0.0, 0.0]])
        fm = integrate_fundamental(sysn, 0, step=1e-3)
        np.testing.assert_allclose(fm.end_matrix, [[1.0, 0.0], [1.0, 1.0]], atol=1e-13)

    def test_rotation_closed_form(self):
        sysr = _system_from_matrix(ROTATION)
        fm = integrate_fundamental(sysr, 0, step=1e-3)
        expected = np.array(
            [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]
        )
        np.testing.assert_allclose(fm.end_matrix, expected, atol=1e-10)

    def test_identity_sample_is_exact(self):
        sysr = _system_from_matrix(ROTATION)
        fm = integrate_fundamental(sysr, 0, step=0.01, keep_samples=True)
        assert np.array_equal(fm.samples[0], np.eye(2, dtype=complex))
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
            reduced = reduce_complex(problem, complex(-0.05, p))
        else:
            reduced = reduce_real_split(problem, p)
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
            coeff_batch=lambda i, ys: a0 + ys[:, np.newaxis, np.newaxis] * a1,
            constant_coeffs=(None,),
        )
    return dataclasses.replace(
        base,
        coeff_batch=lambda i, ys: np.broadcast_to(a0, (len(ys), 2, 2)),
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
        a_nodes = system.coeff_batch(0, ys)
        steps = _rk4_steps(a_nodes[:-1], system.coeff_batch(0, ys[:-1] + 0.5 * h), a_nodes[1:], h)
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
        cplx = integrate_fundamental(reduce_complex(problem, 1j * p), 0, 3e-3, keep_samples)
        split = integrate_fundamental(reduce_real_split(problem, p), 0, 3e-3, keep_samples)
        n = problem.dim
        assert np.array_equal(cplx.end_matrix.real, split.end_matrix[:n, :n])
        assert np.array_equal(cplx.end_matrix.imag, split.end_matrix[:n, n:])
        if keep_samples:
            assert np.array_equal(cplx.samples.real, split.samples[..., :n, :n])
            assert np.array_equal(cplx.samples.imag, split.samples[..., :n, n:])

    @pytest.mark.parametrize("name", ["spacecraft_bar", "cable_snapshot"])
    @pytest.mark.parametrize("general", [False, True], ids=["constant", "general"])
    def test_stack_samples_equal_one_lambda_at_a_time(self, name, general):
        problem = build_model(name)
        lams = np.array([0.4j, -0.05 + 1.7j, -0.3 + 6.2j])
        stacked = reduce_complex(problem, lams)
        singles = [reduce_complex(problem, z) for z in lams.tolist()]
        if general:
            n = problem.partition.n_intervals
            stacked = dataclasses.replace(stacked, constant_coeffs=(None,) * n)
            singles = [dataclasses.replace(s, constant_coeffs=(None,) * n) for s in singles]
        for i in range(problem.partition.n_intervals):
            fm = integrate_fundamental(stacked, i, 3e-3, keep_samples=True)
            for k, single in enumerate(singles):
                one = integrate_fundamental(single, i, 3e-3, keep_samples=True)
                assert fm.samples[:, k].tobytes() == one.samples.tobytes()
                assert fm.end_matrix[k].tobytes() == one.end_matrix.tobytes()


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
        sys1 = _system_from_matrix(ROTATION, bound=1.0)
        h = estimate_step(sys1, 1e-8)
        assert h == pytest.approx((1e-8 / 10.0) ** 0.25, rel=1e-12)
        assert h == pytest.approx(0.0056, abs=3e-4)

    def test_quarter_power_scaling(self):
        sys1 = _system_from_matrix(ROTATION, bound=1.0)
        h1 = estimate_step(sys1, 1e-8)
        h2 = estimate_step(sys1, 0.5e-8)
        assert h1 / h2 == pytest.approx(2.0**0.25, rel=1e-12)

    def test_zero_bound_clamps_high(self):
        sys0 = _system_from_matrix(np.zeros((2, 2)), bound=0.0)
        assert estimate_step(sys0, 1e-8) == pytest.approx(1.0 / 16.0)

    def test_low_clamp(self):
        stiff = _system_from_matrix(ROTATION, bound=1e9)
        assert estimate_step(stiff, 1e-12) == pytest.approx(1e-6)

    def test_rejects_bad_target(self):
        sys1 = _system_from_matrix(ROTATION)
        with pytest.raises(ValueError):
            estimate_step(sys1, 0.0)
