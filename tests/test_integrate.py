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
from oscispec.integrate import _chain_product, _constant_power
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
