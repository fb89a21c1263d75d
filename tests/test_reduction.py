"""Harmonic reduction: complex path, real-split path, and their isomorphism."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    Partition,
    PolyMatrix,
    ProblemDefinition,
    reduce_complex,
    reduce_real_split,
)

from oscispec import reduction

from conftest import make_string_problem


def _constant_problem(a, b, c, bound=None):
    part = Partition((0.0, 1.0))
    dim = a.shape[0]
    field = CoefficientField(
        (PolyMatrix.constant(a),),
        (PolyMatrix.constant(b),),
        (PolyMatrix.constant(c),),
        bound if bound is not None else max(1.0, np.max(np.abs([a, b, c]))),
    )
    m = dim // 2
    left = BoundaryOperator("left", PolyMatrix.constant(np.eye(dim)[:m]))
    right = BoundaryOperator("right", PolyMatrix.constant(np.eye(dim)[m:]))
    return ProblemDefinition("const", part, field, left, right, ())


matrices2 = arrays(
    np.float64,
    (2, 2),
    elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


class TestReduceComplex:
    def test_pure_inertia_block(self):
        prob = _constant_problem(np.zeros((2, 2)), -np.eye(2), np.zeros((2, 2)))
        p = 1.7
        reduced = reduce_complex(prob, 1j * p)
        np.testing.assert_allclose(
            reduced.coefficient(0, 0.5), p * p * np.eye(2), atol=1e-15
        )

    def test_real_lambda_gives_real_values(self):
        a = np.array([[0.5, 1.0], [1.0, -0.25]])
        b = np.array([[0.1, 0.0], [0.0, 0.2]])
        prob = _constant_problem(a, b, np.zeros((2, 2)))
        reduced = reduce_complex(prob, 1.3)
        val = reduced.coefficient(0, 0.2)
        np.testing.assert_allclose(val.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(val.real, a + 1.3**2 * b, atol=1e-14)

    def test_formula_at_unit_imaginary(self):
        # A + lam^2 B + lam C with B chosen so the value at lam=i flips sign
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [-1.0, 0.0]])
        prob = _constant_problem(a, b, np.zeros((2, 2)))
        reduced = reduce_complex(prob, 1j)
        np.testing.assert_allclose(
            reduced.coefficient(0, 0.0), np.array([[0, 1], [1, 0]]), atol=1e-15
        )

    def test_boundary_evaluated_at_lambda(self):
        prob = make_string_problem()
        lam = 0.3 + 2.0j
        reduced = reduce_complex(prob, lam)
        np.testing.assert_array_equal(reduced.left_matrix, [[1.0, 0.0]])
        assert reduced.dim == 2 and reduced.lam == lam

    @given(a=matrices2, alpha=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_a(self, a, alpha):
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        lam = 0.4 + 1.1j
        base = reduce_complex(_constant_problem(a, b, np.zeros((2, 2))), lam)
        scaled = reduce_complex(_constant_problem(alpha * a, b, np.zeros((2, 2))), lam)
        contribution = base.coefficient(0, 0.5) - lam**2 * b
        np.testing.assert_allclose(
            scaled.coefficient(0, 0.5) - lam**2 * b,
            alpha * contribution,
            rtol=1e-12,
            atol=1e-12,
        )

    @given(a=matrices2, b=matrices2, c=matrices2)
    @settings(max_examples=20, deadline=None)
    def test_conjugate_symmetry(self, a, b, c):
        prob = _constant_problem(a, b, c)
        lam = 0.7 + 1.9j
        v1 = reduce_complex(prob, lam).coefficient(0, 0.5)
        v2 = reduce_complex(prob, np.conj(lam)).coefficient(0, 0.5)
        np.testing.assert_allclose(v2, np.conj(v1), rtol=1e-14, atol=1e-14)


class TestReduceRealSplit:
    def test_no_velocity_terms_decouples(self):
        a = np.array([[0.0, 1.0], [0.3, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        prob = _constant_problem(a, b, np.zeros((2, 2)))
        p = 2.1
        val = reduce_real_split(prob, p).coefficient(0, 0.5)
        block = a - p * p * b
        np.testing.assert_allclose(val[:2, :2], block, atol=1e-15)
        np.testing.assert_allclose(val[2:, 2:], block, atol=1e-15)
        np.testing.assert_allclose(val[:2, 2:], 0.0, atol=1e-15)
        np.testing.assert_allclose(val[2:, :2], 0.0, atol=1e-15)

    def test_zero_frequency(self):
        a = np.array([[0.1, 1.0], [-0.4, 0.2]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        c = np.array([[0.0, 0.0], [0.5, 0.0]])
        prob = _constant_problem(a, b, c)
        val = reduce_real_split(prob, 0.0).coefficient(0, 0.5)
        np.testing.assert_allclose(val[:2, :2], a, atol=1e-15)
        np.testing.assert_allclose(val[2:, 2:], a, atol=1e-15)
        np.testing.assert_allclose(val[:2, 2:], 0.0, atol=1e-15)

    def test_sign_convention_of_velocity_blocks(self):
        c = np.array([[0.0, 0.0], [0.6, 0.0]])
        prob = _constant_problem(np.zeros((2, 2)), np.zeros((2, 2)), c)
        p = 1.5
        val = reduce_real_split(prob, p).coefficient(0, 0.5)
        np.testing.assert_allclose(val[:2, 2:], -p * c, atol=1e-15)
        np.testing.assert_allclose(val[2:, :2], p * c, atol=1e-15)

    @given(
        a=st.tuples(matrices2, matrices2),
        b=st.tuples(matrices2, matrices2),
        c=st.tuples(matrices2, matrices2),
        p=st.floats(0.0, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_isomorphism_with_complex_path(self, a, b, c, p):
        # complex A, B, C: the real-split system is the realified complex one
        prob = _constant_problem(*(re + 1j * im for re, im in (a, b, c)))
        mc = reduce_complex(prob, 1j * p).coefficient(0, 0.5)
        mr = reduce_real_split(prob, p).coefficient(0, 0.5)
        expected = np.block(
            [[mc.real, -mc.imag], [mc.imag, mc.real]]
        )
        np.testing.assert_allclose(mr, expected, rtol=1e-13, atol=1e-13)

    def test_boundary_rows_doubled(self):
        prob = make_string_problem()
        reduced = reduce_real_split(prob, 1.0)
        assert reduced.left_matrix.shape == (2, 4)
        np.testing.assert_array_equal(
            reduced.left_matrix, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        )

    def test_rejects_interior_evaluation_mismatch(self):
        prob = make_string_problem()
        reduced = reduce_real_split(prob, 1.3)
        v1 = reduced.coefficient(0, 0.25)
        v2 = reduced.coefficient(0, 0.25)
        np.testing.assert_array_equal(v1, v2)


class TestConstantCoeffs:
    def test_polynomial_field_marks_y_dependent_intervals(self):
        part = Partition((0.0, 0.5, 1.0))
        a_const = PolyMatrix.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        a_linear = PolyMatrix.from_entries([[[0.0], [1.0]], [[0.0, 2.0], [0.0]]])
        b = PolyMatrix.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
        zero = PolyMatrix.zero(2, 2)
        field = CoefficientField((a_const, a_linear), (b, b), (zero, zero), 2.0)
        prob = make_string_problem(breakpoints=(0.0, 0.5, 1.0))
        prob = ProblemDefinition("mixed", part, field, prob.boundary_left,
                                 prob.boundary_right, prob.conjugations)
        for reduced in (reduce_complex(prob, 0.2 + 1.5j), reduce_real_split(prob, 1.5)):
            const, varying = reduced.constant_coeffs
            assert varying is None
            np.testing.assert_array_equal(const, reduced.coefficient(0, 0.3))

    def test_denominator_divides_the_polynomial_form(self):
        # A = (A0 + lam^2 B + lam C) / q with q = 2 + 0.5 lam; the y-varying
        # B makes its interval varying, as a y-polynomial does without q
        part = Partition((0.0, 1.0))
        a = PolyMatrix.constant(np.array([[0.0, 2.0], [0.0, 0.0]]))
        c = PolyMatrix.constant(np.array([[0.0, 0.5], [0.0, 0.0]]))
        base = make_string_problem()
        lam, y = 0.3 + 1.5j, 0.3
        for b in (PolyMatrix.constant(np.array([[0.0, 0.0], [1.0, 0.0]])),
                  PolyMatrix.from_entries([[[0.0], [0.0]], [[1.0, 0.3], [0.0]]])):
            field = CoefficientField((a,), (b,), (c,), 2.0, ((2.0, 0.5),))
            prob = ProblemDefinition("kv", part, field, base.boundary_left,
                                     base.boundary_right, ())
            reduced = reduce_complex(prob, lam)
            want = [[0.0, 1.0], [lam * lam * b(y)[1, 0] / (2.0 + 0.5 * lam), 0.0]]
            np.testing.assert_allclose(reduced.coefficient(0, y), want, rtol=1e-15, atol=0)
            (const,) = reduced.constant_coeffs
            assert (const is None) == (b.degree > 0)

    def test_square_has_the_bits_of_pythons_product(self):
        # the stack's lam^2, formed part by part, against one Python product
        # per lambda: full mantissas, signed zeros, overflow and non-finite
        rng = np.random.default_rng(3)
        z = (rng.normal(size=400) + 1j * rng.normal(size=400)) * 10.0 ** rng.uniform(-150, 150, 400)
        z[:6] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(3.0, -0.0), complex(1e200, 1e200),
                 complex(np.inf, 1.0), complex(np.nan, 0.0)]
        want = np.array([w * w for w in z.tolist()])
        assert reduction._square(z).tobytes() == want.tobytes()

    def test_denominator_derivative_is_exact(self):
        # A_lam = (N_lam q - N q_lam) / q^2 against a central difference of A
        part = Partition((0.0, 1.0))
        a = PolyMatrix.constant(np.array([[0.0, 2.0], [0.0, 0.0]]))
        b = PolyMatrix.constant(np.array([[0.0, 0.0], [1.5, 0.0]]))
        c = PolyMatrix.constant(np.array([[0.0, 0.5], [0.0, 0.0]]))
        base = make_string_problem()
        field = CoefficientField((a,), (b,), (c,), 2.0, ((2.0, 0.5, 0.1),))
        prob = ProblemDefinition("kv", part, field, base.boundary_left, base.boundary_right, ())
        lam, h = 0.3 + 1.5j, 1e-5
        (block,) = reduce_complex(prob, lam, variational=True).constant_coeffs
        (up,), (down,) = (reduce_complex(prob, z).constant_coeffs for z in (lam + h, lam - h))
        np.testing.assert_array_equal(block[:2, :2], reduce_complex(prob, lam).constant_coeffs[0])
        np.testing.assert_allclose(block[2:, :2], (up - down) / (2 * h), rtol=1e-9, atol=1e-12)
