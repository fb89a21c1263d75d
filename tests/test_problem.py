"""Core data model: validation, coefficient evaluation, breakpoint insertion."""

import dataclasses

import numpy as np
import pytest

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    PolyMatrix,
    evaluate_coefficients,
    insert_breakpoint,
    validate,
)
from oscispec.models import SCAN_DEFAULTS, build_model
from oscispec.problem import TOL_SINGULAR

from conftest import identity_conjugation, make_string_problem


class TestValidate:
    def test_well_formed_string_is_clean(self, fixed_free_string):
        assert validate(fixed_free_string) == []

    def test_non_increasing_breakpoints(self):
        prob = make_string_problem(
            breakpoints=(0.0, 1.0, 0.5),
            conjugations=(identity_conjugation(1), identity_conjugation(2)),
        )
        report = validate(prob)
        assert any("breakpoints not increasing" in v for v in report)

    def test_zero_interface_matrix_flagged_singular(self):
        bad = ConjugationOperator(1, PolyMatrix.constant(np.eye(2)), PolyMatrix.zero(2, 2))
        prob = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(bad,))
        report = validate(prob)
        assert any("Bmat singular at lambda=0" in v for v in report)

    def test_conjugation_count_mismatch(self):
        prob = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=())
        assert any("expected 1" in v for v in validate(prob))

    def test_bound_violation_reported(self):
        prob = make_string_problem()
        field = prob.coefficients
        tight = CoefficientField(
            field.partition, field.a_polys, field.b_polys, field.c_polys, bound=0.5
        )
        prob = prob.__class__(
            prob.name, prob.partition, tight, prob.boundary_left,
            prob.boundary_right, prob.conjugations,
        )
        assert any("exceeds declared bound" in v for v in validate(prob))

    @pytest.mark.parametrize(
        "denominators, message",
        [
            (((1.0, 0.5), (1.0,)), "2 denominators, expected 1"),
            (((1.0, 0.5, 0.1, 0.2),), "denominator[0]: 4 coefficients"),
            (((1.0, float("nan")),), "denominator[0]: nonfinite coefficient"),
            (((0.0, 0.0),), "denominator[0]: identically zero"),
        ],
    )
    def test_denominator_violations(self, denominators, message):
        prob = make_string_problem()
        field = dataclasses.replace(prob.coefficients, denominators=denominators)
        prob = dataclasses.replace(prob, coefficients=field)
        assert any(message in v for v in validate(prob))

    def test_denominator_scales_the_bound(self):
        # |entry| <= bound max|q_k|: over q = 4 + lam a field of bound 1 may
        # hold entries up to 4, not above
        prob = make_string_problem()
        for entry, ok in ((4.0, True), (4.5, False)):
            a = PolyMatrix.constant(np.array([[0.0, entry], [0.0, 0.0]]))
            field = dataclasses.replace(prob.coefficients, a_polys=(a,), denominators=((4.0, 1.0),))
            assert (validate(dataclasses.replace(prob, coefficients=field)) == []) is ok

    def test_lambda_degree_cap(self):
        # a cubic boundary row without an override is rejected
        prob = make_string_problem()
        from oscispec import BoundaryOperator

        cubic = BoundaryOperator(
            "right", PolyMatrix.from_entries([[[0.0, 0.0, 0.0, 1.0], [1.0]]])
        )
        bad = prob.__class__(
            prob.name, prob.partition, prob.coefficients, prob.boundary_left,
            cubic, prob.conjugations,
        )
        assert any("exceeds cap" in v for v in validate(bad))

        allowed = BoundaryOperator(
            "right",
            PolyMatrix.from_entries([[[0.0, 0.0, 0.0, 1.0], [1.0]]]),
            max_degree=3,
        )
        ok = prob.__class__(
            prob.name, prob.partition, prob.coefficients, prob.boundary_left,
            allowed, prob.conjugations,
        )
        assert validate(ok) == []

    def test_interface_determinant_invariant_after_validation(self):
        d = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, -1.0], [1.0]]])
        b = PolyMatrix.constant(np.eye(2))
        prob = make_string_problem(
            breakpoints=(0.0, 0.5, 1.0),
            conjugations=(ConjugationOperator(1, d, b),),
        )
        assert validate(prob) == []
        bmat0 = prob.conjugations[0].b_matrix(0.0)
        scale = np.max(np.abs(bmat0))
        assert abs(np.linalg.det(bmat0)) > TOL_SINGULAR * scale**2


def _invalid_problems():
    """Problems whose violations validate takes through its shortcuts for
    lambda-free data: an exceeded bound on a constant and on a linear
    coefficient, rank-deficient constant and lambda-dependent rows, and a
    singular constant B."""
    base = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(identity_conjugation(1),))
    field = base.coefficients
    big = PolyMatrix.constant(np.array([[0.0, 3.0], [0.0, 0.0]]))
    ramp = PolyMatrix.from_entries([[[0.0], [0.0, 4.0]], [[0.0], [0.0]]])
    loose = CoefficientField(field.partition, (big, ramp), field.b_polys, field.c_polys, 1.0)
    flat = BoundaryOperator("left", PolyMatrix.from_entries([[[0.0], [0.0]]]))
    at_zero = BoundaryOperator("right", PolyMatrix.from_entries([[[0.0, 1.0], [0.0]]]))
    singular = ConjugationOperator(1, PolyMatrix.constant(np.eye(2)), PolyMatrix.constant(np.diag([1.0, 0.0])))
    return [
        dataclasses.replace(base, coefficients=loose),
        dataclasses.replace(base, boundary_left=flat, boundary_right=at_zero),
        dataclasses.replace(base, conjugations=(singular,)),
        dataclasses.replace(
            base, coefficients=loose, boundary_left=flat, boundary_right=at_zero,
            conjugations=(singular,),
        ),
    ]


class TestValidateShortcuts:
    """A constant coefficient takes its bound from its one coefficient and
    lambda-free rows their rank from the constant table; the violation lists
    are those of 33 samples and two rref probes."""

    @staticmethod
    def _general_route(monkeypatch):
        # no polynomial counts as constant: every check takes the sampled
        # and probed route
        degree = PolyMatrix.degree.func
        monkeypatch.setattr(PolyMatrix, "degree", property(lambda pm: max(degree(pm), 1)))

    @pytest.mark.parametrize("name", sorted(SCAN_DEFAULTS))
    def test_built_ins(self, name, monkeypatch):
        fast = validate(build_model(name))
        self._general_route(monkeypatch)
        assert fast == validate(build_model(name)) == []

    def test_invalid_problems(self, monkeypatch):
        fast = [validate(p) for p in _invalid_problems()]
        self._general_route(monkeypatch)
        assert fast == [validate(p) for p in _invalid_problems()]
        assert [len(v) for v in fast] == [2, 2, 1, 5]
        assert "boundary_right: rank 0 < 1 at lambda=0.0" in fast[1]


def test_degree_is_found_once_per_matrix():
    # the x**3 coefficients are all zero, so the degree takes a scan
    pm = PolyMatrix.from_entries([[[1.0, 0.0, 2.0], [0.0]], [[0.0], [0.0, 0.0, 0.0, 0.0]]])
    assert pm.degree == 2
    pm.coeffs = None  # a second access that scanned again would fail here
    assert pm.degree == 2


class TestEvaluateCoefficients:
    def test_constant_field(self):
        part = Partition((0.0, 1.0))
        field = CoefficientField(
            part,
            (PolyMatrix.zero(2, 2),),
            (PolyMatrix.constant(-np.eye(2)),),
            (PolyMatrix.zero(2, 2),),
            bound=1.0,
        )
        for y in (0.0, 0.25, 1.0):
            a, b, c = evaluate_coefficients(field, 0, y)
            np.testing.assert_array_equal(a, np.zeros((2, 2)))
            np.testing.assert_array_equal(b, -np.eye(2))
            np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_linear_entry(self):
        part = Partition((0.0, 1.0))
        a = PolyMatrix.from_entries([[[0.0], [0.0, 2.0]], [[0.0], [0.0]]])
        field = CoefficientField(
            part, (a,), (PolyMatrix.zero(2, 2),), (PolyMatrix.zero(2, 2),), bound=2.0
        )
        aval, _, _ = evaluate_coefficients(field, 0, 0.5)
        assert aval[0, 1] == 1.0

    def test_out_of_range(self):
        part = Partition((0.0, 1.0))
        field = CoefficientField(
            part, (PolyMatrix.zero(2, 2),), (PolyMatrix.zero(2, 2),),
            (PolyMatrix.zero(2, 2),), bound=1.0,
        )
        with pytest.raises(ValueError, match="outside interval"):
            evaluate_coefficients(field, 0, 1.5)

    def test_pure_function(self, fixed_free_string):
        field = fixed_free_string.coefficients
        first = evaluate_coefficients(field, 0, 0.3)
        second = evaluate_coefficients(field, 0, 0.3)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)


class TestInsertBreakpoint:
    def test_partition_and_conjugation_bookkeeping(self, fixed_free_string):
        refined = insert_breakpoint(fixed_free_string, 0.37)
        assert refined.partition.breakpoints == (0.0, 0.37, 1.0)
        assert len(refined.conjugations) == 1
        assert refined.conjugations[0].interface == 1
        assert validate(refined) == []

    def test_existing_breakpoint_rejected(self, fixed_free_string):
        with pytest.raises(ValueError):
            insert_breakpoint(fixed_free_string, 1.0)

    def test_denominator_kept_on_both_halves(self):
        refined = insert_breakpoint(build_model("machine_unit"), 0.37)
        assert refined.coefficients.denominators == ((1.0, 0.01),) * 2
        assert validate(refined) == []

    def test_indices_shift_past_split(self):
        prob = make_string_problem(
            breakpoints=(0.0, 0.5, 1.0), conjugations=(identity_conjugation(1),)
        )
        refined = insert_breakpoint(prob, 0.25)
        assert [c.interface for c in refined.conjugations] == [1, 2]
        assert refined.partition.breakpoints == (0.0, 0.25, 0.5, 1.0)
