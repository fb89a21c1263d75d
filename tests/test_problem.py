"""Core data model: validation and breakpoint insertion."""

import dataclasses
import warnings

import numpy as np
import pytest

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    PolyMatrix,
    insert_breakpoint,
    problem_from_dict,
    problem_to_dict,
    validate,
)
from oscispec.models import SCAN_DEFAULTS, build_model
from oscispec.problem import TOL_SINGULAR, is_singular

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

    @pytest.mark.parametrize("tag", ["D", "B"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_interface_matrix_is_a_violation(self, tag, value):
        # a nonfinite B is not probed for singularity: its determinant at
        # lambda = 0 would evaluate inf * 0 with a RuntimeWarning
        entries = [[[1.0, value], [0.0]], [[0.0], [1.0]]]
        d, b = (PolyMatrix.from_entries(entries) if t == tag else PolyMatrix.constant(np.eye(2))
                for t in ("D", "B"))
        prob = make_string_problem(
            breakpoints=(0.0, 0.5, 1.0), conjugations=(ConjugationOperator(1, d, b),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(prob) == [f"conjugation 1: {tag} nonfinite coefficient"]

    def test_wrong_shape_interface_matrix_is_reported_not_probed(self):
        # its determinant raised LinAlgError out of validate
        bad = ConjugationOperator(1, PolyMatrix.constant(np.eye(2)), PolyMatrix.constant(np.ones((2, 3))))
        prob = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(bad,))
        assert validate(prob) == ["conjugation 1: B shape (2, 3), expected (2, 2)"]

    def test_nonfinite_constant_boundary_row_is_a_violation(self):
        row = BoundaryOperator("left", PolyMatrix.from_entries([[[np.nan], [1.0]]]))
        prob = dataclasses.replace(make_string_problem(), boundary_left=row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(prob) == ["boundary_left: nonfinite coefficient"]

    @pytest.mark.parametrize("lam", [0.0, 1j])
    def test_one_row_losing_rank_at_a_probe_is_named(self, lam):
        # [lam - lam0, 2 (lam - lam0)] vanishes at lam0 alone
        row = BoundaryOperator("left", PolyMatrix.from_entries([[[-lam, 1.0], [-2 * lam, 2.0]]]))
        prob = dataclasses.replace(make_string_problem(), boundary_left=row)
        assert validate(prob) == [f"boundary_left: rank 0 < 1 at lambda={lam}"]

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: {"partition": Partition((0.0,))}, "breakpoints: need at least two"),
            (lambda p: {"coefficients": _field(p, a=PolyMatrix.zero(3, 3), b=PolyMatrix.zero(3, 3),
                                               c=PolyMatrix.zero(3, 3))},
             "dimension: N=3 must be even"),
            (lambda p: {"boundary_left": BoundaryOperator("left", PolyMatrix.constant(np.eye(2)))},
             "boundary_left: 2 rows, expected m=1"),
            (lambda p: {"boundary_right": BoundaryOperator("right", PolyMatrix.constant(np.eye(1, 3)))},
             "boundary_right: 3 columns, expected N=2"),
            (lambda p: {"partition": Partition((0.0, 0.5, 1.0)),
                        "coefficients": _field(p, intervals=2),
                        "conjugations": (identity_conjugation(1), identity_conjugation(1))},
             "conjugation interface 1 repeated"),
            (lambda p: {"partition": Partition((0.0, 0.5, 1.0)),
                        "coefficients": _field(p, intervals=2),
                        "conjugations": (ConjugationOperator(
                            1, PolyMatrix.from_entries([[[1.0, 0.0, 0.0, 1.0], [0.0]], [[0.0], [1.0]]]),
                            PolyMatrix.constant(np.eye(2))),)},
             "conjugation 1: D lambda degree 3 exceeds cap 2"),
            (lambda p: {"coefficients": dataclasses.replace(
                p.coefficients, a_polys=p.coefficients.a_polys * 2)},
             "coefficients A: 2 intervals, expected 1"),
            (lambda p: {"coefficients": _field(p, b=PolyMatrix.zero(3, 3))},
             "coefficients B[0]: shape (3, 3), expected (2, 2)"),
            (lambda p: {"coefficients": _field(p, c=PolyMatrix.from_entries(
                [[[0.0], [0.0]], [[0.0] * 9 + [1.0], [0.0]]]))},
             "coefficients C[0]: y degree 9 exceeds cap 8"),
            (lambda p: {"coefficients": _field(p, c=PolyMatrix.constant(np.array([[0.0, np.inf],
                                                                                  [0.0, 0.0]])))},
             "coefficients C[0]: nonfinite coefficient"),
        ],
        ids=["one_breakpoint", "odd_dimension", "boundary_rows", "boundary_columns",
             "repeated_conjugation", "conjugation_degree", "coefficient_count",
             "coefficient_shape", "y_degree", "nonfinite_coefficient"],
    )
    def test_each_structural_violation_is_named(self, change, message):
        prob = make_string_problem()
        assert message in validate(dataclasses.replace(prob, **change(prob)))

    def test_conjugation_count_mismatch(self):
        prob = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=())
        assert any("expected 1" in v for v in validate(prob))

    def test_bound_violation_reported(self):
        prob = make_string_problem()
        field = prob.coefficients
        tight = CoefficientField(field.a_polys, field.b_polys, field.c_polys, bound=0.5)
        prob = prob.__class__(
            prob.name, prob.partition, tight, prob.boundary_left,
            prob.boundary_right, prob.conjugations,
        )
        assert any("exceeds declared bound" in v for v in validate(prob))

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bound_that_is_not_finite_and_nonnegative_is_one_violation(self, bound):
        # Python's json reads NaN and Infinity; no entry is compared against
        # such a bound, so an all-zero C adds no line of its own
        data = {**problem_to_dict(build_model("fixed_free_string")), "bound": bound}
        assert validate(problem_from_dict(data)) == [f"bound: {bound:g} must be finite and >= 0"]

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


def _field(prob, a=None, b=None, c=None, intervals=1):
    """prob's coefficient field with the given A, B, C on every interval,
    over `intervals` intervals."""
    field = prob.coefficients
    a, b, c = (seq[0] if pm is None else pm
               for pm, seq in ((a, field.a_polys), (b, field.b_polys), (c, field.c_polys)))
    return CoefficientField((a,) * intervals, (b,) * intervals, (c,) * intervals, field.bound)


def _invalid_problems():
    """Problems whose violations validate takes through its shortcuts for
    lambda-free data: an exceeded bound on a constant and on a linear
    coefficient, rank-deficient constant and lambda-dependent rows, and a
    singular constant B."""
    base = make_string_problem(breakpoints=(0.0, 0.5, 1.0), conjugations=(identity_conjugation(1),))
    field = base.coefficients
    big = PolyMatrix.constant(np.array([[0.0, 3.0], [0.0, 0.0]]))
    ramp = PolyMatrix.from_entries([[[0.0], [0.0, 4.0]], [[0.0], [0.0]]])
    loose = CoefficientField((big, ramp), field.b_polys, field.c_polys, 1.0)
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


def _lapack_singular(bmat):
    # is_singular's rule on LAPACK's determinant
    scale = np.max(np.abs(bmat), axis=(-2, -1))
    return (scale == 0.0) | (np.abs(np.linalg.det(bmat)) <= TOL_SINGULAR * scale ** bmat.shape[-1])


def _near_singular(rng, count):
    # rotated diag(1, f TOL_SINGULAR), scaled: |det B| / max|b|^2 lies on
    # both sides of the cutoff, far from it against rounding
    theta, scale = rng.uniform(0.0, np.pi, count), 10.0 ** rng.uniform(-3, 3, count)
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    f = rng.choice([0.25, 0.5, 2.0, 4.0], count)
    diag = np.zeros((count, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, f * TOL_SINGULAR
    return scale[:, None, None] * (q @ diag @ q.swapaxes(1, 2))


class TestIsSingular:
    """A 2 x 2 interface B is decided by ad - bc, with no LAPACK call, as
    LAPACK's determinant decides it; other sizes still take LAPACK's."""

    def test_two_by_two_decides_as_lapack_without_it(self, monkeypatch):
        rng = np.random.default_rng(46)
        a, b = rng.standard_normal((2, 200))
        stacks = [
            rng.standard_normal((500, 2, 2)),
            rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2)),
            # exactly singular: the second row twice the first
            np.stack([np.stack([a, b], -1), np.stack([2 * a, 2 * b], -1)], -2),
            # rank one up to rounding
            rng.standard_normal((200, 2, 1)) @ rng.standard_normal((200, 1, 2)),
            np.zeros((3, 2, 2)),
            _near_singular(rng, 400),
            _near_singular(rng, 400).astype(complex),
        ]
        want = [_lapack_singular(bmat) for bmat in stacks]
        assert want[2].all() and want[3].all() and want[4].all()
        assert want[5].any() and not want[5].all()

        def lapack(*args):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "det", lapack)
        for bmat, decision in zip(stacks, want):
            assert np.array_equal(is_singular(bmat), decision)
            assert all(is_singular(m) == d for m, d in zip(bmat[:5], decision[:5]))

    def test_four_by_four_takes_lapack(self, monkeypatch):
        rng = np.random.default_rng(4)
        bmat = rng.standard_normal((20, 4, 4))
        bmat[:5, 3] = bmat[:5, 2]
        want = _lapack_singular(bmat)
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m.shape) or det(m))
        assert np.array_equal(is_singular(bmat), want)
        assert want[:5].all() and not want[5:].any()
        assert calls == [(20, 4, 4)]


def test_identity_is_found_once_per_matrix():
    # a degree-0 identity, however many zero coefficients follow, is the
    # identity; a scaled or lambda-dependent one, or a non-square one, is not
    eye = PolyMatrix.from_entries([[[1.0, 0.0], [0.0]], [[0.0], [1.0, 0.0, 0.0]]])
    assert eye.is_identity
    eye.coeffs = None  # a second access that compared again would fail here
    assert eye.is_identity
    assert not PolyMatrix.constant(2.0 * np.eye(2)).is_identity
    assert not PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [1.0, 0.5]]]).is_identity
    assert not PolyMatrix.constant(np.eye(2)[:, :1]).is_identity


def test_degree_is_found_once_per_matrix():
    # the x**3 coefficients are all zero, so the degree takes a scan
    pm = PolyMatrix.from_entries([[[1.0, 0.0, 2.0], [0.0]], [[0.0], [0.0, 0.0, 0.0, 0.0]]])
    assert pm.degree == 2
    pm.coeffs = None  # a second access that scanned again would fail here
    assert pm.degree == 2


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
