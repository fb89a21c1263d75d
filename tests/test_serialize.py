"""JSON problem format round-trips."""

import json

import numpy as np
import pytest

from oscispec import (
    BoundaryOperator,
    CoefficientField,
    ConjugationOperator,
    Partition,
    PolyMatrix,
    ProblemDefinition,
    build_model,
    build_point_mass_string,
    characteristic_determinant,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    validate,
)

from conftest import make_string_problem


def _assert_problems_equal(a, b):
    assert a.name == b.name
    assert a.partition == b.partition
    fa, fb = a.coefficients, b.coefficients
    assert fa.bound == fb.bound
    assert fa.denominators == fb.denominators
    for pa, pb in zip(fa.a_polys + fa.b_polys + fa.c_polys,
                      fb.a_polys + fb.b_polys + fb.c_polys):
        assert pa == pb
    assert a.boundary_left.matrix == b.boundary_left.matrix
    assert a.boundary_right.matrix == b.boundary_right.matrix
    assert a.boundary_left.max_degree == b.boundary_left.max_degree
    assert a.boundary_right.max_degree == b.boundary_right.max_degree
    assert len(a.conjugations) == len(b.conjugations)
    for ca, cb in zip(a.conjugations, b.conjugations):
        assert ca.interface == cb.interface
        assert ca.d_matrix == cb.d_matrix
        assert ca.b_matrix == cb.b_matrix


def _awkward_problem():
    """Two intervals, variable coefficients, awkward floats."""
    part = Partition((0.0, 1.0 / 3.0, 1.0))
    a = PolyMatrix.from_entries(
        [[[0.0], [1.0]], [[0.1234567890123456, -2.0 / 7.0], [0.0]]]
    )
    b = PolyMatrix.constant(np.array([[0.0, 0.0], [np.pi / 3.0, 0.0]]))
    c = PolyMatrix.from_entries([[[0.0], [0.0]], [[1e-7], [0.0]]])
    field = CoefficientField((a, a), (b, b), (c, c), bound=4.0)
    left = BoundaryOperator("left", PolyMatrix.from_entries([[[1.0], [0.0]]]))
    right = BoundaryOperator(
        "right", PolyMatrix.from_entries([[[0.0, 0.5, 1.0 / 3.0], [1.0]]])
    )
    conj = ConjugationOperator(
        1,
        PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, -0.77], [1.0]]]),
        PolyMatrix.constant(np.eye(2)),
    )
    return ProblemDefinition("awkward", part, field, left, right, (conj,))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [make_string_problem, build_point_mass_string, _awkward_problem]
    )
    def test_dict_round_trip_exact(self, factory):
        prob = factory()
        back = problem_from_dict(problem_to_dict(prob))
        _assert_problems_equal(prob, back)

    def test_file_round_trip_through_json_text(self, tmp_path):
        prob = _awkward_problem()
        path = tmp_path / "prob.json"
        dump_problem(prob, path)
        back = load_problem(path)
        _assert_problems_equal(prob, back)
        # and a second pass through text is byte-stable
        dump_problem(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_degree_override_survives(self, tmp_path):
        right = BoundaryOperator(
            "right",
            PolyMatrix.from_entries([[[0.0, 0.0, 0.0, 2.5], [1.0]]]),
            max_degree=3,
        )
        base = make_string_problem()
        prob = ProblemDefinition(
            base.name, base.partition, base.coefficients, base.boundary_left,
            right, base.conjugations,
        )
        back = problem_from_dict(problem_to_dict(prob))
        assert back.boundary_right.max_degree == 3
        assert validate(back) == []


#: the seven built-ins at their defaults and the benchmark's two rect_search
#: variants
BUILT_INS = [
    ("machine_unit", {}), ("spacecraft_bar", {}), ("cable_snapshot", {}), ("pipeline", {}),
    ("fixed_free_string", {}), ("fixed_fixed_string", {}), ("point_mass_string", {}),
    ("machine_unit", {"left_end": "clamped", "right_end": "clamped"}),
    ("spacecraft_bar", {"beta": 0.02}),
]


class TestBuiltIns:
    @pytest.mark.parametrize("name, params", BUILT_INS)
    def test_built_in_round_trips_to_the_same_determinant(self, name, params):
        # 120 lambdas on the axis and 120 off it, where the rational
        # coefficients of the damped models have both parts nonzero
        prob = build_model(name, **params)
        data = problem_to_dict(prob)
        back = problem_from_dict(json.loads(json.dumps(data)))
        _assert_problems_equal(prob, back)
        assert validate(back) == []
        rng = np.random.default_rng(5)
        off_axis = rng.uniform(-0.5, 0.0, 120) + 1j * rng.uniform(0.2, 10.0, 120)
        lams = np.concatenate([1j * np.linspace(0.2, 10.0, 120), off_axis])
        want = characteristic_determinant(prob, lams, 1e-3)
        assert characteristic_determinant(back, lams, 1e-3).tobytes() == want.tobytes()

    def test_kelvin_voigt_models_store_their_denominator(self):
        data = problem_to_dict(build_model("machine_unit", G=2.0, Ip=1.5, zeta1=0.25))
        assert data["coefficients"][0]["denominator"] == [3.0, 0.25]
        assert "denominator" not in problem_to_dict(build_model("cable_snapshot"))["coefficients"][0]

    def test_file_without_denominators_has_none(self):
        data = problem_to_dict(_awkward_problem())
        assert all("denominator" not in entry for entry in data["coefficients"])
        assert problem_from_dict(data).coefficients.denominators == (None, None)


class TestErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_problem(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"name": "x", "breakpoints": [0, 1]}))
        with pytest.raises(ValueError, match="malformed problem data"):
            load_problem(path)

    def test_dimension_mismatch(self):
        data = problem_to_dict(make_string_problem())
        data["dimension"] = 4
        with pytest.raises(ValueError, match="dimension"):
            problem_from_dict(data)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ((), "dimension", 2.5),
            ((), "dimension", "2"),
            ((), "dimension", True),
            ((), "boundary_left_max_degree", 2.7),
            ((), "boundary_right_max_degree", None),
            (("conjugations", 0), "interface_index", 1.5),
            (("conjugations", 0), "interface_index", float("inf")),
        ],
        ids=["dimension_2.5", "dimension_text", "dimension_true", "left_degree_2.7",
             "right_degree_null", "interface_1.5", "interface_inf"],
    )
    def test_an_integer_field_that_is_not_an_integral_number_is_refused(self, where, key, value):
        # int() truncated them: dimension 2.5 loaded as 2, and a point-mass
        # string with interface_index 1.5 solved to 3 roots
        data = problem_to_dict(build_point_mass_string())
        entry = data
        for step in where:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            problem_from_dict(data)

    def test_an_integral_float_loads_as_its_integer(self):
        data = problem_to_dict(build_point_mass_string())
        data["dimension"] = 2.0
        data["conjugations"][0]["interface_index"] = 1.0
        data["boundary_left_max_degree"] = 2.0
        _assert_problems_equal(problem_from_dict(data), build_point_mass_string())
