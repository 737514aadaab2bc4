import json
import re

import numpy as np
import pytest

from sipsolve.errors import InputError
from sipsolve.polynomials import Polynomial, affine_polynomial_family
from sipsolve.problem import BoxDomain, ConvexObjective, QuadraticForm
from sipsolve.serialization import (
    dumps_17g,
    load_problem,
    read_data_csv,
    regression_spec_from_dict,
)


def instance_a_data():
    return {
        "x_box": {"lower": [-2.0], "upper": [2.0]},
        "y_box": {"lower": [0.0], "upper": [1.0]},
        "objective": {"Q": [[1.0]], "c": [0.0], "d": 0.0},
        "constraints": [{"a": [[[[0], 1.0]]], "b": [[[0], -1.0], [[1], 1.0]]}],
        "slater_point": [-2.0],
    }


class TestQuadraticSchema:
    def test_loaded_oracles_match_the_builders_bit_for_bit(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(instance_a_data()))
        loaded = load_problem(path)
        x_box, y_box = BoxDomain([-2.0], [2.0]), BoxDomain([0.0], [1.0])
        form = QuadraticForm(Q=np.array([[1.0]]), c=np.array([0.0]), d=0.0)
        objective = ConvexObjective.from_quadratic(form, x_box)
        family = affine_polynomial_family(
            0,
            [Polynomial(np.array([[0]]), np.array([1.0]))],
            Polynomial(np.array([[0], [1]]), np.array([-1.0, 1.0])),
            x_box,
            y_box,
        )
        assert loaded.objective.lipschitz_constant == objective.lipschitz_constant
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-2, 2, 1)
            y = rng.uniform(0, 1, 1)
            assert loaded.objective.value(x) == objective.value(x)
            assert np.array_equal(loaded.objective.subgradient(x), objective.subgradient(x))
            assert loaded.constraints[0].value(x, y) == family.value(x, y)
            assert np.array_equal(
                loaded.constraints[0].subgradient_x(x, y), family.subgradient_x(x, y)
            )
            assert loaded.constraints[0].lipschitz_in_y_at(x) == family.lipschitz_in_y_at(x)
        assert loaded.constraints[0].lipschitz_in_y == family.lipschitz_in_y

    def test_derived_metadata(self):
        prob = load_problem(instance_a_data())
        assert prob.objective.lipschitz_constant == pytest.approx(4.0)
        assert prob.constraints[0].lipschitz_in_y == pytest.approx(1.0)
        assert prob.objective.quadratic.positive_definite

    @pytest.mark.parametrize("value", [4.0, float("nan")])
    def test_lipschitz_key_rejected(self, value):
        # the constant is derived from Q, c and x_box; a file cannot set it
        data = instance_a_data()
        data["objective"]["lipschitz"] = value
        with pytest.raises(InputError, match="objective.lipschitz"):
            load_problem(data)

    def test_semidefinite_objective_keeps_its_form(self):
        # Q = 0 is convex but not strictly: the finite solver keeps Kelley
        data = instance_a_data()
        data["objective"]["Q"] = [[0.0]]
        data["objective"]["c"] = [1.0]
        objective = load_problem(data).objective
        assert objective.quadratic is not None
        assert not objective.quadratic.positive_definite

    def test_non_psd_rejected(self):
        data = instance_a_data()
        data["objective"]["Q"] = [[-1.0]]
        with pytest.raises(InputError, match="not convex"):
            load_problem(data)

    def test_missing_field_named(self):
        data = instance_a_data()
        del data["y_box"]
        with pytest.raises(InputError, match="y_box"):
            load_problem(data)

    def test_bad_constraint_field_named(self):
        data = instance_a_data()
        data["constraints"][0]["b"] = [[[0, 0], 1.0]]  # wrong exponent arity
        with pytest.raises(InputError, match=r"constraints\[0\]"):
            load_problem(data)

    def test_slater_certificate_checked(self):
        data = instance_a_data()
        data["slater_point"] = [1.5]  # sup_y g(1.5, y) = 1.5 > 0
        with pytest.raises(InputError, match="slater"):
            load_problem(data)

    def test_builtin_reference(self):
        prob = load_problem("builtin:instance_A")
        assert prob.x_domain.dim == 1
        with pytest.raises(InputError, match="unknown builtin"):
            load_problem("builtin:nope")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="malformed"):
            load_problem(path)


def regression_data():
    return {
        "type": "regression",
        "data": [[0.0, 1.0], [1.0, 0.0]],
        "degree": 1,
        "u_box": {"lower": [0.0], "upper": [1.0]},
        "coeff_box": {"lower": [-10.0, -10.0], "upper": [10.0, 10.0]},
        "ridge": 1e-6,
        "constraints": [{"weights": [[[1], -1.0]], "offset": 0.0}],
        "slater_point": [0.0, 1.0],
    }


class TestRegressionSchema:
    def payload(self):
        return regression_data()

    def test_load(self):
        prob = load_problem(self.payload())
        assert prob.x_domain.dim == 2
        assert prob.constraints[0].value(
            np.array([0.0, 2.0]), np.array([0.5])
        ) == pytest.approx(-2.0)

    def test_csv_ingestion(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("u,t\n0.0,1.0\n1.0,0.0\n")
        payload = self.payload()
        del payload["data"]
        payload["data_csv"] = "data.csv"
        json_path = tmp_path / "reg.json"
        json_path.write_text(json.dumps(payload))
        prob = load_problem(json_path)
        assert prob.x_domain.dim == 2

    def test_csv_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,3.0\n")
        with pytest.raises(InputError, match="columns"):
            read_data_csv(path, 1)

    def test_spec_from_dict_validates(self):
        payload = self.payload()
        del payload["degree"]
        with pytest.raises(InputError, match="degree"):
            regression_spec_from_dict(payload)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, corrupt, field",
    [
        (instance_a_data, lambda d: d["objective"].update(Q=[[NAN]]), "objective.Q"),
        (instance_a_data, lambda d: d["objective"].update(c=[INF]), "objective.c"),
        (instance_a_data, lambda d: d["objective"].update(d=NAN), "objective.d"),
        (
            instance_a_data,
            lambda d: d["constraints"][0]["b"][1].__setitem__(1, NAN),
            "constraints[0].b: coefficients",
        ),
        (
            instance_a_data,
            lambda d: d["constraints"][0]["b"][1].__setitem__(0, [1.5]),
            "constraints[0].b: exponents",
        ),
        (instance_a_data, lambda d: d.update(slater_point=[NAN]), "slater_point"),
        (regression_data, lambda d: d["data"][0].__setitem__(1, NAN), "data"),
        (regression_data, lambda d: d.update(ridge=NAN), "ridge"),
        (regression_data, lambda d: d.update(degree=1.9), "degree"),
        (
            regression_data,
            lambda d: d["constraints"][0]["weights"][0].__setitem__(1, INF),
            "constraints[0].weights",
        ),
        (
            regression_data,
            lambda d: d["constraints"][0]["weights"][0].__setitem__(0, [0.5]),
            "constraints[0].weights: multi-index",
        ),
        (
            regression_data,
            lambda d: d["constraints"][0].update(offset=NAN),
            "constraints[0].offset",
        ),
        (regression_data, lambda d: d.update(slater_point=[0.0, INF]), "slater_point"),
    ],
    ids=[
        "Q", "c", "d", "term_coefficient", "exponent", "slater_point", "data",
        "ridge", "degree", "weight", "multi_index", "offset", "regression_slater",
    ],
)
def test_every_number_checked_and_named(make, corrupt, field):
    # floats must be finite and integer fields integral; before, an exponent
    # of 1.5 or a degree of 1.9 was truncated and a NaN surfaced mid-solve
    data = make()
    corrupt(data)
    with pytest.raises(InputError, match=re.escape(field)):
        load_problem(data)


class TestFloatFormatting:
    def test_17g_round_trips(self):
        values = [0.1, 1 / 3, 1e-300, 123456.789, 2.0**-52]
        text = dumps_17g({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            dumps_17g({"v": float("inf")})
