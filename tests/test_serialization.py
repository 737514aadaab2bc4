import json

import numpy as np
import pytest

from sipsolve.errors import InputError
from sipsolve.polynomials import Polynomial
from sipsolve.problem import BoxDomain
from sipsolve.serialization import (
    AffineConstraintSpec,
    QuadraticProblemSpec,
    dumps_17g,
    load_problem,
    read_data_csv,
    regression_spec_from_dict,
    serialize_problem,
)


def instance_a_spec():
    return QuadraticProblemSpec(
        x_box=BoxDomain([-2.0], [2.0]),
        y_box=BoxDomain([0.0], [1.0]),
        Q=np.array([[1.0]]),
        c=np.array([0.0]),
        d=0.0,
        constraints=(
            AffineConstraintSpec(
                a=(Polynomial(np.array([[0]]), np.array([1.0])),),
                b=Polynomial(np.array([[0], [1]]), np.array([-1.0, 1.0])),
            ),
        ),
        slater_point=np.array([-2.0]),
    )


class TestQuadraticSchema:
    def test_round_trip_identical_oracles(self, tmp_path):
        spec = instance_a_spec()
        path = tmp_path / "a.json"
        path.write_text(serialize_problem(spec))
        p1 = spec.build()
        p2 = load_problem(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-2, 2, 1)
            y = rng.uniform(0, 1, 1)
            assert p1.objective.value(x) == p2.objective.value(x)
            assert p1.constraints[0].value(x, y) == p2.constraints[0].value(x, y)

    def test_derived_metadata(self):
        prob = instance_a_spec().build()
        assert prob.objective.lipschitz_constant == pytest.approx(4.0)
        assert prob.constraints[0].lipschitz_in_y == pytest.approx(1.0)
        assert prob.objective.quadratic.positive_definite

    def test_semidefinite_objective_keeps_its_form(self):
        # Q = 0 is convex but not strictly: the finite solver keeps Kelley
        data = instance_a_spec().to_dict()
        data["objective"]["Q"] = [[0.0]]
        data["objective"]["c"] = [1.0]
        objective = load_problem(data).objective
        assert objective.quadratic is not None
        assert not objective.quadratic.positive_definite

    def test_non_psd_rejected(self):
        data = instance_a_spec().to_dict()
        data["objective"]["Q"] = [[-1.0]]
        with pytest.raises(InputError, match="not convex"):
            load_problem(data)

    def test_missing_field_named(self):
        data = instance_a_spec().to_dict()
        del data["y_box"]
        with pytest.raises(InputError, match="y_box"):
            load_problem(data)

    def test_bad_constraint_field_named(self):
        data = instance_a_spec().to_dict()
        data["constraints"][0]["b"] = [[[0, 0], 1.0]]  # wrong exponent arity
        with pytest.raises(InputError, match=r"constraints\[0\]"):
            load_problem(data)

    def test_slater_certificate_checked(self):
        data = instance_a_spec().to_dict()
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


class TestRegressionSchema:
    def payload(self):
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


class TestFloatFormatting:
    def test_17g_round_trips(self):
        values = [0.1, 1 / 3, 1e-300, 123456.789, 2.0**-52]
        text = dumps_17g({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            dumps_17g({"v": float("inf")})
