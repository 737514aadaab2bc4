"""Problem file schemas plus trace/outcome writers.

Two JSON problem kinds are supported:

  quadratic (default): convex quadratic objective x.Qx + c.x + d over an
  x box, constraint families affine in x with polynomial-in-y coefficients,
      g_i(x, y) = a_i(y).x + b_i(y),
  each polynomial given as a list of [exponent-list, coefficient] terms.
  The families are built by polynomials.affine_polynomial_family.

  regression: data points, model degree, coefficient and input boxes, ridge
  weight and derivative shape constraints; assembled by the regression
  front-end.  Data may be inline or referenced as a CSV file with one column
  per input dimension followed by the target column.

A field of the wrong type (a string where a number belongs, say) is
reported as an InputError, like every other schema violation.  All floats
are written with 17 significant digits so that serialized problems and
traces reproduce bit-identically.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .lower_level import certified_feasibility_bound
from .polynomials import Polynomial, affine_polynomial_family
from .problem import BoxDomain, ConvexObjective, QuadraticForm, SipProblem
from .regression import RegressionSpec, ShapeConstraint, build_problem


def fmt17(v: float) -> str:
    return format(float(v), ".17g")


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with every float rendered at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_17g(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist()) if isinstance(obj, np.ndarray) else list(obj)
        inner = [dumps_17g(v, indent + 2) for v in seq]
        if sum(len(s) for s in inner) < 70 and all("\n" not in s for s in inner):
            return "[" + ", ".join(inner) + "]"
        return (
            "[\n" + ",\n".join(f"{pad}  {s}" for s in inner) + f"\n{pad}]"
        )
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise InputError("cannot serialize non-finite float")
        return fmt17(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


# --------------------------------------------------------------------------
# polynomial and box encoding
# --------------------------------------------------------------------------


def poly_to_terms(p: Polynomial) -> list:
    return [[list(map(int, e)), float(c)] for e, c in zip(p.exponents, p.coeffs)]


def poly_from_terms(terms, dim: int, where: str) -> Polynomial:
    if not isinstance(terms, list) or not terms:
        raise InputError(f"{where}: polynomial must be a nonempty term list")
    exps, coeffs = [], []
    for t in terms:
        if not (isinstance(t, list) and len(t) == 2 and isinstance(t[0], list)):
            raise InputError(f"{where}: each term must be [[exponents], coeff]")
        if len(t[0]) != dim:
            raise InputError(f"{where}: exponent list must have length {dim}")
        exps.append([int(e) for e in t[0]])
        coeffs.append(float(t[1]))
    return Polynomial(np.array(exps, dtype=int), np.array(coeffs))


def box_to_dict(box: BoxDomain) -> dict:
    return {"lower": box.lower, "upper": box.upper}


def box_from_dict(d, where: str) -> BoxDomain:
    if not isinstance(d, dict) or "lower" not in d or "upper" not in d:
        raise InputError(f"{where}: box needs 'lower' and 'upper' arrays")
    return BoxDomain(lower=d["lower"], upper=d["upper"])


# --------------------------------------------------------------------------
# quadratic problem schema
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineConstraintSpec:
    a: tuple[Polynomial, ...]  # one polynomial per x dimension
    b: Polynomial


@dataclass(frozen=True)
class QuadraticProblemSpec:
    x_box: BoxDomain
    y_box: BoxDomain
    Q: np.ndarray
    c: np.ndarray
    d: float
    constraints: tuple[AffineConstraintSpec, ...]
    slater_point: np.ndarray | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        p = self.x_box.dim
        if Q.shape != (p, p):
            raise InputError(f"objective.Q must be {p}x{p}")
        Q = 0.5 * (Q + Q.T)
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() < -1e-9 * max(1.0, abs(eigs.max())):
            raise InputError(
                f"objective not convex: Q has eigenvalue {eigs.min():.3e}"
            )
        cvec = np.asarray(self.c, dtype=float).reshape(p)
        Q.setflags(write=False)
        cvec.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", cvec)
        for k, spec in enumerate(self.constraints):
            if len(spec.a) != p:
                raise InputError(
                    f"constraints[{k}].a needs one polynomial per x dimension"
                )

    def build(self) -> SipProblem:
        form = QuadraticForm(Q=self.Q, c=self.c, d=self.d)
        lipschitz = self.lipschitz
        if lipschitz is None:
            lipschitz = form.lipschitz_maxnorm(self.x_box)
        objective = ConvexObjective.from_quadratic(form, lipschitz)
        families = tuple(
            affine_polynomial_family(i, spec.a, spec.b, self.x_box, self.y_box)
            for i, spec in enumerate(self.constraints)
        )
        return SipProblem(
            x_domain=self.x_box,
            y_domain=self.y_box,
            objective=objective,
            constraints=families,
            slater_point=self.slater_point,
        )

    def to_dict(self) -> dict:
        out = {
            "type": "quadratic",
            "x_box": box_to_dict(self.x_box),
            "y_box": box_to_dict(self.y_box),
            "objective": {"Q": self.Q, "c": self.c, "d": self.d},
            "constraints": [
                {"a": [poly_to_terms(p) for p in spec.a], "b": poly_to_terms(spec.b)}
                for spec in self.constraints
            ],
        }
        if self.lipschitz is not None:
            out["objective"]["lipschitz"] = self.lipschitz
        if self.slater_point is not None:
            out["slater_point"] = self.slater_point
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QuadraticProblemSpec":
        for key in ("x_box", "y_box", "objective", "constraints"):
            if key not in data:
                raise InputError(f"problem file missing field '{key}'")
        x_box = box_from_dict(data["x_box"], "x_box")
        y_box = box_from_dict(data["y_box"], "y_box")
        obj = data["objective"]
        if not isinstance(obj, dict) or "Q" not in obj or "c" not in obj:
            raise InputError("objective: needs matrix 'Q' and vector 'c'")
        cons = []
        if not isinstance(data["constraints"], list) or not data["constraints"]:
            raise InputError("constraints: need a nonempty list")
        for k, spec in enumerate(data["constraints"]):
            if not isinstance(spec, dict) or "a" not in spec or "b" not in spec:
                raise InputError(f"constraints[{k}]: needs fields 'a' and 'b'")
            a = tuple(
                poly_from_terms(terms, y_box.dim, f"constraints[{k}].a[{j}]")
                for j, terms in enumerate(spec["a"])
            )
            b = poly_from_terms(spec["b"], y_box.dim, f"constraints[{k}].b")
            cons.append(AffineConstraintSpec(a=a, b=b))
        slater = data.get("slater_point")
        lipschitz = obj.get("lipschitz")
        return cls(
            x_box=x_box,
            y_box=y_box,
            Q=np.asarray(obj["Q"], dtype=float),
            c=np.asarray(obj["c"], dtype=float),
            d=float(obj.get("d", 0.0)),
            constraints=tuple(cons),
            slater_point=None if slater is None else np.asarray(slater, dtype=float),
            lipschitz=None if lipschitz is None else float(lipschitz),
        )


# --------------------------------------------------------------------------
# regression schema
# --------------------------------------------------------------------------


def read_data_csv(path: Path, input_dim: int) -> np.ndarray:
    """CSV ingestion: one column per input dimension, then the target."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise InputError(f"{path}: non-numeric row {lineno + 1}")
            if len(vals) != input_dim + 1:
                raise InputError(
                    f"{path}: row {lineno + 1} has {len(vals)} columns, "
                    f"expected {input_dim + 1}"
                )
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows)


def regression_spec_from_dict(data: dict, base_dir: Path | None = None) -> RegressionSpec:
    for key in ("degree", "u_box", "coeff_box", "constraints"):
        if key not in data:
            raise InputError(f"regression file missing field '{key}'")
    u_box = box_from_dict(data["u_box"], "u_box")
    coeff_box = box_from_dict(data["coeff_box"], "coeff_box")
    if "data" in data:
        arr = np.asarray(data["data"], dtype=float)
    elif "data_csv" in data:
        csv_path = Path(data["data_csv"])
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = base_dir / csv_path
        arr = read_data_csv(csv_path, u_box.dim)
    else:
        raise InputError("regression file needs 'data' or 'data_csv'")
    constraints = []
    for k, item in enumerate(data["constraints"]):
        if not isinstance(item, dict) or "weights" not in item:
            raise InputError(f"constraints[{k}]: needs a 'weights' list")
        weights = {}
        for pair in item["weights"]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InputError(
                    f"constraints[{k}].weights: entries must be [[alpha], weight]"
                )
            weights[tuple(int(v) for v in pair[0])] = float(pair[1])
        constraints.append(
            ShapeConstraint(weights=weights, offset=float(item.get("offset", 0.0)))
        )
    slater = data.get("slater_point")
    return RegressionSpec(
        data=arr,
        degree=int(data["degree"]),
        coeff_box=coeff_box,
        u_domain=u_box,
        ridge=float(data.get("ridge", 1e-6)),
        shape_constraints=tuple(constraints),
        slater_point=None if slater is None else np.asarray(slater, dtype=float),
    )


def regression_spec_to_dict(spec: RegressionSpec) -> dict:
    return {
        "type": "regression",
        "data": spec.data,
        "degree": spec.degree,
        "u_box": box_to_dict(spec.u_domain),
        "coeff_box": box_to_dict(spec.coeff_box),
        "ridge": spec.ridge,
        "constraints": [
            {
                "weights": [[list(a), w] for a, w in sorted(sc.weights.items())],
                "offset": sc.offset,
            }
            for sc in spec.shape_constraints
        ],
        **(
            {"slater_point": spec.slater_point}
            if spec.slater_point is not None
            else {}
        ),
    }


# --------------------------------------------------------------------------
# top-level loaders / writers
# --------------------------------------------------------------------------


def load_problem(source) -> SipProblem:
    """Load and validate a SipProblem from a JSON file path, a parsed dict or
    a builtin: reference.  The Slater certificate is checked when present."""
    from .instances import builtin

    base_dir = None
    if isinstance(source, (str, Path)):
        text = str(source)
        if text.startswith("builtin:"):
            return builtin(text.split(":", 1)[1])
        path = Path(text)
        if not path.exists():
            raise InputError(f"problem file not found: {path}")
        base_dir = path.parent
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: malformed JSON ({exc})") from None
        if not isinstance(data, dict):
            raise InputError(f"{path}: the top level must be a JSON object")
    elif isinstance(source, dict):
        data = source
    else:
        raise InputError("load_problem takes a path, dict, or builtin: reference")

    kind = data.get("type", "quadratic")
    try:
        if kind == "regression":
            spec = regression_spec_from_dict(data, base_dir)
        elif kind == "quadratic":
            spec = QuadraticProblemSpec.from_dict(data)
        else:
            raise InputError(f"unknown problem type {kind!r}")
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        # a field of the wrong type, such as a string where a number belongs
        raise InputError(f"malformed problem field: {exc}") from None
    problem = build_problem(spec) if kind == "regression" else spec.build()
    if problem.slater_point is not None:
        _, report_bound = certified_feasibility_bound(
            problem.constraints, problem.slater_point, 1e-6
        )
        if report_bound >= 0:
            raise InputError(
                f"slater certificate failed: certified bound {report_bound:.3e} >= 0"
            )
    return problem


def serialize_problem(spec) -> str:
    """Serialize a QuadraticProblemSpec or RegressionSpec to JSON text."""
    if isinstance(spec, QuadraticProblemSpec):
        return dumps_17g(spec.to_dict()) + "\n"
    if isinstance(spec, RegressionSpec):
        return dumps_17g(regression_spec_to_dict(spec)) + "\n"
    raise InputError("serialize_problem takes a problem or regression spec")


def write_outcome_json(path, outcome) -> None:
    """Outcome JSON with the documented keys."""

    def finite_or_none(v):
        return float(v) if v is not None and math.isfinite(v) else None

    x = outcome.x_star
    payload = {
        "status": outcome.status.value,
        "x": None if x is None else np.asarray(x, dtype=float),
        "f": finite_or_none(outcome.f_value),
        "feasibility_margin": finite_or_none(outcome.feasibility_margin),
        "outer_iterations": outcome.iterations.get("outer", 0),
        "inner_iterations": outcome.iterations.get("inner", 0),
        "oracle_evals": outcome.oracle_evals,
    }
    Path(path).write_text(dumps_17g(payload) + "\n")


def write_trace_csv(path, trace) -> None:
    Path(path).write_text(trace.to_csv())
