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

A file of either kind without a ``slater_point`` gets one from
``drivers.synthesize_slater_point`` when it loads, or loads without one when
the search finds none.

Every number is checked on load: floats must be finite, and exponents,
degree and derivative multi-indices integral.  The objective's Lipschitz
constant is derived, so a quadratic file may not set one.  A field of the
wrong type (a string where a number belongs, say) is an InputError, like
every other schema violation.  All floats are written with 17 significant
digits so that outcomes and traces reproduce bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .drivers import synthesize_slater_point
from .errors import InputError
from .polynomials import Polynomial, affine_polynomial_family
from .problem import BoxDomain, ConvexObjective, QuadraticForm, SipProblem
from .regression import RegressionSpec, ShapeConstraint, build_problem


def fmt17(v: float) -> str:
    return format(float(v), ".17g")


def dumps_17g(obj: dict) -> str:
    """A flat JSON object, the shape of the outcome file: scalars and flat
    lists, every float at 17 significant digits.  A list stays on one line
    while its items fit in 70 characters."""

    def text(v) -> str:
        if isinstance(v, (list, np.ndarray)):
            inner = [text(e) for e in v]
            if sum(map(len, inner)) < 70:
                return "[" + ", ".join(inner) + "]"
            return "[\n" + ",\n".join(f"    {s}" for s in inner) + "\n  ]"
        if not isinstance(v, float):
            return json.dumps(v)
        if not math.isfinite(v):
            raise InputError("cannot serialize non-finite float")
        return fmt17(v)

    items = [f"  {json.dumps(k)}: {text(v)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n}"


# --------------------------------------------------------------------------
# numbers, polynomials and boxes
# --------------------------------------------------------------------------


def finite_array(value, where: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InputError(f"{where} must be finite")
    return arr


def finite_float(value, where: str) -> float:
    return float(finite_array(float(value), where))


def integral(value, where: str) -> np.ndarray:
    """A number or an array of numbers as ints; each must be integral."""
    arr = finite_array(value, where)
    if (arr != np.round(arr)).any():
        raise InputError(f"{where} must be integral")
    return arr.astype(int)


def poly_from_terms(terms, dim: int, where: str) -> Polynomial:
    if not isinstance(terms, list) or not terms:
        raise InputError(f"{where}: polynomial must be a nonempty term list")
    exps, coeffs = [], []
    for t in terms:
        if not (isinstance(t, list) and len(t) == 2 and isinstance(t[0], list)):
            raise InputError(f"{where}: each term must be [[exponents], coeff]")
        if len(t[0]) != dim:
            raise InputError(f"{where}: exponent list must have length {dim}")
        exps.append(t[0])
        coeffs.append(t[1])
    exponents = integral(exps, f"{where}: exponents")
    return Polynomial(exponents, finite_array(coeffs, f"{where}: coefficients"))


def box_from_dict(d, where: str) -> BoxDomain:
    if not isinstance(d, dict) or "lower" not in d or "upper" not in d:
        raise InputError(f"{where}: box needs 'lower' and 'upper' arrays")
    return BoxDomain(lower=d["lower"], upper=d["upper"])


# --------------------------------------------------------------------------
# quadratic problem schema
# --------------------------------------------------------------------------


def quadratic_problem_from_dict(data: dict) -> SipProblem:
    """A quadratic problem file as a SipProblem.  The objective's Lipschitz
    constant is derived from Q, c and the x box, never read from the file;
    a file without ``slater_point`` gets one from
    ``drivers.synthesize_slater_point``."""
    for key in ("x_box", "y_box", "objective", "constraints"):
        if key not in data:
            raise InputError(f"problem file missing field '{key}'")
    x_box = box_from_dict(data["x_box"], "x_box")
    y_box = box_from_dict(data["y_box"], "y_box")
    p = x_box.dim
    obj = data["objective"]
    if not isinstance(obj, dict) or "Q" not in obj or "c" not in obj:
        raise InputError("objective: needs matrix 'Q' and vector 'c'")
    if "lipschitz" in obj:
        raise InputError("objective.lipschitz is not allowed: it is derived from Q, c and x_box")
    if not isinstance(data["constraints"], list) or not data["constraints"]:
        raise InputError("constraints: need a nonempty list")
    Q = finite_array(obj["Q"], "objective.Q")
    if Q.shape != (p, p):
        raise InputError(f"objective.Q must be {p}x{p}")
    Q = 0.5 * (Q + Q.T)
    eigs = np.linalg.eigvalsh(Q)
    if eigs.min() < -1e-9 * max(1.0, abs(eigs.max())):
        raise InputError(f"objective not convex: Q has eigenvalue {eigs.min():.3e}")
    c = finite_array(obj["c"], "objective.c").reshape(p)
    Q.setflags(write=False)
    c.setflags(write=False)
    form = QuadraticForm(Q=Q, c=c, d=finite_float(obj.get("d", 0.0), "objective.d"))
    families = []
    for k, spec in enumerate(data["constraints"]):
        if not isinstance(spec, dict) or "a" not in spec or "b" not in spec:
            raise InputError(f"constraints[{k}]: needs fields 'a' and 'b'")
        a = [
            poly_from_terms(terms, y_box.dim, f"constraints[{k}].a[{j}]")
            for j, terms in enumerate(spec["a"])
        ]
        if len(a) != p:
            raise InputError(f"constraints[{k}].a needs one polynomial per x dimension")
        b = poly_from_terms(spec["b"], y_box.dim, f"constraints[{k}].b")
        families.append(affine_polynomial_family(k, a, b, x_box, y_box))
    slater = data.get("slater_point")
    problem = SipProblem(
        x_domain=x_box,
        y_domain=y_box,
        objective=ConvexObjective.from_quadratic(form, x_box),
        constraints=tuple(families),
        slater_point=None if slater is None else finite_array(slater, "slater_point"),
    )
    if slater is None:
        return synthesize_slater_point(problem)
    return problem


# --------------------------------------------------------------------------
# regression schema
# --------------------------------------------------------------------------


def read_input_text(path: Path, what: str) -> str:
    """The text of a UTF-8 input file; a file that cannot be read or decoded
    is an InputError naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
    raise InputError(f"cannot read {what} {path}: {reason}")


def read_data_csv(path: Path, input_dim: int) -> np.ndarray:
    """CSV ingestion: one column per input dimension, then the target."""
    rows = []
    text = read_input_text(path, "data file")
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline=""))):
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
        arr = data["data"]
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
            where = f"constraints[{k}].weights"
            alpha = tuple(integral(pair[0], f"{where}: multi-index"))
            weights[alpha] = finite_float(pair[1], where)
        offset = finite_float(item.get("offset", 0.0), f"constraints[{k}].offset")
        constraints.append(ShapeConstraint(weights=weights, offset=offset))
    slater = data.get("slater_point")
    return RegressionSpec(
        data=finite_array(arr, "data"),
        degree=int(integral(data["degree"], "degree")),
        coeff_box=coeff_box,
        u_domain=u_box,
        ridge=finite_float(data.get("ridge", 1e-6), "ridge"),
        shape_constraints=tuple(constraints),
        slater_point=None if slater is None else finite_array(slater, "slater_point"),
    )


# --------------------------------------------------------------------------
# top-level loader and writers
# --------------------------------------------------------------------------


def load_problem(source) -> SipProblem:
    """Load and validate a SipProblem from a JSON file path, a parsed dict or
    a builtin: reference.  A declared Slater point is certified here, once:
    the problem keeps the certificate as ``problem.eps_star``."""
    from .instances import builtin

    base_dir = None
    if isinstance(source, (str, Path)):
        text = str(source)
        if text.startswith("builtin:"):
            return builtin(text.split(":", 1)[1])
        path = Path(text)
        base_dir = path.parent
        try:
            data = json.loads(read_input_text(path, "problem file"))
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
            problem = build_problem(regression_spec_from_dict(data, base_dir))
        elif kind == "quadratic":
            problem = quadratic_problem_from_dict(data)
        else:
            raise InputError(f"unknown problem type {kind!r}")
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # a field of the wrong type, such as a string where a number belongs
        raise InputError(f"malformed problem field: {exc}") from None
    if problem.slater_point is not None:
        problem.eps_star  # an InputError when the Slater point fails
    return problem


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
        "outer_iterations": outcome.outer,
        "inner_iterations": len(outcome.trace.rows),
        "oracle_evals": outcome.oracle_evals,
    }
    Path(path).write_text(dumps_17g(payload) + "\n")


def write_trace_csv(path, trace) -> None:
    Path(path).write_text(trace.to_csv())
