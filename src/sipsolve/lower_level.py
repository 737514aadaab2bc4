"""Certified global maximization over all constraint families at once.

With finitely many families the lower-level problem at x is one maximum of
g_i(x, y) over I x Y.  The maximizer runs a round-synchronous branch and
bound over (family, cell) pairs, held as arrays of cell bounds, center
values and Lipschitz constants sorted by family.  Each cell is scored by its
center value plus the Lipschitz overestimate over the cell.  A round drops
every cell whose score is within the requested gap of the best value found
in any family, splits every other cell along its longest axis and evaluates
the children with one ``eval_grid`` call per family (its ``batch_eval``
when it has one); a call whose root cells already score within the gap
returns before it builds any frontier array.

Past the root, a family with ``second_order_in_y_at`` gets its model
(grad, M) at x once per call.  Its cells then score the smaller of two
valid bounds: the Lipschitz score, and the Taylor bound g(c) +
sum_j |dg/dy_j(c)| r_j + 1/2 sum_jk M_jk r_j r_k over a cell with center c
and half-widths r.  Each such cell is also evaluated at its model vertex
(hi where dg/dy_j(c) > 0, lo where it is < 0, c where it is 0), which puts
incumbents on the faces of the box, where centers never lie.  So a round
prunes at least what the Lipschitz score alone prunes, and a maximum on a
face with a large outward slope no longer needs cells of width about
delta / slope.  A call in which no family has the oracle runs the
Lipschitz rounds alone.

The returned value is always the scalar oracle's own ``g_i(x, y_star)``: a
batch value, of a center or a vertex, that beats the incumbent is
re-evaluated through ``value`` first.  The upper bound is the largest
score of a live or dropped cell, so the certificate is sound whenever each
declared ``lipschitz_in_y`` really is a max-metric Lipschitz constant and
each declared M bounds the second y-partials over the box; oracle values
are taken as exact.  A family cannot supply its own maximizer, and a
family constant in y (Lipschitz constant 0) needs no special case: its
cells score exactly their center values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InputError
from .problem import as_point

# Cells a single certified_max call may split before it gives up, counted
# over all families of the call.
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CertifiedMax:
    """delta-approximate maximizer over I x Y with a provable optimality gap.

    value is exactly g_family(x, y_star) as that family's oracle returns
    it, and sup_Y g_i(x, .) <= value + gap for every family i of the call.
    ``family`` is the ``index`` of the family the maximizer belongs to.
    ``evals`` counts oracle values (cell centers, model vertices and scalar
    re-evaluations) and gradient rows.
    """

    y_star: np.ndarray
    value: float
    gap: float
    family: int
    evals: int = 0

    def __post_init__(self):
        if self.gap < 0:
            raise InputError("certificate gap must be nonnegative")
        object.__setattr__(self, "y_star", as_point(self.y_star))

    @property
    def bound(self) -> float:
        """value + gap, at least max_i sup_Y g_i(x, .) over the call's
        families."""
        return self.value + self.gap


def certified_max(families, x, delta: float) -> CertifiedMax:
    """Compute a certified delta-approximate solution of max_{i, y} g_i(x, y)
    over the given constraint families.

    Deterministic: identical inputs produce bit-identical outputs, and ties
    go to the earlier family.  Raises CertificationError if more than
    NODE_BUDGET cells are split before the gap closes, which cannot happen
    when every lipschitz_in_y is a true Lipschitz constant and delta is
    resolvable at float resolution.  Raises InputError when an oracle
    returns a non-finite value: the Lipschitz bound says nothing about a
    cell whose center has no value.
    """
    if not delta > 0:  # also false for NaN
        raise InputError("delta must be positive")
    if not families:
        raise InputError("certified_max needs at least one constraint family")
    p = as_point(x)
    # the root: one cell per family; the first maximum is the incumbent
    centers = [fam.y_domain.center() for fam in families]
    vals = [float(fam.value(p, c)) for fam, c in zip(families, centers)]
    for fam, v in zip(families, vals):
        fam.require_finite(math.isfinite(v))
    k = vals.index(max(vals))
    best_val, best_y, best_fam = vals[k], centers[k], families[k]
    evals = len(families)
    lips = [fam.local_lipschitz_in_y(p) for fam in families]

    def certificate(upper: float) -> CertifiedMax | None:
        if upper - best_val > delta:
            return None
        return CertifiedMax(
            y_star=best_y, value=best_val, gap=max(upper - best_val, 0.0),
            family=best_fam.index, evals=evals,
        )

    # the root's scores, with the same operations as a round's
    root = max(
        v + lip * (0.5 * fam.y_domain.diameter())
        for fam, v, lip in zip(families, vals, lips)
    )
    if (done := certificate(root)) is not None:
        return done
    # the live frontier: cell bounds (n, q), center values and Lipschitz
    # constants (n,); family k owns the rows edges[k]:edges[k + 1]
    lo = np.array([fam.y_domain.lower for fam in families])
    hi = np.array([fam.y_domain.upper for fam in families])
    val = np.array(vals)
    lip = np.array(lips)
    edges = list(range(len(families) + 1))
    dropped = -np.inf  # largest score of a cell dropped for good
    nodes = 0

    def offer(v: np.ndarray, ys: np.ndarray) -> None:
        """Take the largest batch value v[i] at ys[i] as the incumbent if it
        beats it, through the scalar oracle's value."""
        nonlocal best_val, best_y, best_fam, evals
        top = int(v.argmax())
        if v[top] > best_val:
            fam = families[bisect.bisect_right(edges, top) - 1]
            s = float(fam.value(p, ys[top]))
            fam.require_finite(math.isfinite(s))
            evals += 1
            if s > best_val:
                best_val, best_y, best_fam = s, ys[top], fam

    # second-order models, built only once the root fails; a call without
    # any keeps the Lipschitz scores alone
    models = [fam.second_order_model(p) for fam in families]
    if all(model is None for model in models):
        models = None
    else:
        taylor, vertices, vertex_vals, n = _second_order(
            families, models, edges, p, lo, hi, np.array(centers), val
        )
        evals += n
        offer(vertex_vals, vertices)
    while True:
        width = hi - lo
        score = val + lip * (0.5 * width.max(axis=1))
        if models is not None:
            score = np.minimum(score, taylor)
        upper = max(float(score.max()), dropped)
        if (done := certificate(upper)) is not None:
            return done
        live = score - best_val > delta
        if not live.all():
            dropped = max(dropped, float(score[~live].max()))
            lo, hi, width, lip = lo[live], hi[live], width[live], lip[live]
            edges = [0, *(np.count_nonzero(live[:e]) for e in edges[1:-1]), len(lo)]
        nodes += len(lo)
        if nodes > NODE_BUDGET:
            raise CertificationError(
                f"cell budget {NODE_BUDGET} exhausted at gap "
                f"{upper - best_val:.3e} (requested {delta:.3e})"
            )
        lo, hi, floor = _split(lo, hi, width.argmax(axis=1))
        lip, edges = lip.repeat(2), [2 * e for e in edges]
        centers = 0.5 * (lo + hi)
        # the children of a cell at float resolution are its exact
        # endpoints; the scalar oracle scores them, so once they update
        # the incumbent they can never outscore it
        exact = floor.repeat(2) if floor.any() else None
        val = np.empty(len(lo))
        for fam, a, b in zip(families, edges, edges[1:]):
            if a == b:
                continue
            v, c = val[a:b], centers[a:b]
            v[:] = fam.eval_grid(p, c)
            if exact is not None:
                for i in np.flatnonzero(exact[a:b]):
                    v[i] = s = float(fam.value(p, c[i]))
                    fam.require_finite(math.isfinite(s))
                    if s > best_val:
                        best_val, best_y, best_fam = s, c[i], fam
        evals += len(val)
        offer(val, centers)
        if models is not None:
            taylor, vertices, vertex_vals, n = _second_order(
                families, models, edges, p, lo, hi, centers, val
            )
            evals += n
            offer(vertex_vals, vertices)


def _second_order(families, models, edges, p, lo, hi, centers, val):
    """Second-order scores, model vertices and vertex values of the cells,
    plus the evaluations spent: one gradient row and one value per cell of
    a family with a model.

    A cell with center c, half-widths r and center value g(c) of a family
    with a model (grad, M) scores g(c) + sum_j |dg/dy_j(c)| r_j +
    1/2 sum_jk M_jk r_j r_k, which bounds g over the cell by Taylor's
    theorem; its vertex is hi where dg/dy_j(c) > 0, lo where it is < 0 and
    c elsewhere, the maximizer of the model's linear part.  Cells of a
    family without a model score +inf and their vertex value is -inf.
    """
    half = 0.5 * (hi - lo)
    taylor = np.full(len(lo), np.inf)
    vertices = centers.copy()
    vertex_vals = np.full(len(lo), -np.inf)
    evals = 0
    for fam, model, a, b in zip(families, models, edges, edges[1:]):
        if model is None or a == b:
            continue
        grad, M = model
        g = np.asarray(grad(centers[a:b]), dtype=float)
        fam.require_finite(np.isfinite(g).all(), "y-gradient")
        r = half[a:b]
        taylor[a:b] = (
            val[a:b] + (np.abs(g) * r).sum(axis=1) + 0.5 * ((r @ M) * r).sum(axis=1)
        )
        c = centers[a:b]
        vertices[a:b] = np.where(g > 0, hi[a:b], np.where(g < 0, lo[a:b], c))
        vertex_vals[a:b] = fam.eval_grid(p, vertices[a:b])
        evals += 2 * int(b - a)
    return taylor, vertices, vertex_vals, evals


def _split(lo: np.ndarray, hi: np.ndarray, axis: np.ndarray):
    """Halve cell i along ``axis[i]`` into the children at rows 2i and
    2i + 1.  A cell whose midpoint rounds onto an endpoint becomes its two
    endpoints instead; the third return value marks those cells."""
    rows = np.arange(len(lo))
    a, b = lo[rows, axis], hi[rows, axis]
    mid = 0.5 * (a + b)
    floor = (mid <= a) | (mid >= b)
    child_lo, child_hi = lo.repeat(2, axis=0), hi.repeat(2, axis=0)
    child_hi[::2][rows, axis] = np.where(floor, a, mid)
    child_lo[1::2][rows, axis] = np.where(floor, b, mid)
    return child_lo, child_hi, floor

