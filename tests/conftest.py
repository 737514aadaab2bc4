from dataclasses import replace

import numpy as np
import pytest

from sipsolve.instances import (
    convex_gap_sibling,
    instance_a,
    instance_b,
    quasiconvex_gap,
    regression_r_spec,
)


@pytest.fixture(scope="session")
def prob_a():
    return instance_a()


@pytest.fixture(scope="session")
def prob_b():
    return instance_b()


@pytest.fixture(scope="session")
def prob_gap():
    return quasiconvex_gap()


@pytest.fixture(scope="session")
def prob_sibling():
    return convex_gap_sibling()


@pytest.fixture(scope="session")
def spec_r():
    return regression_r_spec()


def grid_min_1d(f, lo, hi, n=20001):
    """Brute-force minimum of a scalar function on [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    return float(vals[i]), float(xs[i])


def grid_max_y(family, x, n=20001):
    """Brute-force maximum of g(x, .) over the family's index box."""
    box = family.y_domain
    ys = box.grid((box.diameter() or 1.0) / (n - 1))
    vals = family.eval_grid(np.asarray(x, dtype=float), ys)
    i = int(np.argmax(vals))
    return float(vals[i]), ys[i]


def halved_second_order(fam):
    """fam with the second-derivative bound M of its model halved."""
    model = fam.second_order_in_y_at

    def halved(x):
        grad, M = model(x)
        return grad, 0.5 * M

    return replace(fam, second_order_in_y_at=halved)
