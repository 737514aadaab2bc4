from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipsolve import core_loop, lower_level
from sipsolve.core_loop import CoreConfig, eventually_zero_schedule
from sipsolve.errors import CertificationError, InputError
from sipsolve.instances import default_y0, random_affine_instance
from sipsolve.lower_level import certified_max
from sipsolve.polynomials import Polynomial, affine_polynomial_family
from sipsolve.problem import BoxDomain, ConstraintFamily


class TestCertifiedMax:
    def test_instance_a_midpoint(self, prob_a):
        cm = certified_max([prob_a.constraints[0]], np.array([0.5]), 1e-6)
        assert cm.gap <= 1e-6
        assert abs(cm.y_star[0] - 1.0) <= 2e-6
        assert abs(cm.value - 0.5) <= 2e-6
        # the certificate covers the true supremum
        assert cm.value + cm.gap >= 0.5 - 1e-12

    def test_instance_a_negative(self, prob_a):
        cm = certified_max([prob_a.constraints[0]], np.array([-0.1]), 1e-6)
        assert abs(cm.value - (-0.1)) <= 2e-6

    def test_instance_b(self, prob_b):
        # g((0,-2), y) = 2y - 1, maximum 1 at y = 1 (brute-checked in conftest)
        from conftest import grid_max_y

        cm = certified_max([prob_b.constraints[0]], np.array([0.0, -2.0]), 1e-6)
        brute, _ = grid_max_y(prob_b.constraints[0], [0.0, -2.0], n=4001)
        assert cm.value + cm.gap >= brute - 1e-12
        assert abs(cm.value - 1.0) <= 2e-6

    def test_instance_b_diagonal_is_constant_in_y(self, prob_b):
        # on x0 == x1 the family declares y-Lipschitz constant 0, so its
        # certificate is one evaluation: the oracle must not vary with y
        fam = prob_b.constraints[0]
        ys = fam.y_domain.grid(0.01)
        for t in np.random.default_rng(8).uniform(-3.0, 3.0, 2000):
            x = np.array([t, t])
            cm = certified_max([fam], x, 1e-6)
            assert cm.gap == 0.0
            assert fam.eval_grid(x, ys).max() <= cm.value

    def test_gap_never_exceeds_request(self, prob_a):
        for delta in (1e-2, 1e-4, 1e-8):
            cm = certified_max([prob_a.constraints[0]], np.array([0.3]), delta)
            assert 0.0 <= cm.gap <= delta

    def test_value_is_exact_reevaluation(self, prob_b):
        cm = certified_max([prob_b.constraints[0]], np.array([1.0, -2.0]), 1e-5)
        assert cm.value == prob_b.constraints[0].value(
            np.array([1.0, -2.0]), cm.y_star
        )

    def test_deterministic(self, prob_b):
        a = certified_max([prob_b.constraints[0]], np.array([0.7, -1.3]), 1e-7)
        b = certified_max([prob_b.constraints[0]], np.array([0.7, -1.3]), 1e-7)
        assert np.array_equal(a.y_star, b.y_star)
        assert a.value == b.value and a.gap == b.gap and a.evals == b.evals

    def test_rejects_nonpositive_delta(self, prob_a):
        with pytest.raises(InputError):
            certified_max([prob_a.constraints[0]], np.array([0.0]), 0.0)

    def test_rejects_nan_delta(self, prob_a):
        # a NaN request used to return the root certificate, gap 0.5
        with pytest.raises(InputError, match="delta"):
            certified_max(prob_a.constraints, [0.0], np.nan)

    def test_constant_family_single_eval(self, prob_sibling):
        # Lipschitz constant 0: the single cell's score is its center value,
        # so the first round returns it
        cm = certified_max([prob_sibling.constraints[0]], np.array([0.5]), 1e-9)
        assert np.array_equal(cm.y_star, prob_sibling.y_domain.center())
        assert cm.gap == 0.0
        assert cm.value == pytest.approx(-0.75)
        assert cm.evals == 1

    @pytest.mark.parametrize("delta", [1.0, 1.49, 1.5, 1.51, 2.0])
    def test_root_exit_is_the_first_round(self, delta):
        # g(x, y) = y0 + 2 y1 on [0, 1]^2 with Lipschitz constant 3 (max
        # metric): the root cell scores 1.5 + 3 * 0.5 = 3, the supremum, so
        # the call ends at the root exactly when 3 - 1.5 <= delta
        fam = ConstraintFamily(
            index=0,
            value=lambda x, y: float(y[0] + 2.0 * y[1]),
            subgradient_x=lambda x, y: np.zeros(1),
            lipschitz_in_y=3.0,
            y_domain=BoxDomain([0.0, 0.0], [1.0, 1.0]),
        )
        cm = certified_max([fam], np.zeros(1), delta)
        assert cm.value + cm.gap >= 3.0
        assert cm.gap <= delta
        if delta >= 1.5:
            assert (cm.evals, cm.value, cm.gap) == (1, 1.5, 1.5)
        else:
            assert cm.evals > 1

    def test_degenerate_box(self):
        fam = ConstraintFamily(
            index=0,
            value=lambda x, y: float(x[0] * y[0]),
            subgradient_x=lambda x, y: np.array([y[0]]),
            lipschitz_in_y=2.0,
            y_domain=BoxDomain([0.5], [0.5]),
        )
        cm = certified_max([fam], np.array([2.0]), 1e-9)
        assert cm.value == pytest.approx(1.0)
        assert cm.gap <= 1e-9

    def test_certificate_against_finer_grid_random(self):
        # soundness on random polynomial families: value + delta covers the
        # max over a grid 10x finer than the certificate resolution
        for seed in range(30):
            prob = random_affine_instance(seed)
            fam = prob.constraints[0]
            q = fam.y_domain.dim
            delta = 1e-3 if q == 1 else 0.05
            x = prob.x_domain.center() + 0.1 * prob.x_domain.widths
            x = prob.x_domain.clip(x)
            cm = certified_max([fam], x, delta)
            lip = max(fam.local_lipschitz_in_y(x), 1e-9)
            res = delta / lip / 10.0
            width = float(np.max(fam.y_domain.widths))
            res = max(res, width / 2000 if q == 1 else width / 400)
            ys = fam.y_domain.grid(res)
            finer = float(np.max(fam.eval_grid(x, ys)))
            assert cm.value + delta >= finer - 1e-12, seed


@lru_cache(maxsize=None)
def _instance(seed):
    return random_affine_instance(seed)


def _seeds(q):
    """Seeds of random_affine_instance whose index box has dimension q."""
    return [s for s in range(40) if _instance(s).y_domain.dim == q][:12]


DELTAS_BY_Q = {1: (1e-2, 1e-4, 1e-7), 2: (1e-1, 1e-2, 1e-3)}


def _case(q):
    """A family of a random affine instance, a point of its decision box and
    a gap request."""
    return st.tuples(
        st.sampled_from(_seeds(q)),
        st.integers(0, 2),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        st.sampled_from(DELTAS_BY_Q[q]),
    ).map(lambda c: _resolve(*c))


def _resolve(seed, fam_pick, u, delta):
    prob = _instance(seed)
    fam = prob.constraints[fam_pick % len(prob.constraints)]
    X = prob.x_domain
    return fam, X.lower + np.array(u[: X.dim]) * X.widths, delta


class TestCertifiedMaxProperties:
    @pytest.mark.parametrize("q", [1, 2])
    def test_random_families(self, q):
        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(_case(q))
        def check(case):
            fam, x, delta = case
            cm = certified_max([fam], x, delta)
            assert 0.0 <= cm.gap <= delta
            assert cm.value == fam.value(x, cm.y_star)
            assert fam.y_domain.contains(cm.y_star, tol=0.0)
            # value + gap bounds the supremum, so also every grid value
            ys = fam.y_domain.grid(fam.y_domain.diameter() / (2000 if q == 1 else 150))
            assert cm.value + cm.gap >= float(np.max(fam.eval_grid(x, ys))) - 1e-12
            again = certified_max([fam], x, delta)
            assert again.y_star.tobytes() == cm.y_star.tobytes()
            assert (again.value, again.gap, again.evals) == (cm.value, cm.gap, cm.evals)

        check()


def _multi_family_seeds(q):
    """Seeds of random_affine_instance with several families and an index
    box of dimension q."""
    return [
        s for s in range(40)
        if _instance(s).y_domain.dim == q and len(_instance(s).constraints) > 1
    ][:12]


class TestJointFrontier:
    """One call certifies the maximum over every family of an instance."""

    @pytest.mark.parametrize("q", [1, 2])
    def test_random_instances(self, q):
        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(
            st.sampled_from(_multi_family_seeds(q)),
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
            st.sampled_from((1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)),
        )
        def check(seed, u, delta):
            prob = _instance(seed)
            X = prob.x_domain
            x = X.lower + np.array(u[: X.dim]) * X.widths
            cm = certified_max(prob.constraints, x, delta)
            assert 0.0 <= cm.gap <= delta
            assert prob.y_domain.contains(cm.y_star, tol=0.0)
            (fam,) = [f for f in prob.constraints if f.index == cm.family]
            assert cm.value == fam.value(x, cm.y_star)
            ys = prob.y_domain.grid(prob.y_domain.diameter() / (2000 if q == 1 else 150))
            grid = max(float(np.max(f.eval_grid(x, ys))) for f in prob.constraints)
            assert cm.value + cm.gap >= grid - 1e-12
            assert cm.value >= grid - delta - 1e-12

        check()

    @pytest.mark.parametrize("batch", [False, True])
    def test_nan_names_the_second_family(self, batch):
        # the first family is finite everywhere; the second returns NaN for
        # y > 0.7, which its first children reach
        box = BoxDomain([0.0], [1.0])
        first = replace(
            _family(lambda x, y: -abs(float(y[0]) - 0.5), 1.0, box), index=4
        )
        g = TestNonFiniteOracle._g
        second = replace(
            _family(
                lambda x, y: float(g(y[0])), 1.0, box,
                batch_eval=(lambda x, ys: g(ys[:, 0])) if batch else None,
            ),
            index=7,
        )
        with pytest.raises(InputError, match="family 7"):
            certified_max([first, second], np.zeros(1), 1e-6)

    def test_no_family_rejected(self):
        with pytest.raises(InputError, match="at least one constraint family"):
            certified_max([], np.zeros(1), 1e-3)

    def test_node_budget_counts_every_family(self, monkeypatch):
        # three copies of one family split three times the cells of one
        fam = _instance(1).constraints[0]
        copies = [replace(fam, index=k) for k in range(3)]
        x, delta = _instance(1).x_domain.center(), 1e-6
        nodes = []
        split = lower_level._split

        def counting(lo, hi, axis):
            nodes.append(len(lo))
            return split(lo, hi, axis)

        monkeypatch.setattr(lower_level, "_split", counting)
        alone = certified_max([fam], x, delta)
        n = sum(nodes)
        assert n > 0
        monkeypatch.setattr(lower_level, "NODE_BUDGET", 3 * n)
        joint = certified_max(copies, x, delta)
        assert (joint.value, joint.gap, joint.family) == (alone.value, alone.gap, 0)
        monkeypatch.setattr(lower_level, "NODE_BUDGET", 3 * n - 1)
        with pytest.raises(CertificationError, match=f"cell budget {3 * n - 1} exhausted"):
            certified_max(copies, x, delta)


def _family(value, lipschitz, box, batch_eval=None):
    return ConstraintFamily(
        index=0,
        value=value,
        subgradient_x=lambda x, y: np.zeros(len(x)),
        lipschitz_in_y=lipschitz,
        y_domain=box,
        batch_eval=batch_eval,
    )


class TestCertifiedMaxCases:
    # g(y) = sum_k c_k y^k with terms that cancel, so the order of the sum
    # changes the last bits
    COEFFS = (0.1, 3.3, -7.7, 4.4, 0.7)

    @classmethod
    def forward(cls, x, y):
        total = 0.0
        for k, c in enumerate(cls.COEFFS):
            total += c * float(y[0]) ** k
        return total

    @classmethod
    def backward(cls, x, ys):
        total = np.zeros(len(ys))
        for k in reversed(range(len(cls.COEFFS))):
            total = total + cls.COEFFS[k] * ys[:, 0] ** k
        return total

    def test_batch_summing_in_another_order(self):
        box = BoxDomain([0.0], [1.0])
        ys = box.grid(1e-4)
        fam = _family(self.forward, 40.0, box, batch_eval=self.backward)
        scalar = np.array([self.forward(None, y) for y in ys])
        assert np.any(fam.eval_grid(None, ys) != scalar)  # the orders do differ
        for delta in (1e-3, 1e-8, 1e-12):
            cm = certified_max([fam], np.zeros(1), delta)
            assert cm.value == self.forward(None, cm.y_star)
            assert 0.0 <= cm.gap <= delta
            assert cm.value + cm.gap >= float(scalar.max()) - 1e-12

    def test_batch_reading_high(self):
        # a batch value above the scalar one is never taken as the value
        box = BoxDomain([0.0], [1.0])
        fam = _family(self.forward, 40.0, box,
                      batch_eval=lambda x, ys: self.backward(x, ys) + 1e-13)
        cm = certified_max([fam], np.zeros(1), 1e-9)
        assert cm.value == self.forward(None, cm.y_star)
        assert cm.gap <= 1e-9

    def test_batch_as_a_column_or_a_list(self):
        # eval_grid reads a batch that is not a float64 vector as the same
        # values, so the call certifies the same maximum
        box = BoxDomain([0.0], [1.0])
        vector_fam = _family(self.forward, 40.0, box, self.backward)
        vector = certified_max([vector_fam], np.zeros(1), 1e-6)
        for form in (lambda v: v[:, None], lambda v: v.tolist()):
            fam = _family(
                self.forward, 40.0, box,
                batch_eval=lambda x, ys, form=form: form(self.backward(x, ys)),
            )
            cm = certified_max([fam], np.zeros(1), 1e-6)
            assert cm.y_star.tobytes() == vector.y_star.tobytes()
            assert (cm.value, cm.gap, cm.evals) == (vector.value, vector.gap, vector.evals)

    def test_without_batch_eval(self):
        box = BoxDomain([-1.0, 0.0], [1.0, 2.0])

        def value(x, y):
            return -float((y[0] - 0.3) ** 2) - float((y[1] - 1.7) ** 2) + float(x[0])

        def batch(x, ys):
            return -((ys[:, 0] - 0.3) ** 2) - (ys[:, 1] - 1.7) ** 2 + float(x[0])

        scalar_only = certified_max([_family(value, 6.0, box)], np.array([0.5]), 1e-3)
        batched = certified_max([_family(value, 6.0, box, batch)], np.array([0.5]), 1e-3)
        # the vectorized batch computes the same float operations
        assert scalar_only.y_star.tobytes() == batched.y_star.tobytes()
        assert (scalar_only.value, scalar_only.gap, scalar_only.evals) == (
            batched.value, batched.gap, batched.evals)
        assert scalar_only.value == pytest.approx(0.5, abs=1e-3)
        assert scalar_only.gap <= 1e-3

    def test_box_one_ulp_wide(self):
        # the root cell cannot be certified, and its midpoint rounds onto an
        # endpoint: the split scores the two endpoints exactly
        a = 1.0
        b = float(np.nextafter(a, 2.0))
        fam = _family(lambda x, y: float(x[0] * y[0]), 1e20, BoxDomain([a], [b]))
        cm = certified_max([fam], np.array([2.0]), 1e-12)
        assert cm.y_star[0] == b
        assert cm.value == 2.0 * b
        assert cm.gap == 0.0
        assert cm.evals == 3

    def test_box_one_ulp_wide_with_a_model(self):
        # g = -1e20 y on [1, 1 + ulp]: the root's center and model vertex are
        # both y = 1, and its scores exceed g(1) by about 1e4, so the call
        # splits the root into its exact endpoints, which the scalar oracle
        # scores before their (zero-width) Taylor scores are formed
        a = 1.0
        b = float(np.nextafter(a, 2.0))
        box = BoxDomain([a], [b])
        slope = Polynomial(np.array([[1]]), np.array([-1e20]))
        fam = affine_polynomial_family(
            0, [Polynomial.zero(1)], slope, BoxDomain([-1.0], [1.0]), box
        )
        cm = certified_max([fam], np.zeros(1), 1e-12)
        assert cm.y_star[0] == a
        assert cm.value == -1e20
        assert cm.gap == 0.0
        # the root's value, gradient row and vertex, then two children with
        # a value, a gradient row and a vertex each
        assert cm.evals == 9

    def test_two_tents_with_known_supremum(self):
        # g = max of two tents of slope L, one peaking at exactly 1 and one a
        # little lower: cells around the higher peak are often dropped
        # before the lower one is resolved, and still bound the supremum
        rng = np.random.default_rng(0)
        lip = 4.0
        for _ in range(300):
            pa, pb = rng.uniform(0.0, 1.0, 2)
            delta = 10 ** rng.uniform(-6, -2)
            hb = 1.0 - rng.uniform(0.0, 2.0) * delta

            def value(x, y, pa=pa, pb=pb, hb=hb):
                return max(1.0 - lip * abs(y[0] - pa), hb - lip * abs(y[0] - pb))

            cm = certified_max([_family(value, lip, BoxDomain([0.0], [1.0]))], np.zeros(1), delta)
            assert cm.value + cm.gap >= 1.0
            assert 0.0 <= cm.gap <= delta

    def test_node_budget(self, prob_b, monkeypatch):
        fam = prob_b.constraints[0]
        x = np.array([0.7, -1.3])
        with monkeypatch.context() as m:
            m.setattr(lower_level, "NODE_BUDGET", 5)
            with pytest.raises(CertificationError, match="cell budget 5 exhausted"):
                certified_max([fam], x, 1e-9)
        assert certified_max([fam], x, 1e-9).gap <= 1e-9


class TestNonFiniteOracle:
    # g = NaN for y > 0.7 and -|y - 0.2| elsewhere: a certificate for the
    # whole box would cover a part the oracle never bounded
    @staticmethod
    def _g(y):
        return np.where(y > 0.7, np.nan, -np.abs(y - 0.2))

    def test_scalar_oracle(self):
        fam = replace(
            _family(lambda x, y: float(self._g(y[0])), 1.0, BoxDomain([0.0], [1.0])),
            index=3,
        )
        with pytest.raises(InputError, match="family 3"):
            certified_max([fam], np.zeros(1), 1e-6)

    def test_batch_oracle(self):
        fam = _family(
            lambda x, y: float(self._g(y[0])), 1.0, BoxDomain([0.0], [1.0]),
            batch_eval=lambda x, ys: self._g(ys[:, 0]),
        )
        with pytest.raises(InputError, match="family 0"):
            certified_max([fam], np.zeros(1), 1e-6)

    def test_nonfinite_center(self):
        fam = _family(lambda x, y: np.inf, 0.0, BoxDomain([0.0], [1.0]))
        with pytest.raises(InputError, match="non-finite"):
            certified_max([fam], np.zeros(1), 1e-6)

    @staticmethod
    def _modeled(bad_values):
        # b(y) = 1.8 y - y^2 on [0, 1], whose y-gradient is NaN on (0.7, 0.8),
        # and so are its batch values when ``bad_values``: the root (center
        # 0.5, vertex 1) is finite, the child center 0.75 is not
        box = BoxDomain([0.0], [1.0])
        b = Polynomial(np.array([[1], [2]]), np.array([1.8, -1.0]))
        fam = affine_polynomial_family(0, [Polynomial.zero(1)], b, BoxDomain([-1.0], [1.0]), box)
        model, batch = fam.second_order_in_y_at, fam.batch_eval

        def hole(ys, v):
            ys = np.asarray(ys, dtype=float)[:, 0]
            return np.where((ys > 0.7) & (ys < 0.8), np.nan, v)

        def second_order(x):
            grad, M = model(x)
            return (lambda ys: hole(ys, grad(ys).T).T), M

        def batch_eval(x, ys):
            return hole(ys, batch(x, ys)) if bad_values else batch(x, ys)

        return replace(fam, second_order_in_y_at=second_order, batch_eval=batch_eval)

    def test_a_family_names_its_value_before_its_gradient(self):
        with pytest.raises(InputError, match="family 0 returned a non-finite value"):
            certified_max([self._modeled(True)], np.zeros(1), 1e-6)

    def test_families_are_checked_in_order(self):
        # family 0's gradient and family 1's value are both NaN at y = 0.75;
        # the one pass over the families reaches family 0's rows first
        other = replace(
            _family(
                lambda x, y: float(self._g(y[0])), 10.0, BoxDomain([0.0], [1.0]),
                batch_eval=lambda x, ys: self._g(ys[:, 0]),
            ),
            index=1,
        )
        with pytest.raises(InputError, match="family 0 returned a non-finite y-gradient"):
            certified_max([self._modeled(False), other], np.zeros(1), 1e-6)


class TestDeclaredBounds:
    """A per-x Lipschitz constant or a second-order bound M that is NaN or
    negative would certify a wrong maximum; it is an InputError naming the
    family."""

    @pytest.mark.parametrize("lip", [np.nan, -5.0])
    def test_per_x_lipschitz_constant(self, lip):
        # g = y on [0, 1] peaks at 1; a constant clipped to 0 declared the
        # family constant in y and certified the center value 0.5, gap 0
        fam = replace(
            _family(lambda x, y: float(y[0]), 1.0, BoxDomain([0.0], [1.0])),
            index=2, lipschitz_in_y_at=lambda x: lip,
        )
        with pytest.raises(InputError, match="family 2"):
            certified_max([fam], np.zeros(1), 1e-6)

    @pytest.mark.parametrize(
        "bad", [lambda M: np.full_like(M, np.nan), lambda M: -10.0 * np.abs(M)],
        ids=["nan", "negative"],
    )
    def test_second_order_bound(self, bad):
        # b(y) = 1.8 y - y^2 peaks at 0.81 at y = 0.9; a NaN M certified 0.8
        # with gap NaN, a negative one 0.8 with gap 0
        box = BoxDomain([0.0], [1.0])
        b = Polynomial(np.array([[1], [2]]), np.array([1.8, -1.0]))
        fam = affine_polynomial_family(1, [Polynomial.zero(1)], b, BoxDomain([-1.0], [1.0]), box)
        assert certified_max([fam], np.zeros(1), 1e-6).value > 0.8099
        model = fam.second_order_in_y_at

        def mutated(x):
            grad, M = model(x)
            return grad, bad(M)

        with pytest.raises(InputError, match="family 1"):
            certified_max([replace(fam, second_order_in_y_at=mutated)], np.zeros(1), 1e-6)


class TestSingleRoute:
    def test_family_cannot_supply_its_own_maximizer(self, prob_a):
        base = prob_a.constraints[0]
        with pytest.raises(TypeError):
            ConstraintFamily(
                index=0,
                value=base.value,
                subgradient_x=base.subgradient_x,
                lipschitz_in_y=1.0,
                y_domain=base.y_domain,
                custom_maximizer=lambda x, d: None,
            )


class TestSecondOrderModel:
    """Cells of a family with a second-order oracle score the smaller of the
    Lipschitz and the Taylor bound, and each cell's model vertex is
    evaluated as an incumbent candidate."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 39),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        st.sampled_from((1e-1, 1e-3, 1e-6)),
    )
    def test_value_and_bound_bracket_a_dense_grid(self, seed, u, delta):
        prob = _instance(seed)
        X, Y = prob.x_domain, prob.y_domain
        x = X.lower + np.array(u[: X.dim]) * X.widths
        cm = certified_max(prob.constraints, x, delta)
        assert 0.0 <= cm.gap <= delta
        assert Y.contains(cm.y_star, tol=0.0)
        res = Y.diameter() / (2000 if Y.dim == 1 else 150)
        ys = Y.grid(res)
        grid = max(float(np.max(f.eval_grid(x, ys))) for f in prob.constraints)
        # every point of the box lies within res / 2 of the grid
        slack = max(f.local_lipschitz_in_y(x) for f in prob.constraints) * res / 2
        assert cm.value <= grid + slack + 1e-12
        assert grid <= cm.value + cm.gap + 1e-12

    def test_face_maximum_at_tight_gap(self):
        # seed 13, family 2 peaks on the face y_2 = upper, with slope 2.58
        # across it: center incumbents alone would need cells about
        # 1e-9 / 2.58 wide there, some 3M evaluations
        prob = _instance(13)
        fam, x = prob.constraints[2], prob.slater_point
        cm = certified_max([fam], x, 1e-9)
        assert cm.gap <= 1e-9 and cm.evals <= 1_000
        assert cm.y_star[1] == fam.y_domain.upper[1]
        grad, _ = fam.second_order_in_y_at(x)
        assert grad(cm.y_star)[0, 1] > 2.5

    def test_without_the_model_the_lipschitz_route_certifies(self):
        prob = _instance(13)
        fam, x = prob.constraints[2], prob.slater_point
        with_model = certified_max([fam], x, 1e-6)
        stripped = certified_max([replace(fam, second_order_in_y_at=None)], x, 1e-6)
        assert stripped.gap <= 1e-6
        assert stripped.evals > 100 * with_model.evals
        # both brackets hold the supremum
        assert stripped.value <= with_model.value + with_model.gap
        assert with_model.value <= stripped.value + stripped.gap

    @pytest.mark.parametrize(
        "transform, covered",
        [
            (lambda grad, M: (grad, M), True),
            (lambda grad, M: (grad, 0.5 * M), False),
            (lambda grad, M: (lambda ys: 0.0 * grad(ys), M), False),
        ],
        ids=["exact", "M_halved", "no_gradient"],
    )
    def test_each_term_of_the_taylor_score_is_needed(self, transform, covered):
        # g = y0 y1 + y0 / 2 on [-1, 1]^2 peaks at 1.5 in the corner (1, 1);
        # the root's vertex (1, 0) reads 0.5, and its Taylor score
        # 0 + 1/2 + 1/2 (M01 + M10) is exactly 1.5.  A constant family at
        # 1.2 holds the incumbent: a root score below it drops the cell and
        # certifies 1.2
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        x_box = BoxDomain([-1.0], [1.0])
        b = Polynomial(np.array([[1, 1], [1, 0]]), np.array([1.0, 0.5]))
        g = affine_polynomial_family(0, [Polynomial.zero(2)], b, x_box, box)
        const = affine_polynomial_family(
            1, [Polynomial.zero(2)], Polynomial.constant(2, 1.2), x_box, box
        )
        model = g.second_order_in_y_at
        mutant = replace(g, second_order_in_y_at=lambda x: transform(*model(x)))
        cm = certified_max([mutant, const], np.zeros(1), 1e-6)
        assert (cm.value + cm.gap >= 1.5) is covered

    def test_model_is_built_only_past_the_root(self):
        # the root exit comes first: a call it ends never asks for a model
        prob = _instance(13)
        fam, x = prob.constraints[2], prob.slater_point

        def no_model(x):
            raise AssertionError("model built for a call the root certifies")

        cm = certified_max([replace(fam, second_order_in_y_at=no_model)], x, 10.0)
        assert cm.evals == 1

    def test_evals_count_centers_vertices_and_gradients(self):
        # g = y on [0, 1]: the root's center 0.5 scores 1 by either bound,
        # so delta 0.4 takes the call past the root, where it spends one
        # gradient row, the vertex y = 1 and that vertex's scalar value
        box = BoxDomain([0.0], [1.0])
        y = Polynomial(np.array([[1]]), np.array([1.0]))
        fam = affine_polynomial_family(0, [Polynomial.zero(1)], y, BoxDomain([-1.0], [1.0]), box)
        cm = certified_max([fam], np.zeros(1), 0.4)
        assert (cm.value, cm.gap, cm.evals) == (1.0, 0.0, 4)


def _two_calls(fam):
    """``fam`` with a batch_eval that evaluates each half of an even batch
    in its own call: the order in which a round evaluated a modeled family's
    centers, then its vertices, before one call took both."""
    batch = fam.batch_eval

    def split(x, ys):
        n, odd = divmod(len(ys), 2)
        if odd:
            return batch(x, ys)
        return np.concatenate((batch(x, ys[:n]), batch(x, ys[n:])))

    return replace(fam, batch_eval=split)


class TestOneFamilyPass:
    """A round evaluates a modeled family's centers stacked over its
    vertices in one eval_grid call.  That keeps every bit of the two-call
    order only while a row's value does not depend on the batch it is in,
    which these tests check on the runner's own SIMD path."""

    def test_stacked_rows_equal_separate_calls(self):
        for seed in range(40):
            prob = random_affine_instance(seed)
            X = prob.x_domain
            rng = np.random.default_rng(seed)
            for fam in prob.constraints:
                Y = fam.y_domain
                for n in (1, 2, 3, 7, 8, 9, 33):
                    x = X.lower + rng.random(X.dim) * X.widths
                    ys = Y.lower + rng.random((2 * n, Y.dim)) * Y.widths
                    stacked = fam.eval_grid(x, ys)
                    halves = np.concatenate((fam.eval_grid(x, ys[:n]), fam.eval_grid(x, ys[n:])))
                    rows = np.array([fam.eval_grid(x, y[None])[0] for y in ys])
                    assert stacked.tobytes() == halves.tobytes() == rows.tobytes()

    @staticmethod
    def assert_same(families, x, delta):
        cm = certified_max(families, x, delta)
        ref = certified_max([_two_calls(fam) for fam in families], x, delta)
        assert cm.y_star.tobytes() == ref.y_star.tobytes()
        assert (cm.value, cm.gap, cm.family, cm.evals) == (
            ref.value, ref.gap, ref.family, ref.evals
        )
        assert type(cm.evals) is int
        return cm

    def test_random_core_certificates(self, monkeypatch):
        # c04's grid (eps in {0.5, 0.1} x rho in {0, inf}) over
        # random_affine_instance(0..5), the benchmark's random_core solves
        calls = []

        def recording(families, x, delta):
            calls.append((families, x.copy(), delta))
            return certified_max(families, x, delta)

        monkeypatch.setattr(core_loop, "certified_max", recording)
        for seed in range(6):
            prob = random_affine_instance(seed)
            for eps in (0.5, 0.1):
                for rho in (0.0, np.inf):
                    core_loop.run_core(prob, CoreConfig(
                        eps=eps, rho=rho, schedule=eventually_zero_schedule(0),
                        y0=default_y0(prob), max_iters=10_000,
                    ))
        assert calls
        for families, x, delta in calls:
            self.assert_same(families, x, delta)

    @pytest.mark.parametrize("delta", [1e-1, 1e-4, 1e-7])
    def test_random_points(self, delta):
        for seed in range(20):
            prob = random_affine_instance(seed)
            X = prob.x_domain
            x = X.lower + np.random.default_rng(seed).random(X.dim) * X.widths
            self.assert_same(list(prob.constraints), x, delta)
