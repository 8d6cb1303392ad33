"""Oracle tests for the terminal solver's L-BFGS driver and its line search.

The oracles are independent of the rate problems: minimisers known in closed
form, the strong Wolfe conditions on Moré and Thuente's line-search test
functions ("Line search algorithms with guaranteed sufficient decrease",
ACM TOMS 1994, the functions of their numerical results), and an objective
that is finite only inside a ball.
"""

import math

import numpy as np
import pytest

import volterra_deviations.rate_functions as rf
from volterra_deviations.rate_functions import _lbfgs, _search

C1, C2 = 1e-3, 0.9  # L-BFGS-B's line-search tolerances


def rosenbrock(x):
    a, b = x
    f = 100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2
    g = np.array([-400.0 * a * (b - a * a) - 2.0 * (1.0 - a), 200.0 * (b - a * a)])
    return f, g


def _yanai(b1, b2):
    """Yanai, Ozawa and Kaneko's function, Moré-Thuente test functions 4-6."""
    g1, g2 = math.sqrt(1.0 + b1 * b1) - b1, math.sqrt(1.0 + b2 * b2) - b2

    def phi(a):
        r1, r2 = math.sqrt((1.0 - a) ** 2 + b2 * b2), math.sqrt(a * a + b1 * b1)
        return g1 * r1 + g2 * r2, -g1 * (1.0 - a) / r1 + g2 * a / r2

    return phi


def _wiggle(a, beta=0.01, ell=39):
    """Moré-Thuente test function 3: a kinked line plus a sine."""
    if a <= 1.0 - beta:
        f0, d0 = 1.0 - a, -1.0
    elif a >= 1.0 + beta:
        f0, d0 = a - 1.0, 1.0
    else:
        f0, d0 = (a - 1.0) ** 2 / (2.0 * beta) + beta / 2.0, (a - 1.0) / beta
    w = ell * math.pi / 2.0
    amp = 2.0 * (1.0 - beta) / (ell * math.pi)
    return f0 + amp * math.sin(w * a), d0 + amp * w * math.cos(w * a)


MORE_THUENTE = {
    "1: -a/(a^2+2)": lambda a: (-a / (a * a + 2.0), (a * a - 2.0) / (a * a + 2.0) ** 2),
    "2: (a+b)^5-2(a+b)^4": lambda a: (
        (a + 0.004) ** 5 - 2.0 * (a + 0.004) ** 4,
        5.0 * (a + 0.004) ** 4 - 8.0 * (a + 0.004) ** 3,
    ),
    "3: wiggle": _wiggle,
    "4: yanai(1e-3, 1e-3)": _yanai(1e-3, 1e-3),
    "5: yanai(1e-2, 1e-3)": _yanai(1e-2, 1e-3),
    "6: yanai(1e-3, 1e-2)": _yanai(1e-3, 1e-2),
}


class TestLineSearch:
    @pytest.mark.parametrize("name", sorted(MORE_THUENTE))
    @pytest.mark.parametrize("a0", [1e-3, 1e-1, 1e1, 1e3])
    def test_accepted_step_is_strong_wolfe(self, name, a0):
        # functions 2 and 3 meet the curvature test only in windows narrower
        # than xtol 0.1 of the interval, so there the search ends on dcsrch's
        # warning: a step with sufficient decrease, the best one evaluated
        phi = MORE_THUENTE[name]
        f0, g0 = phi(0.0)
        seen = []
        step, evaluations = _search(lambda a: seen.append(phi(a)) or seen[-1], f0, g0, a0)
        assert step is not None and 1 <= evaluations == len(seen) <= 20
        f, g = phi(step)
        assert f <= f0 + C1 * step * g0
        if name[0] in "23":
            assert f == min(fs for fs, _ in seen)
        else:
            assert abs(g) <= C2 * abs(g0)

    def test_the_accepted_step_is_the_last_evaluated(self):
        phi = MORE_THUENTE["1: -a/(a^2+2)"]
        seen = []
        step, evaluations = _search(lambda a: seen.append(a) or phi(a), *phi(0.0), 1e3)
        assert len(seen) == evaluations and seen[-1] == step

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_trial_is_bisected_back(self, bad):
        # finite only for a < 1; the minimum of (a - 3)^2 / 2 is beyond it
        seen = []

        def phi(a):
            seen.append(a)
            return (bad, bad) if a >= 1.0 else (0.5 * (a - 3.0) ** 2, a - 3.0)

        f0, g0 = phi(0.0)
        seen.clear()
        step, evaluations = _search(phi, f0, g0, 8.0)
        # halved toward the best step (0) until finite; 0.5 is strong Wolfe
        assert seen == [8.0, 4.0, 2.0, 1.0, 0.5]
        assert (step, evaluations) == (0.5, 5)


def _quadratic(dim=20, low=1.0, cond=1e4, seed=7):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    hess = (q * np.geomspace(low, low * cond, dim)) @ q.T
    x_star = rng.standard_normal(dim)

    def fun(x):
        g = hess @ (x - x_star)
        return 0.5 * float((x - x_star) @ g), g

    return fun, x_star, hess


@pytest.fixture
def searches(monkeypatch):
    """Every line search of the driver: (f0, g0, step, [(a, f, g) evaluated])."""
    calls = []

    def recording(phi, f0, g0, stp):
        seen = []

        def traced(a):
            seen.append((a, *phi(a)))
            return seen[-1][1:]

        step, evaluations = _search(traced, f0, g0, stp)
        calls.append((f0, g0, step, seen))
        return step, evaluations

    monkeypatch.setattr(rf, "_search", recording)
    return calls


class TestDriver:
    def test_rosenbrock_reaches_one_one(self, searches):
        x, nit, nfev, stop = _lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert stop in ("gtol", "ftol")
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-6)
        assert nfev == 1 + sum(len(seen) for *_, seen in searches)
        # every line search of the run ends on a strong Wolfe step, its last evaluation
        assert len(searches) == nit > 0
        for f0, g0, step, seen in searches:
            a, f, g = seen[-1]
            assert a == step
            assert f <= f0 + C1 * step * g0 and abs(g) <= C2 * abs(g0)

    def test_ill_conditioned_quadratic_reaches_its_minimiser(self):
        # Hessian eigenvalues 1e-7 ... 1e-3: near max |g| = 1e-8 the value
        # still falls by more than 1e-13 a step, so the gradient test, not
        # the relative-decrease one, ends the run (with eigenvalues 1 ... 1e4
        # the decrease test ends it near max |g| = 1e-5, as in L-BFGS-B)
        fun, x_star, hess = _quadratic(low=1e-7)
        lam = np.linalg.eigvalsh(hess)
        assert lam[-1] / lam[0] == pytest.approx(1e4, rel=1e-6)
        x, nit, nfev, stop = _lbfgs(fun, np.zeros(len(x_star)))
        g = fun(x)[1]
        assert stop == "gtol" and np.max(np.abs(g)) <= 1e-8
        np.testing.assert_allclose(hess @ (x - x_star), g, rtol=0.0, atol=1e-20)
        assert np.linalg.norm(x - x_star) <= np.linalg.norm(g) / lam[0]

    def test_a_minimum_start_takes_no_step(self):
        fun, x_star, _ = _quadratic()
        x, nit, nfev, stop = _lbfgs(fun, x_star.copy())
        assert (nit, nfev, stop) == (0, 1, "gtol")
        np.testing.assert_array_equal(x, x_star)

    def test_iterations_are_capped(self, monkeypatch):
        monkeypatch.setattr(rf, "_MAX_ITER", 3)
        x, nit, nfev, stop = _lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert (nit, stop) == (3, "maxiter")
        assert math.isfinite(rosenbrock(x)[0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_no_non_finite_point_is_accepted(self, searches, bad):
        # finite only inside the ball of radius 0.7; the minimum (3, 1) is outside
        centre, radius = np.array([3.0, 1.0]), 0.7

        def fun(x):
            if float(np.linalg.norm(x)) > radius:
                return bad, np.full(2, bad)
            return 0.5 * float((x - centre) @ (x - centre)), x - centre

        x, nit, nfev, stop = _lbfgs(fun, np.zeros(2))
        assert stop == "line_search" and stop not in rf._CONVERGED
        assert np.all(np.isfinite(x)) and np.linalg.norm(x) <= radius
        assert math.isfinite(fun(x)[0])
        assert any(not math.isfinite(f) for *_, seen in searches for _, f, _ in seen)
        for *_, step, seen in searches:
            assert step is None or all(map(math.isfinite, seen[-1][1:]))

    def test_an_overshooting_first_step_is_pulled_back(self, searches):
        # the first trial (unit length) leaves the ball; the minimum is inside
        centre, radius = np.array([0.3, 0.1]), 0.5

        def fun(x):
            if float(np.linalg.norm(x)) > radius:
                return math.inf, np.full(2, math.inf)
            return 50.0 * float((x - centre) @ (x - centre)), 100.0 * (x - centre)

        x, nit, nfev, stop = _lbfgs(fun, np.zeros(2))
        assert stop in rf._CONVERGED
        np.testing.assert_allclose(x, centre, rtol=0.0, atol=1e-9)
        _, _, step, seen = searches[0]
        assert seen[0][1] == math.inf and step is not None and math.isfinite(seen[-1][1])

    def test_a_non_finite_start_stops_at_once(self):
        x0 = np.array([1.0, 2.0])
        x, nit, nfev, stop = _lbfgs(lambda x: (math.nan, np.zeros(2)), x0)
        assert (nit, nfev, stop) == (0, 1, "line_search")
        np.testing.assert_array_equal(x, x0)
