import functools
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from volterra_deviations.errors import DegenerateCoefficients, InvalidModel, PriceOutOfBounds
from volterra_deviations.implied_vol import (
    _vega,
    bs_call,
    implied_vol,
    mc_smile,
    smile_ldp,
    smile_mdp,
    smile_tail,
)
from volterra_deviations.sve_sim import RoughBergomi, RoughHeston, RoughSteinStein

H = 0.1
# the package re-exports the function implied_vol under the module's name
implied_vol_module = importlib.import_module("volterra_deviations.implied_vol")


class TestBsCall:
    def test_atm_zero_vol(self):
        assert bs_call(1.0, 0.0, 0.0) == 0.0

    def test_atm_normal_cdf_oracle(self):
        want = 2.0 * norm.cdf(0.1) - 1.0
        assert bs_call(1.0, 0.0, 0.2) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.07966, abs=1e-5)

    def test_deep_itm_intrinsic(self):
        assert bs_call(1.0, -10.0, 0.05) == pytest.approx(1.0 - math.exp(-10.0), abs=1e-10)

    def test_increasing_in_sigma(self):
        sigmas = np.linspace(0.05, 1.0, 12)
        vals = [bs_call(0.7, 0.1, s) for s in sigmas]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_convex_in_strike(self):
        ks = np.linspace(-0.5, 0.5, 21)
        strikes = np.exp(ks)
        prices = np.array([bs_call(0.5, k, 0.3) for k in ks])
        # convexity in the strike (not in log-moneyness)
        second = np.diff(np.diff(prices) / np.diff(strikes)) / np.diff(strikes[:-1])
        assert np.all(second > -1e-9)


    def test_normal_cdf_and_pdf_bit_for_bit_against_scipy_stats(self):
        for t in (0.01, 0.25, 1.0, 3.0):
            for k in (-0.5, -0.1, 0.0, 0.05, 0.3):
                for sigma in (0.05, 0.2, 0.8):
                    st = sigma * math.sqrt(t)
                    d1 = (-k + 0.5 * st * st) / st
                    call = float(norm.cdf(d1) - math.exp(k) * norm.cdf(d1 - st))
                    assert bs_call(t, k, sigma) == call
                    assert _vega(t, k, sigma) == float(norm.pdf(d1) * math.sqrt(t))

    @pytest.mark.parametrize(
        "t, k, sigma",
        [(math.nan, 0.0, 0.2), (0.04, math.nan, 0.2), (0.04, 0.0, math.nan), (0.04, 0.0, math.inf),
         (math.inf, 0.0, 0.2), (0.04, -math.inf, 0.2), (0.0, 0.0, 0.2), (0.04, 0.0, -0.1)],
    )
    def test_non_finite_or_out_of_domain_inputs_raise(self, t, k, sigma):
        with pytest.raises(PriceOutOfBounds, match="finite t > 0, sigma >= 0 and k"):
            bs_call(t, k, sigma)

    def test_vega_is_the_sigma_derivative(self):
        h = 1e-5
        for t in (0.1, 0.5, 2.0):
            for k in (-0.3, 0.0, 0.2):
                for sigma in (0.1, 0.3, 0.6):
                    fd = (bs_call(t, k, sigma + h) - bs_call(t, k, sigma - h)) / (2 * h)
                    assert _vega(t, k, sigma) == pytest.approx(fd, rel=1e-6)


class TestImpliedVol:
    def test_round_trip_lattice(self):
        for t in (0.05, 0.5, 2.0):
            for k in (-0.1, 0.0, 0.2):
                for sigma in (0.15, 0.3, 0.8):
                    price = bs_call(t, k, sigma)
                    back = implied_vol(price, t, k)
                    assert bs_call(t, k, back) == pytest.approx(price, abs=1e-8)
                    assert back == pytest.approx(sigma, abs=1e-6)

    # every lattice point where sigma is well conditioned in the price
    # (vega sigma / price >= 1e-3) and the price is far from underflow; the
    # example's price, near 1e-136, is below any absolute price tolerance
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        t=st.sampled_from((0.001, 0.01, 0.05, 0.25, 1.0, 2.0, 5.0)),
        k=st.sampled_from(tuple(np.linspace(-1.75, 1.75, 36))),
        sigma=st.sampled_from((0.05, 0.1, 0.2, 0.4, 0.8, 1.6)),
    )
    @example(t=0.01, k=0.5, sigma=0.2)
    def test_round_trip_is_accurate_in_sigma(self, t, k, sigma):
        price = bs_call(t, k, sigma)
        assume(max(1.0 - math.exp(k), 0.0) < price < 1.0 and price > 1e-290)
        assume(_vega(t, k, sigma) * sigma / price >= 1e-3)
        assert implied_vol(price, t, k) == pytest.approx(sigma, rel=1e-9, abs=0.0)

    def test_example_inverse(self):
        assert implied_vol(2.0 * norm.cdf(0.1) - 1.0, 1.0, 0.0) == pytest.approx(0.2, abs=1e-8)

    def test_intrinsic_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            implied_vol(max(1.0 - math.exp(-0.2), 0.0), 1.0, -0.2)
        with pytest.raises(PriceOutOfBounds):
            implied_vol(1.0, 1.0, 0.0)


class TestSmileLdp:
    def test_flat_bs_sanity(self):
        # degenerate Stein-Stein: xi = 0 freezes the volatility at y0
        for hurst in (H, 0.5):
            mod = RoughSteinStein(
                kappa=1.0, theta=0.2, xi=0.0, rho=0.0, y0=0.2, hurst=hurst
            )
            pt = smile_ldp(mod, 0.1, 0.01, n_steps=128)
            assert pt.sigma_hat == pytest.approx(0.2, abs=1e-6)

    def test_symmetric_for_uncorrelated(self):
        mod = RoughBergomi(a=0.0, rho=0.0, y0=math.log(0.04), hurst=H)
        up = smile_ldp(mod, 0.2, 0.01, n_steps=128)
        dn = smile_ldp(mod, -0.2, 0.01, n_steps=128)
        assert up.sigma_hat == pytest.approx(dn.sigma_hat, rel=5e-3)

    @pytest.mark.parametrize(
        "model, k, want",
        [
            (RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H), 0.1, 0.1851613220643483),
            (
                RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H),
                -0.1,
                0.23500722591977433,
            ),
        ],
        ids=["bergomi", "heston"],
    )
    def test_benchmark_points_equal_the_grid_minimum(self, model, k, want):
        # want: sigma_hat from the minimum of 17 pinned solves on [k, 8k];
        # the infimum sits at the strike
        pt = smile_ldp(model, k, 0.01, n_steps=128)
        assert pt.sigma_hat == pytest.approx(want, rel=1e-12)
        assert pt.attained == pytest.approx(k, abs=1e-12)

    def test_one_terminal_solve_per_point(self, monkeypatch):
        calls = []
        solve = implied_vol_module.ldp_rate_terminal

        def counted(*args, **kw):
            calls.append(kw)
            return solve(*args, **kw)

        monkeypatch.setattr(implied_vol_module, "ldp_rate_terminal", counted)
        mod = RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H)
        smile_ldp(mod, -0.1, 0.01, n_steps=32)
        assert calls == [{"component": "x", "n_steps": 32, "ray": True}]

    def test_bs_small_time_prefactor(self):
        # Gaussian tail computation: t^(2H) log P(X_t >= k t^(1/2-H)) -> -k^2/(2 sigma^2)
        sigma, k, t = 0.1, 2.0, 1e-4
        z = (k * t ** (0.5 - H) + 0.5 * sigma**2 * t) / (sigma * math.sqrt(t))
        got = t ** (2 * H) * norm.logsf(z)
        want = -(k**2) / (2.0 * sigma**2)
        assert got == pytest.approx(want, rel=0.05)


class TestSmileMdp:
    def test_rough_heston_level(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        pt = smile_mdp(mod, 0.1, 0.01, beta=H / 2)
        assert pt.sigma_hat == pytest.approx(0.2, abs=1e-14)
        assert pt.attained is None

    def test_strike_independent(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        vals = {smile_mdp(mod, k, 0.01, beta=H / 2).sigma_hat for k in (0.1, 0.5, 1.0)}
        assert len(vals) == 1

    def test_consistency_with_quadratic_infimum(self):
        # inf_(x >= k) x^2/(2 Sigma0) = k^2/(2 Sigma0) -> sigma^2 = Sigma0
        from volterra_deviations.rate_functions import mdp_rate_terminal_x

        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        k = 0.3
        rate = mdp_rate_terminal_x(mod, k)
        assert math.sqrt(k**2 / (2.0 * rate)) == pytest.approx(
            smile_mdp(mod, k, 0.01, beta=H / 2).sigma_hat
        )

    def test_beta_window_enforced(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        with pytest.raises(DegenerateCoefficients):
            smile_mdp(mod, 0.1, 0.01, beta=0.2)


class TestSmileTail:
    def test_positive_when_rate_finite(self):
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        pt = smile_tail(ss, 1.0, 5.0, n_steps=128)
        assert pt.sigma_hat > 0.0
        assert pt.source == "asymptotic_tail"

    def test_one_tail_solve_per_point(self, monkeypatch):
        calls = []
        solve = implied_vol_module.tail_rate_terminal

        def counted(*args, **kw):
            calls.append((args[1:], kw))
            return solve(*args, **kw)

        monkeypatch.setattr(implied_vol_module, "tail_rate_terminal", counted)
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        pt = smile_tail(ss, 0.5, 5.0, n_steps=32)
        assert calls == [((1.0,), {"t_end": 0.5, "n_steps": 32, "ray": True})]
        assert pt.attained >= 1.0 - 1e-12

    @pytest.mark.parametrize("k", [-0.1, 0.0, -math.ulp(0.0)])
    def test_a_strike_that_is_not_large_raises_before_the_solve(self, monkeypatch, k):
        def refuse(*args, **kw):
            raise AssertionError("tail solve on k <= 0")

        monkeypatch.setattr(implied_vol_module, "tail_rate_terminal", refuse)
        with pytest.raises(InvalidModel, match="k > 0"):
            smile_tail(MC_MODELS["heston"], 0.1, k, n_steps=32)

    def test_stein_stein_regression_pin(self):
        # value pinned by the variational solver before the main build
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        pt = smile_tail(ss, 1.0, 5.0, n_steps=128)
        pt2 = smile_tail(ss, 1.0, 5.0, n_steps=128)
        assert pt.sigma_hat == pt2.sigma_hat  # deterministic
        assert pt.sigma_hat**2 * 1.0 / 5.0 == pytest.approx(
            1.0 / (2.0 * _tail_infimum_pin(ss)), rel=1e-9
        )


def _tail_infimum_pin(model):
    from volterra_deviations.rate_functions import tail_rate_terminal

    levels = np.geomspace(1.0, 8.0, 17)
    return min(tail_rate_terminal(model, float(y), 1.0, n_steps=128).value for y in levels)


MC_MODELS = {
    "heston": RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H),
    "bergomi": RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H),
    "steinstein": RoughSteinStein(kappa=1.0, theta=0.2, xi=0.4, rho=-0.5, y0=0.2, hurst=H),
}


def _plain_smile_point(model, t, k, n_paths, seed, n_steps):
    """(sigma_hat, stderr) of the plain payoff average over the simulated log price."""
    from volterra_deviations.kernels import TimeGrid
    from volterra_deviations.sve_sim import simulate, small_time_ldp

    ens = simulate(
        model, small_time_ldp(t), TimeGrid(1.0, n_steps), n_paths, seed,
        nodes=[n_steps], components=[0],
    )
    s = np.exp(t ** (0.5 - H) * ens.component_at(0, n_steps))
    payoff = np.maximum(s - math.exp(k), 0.0)
    sig = implied_vol(float(payoff.mean()), t, k)
    return sig, float(payoff.std(ddof=1)) / math.sqrt(n_paths) / _vega(t, k, sig)


class TestMcSmile:
    def test_flat_vol_recovers_constant(self):
        mod = RoughSteinStein(kappa=1.0, theta=0.2, xi=0.0, rho=0.0, y0=0.2, hurst=H)
        pts = mc_smile(mod, 0.25, [-0.05, 0.0, 0.05], 40_000, seed=11, n_steps=64)
        for pt in pts:
            assert pt.attained is None
            # every path prices the same Black-Scholes call: the mixing estimator is exact
            assert pt.sigma_hat == pytest.approx(0.2, abs=1e-9)
            assert pt.stderr < 1e-12 and pt.control_coef == 0.0

    @pytest.mark.parametrize("name", sorted(MC_MODELS))
    def test_agrees_with_the_plain_payoff_average(self, name):
        model, t = MC_MODELS[name], 0.04
        pts = mc_smile(model, t, [-0.03, 0.03], 20_000, seed=5, n_steps=32)
        for pt in pts:
            sig, se = _plain_smile_point(model, t, pt.log_moneyness, 20_000, 5, 32)
            assert abs(pt.sigma_hat - sig) <= 4.0 * math.hypot(pt.stderr, se)
            assert pt.stderr < se
            assert pt.variance_ratio >= 1.0  # beta minimises the residual's variance
            assert pt.bump == 0.0 if name == "heston" else pt.bump >= 0.0

    def test_martingale_identity(self):
        mod = RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H)
        from volterra_deviations.kernels import TimeGrid
        from volterra_deviations.sve_sim import simulate, small_time_ldp

        t_mat = 0.25
        ens = simulate(mod, small_time_ldp(t_mat), TimeGrid(1.0, 64), 50_000, seed=3, nodes=[64])
        s = np.exp(t_mat ** (0.5 - H) * ens.component_at(0, 64))
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - 1.0) <= 3.0 * se

    @pytest.mark.parametrize("name", sorted(MC_MODELS))
    def test_the_control_forward_has_unit_mean(self, name):
        from volterra_deviations.kernels import TimeGrid
        from volterra_deviations.sve_sim import PRICE_MOMENTS, simulate, small_time_ldp

        t_mat = 0.25
        ens = simulate(
            MC_MODELS[name], small_time_ldp(t_mat), TimeGrid(1.0, 32), 20_000, seed=9,
            components=[1], _reduce=PRICE_MOMENTS,
        )
        c = t_mat ** (0.5 - H)
        fwd = np.exp(c * ens.paths[:, 0] + 0.5 * c * c * ens.paths[:, 1])
        se = fwd.std(ddof=1) / math.sqrt(len(fwd))
        assert abs(fwd.mean() - 1.0) <= 4.0 * se

    def test_the_run_keeps_no_log_price(self, monkeypatch):
        from volterra_deviations import sve_sim

        runs, draws = [], []
        simulate, normal_block = implied_vol_module.simulate, sve_sim._normal_block

        def recording(*args, **kw):
            ens = simulate(*args, **kw)
            runs.append(ens)
            return ens

        def counting(seed, path_indices, count, out=None):
            draws.append(count)
            return normal_block(seed, path_indices, count, out)

        monkeypatch.setattr(implied_vol_module, "simulate", recording)
        monkeypatch.setattr(sve_sim, "_normal_block", counting)
        mod = MC_MODELS["heston"]
        pts = mc_smile(mod, 0.04, [0.05], 2000, seed=3, n_steps=16)
        (ens,) = runs
        assert ens.components.tolist() == [1]
        assert ens.paths.shape == (2000, 2)  # (m, v) per path, no log price
        assert draws == [16, 16]  # two chunks, the volatility normals only, no price noise
        assert math.isfinite(pts[0].sigma_hat)

    @pytest.mark.parametrize(
        "t, strikes",
        [(math.nan, [0.0]), (math.inf, [0.0]), (0.0, [0.0]), (-0.04, [0.0]),
         (0.04, [0.0, math.nan]), (0.04, [math.inf]), (0.04, np.array([-math.inf]))],
    )
    def test_bad_maturity_or_strike_raises_before_any_draw(self, monkeypatch, t, strikes):
        from volterra_deviations import sve_sim

        draws = []
        monkeypatch.setattr(sve_sim, "_normal_block", lambda *args: draws.append(args))
        with pytest.raises(InvalidModel, match="finite t > 0 and strikes"):
            mc_smile(MC_MODELS["heston"], t, strikes, 2000, seed=3, n_steps=16)
        assert draws == []

    def test_bit_identical_across_threads_and_chunks(self, monkeypatch):
        from volterra_deviations import sve_sim

        mod, strikes = MC_MODELS["heston"], [-0.03, 0.0, 0.03]
        run = functools.partial(mc_smile, mod, 0.04, strikes, 5000, seed=4, n_steps=16)
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 5000)  # one chunk
        ref = run(threads=1)
        # the default 1024-path chunks and 300-path ones, each run ending in
        # a shorter chunk that reuses a worker's scratch
        for chunk in (sve_sim._HISTORY_PATHS, 300):
            monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", chunk)
            for threads in (1, 3):
                assert run(threads=threads) == ref

    def test_positive_rho_bergomi_rejected(self):
        mod = RoughBergomi(a=0.5, rho=0.5, y0=math.log(0.04), hurst=H)
        with pytest.raises(InvalidModel):
            mc_smile(mod, 0.1, [0.0], 1000, seed=1)

    def test_deep_strike_flagged_not_crashing(self):
        mod = RoughSteinStein(kappa=1.0, theta=0.2, xi=0.0, rho=0.0, y0=0.2, hurst=H)
        pts = mc_smile(mod, 0.01, [3.0], 2000, seed=7, n_steps=32)
        assert len(pts) == 1
        assert pts[0].flag in ("clipped_to_intrinsic", "price_out_of_bounds")

    def test_pricing_equals_the_mixing_formula_bit_for_bit(self, monkeypatch):
        # (m, v) moments with some zero-variance paths, priced by the plain
        # array formulas: every estimate must agree to the last bit
        from types import SimpleNamespace

        rng = np.random.default_rng(12)
        n, t, strikes = 4000, 0.04, [-0.05, 0.0, 0.02, 0.08]
        paths = np.column_stack([rng.normal(-0.01, 0.05, n), rng.uniform(0.0, 0.02, n)])
        paths[rng.choice(n, 40, replace=False), 1] = 0.0
        monkeypatch.setattr(
            implied_vol_module, "simulate",
            lambda *args, **kwargs: SimpleNamespace(paths=paths.copy(), bump=0.5),
        )
        model = MC_MODELS["heston"]
        pts = mc_smile(model, t, strikes, n, seed=1)
        c = t ** (0.5 - model.min_hurst)
        mean, var = c * paths[:, 0], c * c * paths[:, 1]
        fwd = np.exp(mean + 0.5 * var)
        dev = fwd - 1.0
        dev_c = dev - dev.mean()
        var_f = float(np.mean(dev_c * dev_c))
        sd = np.sqrt(var)
        vol = sd > 0.0
        sd_safe = np.where(vol, sd, 1.0)
        for k, pt in zip(strikes, pts):
            d2 = (mean - k) / sd_safe
            calls = np.where(
                vol, fwd * ndtr(d2 + sd) - math.exp(k) * ndtr(d2), np.maximum(fwd - math.exp(k), 0.0)
            )
            beta = float(np.mean((calls - calls.mean()) * dev_c)) / var_f
            resid = calls - beta * dev
            var_r = float(resid.var(ddof=1))
            sig = implied_vol(float(resid.mean()), t, k)
            assert pt.flag is None and pt.bump == 0.5
            assert pt.control_coef == beta
            assert pt.variance_ratio == float(calls.var(ddof=1)) / var_r
            assert pt.sigma_hat == sig
            assert pt.stderr == math.sqrt(var_r / n) / _vega(t, k, sig)

    def test_pricing_peak_memory_per_path(self, monkeypatch):
        # from the ensemble's return to the smile points the pricing holds
        # (m, v), mean, sd, fwd, dev_c and two strike buffers, 56 B a path
        # (the array-per-expression form held about 121 B a path)
        import tracemalloc

        simulate, base = implied_vol_module.simulate, []

        def measured(*args, **kwargs):
            ens = simulate(*args, **kwargs)
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0] - ens.paths.nbytes)
            return ens

        monkeypatch.setattr(implied_vol_module, "simulate", measured)
        n = 50_000
        tracemalloc.start()
        try:
            pts = mc_smile(MC_MODELS["heston"], 0.04, [-0.1, 0.0, 0.1], n, seed=3, n_steps=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(math.isfinite(p.sigma_hat) for p in pts)
        assert peak - base[0] <= 64 * n + 65536


# (function, positional arguments): each with a NaN or infinite maturity or strike
_BAD_INPUTS = [
    ("smile_ldp", ("bergomi", 0.1, math.nan)),
    ("smile_ldp", ("bergomi", math.inf, 0.04)),
    ("smile_mdp", ("bergomi", 0.1, math.nan, H / 2)),
    ("smile_mdp", ("bergomi", math.nan, 0.04, H / 2)),
    ("smile_tail", ("heston", math.nan, 0.1)),
    ("smile_tail", ("heston", 0.1, math.nan)),
    ("implied_vol", (0.05, math.nan, 0.0)),
    ("implied_vol", (0.05, 0.04, -math.inf)),
    ("mc_smile", ("heston", math.inf, [0.0], 2000, 3)),
    ("mc_smile", ("heston", 0.04, [math.nan], 2000, 3)),
]


@pytest.mark.parametrize("name, args", _BAD_INPUTS)
def test_non_finite_maturity_or_strike_raises_before_any_solve(monkeypatch, name, args):
    def refuse(*args, **kw):
        raise AssertionError("solved, priced or drew on a non-finite input")

    for callee in ("ldp_rate_terminal", "tail_rate_terminal", "simulate", "bs_call"):
        monkeypatch.setattr(implied_vol_module, callee, refuse)
    args = [MC_MODELS.get(a, a) if isinstance(a, str) else a for a in args]
    with pytest.raises(InvalidModel, match="finite t > 0 and strikes"):
        getattr(implied_vol_module, name)(*args)
