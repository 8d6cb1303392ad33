import functools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from volterra_deviations import sve_sim
from scipy.integrate import quad
from scipy.special import ndtri
from volterra_deviations.errors import ConfigError, InvalidModel, KernelDomainError, NotApplicable
from volterra_deviations.frac_calculus import Control, KernelSection
from volterra_deviations.kernels import GridFunction, TimeGrid, conv_weights, l2_norm_sq, power_law
from volterra_deviations.rate_functions import _family
from volterra_deviations.sve_sim import (
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
    ScalingRegime,
    simulate,
    simulate_controlled,
    small_time_ldp,
    small_time_mdp,
    tail_ldp,
    tail_mdp,
)

H = 0.1
Y0 = math.log(0.04)
BERGOMI = RoughBergomi(a=0.5, rho=-0.5, y0=Y0, hurst=H)
GRID = TimeGrid(1.0, 64)


def _count_draws(mp) -> list:
    """Patch ``_normal_block`` through ``mp`` to record each call's normals per path."""
    counts = []
    normal_block = sve_sim._normal_block

    def counting(seed, path_indices, count, out=None):
        counts.append(count)
        return normal_block(seed, path_indices, count, out)

    mp.setattr(sve_sim, "_normal_block", counting)
    return counts


class TestModelValidation:
    def test_hurst_bounds(self):
        with pytest.raises(InvalidModel):
            RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=0.7)
        with pytest.raises(InvalidModel):
            RoughBergomi(a=0.1, rho=-0.5, y0=0.0, hurst=0.0)

    def test_heston_coefficient_signs(self):
        with pytest.raises(InvalidModel):
            RoughHeston(kappa=0.0, theta=0.04, xi=0.3, rho=0.0, y0=0.04, hurst=0.1)
        with pytest.raises(InvalidModel):
            RoughHeston(kappa=1.0, theta=-0.1, xi=0.3, rho=0.0, y0=0.04, hurst=0.1)
        with pytest.raises(InvalidModel):
            RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.0, y0=-0.1, hurst=0.1)

    def test_rho_open_interval(self):
        with pytest.raises(InvalidModel):
            RoughSteinStein(kappa=1.0, theta=0.1, xi=0.3, rho=1.0, y0=0.2, hurst=0.2)

    def test_multifactor_constraints(self):
        with pytest.raises(InvalidModel):
            MultiRoughBergomi(
                loadings=((1.0, 0.5), (0.0, 1.0)),  # upper entry nonzero
                a=(0.1, 0.1),
                y0=(-3.0, -3.0),
                rho=(0.1, 0.1),
                hurst=(0.1, 0.2),
            )
        with pytest.raises(InvalidModel):
            MultiRoughBergomi(
                loadings=((1.0, 0.0), (0.5, 1.0)),
                a=(0.1, 0.1),
                y0=(-3.0, -3.0),
                rho=(0.8, 0.7),  # sum of squares > 1
                hurst=(0.1, 0.2),
            )
        with pytest.raises(InvalidModel):
            MultiRoughBergomi(
                loadings=((1.0, 0.0), (0.5, 1.0)),
                a=(0.1, 0.1),
                y0=(-3.0, -3.0),
                rho=(0.1, 0.1),
                hurst=(0.3, 0.2),  # not ascending
            )

    def test_mdp_beta_window(self):
        with pytest.raises(InvalidModel):
            simulate(BERGOMI, small_time_mdp(0.1, beta=0.2), GRID, 10, 0)
        with pytest.raises(ValueError):
            ScalingRegime("small_time_mdp", 0.1, None)

    @pytest.mark.parametrize("kind", ["small_time_ldp", "tail_ldp"])
    def test_an_ldp_regime_takes_no_beta(self, kind):
        # beta is the MDP exponent; an LDP regime given one would drop it
        with pytest.raises(ValueError, match="beta"):
            ScalingRegime(kind, 0.1, 0.05)
        assert ScalingRegime(kind, 0.1).beta is None

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RoughHeston(kappa=math.nan, theta=0.04, xi=0.3, rho=0.0, y0=0.04, hurst=H),
            lambda: RoughHeston(kappa=1.0, theta=math.nan, xi=0.3, rho=0.0, y0=0.04, hurst=H),
            lambda: RoughHeston(kappa=1.0, theta=0.04, xi=math.nan, rho=0.0, y0=0.04, hurst=H),
            lambda: RoughHeston(kappa=1.0, theta=0.04, xi=math.inf, rho=0.0, y0=0.04, hurst=H),
            lambda: RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.0, y0=math.nan, hurst=H),
            lambda: RoughBergomi(a=math.nan, rho=0.0, y0=Y0, hurst=H),
            lambda: RoughSteinStein(kappa=1.0, theta=0.1, xi=math.nan, rho=0.0, y0=0.2, hurst=H),
            lambda: MultiRoughBergomi(
                loadings=((1.0, 0.0), (math.nan, 1.0)),
                a=(0.1, 0.1),
                y0=(-3.0, -3.0),
                rho=(0.1, 0.1),
                hurst=(0.1, 0.2),
            ),
            lambda: ScalingRegime("small_time_ldp", math.nan),
            lambda: ScalingRegime("small_time_ldp", math.inf),
            lambda: ScalingRegime("small_time_mdp", 0.1, math.nan),
        ],
    )
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises((InvalidModel, ValueError)):
            make()

    def test_bergomi_tail_rejected(self):
        with pytest.raises(InvalidModel):
            simulate(BERGOMI, tail_ldp(0.1), GRID, 10, 0)


class TestDeterminism:
    def test_thread_count_invariance(self):
        e1 = simulate(BERGOMI, small_time_ldp(0.5), GRID, 40000, seed=7, threads=1)
        e4 = simulate(BERGOMI, small_time_ldp(0.5), GRID, 40000, seed=7, threads=4)
        assert np.array_equal(e1.paths, e4.paths)

    def test_seed_sensitivity(self):
        e1 = simulate(BERGOMI, small_time_ldp(0.5), GRID, 100, seed=1)
        e2 = simulate(BERGOMI, small_time_ldp(0.5), GRID, 100, seed=2)
        assert not np.array_equal(e1.paths, e2.paths)

    def test_multifactor_single_factor_matches_bergomi(self):
        multi = MultiRoughBergomi(
            loadings=((1.0,),), a=(0.5,), y0=(Y0,), rho=(-0.5,), hurst=(H,)
        )
        em = simulate(multi, small_time_ldp(0.5), GRID, 500, seed=11)
        eb = simulate(BERGOMI, small_time_ldp(0.5), GRID, 500, seed=11)
        assert np.allclose(em.component(0), eb.component(0), atol=1e-12)
        assert np.allclose(em.component(1), eb.component(1), atol=1e-12)


class TestGaussianExactness:
    def test_ito_isometry_terminal_variance(self):
        ens = simulate(BERGOMI, small_time_ldp(1.0), GRID, 100_000, seed=42)
        z = ens.component(1)[:, -1] - (Y0 - 0.5)
        R = l2_norm_sq(power_law(H), 1.0)
        se = R * math.sqrt(2.0 / (len(z) - 1))
        assert abs(z.var(ddof=1) - R) <= 3.0 * se

    def test_noise_off_is_deterministic_mean(self):
        # Stein-Stein with xi = 0, theta = y0: Y identically y0
        mod = RoughSteinStein(kappa=1.0, theta=0.2, xi=0.0, rho=0.0, y0=0.2, hurst=H)
        ens = simulate(mod, small_time_ldp(0.3), GRID, 50, seed=1)
        assert np.max(np.abs(ens.component(1) - 0.2)) <= 1e-10

    def test_stein_stein_mean_reversion_drift(self):
        # xi = 0: deterministic left-point Euler recursion
        mod = RoughSteinStein(kappa=2.0, theta=0.5, xi=0.0, rho=0.0, y0=0.2, hurst=H)
        eps = 0.4
        ens = simulate(mod, small_time_ldp(eps), GRID, 3, seed=1)
        y = ens.component(1)[0]
        want = np.empty(len(GRID))
        want[0] = 0.2
        acc = 0.0
        for i in range(1, len(GRID)):
            acc += eps * 2.0 * (0.5 - want[i - 1]) * GRID.dt
            want[i] = 0.2 + acc
        assert np.allclose(y, want, atol=1e-12)


class TestControlled:
    def test_control_must_live_on_the_simulation_grid(self):
        other = TimeGrid(2.0, 64)
        ctrl = Control(GridFunction(other, np.zeros((len(other), 2))))
        with pytest.raises(InvalidModel):
            simulate_controlled(BERGOMI, small_time_ldp(0.5), ctrl, GRID, 10, seed=3)

    def test_null_control_is_identity(self):
        ctrl = Control(GridFunction(GRID, np.zeros((len(GRID), 2))))
        ec = simulate_controlled(BERGOMI, small_time_ldp(0.5), ctrl, GRID, 500, seed=3)
        ep = simulate(BERGOMI, small_time_ldp(0.5), GRID, 500, seed=3)
        assert np.array_equal(ec.paths, ep.paths)
        assert np.all(ec.log_weights == 0.0)

    def test_constant_kernel_additive_shift(self):
        # H = 1/2 tail Stein-Stein with kappa = 0, xi = 1: flat kernel,
        # constant sigma; the controlled path is the plain path + c t.
        mod = RoughSteinStein(kappa=0.0, theta=0.0, xi=1.0, rho=0.0, y0=0.2, hurst=0.5)
        c = 0.8
        vals = np.zeros((len(GRID), 2))
        vals[:, 0] = c
        ctrl = Control(GridFunction(GRID, vals))
        eps = 0.3
        ec = simulate_controlled(mod, tail_ldp(eps), ctrl, GRID, 200, seed=5)
        ep = simulate(mod, tail_ldp(eps), GRID, 200, seed=5)
        shift = ec.component(1) - ep.component(1)
        want = c * GRID.nodes
        assert np.max(np.abs(shift - want[None, :])) < 1e-12

    def test_mean_path_approaches_limit_solution(self):
        # controlled mean of Y converges to the deterministic limit as eps -> 0
        from volterra_deviations.rate_functions import regenerate_smalltime_pair

        c = 0.7
        vals = np.zeros((len(GRID), 2))
        vals[:, 0] = c
        ctrl = Control(GridFunction(GRID, vals))
        _, vphi = regenerate_smalltime_pair(BERGOMI, ctrl)
        dists = []
        for eps in (0.1, 0.05, 0.025):
            ens = simulate_controlled(
                BERGOMI, small_time_ldp(eps), ctrl, GRID, 4000, seed=9
            )
            mean_y = ens.component(1).mean(axis=0)
            dists.append(np.max(np.abs(mean_y - vphi.values)))
        assert dists[2] < dists[0]

    def test_weights_average_to_one(self):
        k = power_law(H)
        sec = KernelSection(k, 1.0, 0.5, 0)
        ctrl = Control(GridFunction(GRID, np.zeros((len(GRID), 2))), sections=(sec,))
        ens = simulate_controlled(BERGOMI, small_time_ldp(0.3), ctrl, GRID, 50_000, seed=13)
        w = ens.weights()
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 5.0 * se

    def test_girsanov_unbiased_terminal_indicator(self):
        c = 1.0
        level = Y0 + c
        vals = np.zeros((len(GRID), 2))
        k = power_law(H)
        lam = c / l2_norm_sq(k, 1.0)
        ctrl = Control(GridFunction(GRID, vals), sections=(KernelSection(k, 1.0, lam, 0),))
        eps = 0.25 ** (1.0 / H)
        plain = simulate(BERGOMI, small_time_ldp(eps), GRID, 100_000, seed=17)
        shifted = simulate_controlled(
            BERGOMI, small_time_ldp(eps), ctrl, GRID, 100_000, seed=18
        )
        ind_p = (plain.component(1)[:, -1] >= level).astype(float)
        est_s = (shifted.component(1)[:, -1] >= level) * shifted.weights()
        se = math.hypot(
            ind_p.std(ddof=1) / math.sqrt(len(ind_p)),
            est_s.std(ddof=1) / math.sqrt(len(est_s)),
        )
        assert abs(ind_p.mean() - est_s.mean()) <= 4.0 * se


class TestHeston:
    def test_full_truncation_keeps_negative_variance_paths_finite(self):
        # xi = 2 at theta = y0 = 0.01: every path's variance dips below zero
        mod = RoughHeston(kappa=1.0, theta=0.01, xi=2.0, rho=-0.7, y0=0.01, hurst=H)
        ens = simulate(mod, small_time_ldp(1.0), GRID, 2000, seed=3)
        assert np.all(ens.component(1).min(axis=1) < 0.0)
        assert np.isfinite(ens.paths).all()

    def test_classical_cir_long_run_mean(self):
        # H = 1/2 degenerates to CIR with stationary mean theta
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.1, rho=-0.7, y0=0.04, hurst=0.5)
        grid = TimeGrid(20.0, 400)
        ens = simulate(mod, small_time_ldp(1.0), grid, 20_000, seed=5)
        y_T = ens.component(1)[:, -1]
        se = y_T.std(ddof=1) / math.sqrt(len(y_T))
        assert abs(y_T.mean() - 0.04) <= 3.0 * se

    def test_tail_regime_starts_scaled(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=0.1)
        eps = 0.3
        ens = simulate(mod, tail_ldp(eps), GRID, 100, seed=2)
        assert np.allclose(ens.component(1)[:, 0], eps**2 * 0.04)


class TestMartingale:
    def test_bergomi_exp_price_unit_mean(self):
        # physical X at T = 0.25: E[exp(X_T)] = 1 (rho <= 0)
        t_mat = 0.25
        ens = simulate(BERGOMI, small_time_ldp(t_mat), GRID, 100_000, seed=23)
        x_phys = t_mat ** (0.5 - H) * ens.component(0)[:, -1]
        s = np.exp(x_phys)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - 1.0) <= 4.0 * se


class TestMdpFrame:
    def test_eta_is_centered_and_scaled(self):
        beta = H / 2.0
        eps = 1e-8
        ens = simulate(BERGOMI, small_time_mdp(eps, beta), GRID, 20_000, seed=3)
        eta_T = ens.component(1)[:, -1]
        R = l2_norm_sq(power_law(H), 1.0)
        want_sd = eps**beta * math.sqrt(R)
        # centering is at the limit path y0, so the finite-eps drift bias
        # -a eps^(H+beta) remains visible and vanishes only as eps -> 0
        want_mean = -BERGOMI.a * eps ** (H + beta)
        se = want_sd / math.sqrt(len(eta_T))
        assert abs(eta_T.mean() - want_mean) <= 5.0 * se
        assert eta_T.std(ddof=1) == pytest.approx(want_sd, rel=0.05)

    def test_tail_mdp_stein_stein(self):
        mod = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=0.0, y0=0.3, hurst=0.2)
        ens = simulate(mod, tail_mdp(1e-4, beta=0.5), GRID, 5000, seed=6)
        eta = ens.component(1)
        assert np.isfinite(eta).all()

    def test_multifactor_mdp_frame(self):
        multi = MultiRoughBergomi(
            loadings=((1.0, 0.0), (0.4, 0.9)),
            a=(0.2, 0.2),
            y0=(Y0, Y0 - 0.1),
            rho=(-0.3, 0.1),
            hurst=(H, 0.2),
        )
        ens = simulate(multi, small_time_mdp(1e-6, beta=H / 2), GRID, 500, seed=8)
        assert ens.paths.shape == (500, len(GRID), 3)
        assert np.isfinite(ens.paths).all()
        # fluctuations start at zero by construction
        assert np.allclose(ens.paths[:, 0, :], 0.0)


class TestRegularityProxies:
    @staticmethod
    def _holder_stat(paths, nodes, alpha, p=8):
        # per-path sup over dyadic pairs of |dX| / dt^alpha, then p-th moment
        n = paths.shape[1] - 1
        sup = np.zeros(paths.shape[0])
        level = 1
        while level <= n:
            d = np.abs(paths[:, level::level] - paths[:, :-level:level])
            dt = nodes[level] - nodes[0]
            sup = np.maximum(sup, d.max(axis=1) / dt**alpha)
            level *= 2
        return (sup**p).mean() ** (1.0 / p)

    def test_holder_and_moment_proxies_bounded_in_eps(self):
        # gamma = 2H for the volatility factor; alpha = gamma/2 - 1/p - 0.01
        p = 8
        alpha = H - 1.0 / p - 0.01
        stats, sup4 = [], []
        for eps in (0.2, 0.1, 0.05):
            ens = simulate(BERGOMI, small_time_ldp(eps), GRID, 2000, seed=31)
            y = ens.component(1)
            stats.append(self._holder_stat(y, GRID.nodes, alpha, p))
            sup4.append(np.max(np.mean((y - Y0) ** 4, axis=0)))
        assert max(stats) <= 2.0 * min(stats)
        assert max(sup4) <= 2.0 * max(min(sup4), 1e-12)


class TestSections:
    def _ctrl(self, sec):
        return Control(GridFunction(GRID, np.zeros((len(GRID), 2))), sections=(sec,))

    def test_section_on_a_channel_without_gaussian_factor_raises(self):
        ctrl = self._ctrl(KernelSection(power_law(H), 1.0, 0.5, 1))
        with pytest.raises(InvalidModel):
            simulate_controlled(BERGOMI, small_time_ldp(0.3), ctrl, GRID, 10, seed=1)
        heston = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        ctrl = self._ctrl(KernelSection(power_law(H), 1.0, 0.5, 0))
        with pytest.raises(InvalidModel):
            simulate_controlled(heston, small_time_ldp(0.3), ctrl, GRID, 10, seed=1)

    def test_section_with_a_foreign_kernel_raises(self):
        ctrl = self._ctrl(KernelSection(power_law(0.3), 1.0, 0.5, 0))
        with pytest.raises(InvalidModel):
            simulate_controlled(BERGOMI, small_time_ldp(0.3), ctrl, GRID, 10, seed=1)

    def test_off_grid_section_raises_before_drawing(self, monkeypatch):
        draws = _count_draws(monkeypatch)
        ctrl = self._ctrl(KernelSection(power_law(H), 0.503, 0.5, 0))
        with pytest.raises(KernelDomainError):
            simulate_controlled(BERGOMI, small_time_ldp(0.3), ctrl, GRID, 10, seed=1)
        assert draws == []

    # a control carries one channel per volatility channel, plus optionally
    # the orthogonal one: any other count fails before a normal is drawn
    @pytest.mark.parametrize(
        "name, n_channels",
        [("bergomi", 3), ("heston", 3), ("multifactor", 1), ("multifactor", 4)],
    )
    def test_a_control_with_the_wrong_channel_count_raises_before_drawing(
        self, monkeypatch, name, n_channels
    ):
        draws = _count_draws(monkeypatch)
        ctrl = Control(GridFunction(SMALL_GRID, np.full((len(SMALL_GRID), n_channels), 0.1)))
        with pytest.raises(InvalidModel, match="channels"):
            simulate_controlled(
                INVARIANCE_MODELS[name], small_time_ldp(0.3), ctrl, SMALL_GRID, 10, seed=1
            )
        assert draws == []

    def test_section_at_time_zero_tilts_nothing(self):
        # Z_0 = 0, so a section ending at t = 0 pairs with nothing
        ctrl = self._ctrl(KernelSection(power_law(H), 0.0, 0.7, 0))
        ec = simulate_controlled(BERGOMI, small_time_ldp(0.3), ctrl, GRID, 200, seed=4)
        ep = simulate(BERGOMI, small_time_ldp(0.3), GRID, 200, seed=4)
        assert np.all(ec.log_weights == 0.0)
        assert np.array_equal(ec.paths, ep.paths)


class TestSeedDomain:
    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 1.0, "3", None])
    def test_rejects_seeds_outside_the_stream_key_range(self, seed):
        with pytest.raises(InvalidModel):
            simulate(BERGOMI, small_time_ldp(0.5), GRID, 10, seed=seed)

    @pytest.mark.parametrize("n_paths", [0, -1, 2.0, "3"])
    def test_rejects_path_counts_that_are_not_positive(self, n_paths):
        with pytest.raises(InvalidModel):
            simulate(BERGOMI, small_time_ldp(0.5), GRID, n_paths, seed=1)

    def test_accepts_the_range_ends(self):
        lo = simulate(BERGOMI, small_time_ldp(0.5), GRID, 10, seed=0)
        hi = simulate(BERGOMI, small_time_ldp(0.5), GRID, 10, seed=2**63 - 1)
        assert not np.array_equal(lo.paths, hi.paths)
        same = simulate(BERGOMI, small_time_ldp(0.5), GRID, 10, seed=np.int64(2**63 - 1))
        assert np.array_equal(hi.paths, same.paths)


SMALL_GRID = TimeGrid(1.0, 8)
INVARIANCE_MODELS = {
    "steinstein": RoughSteinStein(kappa=1.0, theta=0.1, xi=0.4, rho=-0.3, y0=0.2, hurst=0.2),
    "bergomi": BERGOMI,
    "heston": RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H),
    "multifactor": MultiRoughBergomi(
        loadings=((1.0, 0.0), (0.4, 0.9)),
        a=(0.2, 0.2),
        y0=(Y0, Y0 - 0.1),
        rho=(-0.3, 0.1),
        hurst=(H, 0.2),
    ),
}


def _invariance_control(name, control):
    """``nodal``: v and u != 0 on every channel, plus sections; ``section``: u = 0.

    The u = 0 control is section-only on the Gaussian models; rough Heston,
    which takes no section, keeps its nodal v.
    """
    model = INVARIANCE_MODELS[name]
    hursts = model.hurst if name == "multifactor" else (model.hurst,)
    vals = np.random.default_rng(1).normal(size=(len(SMALL_GRID), len(hursts) + 1))
    secs = () if name == "heston" else tuple(
        KernelSection(power_law(h), 0.5, 0.4, j) for j, h in enumerate(hursts)
    )
    if control == "section":
        vals[:, len(hursts)] = 0.0  # u = 0
        if secs:
            vals[:, : len(hursts)] = 0.0  # section-only
    return Control(GridFunction(SMALL_GRID, vals), sections=secs)


def _terminal_section(model, grid) -> Control:
    """A section-only control: one kernel section per factor, ending at the horizon."""
    secs = tuple(
        KernelSection(power_law(float(h)), grid.horizon, 0.4, j)
        for j, h in enumerate(sve_sim._hursts(model))
    )
    return Control(GridFunction(grid, np.zeros((len(grid), len(secs) + 1))), sections=secs)


def _run(name, control, threads, nodes=None, components=None):
    model = INVARIANCE_MODELS[name]
    regime = small_time_ldp(0.3)
    kept = dict(threads=threads, nodes=nodes, components=components)
    if control != "plain":
        ctrl = _invariance_control(name, control)
        return simulate_controlled(model, regime, ctrl, SMALL_GRID, 50, seed=21, **kept)
    return simulate(model, regime, SMALL_GRID, 50, seed=21, **kept)


@functools.lru_cache(maxsize=None)
def _one_chunk(name, control):
    return _run(name, control, threads=1)


class TestChunkInvariance:
    @pytest.mark.parametrize("control", ["plain", "nodal", "section"])
    @pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
    @settings(max_examples=8, deadline=None)
    @given(
        chunk=st.integers(1, 50),
        threads=st.integers(1, 3),
        nodes=st.none() | st.sets(st.integers(0, SMALL_GRID.n_steps), min_size=1).map(sorted),
        data=st.data(),
    )
    def test_paths_and_weights_do_not_depend_on_blocks_or_threads(
        self, name, control, chunk, threads, nodes, data
    ):
        n_comps = 1 + len(sve_sim._hursts(INVARIANCE_MODELS[name]))
        components = data.draw(
            st.none() | st.sets(st.integers(0, n_comps - 1), min_size=1).map(sorted),
            label="components",
        )
        ref = _one_chunk(name, control)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sve_sim, "_CHUNK_PATHS", chunk)
            ens = _run(name, control, threads, nodes, components)
        kept = slice(None) if nodes is None else nodes
        comps = slice(None) if components is None else components
        assert np.array_equal(ens.nodes, np.arange(len(SMALL_GRID))[kept])
        assert np.array_equal(ens.components, np.arange(n_comps)[comps])
        assert np.array_equal(ens.paths, ref.paths[:, kept][:, :, comps])
        if control != "plain":
            assert np.array_equal(ens.log_weights, ref.log_weights)
        else:
            assert ens.log_weights is None

    # (model, control, components) -> normals drawn per path, in units of n:
    # a Gaussian factor's xi_w is skipped when neither the log price nor a
    # nonzero v needs it, the orthogonal noise when neither the log price nor
    # a nonzero u needs it
    @pytest.mark.parametrize(
        "name, control, components, per_step",
        [
            ("bergomi", "plain", [1], 1),
            ("bergomi", "section", [1], 1),
            ("bergomi", "plain", None, 3),
            ("bergomi", "section", [0], 3),
            ("bergomi", "nodal", [1], 3),
            ("steinstein", "section", [1], 1),
            ("multifactor", "section", [1, 2], 2),
            ("multifactor", "plain", [2], 2),
            ("multifactor", "plain", [0, 2], 5),
            ("heston", "plain", [1], 1),
            ("heston", "section", [1], 1),
            ("heston", "plain", [0, 1], 2),
            ("heston", "nodal", [1], 2),
        ],
    )
    def test_draws_only_the_normals_the_run_reads(
        self, monkeypatch, name, control, components, per_step
    ):
        counts = _count_draws(monkeypatch)
        ens = _run(name, control, threads=1, components=components)
        assert counts == [per_step * SMALL_GRID.n_steps] == [ens.normals_per_path]

    # a volatility-only Gaussian run draws only the Z normals at the head of
    # each path's stream, yet its Y and log weights are the full run's
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("control", ["plain", "section"])
    @pytest.mark.parametrize("name", ["bergomi", "multifactor", "steinstein"])
    def test_a_volatility_only_run_is_the_full_runs_volatility(
        self, monkeypatch, name, control, threads, chunk
    ):
        n_vol = len(sve_sim._hursts(INVARIANCE_MODELS[name]))
        ref = _one_chunk(name, control)
        counts = _count_draws(monkeypatch)
        if chunk is not None:
            monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", chunk)
        ens = _run(name, control, threads, components=list(range(1, n_vol + 1)))
        assert set(counts) == {n_vol * SMALL_GRID.n_steps}
        assert np.array_equal(ens.paths, ref.paths[:, :, 1:])
        if control != "plain":
            assert np.array_equal(ens.log_weights, ref.log_weights)

    # (model, control, nodes, components) -> normals drawn per path, n = 8: a
    # run that reads only Z draws up to the last normal a kept node or the
    # tilt reads.  Node t_i reads its factor's first n - i + 1 normals (node 0
    # none), a section ending at t_i tilts only those, every factor but the
    # last comes whole, and Stein-Stein's drift carries every node to the
    # next; the log price and the left-node sums read every section
    @pytest.mark.parametrize(
        "name, control, nodes, components, drawn",
        [
            ("bergomi", "plain", [8], [1], 1),
            ("bergomi", "terminal", [8], [1], 1),
            ("bergomi", "section", [8], [1], 5),  # the section ends at t_4
            ("bergomi", "plain", [3, 8], [1], 6),
            ("bergomi", "plain", [0, 5], [1], 4),
            ("bergomi", "plain", [0], [1], 0),
            ("bergomi", "nodal", [8], [1], 24),  # v and u on every channel
            ("bergomi", "plain", [8], [0, 1], 24),
            ("bergomi", "moments", [8], [1], 16),
            ("multifactor", "plain", [8], [1, 2], 9),
            ("multifactor", "terminal", [6], [1], 11),
            ("steinstein", "plain", [8], [1], 8),
            ("heston", "plain", [8], [1], 8),
        ],
    )
    def test_a_z_only_run_draws_the_prefix_its_nodes_and_tilt_read(
        self, monkeypatch, name, control, nodes, components, drawn
    ):
        model, regime = INVARIANCE_MODELS[name], small_time_ldp(0.3)
        counts = _count_draws(monkeypatch)
        if control == "terminal":
            ctrl = _terminal_section(model, SMALL_GRID)
            ens = simulate_controlled(
                model, regime, ctrl, SMALL_GRID, 50, 21, nodes=nodes, components=components
            )
        elif control == "moments":
            ens = simulate(
                model, regime, SMALL_GRID, 50, 21, components=components,
                _reduce=sve_sim.PRICE_MOMENTS,
            )
        else:
            ens = _run(name, control, threads=1, nodes=nodes, components=components)
        # a run that draws nothing makes no draw call at all
        assert counts == ([drawn] if drawn else [])
        assert ens.normals_per_path == drawn

    # a terminal-event run draws one normal per path, and a run from node
    # n - 2 three, yet its kept values and log weights are the full run's in
    # 7-path chunks on 1 or 3 threads; n = 300 blocks the products' sums
    # (OpenBLAS K-blocking) in more than one panel
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [16, 64, 300])
    def test_a_terminal_run_is_the_full_runs_terminal_value(self, monkeypatch, n, threads):
        grid, regime = TimeGrid(1.0, n), small_time_ldp(0.3)
        ctrl = _terminal_section(BERGOMI, grid)
        full = simulate_controlled(BERGOMI, regime, ctrl, grid, 150, seed=5, threads=1)
        plain = simulate(BERGOMI, regime, grid, 150, seed=5, threads=1)
        assert full.normals_per_path == plain.normals_per_path == 3 * n
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 7)
        for nodes, drawn in (([n], 1), ([n - 2, n], 3)):
            kept = dict(threads=threads, nodes=nodes, components=[1])
            ens = simulate_controlled(BERGOMI, regime, ctrl, grid, 150, seed=5, **kept)
            assert ens.normals_per_path == drawn
            assert np.array_equal(ens.paths[:, :, 0], full.paths[:, nodes, 1])
            assert np.array_equal(ens.log_weights, full.log_weights)
            ens = simulate(BERGOMI, regime, grid, 150, seed=5, **kept)
            assert ens.normals_per_path == drawn
            assert np.array_equal(ens.paths[:, :, 0], plain.paths[:, nodes, 1])

    # one worker takes a full 32-path chunk and then the 18-path rest into
    # the same scratch, whose never-written arrays start as NaN here: a read
    # of a row or a padding column the chunk did not write would show, and so
    # would an undrawn normal of a terminal-only run left unfilled
    @pytest.mark.parametrize(
        "control, nodes", [("plain", None), ("nodal", None), ("section", [8])]
    )
    @pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
    def test_a_shorter_last_chunk_in_reused_scratch_matches_one_chunk(
        self, monkeypatch, name, control, nodes
    ):
        class Poisoned(sve_sim._Scratch):
            def __init__(self, run, rows):
                super().__init__(run, rows)
                for a in (self.normals, self.Y, *self.dW, *(self.history or ())):
                    if a is not None:
                        a.fill(np.nan)

        ref = _one_chunk(name, control)
        monkeypatch.setattr(sve_sim, "_Scratch", Poisoned)
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 32)
        vol = list(range(1, 1 + len(sve_sim._hursts(INVARIANCE_MODELS[name]))))
        comps = None if nodes is None else vol
        ens = _run(name, control, threads=1, nodes=nodes, components=comps)
        want = ref.paths if nodes is None else ref.paths[:, nodes][:, :, vol]
        assert np.array_equal(ens.paths, want)
        if control != "plain":
            assert np.array_equal(ens.log_weights, ref.log_weights)

    # more workers than cores take 3-path chunks under a very short switch
    # interval: a chunk that no worker took would leave its rows as the
    # uninitialised output, and a scratch shared by two workers would mix
    # their chunks
    def test_many_workers_take_every_chunk_once(self, monkeypatch):
        ref = _one_chunk("heston", "nodal")
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ens = _run("heston", "nodal", threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(ens.paths, ref.paths)
        assert np.array_equal(ens.log_weights, ref.log_weights)


def _tail_rejected(call, error) -> bool:
    try:
        call()
    except error as exc:
        return "tail rescaling" in str(exc)
    return False


# every model under each regime it simulates; eps and beta keep the shift
# near one standard deviation
WEIGHT_CASES = [
    (name, regime)
    for name, model in sorted(INVARIANCE_MODELS.items())
    for regime in (small_time_ldp(0.5), small_time_mdp(0.5, 0.05), tail_ldp(0.8))
    if not regime.is_tail or model.tail_degree is not None
]


class TestEveryModel:
    @pytest.mark.parametrize(
        "name, regime", WEIGHT_CASES, ids=[f"{n}-{r.kind}" for n, r in WEIGHT_CASES]
    )
    def test_weights_average_to_one(self, name, regime):
        # a nodal v on every volatility channel and a nonzero orthogonal u
        model = INVARIANCE_MODELS[name]
        grid = TimeGrid(1.0, 16)
        n_vol = len(sve_sim._hursts(model))
        vals = np.empty((len(grid), n_vol + 1))
        vals[:, :n_vol] = 0.5 * (1.0 - grid.nodes)[:, None]
        vals[:, n_vol] = 0.4
        ctrl = Control(GridFunction(grid, vals))
        ens = simulate_controlled(model, regime, ctrl, grid, 20_000, seed=31)
        w = ens.weights()
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 5.0 * se

    # E[w] = 1 for any deterministic control: the shift and the density use
    # one discrete pairing.  Rough Bergomi tilts its Gaussian factor through a
    # nodal v and a kernel section; rough Heston's nodal v enters its Euler
    # channel, and 48 steps take it across a _HISTORY_STEPS block edge
    @pytest.mark.parametrize("name", ["bergomi", "heston"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        v=st.floats(-0.5, 0.5),
        u=st.floats(-0.5, 0.5),
        lam=st.floats(-0.5, 0.5),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_importance_weights_have_mean_one(self, name, v, u, lam, seed):
        model = INVARIANCE_MODELS[name]
        grid = TimeGrid(1.0, 48)
        vals = np.empty((len(grid), 2))
        vals[:, 0] = v * (1.0 - grid.nodes)
        vals[:, 1] = u
        secs = () if name == "heston" else (KernelSection(power_law(H), 0.5, lam, 0),)
        ctrl = Control(GridFunction(grid, vals), sections=secs)
        ens = simulate_controlled(
            model, small_time_ldp(0.3), ctrl, grid, 8000, seed, nodes=[0], components=[1]
        )
        w = ens.weights()
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 4.0 * se

    @pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
    def test_simulator_and_limit_family_reject_the_same_tails(self, name):
        model = INVARIANCE_MODELS[name]
        by_sim = _tail_rejected(
            lambda: simulate(model, tail_ldp(0.5), SMALL_GRID, 4, seed=0), InvalidModel
        )
        by_family = _tail_rejected(lambda: _family(model, tail=True), NotApplicable)
        assert by_sim == by_family == (name in ("bergomi", "multifactor"))


class TestNodes:
    @pytest.mark.parametrize(
        "nodes",
        [[], [3, 1], [2, 2], [-1], [9], [1.0], [0.5], [True], 4, [[1, 2]], ["1"],
         np.array([3, 1], dtype=np.uint8)],
    )
    def test_bad_nodes_raise(self, nodes):
        with pytest.raises(InvalidModel, match="nodes"):
            simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0, nodes=nodes)

    def test_reading_a_node_not_held_raises(self):
        ens = simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0, nodes=[2, 8])
        full = simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0)
        assert ens.n_paths == 10 and ens.grid == SMALL_GRID
        assert np.array_equal(ens.component_at(1, 8), full.component(1)[:, 8])
        assert np.array_equal(ens.component_at(0, 2), full.component(0)[:, 2])
        for node in (0, 3, 7, 9, -1):
            with pytest.raises(KernelDomainError):
                ens.component_at(1, node)
        with pytest.raises(KernelDomainError):
            ens.component(1)
        assert np.array_equal(full.component_at(1, 3), full.component(1)[:, 3])

    @pytest.mark.parametrize(
        "components", [[], [1, 0], [1, 1], [-1], [2], [1.0], [True], 1, [[0, 1]], ["1"]]
    )
    def test_bad_components_raise_before_drawing(self, monkeypatch, components):
        monkeypatch.setattr(sve_sim, "_normal_block", None)  # any draw would fail
        with pytest.raises(InvalidModel, match="components"):
            simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0, components=components)

    def test_reading_a_component_not_held_raises(self):
        ens = simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0, components=[1])
        full = simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0)
        assert ens.paths.shape == (10, len(SMALL_GRID), 1)
        assert np.array_equal(ens.component(1), full.component(1))
        assert np.array_equal(ens.component_at(1, 3), full.component_at(1, 3))
        for j in (0, 2, -1):
            with pytest.raises(KernelDomainError, match="component"):
                ens.component(j)
            with pytest.raises(KernelDomainError, match="component"):
                ens.component_at(j, 3)
        with pytest.raises(KernelDomainError):
            full.component_at(-1, 3)

    @pytest.mark.parametrize("name", ["bergomi", "heston"])
    def test_terminal_only_peak_memory_is_flat_in_paths(self, name):
        # 1024-path chunks: every run spans several
        model, grid = INVARIANCE_MODELS[name], TimeGrid(1.0, 16)
        peaks = []
        for n_paths in (4096, 16384):
            tracemalloc.start()
            simulate(model, small_time_ldp(0.3), grid, n_paths, seed=3, threads=1, nodes=[16])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # the kept column grows by 16 B a path; a full-path run by 272 B a path
        kept_growth = (16384 - 4096) * 16
        assert peaks[1] - peaks[0] <= kept_growth + (64 << 10)

    def test_heston_price_moments_peak_at_one_chunk_of_scratch(self):
        # 16384 paths at n=128 hold one 1024-path chunk's normals (which
        # become dW in place) and history block, plus the (m, v) columns;
        # no (rows, n+1) volatility or sigma array.  Chunks of 16384 paths
        # held 16 MiB of normals and 16 MiB of dW
        model, grid, n_paths, n = INVARIANCE_MODELS["heston"], TimeGrid(1.0, 128), 16384, 128
        rows = sve_sim._CHUNK_PATHS
        assert rows == sve_sim._HISTORY_PATHS == 1024

        def run():
            simulate(model, small_time_ldp(0.3), grid, n_paths, seed=3, threads=1,
                     components=[1], _reduce=sve_sim.PRICE_MOMENTS)

        run()  # the kernel weights and Philox set-up are cached by now
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        normals = rows * n * 8
        block = (2 * n + n + 1) * rows * 8  # history rows and the block's volatility
        outputs = (n_paths + rows) * 2 * 8  # the run's (m, v) and one chunk's
        assert peak <= normals + block + outputs + (512 << 10)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["bergomi", "heston"])
    def test_no_scratch_outlives_the_run(self, name, threads):
        model, grid = INVARIANCE_MODELS[name], TimeGrid(1.0, 64)
        run = functools.partial(
            simulate, model, small_time_ldp(0.3), grid, 5000, seed=3, threads=threads, nodes=[64]
        )
        run()  # the factor and kernel weights are cached by now
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        ens = run()
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        # a worker's scratch is over 1 MiB (1024 paths of 2n or 3n normals)
        assert held <= ens.paths.nbytes + (64 << 10)


def _moments_loop(model, regime, grid, Y, dWs, dw_perp):
    """(m, v, orthogonal part, size of m's terms) per path, a loop over the left nodes."""
    noise, _, drift, _ = sve_sim._scales(model, regime)
    rhos = np.atleast_1d(model.rho)
    rho_bar = math.sqrt(1.0 - float(np.sum(rhos**2)))
    h = grid.dt
    m, quad, perp, scale = (np.zeros(len(Y)) for _ in range(4))
    for i in range(grid.n_steps):
        if isinstance(model, MultiRoughBergomi):
            var, vol = np.exp(Y[:, i]).sum(axis=1), np.exp(0.5 * Y[:, i]).sum(axis=1)
        else:
            var = model.sigma_sq(Y[:, i, 0])
            vol = np.sqrt(var)
        terms = [-0.5 * drift * var * h] + [
            noise * rho * vol * dW[:, i] for rho, dW in zip(rhos, dWs)
        ]
        m += sum(terms)
        scale += sum(np.abs(x) for x in terms)
        quad += var * h
        perp += noise * rho_bar * vol * dw_perp[:, i]
    return m, (noise * rho_bar) ** 2 * quad, perp, scale


class TestPriceMoments:
    @pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
    def test_moments_match_a_loop_over_the_volatility_path(self, name):
        model, regime, n = INVARIANCE_MODELS[name], small_time_ldp(0.3), SMALL_GRID.n_steps
        n_vol = len(sve_sim._hursts(model))
        seen = []

        def capture(*args):
            seen.append(args[3:])
            return np.zeros((len(args[3]), 2))

        run = functools.partial(simulate, model, regime, SMALL_GRID, 50, seed=21)
        run(_reduce=sve_sim._Reducer(capture, (2,)))  # the full run's path and increments
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_draws(mp)
            ens = run(components=list(range(1, n_vol + 1)), _reduce=sve_sim.PRICE_MOMENTS)
        # the volatility's Z and dW normals, no price noise
        assert counts == [sve_sim._stream_ends(sve_sim._channels(model, SMALL_GRID), n)[1]]
        ((Y, dWs),) = seen
        full = simulate(model, regime, SMALL_GRID, 50, seed=21)
        assert np.array_equal(Y, full.paths[:, :, 1:])
        assert len(dWs) == n_vol + 1  # the volatility increments, then the price noise
        m, v, perp, scale = _moments_loop(model, regime, SMALL_GRID, Y, dWs[:-1], dWs[-1])
        assert np.all(np.abs(ens.paths[:, 0] - m) <= 1e-12 * scale)
        np.testing.assert_allclose(ens.paths[:, 1], v, rtol=1e-12)
        # given its volatility, the simulated log price is m plus the orthogonal part
        x_end = full.component_at(0, n)
        assert np.all(np.abs(x_end - m - perp) <= 1e-12 * (scale + np.abs(perp)))

    # 100-path chunks start inside a history block (first = 100, 200, ...);
    # the runs' blocks are 64, 192 and 1024 paths wide, partly filled at the
    # edges
    @pytest.mark.parametrize("n_paths", [10, 130, 2100])
    def test_heston_history_sums_match_the_loop(self, monkeypatch, n_paths):
        model, regime, grid = INVARIANCE_MODELS["heston"], small_time_ldp(0.3), TimeGrid(1.0, 137)
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 100)
        run = functools.partial(simulate, model, regime, grid, n_paths, seed=21, components=[1])
        got = run(_reduce=sve_sim.PRICE_MOMENTS).paths
        Y = simulate(model, regime, grid, n_paths, seed=21).paths[:, :, 1:]
        normals = sve_sim._normal_block(21, np.arange(n_paths), 2 * grid.n_steps)
        dW, dw_perp = np.split(normals * math.sqrt(grid.dt), 2, axis=1)
        m, v, _, scale = _moments_loop(model, regime, grid, Y, [dW], dw_perp)
        assert np.all(np.abs(got[:, 0] - m) <= 1e-12 * scale)
        np.testing.assert_allclose(got[:, 1], v, rtol=1e-12)

    def test_heston_sums_do_not_depend_on_chunks_or_threads(self, monkeypatch):
        # the history loop adds the sums step by step inside each aligned
        # block: 100-path chunks that start inside a block, and three worker
        # threads, must give the default run's (m, v) bit for bit
        model, grid = INVARIANCE_MODELS["heston"], TimeGrid(1.0, 137)
        run = functools.partial(
            simulate, model, small_time_ldp(0.3), grid, 2100, seed=21, components=[1],
            _reduce=sve_sim.PRICE_MOMENTS,
        )
        ref = run(threads=1).paths
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 100)
        assert np.array_equal(run(threads=1).paths, ref)
        assert np.array_equal(run(threads=3).paths, ref)


def _fresh_stream_normals(seed, pids, count):
    """The per-path stream contract, one freshly built generator per path."""
    rows = [
        ndtri(np.random.Generator(np.random.Philox(key=[seed, int(p)])).random(count))
        for p in pids
    ]
    return np.array(rows).reshape(len(pids), count)


class TestNormalStreams:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        pids=st.lists(
            st.one_of(st.integers(0, 2**32), st.integers(2**32, 2**63 - 1)),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        count=st.integers(1, 256),
    )
    @example(seed=2**63 - 1, pids=[2**32 + 7, 3, 2**62, 4], count=7)
    @example(seed=3, pids=[5, 0], count=256)
    def test_each_row_is_its_own_fresh_philox_stream(self, seed, pids, count):
        # unsorted, gapped path ids and counts off the 4-word Philox block
        # (up to 2n = 256 normals at n = 128): state left over by one row
        # would show in the next
        got = sve_sim._normal_block(seed, np.array(pids, dtype=np.int64), count)
        assert np.array_equal(got, _fresh_stream_normals(seed, pids, count))

    def test_path_ids_as_array_range_or_list_give_one_block(self):
        ids = range(1019, 1031)
        want = sve_sim._normal_block(9, np.arange(1019, 1031), 33)
        assert np.array_equal(sve_sim._normal_block(9, ids, 33), want)
        assert np.array_equal(sve_sim._normal_block(9, list(ids), 33), want)
        assert np.array_equal(want, _fresh_stream_normals(9, ids, 33))


def _heston_oracle(model, regime, grid, dW):
    """Path-major double sum of the _HestonHistory docstring formula."""
    n, h, H = grid.n_steps, grid.dt, model.hurst
    c0 = power_law(H).moment0(np.arange(n + 1) * h)
    mom = np.diff(c0)
    e = regime.eps
    if regime.is_tail:
        y_start, th, d_amp, n_amp = e**2 * model.y0, e**2 * model.theta, model.kappa, e * model.xi
    else:
        y_start, th = model.y0, model.theta
        d_amp, n_amp = e ** (H + 0.5) * model.kappa, e**H * model.xi
    Y = np.empty((dW.shape[0], n + 1))
    for p in range(dW.shape[0]):
        Y[p, 0] = y_start
        for i in range(1, n + 1):
            terms = []
            for j in range(i):
                yp = max(Y[p, j], 0.0)
                g = d_amp * (th - yp) + n_amp * math.sqrt(yp) * dW[p, j] / h
                terms.append(mom[i - j - 1] * g)
            Y[p, i] = y_start + math.fsum(terms)
    return Y


@functools.lru_cache(maxsize=None)
def _heston_block_reference():
    model = INVARIANCE_MODELS["heston"]
    return simulate(model, small_time_ldp(0.3), SMALL_GRID, 2100, seed=21, threads=1)


class TestHestonHistory:
    # 31, 32 and 33 steps sit at the edge of a _HISTORY_STEPS block, where
    # the far GEMM takes over from the near product; 70 crosses two edges
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
    @pytest.mark.parametrize(
        "xi, regime",
        [(0.3, small_time_ldp(0.04)), (2.0, small_time_ldp(1.0)), (0.3, tail_ldp(0.3))],
    )
    def test_matches_the_path_major_double_sum(self, xi, regime, n):
        # xi = 2 at eps = 1 drives variances negative; first = 1019 puts
        # the 12 paths across the history block edge at path 1024
        model = RoughHeston(kappa=1.0, theta=0.04, xi=xi, rho=-0.7, y0=0.04, hurst=H)
        grid = TimeGrid(1.0, n)
        dW = np.random.default_rng(4).normal(size=(12, n)) * math.sqrt(grid.dt)
        got = sve_sim._HestonHistory(model, regime, grid).volatility(dW, 1019)
        ref = _heston_oracle(model, regime, grid, dW)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_small_run_matches_the_path_major_double_sum(self):
        # a 10-path run fills one 64-path history block, not a 1024-path one
        model = INVARIANCE_MODELS["heston"]
        grid, regime = TimeGrid(1.0, 24), small_time_ldp(0.3)
        ens = simulate(model, regime, grid, 10, seed=5, threads=1)
        dW = _fresh_stream_normals(5, range(10), 48)[:, :24] * math.sqrt(grid.dt)
        ref = _heston_oracle(model, regime, grid, dW)
        assert np.abs(ens.component(1) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n_paths, width", [(10, 64), (130, 192), (961, 1024), (2100, 1024)])
    def test_history_width_follows_the_run_not_the_chunk(self, monkeypatch, n_paths, width):
        seen = set()
        history = sve_sim._HestonHistory

        def recording(model, regime, grid, width):
            seen.add(width)
            return history(model, regime, grid, width)

        monkeypatch.setattr(sve_sim, "_HestonHistory", recording)
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", 100)
        simulate(INVARIANCE_MODELS["heston"], small_time_ldp(0.3), SMALL_GRID, n_paths, seed=1)
        assert seen == {width}

    # 1021 leaves chunks of odd width, which BLAS rounds differently from a
    # multiple of 4: a history block that followed the chunk would show here
    @pytest.mark.parametrize("chunk", [700, 1021, 1024, 1500])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_paths_across_history_blocks_do_not_depend_on_chunks(
        self, monkeypatch, chunk, threads
    ):
        model = INVARIANCE_MODELS["heston"]
        ref = _heston_block_reference()
        monkeypatch.setattr(sve_sim, "_CHUNK_PATHS", chunk)
        ens = simulate(model, small_time_ldp(0.3), SMALL_GRID, 2100, seed=21, threads=threads)
        assert np.array_equal(ens.paths, ref.paths)


class TestThreadCount:
    @pytest.mark.parametrize("env", ["abc", "2.5", "0", "-3"])
    def test_bad_env_value_raises(self, monkeypatch, env):
        monkeypatch.setenv("VD_THREADS", env)
        with pytest.raises(ConfigError, match="VD_THREADS"):
            sve_sim.default_threads()
        with pytest.raises(ConfigError, match="VD_THREADS"):
            simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0)

    def test_env_value_and_cpu_count_default(self, monkeypatch):
        monkeypatch.setenv("VD_THREADS", "3")
        assert sve_sim.default_threads() == 3
        monkeypatch.delenv("VD_THREADS")
        assert sve_sim.default_threads() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
    def test_bad_threads_argument_raises(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            simulate(BERGOMI, small_time_ldp(0.5), SMALL_GRID, 10, seed=0, threads=threads)


class TestFactorCache:
    def test_keeps_at_most_eight_factors(self):
        grids = [TimeGrid(1.0, n) for n in range(2, 12)]
        for g in grids:
            sve_sim._factor(power_law(H), g)
        assert sve_sim._factor.cache_info().currsize <= 8
        last = sve_sim._factor(power_law(H), grids[-1])
        assert sve_sim._factor(power_law(H), grids[-1]) is last


def _joint_factor(f) -> np.ndarray:
    """The factor's (2n, 2n) Cholesky factor rebuilt from its rows, its rows
    in node order: Z_(t_1)..Z_(t_n), then dW.  J J^T is the joint covariance
    in that order, and J with its Z rows reversed is lower triangular."""
    n = f.grid.n_steps
    chol = np.zeros((2 * n, 2 * n))
    chol[:n, :n] = f.z_rows.T
    chol[n:] = f.dw_rows.T
    return chol


class TestFactorBlocks:
    """Cell integrals of the factor against quad of K over each cell."""

    GRID = TimeGrid(1.0, 12)

    @staticmethod
    def _cell(kernel, t, lo, hi):
        """int_lo^hi K(t - u) du, the cell cut off at t."""
        if lo >= t:
            return 0.0
        return quad(lambda u: float(kernel(t - u)), lo, min(hi, t), limit=200, epsrel=1e-12)[0]

    @pytest.mark.parametrize("hurst", [H, 0.3])
    def test_cross_block_is_the_cell_integral(self, hurst):
        kernel, t = power_law(hurst), self.GRID.nodes
        f = sve_sim.GaussianFactor(kernel, self.GRID)
        want = [[self._cell(kernel, ti, t[j], t[j + 1]) for j in range(12)] for ti in t[1:]]
        # the Cholesky product restores the cross block to rounding; the
        # cells beyond each row's node are zero only to that rounding
        chol = _joint_factor(f)
        cross = (chol @ chol.T)[:12, 12:]
        np.testing.assert_allclose(cross, want, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("t_end", [0.5, 1.0])
    def test_section_cells_are_the_cell_integrals(self, t_end):
        # a unit section at t_end shifts dW by its cell integrals and Z by
        # the autocovariance column Cov(Z_(t_i), Z_(t_end))
        kernel, t = power_law(H), self.GRID.nodes
        f = sve_sim.GaussianFactor(kernel, self.GRID)
        e_k = np.zeros(12)
        e_k[self.GRID.node_index(t_end) - 1] = 1.0
        dW, Z = f.sample(f.tilt(np.zeros(12), e_k)[None, :], 0)
        want = [self._cell(kernel, t_end, t[j], t[j + 1]) for j in range(12)]
        np.testing.assert_allclose(dW[0], want, rtol=1e-10, atol=1e-15)
        autocov = [
            quad(
                lambda u: float(kernel(ti - u) * kernel(t_end - u)),
                0.0, min(ti, t_end), limit=200, epsrel=1e-12,
            )[0]
            for ti in t[1:]
        ]
        np.testing.assert_allclose(Z[0, 1:], autocov, rtol=1e-9, atol=0.0)


class TestFactorSplit:
    """``GaussianFactor.sample`` against the full product (xi_z, xi_w) @ chol.T,
    chol the lower Cholesky factor in the factor's order: Z nodes last to
    first, then dW."""

    # 8, 16, 64, 128 and 256 steps are bit-identical to the full product in
    # every BLAS thread count tried; other sizes block the narrower products'
    # sums differently and move Z and dW by a few ulps of their max
    EXACT = (8, 16, 64, 128, 256)
    SIZES = [1, 8, 16, 33, 50, 64, 65, 100, 127, 128, 129, 256]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("hurst", [H, 0.5])  # 0.5: the bumped Brownian factor
    @pytest.mark.parametrize("first", [0, 37])
    def test_matches_the_full_product(self, n, hurst, first):
        f = sve_sim.GaussianFactor(power_law(hurst), TimeGrid(1.0, n))
        assert (f.bump > 0.0) == (hurst == 0.5)
        # the split rests on this: the joint factor, Z nodes reversed, is
        # lower triangular, so Z reads the first n normals alone and node t_i
        # its first n - i + 1
        chol = _joint_factor(f)[np.r_[n - 1 : -1 : -1, n : 2 * n]]
        assert np.array_equal(chol, np.tril(chol))
        # 150 paths from 37 cover partial blocks at both edges and full ones
        normals = np.random.default_rng(n).normal(size=(150, 2 * n))
        full = sve_sim._aligned_matmul(normals, chol.T, first)
        dW, Z = f.sample(normals, first)
        none, z_only = f.sample(normals[:, :n], first)
        assert none is None
        assert np.array_equal(z_only, Z)
        assert not Z[:, 0].any()
        for got, want in ((Z[:, 1:], full[:, n - 1 :: -1]), (dW, full[:, n:])):
            if n in self.EXACT:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 8, 33, 64, 128])
    @pytest.mark.parametrize("hurst", [H, 0.3, 0.5])
    def test_reproduces_the_joint_covariance(self, n, hurst):
        # Z first: the nodes' autocovariance, the cell integrals Cov(Z_i, dW_j)
        # and dt I, plus the bump on the diagonal
        kernel, grid = power_law(hurst), TimeGrid(1.0, n)
        f = sve_sim.GaussianFactor(kernel, grid)
        t, cells, lag = grid.nodes[1:], conv_weights(kernel, grid).cells, np.arange(n)
        cross = np.tril(cells[lag[:, None] - lag])
        autocov = kernel.autocovariance(t[:, None], t[None, :])
        cov = np.block([[autocov, cross], [cross.T, grid.dt * np.eye(n)]])
        chol = _joint_factor(f)
        assert np.abs(chol @ chol.T - cov - f.bump * np.eye(2 * n)).max() <= 1e-12
        # the tilt is chol.T applied to (l_z, l_dw)
        l_z, l_dw = np.random.default_rng(n).normal(size=(2, n))
        np.testing.assert_allclose(
            f.tilt(l_dw, l_z), chol.T @ np.concatenate([l_z, l_dw]), rtol=0, atol=1e-13
        )

    def test_aligned_product_is_bit_identical_for_column_slices(self):
        # the price-noise channel is a column slice of the chunk's draws
        draws = np.random.default_rng(2).normal(size=(300, 3 * 32))
        b = np.random.default_rng(3).normal(size=(32, 32))
        got = sve_sim._aligned_matmul(draws[:, 32:64], b, 37)
        want = sve_sim._aligned_matmul(np.ascontiguousarray(draws[:, 32:64]), b, 37)
        assert np.array_equal(got, want)
        for lo, i, j in sve_sim._aligned_blocks(37, 300, sve_sim._BLAS_ROWS):
            block = np.zeros((sve_sim._BLAS_ROWS, 32))
            block[i - lo : j - lo] = draws[i:j, 32:64]
            assert np.array_equal(got[i:j], (block @ b)[i - lo : j - lo])


class TestCholeskyBump:
    # at H = 1/2 the kernel is 1 and Z_t = W_t is a sum of the dW cells, so
    # the joint covariance is singular and its Cholesky factorisation needs
    # the bump
    def test_brownian_factor_records_its_bump(self):
        f = sve_sim.GaussianFactor(power_law(0.5), TimeGrid(1.0, 8))
        # trace = n h (cells) + sum t_i (Var Z_t = t) = 1 + 4.5, over 2n = 16
        assert f.bump == pytest.approx(1e-12 * 5.5 / 16, rel=1e-12)
        assert sve_sim.GaussianFactor(power_law(H), TimeGrid(1.0, 8)).bump == 0.0

    def test_ensemble_carries_the_largest_bump(self):
        grid = TimeGrid(1.0, 8)
        want = sve_sim.GaussianFactor(power_law(0.5), grid).bump
        brownian = RoughBergomi(a=0.5, rho=-0.5, y0=Y0, hurst=0.5)
        assert simulate(brownian, small_time_ldp(0.5), grid, 10, seed=1).bump == want
        two = MultiRoughBergomi(
            loadings=((1.0, 0.0), (0.4, 0.9)),
            a=(0.2, 0.2),
            y0=(Y0, Y0 - 0.1),
            rho=(-0.3, 0.1),
            hurst=(H, 0.5),
        )
        assert simulate(two, small_time_ldp(0.5), grid, 10, seed=1).bump == want
        assert simulate(BERGOMI, small_time_ldp(0.5), grid, 10, seed=1).bump == 0.0
        heston = INVARIANCE_MODELS["heston"]
        assert simulate(heston, small_time_ldp(0.5), grid, 10, seed=1).bump == 0.0
