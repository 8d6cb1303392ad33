import math

import numpy as np
import pytest
from volterra_deviations.errors import InvalidModel
from volterra_deviations.frac_calculus import Control, KernelSection
from volterra_deviations.kernels import GridFunction, TimeGrid, l2_norm_sq, power_law
from volterra_deviations.sve_sim import (
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
    ScalingRegime,
    heston_step_policy,
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
        ctrl = Control.zero(TimeGrid(2.0, 64), 2)
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
    def test_step_policy_identities(self):
        assert heston_step_policy(0.04, 0.0) == 0.04
        assert heston_step_policy(0.0, -0.02) == -0.02
        # diffusion contribution vanishes at zero variance
        assert math.sqrt(max(0.0, 0.0)) == 0.0

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
