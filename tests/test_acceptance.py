"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, from the criteria, not
calibrated after the fact.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from volterra_deviations.frac_calculus import Control
from volterra_deviations.kernels import (
    GridFunction,
    TimeGrid,
    constant,
    l2_norm_sq,
    power_law,
)
from volterra_deviations.mc_verify import (
    DeviationExperiment,
    EventSpec,
    build_is_control,
    estimate_event_prob,
    ldp_slope,
)
from volterra_deviations.rate_functions import (
    gaussian_terminal_control,
    heston_rate,
    ldp_rate_pair,
    ldp_rate_terminal,
    mdp_rate_pair,
    mdp_rate_terminal_x,
    mdp_rate_terminal_y,
    regenerate_mdp_pair,
    regenerate_smalltime_pair,
    regenerate_tail_pair,
    tail_rate_heston,
    tail_rate_steinstein,
)
from volterra_deviations.frac_calculus import rl_derivative, rl_integral
from volterra_deviations.implied_vol import mc_smile
from volterra_deviations.sve_sim import (
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
    simulate,
    small_time_ldp,
)
from volterra_deviations.volterra_det import DiffusionTerm, LimitProblem, solve_ldp_limit

H = 0.1
R_NORM = l2_norm_sq(power_law(H), 1.0)  # = 2.2546 (1 / (2H Gamma(H+1/2)^2))
Y0 = math.log(0.04)
GAUSSIAN = RoughBergomi(a=0.0, rho=0.0, y0=Y0, hurst=H)


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}", flush=True)
    assert passed, f"criterion {num} failed: {detail}"


class TestCriterion1FractionalCalculus:
    def test_power_law_maps_and_heston_constant(self):
        t0 = time.time()
        grid = TimeGrid(1.0, 4096)
        t = grid.nodes
        worst = 0.0
        for beta in (0.0, 0.6, 1.0):
            for alpha in (0.1, 0.6, 0.9):
                got = rl_integral(GridFunction(grid, t**beta), alpha).values
                want = (
                    gamma_fn(beta + 1.0)
                    / gamma_fn(beta + 1.0 + alpha)
                    * t ** (beta + alpha)
                )
                # relative to the map's scale (sup norm of the reference)
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        d = rl_derivative(GridFunction(grid, t ** (H + 0.5)), H + 0.5, 0.0).values
        c_want = gamma_fn(H + 1.5)
        d_err = np.max(np.abs(d[1:] - c_want)) / c_want
        elapsed = time.time() - t0
        ok = worst < 1e-3 and d_err < 1e-3 and elapsed < 10.0
        report(
            1,
            ok,
            f"power maps sup-rel {worst:.2e} (<1e-3), "
            f"D^0.6 t^0.6 vs Gamma(1.6) rel {d_err:.2e} (<1e-3), {elapsed:.1f}s (<10s)",
        )


class TestCriterion2FellerBranches:
    def test_both_branches(self):
        t0 = time.time()
        grid = TimeGrid(4.0, 4096)
        tt = grid.nodes
        v = Control(GridFunction(grid, np.where(tt < 2.0, -1.0, 1.0)))

        def sig(s, x):
            x = np.asarray(x, dtype=float)
            if x.ndim != 1:
                raise TypeError("per-node field")
            return np.array([[math.sqrt(max(float(x[0]), 0.0))]])

        results = {}
        for policy in ("continue_positive", "absorb_at_zero"):
            p = LimitProblem(
                grid=grid,
                x0=np.array([1.0]),
                diffusion_terms=(DiffusionTerm(constant(1.0), sig),),
                control=v,
                branch_policy=policy,
                sqrt_component=0,
            )
            rep = solve_ldp_limit(p)
            anal = (tt - 2.0) ** 2 / 4.0
            if policy == "absorb_at_zero":
                anal = np.where(tt <= 2.0, anal, 0.0)
            results[policy] = (
                rep.residual,
                float(np.max(np.abs(rep.path.values - anal))),
            )
        elapsed = time.time() - t0
        ok = all(r <= 1e-8 and d <= 1e-3 for r, d in results.values()) and elapsed < 5.0
        report(
            2,
            ok,
            "Feller residuals "
            + ", ".join(f"{k}: res {r:.1e} dev {d:.1e}" for k, (r, d) in results.items())
            + f", {elapsed:.1f}s (<5s)",
        )


class TestCriterion3CameronMartin:
    def test_gaussian_marginal_terminal_rates(self):
        t0 = time.time()
        worst = 0.0
        for dy in (0.5, 1.0, 2.0):
            res = ldp_rate_terminal(GAUSSIAN, Y0 + dy, component="y", n_steps=512)
            oracle, _ = gaussian_terminal_control(power_law(H), 1.0, dy, 1.0)
            analytic = dy**2 / (2.0 * R_NORM)
            assert oracle == pytest.approx(analytic, rel=1e-12)
            worst = max(worst, abs(res.value / analytic - 1.0))
        elapsed = time.time() - t0
        ok = worst < 0.01 and elapsed < 60.0
        report(
            3,
            ok,
            f"terminal Y rates vs (dy)^2/(2*{R_NORM:.4f}): worst rel {worst:.2e} "
            f"(<1e-2) at n=512, {elapsed:.1f}s (<60s)",
        )


class TestCriterion4RateRoundTrips:
    def test_all_closed_forms_regenerate(self):
        t0 = time.time()
        grid = TimeGrid(1.0, 2048)
        t = grid.nodes
        skip = 3
        gaps = {}

        def sup3(a, b):
            return float(np.max(np.abs(a.values[skip:] - b.values[skip:])))

        # explicit small-time rate (rough Bergomi, correlated)
        berg = RoughBergomi(a=0.3, rho=-0.6, y0=-3.0, hurst=H)
        vphi = GridFunction(grid, -3.0 + 0.7 * t ** (H + 0.5))
        phi = GridFunction(grid, 0.4 * t)
        r = ldp_rate_pair(berg, phi, vphi)
        pr, vr = regenerate_smalltime_pair(berg, r)
        gaps["explicit"] = max(sup3(pr, phi), sup3(vr, vphi))

        # rough Heston small-time
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        vphi_h = GridFunction(grid, 0.04 + 0.2 * t ** (H + 0.5))
        phi_h = GridFunction(grid, 0.05 * t)
        rh = heston_rate(hes, phi_h, vphi_h, delta=0.0)
        pr, vr = regenerate_smalltime_pair(hes, rh)
        gaps["heston"] = max(sup3(pr, phi_h), sup3(vr, vphi_h))

        # tail Stein-Stein
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        vphi_t = GridFunction(grid, 0.2 * t ** (H + 0.5))
        integ = -0.5 * vphi_t.values**2 + 0.1 * vphi_t.values
        phi_t = GridFunction(
            grid,
            np.concatenate([[0.0], np.cumsum(0.5 * grid.dt * (integ[1:] + integ[:-1]))]),
        )
        rt = tail_rate_steinstein(ss, phi_t, vphi_t)
        pr, vr = regenerate_tail_pair(ss, rt)
        gaps["tail_ss"] = max(sup3(pr, phi_t), sup3(vr, vphi_t))

        # tail rough Heston
        integ_h = -0.5 * vphi_t.values + 0.1 * np.sqrt(vphi_t.values)
        phi_th = GridFunction(
            grid,
            np.concatenate(
                [[0.0], np.cumsum(0.5 * grid.dt * (integ_h[1:] + integ_h[:-1]))]
            ),
        )
        rth = tail_rate_heston(hes, phi_th, vphi_t, delta=0.0)
        pr, vr = regenerate_tail_pair(hes, rth)
        gaps["tail_heston"] = max(sup3(pr, phi_th), sup3(vr, vphi_t))

        # MDP frozen form
        rm = mdp_rate_pair(hes, GridFunction(grid, 0.1 * t), vphi_h)
        pr, vr = regenerate_mdp_pair(hes, rm)
        gaps["mdp"] = max(sup3(pr, GridFunction(grid, 0.1 * t)), sup3(vr, vphi_h))

        elapsed = time.time() - t0
        worst = max(gaps.values())
        ok = worst <= 1e-3 and elapsed < 60.0
        report(
            4,
            ok,
            "round trips sup-gaps "
            + ", ".join(f"{k}={v:.1e}" for k, v in gaps.items())
            + f" (<=1e-3 at n=2048), {elapsed:.1f}s (<60s)",
        )


class TestCriterion5MdpExactness:
    def test_formulas_match_minimizer_and_scale(self):
        t0 = time.time()
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.4, y0=0.04, hurst=H)
        x_gap = abs(
            ldp_rate_terminal(hes, 0.1, component="x", n_steps=512, frozen=True).value
            / mdp_rate_terminal_x(hes, 0.1)
            - 1.0
        )
        y_gap = abs(
            ldp_rate_terminal(hes, 2.0, component="y_psi", n_steps=512, frozen=True).value
            / mdp_rate_terminal_y(2.0)
            - 1.0
        )
        # exact quadratic scaling of the pathwise form
        grid = TimeGrid(1.0, 1024)
        t = grid.nodes
        phi = GridFunction(grid, 0.1 * t)
        vphi = GridFunction(grid, 0.04 + 0.05 * t ** (H + 0.5))
        base = mdp_rate_pair(hes, phi, vphi)
        c = 5.3
        scaled = mdp_rate_pair(
            hes,
            GridFunction(grid, c * phi.values),
            GridFunction(grid, 0.04 + c * (vphi.values - 0.04)),
        )
        quad_err = abs(scaled.value - c**2 * base.value)
        elapsed = time.time() - t0
        ok = x_gap < 0.01 and y_gap < 0.01 and quad_err <= 1e-10 and elapsed < 30.0
        report(
            5,
            ok,
            f"terminal x gap {x_gap:.2e}, y gap {y_gap:.2e} (<1e-2), "
            f"quadratic-scaling err {quad_err:.1e} (<=1e-10), {elapsed:.1f}s (<30s)",
        )


GRID_MC = TimeGrid(1.0, 64)


class TestCriterion6LdpSlope:
    def test_gaussian_intercept_within_ten_percent(self):
        t0 = time.time()
        event = EventSpec(component=1, level=Y0 + 1.0)
        ctrl = build_is_control(GAUSSIAN, event, GRID_MC, "small_time_ldp")
        # noise scales theta = eps^H swept over the stated values
        eps = tuple(v ** (1.0 / H) for v in (0.4, 0.3, 0.2, 0.15))
        exp = DeviationExperiment(
            model=GAUSSIAN,
            event=event,
            epsilons=eps,
            n_paths=100_000,
            seed=20260809,
            grid=GRID_MC,
            is_control=ctrl,
            reference_rate=1.0 / (2.0 * R_NORM),
        )
        rep = ldp_slope(exp)
        elapsed = time.time() - t0
        ok = rep.relative_gap <= 0.10 and elapsed < 600.0
        report(
            6,
            ok,
            f"intercept {rep.intercept:.4f} vs -{1.0 / (2.0 * R_NORM):.4f}, "
            f"gap {rep.relative_gap:.3f} (<=0.10), {elapsed:.0f}s (<600s)",
        )


class TestCriterion7MdpSlope:
    def test_mdp_intercept_within_fifteen_percent(self):
        t0 = time.time()
        beta = H / 2.0
        # threshold of one noise-normalized unit: level = sqrt(R); the
        # reference y^2/2 is stated in these units
        level = math.sqrt(R_NORM)
        event = EventSpec(component=1, level=level)
        ctrl = build_is_control(GAUSSIAN, event, GRID_MC, "small_time_mdp")
        exp = DeviationExperiment(
            model=GAUSSIAN,
            event=event,
            epsilons=(1e-8, 1e-10, 1e-12, 1e-14),
            regime_kind="small_time_mdp",
            beta=beta,
            n_paths=100_000,
            seed=20260810,
            grid=GRID_MC,
            is_control=ctrl,
            reference_rate=mdp_rate_terminal_y(1.0),
        )
        rep = ldp_slope(exp)
        elapsed = time.time() - t0
        ok = rep.relative_gap <= 0.15 and elapsed < 600.0
        report(
            7,
            ok,
            f"MDP intercept {rep.intercept:.4f} vs -0.5, gap {rep.relative_gap:.3f} "
            f"(<=0.15) at beta=H/2, {elapsed:.0f}s (<600s)",
        )


class TestCriterion8ImportanceSampling:
    def test_unbiased_and_ten_fold_variance_reduction(self):
        t0 = time.time()
        theta = 0.2
        eps = theta ** (1.0 / H)
        level = Y0 + 3.0 * theta * math.sqrt(R_NORM)
        event = EventSpec(component=1, level=level)
        ctrl = build_is_control(GAUSSIAN, event, GRID_MC, "small_time_ldp")
        plain = DeviationExperiment(
            model=GAUSSIAN, event=event, epsilons=(eps,), n_paths=100_000,
            seed=11, grid=GRID_MC,
        )
        shifted = DeviationExperiment(
            model=GAUSSIAN, event=event, epsilons=(eps,), n_paths=100_000,
            seed=12, grid=GRID_MC, is_control=ctrl,
        )
        p1, se1, _ = estimate_event_prob(plain, eps)
        p2, se2, _ = estimate_event_prob(shifted, eps)
        dist = abs(p1 - p2) / math.hypot(se1, se2)
        vr = (se1 / se2) ** 2
        elapsed = time.time() - t0
        ok = dist <= 4.0 and vr >= 10.0 and elapsed < 300.0
        report(
            8,
            ok,
            f"plain {p1:.3e} vs IS {p2:.3e}: {dist:.2f} combined se (<=4), "
            f"variance reduction {vr:.0f}x (>=10x), {elapsed:.0f}s (<300s)",
        )


class TestCriterion9MartingaleAndSmile:
    def test_martingale_and_mdp_smile_trend(self):
        t0 = time.time()
        # rough Bergomi martingale sanity at T = 0.25
        berg = RoughBergomi(a=0.5, rho=-0.5, y0=Y0, hurst=H)
        t_mat = 0.25
        n = GRID_MC.n_steps
        ens = simulate(berg, small_time_ldp(t_mat), GRID_MC, 100_000, seed=23, nodes=[n])
        s = np.exp(t_mat ** (0.5 - H) * ens.component_at(0, n))
        se = s.std(ddof=1) / math.sqrt(len(s))
        mart_dev = abs(s.mean() - 1.0) / se

        # rough Heston MDP-strike smile trend toward sqrt(Sigma(y0)) = 0.2
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
        beta = H / 2.0
        devs = []
        for t in (0.04, 0.02, 0.01):
            k_phys = 0.1 * t ** (0.5 - beta)
            pts = mc_smile(hes, t, [k_phys], 1_000_000, seed=101, n_steps=128)
            devs.append(abs(pts[0].sigma_hat - 0.2))
        monotone = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        elapsed = time.time() - t0
        ok = mart_dev <= 4.0 and monotone and elapsed < 1200.0
        report(
            9,
            ok,
            f"E[exp(X_T)] dev {mart_dev:.2f} se (<=4); smile |dev to 0.2| "
            + " > ".join(f"{d:.4f}" for d in devs)
            + f" monotone={monotone}, {elapsed:.0f}s (<1200s)",
        )


class TestCriterion10SimulationInvariants:
    def test_thread_reproducibility_and_proxies(self):
        t0 = time.time()
        berg = RoughBergomi(a=0.5, rho=-0.5, y0=Y0, hurst=H)
        e1 = simulate(berg, small_time_ldp(0.2), GRID_MC, 40_000, seed=7, threads=1)
        e4 = simulate(berg, small_time_ldp(0.2), GRID_MC, 40_000, seed=7, threads=4)
        bit_exact = np.array_equal(e1.paths, e4.paths)

        p = 8
        alpha = H - 1.0 / p - 0.01
        nodes = GRID_MC.nodes
        holder, moment4 = [], []
        for eps in (0.2, 0.1, 0.05):
            ens = simulate(berg, small_time_ldp(eps), GRID_MC, 2000, seed=31)
            y = ens.component(1)
            sup = np.zeros(y.shape[0])
            level = 1
            while level <= GRID_MC.n_steps:
                d = np.abs(y[:, level::level] - y[:, :-level:level])
                sup = np.maximum(sup, d.max(axis=1) / (nodes[level] ** alpha))
                level *= 2
            holder.append(float((sup**p).mean() ** (1.0 / p)))
            moment4.append(float(np.max(np.mean((y - Y0) ** 4, axis=0))))
        hold_ok = max(holder) <= 2.0 * min(holder)
        mom_ok = max(moment4) <= 2.0 * max(min(moment4), 1e-12)
        elapsed = time.time() - t0
        ok = bit_exact and hold_ok and mom_ok and elapsed < 600.0
        report(
            10,
            ok,
            f"bit-exact across threads={bit_exact}; Holder proxy spread "
            f"{max(holder) / min(holder):.2f}x (<=2x); 4th-moment spread "
            f"{max(moment4) / max(min(moment4), 1e-300):.2f}x (<=2x), {elapsed:.0f}s (<600s)",
        )
