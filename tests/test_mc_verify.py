import math

import numpy as np
import pytest
from scipy.stats import norm

from volterra_deviations.errors import InsufficientHits, InvalidModel, KernelDomainError
from volterra_deviations.frac_calculus import Control, KernelSection
from volterra_deviations.kernels import GridFunction, TimeGrid, l2_norm_sq, power_law
from volterra_deviations.mc_verify import (
    DeviationExperiment,
    EventSpec,
    build_is_control,
    estimate_event_prob,
    ldp_slope,
)
from volterra_deviations.rate_functions import ldp_rate_terminal
from volterra_deviations.sve_sim import (
    RoughBergomi,
    RoughHeston,
    simulate,
    simulate_controlled,
    small_time_ldp,
)

H = 0.1
Y0 = math.log(0.04)
R = l2_norm_sq(power_law(H), 1.0)
GAUSSIAN = RoughBergomi(a=0.0, rho=0.0, y0=Y0, hurst=H)
HESTON = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
GRID = TimeGrid(1.0, 64)


def experiment(**kw):
    args = dict(
        model=GAUSSIAN,
        event=EventSpec(component=1, level=Y0 + 1.0),
        epsilons=(0.5,),
        n_paths=20_000,
        seed=4,
        grid=GRID,
    )
    args.update(kw)
    return DeviationExperiment(**args)


class TestEstimateEventProb:
    def test_sure_event(self):
        exp = experiment(event=EventSpec(component=1, level=-np.inf), n_paths=1000)
        p, se, hits = estimate_event_prob(exp, 0.5)
        assert p == 1.0
        assert se == 0.0
        assert hits == 1000

    def test_gaussian_tail_oracle(self):
        exp = experiment(n_paths=100_000)
        p, se, _ = estimate_event_prob(exp, 0.5)
        exact = norm.sf(1.0 / (0.5**H * math.sqrt(R)))
        assert abs(p - exact) <= 3.0 * se

    def test_is_agrees_with_plain_and_reduces_variance(self):
        level = Y0 + 3.0 * 0.2 * math.sqrt(R)  # 3 sigma at theta = 0.2
        eps = 0.2 ** (1.0 / H)
        ev = EventSpec(component=1, level=level)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        plain = experiment(event=ev, n_paths=100_000, seed=5)
        isexp = experiment(event=ev, n_paths=100_000, seed=6, is_control=ctrl)
        p1, se1, _ = estimate_event_prob(plain, eps)
        p2, se2, _ = estimate_event_prob(isexp, eps)
        assert abs(p1 - p2) <= 4.0 * math.hypot(se1, se2)
        assert (se1 / se2) ** 2 >= 10.0

    def test_weight_diagnostics_are_those_of_the_level_weights(self):
        ev = EventSpec(component=1, level=Y0 + 1.0)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        exp = experiment(event=ev, n_paths=5000, seed=7, is_control=ctrl)
        level = estimate_event_prob(exp, 0.5)
        ens = simulate_controlled(
            GAUSSIAN, small_time_ldp(0.5), ctrl, GRID, 5000, 7, nodes=[64], components=[1]
        )
        w = np.exp(ens.log_weights)
        assert level.ess == pytest.approx(w.sum() ** 2 / np.sum(w**2), rel=1e-12)
        assert level.max_weight_share == pytest.approx(w.max() / w.sum(), rel=1e-12)
        second = np.mean(np.where(ev.indicator(ens), w, 0.0) ** 2)
        s = exp.speed_value(0.5)
        assert level.second_moment_decay == pytest.approx(s * math.log(second), rel=1e-12)
        # E[w^2 1_A] >= p^2 on any sample, and below p for a tilt that beats
        # plain sampling
        assert 2.0 * s * math.log(level.p_hat) <= level.second_moment_decay
        assert level.second_moment_decay < s * math.log(level.p_hat)
        # the terminal event reads one node: one normal per path
        assert level.normals_per_path == ens.normals_per_path == 1
        # a real tilt spreads the weights: fewer effective paths than drawn
        assert 1.0 < level.ess < 5000
        assert 1.0 / 5000 < level.max_weight_share < 1.0

    def test_equal_weights_give_every_path_and_plain_runs_none(self):
        zero = Control(GridFunction(GRID, np.zeros((len(GRID), 2))))
        level = estimate_event_prob(experiment(n_paths=1000, is_control=zero), 0.5)
        assert level.ess == 1000.0
        assert level.max_weight_share == 1.0 / 1000
        # unit weights: E[w^2 1_A] is the hit fraction p
        s = experiment().speed_value(0.5)
        assert level.second_moment_decay == pytest.approx(s * math.log(level.p_hat), rel=1e-12)
        far = estimate_event_prob(
            experiment(event=EventSpec(1, Y0 + 50.0), n_paths=1000, is_control=zero), 0.5
        )
        assert far.hits == 0 and far.second_moment_decay == -math.inf
        plain = estimate_event_prob(experiment(n_paths=1000), 0.5)
        assert plain.ess is None and plain.max_weight_share is None
        assert plain.second_moment_decay is None
        assert plain.normals_per_path == 1
        assert tuple(plain) == (plain.p_hat, plain.stderr, plain.hits)

    def test_off_grid_times_raise(self):
        ev = EventSpec(component=1, level=Y0 + 1.0, t_eval=0.503)
        with pytest.raises(KernelDomainError):
            ev.indicator(simulate(GAUSSIAN, small_time_ldp(0.5), GRID, 10, 0))
        off = KernelSection(power_law(H), 0.503, 1.0, 0)
        ctrl = Control(Control.zero(GRID, 2).values, sections=(off,))
        with pytest.raises(KernelDomainError):
            simulate_controlled(GAUSSIAN, small_time_ldp(0.5), ctrl, GRID, 10, 0)

    @pytest.mark.parametrize("controlled", [False, True])
    def test_reads_the_event_node_once(self, monkeypatch, controlled):
        ev = EventSpec(component=1, level=Y0 + 0.5, t_eval=0.5)
        ctrl = build_is_control(GAUSSIAN, ev, GRID) if controlled else None
        exp = experiment(event=ev, n_paths=1000, is_control=ctrl)
        seen = []
        indicator = EventSpec.indicator

        def recording(self, ens):
            seen.append((ens.nodes.tolist(), ens.components.tolist()))
            return indicator(self, ens)

        monkeypatch.setattr(EventSpec, "indicator", recording)
        p, se, hits = estimate_event_prob(exp, 0.5)
        assert seen == [([GRID.node_index(0.5)], [1])]
        if controlled:
            full = simulate_controlled(GAUSSIAN, small_time_ldp(0.5), ctrl, GRID, 1000, 4)
        else:
            full = simulate(GAUSSIAN, small_time_ldp(0.5), GRID, 1000, 4)
        hit = indicator(ev, full)
        est = hit * full.weights()
        assert p == float(est.mean())
        assert se == float(est.std(ddof=1) / math.sqrt(1000))
        assert hits == np.count_nonzero(hit)

    # a volatility event under the u = 0 section tilt, plain and under a
    # nodal tilt with u != 0 (the price noise is drawn there), and a price event
    @pytest.mark.parametrize(
        "model, component, tilt",
        [
            (GAUSSIAN, 1, "section"),
            (HESTON, 1, None),
            (HESTON, 1, "nodal"),
            (GAUSSIAN, 0, "nodal"),
        ],
    )
    def test_matches_a_full_component_run_bit_for_bit(self, model, component, tilt):
        level = Y0 + 0.5 if model is GAUSSIAN and component else 0.02
        ev = EventSpec(component=component, level=level)
        grid = TimeGrid(1.0, 16)
        ctrl = None
        if tilt == "section":
            ctrl = build_is_control(model, ev, grid)
        elif tilt == "nodal":
            vals = np.tile([0.3, -0.4], (len(grid), 1))
            ctrl = Control(GridFunction(grid, vals))
        exp = experiment(model=model, event=ev, grid=grid, n_paths=3000, is_control=ctrl)
        if ctrl is None:
            full = simulate(model, small_time_ldp(0.5), grid, 3000, 4)
        else:
            full = simulate_controlled(model, small_time_ldp(0.5), ctrl, grid, 3000, 4)
        hit = ev.indicator(full)
        est = hit * full.weights()
        p, se, hits = estimate_event_prob(exp, 0.5)
        assert hits > 0 and p == float(est.mean())
        assert se == float(est.std(ddof=1) / math.sqrt(3000))
        assert hits == np.count_nonzero(hit)

    def test_a_component_the_model_lacks_raises_before_drawing(self, monkeypatch):
        from volterra_deviations import sve_sim

        monkeypatch.setattr(sve_sim, "_normal_block", None)  # any draw would fail
        for component in (2, -1):
            exp = experiment(event=EventSpec(component=component, level=Y0), n_paths=1000)
            with pytest.raises(InvalidModel, match="components"):
                estimate_event_prob(exp, 0.5)

    def test_event_node_not_held_raises(self):
        ens = simulate(GAUSSIAN, small_time_ldp(0.5), GRID, 10, 0, nodes=[GRID.n_steps])
        with pytest.raises(KernelDomainError):
            EventSpec(component=1, level=Y0, t_eval=0.5).indicator(ens)
        assert EventSpec(component=1, level=Y0).indicator(ens).shape == (10,)

    def test_validation(self):
        with pytest.raises(ValueError):
            experiment(epsilons=(0.1, 0.2))
        with pytest.raises(ValueError):
            experiment(n_paths=10)


class TestLdpSlope:
    def test_gaussian_reference_gap(self):
        ev = EventSpec(component=1, level=Y0 + 1.0)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        eps = tuple(v ** (1.0 / H) for v in (0.4, 0.3, 0.2, 0.15))
        exp = experiment(
            event=ev,
            epsilons=eps,
            n_paths=40_000,
            seed=2026,
            is_control=ctrl,
            reference_rate=1.0 / (2.0 * R),
        )
        rep = ldp_slope(exp)
        # full-strength 10% check runs in the acceptance suite
        assert rep.relative_gap <= 0.12
        assert rep.used_importance_sampling
        # each level's weight diagnostics are its own estimate's
        for i, e in enumerate(eps):
            level = estimate_event_prob(exp, e, seed=exp.seed + i)
            assert (
                rep.ess[i], rep.max_weight_shares[i], rep.second_moment_decays[i],
                rep.normals_per_path[i],
            ) == (
                level.ess, level.max_weight_share, level.second_moment_decay,
                level.normals_per_path,
            )
            assert 1.0 < rep.ess[i] < exp.n_paths
            assert 2.0 * rep.f_values[i] <= rep.second_moment_decays[i] < rep.f_values[i]
        assert rep.normals_per_path == (1,) * len(eps)

    def test_slope_values_decrease_toward_intercept(self):
        ev = EventSpec(component=1, level=Y0 + 1.0)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        eps = tuple(v ** (1.0 / H) for v in (0.4, 0.3, 0.2, 0.15))
        exp = experiment(
            event=ev, epsilons=eps, n_paths=50_000, seed=8, is_control=ctrl
        )
        rep = ldp_slope(exp)
        dist = [abs(f - rep.intercept) for f in rep.f_values]
        assert all(dist[i + 1] <= dist[i] for i in range(len(dist) - 1))

    def test_degenerate_zero_threshold(self):
        # symmetric Gaussian, threshold at the mean: p = 1/2, intercept -> 0
        ev = EventSpec(component=1, level=Y0)
        eps = tuple(v ** (1.0 / H) for v in (0.4, 0.3, 0.2, 0.15))
        exp = experiment(event=ev, epsilons=eps, n_paths=20_000, seed=10)
        rep = ldp_slope(exp)
        assert abs(rep.intercept) <= 0.05
        assert rep.ess is None and rep.max_weight_shares is None  # no weights
        assert rep.second_moment_decays is None

    def test_insufficient_hits(self):
        ev = EventSpec(component=1, level=Y0 + 5.0)
        eps = (0.05 ** (1.0 / H), 0.04 ** (1.0 / H))
        exp = experiment(event=ev, epsilons=eps, n_paths=2000, seed=3)
        with pytest.raises(InsufficientHits):
            ldp_slope(exp)

    def test_one_level_fails_before_simulating(self, monkeypatch):
        from volterra_deviations import mc_verify

        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the sweep was checked")

        monkeypatch.setattr(mc_verify, "estimate_event_prob", forbidden)
        ev = EventSpec(component=1, level=Y0 + 1.0)
        exp = experiment(event=ev, epsilons=(0.4 ** (1.0 / H),), n_paths=2000, seed=3)
        with pytest.raises(ValueError, match="2 epsilons"):
            ldp_slope(exp)

    def test_mdp_normalized_reference(self):
        beta = H / 2.0
        level = math.sqrt(R)  # one normalized unit
        ev = EventSpec(component=1, level=level)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_mdp")
        exp = experiment(
            event=ev,
            epsilons=(1e-8, 1e-10, 1e-12, 1e-14),
            regime_kind="small_time_mdp",
            beta=beta,
            n_paths=25_000,
            seed=12,
            is_control=ctrl,
            reference_rate=0.5,
        )
        rep = ldp_slope(exp)
        assert rep.relative_gap <= 0.15

    def test_deterministic_given_seed(self):
        ev = EventSpec(component=1, level=Y0 + 1.0)
        eps = (0.4 ** (1.0 / H), 0.3 ** (1.0 / H))
        r1 = ldp_slope(experiment(event=ev, epsilons=eps, n_paths=5000, seed=5))
        r2 = ldp_slope(experiment(event=ev, epsilons=eps, n_paths=5000, seed=5))
        assert r1.p_hats == r2.p_hats
        assert r1.intercept == r2.intercept


class TestBuildIsControl:
    def test_zero_threshold_gives_zero_control(self):
        ev = EventSpec(component=1, level=Y0)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        assert np.all(ctrl.values.values == 0.0)
        assert all(sec.coeff == 0.0 for sec in ctrl.sections)

    def test_gaussian_control_is_kernel_section(self):
        ev = EventSpec(component=1, level=Y0 + 1.0)
        ctrl = build_is_control(GAUSSIAN, ev, GRID, "small_time_ldp")
        assert len(ctrl.sections) == 1
        sec = ctrl.sections[0]
        assert sec.coeff == pytest.approx(1.0 / R)
        # shifted mean hits the boundary: zeta0 * coeff * R = offset
        assert sec.coeff * R == pytest.approx(1.0)

    @pytest.mark.parametrize("component", [2, -1])
    @pytest.mark.parametrize("model", [GAUSSIAN, HESTON], ids=["bergomi", "heston"])
    def test_a_component_the_model_lacks_raises_before_any_solve(
        self, monkeypatch, model, component
    ):
        from volterra_deviations import mc_verify

        def forbidden(*args, **kwargs):
            raise AssertionError("solved for an event the model cannot have")

        for name in ("gaussian_terminal_control", "ldp_rate_terminal"):
            monkeypatch.setattr(mc_verify, name, forbidden)
        with pytest.raises(InvalidModel, match="components"):
            build_is_control(model, EventSpec(component=component, level=Y0 + 1.0), GRID)

    def test_price_control_ends_at_t_eval(self):
        model = RoughBergomi(a=0.3, rho=-0.5, y0=Y0, hurst=H)
        ev = EventSpec(component=0, level=0.1, t_eval=0.5)
        ctrl = build_is_control(model, ev, GRID, "small_time_ldp")
        assert ctrl.grid == GRID
        sub = ldp_rate_terminal(model, 0.1, component="x", n_steps=32, horizon=0.5)
        vals = ctrl.values.values
        assert np.array_equal(vals[:33], sub.optimal_control.values.values)
        assert np.all(vals[33:] == 0.0)
        assert [s.t_end for s in ctrl.sections] == [0.5]
        ens = simulate_controlled(model, small_time_ldp(0.5), ctrl, GRID, 1000, 0)
        assert np.all(np.isfinite(ens.log_weights))

    def test_fallback_control_ends_at_t_eval(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        ev = EventSpec(component=1, level=0.08, t_eval=0.5)
        ctrl = build_is_control(mod, ev, GRID, "small_time_ldp")
        vals = ctrl.values.values
        assert np.all(vals[:33, 0] != 0.0)
        assert np.all(vals[33:] == 0.0)

    def test_heston_terminal_control_unbiased(self):
        # solver-based X-event control validated through the unbiasedness
        # invariant only
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        grid = TimeGrid(1.0, 48)
        level = 0.1
        ev = EventSpec(component=0, level=level)
        ctrl = build_is_control(mod, ev, grid, "small_time_ldp")
        eps = 0.3 ** (1.0 / H)
        plain = DeviationExperiment(
            model=mod, event=ev, epsilons=(eps,), n_paths=60_000, seed=31, grid=grid
        )
        shifted = DeviationExperiment(
            model=mod,
            event=ev,
            epsilons=(eps,),
            n_paths=60_000,
            seed=32,
            grid=grid,
            is_control=ctrl,
        )
        p1, se1, _ = estimate_event_prob(plain, eps)
        p2, se2, _ = estimate_event_prob(shifted, eps)
        assert abs(p1 - p2) <= 4.0 * math.hypot(se1, se2)
