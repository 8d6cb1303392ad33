import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from volterra_deviations.errors import (
    DegenerateCoefficients,
    NegativePath,
    NotApplicable,
    SingularL,
)
from volterra_deviations.frac_calculus import control_energy
from volterra_deviations.kernels import GridFunction, TimeGrid, l2_norm_sq, power_law
from volterra_deviations.rate_functions import (
    gaussian_terminal_control,
    heston_rate,
    ldp_rate_pair,
    ldp_rate_terminal,
    mdp_rate_pair,
    mdp_rate_terminal_x,
    mdp_rate_terminal_y,
    multifactor_mdp_rate,
    regenerate_mdp_pair,
    regenerate_multifactor_mdp_pair,
    regenerate_smalltime_pair,
    regenerate_tail_pair,
    tail_mdp_rate_y,
    tail_rate_heston,
    tail_rate_steinstein,
    tail_rate_terminal,
)
from volterra_deviations.sve_sim import (
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
)

H = 0.1
GRID = TimeGrid(1.0, 2048)
T_NODES = GRID.nodes
BERGOMI = RoughBergomi(a=0.3, rho=0.0, y0=-3.0, hurst=H)
HESTON = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.0, y0=0.04, hurst=H)
SS = RoughSteinStein(kappa=1.0, theta=0.1, xi=0.4, rho=0.0, y0=0.3, hurst=H)


def gf(vals, grid=GRID):
    return GridFunction(grid, vals)


def zeros(grid=GRID):
    return gf(np.zeros(len(grid)), grid)


class TestLdpRatePair:
    def test_null_controls_cost_nothing(self):
        r = ldp_rate_pair(BERGOMI, zeros(), gf(np.full(len(GRID), -3.0)))
        assert r.value == 0.0

    def test_bergomi_power_path(self):
        c = 0.7
        vphi = gf(-3.0 + c * T_NODES ** (H + 0.5))
        r = ldp_rate_pair(BERGOMI, zeros(), vphi)
        want = 0.5 * c**2 * gamma_fn(H + 1.5) ** 2
        assert r.value == pytest.approx(want, rel=1e-10)

    def test_stein_stein_linear_price_path(self):
        r = ldp_rate_pair(SS, gf(0.3 * T_NODES), gf(np.full(len(GRID), 0.3)))
        assert r.value == pytest.approx(0.5, rel=1e-12)

    def test_energy_reproduces_value(self):
        vphi = gf(-3.0 + 0.5 * T_NODES ** (H + 0.5))
        r = ldp_rate_pair(BERGOMI, gf(0.2 * T_NODES), vphi)
        assert control_energy(r.optimal_control) == pytest.approx(r.value, rel=1e-6)

    def test_wrong_start_is_infinite(self):
        r = ldp_rate_pair(BERGOMI, zeros(), gf(np.full(len(GRID), -2.0)))
        assert r.value == np.inf
        r2 = ldp_rate_pair(BERGOMI, gf(np.ones(len(GRID))), gf(np.full(len(GRID), -3.0)))
        assert r2.value == np.inf

    def test_not_applicable_with_correlation_and_vanishing_zeta(self):
        mod = RoughSteinStein(kappa=1.0, theta=0.1, xi=0.0, rho=-0.5, y0=0.3, hurst=H)
        with pytest.raises(NotApplicable):
            ldp_rate_pair(mod, zeros(), gf(np.full(len(GRID), 0.3)))

    def test_roundtrip_small_time(self):
        mod = RoughBergomi(a=0.3, rho=-0.6, y0=-3.0, hurst=H)
        vphi = gf(-3.0 + 0.7 * T_NODES ** (H + 0.5))
        phi = gf(0.4 * T_NODES)
        r = ldp_rate_pair(mod, phi, vphi)
        phir, vphir = regenerate_smalltime_pair(mod, r)
        assert np.max(np.abs(phir.values[3:] - phi.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3


class TestHestonRate:
    def test_constant_positive_path_costs_nothing(self):
        r = heston_rate(HESTON, zeros(), gf(np.full(len(GRID), 0.04)), delta=0.0)
        assert r.value == 0.0

    def test_power_path_quadrature_oracle(self):
        c = 0.2
        vphi_vals = 0.04 + c * T_NODES ** (H + 0.5)
        r = heston_rate(HESTON, zeros(), gf(vphi_vals), delta=0.0)
        integ = (c * gamma_fn(H + 1.5)) ** 2 / (0.3**2 * vphi_vals)
        want = 0.5 * np.trapezoid(integ, T_NODES)
        assert r.value == pytest.approx(want, rel=1e-10)

    def test_delta_consistency(self):
        c = 0.2
        vphi = gf(0.04 + c * T_NODES ** (H + 0.5))
        r0 = heston_rate(HESTON, zeros(), vphi, delta=0.0)
        r1 = heston_rate(HESTON, zeros(), vphi, delta=1e-3)
        assert abs(r1.value - r0.value) <= 1e-2
        # Richardson moves toward the delta = 0 value
        assert abs(r1.richardson_value - r0.value) < abs(r1.value - r0.value)

    def test_negative_path_rejected(self):
        bad = gf(0.04 - 0.1 * T_NODES)
        with pytest.raises(NegativePath):
            heston_rate(HESTON, zeros(), bad, delta=0.0)

    def test_roundtrip(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        vphi = gf(0.04 + 0.2 * T_NODES ** (H + 0.5))
        phi = gf(0.05 * T_NODES)
        r = heston_rate(mod, phi, vphi, delta=0.0)
        phir, vphir = regenerate_smalltime_pair(mod, r)
        assert np.max(np.abs(phir.values[3:] - phi.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3


class TestMdpRates:
    def test_zero_pair(self):
        r = mdp_rate_pair(HESTON, zeros(), gf(np.full(len(GRID), 0.04)))
        assert r.value == 0.0

    def test_linear_price_matches_m3(self):
        x = 0.1
        r = mdp_rate_pair(HESTON, gf(x * T_NODES), gf(np.full(len(GRID), 0.04)))
        assert r.value == pytest.approx(x**2 / (2 * 0.04), rel=1e-10)

    def test_terminal_formulas(self):
        assert mdp_rate_terminal_x(HESTON, 0.0) == 0.0
        assert mdp_rate_terminal_x(HESTON, 0.1) == pytest.approx(0.125)
        assert mdp_rate_terminal_y(0.0) == 0.0
        assert mdp_rate_terminal_y(2.0) == 2.0

    def test_degenerate_coefficients(self):
        mod = RoughSteinStein(kappa=1.0, theta=0.1, xi=0.0, rho=0.0, y0=0.3, hurst=H)
        with pytest.raises(DegenerateCoefficients):
            mdp_rate_pair(mod, zeros(), gf(np.full(len(GRID), 0.3)))

    def test_exact_quadratic_scaling(self):
        c = 3.7
        phi = gf(0.1 * T_NODES)
        vphi = gf(0.04 + 0.05 * T_NODES ** (H + 0.5))
        base = mdp_rate_pair(HESTON, phi, vphi)
        scaled = mdp_rate_pair(
            HESTON, gf(c * phi.values), gf(0.04 + c * (vphi.values - 0.04))
        )
        assert abs(scaled.value - c**2 * base.value) <= 1e-10 * max(1.0, scaled.value)

    def test_terminal_x_matches_variational_minimizer(self):
        for mod in (HESTON, SS, BERGOMI):
            want = mdp_rate_terminal_x(mod, 0.1)
            got = ldp_rate_terminal(mod, 0.1, component="x", n_steps=512, frozen=True)
            assert got.value == pytest.approx(want, rel=0.01)

    def test_terminal_y_matches_variational_minimizer(self):
        got = ldp_rate_terminal(HESTON, 2.0, component="y_psi", n_steps=512, frozen=True)
        assert got.value == pytest.approx(mdp_rate_terminal_y(2.0), rel=0.01)

    def test_roundtrip(self):
        mod = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.4, y0=0.04, hurst=H)
        phi = gf(0.1 * T_NODES)
        vphi = gf(0.04 + 0.05 * T_NODES ** (H + 0.5))
        r = mdp_rate_pair(mod, phi, vphi)
        phir, vphir = regenerate_mdp_pair(mod, r)
        assert np.max(np.abs(phir.values[3:] - phi.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3


class TestTailRates:
    SS2 = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=0.0, y0=0.3, hurst=H)

    def test_zero_paths(self):
        assert tail_rate_steinstein(self.SS2, zeros(), zeros()).value == 0.0
        assert tail_rate_heston(HESTON, zeros(), zeros(), delta=0.0).value == 0.0

    def test_stein_stein_power_path(self):
        c = 0.2
        vphi = gf(c * T_NODES ** (H + 0.5))
        integ = -0.5 * vphi.values**2
        phi = gf(np.concatenate([[0.0], np.cumsum(0.5 * GRID.dt * (integ[1:] + integ[:-1]))]))
        r = tail_rate_steinstein(self.SS2, phi, vphi)
        # v = (c Gamma(H+3/2)(1 + kappa t)) / xi by the fractional identities
        vref = c * gamma_fn(H + 1.5) * (1.0 + 0.5 * T_NODES) / 0.4
        want = 0.5 * np.trapezoid(vref**2, T_NODES)
        assert r.value == pytest.approx(want, rel=1e-5)

    def test_heston_power_path_oracle(self):
        c = 0.2
        vphi = gf(c * T_NODES ** (H + 0.5))
        integ = -0.5 * vphi.values
        phi = gf(np.concatenate([[0.0], np.cumsum(0.5 * GRID.dt * (integ[1:] + integ[:-1]))]))
        r = tail_rate_heston(HESTON, phi, vphi, delta=0.0)
        with np.errstate(divide="ignore"):
            vref = np.where(
                T_NODES > 0,
                (c * gamma_fn(H + 1.5) + 1.0 * c * T_NODES ** (H + 0.5))
                / (0.3 * np.sqrt(c) * np.maximum(T_NODES, 1e-300) ** ((H + 0.5) / 2)),
                0.0,
            )
        w = np.full(len(GRID), GRID.dt)
        w[0] = w[-1] = GRID.dt / 2
        sq = vref**2
        sq[0] = 0.0
        want = 0.5 * np.sum(w * sq)
        assert r.value == pytest.approx(want, rel=1e-6)

    def test_heston_delta_consistency(self):
        c = 0.2
        vphi = gf(c * T_NODES ** (H + 0.5))
        integ = -0.5 * vphi.values
        phi = gf(np.concatenate([[0.0], np.cumsum(0.5 * GRID.dt * (integ[1:] + integ[:-1]))]))
        r0 = tail_rate_heston(HESTON, phi, vphi, delta=0.0)
        r1 = tail_rate_heston(HESTON, phi, vphi, delta=1e-4)  # catalogue default
        assert abs(r1.value - r0.value) <= 1e-2
        assert abs(r1.richardson_value - r0.value) < abs(r1.value - r0.value)

    def test_tail_mdp_matches_ldp_v_formula(self):
        vphi = gf(0.2 * T_NODES ** (H + 0.5))
        mdp = tail_mdp_rate_y(self.SS2, vphi)
        ldp = tail_rate_steinstein(self.SS2, zeros(), vphi)
        v_mdp = mdp.optimal_control.values.values[:, 0]
        v_ldp = ldp.optimal_control.values.values[:, 0]
        assert np.max(np.abs(v_mdp - v_ldp)) <= 1e-10

    def test_roundtrips(self):
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        vphi = gf(0.2 * T_NODES ** (H + 0.5))
        integ = -0.5 * vphi.values**2 + 0.1 * vphi.values
        phi = gf(np.concatenate([[0.0], np.cumsum(0.5 * GRID.dt * (integ[1:] + integ[:-1]))]))
        r = tail_rate_steinstein(ss, phi, vphi)
        phir, vphir = regenerate_tail_pair(ss, r)
        assert np.max(np.abs(phir.values[3:] - phi.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3

        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        integ_h = -0.5 * vphi.values + 0.1 * np.sqrt(vphi.values)
        phi_h = gf(np.concatenate([[0.0], np.cumsum(0.5 * GRID.dt * (integ_h[1:] + integ_h[:-1]))]))
        rh = tail_rate_heston(hes, phi_h, vphi, delta=0.0)
        phir, vphir = regenerate_tail_pair(hes, rh)
        assert np.max(np.abs(phir.values[3:] - phi_h.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3


class TestMultifactor:
    MODEL = MultiRoughBergomi(
        loadings=((1.0, 0.0), (0.6, 0.8)),
        a=(0.1, 0.1),
        y0=(-3.0, -3.2),
        rho=(-0.3, 0.2),
        hurst=(0.1, 0.1),
    )

    def _paths(self, c1, c2):
        from volterra_deviations.frac_calculus import rl_integral

        v1 = gf(np.full(len(GRID), c1))
        v2 = gf(np.full(len(GRID), c2))
        i1 = rl_integral(v1, H + 0.5).values
        i2 = rl_integral(v2, H + 0.5).values
        L = np.asarray(self.MODEL.loadings)
        y1 = -3.0 + L[0, 0] * i1
        y2 = -3.2 + L[1, 0] * i1 + L[1, 1] * i2
        return np.stack([y1, y2], axis=1)

    def test_zero_cost(self):
        vphi = gf(np.tile([-3.0, -3.2], (len(GRID), 1)))
        r = multifactor_mdp_rate(self.MODEL, zeros(), vphi)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_two_factor_recursion_formulas(self):
        vphi = gf(self._paths(0.5, -0.2))
        r = multifactor_mdp_rate(self.MODEL, zeros(), vphi)
        ctrl = r.optimal_control.values.values
        # v1 = D(vphi1 - y01)/L11; v2 = (D(vphi2 - y02) - L21 v1)/L22
        assert np.max(np.abs(ctrl[3:, 1] - 0.5)) < 1e-6
        assert np.max(np.abs(ctrl[3:, 2] - (-0.2))) < 1e-6
        # phi == 0 with nonzero correlations forces a compensating u
        rho = np.asarray(self.MODEL.rho)
        u = -(rho[0] * 0.5 + rho[1] * (-0.2)) / self.MODEL.rho_bar
        want = 0.5 * (0.5**2 + 0.2**2 + u**2)
        assert r.value == pytest.approx(want, rel=1e-3)

    def test_unattainable_when_smoother_component_moves(self):
        model = MultiRoughBergomi(
            loadings=((1.0, 0.0), (0.0, 1.0)),
            a=(0.1, 0.1),
            y0=(-3.0, -3.2),
            rho=(-0.3, 0.2),
            hurst=(0.1, 0.3),
        )
        vals = np.tile([-3.0, -3.2], (len(GRID), 1))
        vals[:, 1] = -3.2 + 0.3 * T_NODES  # moves although it has no control
        r = multifactor_mdp_rate(model, zeros(), gf(vals))
        assert r.value == np.inf

    def test_determined_component_is_attainable(self):
        # H2 > H1 but L21 != 0: component 2 is determined by v1, not +inf
        model = MultiRoughBergomi(
            loadings=((1.0, 0.0), (0.7, 1.0)),
            a=(0.1, 0.1),
            y0=(-3.0, -3.2),
            rho=(-0.3, 0.2),
            hurst=(0.1, 0.3),
        )
        from volterra_deviations.frac_calculus import rl_integral

        i1 = rl_integral(gf(np.full(len(GRID), 0.5)), H + 0.5).values
        vals = np.stack([-3.0 + i1, -3.2 + 0.7 * i1], axis=1)
        r = multifactor_mdp_rate(model, zeros(), gf(vals))
        assert math.isfinite(r.value)
        u = -(-0.3 * 0.5) / model.rho_bar
        assert r.value == pytest.approx(0.5 * (0.25 + u**2), rel=1e-3)

    def test_singular_loading(self):
        model = MultiRoughBergomi(
            loadings=((0.0, 0.0), (0.5, 1.0)),
            a=(0.1, 0.1),
            y0=(-3.0, -3.2),
            rho=(-0.3, 0.2),
            hurst=(0.1, 0.1),
        )
        vphi = gf(self._paths(0.1, 0.1))
        with pytest.raises(SingularL):
            multifactor_mdp_rate(model, zeros(), vphi)

    def test_roundtrip(self):
        vphi = gf(self._paths(0.4, 0.3))
        phi = gf(0.2 * T_NODES)
        r = multifactor_mdp_rate(self.MODEL, phi, vphi)
        phir, vphir = regenerate_multifactor_mdp_pair(self.MODEL, r)
        assert np.max(np.abs(phir.values[3:] - phi.values[3:])) < 1e-3
        assert np.max(np.abs(vphir.values[3:] - vphi.values[3:])) < 1e-3


class TestTerminalSolver:
    def test_zero_target_zero_value(self):
        r = ldp_rate_terminal(BERGOMI, 0.0, component="x", n_steps=128)
        assert r.value == 0.0

    def test_gaussian_marginal_matches_cameron_martin(self):
        k = power_law(H)
        for dy in (0.5, 1.0, 2.0):
            res = ldp_rate_terminal(BERGOMI, -3.0 + dy, component="y", n_steps=512)
            want, _ = gaussian_terminal_control(k, 1.0, dy, 1.0)
            assert res.value == pytest.approx(want, rel=0.01)

    def test_monotone_on_positive_ray(self):
        vals = [
            ldp_rate_terminal(BERGOMI, x, component="x", n_steps=192).value
            for x in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(vals[i] < vals[i + 1] for i in range(3))

    def test_heston_terminal_solver_runs(self):
        r = ldp_rate_terminal(HESTON, 0.15, component="x", n_steps=192)
        assert r.value > 0.0
        assert r.constraint_violation <= 1e-4

    def test_tail_terminal_regression_pins(self):
        # values pinned by the solver itself before the main build
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        r = tail_rate_terminal(ss, 1.0, t_end=1.0, n_steps=192)
        assert r.constraint_violation <= 1e-4
        assert 0.0 < r.value < 50.0

    def test_energy_consistency(self):
        res = ldp_rate_terminal(BERGOMI, -2.0, component="y", n_steps=256)
        assert control_energy(res.optimal_control) == pytest.approx(res.value, rel=1e-6)


class TestObjectiveGradients:
    """Analytic gradients of the penalized objectives against central differences."""

    @pytest.mark.parametrize(
        "name",
        [
            "zeta_const_x_section",
            "zeta_const_y_section",
            "frozen_y_psi",
            "heston_x",
            "heston_y",
            "tail_ss_x",
            "tail_heston_x",
        ],
    )
    def test_gradient_matches_fd(self, name):
        from volterra_deviations.rate_functions import (
            _HestonObjective,
            _penalized,
            _TailHestonObjective,
            _TailSteinSteinObjective,
            _terminal_problem,
            _ZetaConstObjective,
        )

        grid = TimeGrid(1.0, 24)
        berg = RoughBergomi(a=0.3, rho=-0.6, y0=-3.0, hurst=H)
        ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
        objs = {
            "zeta_const_x_section": _ZetaConstObjective(
                _terminal_problem(berg, 0.3, "x", grid, False)
            ),
            "zeta_const_y_section": _ZetaConstObjective(
                _terminal_problem(berg, -2.0, "y", grid, False)
            ),
            "frozen_y_psi": _ZetaConstObjective(
                _terminal_problem(hes, 1.0, "y_psi", grid, True)
            ),
            "heston_x": _HestonObjective(_terminal_problem(hes, 0.2, "x", grid, False)),
            "heston_y": _HestonObjective(_terminal_problem(hes, 0.06, "y", grid, False)),
            "tail_ss_x": _TailSteinSteinObjective(
                _terminal_problem(ss, 1.0, "x", grid, False)
            ),
            "tail_heston_x": _TailHestonObjective(
                _terminal_problem(hes, 1.0, "x", grid, False)
            ),
        }
        obj = objs[name]
        rng = np.random.default_rng(0)
        p = rng.normal(size=obj.n_params) * 0.3
        mu = 37.0
        g = _penalized(p, obj, mu)[1]
        fd = np.empty_like(g)
        eps_fd = 1e-6
        for i in range(len(p)):
            pp = p.copy()
            pp[i] += eps_fd
            pm = p.copy()
            pm[i] -= eps_fd
            fd[i] = (_penalized(pp, obj, mu)[0] - _penalized(pm, obj, mu)[0]) / (2 * eps_fd)
        rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel < 1e-6


class TestGaussianTerminalControl:
    def test_normal_equations_values(self):
        k = power_law(H)
        R = l2_norm_sq(k, 1.0)
        value, coeff = gaussian_terminal_control(k, 2.0, 1.5, 1.0)
        assert value == pytest.approx(1.5**2 / (2 * 4.0 * R))
        assert coeff == pytest.approx(1.5 / (2.0 * R))
