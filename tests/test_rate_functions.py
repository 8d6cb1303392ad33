import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from volterra_deviations.errors import (
    DegenerateCoefficients,
    DomainError,
    NegativePath,
    NotApplicable,
    SingularL,
)
from volterra_deviations.frac_calculus import control_energy
from volterra_deviations.implied_vol import smile_ldp
from volterra_deviations.kernels import (
    GridFunction,
    TimeGrid,
    constant,
    l2_norm_sq,
    power_law,
    terminal_weights,
)
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


def _frozen_model(kind, rho, xi, var0):
    """A model with Sigma(y0) = var0; xi is the vol-of-vol (Bergomi's a)."""
    if kind == "stein_stein":
        return RoughSteinStein(kappa=0.5, theta=0.1, xi=xi, rho=rho, y0=math.sqrt(var0), hurst=H)
    if kind == "bergomi":
        return RoughBergomi(a=xi, rho=rho, y0=math.log(var0), hurst=H)
    return RoughHeston(kappa=1.0, theta=0.04, xi=xi, rho=rho, y0=var0, hurst=H)


_RHO = st.floats(-0.9, 0.9)
_XI = st.floats(0.1, 1.0)
_VAR0 = st.floats(0.01, 0.25)


def _signed(lo, hi):
    return st.tuples(st.floats(lo, hi), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


_SIGNED_X = _signed(0.01, 0.5)


class TestMdpQuadraticScaling:
    """The frozen-coefficient (MDP) rates are exact quadratic forms."""

    @settings(max_examples=10, deadline=None)
    @given(rho=_RHO, xi=_XI, var0=_VAR0, x=_SIGNED_X, c=_signed(0.25, 4.0))
    @pytest.mark.parametrize("kind", ["stein_stein", "bergomi", "heston"])
    def test_frozen_terminal_rate_scales_by_c_squared(self, kind, rho, xi, var0, x, c):
        model = _frozen_model(kind, rho, xi, var0)
        base = ldp_rate_terminal(model, x, n_steps=32, frozen=True).value
        scaled = ldp_rate_terminal(model, c * x, n_steps=32, frozen=True).value
        assert scaled == pytest.approx(c * c * base, rel=1e-10)
        assert base == pytest.approx(mdp_rate_terminal_x(model, x), rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        rho=_RHO,
        xi=_XI,
        var0=_VAR0,
        x=_SIGNED_X,
        dy=st.floats(-1.0, 1.0),
        # |c| well above rounding: y0 + c (vphi - y0) must keep c's digits
        c=_signed(0.25, 4.0),
    )
    @pytest.mark.parametrize("kind", ["stein_stein", "bergomi", "heston"])
    def test_pair_rate_scales_by_c_squared(self, kind, rho, xi, var0, x, dy, c):
        model = _frozen_model(kind, rho, xi, var0)
        grid = TimeGrid(1.0, 64)
        t = grid.nodes
        phi = x * (t + 0.5 * np.sin(3.0 * t))
        vphi = model.y0 + dy * var0 * t ** (H + 0.5) * (1.0 + t)
        base = mdp_rate_pair(model, gf(phi, grid), gf(vphi, grid)).value
        scaled = mdp_rate_pair(
            model, gf(c * phi, grid), gf(model.y0 + c * (vphi - model.y0), grid)
        ).value
        assert scaled == pytest.approx(c * c * base, rel=1e-10)


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
        assert np.max(np.abs(ctrl[3:, 0] - 0.5)) < 1e-6
        assert np.max(np.abs(ctrl[3:, 1] - (-0.2))) < 1e-6
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
        assert not np.any(r.optimal_control.values.values[:, 1])  # no control on factor 2
        u = -(-0.3 * 0.5) / model.rho_bar
        assert r.value == pytest.approx(0.5 * (0.25 + u**2), rel=1e-3)

    def test_one_factor_controls_match_rough_bergomi_column_for_column(self):
        # both layouts are the simulator's channels, [v, u]: a control read
        # with u first would tilt the volatility by the price control
        y0, grid = -3.0, TimeGrid(1.0, 256)
        one = MultiRoughBergomi(loadings=((1.0,),), a=(0.0,), y0=(y0,), rho=(-0.3,), hurst=(H,))
        berg = RoughBergomi(a=0.0, rho=-0.3, y0=y0, hurst=H)
        t = grid.nodes
        phi, vphi = gf(0.2 * t, grid), gf(y0 + 0.3 * t ** (H + 0.5) - 0.1 * t, grid)
        multi = multifactor_mdp_rate(one, phi, vphi).optimal_control.values.values
        pair = mdp_rate_pair(berg, phi, vphi).optimal_control.values.values
        assert multi.shape == pair.shape == (len(grid), 2)
        assert np.array_equal(multi[:, 0], pair[:, 0])
        # u divides by exp(y0 / 2) against sqrt(Sigma(y0)): equal to rounding
        np.testing.assert_allclose(multi[:, 1], pair[:, 1], rtol=1e-14)

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


_NAN_GRID = TimeGrid(1.0, 64)
_NAN_T = _NAN_GRID.nodes
_NAN_BERGOMI = RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H)
_NAN_MULTI = MultiRoughBergomi(
    loadings=((1.0, 0.0), (0.6, 0.8)), a=(0.1, 0.1), y0=(-3.0, -3.2), rho=(-0.3, 0.2),
    hurst=(0.1, 0.1),
)
# (rate(phi, vphi), y0 of vphi): the six pair entries and the multifactor rate
_NAN_RATES = {
    "ldp_rate_pair": (lambda p, v: ldp_rate_pair(_NAN_BERGOMI, p, v), _NAN_BERGOMI.y0),
    "heston_rate": (lambda p, v: heston_rate(HESTON, p, v), HESTON.y0),
    "mdp_rate_pair": (lambda p, v: mdp_rate_pair(_NAN_BERGOMI, p, v), _NAN_BERGOMI.y0),
    "tail_rate_steinstein": (lambda p, v: tail_rate_steinstein(SS, p, v), 0.0),
    "tail_mdp_rate_y": (lambda p, v: tail_mdp_rate_y(SS, v), 0.0),
    "tail_rate_heston": (lambda p, v: tail_rate_heston(HESTON, p, v), 0.0),
    "multifactor_mdp_rate": (
        lambda p, v: multifactor_mdp_rate(
            _NAN_MULTI, p, gf(v.values[:, None] + [0.0, -0.2], _NAN_GRID)
        ),
        -3.0,
    ),
}
# tail_mdp_rate_y reads no price path
_NAN_CASES = [
    (name, col) for name in sorted(_NAN_RATES) for col in ("phi", "vphi")
    if (name, col) != ("tail_mdp_rate_y", "phi")
]


class TestNonFiniteInput:
    """A NaN or inf node fails loudly: the product integration would spread it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name, column", _NAN_CASES)
    def test_rate_of_a_non_finite_path_raises(self, name, column, bad):
        rate, y0 = _NAN_RATES[name]
        paths = {"phi": 0.1 * _NAN_T, "vphi": y0 + 0.2 * _NAN_T**0.6}
        assert math.isfinite(rate(*(gf(paths[c], _NAN_GRID) for c in ("phi", "vphi"))).value)
        paths[column][20] = bad
        with pytest.raises(DomainError, match="finite"):
            rate(*(gf(paths[c], _NAN_GRID) for c in ("phi", "vphi")))

    @pytest.mark.parametrize("where", ["control", "z_values"])
    def test_regenerating_a_non_finite_control_raises(self, where):
        vphi = gf(0.2 * _NAN_T ** (H + 0.5), _NAN_GRID)
        res = tail_rate_heston(HESTON, gf(np.zeros(len(_NAN_GRID)), _NAN_GRID), vphi)
        regenerate_tail_pair(HESTON, res)
        target = res.optimal_control.values.values if where == "control" else res.diagnostics[where]
        target[20] = np.nan
        with pytest.raises(DomainError, match="finite"):
            regenerate_tail_pair(HESTON, res)

    def test_regenerating_a_non_finite_multifactor_control_raises(self):
        vphi = gf(np.tile([-3.0, -3.2], (len(_NAN_GRID), 1)) + 0.1 * _NAN_T[:, None], _NAN_GRID)
        res = multifactor_mdp_rate(_NAN_MULTI, gf(0.1 * _NAN_T, _NAN_GRID), vphi)
        regenerate_multifactor_mdp_pair(_NAN_MULTI, res)
        res.optimal_control.values.values[20, 1] = np.inf
        with pytest.raises(DomainError, match="finite"):
            regenerate_multifactor_mdp_pair(_NAN_MULTI, res)


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
    """Analytic gradients of the reduced objectives against central differences."""

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
        from volterra_deviations.rate_functions import _reduced, _target_plane

        obj = _curvature_test_objective(name)
        root = np.sqrt(obj.curvature)
        plane = _target_plane(obj, root)
        rng = np.random.default_rng(0)
        # positive volatility controls keep the Heston variance off its floor;
        # the tail Heston variance vanishes at t = 0, so its forcing must too
        q = np.abs(rng.normal(size=len(root))) * 0.3 * root
        q[0] = 0.0
        g = _reduced(q, obj, root, plane)[1]
        fd = np.empty_like(g)
        eps_fd = 1e-6
        for i in range(len(q)):
            qp = q.copy()
            qp[i] += eps_fd
            qm = q.copy()
            qm[i] -= eps_fd
            fd[i] = (
                _reduced(qp, obj, root, plane)[0] - _reduced(qm, obj, root, plane)[0]
            ) / (2 * eps_fd)
        rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel < 1e-6


def _curvature_test_objective(name):
    from volterra_deviations.rate_functions import _Objective

    grid = TimeGrid(1.0, 24)
    berg = RoughBergomi(a=0.3, rho=-0.6, y0=-3.0, hurst=H)
    ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
    hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
    cases = {
        "zeta_const_x_section": (berg, 0.3, "x", {}),
        "zeta_const_y_section": (berg, -2.0, "y", {}),
        "frozen_y_psi": (hes, 1.0, "y_psi", {"frozen": True}),
        "heston_x": (hes, 0.2, "x", {}),
        "heston_y": (hes, 0.06, "y", {}),
        "tail_ss_x": (ss, 1.0, "x", {"tail": True}),
        "tail_heston_x": (hes, 1.0, "x", {"tail": True}),
    }
    model, target, component, kw = cases[name]
    return _Objective(model, target, component, grid, **kw)


_PRICE_CASES = ["zeta_const_x_section", "heston_x", "tail_ss_x", "tail_heston_x"]


class TestObjectiveCurvature:
    """The driver's scaling is the energy Hessian diagonal at the start point."""

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
    def test_curvature_matches_fd_hessian_diagonal(self, name):
        obj = _curvature_test_objective(name)
        p0 = obj.start
        assert obj.curvature.shape == p0.shape
        assert np.all(obj.curvature > 0.0)

        def energy(i, step):
            p = p0.copy()
            p[i] += step
            return obj.evaluate(p)[0]

        h = 1e-3
        fd = np.array(
            [
                (
                    -energy(i, 2 * h)
                    + 16.0 * energy(i, h)
                    - 30.0 * energy(i, 0.0)
                    + 16.0 * energy(i, -h)
                    - energy(i, -2 * h)
                )
                / (12.0 * h * h)
                for i in range(len(p0))
            ]
        )
        np.testing.assert_allclose(obj.curvature, fd, rtol=1e-6)


class TestMultistartCertificate:
    @pytest.mark.parametrize(
        "model, x",
        [
            (RoughBergomi(a=0.5, rho=-0.5, y0=-3.2, hurst=H), 0.1),
            (RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H), -0.1),
        ],
    )
    def test_five_starts_agree_on_a_smile_ray_point(self, model, x):
        res = ldp_rate_terminal(model, x, component="x", n_steps=64)
        starts = res.diagnostics["starts"]
        assert [s["level"] for s in starts] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert sum(s["iterations"] for s in starts) == res.iterations
        assert all(s["violation"] <= 1e-4 for s in starts)
        energies = np.array([s["energy"] for s in starts])
        assert res.value == energies.min()
        assert (energies.max() - energies.min()) / res.value <= 1e-9


def _exact_constraint_case(name):
    """A terminal solve at n=64 for each objective and target kind: (solve, target)."""
    berg = RoughBergomi(a=0.5, rho=-0.5, y0=-3.2, hurst=H)
    hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
    hes_y = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H)
    ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
    cases = {
        "zeta_const_x": (lambda x: ldp_rate_terminal(berg, x, "x", n_steps=64), 0.1),
        "zeta_const_y": (lambda x: ldp_rate_terminal(berg, x, "y", n_steps=64), -2.0),
        "frozen_y_psi": (
            lambda x: ldp_rate_terminal(hes_y, x, "y_psi", n_steps=64, frozen=True),
            2.0,
        ),
        "heston_x": (lambda x: ldp_rate_terminal(hes, x, "x", n_steps=64), -0.1),
        "heston_y": (lambda x: ldp_rate_terminal(hes_y, x, "y", n_steps=64), 0.06),
        "tail_ss_x": (lambda x: tail_rate_terminal(ss, x, 1.0, n_steps=64), 1.0),
        "tail_heston_x": (lambda x: tail_rate_terminal(hes, x, 1.0, n_steps=64), 0.5),
    }
    return cases[name]


_EXACT_CASES = [
    "zeta_const_x",
    "zeta_const_y",
    "frozen_y_psi",
    "heston_x",
    "heston_y",
    "tail_ss_x",
    "tail_heston_x",
]


class TestExactConstraint:
    """The reduced problem meets the terminal target exactly, at every start."""

    @pytest.mark.parametrize("name", _EXACT_CASES)
    def test_constraint_holds_to_rounding(self, name):
        solve, x = _exact_constraint_case(name)
        res = solve(x)
        ran = [s for s in res.diagnostics["starts"] if s["skipped"] is None]
        assert ran and all(s["converged"] for s in ran)
        assert res.constraint_violation <= 1e-12
        assert all(s["violation"] <= 1e-12 for s in ran)

    @pytest.mark.parametrize("name", _EXACT_CASES)
    def test_lam_is_the_slope_of_the_rate(self, name):
        # lam = dI/dx by the envelope theorem; central difference with step
        # 1e-5, which the tightest curvature here (Heston y near y0) needs
        solve, x = _exact_constraint_case(name)
        step = 1e-5
        slope = (solve(x + step).value - solve(x - step).value) / (2.0 * step)
        for s in solve(x).diagnostics["starts"]:
            if s["skipped"] is None:
                assert s["lam"] == pytest.approx(slope, rel=1e-6)

    def test_zero_forcing_starts_are_skipped_as_degenerate(self):
        solve, x = _exact_constraint_case("tail_heston_x")
        starts = solve(x).diagnostics["starts"]
        zero = next(s for s in starts if s["level"] == 0.0)
        assert zero["skipped"] and zero["energy"] is None and zero["iterations"] == 0
        assert sum(s["skipped"] is None for s in starts) >= 2

    def test_every_start_names_why_it_stopped(self):
        # tail rough Heston at rho = 0.3: levels -2 to 0 are degenerate, level 1
        # fails and level 2 alone converges; each run start says why it ended
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.3, y0=0.04, hurst=H)
        starts = tail_rate_terminal(hes, 1.0, 1.0, n_steps=64).diagnostics["starts"]
        by_level = {s["level"]: s for s in starts}
        assert all(by_level[lv]["stop"] is None for lv in (-2.0, -1.0, 0.0))
        reasons = ("gtol", "ftol", "maxiter", "maxfun", "line_search")
        for s in starts:
            if s["skipped"] is None:
                assert s["stop"] in reasons
                assert s["converged"] == (s["stop"] in ("gtol", "ftol"))
        assert not by_level[1.0]["converged"]
        assert by_level[2.0]["stop"] in ("gtol", "ftol")

    def test_y_psi_needs_a_constant_zeta(self):
        # sum w v is not affine in rough Heston's forcing z = zeta(vphi) v
        with pytest.raises(NotApplicable, match="y_psi"):
            ldp_rate_terminal(HESTON, 0.5, component="y_psi", n_steps=32)

    @pytest.mark.parametrize("n", [64, 512])
    def test_frozen_solves_equal_the_mdp_closed_forms(self, n):
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.4, y0=0.04, hurst=H)
        x_val = ldp_rate_terminal(hes, 0.1, component="x", n_steps=n, frozen=True).value
        y_val = ldp_rate_terminal(hes, 2.0, component="y_psi", n_steps=n, frozen=True).value
        assert x_val == pytest.approx(mdp_rate_terminal_x(hes, 0.1), rel=1e-12)
        assert y_val == pytest.approx(mdp_rate_terminal_y(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: ldp_rate_terminal(BERGOMI, math.nan, component="x", n_steps=16),
            lambda: ldp_rate_terminal(BERGOMI, math.inf, component="x", n_steps=16),
            lambda: ldp_rate_terminal(BERGOMI, -math.inf, component="y", n_steps=16),
            lambda: ldp_rate_terminal(BERGOMI, math.nan, component="y", n_steps=16),
            lambda: tail_rate_terminal(SS, math.nan, 1.0, n_steps=16),
        ],
        ids=["x_nan", "x_inf", "y_minus_inf", "y_nan", "tail_nan"],
    )
    def test_non_finite_target_rejected(self, solve):
        with pytest.raises(DomainError):
            solve()


class TestOneEvaluatePerStep:
    """A solver step costs one objective evaluation, for every problem kind."""

    @pytest.mark.parametrize("name", _EXACT_CASES)
    def test_reduced_calls_evaluate_once(self, monkeypatch, name):
        import volterra_deviations.rate_functions as rf

        calls = {"evaluate": 0, "reduced": 0}

        def counted(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(rf._Objective, "evaluate", counted("evaluate", rf._Objective.evaluate))
        monkeypatch.setattr(rf, "_reduced", counted("reduced", rf._reduced))
        solve, x = _exact_constraint_case(name)
        starts = solve(x).diagnostics["starts"]
        assert calls["reduced"] > 0
        # a volatility target adds the one evaluation that fixes its plane
        plane = 0 if name.endswith("_x") else 1
        assert calls["evaluate"] == calls["reduced"] + plane
        # every start is screened once; a run start adds its L-BFGS
        # evaluations and one final call
        ran = [s for s in starts if s["skipped"] is None]
        assert calls["reduced"] == len(starts) + len(ran) + sum(s["evaluations"] for s in ran)


class TestSectionPriceTerm:
    """The kernel section's price term rho c int K(T - s) sqrt(Sigma(vphi)) ds."""

    MODEL = RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H)

    @pytest.mark.parametrize("n", [32, 128])
    def test_price_path_meets_the_target(self, n):
        res = ldp_rate_terminal(self.MODEL, 0.1, component="x", n_steps=n)
        assert res.optimal_control.sections
        assert abs(res.optimal_path.values[-1, 0] - 0.1) <= 1e-12

    @pytest.mark.parametrize("n", [32, 128])
    def test_regenerated_price_path_equals_the_solvers(self, n):
        res = ldp_rate_terminal(self.MODEL, 0.1, component="x", n_steps=n)
        phi, _ = regenerate_smalltime_pair(self.MODEL, res)
        np.testing.assert_allclose(
            phi.values, res.optimal_path.values[:, 0], rtol=0.0, atol=1e-10
        )
        assert abs(phi.values[-1] - 0.1) <= 1e-12

    @pytest.mark.parametrize("t_end", [1.0, 0.5])
    def test_section_integral_oracles(self, t_end):
        from volterra_deviations.rate_functions import _section_integral

        grid = TimeGrid(1.0, 64)
        k = power_law(H)
        f = np.random.default_rng(3).normal(size=len(grid))
        F = _section_integral(k, grid, t_end, f)
        assert F[-1] == pytest.approx(terminal_weights(k, grid, t_end) @ f, rel=1e-13)
        # f = 1: int_0^t K(t_end - s) ds = M0(t_end) - M0(t_end - t), constant past t_end
        ones = _section_integral(k, grid, t_end, np.ones(len(grid)))
        want = k.moment0(t_end) - k.moment0(t_end - np.minimum(grid.nodes, t_end))
        np.testing.assert_allclose(ones, want, rtol=1e-13, atol=1e-15)
        # a constant kernel integrates piecewise-linear f like the trapezoid rule
        flat = _section_integral(constant(2.0), grid, 1.0, f)
        np.testing.assert_allclose(flat, 2.0 * grid.cumulative_trapezoid(f), atol=1e-14)


_CORRELATED = {
    "bergomi": RoughBergomi(a=0.3, rho=-0.5, y0=-3.0, hurst=H),
    "heston": RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.5, y0=0.04, hurst=H),
    "stein_stein": RoughSteinStein(kappa=1.0, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H),
}


class TestFrozenRegeneration:
    """The frozen forward map reproduces the frozen solver's path, section atom included."""

    @pytest.mark.parametrize("kind", sorted(_CORRELATED))
    def test_regenerated_pair_equals_the_solvers(self, kind):
        model = _CORRELATED[kind]
        res = ldp_rate_terminal(model, model.y0 + 0.05, "y", n_steps=128, frozen=True)
        assert res.optimal_control.sections  # the target's mass sits in the atom
        phi, vphi = regenerate_mdp_pair(model, res)
        path = res.optimal_path.values
        np.testing.assert_allclose(phi.values, path[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vphi.values, path[:, 1], rtol=0.0, atol=1e-12)
        assert vphi.values[-1] == pytest.approx(model.y0 + 0.05, abs=1e-12)


def _solve_and_invert(name, n):
    """(terminal solve at n, pair rate of its optimal path), both at rho = -0.7."""
    ss = RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.7, y0=0.3, hurst=H)
    hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H)
    solve, pair = {
        "tail_stein_stein": (
            lambda: tail_rate_terminal(ss, 1.0, n_steps=n),
            lambda p, v: tail_rate_steinstein(ss, p, v),
        ),
        "tail_heston": (
            lambda: tail_rate_terminal(hes, 1.0, n_steps=n),
            lambda p, v: tail_rate_heston(hes, p, v, delta=0.0),
        ),
        "small_time_heston": (
            lambda: ldp_rate_terminal(hes, 0.1, n_steps=n),
            lambda p, v: heston_rate(hes, p, v, delta=0.0),
        ),
        "frozen_heston": (
            lambda: ldp_rate_terminal(hes, 0.1, n_steps=n, frozen=True),
            lambda p, v: mdp_rate_pair(hes, p, v),
        ),
    }[name]
    res = solve()
    grid = res.optimal_path.grid
    phi, vphi = (GridFunction(grid, col) for col in res.optimal_path.values.T)
    return res, pair(phi, vphi)


class TestPairRateInvertsTheSolver:
    """The pair rate of a terminal solve's optimal path is the solve's value.

    The solver minimizes over the forward map, the pair rate inverts it with
    D^(H+1/2) on the piecewise-linear path: two discretizations of one rate,
    whose gap falls with n.  Small-time Gaussian targets are left out: their
    section atom is singular at T, which the piecewise-linear inversion misses.
    """

    @staticmethod
    def _gap(name, n):
        res, pair = _solve_and_invert(name, n)
        return abs(pair.value - res.value) / res.value

    @pytest.mark.parametrize("name", ["tail_stein_stein", "tail_heston", "small_time_heston"])
    def test_gap_falls_with_n(self, name):
        coarse, fine = self._gap(name, 64), self._gap(name, 256)
        assert fine < coarse
        assert fine <= 2e-2

    @pytest.mark.parametrize("n", [64, 256])
    def test_frozen_gap_is_rounding(self, n):
        assert self._gap("frozen_heston", n) <= 1e-8


class TestGaussianTerminalControl:
    def test_normal_equations_values(self):
        k = power_law(H)
        R = l2_norm_sq(k, 1.0)
        value, coeff = gaussian_terminal_control(k, 2.0, 1.5, 1.0)
        assert value == pytest.approx(1.5**2 / (2 * 4.0 * R))
        assert coeff == pytest.approx(1.5 / (2.0 * R))


def _ray_case(name):
    """(pinned solve, ray solve) at n=64 for the ray sweeps of ``TestRayHinge``."""
    kind, rho = name.split(":")
    models = {
        "bergomi": lambda r: RoughBergomi(a=0.5, rho=r, y0=math.log(0.04), hurst=H),
        "heston": lambda r: RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=r, y0=0.04, hurst=H),
        "tail_ss": lambda r: RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=r, y0=0.3, hurst=H),
    }
    model = models[kind.replace("tail_heston", "heston")](float(rho))
    if kind.startswith("tail"):
        return (
            lambda x: tail_rate_terminal(model, x, 1.0, n_steps=64),
            lambda x: tail_rate_terminal(model, x, 1.0, n_steps=64, ray=True),
        )
    return (
        lambda x: ldp_rate_terminal(model, x, n_steps=64),
        lambda x: ldp_rate_terminal(model, x, n_steps=64, ray=True),
    )


_RAY_SMALL_TIME = ["bergomi:-0.5", "bergomi:0.3", "heston:-0.7", "heston:0.5"]
_RAY_TAIL = ["tail_ss:-0.3", "tail_heston:-0.7", "tail_heston:0.3"]


class TestRayHinge:
    """ray=True: inf over x' >= x (x' <= x for x < 0) of the rate, from one solve."""

    @pytest.mark.parametrize("k", [0.1, -0.1, 0.2, -0.2])
    @pytest.mark.parametrize("name", _RAY_SMALL_TIME)
    def test_no_worse_than_the_grid_minimum_on_the_ray(self, name, k):
        pinned, ray = _ray_case(name)
        grid_min = min(pinned(float(x)).value for x in k * np.geomspace(1.0, 8.0, 17))
        assert ray(k).value <= grid_min * (1.0 + 1e-10)

    @pytest.mark.parametrize("name", _RAY_TAIL)
    def test_tail_no_worse_than_the_grid_minimum_beyond_one(self, name):
        pinned, ray = _ray_case(name)
        grid_min = min(pinned(float(y)).value for y in np.geomspace(1.0, 8.0, 17))
        assert ray(1.0).value <= grid_min * (1.0 + 1e-10)

    @pytest.mark.parametrize("k", [0.1, -0.2])
    @pytest.mark.parametrize("name", _RAY_SMALL_TIME + _RAY_TAIL)
    def test_every_start_lands_on_the_ray(self, name, k):
        _, ray = _ray_case(name)
        x = k if name in _RAY_SMALL_TIME else abs(10.0 * k)
        res = ray(x)
        sign = math.copysign(1.0, x)
        ran = [s for s in res.diagnostics["starts"] if s["skipped"] is None]
        assert any(s["converged"] for s in ran)
        for s in ran:
            assert sign * (s["attained"] - x) >= -1e-12
            assert s["violation"] == max(sign * (x - s["attained"]), 0.0)
            assert s["lam"] * sign >= 0.0
        assert res.constraint_violation <= 1e-12
        best = min(ran, key=lambda s: s["energy"])
        assert res.optimal_path.values[-1, 0] == best["attained"]

    @pytest.mark.parametrize("name, x", zip(_PRICE_CASES, [0.01, 0.2, -0.1, 1.0]))
    def test_reduced_hinge_equals_the_pinned_energy_or_e(self, name, x):
        # for fixed q the ray energy is the pinned one while g falls short of
        # x, and E alone (lam = 0) once g is past it; gradients match there too
        from volterra_deviations.rate_functions import _reduced

        pin = _curvature_test_objective(name)
        ray = _curvature_test_objective(name)
        pin.target = x
        ray.target, ray.ray = x, True
        root = np.sqrt(pin.curvature)
        shape = np.linspace(0.5, 1.5, len(root)) * root
        shape[0] = 0.0
        branches = set()
        for scale in np.linspace(-12.0, 12.0, 49):
            q = scale * shape
            en_r, g_r, _, lam_r, _ = _reduced(q, ray, root, None)
            en_p, g_p, p, lam_p, _ = _reduced(q, pin, root, None)
            E, g = pin.evaluate(p)[:2]
            if (x - g) * x > 0.0:
                branches.add("short")
                assert (en_r, lam_r) == (en_p, lam_p)
                np.testing.assert_array_equal(g_r, g_p)
            else:
                branches.add("past")
                assert en_r == E and lam_r == 0.0
        assert branches == {"short", "past"}

    @pytest.mark.parametrize("name", _PRICE_CASES)
    def test_hinge_gradient_matches_fd(self, name):
        from volterra_deviations.rate_functions import _reduced

        obj = _curvature_test_objective(name)
        obj.ray = True
        root = np.sqrt(obj.curvature)
        rng = np.random.default_rng(1)
        q = np.abs(rng.normal(size=len(root))) * 0.3 * root
        q[0] = 0.0
        g = _reduced(q, obj, root, None)[1]
        eps_fd = 1e-6

        def en(step):
            return _reduced(q + step, obj, root, None)[0]

        fd = np.array([(en(eps_fd * e) - en(-eps_fd * e)) / (2 * eps_fd) for e in np.eye(len(q))])
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6

    @pytest.mark.parametrize("component", ["y", "y_psi"])
    def test_ray_needs_the_price_component(self, component):
        with pytest.raises(ValueError, match="ray"):
            ldp_rate_terminal(BERGOMI, 0.1, component=component, n_steps=16, ray=True)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: ldp_rate_terminal(BERGOMI, math.nan, n_steps=16, ray=True),
            lambda: ldp_rate_terminal(BERGOMI, -math.inf, n_steps=16, ray=True),
            lambda: ldp_rate_terminal(BERGOMI, 0.0, n_steps=16, ray=True),
            lambda: tail_rate_terminal(SS, math.inf, 1.0, n_steps=16, ray=True),
            lambda: tail_rate_terminal(SS, 0.0, 1.0, n_steps=16, ray=True),
        ],
        ids=["x_nan", "x_minus_inf", "x_zero", "tail_inf", "tail_zero"],
    )
    def test_non_finite_or_zero_ray_target_rejected(self, solve):
        with pytest.raises(DomainError):
            solve()

    def test_frozen_ray_is_the_mdp_closed_form_at_the_strike(self):
        # the frozen rate x^2 / (2 Sigma0) grows along the ray, so its
        # infimum is the closed form at x itself
        hes = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.4, y0=0.04, hurst=H)
        for x in (0.1, -0.2):
            res = ldp_rate_terminal(hes, x, n_steps=64, frozen=True, ray=True)
            assert res.value == pytest.approx(mdp_rate_terminal_x(hes, x), rel=1e-12)
            assert res.optimal_path.values[-1, 0] == pytest.approx(x, abs=1e-12)


# near-the-money expansion I(x) = x^2 / (2 Sigma0) + c3 x^3 + O(x^4) with
# c3 = -rho Sigma'(y0) zeta(y0) M / (2 Sigma0^(5/2)) and M = int_0^1 int_0^t K
# = 1 / Gamma(H + 5/2) (Forde & Zhang 2017; Bayer, Friz, Gulisashvili,
# Horvath & Stemper 2019); rough Heston has Sigma' = 1 and zeta = xi sqrt(y0)
_NEAR_THE_MONEY = {
    "bergomi:-0.5": RoughBergomi(a=0.5, rho=-0.5, y0=math.log(0.04), hurst=H),
    "bergomi:0.4": RoughBergomi(a=0.5, rho=0.4, y0=math.log(0.04), hurst=H),
    "stein_stein:-0.7": RoughSteinStein(kappa=0.5, theta=0.1, xi=0.4, rho=-0.7, y0=0.3, hurst=H),
    "heston:-0.7": RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=-0.7, y0=0.04, hurst=H),
    "heston:0.5": RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.5, y0=0.04, hurst=H),
}


def _near_the_money_coefficients(model):
    """(1 / (2 Sigma0), c3) from the model catalogue."""
    y0 = np.asarray(model.y0)
    sig0 = float(model.sigma_sq(y0))
    sig_prime = 1.0 if isinstance(model, RoughHeston) else float(model.sigma_sq_prime(y0))
    m = 1.0 / gamma_fn(H + 2.5)
    return 1.0 / (2.0 * sig0), -model.rho * sig_prime * float(model.zeta(y0)) * m / (
        2.0 * sig0**2.5
    )


def _fitted_coefficients(model, n):
    """Richardson limits of the symmetric quotients (I(x) +- I(-x)) / (2 x^2 or 2 x^3)."""
    even, odd = [], []
    for x in (0.01, 0.005):
        up, down = (ldp_rate_terminal(model, s * x, n_steps=n).value for s in (1.0, -1.0))
        even.append((up + down) / (2.0 * x**2))
        odd.append((up - down) / (2.0 * x**3))
    return (4.0 * even[1] - even[0]) / 3.0, (4.0 * odd[1] - odd[0]) / 3.0


class TestNearTheMoney:
    """Correlated price solves and the LDP smile against the small-x expansion.

    In rescaled log-moneyness the smile's at-the-money slope is
    -Sigma0^(3/2) c3 = rho Sigma'(y0) zeta(y0) M / (2 Sigma0).
    """

    @pytest.mark.parametrize("name", sorted(_NEAR_THE_MONEY))
    def test_cubic_and_quadratic_coefficients(self, name):
        model = _NEAR_THE_MONEY[name]
        quad_want, c3_want = _near_the_money_coefficients(model)
        errors = []
        for n, gate in ((64, 1e-3), (256, 1e-4)):
            quad_got, c3_got = _fitted_coefficients(model, n)
            assert quad_got == pytest.approx(quad_want, rel=1e-5)
            errors.append(abs(c3_got / c3_want - 1.0))
            assert errors[-1] <= gate
        assert errors[1] < errors[0]

    @pytest.mark.parametrize("name", sorted(_NEAR_THE_MONEY))
    def test_smile_slope_at_the_money(self, name):
        model = _NEAR_THE_MONEY[name]
        quad_want, c3_want = _near_the_money_coefficients(model)
        want = -c3_want / (2.0 * quad_want) ** 1.5
        quotients = []
        for k in (0.01, 0.005):
            up, down = (smile_ldp(model, s * k, 0.01, n_steps=256).sigma_hat for s in (1.0, -1.0))
            quotients.append((up - down) / (2.0 * k))
        got = (4.0 * quotients[1] - quotients[0]) / 3.0
        assert got == pytest.approx(want, rel=1e-4)
