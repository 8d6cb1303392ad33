import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from volterra_deviations.frac_calculus import (
    Control,
    KernelSection,
    control_energy,
    energy,
    rl_derivative,
    rl_integral,
)
from volterra_deviations.kernels import GridFunction, TimeGrid, power_law

GRID = TimeGrid(1.0, 4096)
T_NODES = GRID.nodes


def gf(vals, grid=GRID):
    return GridFunction(grid, vals)


class TestRlIntegral:
    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.2])
    def test_order_outside_the_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ValueError):
            rl_integral(gf(np.ones_like(T_NODES)), alpha)

    def test_constant_input(self):
        g = rl_integral(gf(np.ones_like(T_NODES)), 0.6)
        want = T_NODES**0.6 / gamma_fn(1.6)
        assert np.allclose(g.values, want, atol=1e-12)

    def test_beta_identity_at_one(self):
        g = rl_integral(gf(T_NODES**0.6), 0.6)
        want = gamma_fn(1.6) / gamma_fn(2.2)
        assert g.values[-1] == pytest.approx(want, rel=1e-5)
        assert want == pytest.approx(0.81096, abs=1e-5)

    def test_zero_input(self):
        g = rl_integral(gf(np.zeros_like(T_NODES)), 0.37)
        assert np.all(g.values == 0.0)

    def test_alpha_one_is_trapezoid(self):
        f = np.cos(2.0 * T_NODES)
        g = rl_integral(gf(f), 1.0)
        inc = 0.5 * GRID.dt * (f[1:] + f[:-1])
        want = np.concatenate([[0.0], np.cumsum(inc)])
        assert np.allclose(g.values, want, atol=1e-14)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        grid = TimeGrid(1.0, 128)
        t = grid.nodes
        f1 = GridFunction(grid, np.sin(t))
        f2 = GridFunction(grid, t**2)
        lhs = rl_integral(GridFunction(grid, a * f1.values + b * f2.values), 0.4)
        rhs = a * rl_integral(f1, 0.4).values + b * rl_integral(f2, 0.4).values
        assert np.allclose(lhs.values, rhs, atol=1e-12 * (1 + abs(a) + abs(b)))

    @pytest.mark.parametrize("beta", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.6, 0.9])
    def test_power_law_map(self, beta, alpha):
        # sup-norm error relative to the map's scale, 1e-3 at n = 4096
        g = rl_integral(gf(T_NODES**beta), alpha)
        want = gamma_fn(beta + 1.0) / gamma_fn(beta + 1.0 + alpha) * T_NODES ** (
            beta + alpha
        )
        err = np.max(np.abs(g.values - want)) / np.max(np.abs(want))
        assert err < 1e-3

    @pytest.mark.parametrize("pair", [(0.3, 0.4), (0.1, 0.6), (0.5, 0.5), (0.2, 0.7)])
    def test_semigroup(self, pair):
        a, b = pair
        f = gf(np.sin(2.0 * T_NODES) + 1.3)
        lhs = rl_integral(rl_integral(f, a), b).values
        rhs = rl_integral(f, a + b).values
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-3

    def test_vector_valued(self):
        grid = TimeGrid(1.0, 64)
        vals = np.stack([grid.nodes, np.ones_like(grid.nodes)], axis=1)
        g = rl_integral(GridFunction(grid, vals), 0.5)
        assert g.values.shape == vals.shape


class TestRlDerivative:
    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.2])
    def test_order_outside_the_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ValueError):
            rl_derivative(gf(np.ones_like(T_NODES)), alpha, 0.0)

    def test_vector_valued_input_is_rejected(self):
        grid = TimeGrid(1.0, 64)
        vals = np.stack([grid.nodes, np.ones_like(grid.nodes)], axis=1)
        with pytest.raises(ValueError, match="scalar"):
            rl_derivative(GridFunction(grid, vals), 0.5, 0.0)

    def test_power_mode_is_exact(self):
        # D^(H+1/2) t^(H+1/2) = Gamma(H+3/2), the explicit-rate constant
        H = 0.1
        d = rl_derivative(gf(T_NODES ** (H + 0.5)), H + 0.5, 0.0)
        want = gamma_fn(H + 1.5)
        assert np.max(np.abs(d.values[1:] - want)) < 1e-12
        assert want == pytest.approx(0.8935, abs=2e-4)
        # the displayed constant pi (H+1/2) / (Gamma(1/2-H) cos(pi H))
        displayed = np.pi * (H + 0.5) / (gamma_fn(0.5 - H) * np.cos(np.pi * H))
        assert displayed == pytest.approx(want, rel=1e-12)

    def test_round_trip_identity(self):
        h = gf(np.cos(3.0 * T_NODES))
        back = rl_derivative(rl_integral(h, 0.6), 0.6, 0.0)
        assert np.max(np.abs(back.values[3:] - h.values[3:])) < 5e-4

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_round_trip_order(self, alpha):
        errs = []
        for n in (512, 1024, 2048, 4096):
            grid = TimeGrid(1.0, n)
            h = GridFunction(grid, np.cos(3.0 * grid.nodes))
            back = rl_derivative(rl_integral(h, alpha), alpha, 0.0)
            errs.append(np.max(np.abs(back.values[3:] - h.values[3:])))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(orders) >= min(alpha, 1.0 - alpha) - 0.05

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        alpha=st.floats(0.2, 1.0),
    )
    def test_round_trip_of_cubics_is_first_order(self, coeffs, alpha):
        errs = []
        for n in (64, 256):
            grid = TimeGrid(1.0, n)
            f = np.polynomial.polynomial.polyval(grid.nodes, coeffs)
            back = rl_derivative(rl_integral(GridFunction(grid, f), alpha), alpha, 0.0)
            errs.append(np.max(np.abs(back.values[1:-1] - f[1:-1])))
        # the derivative is a forward difference, off by about h |f'|; the
        # worst corner of the coefficient cube, (-1, 1, 1, 1) at alpha = 0.2,
        # is 1.26e-2 = 3.2 h at n = 256
        assert errs[1] <= 4.0 / 256
        assert errs[1] <= 0.5 * errs[0] or max(errs) < 1e-12

    def test_constant_with_offset(self):
        c = 1.7
        alpha = 0.4
        d = rl_derivative(gf(np.full_like(T_NODES, c)), alpha, c)
        want = c * T_NODES[1:] ** (-alpha) / gamma_fn(1.0 - alpha)
        assert not np.isfinite(d.values[0])
        assert np.allclose(d.values[1:], want, rtol=1e-10)
        # cross-check by fine-grid differentiation of I^(1-alpha) c
        t_mid = 0.5
        h_fd = 1e-6
        prim = lambda t: c * t ** (1.0 - alpha) / gamma_fn(2.0 - alpha)
        fd = (prim(t_mid + h_fd) - prim(t_mid - h_fd)) / (2.0 * h_fd)
        idx = int(round(t_mid / GRID.dt))
        assert d.values[idx] == pytest.approx(fd, rel=1e-6)

    def test_alpha_one_is_difference_quotient(self):
        f = gf(T_NODES**2)
        d = rl_derivative(f, 1.0, 0.0)
        assert d.values[0] == pytest.approx(GRID.dt, rel=1e-10)
        assert d.values[-1] == pytest.approx(2.0 - GRID.dt, rel=1e-10)


class TestEnergy:
    def test_zero(self):
        assert energy(gf(np.zeros_like(T_NODES))) == 0.0

    def test_constant_vector(self):
        grid = TimeGrid(2.0, 100)
        v = GridFunction(grid, np.ones((101, 2)))
        assert energy(v) == pytest.approx(2.0, rel=1e-14)

    def test_linear(self):
        grid = TimeGrid(1.0, 2048)
        v = GridFunction(grid, grid.nodes)
        assert energy(v) == pytest.approx(1.0 / 6.0, rel=1e-5)

    def test_sentinel_gets_zero_weight(self):
        vals = np.ones_like(T_NODES)
        vals[0] = np.inf
        assert np.isfinite(energy(gf(vals)))
        assert energy(gf(vals)) == pytest.approx(0.5, abs=1e-3)


class TestControlEnergy:
    def test_section_only_energy(self):
        grid = TimeGrid(1.0, 128)
        k = power_law(0.1)
        lam = 0.7
        c = Control(
            GridFunction(grid, np.zeros(len(grid))),
            sections=(KernelSection(k, 1.0, lam, 0),),
        )
        from volterra_deviations.kernels import l2_norm_sq

        assert control_energy(c) == pytest.approx(0.5 * lam**2 * l2_norm_sq(k, 1.0))

    def test_mixed_cross_term_against_quadrature(self):
        grid = TimeGrid(1.0, 512)
        k = power_law(0.3)
        t = grid.nodes
        v_pl = np.sin(2.0 * t)
        lam = 0.4
        c = Control(GridFunction(grid, v_pl), sections=(KernelSection(k, 1.0, lam, 0),))
        # oracle: (1/2) int (v_pl + lam K(1-s))^2 with graded quadrature
        from scipy.integrate import quad
        from volterra_deviations.kernels import eval_conv

        def integrand(s):
            return (np.sin(2.0 * s) + lam * eval_conv(k, 1.0 - s)) ** 2

        want, _ = quad(integrand, 0.0, 1.0, points=[1.0], limit=400)
        assert control_energy(c) == pytest.approx(0.5 * want, rel=1e-4)

    def test_same_channel_section_cross_term_against_quadrature(self):
        # two sections on one channel: the cross term 2 c1 c2 R(t1, t2) is
        # the kernel autocovariance, checked here against quadrature of
        # (1/2) int (c1 K(t1 - s) 1{s < t1} + c2 K(t2 - s))^2 ds
        from scipy.integrate import quad

        from volterra_deviations.kernels import eval_conv

        grid = TimeGrid(1.0, 64)
        k = power_law(0.1)
        (t1, c1), (t2, c2) = (0.5, 0.7), (1.0, -0.4)
        sections = (KernelSection(k, t1, c1, 0), KernelSection(k, t2, c2, 0))
        c = Control(GridFunction(grid, np.zeros(len(grid))), sections=sections)

        def head(s):
            return (c1 * eval_conv(k, t1 - s) + c2 * eval_conv(k, t2 - s)) ** 2

        def tail(s):
            return (c2 * eval_conv(k, t2 - s)) ** 2

        want = quad(head, 0.0, t1, limit=400)[0] + quad(tail, t1, t2, limit=400)[0]
        assert control_energy(c) == pytest.approx(0.5 * want, rel=1e-9)
