import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import gamma as gamma_fn

from volterra_deviations.errors import (
    KernelDomainError,
    SingularAtZero,
    WrongVariant,
)
from volterra_deviations.kernels import (
    GridFunction,
    TimeGrid,
    check_regularity,
    constant,
    conv_weights,
    eval_conv,
    gamma_kernel,
    l2_norm_sq,
    power_law,
    raw_power,
    terminal_weights,
)


class TestTimeGrid:
    def test_basic_invariants(self):
        g = TimeGrid(2.0, 8)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert np.all(np.diff(g.nodes) > 0)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=10000),
    )
    @settings(max_examples=50, deadline=None)
    def test_dt_times_steps_is_horizon(self, T, n):
        g = TimeGrid(T, n)
        assert g.dt * n == pytest.approx(T, rel=1e-15)
        assert len(g.nodes) == n + 1

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_horizon_is_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon, 8)

    @pytest.mark.parametrize("n_steps", [2.5, 8.0, True, "8"])
    def test_n_steps_is_an_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(1.0, n_steps)

    def test_numpy_integer_steps_pass(self):
        assert TimeGrid(1.0, np.int64(8)) == TimeGrid(1.0, 8)

    def test_node_index_rejects_off_grid_times(self):
        g = TimeGrid(1.0, 64)
        assert g.node_index(0.5) == 32
        assert g.node_index(1.0) == 64
        for t in (0.503, -0.125, 1.5):
            with pytest.raises(KernelDomainError):
                g.node_index(t)
        with pytest.raises(KernelDomainError):
            terminal_weights(power_law(0.1), g, 0.503)

    def test_grid_function_length_check(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))


class TestEvalConv:
    def test_constant(self):
        assert eval_conv(constant(1.0), 0.5) == 1.0

    def test_powerlaw_half_is_brownian(self):
        assert eval_conv(power_law(0.5), 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_powerlaw_gamma_oracle(self):
        # 0.25^(-0.4) / Gamma(0.6)
        want = 0.25 ** (-0.4) / gamma_fn(0.6)
        assert eval_conv(power_law(0.1), 0.25) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(1.1692, abs=1e-4)

    def test_singular_at_zero(self):
        with pytest.raises(SingularAtZero):
            eval_conv(power_law(0.1), 0.0)
        assert eval_conv(constant(2.0), 0.0) == 2.0

    def test_homogeneity(self):
        k = power_law(0.17)
        for lam in (0.5, 2.0, 10.0):
            got = eval_conv(k, lam * 0.3)
            want = lam ** (0.17 - 0.5) * eval_conv(k, 0.3)
            assert got == pytest.approx(want, rel=1e-12)


class TestL2Norm:
    def test_constant(self):
        assert l2_norm_sq(constant(1.0), 2.0) == pytest.approx(2.0)

    def test_powerlaw_gamma_oracle(self):
        want = 1.0 / (0.2 * gamma_fn(0.6) ** 2)
        assert l2_norm_sq(power_law(0.1), 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(2.2546, abs=1e-4)

    def test_powerlaw_half(self):
        assert l2_norm_sq(power_law(0.5), 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "k",
        [constant(0.7), power_law(0.25), gamma_kernel(0.3, 1.5), raw_power(0.4)],
    )
    def test_monotone_in_t(self, k):
        ts = np.linspace(0.1, 2.0, 9)
        vals = [l2_norm_sq(k, t) for t in ts]
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize(
        "k", [constant(1.3), raw_power(0.5), gamma_kernel(0.5, 2.0), power_law(0.5)]
    )
    def test_nonsingular_quadrature_oracle(self, k):
        # fine trapezoid (transformed variable is the identity here: kernels
        # are bounded) against the closed forms
        t_end = 1.7
        s = np.linspace(0.0, t_end, 400001)
        vals = eval_conv(k, np.maximum(s, 1e-300)) ** 2
        want = np.trapezoid(vals, s)
        assert l2_norm_sq(k, t_end) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize(
        "k, g",
        [
            (constant(1.3), 1.0),
            (power_law(0.2), 0.4),
            (raw_power(-0.3), 0.4),
            (gamma_kernel(0.2, 1.5), 0.4),
        ],
        ids=["constant", "power_law", "raw_power", "gamma"],
    )
    def test_singular_quadrature_oracle_transformed(self, k, g):
        # K^2 ~ s^(g - 1) at 0: substitute s = u^(1/g) to remove the singularity
        u = np.linspace(0.0, 1.0, 200001)[1:]
        s = u ** (1.0 / g)
        integrand = eval_conv(k, s) ** 2 * s / (g * u)
        want = np.trapezoid(integrand, u)
        assert l2_norm_sq(k, 1.0) == pytest.approx(want, rel=1e-5)


def _kernel_id(k):
    return f"gamma({k.hurst},{k.decay})"


class TestAutocovariance:
    @pytest.mark.parametrize("pair", [(0.3, 0.7), (0.5, 0.5), (0.95, 1.0), (0.02, 1.0)])
    def test_powerlaw_vs_quadrature(self, pair):
        s, t = pair
        k = power_law(0.12)
        a = 0.12 - 0.5
        want, _ = quad(
            lambda u: (s - u) ** a * (t - u) ** a, 0.0, s, points=[s], limit=200
        )
        want /= gamma_fn(0.62) ** 2
        assert k.autocovariance(s, t) == pytest.approx(want, rel=1e-8)

    def test_variance_matches_l2(self):
        k = power_law(0.31)
        assert k.autocovariance(0.8, 0.8) == pytest.approx(l2_norm_sq(k, 0.8), rel=1e-12)

    QUADRATURE_KERNELS = [
        *(gamma_kernel(h, lam) for h in (0.02, 0.1, 0.25, 0.5) for lam in (0.5, 2.0, 10.0)),
        # the first graded lags underflow below H = 0.011
        gamma_kernel(0.01, 1.0),
        gamma_kernel(0.011, 1.0),
    ]

    @pytest.mark.parametrize("t", [0.01, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("k", QUADRATURE_KERNELS, ids=_kernel_id)
    def test_quadrature_variance_matches_l2(self, k, t):
        assert k.autocovariance(t, t) == pytest.approx(l2_norm_sq(k, t), rel=1e-5)

    @pytest.mark.parametrize("pair", [(0.3, 0.7), (0.02, 1.0), (0.5, 1.5), (0.99, 1.0)])
    @pytest.mark.parametrize(
        "k",
        [gamma_kernel(h, lam) for h, lam in ((0.05, 2.0), (0.4, 10.0), (0.01, 1.0), (0.011, 1.0))],
        ids=_kernel_id,
    )
    def test_quadrature_off_diagonal_vs_scipy(self, k, pair):
        s, t = pair
        want, _ = quad(
            lambda u: eval_conv(k, s - u) * eval_conv(k, t - u),
            0.0, s, points=[s], limit=200, epsabs=0.0, epsrel=1e-10,
        )
        assert k.autocovariance(s, t) == pytest.approx(want, rel=1e-5)
        assert k.autocovariance(t, s) == k.autocovariance(s, t)

    @pytest.mark.parametrize("pair", [(0.3, 0.7), (0.02, 1.0), (0.5, 1.5), (0.99, 1.0), (0.8, 0.8)])
    @pytest.mark.parametrize("a", [-0.45, -0.2, 0.0, 0.5, 1.0])
    def test_raw_power_closed_form_vs_scipy(self, a, pair):
        # int_0^s (s - u)^a (t - u)^a du, the endpoint power as quad's algebraic weight
        s, t = pair
        if s == t:
            want = s ** (2.0 * a + 1.0) / (2.0 * a + 1.0)
        else:
            want, _ = quad(
                lambda u: (t - u) ** a, 0.0, s, weight="alg", wvar=(0.0, a),
                epsabs=0.0, epsrel=1e-13,
            )
        assert raw_power(a).autocovariance(s, t) == pytest.approx(want, rel=1e-10)

    def test_not_square_integrable_raises(self):
        with pytest.raises(WrongVariant):
            raw_power(-0.6).autocovariance(0.3, 0.5)

    @pytest.mark.parametrize(
        "k", [constant(1.5), power_law(0.2), gamma_kernel(0.1, 2.0), raw_power(-0.2)],
        ids=lambda k: k.variant,
    )
    def test_scalar_in_scalar_out(self, k):
        assert np.shape(k.autocovariance(0.5, 0.7)) == ()
        assert np.shape(k.autocovariance(np.array([0.2, 0.5, 0.0]), 0.7)) == (3,)
        assert k.autocovariance(0.0, 0.7) == 0.0


class TestRegularity:
    H_GRID = [2.0 ** (-j) for j in range(4, 13)]

    def test_powerlaw_passes_its_gamma(self):
        rep = check_regularity(power_law(0.1), 0.2, self.H_GRID)
        assert rep.passed
        assert rep.fitted_slope == pytest.approx(0.2, abs=0.02)

    def test_constant_passes_one(self):
        rep = check_regularity(constant(1.0), 1.0, self.H_GRID)
        assert rep.passed
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.02)

    def test_gamma_below_the_underflow_has_a_finite_functional(self):
        rep = check_regularity(gamma_kernel(0.01, 1.0), 0.02, self.H_GRID)
        assert np.all(np.isfinite(rep.functional))
        assert rep.passed

    def test_overclaim_fails(self):
        rep = check_regularity(power_law(0.3), 0.9, self.H_GRID)
        assert not rep.passed
        assert rep.fitted_slope == pytest.approx(0.6, abs=0.05)

    @pytest.mark.parametrize("h_grid", [[], [0.01], [0.01, 0.01]])
    def test_fewer_than_two_distinct_h_values_is_a_domain_error(self, h_grid):
        # no slope to fit: an empty grid used to end in numpy's TypeError,
        # one h in a one-point "fit"
        with pytest.raises(KernelDomainError, match="two distinct h values"):
            check_regularity(power_law(0.1), 0.2, h_grid)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, np.inf, np.nan])
    def test_a_horizon_that_is_not_finite_and_positive_is_a_domain_error(self, horizon):
        # a negative horizon used to drop every node of the shift term, so the
        # report passed on the l2 norm alone
        with pytest.raises(KernelDomainError, match="horizon"):
            check_regularity(power_law(0.1), 0.2, self.H_GRID, horizon=horizon)


class TestConvWeights:
    def test_constant_kernel_is_trapezoid(self):
        grid = TimeGrid(2.0, 16)
        cw = conv_weights(constant(1.0), grid)
        f = np.sin(grid.nodes)
        got = cw.apply(f)
        inc = 0.5 * grid.dt * (f[1:] + f[:-1])
        want = np.concatenate([[0.0], np.cumsum(inc)])
        assert np.allclose(got, want, atol=1e-14)

    @given(
        st.floats(min_value=2.0**-52, max_value=1.0),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_rl_integral_exact_on_linear_integrands(self, alpha, a, b):
        # the raw-power weights integrate piecewise-linear data exactly:
        # I^alpha (a + b t) = a t^alpha / Gamma(alpha+1) + b t^(alpha+1) / Gamma(alpha+2)
        from volterra_deviations.frac_calculus import rl_integral

        grid = TimeGrid(1.0, 256)
        t = grid.nodes
        got = rl_integral(GridFunction(grid, a + b * t), alpha).values
        want = a * t**alpha / gamma_fn(alpha + 1.0) + b * t ** (alpha + 1.0) / gamma_fn(
            alpha + 2.0
        )
        # below the smallest normal float only absolute accuracy is possible
        atol = 1e-13 * max(abs(a) + abs(b), np.finfo(float).tiny)
        assert np.allclose(got, want, rtol=1e-12, atol=atol)

    # (kernel, exponent, decay, norm) of K(t) = t^exponent e^(-decay t) / norm
    EXACT_KERNELS = [
        (constant(1.3), 0.0, 0.0, 1.0 / 1.3),
        (power_law(0.3), -0.2, 0.0, gamma_fn(0.8)),
        (raw_power(-0.3), -0.3, 0.0, 1.0),
        (raw_power(0.5), 0.5, 0.0, 1.0),
        (gamma_kernel(0.3, 2.0), -0.2, 2.0, gamma_fn(0.8)),
    ]

    @pytest.mark.parametrize(
        "k, e, lam, norm",
        EXACT_KERNELS,
        ids=["constant", "power_law", "raw_power-0.3", "raw_power0.5", "gamma"],
    )
    def test_exact_on_linear_integrands(self, k, e, lam, norm):
        grid = TimeGrid(1.0, 64)
        cw = conv_weights(k, grid)
        f = 2.0 - 0.5 * grid.nodes
        got = cw.apply(f)
        # analytic: int K(t - s)(a + b s) ds via moments
        a, b = 2.0, -0.5
        t = grid.nodes
        want = a * k.moment0(t) + b * (t * k.moment0(t) - k.moment1(t))
        assert np.allclose(got, want, rtol=1e-12)
        # and against quad, the kernel's endpoint power as its algebraic weight
        for i in (1, 17, 64):
            ref, _ = quad(
                lambda s: np.exp(-lam * (t[i] - s)) * (a + b * s) / norm,
                0.0, t[i], weight="alg", wvar=(0.0, e), epsabs=0.0, epsrel=1e-13,
            )
            assert got[i] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 16, 63, 64, 128, 256, 512, 1024])
    def test_apply_matches_direct_and_scipy_convolution(self, n):
        # convolution lengths 2n + 1 on both sides of next_fast_len boundaries:
        # 127 pads to 128, 129 to 135
        cw = conv_weights(power_law(0.1), TimeGrid(1.0, n))
        v = np.random.default_rng(n).normal(size=(n + 1, 3))
        got = cw.apply(v)
        for j in range(3):
            col = v[:, j]
            shift = cw.shift[1 : n + 2] * col[0]
            direct = np.convolve(cw.w, col)[: n + 1] - shift
            direct[0] = 0.0
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(got[:, j] - direct)) <= 1e-12 * scale
            # the real-FFT steps are the ones fftconvolve takes: bit for bit
            fft = fftconvolve(cw.w, col)[: n + 1] - shift
            fft[0] = 0.0
            assert np.array_equal(got[:, j], fft)
            assert np.array_equal(cw.apply(col), got[:, j])

    def test_terminal_weights_match_row(self):
        grid = TimeGrid(1.0, 32)
        k = power_law(0.15)
        g = terminal_weights(k, grid)
        A = conv_weights(k, grid).dense_matrix()
        assert np.allclose(g, A[-1, :], atol=1e-15)
