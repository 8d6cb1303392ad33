import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from volterra_deviations.errors import InvalidModel, NegativeArgument
from volterra_deviations.frac_calculus import Control, KernelSection
from volterra_deviations.kernels import (
    GridFunction,
    TimeGrid,
    constant,
    conv_weights,
    power_law,
)
from volterra_deviations.volterra_det import (
    DiffusionTerm,
    DriftTerm,
    LimitProblem,
    solve_ldp_limit,
    solve_mdp_limit,
    solve_mean_limit,
)


def sqrt_field(t, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise TypeError("per-node field")
    return np.array([[np.sqrt(max(float(x[0]), 0.0))]])


def feller_problem(grid, policy):
    v = np.where(grid.nodes < 2.0, -1.0, 1.0)
    return LimitProblem(
        grid=grid,
        x0=np.array([1.0]),
        diffusion_terms=(DiffusionTerm(constant(1.0), sqrt_field),),
        control=Control(GridFunction(grid, v)),
        branch_policy=policy,
        sqrt_component=0,
    )


class TestSolveLdpLimit:
    def test_no_forcing_returns_start(self):
        grid = TimeGrid(1.0, 64)
        p = LimitProblem(grid=grid, x0=np.array([0.7, -0.2]))
        rep = solve_ldp_limit(p)
        assert rep.residual <= 1e-14
        assert np.allclose(rep.path.values, [0.7, -0.2])

    @pytest.mark.parametrize("policy", ["continue_positive", "absorb_at_zero"])
    def test_feller_branches(self, policy):
        grid = TimeGrid(4.0, 4096)
        rep = solve_ldp_limit(feller_problem(grid, policy))
        t = grid.nodes
        anal = (t - 2.0) ** 2 / 4.0
        if policy == "absorb_at_zero":
            anal = np.where(t <= 2.0, anal, 0.0)
        assert rep.residual <= 1e-8
        assert np.max(np.abs(rep.path.values - anal)) <= 1e-3
        assert rep.branch_taken == policy

    def test_branch_gap_is_one(self):
        grid = TimeGrid(4.0, 4096)
        cont = solve_ldp_limit(feller_problem(grid, "continue_positive")).path.values
        absb = solve_ldp_limit(feller_problem(grid, "absorb_at_zero")).path.values
        assert np.max(np.abs(cont - absb)) == pytest.approx(1.0, abs=1e-3)

    def test_bergomi_volatility_limit(self):
        # zeta == 1, constant control c: y0 + c t^(H+1/2)/Gamma(H+3/2)
        H, c, y0 = 0.1, 0.8, -3.0
        grid = TimeGrid(1.0, 1024)

        def unit_sigma(t, x):
            base = np.shape(np.atleast_1d(np.asarray(x, dtype=float))[..., 0])
            return np.full((*base, 1, 1), 1.0)

        p = LimitProblem(
            grid=grid,
            x0=np.array([y0]),
            diffusion_terms=(DiffusionTerm(power_law(H), unit_sigma),),
            control=Control(GridFunction(grid, np.full(len(grid), c))),
        )
        rep = solve_ldp_limit(p)
        want = y0 + c * grid.nodes ** (H + 0.5) / gamma_fn(H + 1.5)
        assert np.max(np.abs(rep.path.values - want)) < 1e-10

    def test_negative_argument_raised(self):
        # drift pushes the sqrt component negative under continue_positive
        grid = TimeGrid(1.0, 64)

        def down(t, x):
            return np.array([-1.0])

        p = LimitProblem(
            grid=grid,
            x0=np.array([0.05]),
            drift_terms=(DriftTerm(constant(1.0), down),),
            diffusion_terms=(DiffusionTerm(constant(1.0), sqrt_field),),
            control=Control(GridFunction(grid, np.ones(len(grid)) * 1e-3)),
            branch_policy="continue_positive",
            sqrt_component=0,
        )
        with pytest.raises(NegativeArgument):
            solve_ldp_limit(p)

    def test_picard_residuals_decrease(self):
        # contraction on a catalogued nonlinear problem
        grid = TimeGrid(1.0, 256)

        def sig(t, x):
            y = np.atleast_1d(np.asarray(x, dtype=float))[..., 0]
            out = 0.3 * np.sqrt(np.maximum(y, 0.0))
            return out.reshape(*np.shape(out), 1, 1)

        p = LimitProblem(
            grid=grid,
            x0=np.array([0.04]),
            diffusion_terms=(DiffusionTerm(power_law(0.1), sig),),
            control=Control(GridFunction(grid, np.full(len(grid), 1.5))),
            sqrt_component=0,
        )
        rep = solve_ldp_limit(p)
        hist = rep.residual_history
        tail = hist[3:]
        assert all(tail[i + 1] <= tail[i] * (1 + 1e-12) for i in range(len(tail) - 1))
        assert rep.residual <= 1e-8

    def test_defect_certificate_double_resolution(self):
        # re-substitute the coarse solution through the doubled-grid
        # quadrature; smooth catalogued problem stays within 10x tol
        H, c, y0 = 0.2, 0.6, 0.5
        grid = TimeGrid(1.0, 512)
        fine = TimeGrid(1.0, 1024)

        def unit_sigma(t, x):
            base = np.shape(np.atleast_1d(np.asarray(x, dtype=float))[..., 0])
            return np.full((*base, 1, 1), 1.0)

        p = LimitProblem(
            grid=grid,
            x0=np.array([y0]),
            diffusion_terms=(DiffusionTerm(power_law(H), unit_sigma),),
            control=Control(GridFunction(grid, np.full(len(grid), c))),
        )
        rep = solve_ldp_limit(p)
        coarse = rep.path.values
        interp = np.interp(fine.nodes, grid.nodes, coarse)
        v_f = np.full(len(fine), c)
        forcing = conv_weights(power_law(H), fine).apply(v_f)
        defect = np.max(np.abs(interp - (y0 + forcing))[::2])
        assert defect <= 10.0 * 1e-8


class TestSolveMdpLimit:
    GRID = TimeGrid(1.0, 1024)

    def test_zero_control(self):
        z = GridFunction(self.GRID, np.zeros(len(self.GRID)))
        ones = GridFunction(self.GRID, np.ones(len(self.GRID)))
        psi = solve_mdp_limit(power_law(0.2), z, ones, Control(z))
        assert np.all(psi.values == 0.0)

    def test_reduces_to_fractional_integral(self):
        from volterra_deviations.frac_calculus import rl_integral

        sigma0 = 0.7
        H = 0.3
        v = GridFunction(self.GRID, np.sin(3.0 * self.GRID.nodes))
        zeros = GridFunction(self.GRID, np.zeros(len(self.GRID)))
        sig = GridFunction(self.GRID, np.full(len(self.GRID), sigma0))
        psi = solve_mdp_limit(power_law(H), zeros, sig, Control(v))
        want = sigma0 * rl_integral(v, H + 0.5).values
        assert np.max(np.abs(psi.values - want)) < 1e-10

    def test_mean_reverting_pinned_by_refinement(self):
        # grad_b = -kappa, sigma = xi, v = 1: value at T pinned by the
        # fine-grid solution at n = 2^14 with a Richardson sanity check
        kappa, xi, H = 1.0, 0.4, 0.2

        def run(n):
            grid = TimeGrid(1.0, n)
            gb = GridFunction(grid, np.full(len(grid), -kappa))
            sg = GridFunction(grid, np.full(len(grid), xi))
            v = Control(GridFunction(grid, np.ones(len(grid))))
            return solve_mdp_limit(power_law(H), gb, sg, v).values[-1]

        fine = run(1 << 14)
        mid = run(1 << 13)
        coarse = run(1 << 11)
        assert coarse == pytest.approx(fine, rel=2e-3)
        # refinement drift shrinks between dyadic levels
        assert abs(mid - fine) < abs(coarse - fine)


    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("kappa", [0.0, 1.0, 3.0])
    def test_matches_exact_discrete_solution(self, n, kappa):
        # the quadrature is linear, psi = A (gb psi + sigma v), so the
        # discrete solution is (I - A diag(gb))^-1 A (sigma v)
        grid = TimeGrid(1.0, n)
        t = grid.nodes
        kernel = power_law(0.1)
        gb = -kappa * (1.0 + 0.5 * np.cos(3.0 * t))
        sg = 0.4 + 0.2 * t
        v = np.sin(5.0 * t) + 0.5
        A = conv_weights(kernel, grid).dense_matrix()
        want = np.linalg.solve(np.eye(n + 1) - A * gb[None, :], A @ (sg * v))
        psi = solve_mdp_limit(
            kernel, GridFunction(grid, gb), GridFunction(grid, sg), Control(GridFunction(grid, v))
        )
        assert np.max(np.abs(psi.values - want)) <= 1e-9


class TestSectionKernels:
    """A kernel section that no diffusion term carries has no response column."""

    GRID = TimeGrid(1.0, 64)
    SECTION = KernelSection(power_law(0.3), 1.0, 2.0, 0)

    def test_ldp_limit_raises(self):
        p = LimitProblem(
            grid=self.GRID,
            x0=np.array([0.0]),
            diffusion_terms=(DiffusionTerm(power_law(0.1), lambda t, x: np.ones((1, 1))),),
            control=Control(GridFunction(self.GRID, np.zeros(65)), sections=(self.SECTION,)),
        )
        with pytest.raises(InvalidModel):
            solve_ldp_limit(p)

    def test_mdp_limit_raises(self):
        zeros = GridFunction(self.GRID, np.zeros(65))
        ones = GridFunction(self.GRID, np.ones(65))
        with pytest.raises(InvalidModel):
            solve_mdp_limit(power_law(0.1), zeros, ones, Control(zeros, sections=(self.SECTION,)))

    def test_matching_section_is_the_autocovariance(self):
        zeros = GridFunction(self.GRID, np.zeros(65))
        ones = GridFunction(self.GRID, np.ones(65))
        k = power_law(0.3)
        psi = solve_mdp_limit(k, zeros, ones, Control(zeros, sections=(self.SECTION,)))
        want = 2.0 * np.asarray(k.autocovariance(self.GRID.nodes, 1.0))
        assert np.max(np.abs(psi.values - want)) < 1e-14


class TestSolveMeanLimit:
    def test_flat_drift_integrates_time(self):
        grid = TimeGrid(2.0, 128)
        path = solve_mean_limit(grid, constant(1.0), lambda t, x: np.array([1.0]), 0.0)
        assert np.max(np.abs(path.values - grid.nodes)) < 1e-12

    def test_zero_drift_stays_at_start(self):
        grid = TimeGrid(1.0, 64)
        path = solve_mean_limit(grid, power_law(0.2), lambda t, x: np.array([0.0]), 0.3)
        assert np.all(path.values == 0.3)

    def test_linear_homogeneous_from_zero(self):
        # tail Stein-Stein mean: Ydot = -kappa Y, Y0 = 0 -> 0
        grid = TimeGrid(1.0, 64)

        def b(t, x):
            return np.atleast_1d(-2.0 * np.asarray(x, dtype=float))

        path = solve_mean_limit(grid, constant(1.0), b, 0.0)
        assert np.max(np.abs(path.values)) < 1e-12
