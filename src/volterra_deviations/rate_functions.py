"""Closed-form rate functions and the terminal variational solver.

Pair evaluators (``ldp_rate_pair``, ``heston_rate``, ``mdp_rate_pair``,
``tail_rate_steinstein``, ``tail_rate_heston``, ``multifactor_mdp_rate``)
invert the limit equations for the controls (u, v) driving a given path pair
and return their energy; the recovered controls are attached so round trips
through the limit solvers can be checked.

``ldp_rate_terminal`` and ``tail_rate_terminal`` minimize the control
energy subject to a terminal constraint.  Each problem is an objective class
that supplies only its energy, its terminal target and their gradients; one
driver, ``_run_penalty``, adds the quadratic penalty and runs the
mu-continuation and the deterministic multi-starts.  Two structural devices
keep the discrete optimum honest:

* the control space is enriched with one kernel-section atom K(T - .) per
  singularly convolved channel (for constant zeta models).  A uniform
  piecewise-linear basis misses O(h^(2H)) of the Cameron-Martin mass near the
  terminal time, which is >10% at H = 0.1 and n = 512; with the atom the
  discrete optimum of the Gaussian marginal problem equals the exact value.
* for the rough Heston volatility equation the solver optimizes the
  integrand z = zeta(vphi) v instead of v, which turns the fixed-point
  constraint into an explicit fractional integral and gives analytic
  gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize as _minimize

from .errors import (
    DegenerateCoefficients,
    NegativePath,
    NotApplicable,
    SingularL,
    SolverFailure,
)
from .frac_calculus import Control, KernelSection, rl_derivative, rl_integral
from .kernels import (
    GridFunction,
    TimeGrid,
    constant,
    conv_weights,
    l2_norm_sq,
    power_law,
    terminal_weights,
)
from .sve_sim import (
    Model,
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
)

__all__ = [
    "RateResult",
    "ldp_rate_pair",
    "heston_rate",
    "mdp_rate_pair",
    "mdp_rate_terminal_x",
    "mdp_rate_terminal_y",
    "ldp_rate_terminal",
    "tail_rate_terminal",
    "tail_rate_steinstein",
    "tail_rate_heston",
    "tail_mdp_rate_y",
    "multifactor_mdp_rate",
    "gaussian_terminal_control",
    "regenerate_smalltime_pair",
    "regenerate_tail_pair",
    "regenerate_mdp_pair",
    "regenerate_multifactor_mdp_pair",
]

_ZERO_THR = 1e-12
_AC_BLOWUP = 1e6
_DEFAULT_DELTA = 1e-4


@dataclass
class RateResult:
    """Rate value with the controls and path that realize it."""

    value: float
    optimal_control: Control | None = None
    optimal_path: GridFunction | None = None
    regularization_delta: float | None = None
    richardson_value: float | None = None
    iterations: int = 0
    constraint_violation: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _energy_masked(grid: TimeGrid, *channels) -> float:
    """(1/2) sum of channel L2 norms; non-finite entries get zero weight."""
    w = grid.trapezoid_weights()
    total = 0.0
    for ch in channels:
        sq = np.where(np.isfinite(ch), ch, 0.0) ** 2
        total += float(np.sum(w * sq))
    return 0.5 * total


def _is_grid_ac(phi: GridFunction) -> bool:
    """Difference-quotient energy blow-up test for absolute continuity."""
    v = phi.values
    n = len(v) - 1
    if n < 4:
        return True
    dt = phi.grid.dt
    e_full = float(np.sum(((v[1:] - v[:-1]) / dt) ** 2) * dt)
    half = v[::2]
    e_half = float(np.sum(((half[1:] - half[:-1]) / (2 * dt)) ** 2) * 2 * dt)
    if e_half <= 0.0:
        return e_full <= _ZERO_THR
    return e_full <= _AC_BLOWUP * e_half


def _check_pair_start(phi: GridFunction, vphi: GridFunction, y0: float) -> bool:
    scale = max(1.0, abs(y0))
    return abs(phi.values[0]) <= 1e-9 and abs(vphi.values[0] - y0) <= 1e-9 * scale


def _coeffs(model: Model):
    if isinstance(model, RoughSteinStein):
        return model.sigma_sq, model.zeta, model.xi
    if isinstance(model, RoughBergomi):
        return model.sigma_sq, model.zeta, 1.0
    if isinstance(model, RoughHeston):
        return model.sigma_sq, model.zeta, None
    raise NotApplicable(f"no scalar coefficient catalogue for {type(model).__name__}")


def _pack_result(grid, value, v, u, path_cols, **kw) -> RateResult:
    ctrl = Control(GridFunction(grid, np.stack([v, u], axis=1)))
    path = GridFunction(grid, path_cols)
    return RateResult(value=value, optimal_control=ctrl, optimal_path=path, **kw)


# ---------------------------------------------------------------------------
# small-time LDP pair (integral-form corollary)
# ---------------------------------------------------------------------------


def ldp_rate_pair(model: Model, phi: GridFunction, vphi: GridFunction) -> RateResult:
    """Small-time pathwise LDP rate of (log-price, volatility).

    Inverts phi' = sqrt(Sigma(vphi)) (rho_bar u + rho v) and
    vphi = y0 + I^(H+1/2)(zeta(vphi) v) for the controls and returns their
    energy; +infinity off the absolutely continuous / fractional range, per
    the grid blow-up test and the starting-point checks.
    """
    sigma_sq, zeta, _ = _coeffs(model)
    H, rho, y0 = model.hurst, model.rho, model.y0
    grid = phi.grid
    if not _check_pair_start(phi, vphi, y0) or not _is_grid_ac(phi):
        return RateResult(value=np.inf)
    zeta_vals = zeta(vphi.values)
    zero_zeta = np.abs(zeta_vals) <= _ZERO_THR
    if rho != 0.0 and np.any(zero_zeta):
        raise NotApplicable(
            "rho != 0 with zeta vanishing on the grid: closed form unavailable"
        )
    rho_bar = math.sqrt(1.0 - rho**2)
    dphi = grid.forward_difference(phi.values)
    D = rl_derivative(GridFunction(grid, vphi.values - y0), H + 0.5, 0.0).values
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(zero_zeta, 0.0, D / np.where(zero_zeta, 1.0, zeta_vals))
        sig = sigma_sq(vphi.values)
        zero_sig = np.abs(sig) <= _ZERO_THR
        u = np.where(
            zero_sig,
            0.0,
            (dphi / np.sqrt(np.where(zero_sig, 1.0, sig)) - rho * v) / rho_bar,
        )
    value = _energy_masked(grid, u, v)
    return _pack_result(grid, value, v, u, np.stack([phi.values, vphi.values], axis=1))


# ---------------------------------------------------------------------------
# rough Heston small-time rate with delta regularization
# ---------------------------------------------------------------------------


def _heston_pair_rate(model, phi, vphi, delta, kappa, drift):
    """Rough Heston pair rate on vd = vphi + delta t^(H+1/2), with Richardson.

    The forcing z = D^(H+1/2)(vd - vd(0)) + kappa vd gives the volatility
    control v = z / (xi sqrt(vd)) and the price control
    u = (phi' / sqrt(vd) + drift sqrt(vd) - rho v) / rho_bar on {vd > 0}.
    Small time has kappa = drift = 0; the tail rescaling has the model's kappa
    and drift 1/2.  Returns the result and z.
    """
    grid = phi.grid
    t = grid.nodes
    H, rho, xi = model.hurst, model.rho, model.xi
    rho_bar = math.sqrt(1.0 - rho**2)
    dphi = grid.forward_difference(phi.values)

    def once(dlt):
        vd = vphi.values + dlt * t ** (H + 0.5)
        pos = vd > _ZERO_THR
        D = rl_derivative(GridFunction(grid, vd - vd[0]), H + 0.5, 0.0).values
        z = D + kappa * vd
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(np.where(pos, vd, 1.0))
            v = np.where(pos, z / (xi * sq), 0.0)
            u = np.where(pos, (dphi / sq + drift * sq - rho * v) / rho_bar, 0.0)
        return _energy_masked(grid, u, v), v, u, z

    value, v, u, z = once(delta)
    rich = 2.0 * once(0.5 * delta)[0] - value if delta > 0.0 else None
    res = _pack_result(
        grid,
        value,
        v,
        u,
        np.stack([phi.values, vphi.values], axis=1),
        regularization_delta=delta,
        richardson_value=rich,
    )
    return res, z


def heston_rate(
    model: RoughHeston,
    phi: GridFunction,
    vphi: GridFunction,
    delta: float = _DEFAULT_DELTA,
) -> RateResult:
    """Small-time rough Heston rate on the delta-perturbed volatility path.

    delta > 0 evaluates on vphi + delta t^(H+1/2) and reports a Richardson
    extrapolation over (delta, delta/2); delta = 0 uses the positive-set
    indicator convention directly.
    """
    if np.any(vphi.values < -1e-12):
        raise NegativePath("volatility path must be nonnegative")
    if not _check_pair_start(phi, vphi, model.y0) or not _is_grid_ac(phi):
        return RateResult(value=np.inf, regularization_delta=delta)
    return _heston_pair_rate(model, phi, vphi, delta, 0.0, 0.0)[0]


# ---------------------------------------------------------------------------
# moderate deviations (frozen coefficients)
# ---------------------------------------------------------------------------


def mdp_rate_pair(model: Model, phi: GridFunction, vphi: GridFunction) -> RateResult:
    """Frozen-coefficient quadratic MDP rate of the pair (phi, vphi - y0 frame).

    Here phi and vphi are fluctuation paths anchored at the limit point:
    phi(0) = 0 and vphi(0) = y0.
    """
    sigma_sq, zeta, _ = _coeffs(model)
    H, rho, y0 = model.hurst, model.rho, model.y0
    sig0 = float(sigma_sq(np.asarray(y0)))
    zeta0 = float(zeta(np.asarray(y0)))
    if abs(sig0 * zeta0) <= _ZERO_THR:
        raise DegenerateCoefficients("Sigma(y0) * zeta(y0) must be nonzero")
    grid = phi.grid
    if not _check_pair_start(phi, vphi, y0) or not _is_grid_ac(phi):
        return RateResult(value=np.inf)
    rho_bar = math.sqrt(1.0 - rho**2)
    dphi = grid.forward_difference(phi.values)
    D = rl_derivative(GridFunction(grid, vphi.values - y0), H + 0.5, 0.0).values
    v = D / zeta0
    u = (dphi / math.sqrt(sig0) - rho * v) / rho_bar
    value = _energy_masked(grid, u, v)
    return _pack_result(grid, value, v, u, np.stack([phi.values, vphi.values], axis=1))


def mdp_rate_terminal_x(model: Model, x: float) -> float:
    """x^2 / (2 Sigma(y0)): the moderately-out-of-the-money marginal rate."""
    sigma_sq, zeta, _ = _coeffs(model)
    sig0 = float(sigma_sq(np.asarray(model.y0)))
    if sig0 <= _ZERO_THR:
        raise DegenerateCoefficients("Sigma(y0) must be positive")
    return x * x / (2.0 * sig0)


def mdp_rate_terminal_y(y: float) -> float:
    """y^2 / 2 for the volatility marginal fluctuation.

    ``y`` is measured in noise-normalized units: one unit equals the standard
    deviation scale zeta(y0) ||K||_(L2[0,T]) of the terminal Gaussian
    fluctuation, which is what reduces the variational problem to the same
    quadratic as the x-marginal.
    """
    return 0.5 * y * y


# ---------------------------------------------------------------------------
# tail rates
# ---------------------------------------------------------------------------


def tail_rate_steinstein(
    model: RoughSteinStein, phi: GridFunction, vphi: GridFunction
) -> RateResult:
    """Tail-rescaled Stein-Stein pair rate (volatility started at zero)."""
    grid = phi.grid
    H, rho, kappa, xi = model.hurst, model.rho, model.kappa, model.xi
    if abs(phi.values[0]) > 1e-9 or abs(vphi.values[0]) > 1e-9 or not _is_grid_ac(phi):
        return RateResult(value=np.inf)
    rho_bar = math.sqrt(1.0 - rho**2)
    D = rl_derivative(GridFunction(grid, vphi.values), H + 0.5, 0.0).values
    if H == 0.5:
        Ihalf = vphi.values.copy()
    else:
        Ihalf = rl_integral(vphi, 0.5 - H).values
    v = (D + kappa * Ihalf) / xi
    dphi = grid.forward_difference(phi.values)
    nz = np.abs(vphi.values) > _ZERO_THR
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(
            nz,
            (dphi / np.where(nz, vphi.values, 1.0) + 0.5 * vphi.values - rho * v)
            / rho_bar,
            0.0,
        )
    value = _energy_masked(grid, u, v)
    return _pack_result(grid, value, v, u, np.stack([phi.values, vphi.values], axis=1))


def tail_mdp_rate_y(model: RoughSteinStein, vphi: GridFunction) -> RateResult:
    """Tail-MDP volatility rate: (1/2 xi^2) int (D^(H+1/2) vphi + kappa I^(1/2-H) vphi)^2.

    The control formula coincides with the tail-LDP one, so this is the
    v-energy of ``tail_rate_steinstein`` without the price term.
    """
    grid = vphi.grid
    H = model.hurst
    D = rl_derivative(GridFunction(grid, vphi.values), H + 0.5, 0.0).values
    Ihalf = vphi.values.copy() if H == 0.5 else rl_integral(vphi, 0.5 - H).values
    v = (D + model.kappa * Ihalf) / model.xi
    value = _energy_masked(grid, v)
    ctrl = Control(GridFunction(grid, np.stack([v, np.zeros_like(v)], axis=1)))
    return RateResult(value=value, optimal_control=ctrl, optimal_path=vphi)


def tail_rate_heston(
    model: RoughHeston,
    phi: GridFunction,
    vphi: GridFunction,
    delta: float = _DEFAULT_DELTA,
) -> RateResult:
    """Tail-rescaled rough Heston pair rate on the delta-perturbed path."""
    if np.any(vphi.values < -1e-12):
        raise NegativePath("volatility path must be nonnegative")
    if abs(phi.values[0]) > 1e-9 or abs(vphi.values[0]) > 1e-9 or not _is_grid_ac(phi):
        return RateResult(value=np.inf, regularization_delta=delta)
    res, z = _heston_pair_rate(model, phi, vphi, delta, model.kappa, 0.5)
    # smooth volatility forcing xi sqrt(vphi) v; lets round trips regenerate
    # vphi through the equivalent linear equation without the 1/sqrt node-0
    # indicator artifact
    res.diagnostics["z_values"] = z
    return res


# ---------------------------------------------------------------------------
# multifactor MDP rate
# ---------------------------------------------------------------------------


def multifactor_mdp_rate(
    model: MultiRoughBergomi,
    phi: GridFunction,
    vphi: GridFunction,
    attain_tol: float = 5e-3,
) -> RateResult:
    """Recursive control recovery for the multifactor rough Bergomi MDP.

    Controls exist only on the kernels sharing the smallest Hurst index; the
    remaining volatility components are determined, and a mismatch beyond
    ``attain_tol`` (sup norm, operator round-trip accuracy) makes the rate
    +infinity.
    """
    grid = phi.grid
    m = model.n_factors
    mstar = model.m_star
    L = np.asarray(model.loadings, dtype=float)
    y0 = np.asarray(model.y0, dtype=float)
    vv = vphi.values if vphi.values.ndim == 2 else vphi.values[:, None]
    if vv.shape[1] != m:
        raise ValueError("vphi must carry one column per factor")
    if not _is_grid_ac(phi) or abs(phi.values[0]) > 1e-9:
        return RateResult(value=np.inf)
    vs = []
    integrals = []
    for i in range(mstar):
        resid = vv[:, i] - y0[i]
        for j in range(i):
            resid = resid - L[i, j] * integrals[j]
        if abs(L[i, i]) <= _ZERO_THR:
            raise SingularL(f"loading L[{i},{i}] vanishes")
        vi = (
            rl_derivative(GridFunction(grid, resid), float(model.hurst[i]) + 0.5, 0.0).values
            / L[i, i]
        )
        vs.append(vi)
        vi_clean = np.where(np.isfinite(vi), vi, 0.0)
        integrals.append(
            rl_integral(GridFunction(grid, vi_clean), float(model.hurst[i]) + 0.5).values
        )
    scale = max(1.0, float(np.max(np.abs(vv))))
    for i in range(mstar, m):
        induced = np.full(len(grid), y0[i])
        for j in range(min(i, mstar)):
            induced = induced + L[i, j] * integrals[j]
        if float(np.max(np.abs(vv[:, i] - induced))) > attain_tol * scale:
            return RateResult(
                value=np.inf, diagnostics={"unattainable_component": i}
            )
    rho = np.asarray(model.rho, dtype=float)
    rho_bar = model.rho_bar
    weight = float(np.sum(np.exp(0.5 * y0)))
    dphi = grid.forward_difference(phi.values)
    u = dphi / weight
    for j in range(mstar):
        vj = np.where(np.isfinite(vs[j]), vs[j], 0.0)
        u = u - rho[j] * vj
    u = u / rho_bar
    value = _energy_masked(grid, u, *vs)
    cols = [u] + vs
    ctrl = Control(GridFunction(grid, np.stack(cols, axis=1)))
    return RateResult(
        value=value,
        optimal_control=ctrl,
        optimal_path=GridFunction(grid, np.concatenate([phi.values[:, None], vv], axis=1)),
    )


# ---------------------------------------------------------------------------
# regeneration through the limit solvers (round-trip checks)
# ---------------------------------------------------------------------------


def _split_vu(ctrl: Control):
    vals = ctrl.values.values
    if vals.ndim == 1:
        return vals, np.zeros_like(vals)
    return vals[:, 0], vals[:, 1]


def _finite(vals: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(vals), vals, 0.0)


def regenerate_smalltime_pair(
    model: Model,
    ctrl: Control | RateResult,
    branch_policy: str = "continue_positive",
):
    """Drive the small-time limit system with recovered controls.

    Solves vphi = y0 + I^(H+1/2)(zeta(vphi) v) and integrates
    phi' = sqrt(Sigma(vphi)) (rho_bar u + rho v); returns (phi, vphi).
    """
    from .volterra_det import DiffusionTerm, LimitProblem, solve_ldp_limit

    if isinstance(ctrl, RateResult):
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    v, u = _split_vu(ctrl)
    v = _finite(v)
    u = _finite(u)
    kernel = power_law(model.hurst)
    sigma_sq, zeta, zeta_const = _coeffs(model)
    if isinstance(model, RoughHeston):
        def sig_field(tt, xx):
            y = np.atleast_1d(np.asarray(xx, dtype=float))[..., 0]
            out = model.xi * np.sqrt(np.maximum(y, 0.0))
            return out.reshape(*np.shape(out), 1, 1)

        sqrt_comp = 0
    else:
        def sig_field(tt, xx, zc=zeta_const):
            base = np.shape(np.atleast_1d(np.asarray(xx, dtype=float))[..., 0])
            return np.full((*base, 1, 1), zc)

        sqrt_comp = None
    p = LimitProblem(
        grid=grid,
        x0=np.array([model.y0]),
        diffusion_terms=(DiffusionTerm(kernel, sig_field),),
        control=Control(GridFunction(grid, v), sections=tuple(
            s for s in ctrl.sections if s.channel == 0
        )),
        branch_policy=branch_policy,
        sqrt_component=sqrt_comp,
    )
    vphi = solve_ldp_limit(p).path
    sig = np.maximum(sigma_sq(vphi.values), 0.0)
    rho, rho_bar = model.rho, math.sqrt(1.0 - model.rho**2)
    drive = np.sqrt(sig) * (rho_bar * u + rho * v)
    phi = GridFunction(grid, grid.cumulative_trapezoid(drive))
    return phi, vphi


def regenerate_tail_pair(
    model: Model,
    ctrl: Control | RateResult,
    branch_policy: str = "continue_positive",
):
    """Drive the tail-rescaled limit system with recovered controls.

    Accepts a RateResult; for rough Heston the attached smooth forcing
    z = xi sqrt(vphi) v is used to solve the equivalent linear equation
    vphi = I^(H+1/2)(z - kappa vphi), avoiding the indicator artifact of the
    singular recovered control at t = 0.
    """
    from .volterra_det import DiffusionTerm, DriftTerm, LimitProblem, solve_ldp_limit
    from .kernels import constant as const_kernel

    z_vals = None
    if isinstance(ctrl, RateResult):
        z_vals = ctrl.diagnostics.get("z_values")
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    v, u = _split_vu(ctrl)
    v = _finite(v)
    u = _finite(u)
    kernel = power_law(model.hurst)
    rho, rho_bar = model.rho, math.sqrt(1.0 - model.rho**2)
    if isinstance(model, RoughSteinStein):
        def drift(tt, xx):
            y = np.atleast_1d(np.asarray(xx, dtype=float))[..., 0]
            return (-model.kappa * y).reshape(*np.shape(y), 1)

        def sig_field(tt, xx):
            base = np.shape(np.atleast_1d(np.asarray(xx, dtype=float))[..., 0])
            return np.full((*base, 1, 1), model.xi)

        p = LimitProblem(
            grid=grid,
            x0=np.array([0.0]),
            drift_terms=(DriftTerm(const_kernel(1.0), drift),),
            diffusion_terms=(DiffusionTerm(kernel, sig_field),),
            control=Control(GridFunction(grid, v)),
        )
        vphi = solve_ldp_limit(p).path
        drive = -0.5 * vphi.values**2 + vphi.values * (rho_bar * u + rho * v)
    elif isinstance(model, RoughHeston):
        if z_vals is not None:
            from .volterra_det import solve_mdp_limit

            gb = GridFunction(grid, np.full(len(grid), -model.kappa))
            ones = GridFunction(grid, np.ones(len(grid)))
            vphi = solve_mdp_limit(
                kernel, gb, ones, Control(GridFunction(grid, _finite(z_vals)))
            )
        else:
            def drift(tt, xx):
                y = np.atleast_1d(np.asarray(xx, dtype=float))[..., 0]
                return (-model.kappa * np.maximum(y, 0.0)).reshape(*np.shape(y), 1)

            def sig_field(tt, xx):
                y = np.atleast_1d(np.asarray(xx, dtype=float))[..., 0]
                out = model.xi * np.sqrt(np.maximum(y, 0.0))
                return out.reshape(*np.shape(out), 1, 1)

            p = LimitProblem(
                grid=grid,
                x0=np.array([0.0]),
                drift_terms=(DriftTerm(kernel, drift),),
                diffusion_terms=(DiffusionTerm(kernel, sig_field),),
                control=Control(GridFunction(grid, v)),
                branch_policy=branch_policy,
                sqrt_component=0,
            )
            vphi = solve_ldp_limit(p).path
        vpos = np.maximum(vphi.values, 0.0)
        drive = -0.5 * vpos + np.sqrt(vpos) * (rho_bar * u + rho * v)
    else:
        raise NotApplicable("tail rescaling is catalogued for Stein-Stein and Heston")
    phi = GridFunction(grid, grid.cumulative_trapezoid(drive))
    return phi, vphi


def regenerate_mdp_pair(model: Model, ctrl: Control | RateResult):
    """Drive the frozen-coefficient MDP limit system with recovered controls."""
    from .volterra_det import solve_mdp_limit

    if isinstance(ctrl, RateResult):
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    v, u = _split_vu(ctrl)
    v = _finite(v)
    u = _finite(u)
    sigma_sq, zeta, _ = _coeffs(model)
    zeta0 = float(zeta(np.asarray(model.y0)))
    sig0 = math.sqrt(float(sigma_sq(np.asarray(model.y0))))
    kernel = power_law(model.hurst)
    zeros = GridFunction(grid, np.zeros(len(grid)))
    zeta_path = GridFunction(grid, np.full(len(grid), zeta0))
    psi = solve_mdp_limit(kernel, zeros, zeta_path, Control(GridFunction(grid, v)))
    vphi = GridFunction(grid, model.y0 + psi.values)
    rho, rho_bar = model.rho, math.sqrt(1.0 - model.rho**2)
    phi = GridFunction(grid, grid.cumulative_trapezoid(sig0 * (rho_bar * u + rho * v)))
    return phi, vphi


def regenerate_multifactor_mdp_pair(
    model: MultiRoughBergomi, ctrl: Control | RateResult
):
    """Forward map of the multifactor MDP limit (controls to (phi, vphi))."""
    if isinstance(ctrl, RateResult):
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    vals = ctrl.values.values
    u = _finite(vals[:, 0])
    vs = [_finite(vals[:, 1 + j]) for j in range(vals.shape[1] - 1)]
    L = np.asarray(model.loadings, dtype=float)
    y0 = np.asarray(model.y0, dtype=float)
    m = model.n_factors
    cols = []
    for i in range(m):
        acc = np.full(len(grid), y0[i])
        for j in range(min(i + 1, len(vs))):
            Ij = rl_integral(GridFunction(grid, vs[j]), float(model.hurst[j]) + 0.5).values
            acc = acc + L[i, j] * Ij
        cols.append(acc)
    vphi = GridFunction(grid, np.stack(cols, axis=1))
    rho = np.asarray(model.rho, dtype=float)
    weight = float(np.sum(np.exp(0.5 * y0)))
    drive = model.rho_bar * u
    for j in range(len(vs)):
        drive = drive + rho[j] * vs[j]
    phi = GridFunction(grid, grid.cumulative_trapezoid(weight * drive))
    return phi, vphi


# ---------------------------------------------------------------------------
# Cameron-Martin oracle and the terminal variational solver
# ---------------------------------------------------------------------------


def gaussian_terminal_control(kernel, zeta0: float, offset: float, t_end: float):
    """Normal-equations solution of min ||v||^2/2 s.t. int K(T-s) zeta0 v = offset.

    Returns (value, section coefficient): the optimizer is the kernel section
    v(s) = coeff * K(T-s) with coeff = offset / (zeta0 ||K||^2), and the
    value offset^2 / (2 zeta0^2 ||K||^2) uses the exact squared norm.
    """
    gram = zeta0**2 * l2_norm_sq(kernel, t_end)
    coeff = offset * zeta0 / gram
    value = offset**2 / (2.0 * gram)
    return value, coeff


@dataclass
class _TerminalProblem:
    grid: TimeGrid
    model: Model
    component: str
    target: float
    frozen: bool
    use_section: bool
    kernel: object
    conv: np.ndarray
    rcol: np.ndarray
    gsec: np.ndarray
    r_tt: float
    w: np.ndarray
    rho: float
    rho_bar: float
    zeta0: float | None
    y0: float


def _terminal_problem(model, target, component, grid, frozen) -> _TerminalProblem:
    H = model.hurst
    kernel = power_law(H)
    cw = conv_weights(kernel, grid)
    conv = cw.dense_matrix()
    rcol = np.asarray(kernel.autocovariance(grid.nodes, grid.horizon), dtype=float)
    gsec = terminal_weights(kernel, grid)
    r_tt = l2_norm_sq(kernel, grid.horizon)
    sigma_sq, zeta, zeta_const = _coeffs(model)
    if frozen or zeta_const is None:
        zeta0 = float(zeta(np.asarray(model.y0)))
    else:
        zeta0 = zeta_const
    use_section = (model.zeta_constant or frozen) and component != "y_psi"
    return _TerminalProblem(
        grid=grid,
        model=model,
        component=component,
        target=target,
        frozen=frozen,
        use_section=use_section,
        kernel=kernel,
        conv=conv,
        rcol=rcol,
        gsec=gsec,
        r_tt=r_tt,
        w=grid.trapezoid_weights(),
        rho=model.rho,
        rho_bar=math.sqrt(1.0 - model.rho**2),
        zeta0=zeta0,
        y0=model.y0,
    )




class _Objective:
    """Energy and terminal target of one discretized terminal problem.

    ``evaluate(p)`` returns (energy, target, grad energy, grad target) and
    ``result(p)`` returns (energy, target, control, path); ``_run_penalty``
    builds the penalized objective from them.
    """

    def __init__(self, tp: _TerminalProblem):
        self.tp = tp
        self.n = len(tp.grid)
        self.n_params = 2 * self.n


class _ZetaConstObjective(_Objective):
    """Models with constant zeta (linear vphi response)."""

    def __init__(self, tp: _TerminalProblem):
        super().__init__(tp)
        if tp.use_section:
            self.n_params += 1
        m = tp.model
        self.sig_fn = m.sigma_sq
        if tp.frozen:
            s0 = float(m.sigma_sq(np.asarray(m.y0)))
            self.sig_fn = lambda y, s0=s0: np.full_like(np.asarray(y, dtype=float), s0)

    def pieces(self, p):
        tp = self.tp
        n = self.n
        u = p[:n]
        v = p[n : 2 * n]
        c = p[2 * n] if tp.use_section else 0.0
        vphi = tp.zeta0 * (tp.conv @ v)
        if tp.use_section:
            vphi = vphi + tp.zeta0 * c * tp.rcol
        vphi = tp.y0 + vphi
        sig = np.maximum(self.sig_fn(vphi), 0.0)
        S = np.sqrt(sig)
        en = 0.5 * (
            float(np.sum(tp.w * (u**2 + v**2)))
            + (2.0 * c * float(np.dot(tp.gsec, v)) + c**2 * tp.r_tt if tp.use_section else 0.0)
        )
        if tp.component == "x":
            tgt = float(np.sum(tp.w * S * (tp.rho_bar * u + tp.rho * v)))
            if tp.use_section:
                tgt += tp.rho * c * float(np.dot(tp.gsec, S))
        elif tp.component == "y":
            tgt = vphi[-1]
        else:  # y_psi: unit-response integral of v
            tgt = float(np.sum(tp.w * v))
        return u, v, c, vphi, S, en, tgt

    def evaluate(self, p):
        tp = self.tp
        u, v, c, vphi, S, en, tgt = self.pieces(p)
        gu = tp.w * u
        gv = tp.w * v + (c * tp.gsec if tp.use_section else 0.0)
        if tp.component == "x":
            with np.errstate(divide="ignore", invalid="ignore"):
                Sp = np.where(S > 1e-150, self._sig_prime(vphi) / (2.0 * S), 0.0)
            du = tp.w * S * tp.rho_bar
            a = tp.w * Sp * (tp.rho_bar * u + tp.rho * v)
            if tp.use_section:
                a = a + tp.rho * c * tp.gsec * Sp
            dv = tp.w * S * tp.rho + tp.zeta0 * (tp.conv.T @ a)
        elif tp.component == "y":
            du = np.zeros_like(u)
            dv = tp.zeta0 * tp.conv[-1, :]
        else:
            du = np.zeros_like(u)
            dv = tp.w
        if not tp.use_section:
            return en, tgt, np.concatenate([gu, gv]), np.concatenate([du, dv])
        gc = float(np.dot(tp.gsec, v)) + c * tp.r_tt
        if tp.component == "x":
            dc = tp.rho * float(np.dot(tp.gsec, S)) + tp.zeta0 * float(np.dot(tp.rcol, a))
        else:
            dc = tp.zeta0 * tp.r_tt
        return en, tgt, np.concatenate([gu, gv, [gc]]), np.concatenate([du, dv, [dc]])

    def _sig_prime(self, y):
        m = self.tp.model
        if self.tp.frozen:
            return np.zeros_like(np.asarray(y, dtype=float))
        if isinstance(m, RoughSteinStein):
            return 2.0 * np.asarray(y, dtype=float)
        if isinstance(m, RoughBergomi):
            return np.exp(np.asarray(y, dtype=float))
        raise NotApplicable("no catalogued derivative")

    def result(self, p):
        tp = self.tp
        u, v, c, vphi, S, en, tgt = self.pieces(p)
        secs = (
            (KernelSection(tp.kernel, tp.grid.horizon, c, 0),) if tp.use_section else ()
        )
        ctrl = Control(GridFunction(tp.grid, np.stack([v, u], axis=1)), sections=secs)
        phi = tp.grid.cumulative_trapezoid(S * (tp.rho_bar * u + tp.rho * v))
        return en, tgt, ctrl, GridFunction(tp.grid, np.stack([phi, vphi], axis=1))


class _HestonObjective(_Objective):
    """z-parameterized rough Heston terminal problem."""

    def __init__(self, tp: _TerminalProblem):
        super().__init__(tp)
        self.xi = tp.model.xi
        self.floor = 1e-12

    def pieces(self, p):
        tp = self.tp
        u, z = p[: self.n], p[self.n :]
        vphi = tp.y0 + tp.conv @ z
        vpos = np.maximum(vphi, self.floor)
        S = np.sqrt(vpos)
        en_u = 0.5 * float(np.sum(tp.w * u**2))
        en_v = 0.5 * float(np.sum(tp.w * z**2 / (self.xi**2 * vpos)))
        if tp.component == "x":
            tgt = float(np.sum(tp.w * (S * tp.rho_bar * u + tp.rho * z / self.xi)))
        else:
            tgt = vphi[-1]
        return u, z, vphi, vpos, S, en_u + en_v, tgt

    def evaluate(self, p):
        tp = self.tp
        u, z, vphi, vpos, S, en, tgt = self.pieces(p)
        live = vphi > self.floor
        gu = tp.w * u
        gz = tp.w * z / (self.xi**2 * vpos)
        back = -0.5 * tp.w * z**2 / (self.xi**2 * vpos**2) * live
        gz = gz + tp.conv.T @ back
        if tp.component == "x":
            du = tp.w * S * tp.rho_bar
            dz = tp.w * tp.rho / self.xi
            a = tp.w * tp.rho_bar * u * np.where(live, 0.5 / S, 0.0)
            dz = dz + tp.conv.T @ a
        else:
            du = np.zeros_like(u)
            dz = tp.conv[-1, :]
        return en, tgt, np.concatenate([gu, gz]), np.concatenate([du, dz])

    def result(self, p):
        tp = self.tp
        u, z, vphi, vpos, S, en, tgt = self.pieces(p)
        v = z / (self.xi * S)
        ctrl = Control(GridFunction(tp.grid, np.stack([v, u], axis=1)))
        phi = tp.grid.cumulative_trapezoid(S * tp.rho_bar * u + tp.rho * z / self.xi)
        return en, tgt, ctrl, GridFunction(tp.grid, np.stack([phi, vphi], axis=1))


class _TailSteinSteinObjective(_Objective):
    """Tail Stein-Stein terminal problem: linear volatility response.

    vphi = (I + kappa C1)^-1 (xi C_RL v) with C1 the cumulative-integral
    (constant-kernel) matrix; the price drive is
    -vphi^2/2 + vphi (rho_bar u + rho v).
    """

    def __init__(self, tp: _TerminalProblem):
        super().__init__(tp)
        m = tp.model
        C1 = conv_weights(constant(1.0), tp.grid).dense_matrix()
        self.A = np.linalg.solve(np.eye(self.n) + m.kappa * C1, m.xi * tp.conv)

    def pieces(self, p):
        tp = self.tp
        u, v = p[: self.n], p[self.n :]
        vphi = self.A @ v
        en = 0.5 * float(np.sum(tp.w * (u**2 + v**2)))
        drive = -0.5 * vphi**2 + vphi * (tp.rho_bar * u + tp.rho * v)
        tgt = float(np.sum(tp.w * drive)) if tp.component == "x" else vphi[-1]
        return u, v, vphi, drive, en, tgt

    def evaluate(self, p):
        tp = self.tp
        u, v, vphi, drive, en, tgt = self.pieces(p)
        if tp.component == "x":
            du = tp.w * tp.rho_bar * vphi
            a = tp.w * (-vphi + tp.rho_bar * u + tp.rho * v)
            dv = tp.w * tp.rho * vphi + self.A.T @ a
        else:
            du = np.zeros_like(u)
            dv = self.A[-1, :]
        return en, tgt, np.concatenate([tp.w * u, tp.w * v]), np.concatenate([du, dv])

    def result(self, p):
        tp = self.tp
        u, v, vphi, drive, en, tgt = self.pieces(p)
        ctrl = Control(GridFunction(tp.grid, np.stack([v, u], axis=1)))
        phi = tp.grid.cumulative_trapezoid(drive)
        return en, tgt, ctrl, GridFunction(tp.grid, np.stack([phi, vphi], axis=1))


class _TailHestonObjective(_Objective):
    """Tail rough Heston terminal problem in the smooth forcing variable.

    z = xi sqrt(vphi) v - the volatility solves the linear equation
    vphi = (I + kappa C_RL)^-1 (C_RL z); the drive is
    -vphi/2 + sqrt(vphi) rho_bar u + rho z / xi.
    """

    def __init__(self, tp: _TerminalProblem):
        super().__init__(tp)
        self.xi = tp.model.xi
        self.floor = 1e-12
        M = np.eye(self.n) + tp.model.kappa * tp.conv
        self.A = np.linalg.solve(M, tp.conv)

    def pieces(self, p):
        tp = self.tp
        u, z = p[: self.n], p[self.n :]
        vphi = self.A @ z
        vpos = np.maximum(vphi, self.floor)
        S = np.sqrt(vpos)
        en = 0.5 * float(np.sum(tp.w * u**2)) + 0.5 * float(
            np.sum(tp.w * z**2 / (self.xi**2 * vpos))
        )
        drive = -0.5 * vpos + S * tp.rho_bar * u + tp.rho * z / self.xi
        tgt = float(np.sum(tp.w * drive)) if tp.component == "x" else vphi[-1]
        return u, z, vphi, vpos, S, drive, en, tgt

    def evaluate(self, p):
        tp = self.tp
        u, z, vphi, vpos, S, drive, en, tgt = self.pieces(p)
        live = vphi > self.floor
        gu = tp.w * u
        gz = tp.w * z / (self.xi**2 * vpos) + self.A.T @ (
            -0.5 * tp.w * z**2 / (self.xi**2 * vpos**2) * live
        )
        if tp.component == "x":
            du = tp.w * S * tp.rho_bar
            back = tp.w * (-0.5 * live + np.where(live, 0.5 / S, 0.0) * tp.rho_bar * u)
            dz = tp.w * tp.rho / self.xi + self.A.T @ back
        else:
            du = np.zeros_like(u)
            dz = self.A[-1, :]
        return en, tgt, np.concatenate([gu, gz]), np.concatenate([du, dz])

    def result(self, p):
        tp = self.tp
        u, z, vphi, vpos, S, drive, en, tgt = self.pieces(p)
        v = z / (self.xi * S)
        ctrl = Control(GridFunction(tp.grid, np.stack([v, u], axis=1)))
        phi = tp.grid.cumulative_trapezoid(drive)
        return en, tgt, ctrl, GridFunction(tp.grid, np.stack([phi, vphi], axis=1))


_MU_SCHEDULE = (1e2, 1e4, 1e6, 1e8)
_START_LEVELS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_MAX_VIOLATION = 1e-4


def ldp_rate_terminal(
    model: Model,
    x: float,
    component: str = "x",
    n_steps: int = 512,
    horizon: float = 1.0,
    frozen: bool = False,
) -> RateResult:
    """Minimal control energy with the terminal value pinned at ``x``.

    component 'x' constrains the log-price terminal value, 'y' the
    volatility terminal value, 'y_psi' the integrated normalized control
    (the frozen-coefficient reduction used by the MDP marginals).  ``frozen``
    freezes the coefficient fields at y0, turning the problem into the MDP
    quadratic form.

    Quadratic-penalty continuation over mu in (1e2, 1e4, 1e6, 1e8), L-BFGS
    with analytic gradients, deterministic multi-starts at constant controls
    scaled by the target offset; SolverFailure when the best start misses the
    target by more than 1e-4.
    """
    if component not in ("x", "y", "y_psi"):
        raise ValueError("component must be 'x', 'y' or 'y_psi'")
    grid = TimeGrid(horizon, n_steps)
    offset = x - (model.y0 if component == "y" else 0.0)
    tp = _terminal_problem(model, x, component, grid, frozen)
    if isinstance(model, RoughHeston) and not frozen:
        obj = _HestonObjective(tp)
    else:
        obj = _ZetaConstObjective(tp)
    if offset == 0.0 and component in ("x", "y_psi"):
        en, _, ctrl, path = obj.result(np.zeros(obj.n_params))
        return RateResult(value=en, optimal_control=ctrl, optimal_path=path)
    return _run_penalty(obj, offset)


def tail_rate_terminal(
    model: Model,
    x: float,
    t_end: float = 1.0,
    n_steps: int = 256,
) -> RateResult:
    """Minimal energy with the tail-rescaled log price pinned at ``x`` at t_end.

    Same penalty/continuation scheme as ``ldp_rate_terminal`` on the
    tail-rescaled systems (Stein-Stein and rough Heston).
    """
    grid = TimeGrid(t_end, n_steps)
    tp = _terminal_problem(model, x, "x", grid, frozen=False)
    if isinstance(model, RoughSteinStein):
        obj = _TailSteinSteinObjective(tp)
    elif isinstance(model, RoughHeston):
        obj = _TailHestonObjective(tp)
    else:
        raise NotApplicable("tail rescaling is catalogued for Stein-Stein and Heston")
    return _run_penalty(obj, x)


def _penalized(p, obj: _Objective, mu: float):
    """Penalized objective en + mu r^2 and its gradient, r the target miss."""
    en, tgt, g_en, g_tgt = obj.evaluate(p)
    r = tgt - obj.tp.target
    return en + mu * r * r, g_en + 2.0 * mu * r * g_tgt


def _run_penalty(obj: _Objective, offset: float) -> RateResult:
    best = None
    total_iters = 0
    scale = offset if offset != 0.0 else 1.0
    for level in _START_LEVELS:
        p = np.full(obj.n_params, level * scale)
        if obj.n_params % 2 == 1:  # section coefficient starts at zero
            p[-1] = 0.0
        for mu in _MU_SCHEDULE:
            res = _minimize(
                _penalized,
                p,
                args=(obj, mu),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 3000, "ftol": 1e-16, "gtol": 1e-12},
            )
            p = res.x
            total_iters += int(res.nit)
        en, tgt, ctrl, path = obj.result(p)
        viol = abs(tgt - obj.tp.target)
        score = (viol > _MAX_VIOLATION, en)
        if best is None or score < best[0]:
            best = (score, en, viol, ctrl, path)
    _, en, viol, ctrl, path = best
    if viol > _MAX_VIOLATION:
        raise SolverFailure(
            f"terminal constraint violated by {viol:.3e} after continuation",
            best_value=en,
        )
    return RateResult(
        value=en,
        optimal_control=ctrl,
        optimal_path=path,
        iterations=total_iters,
        constraint_violation=viol,
    )
