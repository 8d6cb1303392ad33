"""Closed-form rate functions and the terminal variational solver.

Every coefficient comes from the model classes (``sve_sim``): Sigma
(``sigma_sq``), zeta, Sigma' (``sigma_sq_prime``) and the flag
``zeta_constant``.  The multifactor model has no scalar catalogue, so every
call here that needs one raises NotApplicable before building a kernel.

The rate of a path is the least energy (1/2)||(u, v)||^2 of a control that
the limit (skeleton) system of its family, ``_family``, maps onto it.  The
module has three views of that one map.  The pair evaluators
(``ldp_rate_pair``, ``heston_rate``, ``mdp_rate_pair``,
``tail_rate_steinstein``, ``tail_mdp_rate_y``, ``tail_rate_heston``) invert
it with one core, ``_pair_rate``; each keeps only its own input check, and
the recovered controls are attached so round trips can be checked.  The
regenerators run it forward with one core, ``regenerate_pair``, which also
returns the Picard certificate.  The terminal solver minimizes over it.
``multifactor_mdp_rate`` and its regenerator have another price form and
stay separate.

``ldp_rate_terminal`` and ``tail_rate_terminal`` minimize the control energy
subject to a terminal constraint.  Every such problem, small-time, frozen
(MDP) or tail, is one objective class, ``_Objective``, on the volatility
block x alone: the volatility responds linearly to the forcing,
vphi = y0 + zeta0 A x, the control is v = x / Z(vphi), and the price drive
is -drift S^2 + rho S v + rho_bar S u, with y0, drift and S from
``_family``.  Per family only A (the fractional-integral matrix, times
(I + kappa C)^-1 in the tail rescaling), zeta0 (zeta(y0), or 1 for rough
Heston, which works in the forcing z = zeta(vphi) v), Z (1, or
xi sqrt(vphi) for rough Heston) and S differ.  The orthogonal price
control u enters the energy only as (1/2) sum w u^2, so it is eliminated
in closed form; the objective supplies its energy E, its target g at
u = 0, D = sum w (rho_bar S)^2, their gradients (one chain rule through
vphi) and the diagonal of the Hessian of E at its start point
(``curvature``).  One driver, ``_run_reduced``, meets the constraint
exactly and runs the deterministic multi-starts: a price target's rate is
the unconstrained minimum of E + (x - g)^2 / (2 D) (the Forde-Zhang form),
the infimum over the ray x' >= x > 0 that of E + max(x - g, 0)^2 / (2 D),
and a volatility target is affine in the volatility block with a constant
gradient and is met by projecting onto that hyperplane.  The module's own
L-BFGS (``_lbfgs``, with the Moré-Thuente line search of MINPACK-2 and the
constants of L-BFGS-B, without importing scipy.optimize) runs in the
scaled variables q = p sqrt(curvature), in which every coordinate of the
energy has unit curvature at the start: the raw curvatures differ by orders
of magnitude (w ~ h for a v node, w / (xi^2 y0) for a rough Heston z node,
||K||^2 for the kernel-section coefficient).
Two structural devices keep the discrete optimum honest:

* the control space is enriched with one kernel-section atom K(T - .) per
  singularly convolved channel (for constant zeta models, and for any model
  with frozen coefficients, zeta frozen at zeta(y0)).  A uniform
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

from .errors import (
    DegenerateCoefficients,
    DomainError,
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
    "regenerate_pair",
    "regenerate_smalltime_pair",
    "regenerate_tail_pair",
    "regenerate_mdp_pair",
    "regenerate_multifactor_mdp_pair",
]

_ZERO_THR = 1e-12
_AC_BLOWUP = 1e6
_DEFAULT_DELTA = 1e-4
_VOL_FLOOR = 1e-12  # floor on the Heston variance path inside the z-energy
_ATTAIN_TOL = 5e-3  # multifactor MDP: attainability of the determined components


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


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _energy(grid: TimeGrid, *channels) -> float:
    """(1/2) sum of the channels' squared L2 norms, by the trapezoid rule."""
    w = grid.trapezoid_weights()
    total = 0.0
    for ch in channels:
        total += float(np.sum(w * ch**2))
    return 0.5 * total


def _require_finite(what: str, *arrays) -> None:
    """DomainError unless every entry is finite: a NaN would spread through
    the product integration into every later node."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise DomainError(f"{what} must be finite at every node")


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


def _section_integral(kernel, grid: TimeGrid, t_end: float, f: np.ndarray) -> np.ndarray:
    """int_0^t K(t_end - s) f(s) ds at every node t, for piecewise-linear f.

    Exact product integration with the kernel's ``conv_weights``, constant
    past t_end; its value at t_end is ``terminal_weights(kernel, grid, t_end) @ f``.
    """
    i_end = grid.node_index(t_end)
    cw = conv_weights(kernel, grid)
    M0 = cw.cells[:i_end][::-1]  # int of K(t_end - s) over the cell [t_j, t_j+1]
    B = cw.shift[1 : i_end + 1][::-1]  # weight of f(t_j+1)
    out = np.zeros(len(grid))
    out[1 : i_end + 1] = np.cumsum((M0 - B) * f[:i_end] + B * f[1 : i_end + 1])
    out[i_end + 1 :] = out[i_end]
    return out


# ---------------------------------------------------------------------------
# one limit system per family
# ---------------------------------------------------------------------------


def _family(model: Model, frozen: bool = False, tail: bool = False):
    """(y0, drift, zeta, S) of a family's limit system.

    vphi = y0 + K * (zeta(vphi) v) (less the tail mean reversion) and
    phi' = -drift S(vphi)^2 + S(vphi) (rho_bar u + rho v).  Small time is
    (y0, 0, zeta, sqrt(Sigma)); ``frozen`` holds zeta and S at y0; ``tail``
    is (0, 1/2, zeta, sqrt(Sigma)), with the signed vphi as S for
    Stein-Stein.  NotApplicable without a scalar catalogue (the multifactor
    model) and, in the tail, for a model without a ``tail_degree`` (the
    simulator's tail check).
    """
    if tail and model.tail_degree is None:
        raise NotApplicable(f"tail rescaling is not catalogued for {type(model).__name__}")
    flat = model.zeta_constant  # NotApplicable without a catalogue
    y0 = np.asarray(model.y0)
    zeta0, s0 = float(model.zeta(y0)), math.sqrt(float(model.sigma_sq(y0)))

    def zeta(y):
        return np.full(np.shape(y), zeta0) if frozen else model.zeta(y)

    def S(y):
        if frozen:
            return np.full(np.shape(y), s0)
        return y if tail and flat else np.sqrt(model.sigma_sq(y))

    return (0.0, 0.5, zeta, S) if tail else (model.y0, 0.0, zeta, S)


def _reversion(model: Model, kernel):
    """(K_r, order): the tail mean reversion is -kappa int K_r(t - s) vphi(s) ds.

    Stein-Stein reverts through the flat kernel, rough Heston through its
    volatility kernel ``kernel`` itself; D^(H+1/2) (K_r * f) = I^order f.
    """
    if model.zeta_constant:
        return constant(1.0), 0.5 - model.hurst
    return kernel, 0.0


# ---------------------------------------------------------------------------
# pair rates: the limit system inverted
# ---------------------------------------------------------------------------


def _pair_rate(model, phi, vphi, frozen=False, tail=False, delta=None):
    """Invert the family's limit system for the controls of (phi, vphi).

    The forcing z = zeta(vphi) v is D^(H+1/2)(vphi - y0), plus in the tail
    kappa I^order vphi (``_reversion``); v = z / zeta(vphi), and u solves the
    price equation.  Nodes where zeta or Sigma = S^2 vanishes get v = 0 or
    u = 0.  +infinity off the start point (phi(0) = 0, vphi(0) = y0) or the
    absolutely continuous range, per the grid blow-up test; DomainError on
    a non-finite path.  ``delta`` > 0 evaluates on vphi + delta t^(H+1/2)
    and reports a Richardson extrapolation over (delta, delta/2).  Returns
    the result and z.
    """
    _require_finite("the paths phi and vphi", phi.values, vphi.values)
    y0, drift, zeta, S = _family(model, frozen, tail)
    grid = phi.grid
    start = abs(phi.values[0]) <= 1e-9 and abs(vphi.values[0] - y0) <= 1e-9 * max(1.0, abs(y0))
    if not start or not _is_grid_ac(phi):
        return RateResult(value=np.inf, regularization_delta=delta), None
    H, rho, rho_bar = model.hurst, model.rho, model.rho_bar
    order = _reversion(model, None)[1] if tail else None
    dphi = grid.forward_difference(phi.values)

    def once(dlt):
        vd = vphi.values + dlt * grid.nodes ** (H + 0.5)
        z = rl_derivative(GridFunction(grid, vd - y0), H + 0.5, 0.0).values
        if tail:
            rev = vd if order == 0.0 else rl_integral(GridFunction(grid, vd), order).values
            z = z + model.kappa * rev
        zt, s = zeta(vd), S(vd)
        dead_v, dead_u = np.abs(zt) <= _ZERO_THR, s * s <= _ZERO_THR
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(dead_v, 0.0, z / np.where(dead_v, 1.0, zt))
            s = np.where(dead_u, 1.0, s)
            u = np.where(dead_u, 0.0, (dphi / s + drift * s - rho * v) / rho_bar)
        return _energy(grid, u, v), v, u, z

    value, v, u, z = once(delta or 0.0)
    rich = 2.0 * once(0.5 * delta)[0] - value if (delta or 0.0) > 0.0 else None
    ctrl = Control(GridFunction(grid, np.stack([v, u], axis=1)))
    path = GridFunction(grid, np.stack([phi.values, vphi.values], axis=1))
    return RateResult(value, ctrl, path, delta, rich), z


def ldp_rate_pair(model: Model, phi: GridFunction, vphi: GridFunction) -> RateResult:
    """Small-time pathwise LDP rate of (log-price, volatility).

    Inverts phi' = sqrt(Sigma(vphi)) (rho_bar u + rho v) and
    vphi = y0 + I^(H+1/2)(zeta(vphi) v) for the controls and returns their
    energy (``_pair_rate``).  Nodes where Sigma or zeta vanishes (rough
    Heston at or below zero) get u = 0 or v = 0; with rho != 0 a vanishing
    zeta leaves no closed form (NotApplicable).
    """
    if model.rho != 0.0 and np.any(np.abs(model.zeta(vphi.values)) <= _ZERO_THR):
        raise NotApplicable("rho != 0 with zeta vanishing on the grid: closed form unavailable")
    return _pair_rate(model, phi, vphi)[0]


def heston_rate(
    model: RoughHeston,
    phi: GridFunction,
    vphi: GridFunction,
    delta: float = _DEFAULT_DELTA,
) -> RateResult:
    """Small-time rough Heston rate on the delta-perturbed volatility path.

    delta > 0 evaluates on vphi + delta t^(H+1/2) and reports a Richardson
    extrapolation over (delta, delta/2); delta = 0 uses the positive-set
    indicator convention directly.  NegativePath if vphi dips below zero.
    """
    if np.any(vphi.values < -1e-12):
        raise NegativePath("volatility path must be nonnegative")
    return _pair_rate(model, phi, vphi, delta=delta)[0]


def mdp_rate_pair(model: Model, phi: GridFunction, vphi: GridFunction) -> RateResult:
    """Frozen-coefficient quadratic MDP rate of the pair (phi, vphi - y0 frame).

    Here phi and vphi are fluctuation paths anchored at the limit point:
    phi(0) = 0 and vphi(0) = y0.
    """
    y0 = np.asarray(model.y0)
    if abs(float(model.zeta(y0) * model.sigma_sq(y0))) <= _ZERO_THR:
        raise DegenerateCoefficients("Sigma(y0) * zeta(y0) must be nonzero")
    return _pair_rate(model, phi, vphi, frozen=True)[0]


def mdp_rate_terminal_x(model: Model, x: float) -> float:
    """x^2 / (2 Sigma(y0)): the moderately-out-of-the-money marginal rate."""
    sig0 = float(model.sigma_sq(np.asarray(model.y0)))
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


def tail_rate_steinstein(
    model: RoughSteinStein, phi: GridFunction, vphi: GridFunction
) -> RateResult:
    """Tail-rescaled pair rate (volatility started at zero).

    Stein-Stein's control is v = (D^(H+1/2) vphi + kappa I^(1/2-H) vphi) / xi;
    on rough Heston this is ``tail_rate_heston`` at delta = 0.
    """
    return _pair_rate(model, phi, vphi, tail=True)[0]


def tail_mdp_rate_y(model: RoughSteinStein, vphi: GridFunction) -> RateResult:
    """Tail-MDP volatility rate: (1/2 xi^2) int (D^(H+1/2) vphi + kappa I^(1/2-H) vphi)^2.

    The control formula coincides with the tail-LDP one, so this is the
    v-energy of ``tail_rate_steinstein`` (on either tail model) without the
    price term; +infinity unless vphi starts at zero.
    """
    grid = vphi.grid
    res = _pair_rate(model, GridFunction(grid, np.zeros(len(grid))), vphi, tail=True)[0]
    if res.optimal_control is None:
        return res
    v = res.optimal_control.values.values[:, 0]
    ctrl = Control(GridFunction(grid, np.stack([v, np.zeros_like(v)], axis=1)))
    return RateResult(value=_energy(grid, v), optimal_control=ctrl, optimal_path=vphi)


def tail_rate_heston(
    model: RoughHeston,
    phi: GridFunction,
    vphi: GridFunction,
    delta: float = _DEFAULT_DELTA,
) -> RateResult:
    """Tail-rescaled rough Heston pair rate on the delta-perturbed path."""
    if np.any(vphi.values < -1e-12):
        raise NegativePath("volatility path must be nonnegative")
    res, z = _pair_rate(model, phi, vphi, tail=True, delta=delta)
    if z is not None:
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
) -> RateResult:
    """Recursive control recovery for the multifactor rough Bergomi MDP.

    Controls exist only on the kernels sharing the smallest Hurst index; the
    remaining volatility components are determined, and a mismatch beyond
    _ATTAIN_TOL (5e-3 of max(1, sup |vphi|) in the sup norm, the operator
    round trip's accuracy) makes the rate +infinity.  DomainError on a
    non-finite path.  The control's columns are the simulator's channels,
    [v_1, ..., v_m, u], zero on determined factors.
    """
    grid = phi.grid
    m = model.n_factors
    mstar = model.m_star
    L = np.asarray(model.loadings, dtype=float)
    y0 = np.asarray(model.y0, dtype=float)
    vv = vphi.values if vphi.values.ndim == 2 else vphi.values[:, None]
    if vv.shape[1] != m:
        raise ValueError("vphi must carry one column per factor")
    _require_finite("the paths phi and vphi", phi.values, vv)
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
        integrals.append(rl_integral(GridFunction(grid, vi), float(model.hurst[i]) + 0.5).values)
    scale = max(1.0, float(np.max(np.abs(vv))))
    for i in range(mstar, m):
        induced = np.full(len(grid), y0[i])
        for j in range(min(i, mstar)):
            induced = induced + L[i, j] * integrals[j]
        if float(np.max(np.abs(vv[:, i] - induced))) > _ATTAIN_TOL * scale:
            return RateResult(
                value=np.inf, diagnostics={"unattainable_component": i}
            )
    rho = np.asarray(model.rho, dtype=float)
    rho_bar = model.rho_bar
    weight = float(np.sum(np.exp(0.5 * y0)))
    dphi = grid.forward_difference(phi.values)
    u = dphi / weight
    for j in range(mstar):
        u = u - rho[j] * vs[j]
    u = u / rho_bar
    value = _energy(grid, u, *vs)
    cols = vs + [np.zeros(len(grid))] * (m - mstar) + [u]
    ctrl = Control(GridFunction(grid, np.stack(cols, axis=1)))
    return RateResult(
        value=value,
        optimal_control=ctrl,
        optimal_path=GridFunction(grid, np.concatenate([phi.values[:, None], vv], axis=1)),
    )


# ---------------------------------------------------------------------------
# regeneration: the limit system run forward (round-trip checks)
# ---------------------------------------------------------------------------


def _field(f, *trail):
    """The field (t, y) -> f(y[..., 0]), shaped (..., *trail), of the volatility equation."""

    def field(tt, xx):
        y = np.atleast_1d(np.asarray(xx, dtype=float))[..., 0]
        return np.asarray(f(y)).reshape(*np.shape(y), *trail)

    return field


def regenerate_pair(
    model: Model,
    ctrl: Control | RateResult,
    frozen: bool = False,
    tail: bool = False,
    branch_policy: str = "continue_positive",
):
    """Drive a family's limit system (``_family``) with a control.

    Small time by default, frozen coefficients (MDP) with ``frozen``, the
    tail rescaling with ``tail``.  Solves
    vphi = y0 - kappa K_r * vphi (tail only) + K * (zeta(vphi) v), v with its
    channel-0 kernel sections, and integrates
    phi' = -drift S^2 + S (rho_bar u + rho v) plus each section's price term
    rho c int K(T - s) S ds.  Returns (phi, vphi, report), the report being
    the volatility solve's ``SolveReport``.  A tail rough Heston RateResult
    carries the smooth forcing z = xi sqrt(vphi) v (``z_values``); it drives
    the equivalent linear equation instead, which avoids the indicator
    artifact of the singular recovered control at t = 0.  DomainError on a
    non-finite control or forcing.
    """
    from .volterra_det import TOL_SMOOTH, DiffusionTerm, DriftTerm, LimitProblem, solve_ldp_limit

    y0, drift, zeta, S = _family(model, frozen, tail)
    z = None
    if isinstance(ctrl, RateResult):
        z = ctrl.diagnostics.get("z_values")
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    vals = ctrl.values.values
    _require_finite("the control", vals, 0.0 if z is None else z)
    v, u = (vals, np.zeros_like(vals)) if vals.ndim == 1 else (vals[:, 0], vals[:, 1])
    kernel = power_law(model.hurst)
    forcing, tol, drift_terms = v, None, ()
    if z is not None:
        forcing, zeta, tol = z, np.ones_like, TOL_SMOOTH
    if tail:
        reversion = _field(lambda y: -model.kappa * y, 1)
        drift_terms = (DriftTerm(_reversion(model, kernel)[0], reversion),)
    p = LimitProblem(
        grid=grid,
        x0=np.array([y0]),
        drift_terms=drift_terms,
        diffusion_terms=(DiffusionTerm(kernel, _field(zeta, 1, 1)),),
        control=Control(
            GridFunction(grid, forcing),
            sections=tuple(s for s in ctrl.sections if s.channel == 0),
        ),
        branch_policy=branch_policy,
        sqrt_component=None if model.zeta_constant or frozen or z is not None else 0,
        tol=tol,
    )
    report = solve_ldp_limit(p)
    s = S(report.path.values)
    rho, rho_bar = model.rho, model.rho_bar
    phi = grid.cumulative_trapezoid(-drift * s**2 + s * (rho_bar * u + rho * v))
    for sec in p.control.sections:
        phi = phi + rho * sec.coeff * _section_integral(sec.kernel, grid, sec.t_end, s)
    return GridFunction(grid, phi), report.path, report


def regenerate_smalltime_pair(
    model: Model,
    ctrl: Control | RateResult,
    branch_policy: str = "continue_positive",
):
    """Drive the small-time limit system with recovered controls; returns (phi, vphi).

    Solves vphi = y0 + I^(H+1/2)(zeta(vphi) v) and integrates
    phi' = sqrt(Sigma(vphi)) (rho_bar u + rho v), v with its kernel sections.
    """
    return regenerate_pair(model, ctrl, branch_policy=branch_policy)[:2]


def regenerate_tail_pair(
    model: Model,
    ctrl: Control | RateResult,
    branch_policy: str = "continue_positive",
):
    """Drive the tail-rescaled limit system with recovered controls.

    Stein-Stein mean-reverts through the flat kernel, rough Heston through K
    (``_reversion``); a tail rough Heston RateResult drives the equivalent
    linear equation vphi = I^(H+1/2)(z - kappa vphi) with its attached
    forcing z.
    """
    return regenerate_pair(model, ctrl, tail=True, branch_policy=branch_policy)[:2]


def regenerate_mdp_pair(model: Model, ctrl: Control | RateResult):
    """Drive the frozen-coefficient MDP limit system with recovered controls."""
    return regenerate_pair(model, ctrl, frozen=True)[:2]


def regenerate_multifactor_mdp_pair(
    model: MultiRoughBergomi, ctrl: Control | RateResult
):
    """Forward map of the multifactor MDP limit (controls to (phi, vphi));
    DomainError on a non-finite control.  The columns are those of
    ``multifactor_mdp_rate``: v on the first m* factors drives the limit, u is last."""
    if isinstance(ctrl, RateResult):
        ctrl = ctrl.optimal_control
    grid = ctrl.grid
    vals = ctrl.values.values
    _require_finite("the control", vals)
    u = vals[:, -1]
    vs = [vals[:, j] for j in range(model.m_star)]
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


class _Objective:
    """Energy and terminal target of one discretized terminal problem.

    Every problem here has a volatility response linear in its parameters.
    p is the volatility block x, plus a kernel-section coefficient c when
    the problem has a section atom; the volatility is
    vphi = y0 + zeta0 (A x + c rcol), the volatility control v = x / Z(vphi),
    and the price drive -drift S^2 + rho S v + rho_bar S u, u costing
    (1/2) sum w u^2.  Per family:

    * y0 and drift are the family's (``_family``).  A is the
      fractional-integral matrix ``conv``; the tail mean-reverts,
      A = (I + kappa C)^-1 conv with C the matrix of ``_reversion``'s K_r;
    * zeta0 = zeta(y0) and Z = 1 when zeta is constant or frozen.  Rough
      Heston works in the forcing z = zeta(vphi) v itself: zeta0 = 1 and
      Z = xi sqrt(max(vphi, floor));
    * S is the family's, and Z / xi (floored) for rough Heston;
    * ``curvature``, the diagonal of the Hessian of E at ``start``, is w
      (and ||K||^2 for c) when Z = 1, and the z-Hessian diagonal otherwise.

    ``evaluate(p)`` returns (E, g, D, grad E, grad g, grad D): the energy,
    the target at u = 0 and D = sum w (rho_bar S)^2 (0 for a volatility
    target, which ignores u).  The gradients are one chain rule through vphi.
    """

    def __init__(self, model, target, component, grid, frozen=False, ray=False, tail=False):
        if not math.isfinite(target):
            raise DomainError(f"terminal target must be finite, got {target!r}")
        if ray and target == 0.0:
            raise DomainError("a ray target needs x != 0 to fix its direction")
        self.y0, self.drift, _, self.S = _family(model, frozen, tail)
        self.z_form = not (model.zeta_constant or frozen)
        if component == "y_psi" and self.z_form:
            # sum w v is not affine in the forcing z = zeta(vphi) v
            raise NotApplicable("a 'y_psi' target needs a constant zeta: freeze the coefficients")
        self.model, self.target, self.component, self.grid = model, target, component, grid
        self.frozen, self.ray, self.tail = frozen, ray, tail
        self.n = n = len(grid)
        self.w = grid.trapezoid_weights()
        self.rho, self.rho_bar = model.rho, model.rho_bar
        self.kernel = power_law(model.hurst)
        self.A = conv_weights(self.kernel, grid).dense_matrix()
        self.zeta0 = 1.0 if self.z_form else float(model.zeta(np.asarray(model.y0)))
        if tail:
            K_r = _reversion(model, self.kernel)[0]
            C = self.A if K_r is self.kernel else conv_weights(K_r, grid).dense_matrix()
            self.A = np.linalg.solve(np.eye(n) + model.kappa * C, self.A)
        self.section = not (self.z_form or tail or component == "y_psi")
        self.start = np.zeros(n + self.section)
        self.curvature = self.w
        if self.section:
            rcol = self.kernel.autocovariance(grid.nodes, grid.horizon)
            self.rcol = np.asarray(rcol, dtype=float)
            self.gsec = terminal_weights(self.kernel, grid)
            self.r_tt = l2_norm_sq(self.kernel, grid.horizon)
            self.curvature = np.append(self.w, self.r_tt)
        if self.z_form:
            if tail:
                # vphi = 0 at the zero forcing, where the z-energy is singular;
                # start from the forcing |x| instead, zero at t = 0 where
                # z = xi sqrt(vphi) v vanishes
                self.start[1:] = abs(target) or 1.0
            self.curvature = self._z_curvature(self.start)

    def _z_curvature(self, z):
        """Diagonal of the Hessian of sum w z^2 / (2 xi^2 vpos), vphi = y0 + A z."""
        vphi = self.y0 + self.A @ z
        vpos = np.maximum(vphi, _VOL_FLOOR)
        live = vphi > _VOL_FLOOR
        c = self.w / (self.model.xi**2 * vpos)
        cross = 2.0 * c * z * live / vpos * np.diag(self.A)
        return c - cross + (self.A**2).T @ (c * z**2 * live / vpos**2)

    def _state(self, p):
        """(vphi, v, E, wv, grad E at fixed vphi, dlnZ/dvphi or None).

        wv = w v + c gsec weighs v in the energy and in the price target; with
        Z = 1 the energy depends on p alone and dlnZ is None.
        """
        x = p[: self.n]
        vphi = self.A @ x
        if self.section:
            c = p[-1]
            vphi += c * self.rcol
            wv = self.w * x + c * self.gsec
            g_en = np.append(wv, float(np.dot(self.gsec, x)) + c * self.r_tt)
        vphi = self.y0 + self.zeta0 * vphi
        if not self.z_form:
            if not self.section:
                wv = g_en = self.w * x
            # E is quadratic in p, so E = p.grad E / 2
            return vphi, x, 0.5 * float(np.dot(p, g_en)), wv, g_en, None
        vpos = np.maximum(vphi, _VOL_FLOOR)
        Z = self.model.xi * np.sqrt(vpos)
        v = x / Z
        wv = self.w * v
        g_en = wv / Z
        dlnZ = (vphi > _VOL_FLOOR) / (2.0 * vpos)
        return vphi, v, 0.5 * float(np.dot(x, g_en)), wv, g_en, dlnZ

    def _price_vol(self, vphi):
        """(S, dS/dvphi) along vphi."""
        if self.z_form:  # S = Z / xi
            S = np.sqrt(np.maximum(vphi, _VOL_FLOOR))
            return S, (vphi > _VOL_FLOOR) / (2.0 * S)
        S = self.S(vphi)
        if self.frozen:
            return S, 0.0
        if self.tail:  # the signed vphi
            return S, 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return S, np.where(S > 1e-150, self.model.sigma_sq_prime(vphi) / (2.0 * S), 0.0)

    def evaluate(self, p):
        vphi, v, en, wv, g_en, dlnZ = self._state(p)
        # E moves with vphi only through Z: -w v^2 dlnZ
        back_en = None if dlnZ is None else -wv * v * dlnZ
        if self.component == "y_psi":  # unit-response integral of v (Z = 1)
            return en, float(np.sum(wv)), 0.0, g_en, self.w, np.zeros_like(p)
        if self.component == "y":
            g_tgt = np.append(self.A[-1], self.rcol[-1:] if self.section else [])
            if back_en is not None:
                g_en = g_en + self.zeta0 * (self.A.T @ back_en)
            return en, vphi[-1], 0.0, g_en, self.zeta0 * g_tgt, np.zeros_like(p)
        S, Sp = self._price_vol(vphi)
        wS = self.w * S
        wSSp = wS * Sp
        back = [-2.0 * self.drift * wSSp, 2.0 * self.rho_bar**2 * wSSp]
        if back_en is None:
            back[0] += self.rho * Sp * wv
            g_tgt = self.rho * wS
        else:  # rho S v = rho z / xi does not move with vphi, E does
            back.append(back_en)
            g_tgt = (self.rho / self.model.xi) * self.w
        back = np.stack(back, 1)
        grads = self.zeta0 * (self.A.T @ back).T
        g_tgt, g_D = g_tgt + grads[0], grads[1]
        if back_en is not None:
            g_en = g_en + grads[2]
        if self.section:  # c moves vphi along rcol and adds rho c K(T - .) S to the drive
            c_tgt, c_D = self.zeta0 * (self.rcol @ back)
            g_tgt = np.append(g_tgt, c_tgt + self.rho * float(np.dot(self.gsec, S)))
            g_D = np.append(g_D, c_D)
        wSS = float(np.dot(wS, S))
        g = self.rho * float(np.dot(S, wv)) - self.drift * wSS
        return en, g, self.rho_bar**2 * wSS, g_en, g_tgt, g_D

    def result(self, p, lam):
        """(energy, target, control, path) at p with the price control u = lam rho_bar S.

        A volatility target ignores u, so there u = 0.
        """
        vphi, v, en, _, _, _ = self._state(p)
        S = self._price_vol(vphi)[0]
        u = lam * self.rho_bar * S if self.component == "x" else np.zeros(self.n)
        drive = -self.drift * S**2 + S * (self.rho * v + self.rho_bar * u)
        phi = self.grid.cumulative_trapezoid(drive)
        secs = ()
        if self.section:
            T = self.grid.horizon
            secs = (KernelSection(self.kernel, T, p[-1], 0),)
            phi = phi + p[-1] * _section_integral(self.kernel, self.grid, T, self.rho * S)
        tgt = {"x": phi[-1], "y": vphi[-1]}.get(self.component, float(np.sum(self.w * v)))
        ctrl = Control(GridFunction(self.grid, np.stack([v, u], axis=1)), sections=secs)
        path = GridFunction(self.grid, np.stack([phi, vphi], axis=1))
        return en + 0.5 * float(np.sum(self.w * u**2)), tgt, ctrl, path


_START_LEVELS = (-2.0, -1.0, 0.0, 1.0, 2.0)
# a start whose D (see ``_reduced``) is below this is degenerate: the target
# hardly responds there (the Heston variance floor leaves D ~ 1e-12)
_MIN_D = 1e-10
_MAX_VIOLATION = 1e-4  # sanity bound: the reduced problem meets the target exactly


def ldp_rate_terminal(
    model: Model,
    x: float,
    component: str = "x",
    n_steps: int = 512,
    horizon: float = 1.0,
    frozen: bool = False,
    ray: bool = False,
) -> RateResult:
    """Minimal control energy with the terminal value pinned at ``x``.

    component 'x' constrains the log-price terminal value, 'y' the
    volatility terminal value, 'y_psi' the integrated normalized control
    (the frozen-coefficient reduction used by the MDP marginals; it needs a
    constant or frozen zeta, NotApplicable otherwise).  ``frozen``
    freezes the coefficient fields at y0, turning the problem into the MDP
    quadratic form.  ``ray`` (component 'x' only) relaxes the pin to the ray
    beyond ``x`` -- x' >= x for x > 0, x' <= x for x < 0 -- and returns
    inf_(x' on the ray) I(x') from one solve (the hinge of ``_reduced``);
    the attained x' is the terminal price value of ``optimal_path``.

    The target is met exactly (``_reduced``); L-BFGS (``_lbfgs``: ftol
    1e-13, gtol 1e-8) runs on the scaled volatility block from deterministic
    multi-starts at constant controls scaled by the target offset, each
    recorded in ``diagnostics["starts"]`` (level, energy, attained terminal
    value, violation, iterations, evaluations, D, lam = dI/dx, converged,
    stop -- why the run ended: 'gtol', 'ftol', 'maxiter', 'maxfun' or
    'line_search' -- grad_norm, skipped); a ray solve's violation is the
    one-sided distance to the ray.
    DomainError for a non-finite ``x`` (or x = 0 with ``ray``); SolverFailure
    when every start is degenerate or non-finite, or none converged.
    """
    if component not in ("x", "y", "y_psi"):
        raise ValueError("component must be 'x', 'y' or 'y_psi'")
    if ray and component != "x":
        raise ValueError("a ray target is defined for component 'x' only")
    obj = _Objective(model, x, component, TimeGrid(horizon, n_steps), frozen=frozen, ray=ray)
    return _run_reduced(obj, x - (obj.y0 if component == "y" else 0.0))


def tail_rate_terminal(
    model: Model,
    x: float,
    t_end: float = 1.0,
    n_steps: int = 256,
    ray: bool = False,
) -> RateResult:
    """Minimal energy with the tail-rescaled log price pinned at ``x`` at t_end.

    Same scheme as ``ldp_rate_terminal`` on the tail-rescaled systems
    (Stein-Stein and rough Heston), ``ray`` included; the zero forcing
    leaves them no volatility, so that start is skipped as degenerate.
    """
    obj = _Objective(model, x, "x", TimeGrid(t_end, n_steps), ray=ray, tail=True)
    return _run_reduced(obj, x)


def _target_plane(obj: _Objective, root: np.ndarray):
    """(beta, r) for a volatility target, None for a price target.

    A volatility target is affine in the volatility block: target(q) =
    target(0) + beta.q in the scaled variables q, and the constraint is
    beta.q = r.
    """
    if obj.component == "x":
        return None
    _, t0, _, _, g_tgt, _ = obj.evaluate(np.zeros(len(root)))
    return g_tgt / root, obj.target - t0


def _reduced(q, obj: _Objective, root: np.ndarray, plane):
    """Energy on the target set as a function of the scaled volatility block q.

    Returns (energy, gradient in q, parameters p, lam, D); lam = dI/dx is the
    constraint's shadow price.  Price target: the drive is drive0 + s u and u
    costs (1/2) sum w u^2, so the target is met by u = lam s with
    lam = (x - g) / D, and the energy is E + lam^2 D / 2 =
    E + (x - g)^2 / (2 D), with gradient grad E - lam grad g - lam^2 grad D / 2;
    one ``evaluate`` per call.  A ray target (x' >= x for x > 0, mirrored for
    x < 0) is the hinge lam = max(x - g, 0) / D (min for x < 0): the cheapest
    x' on the ray for this volatility block, reached at g + lam D.  lam is
    continuous in q, so the same energy and gradient stay C^1.  Volatility
    target: u = 0 and q is projected onto beta.q = r, with D = beta.beta.
    """
    if plane is None:
        p = q / root
        en, g, D, g_en, g_tgt, g_D = obj.evaluate(p)
        lam = (obj.target - g) / D if D > 0.0 else 0.0
        if obj.ray and lam * obj.target < 0.0:
            lam = 0.0
        grad = g_en - lam * g_tgt - 0.5 * lam**2 * g_D
        return en + 0.5 * lam**2 * D, grad / root, p, lam, D
    beta, r = plane
    D = float(beta @ beta)
    p = (q - beta * ((beta @ q - r) / D)) / root
    en, _, _, g_en, _, _ = obj.evaluate(p)
    g_q = g_en / root
    lam = float(beta @ g_q) / D
    return en, g_q - lam * beta, p, lam, D


# L-BFGS with the constants L-BFGS-B applies to an unbounded problem
_MEMORY = 10
_GTOL, _FTOL = 1e-8, 1e-13
_MAX_ITER, _MAX_FUN = 3000, 15000
# Moré-Thuente line search: sufficient decrease, curvature, interval width
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_STPMAX, _LS_MAX_FUN = 1e10, 20
_CONVERGED = ("gtol", "ftol")


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's dcstep: a safeguarded step and the updated interval.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the interval's
    other end and (stp, fp, dp) the trial, each with the value and the
    directional derivative there.  Returns (stx, fx, dx, sty, fy, dy, stp,
    brackt).  IEEE arithmetic as in the Fortran: a degenerate cubic gives
    inf or NaN, never an exception.
    """
    stx, fx, dx, sty, fy, dy, stp, fp, dp = np.float64(
        [stx, fx, dx, sty, fy, dy, stp, fp, dp]
    )
    opposite = (dp < 0.0 < dx) or (dx < 0.0 < dp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if fp > fx:  # higher value: the minimum is bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp < stx:
                gamma = -gamma
            r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
            stpc = stx + r * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
            brackt = True
        elif opposite:  # the derivative changes sign: bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp > stx:
                gamma = -gamma
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
            stpc = stp + r * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):  # lower value, same sign, smaller slope
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * np.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
            if stp > stx:
                gamma = -gamma
            r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
            if r < 0.0 and gamma != 0.0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                edge = stp + 0.66 * (sty - stp)
                stpf = min(edge, stpf) if stp > stx else max(edge, stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = max(stpmin, min(stpmax, stpf))
        elif brackt:  # lower value, same sign, no smaller slope
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
            stpf = stp + r * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _search(phi, f0, g0, stp):
    """Moré-Thuente line search (MINPACK-2's dcsrch) from step ``stp``.

    phi(a) returns the value and the directional derivative at step a; f0
    and g0 < 0 are those at 0.  A step is accepted on convergence (the
    strong Wolfe conditions with ftol 1e-3 and gtol 0.9) or on one of
    dcsrch's warnings (rounding errors, interval below xtol, a bound
    reached), as L-BFGS-B accepts it; the accepted step is always the last
    one evaluated.  A trial with a non-finite value or derivative is never
    accepted: the step is bisected back toward the best step so far.
    Returns (step, evaluations), step None when 20 evaluations do not
    settle it.
    """
    stpmin, stpmax = 0.0, _STPMAX
    brackt, stage = False, 1
    gtest = _LS_FTOL * g0
    width = stpmax - stpmin
    width1 = width / 0.5
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for nfev in range(1, _LS_MAX_FUN + 1):
        f, g = phi(stp)
        if not (math.isfinite(f) and math.isfinite(g)):
            back = stx + 0.5 * (stp - stx)
            if not math.isfinite(back) or back in (stx, stp):
                return None, nfev
            stp = back
            continue
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2
        if (
            (f <= ftest and abs(g) <= _LS_GTOL * -g0)
            or (brackt and (stp <= stmin or stp >= stmax))
            or (brackt and stmax - stmin <= _LS_XTOL * stmax)
            or (stp == stpmax and f <= ftest and g <= gtest)
            or (stp == stpmin and (f > ftest or g >= gtest))
        ):
            return stp, nfev
        if stage == 1 and fx >= f > ftest:
            # dcstep on the modified function f - f0 - stp gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx, fy = fxm + stx * gtest, fym + sty * gtest
            gx, gy = gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:  # too slow a shrink: bisect
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, stpmin), stpmax)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx  # no progress is possible: end on the best step
    return None, _LS_MAX_FUN


def _lbfgs(fun, x):
    """Minimize fun, x -> (value, gradient), from x by L-BFGS.

    The constants are those L-BFGS-B uses on an unbounded problem: the last
    10 curvature pairs with H0 = (s.y / y.y) I in the two-loop recursion
    (Liu and Nocedal, 1989), a first step min(1/||g||, 1e10) and unit steps
    after it, and the Moré-Thuente line search (``_search``).  A pair with
    s.y <= eps (-g.d stp) is skipped.  A failed line search drops the memory
    and retries once from steepest descent; with the memory already empty
    the run ends.  Returns (x, iterations, evaluations, stop), stop the
    reason the run ended: 'gtol' (max |g| <= 1e-8), 'ftol' (the value fell
    by at most 1e-13 max(|f_old|, |f|, 1) in a step), 'maxiter' (3000
    iterations), 'maxfun' (15000 evaluations) or 'line_search'; the first
    two count as converged.  x is always a point where fun was finite,
    unless it was not finite at the start.
    """
    f, g = fun(x)
    nit, nfev = 0, 1
    mem = []  # (s, y, s.y), oldest first
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        return x, nit, nfev, "line_search"
    stop = "gtol" if np.max(np.abs(g)) <= _GTOL else None
    while stop is None:
        d = -g  # d = -H g by the two-loop recursion
        alphas = []
        for s, y, sy in reversed(mem):
            alphas.append(float(s @ d) / sy)
            d -= alphas[-1] * y
        if mem:
            s, y, sy = mem[-1]
            d *= sy / float(y @ y)
        for (s, y, sy), a in zip(mem, reversed(alphas)):
            d += (a - float(y @ d) / sy) * s
        gd = float(g @ d)
        trial = {}

        def phi(a):
            xa = x + a * d
            fa, ga = fun(xa)
            trial.update(x=xa, f=fa, g=ga)
            return fa, float(ga @ d)

        first = min(1.0 / np.linalg.norm(d), _STPMAX) if nit == 0 else 1.0
        stp, used = _search(phi, f, gd, first) if gd < 0.0 else (None, 0)
        nfev += used
        if stp is None:
            if not mem:
                stop = "line_search"
                break
            mem.clear()
            continue
        nit += 1
        f_old, g_old = f, g
        x, f, g = trial["x"], trial["f"], trial["g"]
        if np.max(np.abs(g)) <= _GTOL:
            stop = "gtol"
        elif f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            stop = "ftol"
        elif nit >= _MAX_ITER:
            stop = "maxiter"
        elif nfev >= _MAX_FUN:
            stop = "maxfun"
        sy = (float(g @ d) - gd) * stp
        if sy > np.finfo(float).eps * (-gd * stp):
            mem = mem[1 - _MEMORY:] + [(stp * d, g - g_old, sy)]
    return x, nit, nfev, stop


def _run_reduced(obj: _Objective, offset: float) -> RateResult:
    root = np.sqrt(obj.curvature)
    plane = _target_plane(obj, root)
    starts, best = [], None
    for level in _START_LEVELS:
        q = np.full(len(root), level * (offset or 1.0)) * root
        if obj.section:  # section coefficient starts at zero
            q[-1] = 0.0
        entry = {"level": level, "energy": None, "attained": None, "violation": None,
                 "iterations": 0, "evaluations": 0, "D": None, "lam": None,
                 "converged": False, "stop": None, "grad_norm": None, "skipped": None}
        starts.append(entry)
        D = _reduced(q, obj, root, plane)[4]
        if not D >= _MIN_D:
            entry.update(D=float(D), skipped=f"D = {D:.3e} below {_MIN_D:.0e}")
            continue
        q, nit, nfev, stop = _lbfgs(lambda s: _reduced(s, obj, root, plane)[:2], q)
        _, grad, p, lam, D = _reduced(q, obj, root, plane)
        en, tgt, ctrl, path = obj.result(p, lam)
        miss = tgt - obj.target
        if obj.ray:  # only falling short of the ray counts
            miss = max(-miss if obj.target > 0.0 else miss, 0.0)
        entry.update(
            energy=float(en),
            attained=float(tgt),
            violation=float(abs(miss)),
            iterations=nit,
            evaluations=nfev,
            D=float(D),
            lam=float(lam),
            converged=stop in _CONVERGED,
            stop=stop,
            grad_norm=float(np.max(np.abs(grad))),
        )
        if math.isfinite(en) and (best is None or en < best[0]["energy"]):
            best = (entry, ctrl, path)
    if best is None:
        raise SolverFailure("every start is degenerate or non-finite")
    entry, ctrl, path = best
    if not any(s["converged"] for s in starts):
        raise SolverFailure("no start converged", best_value=entry["energy"])
    if entry["violation"] > _MAX_VIOLATION:
        raise SolverFailure(
            f"terminal constraint violated by {entry['violation']:.3e}",
            best_value=entry["energy"],
        )
    return RateResult(
        value=entry["energy"],
        optimal_control=ctrl,
        optimal_path=path,
        iterations=sum(s["iterations"] for s in starts),
        constraint_violation=entry["violation"],
        diagnostics={"starts": starts, "converged": entry["converged"]},
    )
