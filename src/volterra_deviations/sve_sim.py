"""Simulation of the rescaled rough-volatility systems.

Gaussian Volterra components (Stein-Stein and Bergomi volatility drivers,
multifactor Z factors) are sampled exactly: per driving factor the joint
Gaussian vector (dW_1..dW_n, Z_(t_1)..Z_(t_n)) is drawn through a Cholesky
factor of its exact covariance, whose blocks come from closed-form kernel
moments.  Non-Gaussian components (Heston volatility, every log-price
component) use left-point Euler with exact kernel-moment weights, so the
singular kernel is never sampled at lag zero.

Controlled simulation feeds the same pipeline with shifted Gaussian inputs
and attaches the Girsanov log-density evaluated on the unshifted draws; the
shift and the density use one and the same discrete pairing, which makes the
importance-sampling identity exact at any grid size, not just in the limit.

Randomness comes from counter-based per-path Philox streams keyed by
(seed, path index), with normals via inverse CDF: ensembles are bit-identical
for a given seed regardless of chunking or worker threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import FactorizationFailure, InvalidModel
from .frac_calculus import Control
from .kernels import KernelSpec, TimeGrid, power_law

__all__ = [
    "RoughSteinStein",
    "RoughBergomi",
    "RoughHeston",
    "MultiRoughBergomi",
    "ScalingRegime",
    "PathEnsemble",
    "simulate",
    "simulate_controlled",
    "heston_step_policy",
    "default_threads",
]

_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# scaling regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRegime:
    """One of small_time_ldp / small_time_mdp / tail_ldp / tail_mdp.

    ``eps`` is the small parameter of the rescaled system; ``beta`` the MDP
    interpolation exponent (in (0, H) for small time, (0, 1) for tails).
    """

    kind: str
    eps: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("small_time_ldp", "small_time_mdp", "tail_ldp", "tail_mdp"):
            raise ValueError(f"unknown regime {self.kind!r}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.kind.endswith("mdp"):
            if self.beta is None or not self.beta > 0.0:
                raise ValueError("MDP regimes need beta > 0")

    @property
    def is_mdp(self) -> bool:
        return self.kind.endswith("mdp")

    @property
    def is_tail(self) -> bool:
        return self.kind.startswith("tail")

    def h_eps(self) -> float:
        return self.eps ** (-self.beta) if self.is_mdp else 1.0

    def speed(self, hurst: float) -> float:
        """s(eps): the reciprocal LDP speed used in slope extrapolation."""
        if self.kind == "small_time_ldp":
            return self.eps ** (2.0 * hurst)
        if self.kind == "tail_ldp":
            return self.eps**2
        return self.eps ** (2.0 * self.beta)


def small_time_ldp(eps: float) -> ScalingRegime:
    return ScalingRegime("small_time_ldp", eps)


def small_time_mdp(eps: float, beta: float) -> ScalingRegime:
    return ScalingRegime("small_time_mdp", eps, beta)


def tail_ldp(eps: float) -> ScalingRegime:
    return ScalingRegime("tail_ldp", eps)


def tail_mdp(eps: float, beta: float) -> ScalingRegime:
    return ScalingRegime("tail_mdp", eps, beta)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ModelBase:
    def validate_regime(self, regime: ScalingRegime):
        if regime.kind == "small_time_mdp" and regime.beta >= self.min_hurst:
            raise InvalidModel("small-time MDP needs beta in (0, H)")
        if regime.kind == "tail_mdp" and regime.beta >= 1.0:
            raise InvalidModel("tail MDP needs beta in (0, 1)")

    @property
    def min_hurst(self) -> float:
        return self.hurst


def _check_common(hurst: float, rho: float, *params: float):
    if not 0.0 < hurst <= 0.5:
        raise InvalidModel("hurst must lie in (0, 1/2]")
    if not -1.0 < rho < 1.0:
        raise InvalidModel("|rho| must be < 1")
    if not all(math.isfinite(x) for x in params):
        raise InvalidModel("model parameters must be finite")


@dataclass(frozen=True)
class RoughSteinStein(_ModelBase):
    """Sigma(y) = y^2, zeta = xi, drift kappa (theta - y) with flat kernel."""

    kappa: float
    theta: float
    xi: float
    rho: float
    y0: float
    hurst: float

    def __post_init__(self):
        _check_common(self.hurst, self.rho, self.kappa, self.theta, self.xi, self.y0)
        if self.xi < 0.0 or self.kappa < 0.0:
            raise InvalidModel("xi and kappa must be nonnegative")
        if self.y0 <= 0.0:
            raise InvalidModel("Stein-Stein needs y0 > 0")

    def sigma_sq(self, y):
        return np.asarray(y) ** 2

    def zeta(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.xi)

    zeta_constant = True


@dataclass(frozen=True)
class RoughBergomi(_ModelBase):
    """Y = log V; Sigma(y) = exp(y), zeta = 1, deterministic drift -a t^(2H)."""

    a: float
    rho: float
    y0: float
    hurst: float

    def __post_init__(self):
        _check_common(self.hurst, self.rho, self.a, self.y0)

    def sigma_sq(self, y):
        return np.exp(np.asarray(y, dtype=float))

    def zeta(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    zeta_constant = True


@dataclass(frozen=True)
class RoughHeston(_ModelBase):
    """Sigma(y) = y, zeta(y) = xi sqrt(y), drift kappa (theta - y) * K.

    Pathwise uniqueness of the variance SVE with a square-root coefficient is
    an open problem for H < 1/2 (only the smooth H = 1/2 case is settled);
    the simulator and rate formulas assume the configured coefficients admit
    a pathwise-unique solution and do not attempt to certify it.
    """

    kappa: float
    theta: float
    xi: float
    rho: float
    y0: float
    hurst: float

    def __post_init__(self):
        _check_common(self.hurst, self.rho, self.kappa, self.theta, self.xi, self.y0)
        if self.kappa <= 0.0 or self.theta < 0.0:
            raise InvalidModel("rough Heston needs kappa > 0 and theta >= 0")
        if self.xi <= 0.0:
            raise InvalidModel("xi must be positive")
        if self.y0 <= 0.0:
            raise InvalidModel("rough Heston needs y0 > 0")

    def sigma_sq(self, y):
        return np.asarray(y, dtype=float)

    def zeta(self, y):
        return self.xi * np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0))

    zeta_constant = False


@dataclass(frozen=True)
class MultiRoughBergomi(_ModelBase):
    """m-factor log-volatility Y = y0 + L Z - a t^(2 H_1).

    ``loadings`` is lower triangular; ``hurst`` entries are sorted ascending
    and sum(rho_j^2) < 1.
    """

    loadings: tuple
    a: tuple
    y0: tuple
    rho: tuple
    hurst: tuple

    def __post_init__(self):
        for name in ("loadings", "a", "y0", "rho", "hurst"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise InvalidModel(f"{name} must be finite")
        L = np.asarray(self.loadings, dtype=float)
        m = L.shape[0]
        if L.shape != (m, m):
            raise InvalidModel("loadings must be square")
        if np.any(np.triu(L, 1) != 0.0):
            raise InvalidModel("loadings must be lower triangular")
        H = np.asarray(self.hurst, dtype=float)
        if np.any(H <= 0.0) or np.any(H > 0.5):
            raise InvalidModel("hurst entries must lie in (0, 1/2]")
        if np.any(np.diff(H) < 0.0):
            raise InvalidModel("hurst entries must be sorted ascending")
        rho = np.asarray(self.rho, dtype=float)
        if np.sum(rho**2) >= 1.0:
            raise InvalidModel("sum of rho_j^2 must be < 1")
        for name in ("a", "y0", "rho", "hurst"):
            if len(getattr(self, name)) != m:
                raise InvalidModel(f"{name} must have one entry per factor")

    @property
    def n_factors(self) -> int:
        return len(self.hurst)

    @property
    def min_hurst(self) -> float:
        return float(self.hurst[0])

    @property
    def m_star(self) -> int:
        """Number of factors sharing the smallest Hurst index."""
        H = np.asarray(self.hurst, dtype=float)
        return int(np.sum(np.isclose(H, H[0])))

    @property
    def rho_bar(self) -> float:
        return math.sqrt(1.0 - float(np.sum(np.asarray(self.rho) ** 2)))


Model = RoughSteinStein | RoughBergomi | RoughHeston | MultiRoughBergomi


# ---------------------------------------------------------------------------
# path ensembles
# ---------------------------------------------------------------------------


@dataclass
class PathEnsemble:
    """Simulated paths (n_paths, n_nodes, d) with optional Girsanov weights."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    log_weights: np.ndarray | None = None
    model: Model | None = None
    regime: ScalingRegime | None = None

    def component(self, j: int) -> np.ndarray:
        return self.paths[:, :, j]

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def weights(self) -> np.ndarray:
        if self.log_weights is None:
            return np.ones(self.n_paths)
        return np.exp(self.log_weights)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def _normal_block(seed: int, path_indices: np.ndarray, count: int) -> np.ndarray:
    """Inverse-CDF normals, one independent Philox stream per path."""
    out = np.empty((len(path_indices), count))
    for row, pid in enumerate(path_indices):
        bg = np.random.Philox(key=[int(seed) & 0xFFFFFFFFFFFFFFFF, int(pid)])
        u = np.random.Generator(bg).random(count)
        out[row] = ndtri(u)
    return out


def default_threads() -> int:
    import os

    env = os.environ.get("VD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Gaussian factor machinery
# ---------------------------------------------------------------------------

_factor_cache: dict = {}


class GaussianFactor:
    """Joint law of (dW cells, Z nodes) for one Volterra factor."""

    def __init__(self, kernel: KernelSpec, grid: TimeGrid):
        self.kernel = kernel
        self.grid = grid
        n = grid.n_steps
        h = grid.dt
        t = grid.nodes[1:]
        C = np.zeros((2 * n, 2 * n))
        C[:n, :n] = h * np.eye(n)
        m0 = kernel.moment0(np.concatenate([[0.0], t]))
        # cross block Cov(Z_i, dW_j) = C0(t_i - t_(j-1)) - C0(t_i - t_j)
        ti = t[:, None]
        tj = t[None, :]
        cross = np.where(
            ti >= tj,
            np.asarray(kernel.moment0(np.maximum(ti - tj + h, 0.0)))
            - np.asarray(kernel.moment0(np.maximum(ti - tj, 0.0))),
            0.0,
        )
        C[n:, :n] = cross
        C[:n, n:] = cross.T
        C[n:, n:] = kernel.autocovariance(ti, tj)
        self.cov = C
        self.cross = cross
        try:
            self.chol = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            bump = 1e-12 * np.trace(C) / (2 * n)
            try:
                self.chol = np.linalg.cholesky(C + bump * np.eye(2 * n))
            except np.linalg.LinAlgError as exc:
                raise FactorizationFailure(
                    "joint kernel covariance is not numerically PSD"
                ) from exc

    def terminal_moments(self, t_end: float) -> np.ndarray:
        """Cell integrals of K(t_end - .) over each increment cell."""
        h = self.grid.dt
        edges = np.arange(self.grid.n_steps + 1) * h
        c0 = np.asarray(self.kernel.moment0(np.maximum(t_end - edges, 0.0)))
        return c0[:-1] - c0[1:]

    def z_column(self, t_end: float) -> np.ndarray:
        """Cov(Z_(t_i), Z_(t_end)) at interior nodes t_1..t_n."""
        t = self.grid.nodes[1:]
        return np.asarray(self.kernel.autocovariance(t, t_end), dtype=float)

    def sample(self, normals: np.ndarray):
        """normals (paths, 2n) -> (dW (paths, n), Z (paths, n+1))."""
        G = normals @ self.chol.T
        n = self.grid.n_steps
        dW = G[:, :n]
        Z = np.concatenate([np.zeros((G.shape[0], 1)), G[:, n:]], axis=1)
        return dW, Z


def _factor(kernel: KernelSpec, grid: TimeGrid) -> GaussianFactor:
    key = (
        kernel.variant,
        kernel.c,
        kernel.hurst,
        kernel.exponent,
        kernel.decay,
        grid.horizon,
        grid.n_steps,
    )
    f = _factor_cache.get(key)
    if f is None:
        f = GaussianFactor(kernel, grid)
        _factor_cache[key] = f
    return f


# ---------------------------------------------------------------------------
# control shifts
# ---------------------------------------------------------------------------


@dataclass
class _ShiftPlan:
    """Exact Gaussian tilt data for one driving factor.

    dw_shift   per-cell shift of the Brownian increments
    z_shift    node shift of the Volterra integral Z
    pair_pl    left-node control values paired with dW in the density
    pair_secs  kernel sections paired with the Z draw at their end time
    quad       u' C u term of the density
    """

    dw_shift: np.ndarray
    z_shift: np.ndarray
    pair_pl: np.ndarray
    pair_secs: list
    quad: float


def _plan_factor_shift(
    factor: GaussianFactor, v_nodes: np.ndarray, sections, s_mult: float
) -> _ShiftPlan:
    grid = factor.grid
    n = grid.n_steps
    h = grid.dt
    v_left = v_nodes[:-1]
    dw = s_mult * v_left * h
    z = s_mult * (factor.cross @ v_left)
    quad = float(np.sum(v_left**2) * h)
    pair_secs = []
    for sec in sections:
        mom = factor.terminal_moments(sec.t_end)
        dw = dw + s_mult * sec.coeff * mom
        z = z + s_mult * sec.coeff * factor.z_column(sec.t_end)
        quad += 2.0 * sec.coeff * float(np.dot(v_left, mom))
        quad += sec.coeff**2 * float(factor.kernel.autocovariance(sec.t_end, sec.t_end))
        pair_secs.append(sec)
    for i, s1 in enumerate(sections):
        for s2 in sections[i + 1 :]:
            quad += 2.0 * s1.coeff * s2.coeff * float(
                factor.kernel.autocovariance(s1.t_end, s2.t_end)
            )
    z_full = np.concatenate([[0.0], z])
    return _ShiftPlan(dw, z_full, v_left, pair_secs, quad * s_mult**2)


def _log_weight_factor(
    plan: _ShiftPlan, factor: GaussianFactor, dW0: np.ndarray, Z0: np.ndarray, s_mult: float
) -> np.ndarray:
    """-s int v dW - s^2/2 ||v||^2 on the unshifted draws."""
    lw = -s_mult * (dW0 @ plan.pair_pl)
    for sec in plan.pair_secs:
        lw = lw - s_mult * sec.coeff * Z0[:, factor.grid.node_index(sec.t_end)]
    return lw - 0.5 * plan.quad


def _euler_shift(v_nodes: np.ndarray, h: float, s_mult: float):
    v_left = v_nodes[:-1]
    return s_mult * v_left * h, v_left, s_mult**2 * float(np.sum(v_left**2) * h)


# ---------------------------------------------------------------------------
# public simulation API
# ---------------------------------------------------------------------------


def heston_step_policy(y_prev: float, increment: float) -> float:
    """Full-truncation update of the Heston variance state.

    The increment is built with sqrt(max(y, 0)) and max(y, 0) wherever the
    variance enters a coefficient, so the square root never sees a negative
    value; the state itself may go transiently negative.
    """
    return y_prev + increment


def simulate(
    model: Model,
    regime: ScalingRegime,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int | None = None,
) -> PathEnsemble:
    """Plain simulation of the rescaled system under the given regime."""
    return _simulate_impl(model, regime, grid, n_paths, seed, None, threads)


def simulate_controlled(
    model: Model,
    regime: ScalingRegime,
    control: Control,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int | None = None,
) -> PathEnsemble:
    """Girsanov-shifted simulation with per-path log importance weights.

    The control channels follow the driving-noise layout (v on the volatility
    factor(s) first, u on the orthogonal price noise last); the regime
    determines the shift strength (theta_eps^-1 for LDP, h_eps for MDP).
    """
    if control is None:
        raise ValueError("use simulate() for uncontrolled runs")
    if control.grid != grid:
        raise InvalidModel(f"control lives on {control.grid}, simulation on {grid}")
    return _simulate_impl(model, regime, grid, n_paths, seed, control, threads)


def _shift_multiplier(model: Model, regime: ScalingRegime) -> float:
    if regime.is_mdp:
        return regime.h_eps()
    return 1.0 / _theta_eps(model, regime)


def _theta_eps(model: Model, regime: ScalingRegime) -> float:
    if regime.is_tail:
        return regime.eps
    return regime.eps**model.min_hurst


def _simulate_impl(model, regime, grid, n_paths, seed, control, threads):
    model.validate_regime(regime)
    if isinstance(model, RoughBergomi) and regime.is_tail:
        raise InvalidModel("tail rescaling is not defined for rough Bergomi")
    n_threads = threads if threads is not None else default_threads()
    chunks = [
        np.arange(lo, min(lo + _CHUNK, n_paths))
        for lo in range(0, n_paths, _CHUNK)
    ]
    d = 2 if not isinstance(model, MultiRoughBergomi) else 1 + model.n_factors
    paths = np.empty((n_paths, len(grid), d))
    logw = np.zeros(n_paths) if control is not None else None

    def run_chunk(idx: np.ndarray):
        p, lw = _simulate_chunk(model, regime, grid, idx, seed, control)
        paths[idx[0] : idx[-1] + 1] = p
        if logw is not None:
            logw[idx[0] : idx[-1] + 1] = lw

    if n_threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        for c in chunks:
            run_chunk(c)
    return PathEnsemble(
        grid=grid, paths=paths, seed=seed, log_weights=logw, model=model, regime=regime
    )


def _control_channels(control: Control | None, grid: TimeGrid, n_vol: int):
    """Split a control into volatility channels and the orthogonal channel."""
    if control is None:
        return None, None
    vals = control.values.values
    if vals.ndim == 1:
        vals = vals[:, None]
    n_ch = vals.shape[1]
    if n_ch == n_vol:  # no orthogonal channel supplied
        u = np.zeros(len(grid))
    elif n_ch == n_vol + 1:
        u = vals[:, n_vol]
    else:
        raise InvalidModel(
            f"control carries {n_ch} channels, model drives {n_vol} (+1 orthogonal)"
        )
    return [vals[:, j] for j in range(n_vol)], u


def _simulate_chunk(model, regime, grid, idx, seed, control):
    n = grid.n_steps
    h = grid.dt
    eps = regime.eps
    theta = _theta_eps(model, regime)
    s_mult = _shift_multiplier(model, regime) if control is not None else 0.0

    if isinstance(model, MultiRoughBergomi):
        return _chunk_multifactor(model, regime, grid, idx, seed, control, s_mult)

    H = model.hurst
    kernel = power_law(H)
    lw = np.zeros(len(idx))

    if isinstance(model, RoughHeston):
        draws = _normal_block(seed, idx, 2 * n)
        dW = draws[:, :n] * math.sqrt(h)
        dWp = draws[:, n:] * math.sqrt(h)
        v_chans, u_nodes = _control_channels(control, grid, 1)
        if control is not None:
            if control.sections:
                raise InvalidModel("kernel-section controls need a Gaussian-exact component")
            dshift, vpair, quad = _euler_shift(v_chans[0], h, s_mult)
            lw = -s_mult * (dW @ vpair) - 0.5 * quad
            dW = dW + dshift
            ushift, upair, uquad = _euler_shift(u_nodes, h, s_mult)
            lw = lw - s_mult * (dWp @ upair) - 0.5 * uquad
            dWp = dWp + ushift
        Y = _heston_volatility(model, regime, grid, dW)
        X = _log_price(model, regime, grid, Y, dW, dWp)
        out = np.stack([X, Y], axis=2)
        out = _to_mdp_frame(out, model, regime, grid)
        return out, lw

    # Gaussian-volatility models: exact joint factor + orthogonal increments
    factor = _factor(kernel, grid)
    draws = _normal_block(seed, idx, 3 * n)
    dW, Z = factor.sample(draws[:, : 2 * n])
    dWp = draws[:, 2 * n :] * math.sqrt(h)
    v_chans, u_nodes = _control_channels(control, grid, 1)
    if control is not None:
        plan = _plan_factor_shift(factor, v_chans[0], list(control.sections), s_mult)
        lw = _log_weight_factor(plan, factor, dW, Z, s_mult)
        dW = dW + plan.dw_shift
        Z = Z + plan.z_shift
        ushift, upair, uquad = _euler_shift(u_nodes, h, s_mult)
        lw = lw - s_mult * (dWp @ upair) - 0.5 * uquad
        dWp = dWp + ushift

    if isinstance(model, RoughBergomi):
        t = grid.nodes
        Y = model.y0 - model.a * (eps * t[None, :]) ** (2 * H) + theta * Z
    else:  # Stein-Stein
        Y = _stein_stein_volatility(model, regime, grid, Z, theta)
    X = _log_price(model, regime, grid, Y, dW, dWp)
    out = np.stack([X, Y], axis=2)
    out = _to_mdp_frame(out, model, regime, grid)
    return out, lw


def _stein_stein_volatility(model, regime, grid, Z, theta):
    """Left-point Euler for the flat-kernel mean reversion plus exact noise."""
    n = grid.n_steps
    h = grid.dt
    npaths = Z.shape[0]
    Y = np.empty((npaths, n + 1))
    if regime.is_tail:
        y_start = regime.eps * model.y0
        drift_target = regime.eps * model.theta
        drift_rate = model.kappa
        noise = regime.eps * model.xi
    else:
        y_start = model.y0
        drift_target = model.theta
        drift_rate = regime.eps * model.kappa
        noise = theta * model.xi
    Y[:, 0] = y_start
    acc = np.zeros(npaths)
    for i in range(1, n + 1):
        acc = acc + drift_rate * (drift_target - Y[:, i - 1]) * h
        Y[:, i] = y_start + acc + noise * Z[:, i]
    return Y


def _heston_volatility(model, regime, grid, dW):
    """Volterra-Euler with exact kernel moments and full truncation."""
    n = grid.n_steps
    h = grid.dt
    kernel = power_law(model.hurst)
    edges = np.arange(n + 1, dtype=float) * h
    c0 = np.asarray(kernel.moment0(edges))
    mom = c0[1:] - c0[:-1]  # mom[m-1] = integral of K over [(m-1)h, mh]
    wdW = mom / h
    if regime.is_tail:
        y_start = regime.eps**2 * model.y0
        theta_lvl = regime.eps**2 * model.theta
        drift_amp = model.kappa
        noise_amp = regime.eps * model.xi
    else:
        eps = regime.eps
        y_start = model.y0
        theta_lvl = model.theta
        drift_amp = eps ** (model.hurst + 0.5) * model.kappa
        noise_amp = eps**model.hurst * model.xi
    npaths = dW.shape[0]
    Y = np.empty((npaths, n + 1))
    Y[:, 0] = y_start
    drift_vals = np.empty((npaths, n))
    noise_vals = np.empty((npaths, n))
    for i in range(1, n + 1):
        j = i - 1
        ypos = np.maximum(Y[:, j], 0.0)
        drift_vals[:, j] = drift_amp * (theta_lvl - ypos)
        noise_vals[:, j] = noise_amp * np.sqrt(ypos) * dW[:, j]
        increment = drift_vals[:, :i] @ mom[:i][::-1] + noise_vals[:, :i] @ wdW[:i][::-1]
        Y[:, i] = heston_step_policy(y_start, increment)
    return Y


def _log_price(model, regime, grid, Y, dW, dWp):
    """Left-point Euler for the log price; exact discrete martingale for e^X."""
    n = grid.n_steps
    h = grid.dt
    rho = model.rho
    rho_bar = math.sqrt(1.0 - rho**2)
    if regime.is_tail:
        drift_amp = 1.0
        noise_amp = regime.eps
    else:
        eps = regime.eps
        H = model.hurst
        drift_amp = eps ** (H + 0.5)
        noise_amp = eps**H
    if isinstance(model, RoughHeston):
        sig_sq = np.maximum(Y, 0.0)
    else:
        sig_sq = model.sigma_sq(Y)
    sig = np.sqrt(sig_sq)
    dB = rho * dW + rho_bar * dWp
    incr = -0.5 * drift_amp * sig_sq[:, :-1] * h + noise_amp * sig[:, :-1] * dB
    X = np.concatenate(
        [np.zeros((Y.shape[0], 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return X


def _chunk_multifactor(model, regime, grid, idx, seed, control, s_mult):
    if regime.is_tail:
        raise InvalidModel("tail rescaling is not defined for multifactor rough Bergomi")
    n = grid.n_steps
    h = grid.dt
    m = model.n_factors
    eps = regime.eps
    H1 = model.min_hurst
    draws = _normal_block(seed, idx, (2 * m + 1) * n)
    lw = np.zeros(len(idx))
    v_chans, u_nodes = _control_channels(control, grid, m)
    Zs = []
    dWs = []
    for j in range(m):
        factor = _factor(power_law(float(model.hurst[j])), grid)
        block = draws[:, 2 * j * n : 2 * (j + 1) * n]
        dW, Z = factor.sample(block)
        if control is not None:
            secs = [s for s in control.sections if s.channel == j]
            plan = _plan_factor_shift(factor, v_chans[j], secs, s_mult)
            lw = lw + _log_weight_factor(plan, factor, dW, Z, s_mult)
            dW = dW + plan.dw_shift
            Z = Z + plan.z_shift
        dWs.append(dW)
        Zs.append(Z)
    dWp = draws[:, 2 * m * n :] * math.sqrt(h)
    if control is not None:
        ushift, upair, uquad = _euler_shift(u_nodes, h, s_mult)
        lw = lw - s_mult * (dWp @ upair) - 0.5 * uquad
        dWp = dWp + ushift
    t = grid.nodes
    L = np.asarray(model.loadings, dtype=float)
    Y = np.empty((len(idx), n + 1, m))
    for i in range(m):
        acc = np.zeros((len(idx), n + 1))
        for j in range(m):
            scale = eps ** (float(model.hurst[j]) - H1)
            acc += scale * L[i, j] * Zs[j]
        Y[:, :, i] = (
            model.y0[i] - model.a[i] * (eps * t[None, :]) ** (2 * H1) + eps**H1 * acc
        )
    # exp-sum price component
    drift_amp = eps ** (H1 + 0.5)
    noise_amp = eps**H1
    rho = np.asarray(model.rho, dtype=float)
    rho_bar = model.rho_bar
    sig_sq = np.sum(np.exp(Y), axis=2)
    sig = np.sum(np.exp(0.5 * Y), axis=2)
    dB = rho_bar * dWp
    for j in range(m):
        dB = dB + rho[j] * dWs[j]
    incr = -0.5 * drift_amp * sig_sq[:, :-1] * h + noise_amp * sig[:, :-1] * dB
    X = np.concatenate([np.zeros((len(idx), 1)), np.cumsum(incr, axis=1)], axis=1)
    out = np.concatenate([X[:, :, None], Y], axis=2)
    out = _to_mdp_frame(out, model, regime, grid)
    return out, lw


def _limit_mean_frame(model, regime, grid) -> np.ndarray:
    """Deterministic limit path (X-bar, Y-bar) of the rescaled system."""
    n_nodes = len(grid)
    if isinstance(model, MultiRoughBergomi):
        out = np.zeros((n_nodes, 1 + model.n_factors))
        out[:, 1:] = np.asarray(model.y0, dtype=float)[None, :]
        return out
    out = np.zeros((n_nodes, 2))
    if regime.is_tail:
        out[:, 1] = 0.0
    else:
        out[:, 1] = model.y0
    return out


def _to_mdp_frame(paths, model, regime, grid):
    if not regime.is_mdp:
        return paths
    mean = _limit_mean_frame(model, regime, grid)
    scale = _theta_eps(model, regime) * regime.h_eps()
    return (paths - mean[None, :, :]) / scale
