"""Empirical verification of the deviation principles.

``estimate_event_prob`` estimates P(event) at one epsilon level, plain or
importance-sampled through the Girsanov-shifted simulation (the estimator
averages indicator * exp(log weight), which is unbiased by construction of
the weights).  ``ldp_slope`` assembles an epsilon sweep into the extrapolated
decay rate: with s(eps) the reciprocal speed, s log p_hat is fitted affinely
in s by generalized least squares with weights 1/s^2 (under importance
sampling the noise of s log p_hat scales like s, and so does the leading
model misfit, which makes the small-s levels the informative ones).

``build_is_control`` returns the near-optimal deterministic tilt: the exact
Cameron-Martin kernel section for Gaussian volatility events, the terminal
variational solver's control for price events, and a constant-control
fallback that still hits the boundary in mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientHits, SolverFailure
from .frac_calculus import Control, KernelSection
from .kernels import GridFunction, TimeGrid, power_law
from .rate_functions import gaussian_terminal_control, ldp_rate_terminal
from .sve_sim import (
    Model,
    ScalingRegime,
    check_components,
    simulate,
    simulate_controlled,
)

__all__ = [
    "EventSpec",
    "DeviationExperiment",
    "SlopeReport",
    "estimate_event_prob",
    "ldp_slope",
    "build_is_control",
]

_MIN_HITS = 20


@dataclass(frozen=True)
class EventSpec:
    """Terminal-value event {component(t_eval) >= level} (or <=)."""

    component: int
    level: float
    direction: str = "ge"
    t_eval: float | None = None  # None: the grid horizon

    def __post_init__(self):
        if self.direction not in ("ge", "le"):
            raise ValueError("direction must be 'ge' or 'le'")

    def node(self, grid: TimeGrid) -> int:
        """Grid index of the evaluation time."""
        return grid.n_steps if self.t_eval is None else grid.node_index(self.t_eval)

    def indicator(self, ensemble) -> np.ndarray:
        vals = ensemble.component_at(self.component, self.node(ensemble.grid))
        return vals >= self.level if self.direction == "ge" else vals <= self.level


@dataclass
class DeviationExperiment:
    """One epsilon-sweep rare-event experiment.

    ``regime_kind`` is one of the ScalingRegime kinds; ``beta`` feeds the MDP
    regimes.  ``reference_rate`` is the rate-function value the extrapolated
    slope is compared against.  Construction builds the regime of every
    epsilon, so a bad kind or beta raises ValueError before any simulation.
    """

    model: Model
    event: EventSpec
    epsilons: tuple
    regime_kind: str = "small_time_ldp"
    beta: float | None = None
    n_paths: int = 100_000
    seed: int = 0
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 64))
    is_control: Control | None = None
    reference_rate: float | None = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if any(e <= 0 for e in eps) or any(
            eps[i + 1] >= eps[i] for i in range(len(eps) - 1)
        ):
            raise ValueError("epsilons must be strictly decreasing and positive")
        if self.n_paths < 1000:
            raise ValueError("need at least 1000 paths per level")
        self.epsilons = eps
        for e in eps:
            self.regime(e)

    def regime(self, eps: float) -> ScalingRegime:
        return ScalingRegime(self.regime_kind, eps, self.beta)

    def speed_value(self, eps: float) -> float:
        return self.regime(eps).speed(self.model.min_hurst)


@dataclass
class SlopeReport:
    epsilons: tuple
    p_hats: tuple
    stderrs: tuple
    hit_counts: tuple
    s_values: tuple
    f_values: tuple
    intercept: float
    slope: float
    reference_rate: float | None
    relative_gap: float | None
    used_importance_sampling: bool


def estimate_event_prob(exp: DeviationExperiment, eps: float, seed: int | None = None):
    """(p_hat, stderr, hits) at one level; importance-sampled when a control is set."""
    seed = exp.seed if seed is None else seed
    regime = exp.regime(eps)
    # keep only what the indicator reads: its component at its node
    kept = dict(nodes=[exp.event.node(exp.grid)], components=[exp.event.component])
    if exp.is_control is None:
        ens = simulate(exp.model, regime, exp.grid, exp.n_paths, seed, **kept)
    else:
        ens = simulate_controlled(
            exp.model, regime, exp.is_control, exp.grid, exp.n_paths, seed, **kept
        )
    hit = exp.event.indicator(ens)
    est = hit.astype(float) if exp.is_control is None else hit * ens.weights()
    p = float(est.mean())
    se = float(est.std(ddof=1) / math.sqrt(exp.n_paths))
    return p, se, int(np.count_nonzero(hit))


def ldp_slope(exp: DeviationExperiment) -> SlopeReport:
    """Extrapolated decay rate of the epsilon sweep.

    Fits s log p_hat = -I + c s by 1/s^2-weighted least squares and reports
    the intercept against the configured reference rate.  The two-parameter
    fit needs at least two levels: ValueError before any simulation otherwise.
    """
    if len(exp.epsilons) < 2:
        raise ValueError(f"the slope fit needs >= 2 epsilons, got {len(exp.epsilons)}")
    ps, ses, hits, ss, fs = [], [], [], [], []
    for i, eps in enumerate(exp.epsilons):
        p, se, h = estimate_event_prob(exp, eps, seed=exp.seed + i)
        if h < _MIN_HITS:
            raise InsufficientHits(
                f"only {h} hits at eps={eps}; use importance sampling"
            )
        if p <= 0.0:
            raise InsufficientHits(f"zero estimate at eps={eps}")
        s = exp.speed_value(eps)
        ps.append(p)
        ses.append(se)
        hits.append(h)
        ss.append(s)
        fs.append(s * math.log(p))
    A = np.vstack([np.ones(len(ss)), np.asarray(ss)]).T
    wgt = 1.0 / np.asarray(ss) ** 2
    W = A.T * wgt
    coef = np.linalg.solve(W @ A, W @ np.asarray(fs))
    intercept, slope = float(coef[0]), float(coef[1])
    gap = None
    if exp.reference_rate is not None and exp.reference_rate != 0.0:
        gap = abs(intercept - (-exp.reference_rate)) / abs(exp.reference_rate)
    return SlopeReport(
        epsilons=tuple(exp.epsilons),
        p_hats=tuple(ps),
        stderrs=tuple(ses),
        hit_counts=tuple(hits),
        s_values=tuple(ss),
        f_values=tuple(fs),
        intercept=intercept,
        slope=slope,
        reference_rate=exp.reference_rate,
        relative_gap=gap,
        used_importance_sampling=exp.is_control is not None,
    )


def build_is_control(
    model: Model,
    event: EventSpec,
    grid: TimeGrid,
    regime_kind: str = "small_time_ldp",
) -> Control:
    """Near-optimal deterministic tilt for a terminal-value event.

    Volatility events on Gaussian models get the exact Cameron-Martin kernel
    section (so the shifted mean hits the boundary and the Girsanov pairing
    is exact); price events go through the terminal variational solver on
    [0, t_eval] with the grid's step, with a boundary-matching constant
    control as fallback.  Every control is zero after t_eval.  An event on a
    component the model lacks raises InvalidModel, the check the simulator
    applies, before any solve; a model without a scalar coefficient catalogue
    (the multifactor model) raises NotApplicable.
    """
    check_components(model, [event.component])
    zeta0 = float(model.zeta(np.asarray(model.y0)))
    t_end = event.t_eval if event.t_eval is not None else grid.horizon
    i_end = grid.node_index(t_end)
    zeros = np.zeros((len(grid), 2))
    vol_offset = event.level - (model.y0 if regime_kind == "small_time_ldp" else 0.0)
    if event.component >= 1 and model.zeta_constant:
        # Gaussian volatility marginal: exact kernel-section control
        kernel = power_law(model.hurst)
        _, coeff = gaussian_terminal_control(kernel, zeta0, vol_offset, t_end)
        sec = KernelSection(kernel, t_end, coeff, channel=0)
        return Control(GridFunction(grid, zeros), sections=(sec,))
    if event.component == 0:
        try:
            res = ldp_rate_terminal(
                model,
                event.level,
                component="x",
                n_steps=i_end,
                horizon=t_end,
            )
        except SolverFailure:
            pass
        else:
            vals = res.optimal_control.values.values
            padded = zeros.copy()
            padded[: i_end + 1] = vals
            return Control(
                GridFunction(grid, padded), sections=res.optimal_control.sections
            )
    # fallback: constant control hitting the boundary in mean
    vals = zeros.copy()
    if event.component == 0:
        rho_bar = math.sqrt(1.0 - model.rho**2)
        amp = rho_bar * math.sqrt(max(float(model.sigma_sq(np.asarray(model.y0))), 1e-12))
        vals[: i_end + 1, 1] = event.level / (amp * t_end)
    else:
        m0 = float(power_law(model.hurst).moment0(t_end))
        vals[: i_end + 1, 0] = vol_offset / (zeta0 * m0) if zeta0 * m0 != 0 else 0.0
    return Control(GridFunction(grid, vals))
