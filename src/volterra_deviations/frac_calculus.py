"""Discrete Riemann-Liouville fractional integral and derivative.

``rl_integral`` is product integration of the piecewise-linear interpolant
against the singular kernel (t-s)^(alpha-1)/Gamma(alpha).  Its weights are
``kernels.conv_weights`` of the raw power kernel t^(alpha-1), built from
exact per-cell moments, so this module keeps no quadrature of its own;
alpha = 1 is the grid's cumulative trapezoid rule.

``rl_derivative`` implements D^alpha f = d/dt I^(1-alpha) f through a split
decomposition: the value f(0) contributes the exact f0 t^(-alpha)/Gamma(1-alpha)
term, and a leading t^alpha mode is peeled off and differentiated in closed
form before the forward-difference remainder goes through ``rl_integral``.
Without the mode split the scheme does not converge on f in I^alpha(L1) with a
singular derivative at 0 (the piecewise-linear interpolant of the difference
quotients misrepresents the first-cell mass); with it the round trip
D^alpha I^alpha converges at first order and monomials c t^alpha map exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .kernels import (
    GridFunction,
    KernelSpec,
    TimeGrid,
    conv_weights,
    l2_norm_sq,
    raw_power,
    terminal_weights,
)

__all__ = [
    "rl_integral", "rl_derivative", "energy", "Control", "KernelSection", "control_energy"
]

_HEAD_NODES = 4


def rl_integral(f: GridFunction, alpha: float) -> GridFunction:
    """(I^alpha f)(t_i) = 1/Gamma(alpha) int_0^(t_i) (t_i - s)^(alpha-1) f(s) ds.

    ``alpha`` lies in (0, 1] (ValueError otherwise).
    """
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if a == 1.0:
        return GridFunction(f.grid, f.grid.cumulative_trapezoid(f.values))
    k = raw_power(a - 1.0)
    # normalize with the order the kernel carries: a - 1 + 1 != a for small a,
    # and the mismatch would cost relative accuracy eps / a
    out = conv_weights(k, f.grid).apply(f.values) / gamma_fn(k.exponent + 1.0)
    return GridFunction(f.grid, out)


def _head_coefficient(g: np.ndarray, t: np.ndarray, alpha: float) -> float:
    """Least-squares fit of the leading c t^alpha mode on the first nodes."""
    k = min(_HEAD_NODES, len(g) - 1)
    tk = t[1 : k + 1]
    denom = float(np.sum(tk ** (2.0 * alpha)))
    if denom <= 0.0:
        return 0.0
    return float(np.sum(g[1 : k + 1] * tk**alpha) / denom)


def rl_derivative(f: GridFunction, alpha: float, f0: float) -> GridFunction:
    """(D^alpha f)(t) = d/dt (I^(1-alpha) f)(t) on the grid, alpha in (0, 1].

    ``f`` is a scalar grid function (ValueError otherwise).  ``f0`` is the
    value f(0) split off for stability; when f0 != 0 the first node carries an
    infinite sentinel, which downstream quadratures skip by giving it zero
    weight.
    """
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if f.values.ndim != 1:
        raise ValueError("rl_derivative takes a scalar grid function")
    grid = f.grid
    t = grid.nodes
    g = f.values - f0
    if a == 1.0:
        out = grid.forward_difference(g)
    else:
        c_head = _head_coefficient(g, t, a)
        g_rem = GridFunction(grid, grid.forward_difference(g - c_head * t**a))
        out = rl_integral(g_rem, 1.0 - a).values + c_head * gamma_fn(a + 1.0)
    if f0 != 0.0 and a < 1.0:
        tail = np.empty_like(out)
        tail[0] = np.inf
        tail[1:] = f0 * t[1:] ** (-a) / gamma_fn(1.0 - a)
        out = out + tail
    return GridFunction(f.grid, out)


def energy(v: GridFunction) -> float:
    """(1/2) int_0^T |v_s|^2 ds by the trapezoid rule.

    Non-finite samples at t = 0 (fractional-derivative sentinels) get zero
    weight; the underlying integrals stay finite despite the endpoint
    singularity.
    """
    vals = v.values
    sq = vals**2 if vals.ndim == 1 else np.sum(vals**2, axis=1)
    w = v.grid.trapezoid_weights()
    if not np.isfinite(sq[0]):
        sq = sq.copy()
        sq[0] = 0.0
    return float(0.5 * np.sum(w * sq))


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSection:
    """Control atom lambda * K(t_end - s) on a given driving channel.

    The optimal Cameron-Martin control of a Gaussian Volterra terminal
    functional has exactly this shape; keeping it symbolic lets energies use
    exact kernel moments, and lets the simulator tilt by lambda Z_(t_end),
    the section's pairing with the noise, instead of sampling the (singular)
    section pointwise.
    """

    kernel: KernelSpec
    t_end: float
    coeff: float
    channel: int = 0


@dataclass(frozen=True)
class Control:
    """Discretized element of L^2([0,T]; R^m): nodal values + optional sections."""

    values: GridFunction
    sections: tuple = ()

    @property
    def grid(self) -> TimeGrid:
        return self.values.grid

    @property
    def n_channels(self) -> int:
        return self.values.dim

    def channel_values(self, j: int) -> np.ndarray:
        return self.values.values if self.values.values.ndim == 1 else self.values.values[:, j]

    @staticmethod
    def zero(grid: TimeGrid, n_channels: int = 1) -> "Control":
        shape = len(grid) if n_channels == 1 else (len(grid), n_channels)
        return Control(GridFunction(grid, np.zeros(shape)))


def control_energy(c: Control) -> float:
    """(1/2) ||v||^2 including kernel-section atoms, via exact moments."""
    base = 2.0 * energy(c.values)  # plain ||v_PL||^2
    total = base
    for sec in c.sections:
        g = terminal_weights(sec.kernel, c.grid, sec.t_end)
        vj = c.channel_values(sec.channel)
        total += 2.0 * sec.coeff * float(np.dot(g, vj))
        total += sec.coeff**2 * l2_norm_sq(sec.kernel, sec.t_end)
    for i, s1 in enumerate(c.sections):
        for s2 in c.sections[i + 1 :]:
            if s1.channel == s2.channel:
                cov = s1.kernel.autocovariance(s1.t_end, s2.t_end)
                total += 2.0 * s1.coeff * s2.coeff * float(cov)
    return 0.5 * total
