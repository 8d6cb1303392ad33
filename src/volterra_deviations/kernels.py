"""Convolution and non-convolution kernels with their quadrature machinery.

The central objects are :class:`TimeGrid` / :class:`GridFunction` (the
discrete carriers used everywhere else) and :class:`KernelSpec`.  The grid
owns the trapezoid weights, cumulative trapezoid and forward differences the
other modules share, and the node lookup that rejects off-grid times.  Every
scalar convolution kernel (constant, power law, raw power, gamma) has the one
shape K(t) = t^a e^(-lambda t) / norm, so one moment formula
int_0^t u^(p-1) e^(-lambda u) du / norm serves them all.  They expose, besides
pointwise evaluation:

* exact cumulative moments ``moment0/moment1`` (integrals of ``K`` and
  ``u*K`` from 0), the basis of all product-integration rules, and the
  squared norm ``l2_norm_sq``,
* ``conv_weights`` building the lower-triangular quadrature that maps nodal
  values of a piecewise-linear integrand to ``(K * f)(t_i)`` exactly; its
  ``cells`` (the integral of ``K`` over each lag cell) are the one source of
  cell integrals for the simulator and the rate functions,
* ``terminal_weights`` pairing a kernel section ``K(T - .)`` with piecewise
  linear functions, and
* ``autocovariance`` for the Gaussian Volterra integral, in hypergeometric
  closed form for every kernel without decay.

Singular kernels are never sampled at lag zero: every quadrature consumes the
per-cell moments instead, and the remaining integrals (``autocovariance`` of
the gamma kernel, the regularity check) run one trapezoid graded toward lag 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, hyp2f1

from .errors import ConfigError, KernelDomainError, SingularAtZero, WrongVariant

__all__ = [
    "TimeGrid",
    "GridFunction",
    "KernelSpec",
    "ConvWeights",
    "RegularityReport",
    "constant",
    "power_law",
    "raw_power",
    "gamma_kernel",
    "fbm_nonconv",
    "matrix_kernel",
    "eval_conv",
    "eval_nonconv",
    "l2_norm_sq",
    "check_regularity",
    "kernel_from_config",
]


# ---------------------------------------------------------------------------
# time grid and grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with ``n_steps`` cells and ``n_steps + 1`` nodes."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def __len__(self) -> int:
        return self.n_steps + 1

    def node_index(self, t: float) -> int:
        """Index i with t_i = t; raises KernelDomainError off the grid."""
        i = int(round(t / self.dt))
        if not (
            0 <= i <= self.n_steps
            and math.isclose(i * self.dt, t, rel_tol=1e-9, abs_tol=1e-12)
        ):
            raise KernelDomainError(f"t = {t!r} is not a node of {self}")
        return i

    def trapezoid_weights(self) -> np.ndarray:
        """Nodal weights of the composite trapezoid rule on [0, T]."""
        w = np.full(len(self), self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w

    def cumulative_trapezoid(self, vals: np.ndarray) -> np.ndarray:
        """Trapezoid integrals of nodal values from 0 to every node (axis 0)."""
        vals = np.asarray(vals, dtype=float)
        inc = 0.5 * self.dt * (vals[1:] + vals[:-1])
        return np.concatenate([np.zeros_like(vals[:1]), np.cumsum(inc, axis=0)])

    def forward_difference(self, vals: np.ndarray) -> np.ndarray:
        """Forward difference quotients; the last node repeats the last cell."""
        df = np.empty_like(vals)
        df[:-1] = (vals[1:] - vals[:-1]) / self.dt
        df[-1] = (vals[-1] - vals[-2]) / self.dt
        return df


@dataclass(frozen=True)
class GridFunction:
    """Samples of an R^d valued function at the grid nodes.

    ``values`` has shape (n_steps + 1,) for scalar functions or
    (n_steps + 1, d) for vector ones.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != len(self.grid):
            raise ValueError(
                f"values carry {v.shape[0]} samples, grid has {len(self.grid)} nodes"
            )

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


# ---------------------------------------------------------------------------
# kernel variants
# ---------------------------------------------------------------------------

_VARIANTS = ("constant", "power_law", "raw_power", "gamma", "fbm", "matrix")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel of the catalogued family.

    variant      one of 'constant', 'power_law', 'raw_power', 'gamma',
                 'fbm', 'matrix'
    c            level of the constant kernel
    hurst        H for power_law / gamma / fbm
    exponent     a for raw_power, K(t) = t^a
    decay        lambda >= 0 for the gamma kernel
    entries      (d, d) nested tuple of KernelSpec or None, upper triangular

    Every scalar convolution kernel is K(t) = t^a e^(-decay t) / norm, and
    ``form`` holds that triple (a, norm, decay), worked out from the variant
    at construction (None for fbm and matrix kernels).  The moments, norm,
    pointwise values, autocovariance, singularity and regularity exponent
    read only the triple.
    """

    variant: str
    c: float = 1.0
    hurst: float | None = None
    exponent: float | None = None
    decay: float | None = None
    entries: tuple | None = None
    form: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant in ("power_law", "gamma", "fbm"):
            if self.hurst is None or not 0.0 < self.hurst <= 0.5:
                raise ValueError("hurst must lie in (0, 1/2]")
        if self.variant == "gamma" and (self.decay is None or not 0.0 <= self.decay < math.inf):
            raise ValueError("gamma kernel needs a finite decay >= 0")
        if self.variant == "raw_power" and self.exponent is None:
            raise ValueError("raw_power needs an exponent")
        if self.variant == "matrix":
            if self.entries is None:
                raise ValueError("matrix kernel needs entries")
            d = len(self.entries)
            for i, row in enumerate(self.entries):
                if len(row) != d:
                    raise ValueError("matrix kernel entries must be square")
                for j, e in enumerate(row):
                    if i > j and e is not None:
                        raise ValueError(
                            "matrix kernel must be upper triangular: "
                            f"entry ({i}, {j}) is nonzero"
                        )
        form = None
        if self.variant == "constant":
            form = (0.0, 1.0 / self.c if self.c else math.inf, 0.0)
        elif self.variant == "raw_power":
            form = (self.exponent, 1.0, 0.0)
        elif self.variant in ("power_law", "gamma"):
            lam = self.decay if self.variant == "gamma" else 0.0
            form = (self.hurst - 0.5, float(gamma_fn(self.hurst + 0.5)), lam)
        object.__setattr__(self, "form", form)

    def _form(self, what: str) -> tuple:
        if self.form is None:
            raise WrongVariant(f"{what} applies to scalar convolution kernels, not {self.variant}")
        return self.form

    # -- basic properties ----------------------------------------------------

    @property
    def is_singular(self) -> bool:
        return self.form is not None and self.form[0] < 0.0

    @property
    def gamma_reg(self) -> float:
        """Regularity exponent in (0, 2]: 2a + 1 for K ~ t^a at lag 0 (2H for
        fbm), clipped; the least over its entries for a matrix kernel."""
        if self.variant == "matrix":
            return min((e.gamma_reg for r in self.entries for e in r if e is not None), default=1.0)
        a = self.hurst - 0.5 if self.form is None else self.form[0]
        return min(max(2.0 * a + 1.0, 1e-12), 2.0)

    # -- cumulative moments ---------------------------------------------------

    def moment0(self, t):
        """Integral of K over [0, t] (vectorized in t)."""
        a, norm, lam = self._form("moment0")
        return _moment(a + 1.0, lam, norm, t)

    def moment1(self, t):
        """Integral of u * K(u) over [0, t]."""
        a, norm, lam = self._form("moment1")
        return _moment(a + 2.0, lam, norm, t)

    # -- Gaussian autocovariance ----------------------------------------------

    def autocovariance(self, s, t):
        """R(s, t) = int_0^(s ^ t) K(s - u) K(t - u) du for the Volterra integral.

        Closed form through the Gauss hypergeometric function for every kernel
        without decay; composite quadrature on a singularity-graded grid for
        the gamma kernel.
        """
        a, norm, lam = self._form("autocovariance")
        if 2.0 * a + 1.0 <= 0.0:
            raise WrongVariant("K is not square integrable: no Gaussian Volterra integral")
        s_arr = np.asarray(s, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        lo = np.minimum(s_arr, t_arr)
        hi = np.maximum(s_arr, t_arr)
        if lam:
            return _autocov_quadrature(self, lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
            out = (
                lo ** (a + 1.0)
                * np.where(hi > 0, hi, 1.0) ** a
                / ((a + 1.0) * norm**2)
                * hyp2f1(-a, 1.0, a + 2.0, ratio)
            )
        return np.where(lo <= 0.0, 0.0, out)

    # -- pointwise evaluation ---------------------------------------------------

    def __call__(self, t):
        return eval_conv(self, t)


def _moment(p: float, lam: float, norm: float, t):
    """int_0^t u^(p-1) e^(-lam u) du / norm (vectorized in t), t^p / (p norm) at lam = 0."""
    if p <= 0.0:
        raise WrongVariant(f"u^({p - 1.0:g}) is not integrable at 0")
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    if lam == 0.0:
        return t**p / (p * norm)
    return gammainc(p, lam * t) * gamma_fn(p) / (lam**p * norm)


def _autocov_quadrature(k: KernelSpec, lo, hi):
    """R(lo, hi) = int_0^lo K(r) K(hi - lo + r) dr for a kernel with decay."""
    out = np.zeros(np.broadcast(lo, hi).shape)
    lo, hi = np.broadcast_to(lo, out.shape), np.broadcast_to(hi, out.shape)
    for idx in np.ndindex(out.shape):
        s, gap = lo[idx], hi[idx] - lo[idx]
        if s > 0:
            out[idx] = _graded_integral(
                k, lambda r: eval_conv(k, r) * eval_conv(k, gap + r), s, 4000
            )
    return out if out.shape else float(out)


def _graded_integral(k: KernelSpec, f, length: float, n_sub: int) -> float:
    """int_0^length f(r) dr, trapezoid in x on the lag r = length x^q graded toward 0.

    q = max(1, 2 / gamma_reg) crowds the nodes toward lag 0, where a singular
    kernel's square piles up.  The lag itself is the variable, so a small lag
    is never the difference of two large numbers.  Past q = 50 the node count
    grows with q, keeping the bulk's trapezoid error at its q = 50 size.  Lags
    below the smallest normal float are dropped: they underflow for
    gamma_reg <= 0.022, and K^2 <= 1/r would overflow near them.  The dropped
    head stays below 1e-5 of the integral for gamma_reg >= 0.02 (H >= 0.01).
    """
    q = max(1.0, 2.0 / k.gamma_reg)
    n_sub *= math.ceil(q / 50.0)
    x = np.linspace(0.0, 1.0, n_sub + 1)[1:]
    r = length * x**q
    keep = r >= np.finfo(float).tiny
    x, r = x[keep], r[keep]
    return float(np.trapezoid(f(r) * (length * q * x ** (q - 1.0)), x))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant(c: float = 1.0) -> KernelSpec:
    return KernelSpec("constant", c=float(c))


def power_law(hurst: float) -> KernelSpec:
    """Riemann-Liouville kernel t^(H - 1/2) / Gamma(H + 1/2)."""
    return KernelSpec("power_law", hurst=float(hurst))


def raw_power(exponent: float) -> KernelSpec:
    """Unnormalized power kernel t^a."""
    return KernelSpec("raw_power", exponent=float(exponent))


def gamma_kernel(hurst: float, decay: float) -> KernelSpec:
    """t^(H - 1/2) e^(-lambda t) / Gamma(H + 1/2); keeps gamma = 2H since the
    locally Lipschitz factor preserves the square-integrability scaling."""
    return KernelSpec("gamma", hurst=float(hurst), decay=float(decay))


def fbm_nonconv(hurst: float) -> KernelSpec:
    """Fractional Brownian motion kernel (non-convolution, hypergeometric)."""
    return KernelSpec("fbm", hurst=float(hurst))


def matrix_kernel(entries) -> KernelSpec:
    return KernelSpec("matrix", entries=tuple(tuple(e for e in row) for row in entries))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_conv(k: KernelSpec, t):
    """Pointwise value K(t) of a scalar convolution kernel.

    Raises SingularAtZero when a singular variant is evaluated at t = 0 and
    WrongVariant for matrix / fbm kernels.
    """
    a, norm, lam = k._form("eval_conv")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise KernelDomainError("kernel argument must be nonnegative")
    if a < 0.0 and np.any(t_arr == 0.0):
        raise SingularAtZero(f"{k.variant} kernel diverges at t = 0")
    out = t_arr**a * np.exp(-lam * t_arr) / norm
    return out if out.shape else float(out)


def eval_nonconv(k: KernelSpec, t, s):
    """fBm kernel K(t, s) for 0 < s < t.

    K(t,s) = (t-s)^(H-1/2) / Gamma(H+1/2) * F(H-1/2, 1/2-H; H+1/2; 1 - t/s)
    with the hypergeometric argument <= 0.
    """
    if k.variant != "fbm":
        raise WrongVariant("eval_nonconv applies to the fbm kernel only")
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0) or np.any(s_arr >= t_arr):
        raise KernelDomainError("fbm kernel requires 0 < s < t")
    H = k.hurst
    z = 1.0 - t_arr / s_arr
    out = (
        (t_arr - s_arr) ** (H - 0.5)
        / gamma_fn(H + 0.5)
        * hyp2f1(H - 0.5, 0.5 - H, H + 0.5, z)
    )
    return out if np.asarray(out).shape else float(out)


def l2_norm_sq(k: KernelSpec, t: float) -> float:
    """Integral of K^2 over [0, t]."""
    a, norm, lam = k._form("l2_norm_sq")
    if t <= 0.0:
        raise KernelDomainError("t must be positive")
    # K^2 = t^(2a) e^(-2 lam t) / norm^2: the moment of order 2a + 1
    return float(_moment(2.0 * a + 1.0, 2.0 * lam, norm**2, t))


# ---------------------------------------------------------------------------
# product-integration quadrature
# ---------------------------------------------------------------------------


@dataclass
class ConvWeights:
    """Quadrature turning nodal values into (K * f)(t_i) for PL integrands.

    (K f)_i = (w * f)_i - shift_(i+1) f_0,  a discrete convolution plus a
    boundary correction; ``apply`` is a scipy.fft real FFT at ``next_fast_len``.
    ``cells[m]`` is the integral of K over the lag cell [m h, (m+1) h],
    m = 0..n: the one source of cell integrals outside this module.
    """

    grid: TimeGrid
    w: np.ndarray
    shift: np.ndarray
    cells: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            size = next_fast_len(len(self.w) + len(v) - 1, True)
            conv = irfft(rfft(self.w, size) * rfft(v, size), size)[: len(v)]
            out = conv - self.shift[1 : len(v) + 1] * v[0]
            out[0] = 0.0
            return out
        return np.stack([self.apply(col) for col in v.T], axis=1)

    def dense_matrix(self) -> np.ndarray:
        """Lower-triangular matrix A with (K f) = A f; O(n^2) memory."""
        n = len(self.grid) - 1
        A = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            A[i, : i + 1] = self.w[:i + 1][::-1]
            A[i, 0] -= self.shift[i + 1]
        return A


def conv_weights(k: KernelSpec, grid: TimeGrid) -> ConvWeights:
    """Exact product-integration weights of a scalar convolution kernel."""
    n = grid.n_steps
    h = grid.dt
    edges = np.arange(n + 2, dtype=float) * h
    C0 = k.moment0(edges)
    C1 = k.moment1(edges)
    M0 = C0[1:] - C0[:-1]
    M1 = C1[1:] - C1[:-1]
    mm = np.arange(1, n + 2, dtype=float)
    P = mm * M0 - M1 / h
    w = np.empty(n + 1)
    w[0] = P[0]
    m_idx = np.arange(1, n + 1)
    w[1:] = M0[m_idx - 1] - P[m_idx - 1] + P[m_idx]
    return ConvWeights(grid=grid, w=w, shift=np.concatenate([[0.0], P]), cells=M0)


def terminal_weights(k: KernelSpec, grid: TimeGrid, t_end: float | None = None) -> np.ndarray:
    """Weights g with int_0^T K(T - s) f(s) ds = sum g_i f_i for PL f."""
    i_end = grid.n_steps if t_end is None else grid.node_index(t_end)
    cw = conv_weights(k, grid)
    g = np.zeros(len(grid))
    g[: i_end + 1] = cw.w[: i_end + 1][::-1]
    g[0] -= cw.shift[i_end + 1]
    return g


# ---------------------------------------------------------------------------
# regularity check
# ---------------------------------------------------------------------------


_SLOPE_TOLERANCE = 0.05


@dataclass
class RegularityReport:
    kernel: KernelSpec
    gamma_claim: float
    h_values: np.ndarray
    functional: np.ndarray
    fitted_slope: float
    tolerance: float
    passed: bool


def _shift_term(k: KernelSpec, h: float, T: float) -> float:
    """int_0^T (K(t+h) - K(t))^2 dt on a singularity-graded grid."""
    return _graded_integral(k, lambda t: (eval_conv(k, t + h) - eval_conv(k, t)) ** 2, T, 6000)


def check_regularity(
    k: KernelSpec, gamma_claim: float, h_grid, horizon: float = 1.0
) -> RegularityReport:
    """Fit the log-log slope of int_0^h K^2 + int_0^T (K(.+h) - K)^2.

    Passes when the fitted slope is >= gamma_claim - _SLOPE_TOLERANCE (0.05
    absolute, the discretization noise of a dyadic fit), which the report
    records as ``tolerance``.
    """
    h_vals = np.asarray(sorted(h_grid, reverse=True), dtype=float)
    if np.any(h_vals <= 0.0):
        raise KernelDomainError("h grid must be positive")
    vals = np.array(
        [l2_norm_sq(k, h) + _shift_term(k, h, horizon) for h in h_vals]
    )
    slope, _ = np.polyfit(np.log(h_vals), np.log(vals), 1)
    return RegularityReport(
        kernel=k,
        gamma_claim=gamma_claim,
        h_values=h_vals,
        functional=vals,
        fitted_slope=float(slope),
        tolerance=_SLOPE_TOLERANCE,
        passed=bool(slope >= gamma_claim - _SLOPE_TOLERANCE),
    )


# ---------------------------------------------------------------------------
# config records
# ---------------------------------------------------------------------------


def kernel_from_config(record: dict) -> KernelSpec:
    """Build a kernel from a ``{"kind": ..., ...}`` config record."""
    if not isinstance(record, dict) or "kind" not in record:
        raise ConfigError("kernel record needs a 'kind' field")
    kind = record["kind"]
    try:
        if kind == "constant":
            return constant(record.get("c", 1.0))
        if kind == "power_law":
            return power_law(record["hurst"])
        if kind == "raw_power":
            return raw_power(record["exponent"])
        if kind == "gamma":
            return gamma_kernel(record["hurst"], record["decay"])
        if kind == "fbm":
            return fbm_nonconv(record["hurst"])
        if kind == "matrix":
            entries = [
                [None if e is None else kernel_from_config(e) for e in row]
                for row in record["entries"]
            ]
            return matrix_kernel(entries)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad kernel record: {exc}") from exc
    raise ConfigError(f"unknown kernel kind {kind!r}")
