"""Convolution and non-convolution kernels with their quadrature machinery.

The central objects are :class:`TimeGrid` / :class:`GridFunction` (the
discrete carriers used everywhere else) and :class:`KernelSpec`.  The grid
owns the trapezoid weights, cumulative trapezoid and forward differences the
other modules share, and the node lookup that rejects off-grid times.  Scalar
convolution kernels expose, besides pointwise evaluation:

* exact cumulative moments ``moment0/moment1`` (integrals of ``K`` and
  ``u*K`` from 0), the basis of all product-integration rules,
* ``conv_weights`` building the lower-triangular quadrature that maps nodal
  values of a piecewise-linear integrand to ``(K * f)(t_i)`` exactly,
* ``terminal_weights`` pairing a kernel section ``K(T - .)`` with piecewise
  linear functions, and
* ``autocovariance`` for the Gaussian Volterra integral, in closed form for
  power-law kernels.

Singular kernels are never sampled at lag zero: every quadrature consumes the
per-cell moments instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve
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

    @staticmethod
    def from_callable(grid: TimeGrid, f) -> "GridFunction":
        t = grid.nodes
        vals = np.asarray([f(ti) for ti in t], dtype=float)
        return GridFunction(grid, vals)

    @staticmethod
    def constant(grid: TimeGrid, value) -> "GridFunction":
        value = np.asarray(value, dtype=float)
        if value.ndim == 0:
            vals = np.full(len(grid), float(value))
        else:
            vals = np.tile(value, (len(grid), 1))
        return GridFunction(grid, vals)

    def component(self, j: int) -> "GridFunction":
        if self.values.ndim == 1:
            if j != 0:
                raise IndexError("scalar grid function has a single component")
            return self
        return GridFunction(self.grid, self.values[:, j])


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
    decay        lambda for the gamma kernel
    entries      (d, d) nested tuple of KernelSpec or None, upper triangular
    gamma_reg    regularity exponent in (0, 2]
    homogeneity  homogeneity degree, None when the kernel is not homogeneous
    """

    variant: str
    c: float = 1.0
    hurst: float | None = None
    exponent: float | None = None
    decay: float | None = None
    entries: tuple | None = None
    gamma_reg: float = 1.0
    homogeneity: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant in ("power_law", "gamma", "fbm"):
            if self.hurst is None or not 0.0 < self.hurst <= 0.5:
                raise ValueError("hurst must lie in (0, 1/2]")
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
        if not 0.0 < self.gamma_reg <= 2.0:
            raise ValueError("regularity exponent must lie in (0, 2]")

    # -- basic properties ----------------------------------------------------

    @property
    def is_scalar_conv(self) -> bool:
        return self.variant in ("constant", "power_law", "raw_power", "gamma")

    @property
    def is_singular(self) -> bool:
        if self.variant == "power_law" or self.variant == "gamma":
            return self.hurst < 0.5
        if self.variant == "raw_power":
            return self.exponent < 0.0
        return False

    # -- cumulative moments ---------------------------------------------------

    def moment0(self, t):
        """Integral of K over [0, t] (vectorized in t)."""
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.variant == "constant":
            return self.c * t
        if self.variant == "power_law":
            a = self.hurst + 0.5
            return t**a / (a * gamma_fn(self.hurst + 0.5))
        if self.variant == "raw_power":
            a = self.exponent + 1.0
            if a <= 0.0:
                raise WrongVariant("raw_power exponent <= -1 is not integrable")
            return t**a / a
        if self.variant == "gamma":
            a = self.hurst + 0.5
            lam = self.decay
            # int_0^t u^(a-1) e^(-lam u) du = P(a, lam t) Gamma(a) / lam^a
            return gammainc(a, lam * t) * gamma_fn(a) / (lam**a * gamma_fn(self.hurst + 0.5))
        raise WrongVariant(f"moment0 undefined for {self.variant} kernel")

    def moment1(self, t):
        """Integral of u * K(u) over [0, t]."""
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.variant == "constant":
            return self.c * t**2 / 2.0
        if self.variant == "power_law":
            a = self.hurst + 1.5
            return t**a / (a * gamma_fn(self.hurst + 0.5))
        if self.variant == "raw_power":
            a = self.exponent + 2.0
            return t**a / a
        if self.variant == "gamma":
            a = self.hurst + 1.5
            lam = self.decay
            return gammainc(a, lam * t) * gamma_fn(a) / (lam**a * gamma_fn(self.hurst + 0.5))
        raise WrongVariant(f"moment1 undefined for {self.variant} kernel")

    # -- Gaussian autocovariance ----------------------------------------------

    def autocovariance(self, s, t):
        """R(s, t) = int_0^(s ^ t) K(s - u) K(t - u) du for the Volterra integral.

        Closed form through the Gauss hypergeometric function for power-law
        kernels; composite quadrature on a singularity-graded grid otherwise.
        """
        s_arr = np.asarray(s, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        lo = np.minimum(s_arr, t_arr)
        hi = np.maximum(s_arr, t_arr)
        if self.variant == "constant":
            return self.c**2 * lo
        if self.variant == "power_law":
            a = self.hurst - 0.5
            g2 = gamma_fn(self.hurst + 0.5) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
                out = (
                    lo ** (a + 1.0)
                    * np.where(hi > 0, hi, 1.0) ** a
                    / ((a + 1.0) * g2)
                    * hyp2f1(-a, 1.0, a + 2.0, ratio)
                )
            return np.where(lo <= 0.0, 0.0, out)
        if self.is_scalar_conv:
            return _autocov_quadrature(self, lo, hi)
        raise WrongVariant(f"autocovariance undefined for {self.variant} kernel")

    # -- pointwise evaluation ---------------------------------------------------

    def __call__(self, t):
        return eval_conv(self, t)


def _autocov_quadrature(k: KernelSpec, lo, hi, n_sub: int = 4000):
    """Graded-grid trapezoid for R(lo, hi) on generic scalar kernels."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    out = np.zeros(lo.shape)
    q = max(1.0, 2.0 / k.gamma_reg)
    x = np.linspace(0.0, 1.0, n_sub + 1)[1:]
    for idx in np.ndindex(lo.shape):
        s, t = lo[idx], hi[idx]
        if s <= 0:
            continue
        # integrate over u in (0, s]; substitute s - u = s * x^q to grade
        # toward the singular end u -> s
        u = s - s * x**q
        du = s * q * x ** (q - 1.0)
        vals = eval_conv(k, np.maximum(s - u, 1e-300)) * eval_conv(
            k, np.maximum(t - u, 1e-300)
        )
        out[idx] = np.trapezoid(vals * du, x)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant(c: float = 1.0) -> KernelSpec:
    return KernelSpec("constant", c=float(c), gamma_reg=1.0, homogeneity=0.0)


def power_law(hurst: float) -> KernelSpec:
    """Riemann-Liouville kernel t^(H - 1/2) / Gamma(H + 1/2)."""
    return KernelSpec(
        "power_law", hurst=float(hurst), gamma_reg=2.0 * hurst, homogeneity=hurst - 0.5
    )


def raw_power(exponent: float) -> KernelSpec:
    """Unnormalized power kernel t^a."""
    a = float(exponent)
    g = min(max(1.0 + 2.0 * a, 1e-12), 2.0)
    return KernelSpec("raw_power", exponent=a, gamma_reg=g, homogeneity=a)


def gamma_kernel(hurst: float, decay: float) -> KernelSpec:
    """t^(H - 1/2) e^(-lambda t) / Gamma(H + 1/2); keeps gamma = 2H since the
    locally Lipschitz factor preserves the square-integrability scaling."""
    return KernelSpec(
        "gamma", hurst=float(hurst), decay=float(decay), gamma_reg=2.0 * hurst
    )


def fbm_nonconv(hurst: float) -> KernelSpec:
    """Fractional Brownian motion kernel (non-convolution, hypergeometric)."""
    return KernelSpec("fbm", hurst=float(hurst), gamma_reg=2.0 * hurst)


def matrix_kernel(entries) -> KernelSpec:
    rows = tuple(tuple(e for e in row) for row in entries)
    gammas = [e.gamma_reg for row in rows for e in row if e is not None]
    g = min(gammas) if gammas else 1.0
    return KernelSpec("matrix", entries=rows, gamma_reg=g)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_conv(k: KernelSpec, t):
    """Pointwise value K(t) of a scalar convolution kernel.

    Raises SingularAtZero when a singular variant is evaluated at t = 0 and
    WrongVariant for matrix / fbm kernels.
    """
    if not k.is_scalar_conv:
        raise WrongVariant(f"eval_conv does not apply to {k.variant} kernels")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise KernelDomainError("kernel argument must be nonnegative")
    if k.is_singular and np.any(t_arr == 0.0):
        raise SingularAtZero(f"{k.variant} kernel diverges at t = 0")
    if k.variant == "constant":
        out = np.full(t_arr.shape, k.c)
    elif k.variant == "power_law":
        out = t_arr ** (k.hurst - 0.5) / gamma_fn(k.hurst + 0.5)
    elif k.variant == "raw_power":
        out = t_arr**k.exponent
    else:  # gamma
        out = (
            t_arr ** (k.hurst - 0.5)
            * np.exp(-k.decay * t_arr)
            / gamma_fn(k.hurst + 0.5)
        )
    return out if out.shape else float(out)


def hyp2f1_pfaff(a: float, b: float, c: float, z, tol: float = 1e-12, max_terms: int = 8192):
    """Gauss hypergeometric F(a, b; c; z) for z <= 0.

    The Pfaff transformation F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
    maps the argument into [0, 1) where the series converges; summation stops
    on a 1e-12 term ratio.  The transformed argument approaches 1 as z tends
    to -infinity, so very small s/t ratios converge slowly.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z > 0.0):
        raise KernelDomainError("pfaff series implemented for z <= 0 only")
    w = z / (z - 1.0)
    total = np.ones_like(w)
    term = np.ones_like(w)
    ap, bp = a, c - b
    for k in range(max_terms):
        term = term * (ap + k) * (bp + k) / ((c + k) * (k + 1.0)) * w
        total = total + term
        if np.all(np.abs(term) <= tol * np.abs(total)):
            break
    out = (1.0 - z) ** (-a) * total
    return out if out.shape else float(out)


def eval_nonconv(k: KernelSpec, t, s):
    """fBm kernel K(t, s) for 0 < s < t.

    K(t,s) = (t-s)^(H-1/2) / Gamma(H+1/2) * F(H-1/2, 1/2-H; H+1/2; 1 - t/s);
    the hypergeometric argument is <= 0 and is evaluated through the Pfaff
    transformation.
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
        * hyp2f1_pfaff(H - 0.5, 0.5 - H, H + 0.5, z)
    )
    return out if np.asarray(out).shape else float(out)


def l2_norm_sq(k: KernelSpec, t: float) -> float:
    """Integral of K^2 over [0, t]."""
    if not k.is_scalar_conv:
        raise WrongVariant("l2_norm_sq applies to scalar convolution kernels")
    if t <= 0.0:
        raise KernelDomainError("t must be positive")
    if k.variant == "constant":
        return k.c**2 * t
    if k.variant == "power_law":
        H = k.hurst
        return t ** (2 * H) / (2 * H * gamma_fn(H + 0.5) ** 2)
    if k.variant == "raw_power":
        a = 2.0 * k.exponent + 1.0
        if a <= 0.0:
            raise WrongVariant("raw_power kernel is not square integrable")
        return t**a / a
    # gamma: int u^(2H-1) e^(-2 lam u) du in closed incomplete-gamma form
    H, lam = k.hurst, k.decay
    a = 2.0 * H
    return float(
        gammainc(a, 2.0 * lam * t) * gamma_fn(a) / ((2.0 * lam) ** a * gamma_fn(H + 0.5) ** 2)
    )


# ---------------------------------------------------------------------------
# product-integration quadrature
# ---------------------------------------------------------------------------


@dataclass
class ConvWeights:
    """Quadrature turning nodal values into (K * f)(t_i) for PL integrands.

    (K f)_i = (w * f)_i - shift_(i+1) f_0,  a discrete convolution plus a
    boundary correction; ``apply`` uses FFT convolution.
    """

    grid: TimeGrid
    w: np.ndarray
    shift: np.ndarray
    moment0: np.ndarray = field(repr=False, default=None)

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            conv = fftconvolve(self.w, v)[: len(v)]
            out = conv - self.shift[1 : len(v) + 1] * v[0]
            out[0] = 0.0
            return out
        cols = [self.apply(v[:, j]) for j in range(v.shape[1])]
        return np.stack(cols, axis=1)

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
    if not k.is_scalar_conv:
        raise WrongVariant("conv_weights applies to scalar convolution kernels")
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
    return ConvWeights(grid=grid, w=w, shift=np.concatenate([[0.0], P]), moment0=M0)


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


@dataclass
class RegularityReport:
    kernel: KernelSpec
    gamma_claim: float
    h_values: np.ndarray
    functional: np.ndarray
    fitted_slope: float
    tolerance: float
    passed: bool


def _shift_term(k: KernelSpec, h: float, T: float, n_sub: int = 6000) -> float:
    """int_0^T (K(t+h) - K(t))^2 dt on a singularity-graded grid."""
    if k.variant == "constant":
        return 0.0
    q = max(1.0, 2.0 / k.gamma_reg)
    x = np.linspace(0.0, 1.0, n_sub + 1)[1:]
    t = T * x**q
    dtdx = T * q * x ** (q - 1.0)
    diff = eval_conv(k, t + h) - eval_conv(k, t)
    return float(np.trapezoid(diff**2 * dtdx, x))


def check_regularity(
    k: KernelSpec,
    gamma_claim: float,
    h_grid,
    horizon: float = 1.0,
    tolerance: float = 0.05,
) -> RegularityReport:
    """Fit the log-log slope of int_0^h K^2 + int_0^T (K(.+h) - K)^2.

    Passes when the fitted slope is >= gamma_claim - tolerance (0.05 absolute
    by default, the discretization noise of a dyadic fit).
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
        tolerance=tolerance,
        passed=bool(slope >= gamma_claim - tolerance),
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
