"""Simulation of the rescaled rough-volatility systems.

Gaussian Volterra components (Stein-Stein and Bergomi volatility drivers,
multifactor Z factors) are sampled exactly: per driving factor the joint
Gaussian vector (Z_(t_1)..Z_(t_n), dW_1..dW_n) is drawn through the Cholesky
factor of its exact covariance, Z first and its nodes in reverse time order,
whose blocks come from the kernel's cell integrals and autocovariance.  With
Z first the factor is [[L_R, 0], [M, L_S]], so Z is one n x n product of the
factor's n Z normals alone and dW one product of all 2n normals with the
factor's dW rows; with the nodes reversed, node t_i reads only the first
n - i + 1 of the Z normals, the terminal node the first one
(``GaussianFactor``).  Non-Gaussian components (Heston volatility,
every log-price component) use left-point Euler with exact cell-integral
weights, so the singular kernel is never sampled at lag zero.  Every cell
integral is read from ``kernels.conv_weights(...).cells``, the one source of
them: the Cholesky cross block is their lower-triangular Toeplitz matrix and
the Heston weights their first n entries.  The rough Heston history sum is
one product with a lower-triangular Toeplitz matrix of interleaved drift and
noise weights, taken in blocks of _HISTORY_STEPS steps: one GEMM adds the far
history (every step before the block) to the whole block, and one short
product per step the near history (the block's own steps).  Every model runs
through one chunk loop over its channels, and each path's stream holds their
normals in three sections (``_stream_ends``): n Z normals per Gaussian
factor, then n dW normals per volatility channel (a factor's second n, rough
Heston's Euler increments), then n for the orthogonal price noise.
``_scales`` gives every power of eps the two rescalings apply, and a model's
``tail_degree`` (None: no tail rescaling) is the one tail catalogue.

Controlled simulation tilts every channel by one formula.  On a channel the
control's tilt s (int v dW + sum c Z_(t_end)) is eta . xi on its standard
normals xi (``_plan_control``, ``GaussianFactor.tilt``): a chunk shifts xi by
eta before sampling and adds -eta . xi - |eta|^2 / 2 on the unshifted xi to
the log weight, the exact likelihood ratio of the law simulated (Cholesky
bump included) at any grid size.  A kernel section must sit on a Gaussian
factor's channel and carry that factor's kernel, or the run raises
InvalidModel; it must end on a grid node, or the run raises
KernelDomainError.  Both fail before any draw.

Randomness comes from counter-based per-path Philox streams keyed by
(seed, path index), seeds being integers in [0, 2^63), with normals via
inverse CDF: a path's row equals ndtri(Generator(Philox(key=[seed, path]))
.random(count)) bit for bit, realised by one generator per chunk whose state
is reset to the path's key and counter 0 before each row, from one state dict
of plain lists whose key word is rewritten in place.  Per-path BLAS
products run in fixed 64-path blocks aligned to the path index, and the
rough Heston history sum runs time-major, (steps, paths), in blocks aligned
the same way whose width is fixed per run, so ensembles are bit-identical for
a given seed regardless of chunking or worker threads.  The width is 1024
paths, or the path count rounded up to a multiple of 64 when that is less,
so a small run does not pay for a full block.  A rough Heston path is
therefore guaranteed bit-identical to the same path of a larger run only when
both runs have more than 960 paths (one width); otherwise the two agree to the
history sum's accuracy (with OpenBLAS they came out equal in every case
tried), which matches the path-major double sum of its formula to 1e-12 of
the path's sup norm, except on a path whose variance touches zero, where the
square root amplifies last-bit rounding (1.2e-11 on one of 20k paths at
n = 128).

Paths run in chunks of one history width, 1024 paths aligned to the path
index (_CHUNK_PATHS; the whole run when it is smaller), so a rough Heston
chunk is exactly one history block.  Per-run set-up (the channels, the
stream sections drawn, the tilt, rough Heston's weights) is done once, not
per chunk.  Each
worker thread allocates its scratch (``_Scratch``) once per run and reuses it
for every chunk it takes: the normals block, in which an Euler channel's dW
is its normals scaled in place, the Gaussian factors' Z and dW, the
volatility Y and rough Heston's history block.  A chunk's columns are copied into the run's
arrays before its worker takes the next chunk, and the scratch is freed when
the run returns, so the working set is the output plus threads x one chunk's
scratch (about 4 MiB for rough Heston at n = 128).
``nodes=`` keeps only the listed grid columns and ``components=`` only the
listed components (sorted, unique indices; all by default): each chunk
builds its whole paths and selects before the MDP rescaling, so a kept value
is bit for bit the one a full run returns, and a terminal-only run holds
O(paths) memory instead of the (paths, n+1, d) tensor.  A run that does not
keep the log price (component 0) skips it and draws each path's stream only
up to the last section it reads or tilts: without the orthogonal noise when
its orthogonal control is zero, and, for a Gaussian model that reads no dW
(no ``PRICE_MOMENTS`` sums) under a tilt without a dW part (an uncontrolled
run, a kernel-section tilt), the Z normals alone.  Such a run draws them
only up to the last normal it reads (``_z_drawn``): its earliest kept node
t_i reads n - i + 1 of the last factor's normals, a section ending at t_i
tilts no later one, and every factor but the last is drawn whole, so an
m-factor run keeping nodes from t_i on draws (m - 1) n + n - i + 1 normals
per path and a one-factor terminal-event run one (Stein-Stein's Euler drift
reads every node, so it draws all n).  The rest of the Z section is
zero-filled and goes through the same products as a full run's draws.
Rough Heston always draws its n Euler increments.  That is exact: the
prefix of a stream does not depend on its length, the log weight adds up
section by section, and a normal the tilt and the kept values leave at zero
weight adds exactly 0 to them.  ``PathEnsemble.normals_per_path`` records
the normals a run drew.

Each chunk makes one ``_volatility`` call and one reducer (``_Reducer``)
call; the per-path columns are written in path order, so a reduction over
the whole array does not depend on chunking or threads.  The default keeps
the selected nodes and components; ``PRICE_MOMENTS`` gives each path's
conditional mean and variance of the terminal log price given its volatility
(``_price_moments``), which the mixing Monte Carlo smile
(``implied_vol.mc_smile``) prices from a volatility-only run, from each
path's left-node sums: rough Heston adds them up step by step in its history
loop (no (paths, n+1) volatility), the path-major sums to rounding.
Worker threads come from the ``threads`` argument or VD_THREADS; anything but
a positive integer raises ConfigError.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import (
    ConfigError,
    FactorizationFailure,
    InvalidModel,
    KernelDomainError,
    NotApplicable,
)
from .frac_calculus import Control
from .kernels import KernelSpec, TimeGrid, conv_weights, power_law

__all__ = [
    "RoughSteinStein",
    "RoughBergomi",
    "RoughHeston",
    "MultiRoughBergomi",
    "ScalingRegime",
    "small_time_ldp",
    "small_time_mdp",
    "tail_ldp",
    "tail_mdp",
    "PathEnsemble",
    "simulate",
    "simulate_controlled",
    "default_threads",
]

_BLAS_ROWS = 64
_HISTORY_PATHS = 1024
_HISTORY_STEPS = 32
_CHUNK_PATHS = _HISTORY_PATHS  # paths per chunk: one history width


# ---------------------------------------------------------------------------
# scaling regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRegime:
    """One of small_time_ldp / small_time_mdp / tail_ldp / tail_mdp.

    ``eps`` is the small parameter of the rescaled system; ``beta`` the MDP
    interpolation exponent (in (0, H) for small time, (0, 1) for tails),
    which an LDP regime does not take.
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
        elif self.beta is not None:
            raise ValueError(f"beta is an MDP exponent; {self.kind} takes none")

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
    """Regime checks and the scalar coefficient catalogue.

    A scalar model states its limit-equation coefficients once: ``sigma_sq``
    (Sigma, the price variance of the volatility state), ``zeta``,
    ``sigma_sq_prime`` (Sigma', for the terminal solver's gradients) and the
    class flag ``zeta_constant``.  Here each raises NotApplicable, as it stays
    for the multifactor model.  ``rho_bar`` = sqrt(1 - sum rho_j^2) is the
    loading of the orthogonal price noise, for one rho or one per factor.
    """

    def _no_catalogue(self, y=None):
        raise NotApplicable(f"{type(self).__name__} catalogues no such scalar coefficient")

    sigma_sq = zeta = sigma_sq_prime = _no_catalogue
    zeta_constant = property(_no_catalogue)
    tail_degree = None  # Y scales as eps^tail_degree in the tail; None: no tail rescaling

    def validate_regime(self, regime: ScalingRegime):
        if regime.kind == "small_time_mdp" and regime.beta >= self.min_hurst:
            raise InvalidModel("small-time MDP needs beta in (0, H)")
        if regime.kind == "tail_mdp" and regime.beta >= 1.0:
            raise InvalidModel("tail MDP needs beta in (0, 1)")

    @property
    def min_hurst(self) -> float:
        return self.hurst

    @property
    def rho_bar(self) -> float:
        return math.sqrt(1.0 - float(np.sum(np.asarray(self.rho, dtype=float) ** 2)))


def _check_common(hurst: float, rho: float, *params: float):
    if not 0.0 < hurst <= 0.5:
        raise InvalidModel("hurst must lie in (0, 1/2]")
    if not -1.0 < rho < 1.0:
        raise InvalidModel("|rho| must be < 1")
    if not all(math.isfinite(x) for x in params):
        raise InvalidModel("model parameters must be finite")


@dataclass(frozen=True)
class RoughSteinStein(_ModelBase):
    """Sigma(y) = y^2 (Sigma' = 2y), zeta = xi, drift kappa (theta - y) with flat kernel."""

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

    def sigma_sq_prime(self, y):
        return 2.0 * np.asarray(y, dtype=float)

    def zeta(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.xi)

    zeta_constant = True
    tail_degree = 1


@dataclass(frozen=True)
class RoughBergomi(_ModelBase):
    """Y = log V; Sigma(y) = Sigma'(y) = exp(y), zeta = 1, deterministic drift -a t^(2H)."""

    a: float
    rho: float
    y0: float
    hurst: float

    def __post_init__(self):
        _check_common(self.hurst, self.rho, self.a, self.y0)

    def sigma_sq(self, y):
        return np.exp(np.asarray(y, dtype=float))

    sigma_sq_prime = sigma_sq

    def zeta(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    zeta_constant = True


@dataclass(frozen=True)
class RoughHeston(_ModelBase):
    """Sigma(y) = max(y, 0), zeta(y) = xi sqrt(Sigma(y)), drift kappa (theta - y) * K.

    Sigma floors at 0, as the simulator's full truncation does, so a state
    that goes transiently negative carries no price variance.  The model
    catalogues no Sigma': its terminal solver in ``rate_functions`` works in
    the integrand z = zeta(vphi) v instead.

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
        return np.maximum(np.asarray(y, dtype=float), 0.0)

    def zeta(self, y):
        return self.xi * np.sqrt(self.sigma_sq(y))

    zeta_constant = False
    tail_degree = 2


@dataclass(frozen=True)
class MultiRoughBergomi(_ModelBase):
    """m-factor log-volatility Y = y0 + L Z - a t^(2 H_1).

    ``loadings`` is lower triangular; ``hurst`` entries are sorted ascending
    and sum(rho_j^2) < 1.  The price form sum_j exp(Y_j / 2) has no scalar
    coefficient catalogue: ``sigma_sq``, ``zeta``, ``sigma_sq_prime`` and
    ``zeta_constant`` raise NotApplicable.
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
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise InvalidModel("loadings must be square")
        m = L.shape[0]
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


Model = RoughSteinStein | RoughBergomi | RoughHeston | MultiRoughBergomi


# ---------------------------------------------------------------------------
# path ensembles
# ---------------------------------------------------------------------------


@dataclass
class PathEnsemble:
    """Simulated paths (n_paths, len(nodes), len(components)) with optional Girsanov weights.

    ``nodes`` are the grid indices and ``components`` the component indices
    (0 the log price, 1.. the volatilities) the ensemble holds, sorted and
    unique.  A run asked for fewer keeps its full grid, path count and
    weights, and each value it holds equals bit for bit the same entry of the
    full run.  ``component_at`` reads one held node; ``component`` needs
    every node.  Both raise KernelDomainError rather than return a column the
    ensemble does not hold.  ``bump`` is the largest
    Cholesky bump (``GaussianFactor.bump``) of the run's factors (0.0 for
    rough Heston, whose factors are Euler increments), and
    ``normals_per_path`` the normals the run drew per path, the prefix of
    each path's stream that it read.
    """

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    log_weights: np.ndarray | None
    model: Model
    regime: ScalingRegime
    nodes: np.ndarray
    bump: float
    components: np.ndarray
    normals_per_path: int

    def component(self, j: int) -> np.ndarray:
        """Component j at every grid node, (n_paths, n+1)."""
        if len(self.nodes) != len(self.grid):
            raise KernelDomainError(
                f"ensemble holds {len(self.nodes)} of {len(self.grid)} nodes; use component_at"
            )
        return self.paths[:, :, _held(self.components, j, "component")]

    def component_at(self, j: int, node: int) -> np.ndarray:
        """Component j at grid node ``node``, (n_paths,)."""
        pos = _held(self.nodes, node, "grid node")
        return self.paths[:, pos, _held(self.components, j, "component")]

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def weights(self) -> np.ndarray:
        if self.log_weights is None:
            return np.ones(self.n_paths)
        return np.exp(self.log_weights)


def _held(held: np.ndarray, index, what: str) -> int:
    """Position of ``index`` in the sorted array ``held``; KernelDomainError if absent."""
    pos = int(np.searchsorted(held, index))
    if pos == len(held) or held[pos] != index:
        raise KernelDomainError(f"ensemble does not hold {what} {index!r}")
    return pos


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def _normal_block(
    seed: int, path_indices, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse-CDF normals, one independent Philox stream per path.

    Row r is ndtri(Generator(Philox(key=[seed, path_indices[r]])).random(count)),
    written into ``out`` ((len(path_indices), count), each row contiguous: a
    column slice of a C-contiguous block will do) when given.
    One generator serves every row: before each draw its state is set to
    counter 0, the row's key and an empty buffer, which skips the entropy
    seeding a fresh Philox pays only to have its key overwritten.  The state
    is one dict of plain lists whose key word is rewritten in place (the
    setter reads lists faster than arrays), so a row costs the Philox fill
    and ``ndtri`` and little else.
    """
    if out is None:
        out = np.empty((len(path_indices), count))
    key = [int(seed), 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": key},
        "buffer": [0] * 4,
        "buffer_pos": 4,  # empty buffer
        "has_uint32": 0,
        "uinteger": 0,
    }
    bg = np.random.Philox(key=key)
    random = np.random.Generator(bg).random
    for row, pid in zip(out, np.asarray(path_indices).tolist()):
        key[1] = pid
        bg.state = state
        random(out=row)
    return ndtri(out, out=out)


def _aligned_blocks(first: int, count: int, width: int):
    """(lo, i, j) for width-path blocks aligned to the path index.

    Rows i:j of a chunk whose first path is ``first`` fill rows i-lo:j-lo of
    a block; lo < 0 only for the first, partly filled block.
    """
    for lo in range(-(first % width), count, width):
        yield lo, max(lo, 0), min(lo + width, count)


def _aligned_matmul(
    a: np.ndarray, b: np.ndarray, first: int, out: np.ndarray | None = None
) -> np.ndarray:
    """a @ b for paths first, first+1, ..., one BLAS call per aligned block.

    BLAS picks kernels and thread splits by shape, so one product over a
    chunk would round a path according to the number of paths sharing it.
    Blocks of _BLAS_ROWS rows, aligned to the path index, give every path the
    same value in every chunking: a full block multiplies its rows in place,
    a partial edge block is zero-padded to the full height first.  The
    product is written to ``out`` when given (it may be a column slice).
    """
    if out is None:
        out = np.empty((len(a),) + b.shape[1:])
    for lo, i, j in _aligned_blocks(first, len(a), _BLAS_ROWS):
        if j - i == _BLAS_ROWS:
            np.matmul(a[i:j], b, out=out[i:j])
        else:
            block = np.zeros((_BLAS_ROWS, a.shape[1]))
            block[i - lo : j - lo] = a[i:j]
            out[i:j] = (block @ b)[i - lo : j - lo]
    return out


def default_threads() -> int:
    """Worker threads: VD_THREADS if set (a positive integer), else the CPU count."""
    env = os.environ.get("VD_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"VD_THREADS must be a positive integer, got {env!r}") from None
    return _check_threads(n, "VD_THREADS")


def _check_threads(n, source: str) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigError(f"{source} must be a positive integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# Gaussian factor machinery
# ---------------------------------------------------------------------------

class GaussianFactor:
    """Joint law of (Z nodes, dW cells) for one Volterra factor.

    The joint (2n, 2n) covariance is taken Z first, with the nodes in reverse
    time order (t_n first, t_1 last), as a Brownian bridge builds a path from
    its end.  Its lower Cholesky factor is [[L_R, 0], [M, L_S]]: L_R factors
    the reversed nodes' autocovariance R, M = cross^T L_R^-T (cross the
    Cov(Z, dW) block of cell integrals, rows reversed) and L_S the Schur
    complement dt I - M M^T.  So Z = L_R xi_z reads a factor's first n
    normals alone, and node t_i its first n - i + 1 of them (the terminal
    node the first one only); dW = M xi_z + L_S xi_w reads all 2n.  The
    factor keeps only the rows ``sample`` and ``tilt`` read: ``z_rows``
    (n, n), L_R^T with its columns put back in node order, so Z comes out as
    Z_(t_1)..Z_(t_n) and column i - 1 is zero below row n - i, and
    ``dw_rows`` = [M L_S]^T (2n, n).  ``bump`` is the diagonal shift the
    Cholesky factorisation needed, a 1e-12 share of the mean variance; 0.0
    when the covariance factorised as is.
    """

    def __init__(self, kernel: KernelSpec, grid: TimeGrid):
        self.kernel = kernel
        self.grid = grid
        n = grid.n_steps
        t = grid.nodes[:0:-1]  # t_n .. t_1
        cells = conv_weights(kernel, grid).cells
        C = np.zeros((2 * n, 2 * n))
        C[:n, :n] = kernel.autocovariance(t[:, None], t[None, :])
        # cross block Cov(Z_i, dW_j): the integral of K over lag cell i - j,
        # its rows in the Z block's reverse order
        lag = np.arange(n)
        cross = np.tril(cells[lag[:, None] - lag[None, :]])[::-1]
        C[:n, n:] = cross
        C[n:, :n] = cross.T
        C[n:, n:] = grid.dt * np.eye(n)
        self.bump = 0.0
        try:
            chol = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            self.bump = float(1e-12 * np.trace(C) / (2 * n))
            C[np.diag_indices(2 * n)] += self.bump
            try:
                chol = np.linalg.cholesky(C)
            except np.linalg.LinAlgError as exc:
                raise FactorizationFailure(
                    "joint kernel covariance is not numerically PSD"
                ) from exc
        del C  # before the row copies: the construction peaks 16 MiB lower at n = 1024
        self.z_rows = np.ascontiguousarray(chol[:n, :n].T[:, ::-1])
        self.dw_rows = np.ascontiguousarray(chol[n:].T)

    def tilt(self, l_dw: np.ndarray, l_z: np.ndarray) -> np.ndarray:
        """eta = chol.T @ (l_z, l_dw): l_z . Z_(t_1..t_n) + l_dw . dW as eta . (xi_z, xi_w)."""
        eta = self.dw_rows @ l_dw
        eta[: self.grid.n_steps] += self.z_rows @ l_z
        return eta

    def sample(
        self,
        normals: np.ndarray,
        first: int,
        Z: np.ndarray | None = None,
        dW: np.ndarray | None = None,
    ):
        """normals of paths first.. -> (dW (paths, n) or None, Z (paths, n+1)).

        ``normals`` are (xi_z, xi_w), (paths, 2n), or xi_z alone, (paths, n),
        and the draw is the matching columns of (xi_z, xi_w) @ chol.T: Z is
        xi_z times the Z rows, dW (only with xi_w) all 2n normals times the dW
        rows.  Z is written to ``Z`` when given (its first column must be
        zero) and dW to ``dW``.
        """
        n = self.grid.n_steps
        if Z is None:
            Z = np.zeros((len(normals), n + 1))
        _aligned_matmul(normals[:, :n], self.z_rows, first, out=Z[:, 1:])
        if normals.shape[1] == n:
            return None, Z
        return _aligned_matmul(normals, self.dw_rows, first, out=dW), Z


@functools.lru_cache(maxsize=8)
def _factor(kernel: KernelSpec, grid: TimeGrid) -> GaussianFactor:
    """Cached factor; at n=1024 each one holds its 1024^2 Z rows (8 MiB, the
    upper triangle of the reversed-order factor with its columns put back in
    node order, so about half of them are zeros) and its 2048 x 1024 dW rows
    (16 MiB), 24 MiB in all (its construction peaks at 80 MiB, the joint
    covariance and Cholesky factor included).
    """
    return GaussianFactor(kernel, grid)


def _hursts(model: Model) -> tuple:
    return tuple(model.hurst) if isinstance(model, MultiRoughBergomi) else (model.hurst,)


def _channels(model: Model, grid: TimeGrid) -> list:
    """Volatility factors, then the orthogonal price noise; None marks Euler increments."""
    if isinstance(model, RoughHeston):
        return [None, None]
    return [*(_factor(power_law(float(H)), grid) for H in _hursts(model)), None]


# ---------------------------------------------------------------------------
# control tilts
# ---------------------------------------------------------------------------


def _plan_control(control: Control, channels: list, grid: TimeGrid, s_mult: float) -> np.ndarray:
    """The tilt eta of a path's whole stream, in its layout (``_stream_ends``).

    eta pairs with the normals as s (sum v_(t_i) dW_i + sum c Z_(t_end))
    pairs with the draws: chol.T l on a Gaussian factor's (xi_z, xi_w),
    sqrt(dt) s v on Euler increments.
    """
    vals = control.values.values
    if vals.ndim == 1:
        vals = vals[:, None]
    n_vol, n_ch = len(channels) - 1, vals.shape[1]
    if n_ch not in (n_vol, n_vol + 1):
        raise InvalidModel(
            f"control carries {n_ch} channels, model drives {n_vol} (+1 orthogonal)"
        )
    n = grid.n_steps
    l_z = np.zeros((len(channels), n))
    for sec in control.sections:
        j = sec.channel
        f = channels[j] if 0 <= j < len(channels) else None
        if f is None or sec.kernel != f.kernel:
            raise InvalidModel(f"channel {j} has no Gaussian factor with the section's kernel")
        i_end = grid.node_index(sec.t_end)
        if i_end > 0:  # Z_0 = 0: a section ending at t = 0 tilts nothing
            l_z[j, i_end - 1] += sec.coeff
    z_parts, dw_parts = [], []
    for j, f in enumerate(channels):
        l_dw = s_mult * (vals[:-1, j] if j < n_ch else np.zeros(n))
        if f is None:
            dw_parts.append(math.sqrt(grid.dt) * l_dw)
        else:
            eta = f.tilt(l_dw, s_mult * l_z[j])
            z_parts.append(eta[:n])
            dw_parts.append(eta[n:])
    return np.concatenate(z_parts + dw_parts)


# ---------------------------------------------------------------------------
# public simulation API
# ---------------------------------------------------------------------------


def simulate(
    model: Model,
    regime: ScalingRegime,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int | None = None,
    nodes: Sequence[int] | None = None,
    components: Sequence[int] | None = None,
    *,
    _reduce: _Reducer | None = None,
) -> PathEnsemble:
    """Plain simulation of the rescaled system under the given regime.

    ``nodes`` (sorted, unique grid indices; every node by default) are the
    columns the returned ensemble keeps, ``components`` (sorted, unique
    indices in [0, 1+m), 0 the log price; every component by default) the
    components.  A run without component 0 skips the log price and its noise.
    ``_reduce`` is the library's private per-chunk reducer hook (``_Reducer``);
    with it, ``paths`` holds the reducer's per-path columns instead
    (``PRICE_MOMENTS``: each path's (m, v), shape (n_paths, 2)).
    """
    return _simulate_impl(
        model, regime, grid, n_paths, seed, None, threads, nodes, components, _reduce
    )


def simulate_controlled(
    model: Model,
    regime: ScalingRegime,
    control: Control,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    threads: int | None = None,
    nodes: Sequence[int] | None = None,
    components: Sequence[int] | None = None,
) -> PathEnsemble:
    """Girsanov-shifted simulation with per-path log importance weights.

    The control channels follow the driving-noise layout (v on the volatility
    factor(s) first, u on the orthogonal price noise last); the regime
    determines the shift strength (theta_eps^-1 for LDP, h_eps for MDP).
    ``nodes`` and ``components`` select what the ensemble keeps as in
    ``simulate``; a run without component 0 still draws the orthogonal noise
    when u is not zero, because the weights need it.
    """
    if control is None:
        raise ValueError("use simulate() for uncontrolled runs")
    if control.grid != grid:
        raise InvalidModel(f"control lives on {control.grid}, simulation on {grid}")
    return _simulate_impl(model, regime, grid, n_paths, seed, control, threads, nodes, components)


def _scales(model: Model, regime: ScalingRegime) -> tuple:
    """(theta, clock, drift, level): every power of eps the simulator applies.

    theta scales the noise, clock the flat-kernel drift's time, drift the
    kernel and price drifts, level the volatility state.  Small time is
    (eps^H, eps, eps^(H+1/2), 1) with H the smallest Hurst index; the tail is
    (eps, 1, 1, eps^tail_degree).
    """
    eps = regime.eps
    if regime.is_tail:
        return eps, 1.0, 1.0, eps**model.tail_degree
    H = model.min_hurst
    return eps**H, eps, eps ** (H + 0.5), 1.0


def check_components(model: Model, components) -> np.ndarray:
    """Kept components: 0 the log price, then one per volatility factor."""
    return _check_kept("components", components, 1 + len(_hursts(model)))


def _check_kept(name: str, kept, size: int) -> np.ndarray:
    """Indices to keep: a non-empty, strictly increasing integer sequence in [0, size)."""
    if kept is None:
        return np.arange(size)
    arr = np.asarray(kept)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise InvalidModel(f"{name} must be a non-empty sequence of integers, got {kept!r}")
    arr = arr.astype(np.intp)  # unsigned differences would wrap around
    if arr[0] < 0 or arr[-1] >= size or np.any(np.diff(arr) <= 0):
        raise InvalidModel(
            f"{name} must be sorted, unique indices in [0, {size - 1}], got {kept!r}"
        )
    return arr


def _stream_ends(channels: list, n: int) -> tuple:
    """Ends of a path's three stream sections, in normals: every Gaussian
    factor's n Z normals (xi_z), then every volatility channel's n dW normals
    (a factor's xi_w, an Euler channel's increments), then the orthogonal
    noise's n.  The models' volatility channels are all Gaussian factors or
    all Euler, so factor j's xi_z and xi_w start at j n and at the first end
    plus j n.  Within a factor's xi_z the terminal node reads the first
    normal and node t_i the first n - i + 1 (``GaussianFactor``), so a run
    that reads only Z may stop inside the last factor's xi_z (``_z_drawn``).
    """
    z_end = n * sum(f is not None for f in channels)
    dw_end = z_end + n * (len(channels) - 1)
    return z_end, dw_end, dw_end + n


class _Reducer(NamedTuple):
    """A per-chunk reducer: fn(model, regime, grid, vol, dWs) -> (rows, *shape) per-path columns.

    ``vol`` is what ``_volatility`` returns for the chunk: its volatility
    components (rows, n+1, m), or with ``sums`` each path's left-node sums
    (sum Sigma_i, sum sqrt(Sigma_i) dW_i per volatility channel).  ``dWs`` are
    the volatility channels' shifted increments when the run draws them (not
    in a volatility-only Gaussian run), then the orthogonal noise when it is
    drawn.  Both may be views of the worker's scratch, and so may the columns
    fn returns.
    """

    fn: Callable
    shape: tuple
    sums: bool = False


def _keep(nodes, comps, n_grid: int) -> _Reducer:
    """The default reducer: each path's kept nodes and components.

    The whole path is built first and then selected, so a kept value goes
    through the same operations as in a full run; the log price is built only
    when component 0 is kept.
    """
    # a slice keeps the full-path run free of a per-chunk gather copy
    cols = slice(None) if len(nodes) == n_grid else nodes

    def reduce(model, regime, grid, Y, dWs):
        if comps[0] == 0:
            X = _log_price(model, regime, grid, Y, dWs)
            out, picks = np.concatenate([X[:, cols, None], Y[:, cols]], axis=2), comps
        else:
            out, picks = Y[:, cols], comps - 1  # Y holds components 1..m
        if len(picks) < out.shape[2]:
            out = out[:, :, picks]
        return _to_mdp_frame(out, model, regime, comps)

    return _Reducer(reduce, (len(nodes), len(comps)))


class _Run(NamedTuple):
    """What every chunk of one run shares, set up once per run.

    ``channels`` are the model's channels (``_channels``), ``ends`` the ends
    of the stream sections the run reads (``_stream_ends``, a prefix of them;
    Heston's empty Z section left out), ``drawn`` the normals drawn per path,
    ends[-1] or, in a run that reads only Z, fewer (``_z_drawn``; the rest of
    the section is zero-filled), ``eta`` the tilt of the read normals (None
    when uncontrolled) and ``heston`` rough Heston's history weights (None for
    the Gaussian models).
    """

    model: Model
    regime: ScalingRegime
    grid: TimeGrid
    seed: int
    channels: list
    ends: list
    drawn: int
    eta: np.ndarray | None
    reduce: _Reducer
    heston: _HestonHistory | None


class _Scratch:
    """One worker's chunk arrays, allocated once per run and reused by every chunk it takes.

    ``normals`` holds a chunk's draws, and an Euler channel's dW is its own
    normals scaled in place; ``Z`` has one (rows, n+1) array per Gaussian
    factor (None on Euler channels), its first column zero, and ``dW`` one
    (rows, n) array per Gaussian factor when the run draws its xi_w; ``Y`` is
    the Gaussian models' volatility (rows, n+1, m) and ``history`` rough
    Heston's history block (``_HestonHistory.scratch``).  A chunk of r paths
    uses the first r rows.  The reducer's columns may be views of them, so a
    chunk's output is copied out before the worker's next chunk.
    """

    def __init__(self, run: _Run, rows: int):
        n = run.grid.n_steps
        vol = run.channels[:-1]
        self.normals = np.empty((rows, run.ends[-1]))
        self.Z = [None if f is None else np.zeros((rows, n + 1)) for f in vol]
        draws_dw = run.ends[-1] > _stream_ends(run.channels, n)[0]
        self.dW = [np.empty((rows, n)) if f is not None and draws_dw else None for f in vol]
        if run.heston is None:
            self.Y, self.history = np.empty((rows, n + 1, len(_hursts(run.model)))), None
        else:
            self.Y, self.history = None, run.heston.scratch()


def _simulate_impl(
    model, regime, grid, n_paths, seed, control, threads, nodes, components, reduce=None
):
    """Validate, set the run up once, then run its chunks on the worker threads.

    Chunks are _CHUNK_PATHS paths aligned to the path index (one history
    width; the whole run when it is smaller).  Each worker allocates one
    ``_Scratch``, takes chunks in turn until none is left and copies each
    chunk's columns and log weights into the run's arrays before taking the
    next; its scratch is freed when the run returns.
    """
    model.validate_regime(regime)
    if regime.is_tail and model.tail_degree is None:
        raise InvalidModel(f"tail rescaling is not defined for {type(model).__name__}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**63:
        raise InvalidModel(f"seed must be an integer in [0, 2^63), got {seed!r}")
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise InvalidModel(f"n_paths must be a positive integer, got {n_paths!r}")
    nodes = _check_kept("nodes", nodes, len(grid))
    comps = check_components(model, components)
    read = nodes if reduce is None else None  # the nodes the reducer reads; None: all
    if reduce is None:
        reduce = _keep(nodes, comps, len(grid))
    channels = _channels(model, grid)
    eta = None
    if control is not None:
        s_mult = regime.h_eps() if regime.is_mdp else 1.0 / _scales(model, regime)[0]
        eta = _plan_control(control, channels, grid, s_mult)
    # a run draws the stream up to the last section it reads or that its tilt
    # touches: the Z normals always, the dW normals for the log price, the
    # left-node sums or an Euler volatility, the orthogonal noise for the log
    # price.  A section it skips has a zero tilt and would add exactly 0 to
    # the log weight, and a stream's prefix does not depend on its length
    ends = _stream_ends(channels, grid.n_steps)
    reads = (True, comps[0] == 0 or reduce.sums or channels[0] is None, comps[0] == 0)
    last = max(
        k for k, lo in enumerate((0, *ends[:2]))
        if reads[k] or (eta is not None and np.any(eta[lo : ends[k]]))
    )
    ends = [e for e in ends[: last + 1] if e > 0]  # Heston has no Z normals
    if eta is not None:
        eta = eta[: ends[-1]]
    # a run that reads only Z reads a prefix of it
    drawn = _z_drawn(model, read, eta, ends[0]) if last == 0 else ends[-1]
    n_threads = default_threads() if threads is None else _check_threads(threads, "threads")
    heston = None
    if isinstance(model, RoughHeston):
        # the run's size, never the chunk's, sets the history width
        width = min(_HISTORY_PATHS, _BLAS_ROWS * -(-n_paths // _BLAS_ROWS))
        heston = _HestonHistory(model, regime, grid, width)
    run = _Run(model, regime, grid, seed, channels, ends, drawn, eta, reduce, heston)
    rows = min(_CHUNK_PATHS, n_paths)
    chunks = (range(lo, min(lo + rows, n_paths)) for lo in range(0, n_paths, rows))
    taking = threading.Lock()
    paths = np.empty((n_paths, *reduce.shape))
    logw = np.zeros(n_paths) if control is not None else None

    def worker():
        scratch = _Scratch(run, rows)
        while True:
            with taking:
                chunk = next(chunks, None)
            if chunk is None:
                return
            p, lw = _simulate_chunk(run, chunk, scratch)
            paths[chunk.start : chunk.stop] = p
            if logw is not None:
                logw[chunk.start : chunk.stop] = lw

    n_workers = min(n_threads, -(-n_paths // rows))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for done in [pool.submit(worker) for _ in range(n_workers)]:
                done.result()
    else:
        worker()
    return PathEnsemble(
        grid=grid, paths=paths, seed=seed, log_weights=logw, model=model, regime=regime,
        nodes=nodes, bump=max((f.bump for f in channels if f is not None), default=0.0),
        components=comps, normals_per_path=drawn,
    )


def _z_drawn(model: Model, nodes: np.ndarray | None, eta: np.ndarray | None, z_end: int) -> int:
    """Normals per path of a run that reads only Z: up to the last one a read
    node or the tilt ``eta`` needs.

    A factor's node t_i reads the factor's first n - i + 1 normals
    (``GaussianFactor``), and every factor but the last comes whole before it
    in the stream, so the earliest read node i >= 1 sets z_end - i + 1.
    Stein-Stein's Euler drift carries every node into the next, so its
    volatility reads from t_1; node 0 reads no normal.
    """
    read = [1] if nodes is None or isinstance(model, RoughSteinStein) else nodes[nodes > 0]
    count = z_end - int(read[0]) + 1 if len(read) else 0
    tilted = np.flatnonzero(eta) if eta is not None else ()
    return max(count, int(tilted[-1]) + 1) if len(tilted) else count


def _simulate_chunk(run: _Run, chunk: range, scratch: _Scratch):
    """The reducer's per-path columns and the log weights (None when uncontrolled).

    Every array of the chunk is rows of the worker's ``scratch``: an Euler
    channel's dW is its normals scaled in place, a Gaussian factor's Z and dW
    and the volatility are written into it.  The log weight adds up section by
    section of the stream, so a run that draws a shorter prefix has the same
    log weights as the full run, bit for bit.
    """
    rows, first, n = len(chunk), chunk.start, run.grid.n_steps
    draws = scratch.normals[:rows]
    if run.drawn:  # a run that keeps only node 0 reads no normal
        _normal_block(run.seed, np.arange(first, chunk.stop), run.drawn, out=draws[:, : run.drawn])
    # normals no read value needs: zeros take the same products as the full
    # run's draws, and a product that was zero stays exactly zero
    draws[:, run.drawn :] = 0.0
    lw = None
    if run.eta is not None:
        lw = np.zeros(rows)
        lo = 0
        for hi in run.ends:
            eta = run.eta[lo:hi]
            lw -= _aligned_matmul(draws[:, lo:hi], eta, first)
            lw -= 0.5 * float(eta @ eta)
            lo = hi
        draws += run.eta  # the chunk's own draws
    sqrt_h = math.sqrt(run.grid.dt)
    z_end, dw_end, _ = _stream_ends(run.channels, n)
    dWs, Zs = [], []
    for j, f in enumerate(run.channels[:-1]):
        xi_z = draws[:, j * n : (j + 1) * n]
        xi_w = draws[:, z_end + j * n : z_end + (j + 1) * n]
        if f is None:
            xi_w *= sqrt_h
            dW, Z = xi_w, None
        elif draws.shape[1] == z_end:  # a volatility-only run draws no xi_w
            dW, Z = f.sample(xi_z, first, scratch.Z[j][:rows])
        else:
            # (xi_z, xi_w) side by side, a view of the stream for one factor
            xi = draws[:, : 2 * n] if z_end == n else np.concatenate((xi_z, xi_w), axis=1)
            dW, Z = f.sample(xi, first, scratch.Z[j][:rows], scratch.dW[j][:rows])
        if dW is not None:
            dWs.append(dW)
        Zs.append(Z)
    if draws.shape[1] > dw_end:
        dW = draws[:, dw_end:]
        dW *= sqrt_h
        dWs.append(dW)
    vol = _volatility(run, dWs, Zs, first, scratch)
    return run.reduce.fn(run.model, run.regime, run.grid, vol, dWs), lw


def _volatility(run: _Run, dWs, Zs, first: int, scratch: _Scratch):
    """Volatility components (paths, n+1, m) from the shifted draws, or with
    the reducer's ``sums`` each path's left-node sums (paths, 1 + m): sum
    Sigma_i, then sum sqrt(Sigma_i) dW_i per volatility channel (``_left_vol``).

    Rough Heston takes the sums from its history loop and builds no Y
    (``_HestonHistory``).  The Gaussian models write Y into the scratch.
    Rough Bergomi is the one-factor case of the multifactor log volatility
    Y_i = y0_i - a_i (eps t)^(2 H_1) + eps^H_1 sum_j eps^(H_j - H_1) L_ij Z_j,
    with eps^H_1 and eps the theta and clock of ``_scales``.
    """
    model, regime, grid, sums = run.model, run.regime, run.grid, run.reduce.sums
    if run.heston is not None:
        vol = run.heston.volatility(dWs[0], first, sums, scratch.history)
        return vol if sums else vol[:, :, None]
    Y = scratch.Y[: len(Zs[0])]
    if isinstance(model, RoughSteinStein):
        _stein_stein_volatility(model, regime, grid, Zs[0], Y[:, :, 0])
    else:
        if isinstance(model, MultiRoughBergomi):
            L, y0, a = np.asarray(model.loadings, dtype=float), model.y0, model.a
        else:
            L, y0, a = np.ones((1, 1)), (model.y0,), (model.a,)
        hursts, eps, H1 = _hursts(model), regime.eps, model.min_hurst
        theta, clock = _scales(model, regime)[:2]
        for i in range(len(hursts)):
            Yi = np.multiply(Zs[0], L[i, 0], out=Y[:, :, i])  # H_1 is the first Hurst index
            for j in range(1, len(hursts)):
                Yi += eps ** (float(hursts[j]) - H1) * L[i, j] * Zs[j]
            Yi *= theta
            Yi += y0[i] - a[i] * (clock * grid.nodes) ** (2 * H1)
    if not sums:
        return Y
    sig_sq, sig = _left_vol(model, Y)
    cols = [np.sum(sig_sq, axis=1)]
    del sig_sq
    return np.stack(cols + [np.sum(sig * dW, axis=1) for dW in dWs[: Y.shape[2]]], axis=1)


def _stein_stein_volatility(model, regime, grid, Z, Y):
    """Left-point Euler for the flat-kernel mean reversion plus exact noise, into Y (paths, n+1)."""
    n = grid.n_steps
    h = grid.dt
    npaths = Z.shape[0]
    theta, clock, _, level = _scales(model, regime)
    y_start, drift_target = level * model.y0, level * model.theta
    drift_rate, noise = clock * model.kappa, theta * model.xi
    Y[:, 0] = y_start
    acc = np.zeros(npaths)
    for i in range(1, n + 1):
        acc = acc + drift_rate * (drift_target - Y[:, i - 1]) * h
        Y[:, i] = y_start + acc + noise * Z[:, i]


class _HestonHistory:
    """Volterra-Euler with exact kernel moments and full truncation.

    Y_i = y_start + sum_(j<i) mom_(i-j) [drift_amp (theta_lvl - Y_j^+)
                                         + noise_amp sqrt(Y_j^+) dW_j / h],
    mom_m the integral of K over [(m-1)h, mh]; (y_start, theta_lvl, drift_amp,
    noise_amp) is (y0, theta, eps^(H+1/2) kappa, eps^H xi) in small time and
    (eps^2 y0, eps^2 theta, kappa, eps xi) in the tail (``_scales``).  The
    variance enters every coefficient as max(Y, 0), so the square root never
    sees a negative value; the state itself may go transiently negative.

    The sum is one product.  Step j stores two interleaved history rows,
    Y_j^+ and sqrt(Y_j^+) dW_j, and a lower-triangular Toeplitz matrix holds
    the matching weights -drift_amp mom_(i-j) and noise_amp mom_(i-j) / h;
    the constant drift y_start + drift_amp theta_lvl (mom_1 + ... + mom_i) is
    a per-step base.  Steps run in blocks of _HISTORY_STEPS: the far history,
    every row before the block, enters the whole block in one GEMM, and the
    near history, the block's own rows, in one short product per step.  The
    Toeplitz matrix's block rows are slices of one (_HISTORY_STEPS, ~2n)
    block row G, so the weights take O(n) memory; G and the base are built
    once per run, when the object is.

    The history runs time-major, (steps, paths), in zero-padded blocks of
    ``width`` paths aligned to the path index.  The width is fixed for a run
    because BLAS rounds an odd-width block differently, so a block that
    followed the chunk would make a path depend on the chunk carrying it;
    ``_simulate_impl`` sets it from the run's path count.  With ``sums`` the
    result is each path's history-row sums, (paths, 2), added step by step
    (numpy's axis-0 order): the path-major sums to rounding, not bit for bit.
    """

    def __init__(self, model, regime, grid, width=_HISTORY_PATHS):
        n = grid.n_steps
        mom = conv_weights(power_law(model.hurst), grid).cells[:n]
        theta, _, drift, level = _scales(model, regime)
        y_start, theta_lvl = level * model.y0, level * model.theta
        drift_amp, noise_amp = drift * model.kappa, theta * model.xi
        self.width, self.y_start = width, y_start
        self.base = y_start + drift_amp * theta_lvl * np.cumsum(mom)
        # T[i, 2j + c], the weight of history row (j, c) (c = 0: Y_j^+, 1: the
        # noise) in Y_(i+1), depends on i - j alone, so every block row of T is a
        # slice of one: G[r, 2p + c] = T[s + r, 2(p - V + s) + c] for the block
        # starting at step s, V the last block's start
        S = _HISTORY_STEPS
        self.V = V = S * ((n - 1) // S)
        lag = np.arange(S)[:, None] + V - np.arange(V + S)
        pair = np.stack([-drift_amp * mom, noise_amp / grid.dt * mom], axis=1)
        G = np.where(((lag >= 0) & (lag < n))[:, :, None], pair[np.clip(lag, 0, n - 1)], 0.0)
        self.G = G.reshape(S, 2 * (V + S))

    def scratch(self) -> tuple:
        """One history block's arrays: its rows (n, 2, width) and volatility (n+1, width)."""
        n = len(self.base)
        return np.empty((n, 2, self.width)), np.empty((n + 1, self.width))

    def volatility(self, dW, first: int, sums: bool = False, scratch: tuple | None = None):
        """Y (paths, n+1), or with ``sums`` the history-row sums (paths, 2), of paths first..

        ``scratch`` (from ``scratch()``) is reused block to block; a partly
        filled block zeroes its noise rows before taking the paths' dW.
        """
        hist, y = self.scratch() if scratch is None else scratch
        n, B, S, V, G = len(self.base), self.width, _HISTORY_STEPS, self.V, self.G
        rows = hist.reshape(2 * n, B)
        root = np.empty(B)
        out = np.empty((dW.shape[0], 2 if sums else n + 1))
        for lo, p0, p1 in _aligned_blocks(first, dW.shape[0], B):
            if p1 - p0 < B:
                hist[:, 1] = 0.0
            hist[:, 1, p0 - lo : p1 - lo] = dW[p0:p1].T
            y[0] = self.y_start
            for s in range(0, n, S):
                e = min(s + S, n)
                far = y[s + 1 : e + 1]
                np.matmul(G[: e - s, 2 * (V - s) : 2 * V], rows[: 2 * s], out=far)
                far += self.base[s:e, None]
                for j in range(s, e):
                    np.maximum(y[j], 0.0, out=hist[j, 0])
                    np.sqrt(hist[j, 0], out=root)
                    hist[j, 1] *= root
                    y[j + 1] += G[j - s, 2 * V : 2 * (V + j - s + 1)] @ rows[2 * s : 2 * (j + 1)]
            kept = hist.sum(axis=0) if sums else y
            out[p0:p1] = kept[:, p0 - lo : p1 - lo].T
        return out


def _left_vol(model, Y):
    """(Sigma, sqrt-Sigma) at the left nodes t_0..t_(n-1), (paths, n) each.

    A scalar model's variance is its catalogued Sigma(Y); the multifactor
    price form, which has no catalogue, sums exp(Y_j) and exp(Y_j / 2).
    """
    left = Y[:, :-1]
    try:
        sig_sq = model.sigma_sq(left[:, :, 0])
        return sig_sq, np.sqrt(sig_sq)
    except NotApplicable:
        return np.sum(np.exp(left), axis=2), np.sum(np.exp(0.5 * left), axis=2)


def _correlations(model) -> tuple:
    """(rho_j per volatility channel, rho_bar on the orthogonal noise)."""
    return np.atleast_1d(np.asarray(model.rho, dtype=float)), model.rho_bar


def _log_price(model, regime, grid, Y, dWs):
    """Left-point Euler for the log price; exact discrete martingale for e^X.

    X_(i+1) - X_i = -1/2 drift sig_i^2 h + noise sig_i (rho dW_i + rho_bar dW_perp_i),
    (noise, drift) from ``_scales`` and sig_i^2 = Sigma(Y_i) (``_left_vol``);
    ``dWs`` holds every channel's increments, the orthogonal noise last.
    """
    rhos, rho_bar = _correlations(model)
    sig_sq, sig = _left_vol(model, Y)
    noise_amp, _, drift_amp, _ = _scales(model, regime)
    dB = rho_bar * dWs[-1]
    for rho, dW in zip(rhos, dWs):
        dB += rho * dW
    sig_sq *= -0.5 * drift_amp
    sig_sq *= grid.dt
    sig *= noise_amp
    sig *= dB
    sig_sq += sig  # the increments
    X = np.empty((Y.shape[0], grid.n_steps + 1))
    X[:, 0] = 0.0
    np.cumsum(sig_sq, axis=1, out=X[:, 1:])
    return X


def _price_moments(model, regime, grid, sums, dWs):
    """Each path's conditional mean and variance of X_1 given its volatility, (paths, 2).

    Given the volatility channels, the orthogonal noise enters the left-point
    log price linearly, so X_1 is Gaussian with
    m = sum(-1/2 drift sig_i^2 h + noise rho sig_i dW_i) and
    v = noise^2 rho_bar^2 sum sig_i^2 h (the terms of ``_log_price``), read
    off the left-node ``sums`` of ``_volatility``: the run needs no price noise.
    """
    rhos, rho_bar = _correlations(model)
    noise_amp, _, drift_amp, _ = _scales(model, regime)
    quad = sums[:, 0] * grid.dt
    cross = sum(rho * sums[:, k] for k, rho in enumerate(rhos, 1))
    out = np.empty((len(sums), 2))
    out[:, 0] = -0.5 * drift_amp * quad + noise_amp * cross
    out[:, 1] = (noise_amp * rho_bar) ** 2 * quad
    return out


# the reducer of the mixing Monte Carlo smile (``implied_vol.mc_smile``)
PRICE_MOMENTS = _Reducer(_price_moments, (2,), sums=True)


def _to_mdp_frame(paths, model, regime, comps):
    """MDP regimes: (path - limit path) / (theta_eps h_eps); the limit is (0, y0).

    ``comps`` are the components ``paths`` holds.
    """
    if not regime.is_mdp:
        return paths
    y_bar = np.atleast_1d(0.0 if regime.is_tail else np.asarray(model.y0, dtype=float))
    mean = np.concatenate([[0.0], y_bar])[comps]
    return (paths - mean) / (_scales(model, regime)[0] * regime.h_eps())
