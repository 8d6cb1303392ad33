"""Deterministic limit Volterra equations behind the rate functions.

``solve_ldp_limit`` handles phi = x0 + sum_k K_k * b_k(phi) + sum_k K_k *
(sigma_k(phi) v) by damped Picard iteration (``_picard``, the module's one
fixed-point loop) on the product-integration discretization.  The linear MDP
limit (``solve_mdp_limit``) and the zero-noise mean path
(``solve_mean_limit``) are instances of the same problem.  Square-root
diffusion fields make the limit equation non-unique once the path touches
zero; the branch policy picks the returned solution.  For those problems
the iteration is seeded with a sequential per-node solve that resolves the
root choice explicitly: a cold Picard start crosses into negative territory
on e.g. the Feller skeleton and cannot select a branch, while from the
sequential seed the fixed point is already resolved.

Reported residuals are sup-norm defects of the returned path under the same
quadrature: a converged report certifies a discrete solution, not a
discretization-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidModel, NegativeArgument, NoConvergence
from .frac_calculus import Control
from .kernels import ConvWeights, GridFunction, KernelSpec, TimeGrid, conv_weights

__all__ = [
    "DriftTerm",
    "DiffusionTerm",
    "LimitProblem",
    "SolveReport",
    "solve_ldp_limit",
    "solve_mdp_limit",
    "solve_mean_limit",
]

MAX_ITERATIONS = 500
DAMPING = 0.5
TOL_SMOOTH = 1e-10
TOL_SINGULAR = 1e-8


@dataclass(frozen=True)
class DriftTerm:
    """Contribution int K(t-s) b(s, x_s) ds; ``b`` maps (t, x) -> R^d."""

    kernel: KernelSpec
    b: Callable


@dataclass(frozen=True)
class DiffusionTerm:
    """Contribution int K(t-s) sigma(s, x_s) v_s ds; ``sigma`` maps (t, x) -> R^(d x m).

    Kernel-section control atoms combine with these terms through exact
    kernel-kernel convolution columns, which is exact when sigma does not
    depend on the state; state-dependent sigma terms should only receive
    plain grid controls.  A section must carry the kernel of some diffusion
    term, or the solve raises InvalidModel.
    """

    kernel: KernelSpec
    sigma: Callable


@dataclass
class LimitProblem:
    """Controlled deterministic Volterra problem on a uniform grid.

    ``sqrt_component`` marks the scalar component whose diffusion field
    involves the square root of the state, activating the branch policy.
    """

    grid: TimeGrid
    x0: np.ndarray
    drift_terms: Sequence[DriftTerm] = ()
    diffusion_terms: Sequence[DiffusionTerm] = ()
    control: Control | None = None
    branch_policy: str = "continue_positive"
    sqrt_component: int | None = None
    tol: float | None = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.branch_policy not in ("continue_positive", "absorb_at_zero"):
            raise ValueError(f"unknown branch policy {self.branch_policy!r}")

    @property
    def dim(self) -> int:
        return len(self.x0)

    def default_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        singular = any(
            t.kernel.is_singular for t in (*self.drift_terms, *self.diffusion_terms)
        )
        return TOL_SINGULAR if singular else TOL_SMOOTH


@dataclass
class SolveReport:
    path: GridFunction
    residual: float
    picard_iterations: int
    branch_taken: str
    residual_history: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


class _Discretization:
    def __init__(self, p: LimitProblem):
        self.p = p
        self.grid = p.grid
        self.t = p.grid.nodes
        self.n = p.grid.n_steps
        self.weights: dict[int, ConvWeights] = {}
        for term in (*p.drift_terms, *p.diffusion_terms):
            key = id(term.kernel)
            if key not in self.weights:
                self.weights[key] = conv_weights(term.kernel, p.grid)
        self.section_cols = self._section_columns()

    def _section_columns(self):
        """Exact response columns int_0^t K(t-s) K_sec(T-s) ds per diffusion term."""
        p = self.p
        if p.control is None:
            return None
        for s in p.control.sections:
            if not any(s.kernel == term.kernel for term in p.diffusion_terms):
                raise InvalidModel(f"no diffusion term carries the kernel of section {s!r}")
        cols_by_term = {}
        n_ch = max(1, p.control.n_channels)
        for term in p.diffusion_terms:
            cols = np.zeros((self.n + 1, n_ch))
            for s in p.control.sections:
                if s.kernel == term.kernel:
                    cols[:, s.channel] += s.coeff * np.asarray(
                        term.kernel.autocovariance(self.t, s.t_end), dtype=float
                    )
            cols_by_term[id(term)] = cols
        return cols_by_term

    def control_values(self) -> np.ndarray:
        v = self.p.control.values.values
        return v[:, None] if v.ndim == 1 else v

    def rhs(self, x: np.ndarray, clip_sqrt: bool) -> np.ndarray:
        """Discrete right-hand side G(x) at every node; x has shape (n+1, d)."""
        p = self.p
        out = np.tile(p.x0, (self.n + 1, 1))
        for term in p.drift_terms:
            vals = self._eval_field(term.b, x, clip_sqrt, sigma=False)
            out += self.weights[id(term.kernel)].apply(vals)
        if p.control is not None:
            v = self.control_values()
            for term in p.diffusion_terms:
                sig = self._eval_field(term.sigma, x, clip_sqrt, sigma=True)
                drive = np.einsum("idm,im->id", sig, v)
                out += self.weights[id(term.kernel)].apply(drive)
                cols = self.section_cols[id(term)]
                if np.any(cols):
                    out += np.einsum("idm,im->id", sig, cols)
        return out

    def _eval_field(self, f, x, clip_sqrt, sigma: bool) -> np.ndarray:
        """A drift b, (n+1, d), or with ``sigma`` a diffusion field, (n+1, d, m), at every node.

        A vectorized field gets the whole grid at once; one whose answer has
        the wrong shape, or that raises, is evaluated node by node.
        """
        xx = self._clipped_state(x, clip_sqrt)
        try:
            out = np.asarray(f(self.t, xx), dtype=float)
            if sigma:
                whole = out.ndim == 3 and out.shape[0] == self.n + 1
            else:
                whole = out.shape == (self.n + 1, self.p.dim)
            if whole:
                return out
        except Exception:
            pass
        lift = np.atleast_2d if sigma else np.atleast_1d
        return np.stack([lift(f(self.t[i], xx[i])) for i in range(self.n + 1)])

    def _clipped_state(self, x, clip_sqrt) -> np.ndarray:
        p = self.p
        if p.sqrt_component is None:
            return x
        xx = x.copy()
        col = xx[:, p.sqrt_component]
        if not clip_sqrt and np.any(col < -1e-12):
            raise NegativeArgument(
                "square-root field saw a negative iterate under continue_positive"
            )
        xx[:, p.sqrt_component] = np.maximum(col, 0.0)
        return xx


# ---------------------------------------------------------------------------
# sequential seed for scalar square-root problems
# ---------------------------------------------------------------------------


def _sequential_sqrt_seed(disc: _Discretization) -> np.ndarray | None:
    """Node-by-node resolution of x = A_i + w0 * amp_i * v_i * sqrt(x).

    The quadratic in sqrt(x) has up to two nonnegative roots at a zero touch;
    continue_positive takes the larger, absorb_at_zero the smaller.  Drift
    fields are folded in explicitly with a one-node lag (they are Lipschitz
    in the catalogued problems, so the Picard polish cleans up the O(h)
    defect that introduces).
    """
    p = disc.p
    if p.dim != 1 or p.control is None or len(p.diffusion_terms) != 1:
        return None
    v = disc.control_values()
    if v.shape[1] != 1:
        return None
    term = p.diffusion_terms[0]
    cw = disc.weights[id(term.kernel)]
    n = disc.n
    t = disc.t
    # sigma(t, y) = amp(t) * sqrt(max(y, 0)): probe amplitude at y = 1
    amp = np.array(
        [float(np.atleast_2d(term.sigma(t[i], np.array([1.0])))[0, 0]) for i in range(n + 1)]
    )
    sec_cols = disc.section_cols[id(term)][:, 0]
    drift_pairs = [(disc.weights[id(d.kernel)], d.b) for d in p.drift_terms]

    x = np.zeros(n + 1)
    x[0] = p.x0[0]
    g = np.zeros(n + 1)  # diffusion integrand amp * v * sqrt(x)
    g[0] = amp[0] * v[0, 0] * np.sqrt(max(x[0], 0.0))
    b_vals = {
        idx: np.zeros(n + 1) for idx, _ in enumerate(drift_pairs)
    }
    for idx, (_, bf) in enumerate(drift_pairs):
        b_vals[idx][0] = float(np.atleast_1d(bf(t[0], np.array([max(x[0], 0.0)])))[0])
    for i in range(1, n + 1):
        A = p.x0[0]
        for idx, (wsp, bf) in enumerate(drift_pairs):
            b_vals[idx][i] = b_vals[idx][i - 1]  # lagged guess for the new node
            contrib = float(np.dot(wsp.w[: i + 1][::-1], b_vals[idx][: i + 1]))
            contrib -= wsp.shift[i + 1] * b_vals[idx][0]
            A += contrib
        A += float(np.dot(cw.w[1 : i + 1][::-1], g[:i])) - cw.shift[i + 1] * g[0]
        A += amp[i] * sec_cols[i]
        q = amp[i] * v[i, 0]
        w0 = cw.w[0]
        disc_val = (w0 * q) ** 2 + 4.0 * A
        if disc_val < 0.0:
            root = 0.0
        elif p.branch_policy == "continue_positive":
            root = max(0.5 * (w0 * q + np.sqrt(disc_val)), 0.0)
        else:
            r_minus = 0.5 * (w0 * q - np.sqrt(disc_val))
            r_plus = 0.5 * (w0 * q + np.sqrt(disc_val))
            root = r_minus if r_minus >= 0.0 else (r_plus if A > 1e-14 else 0.0)
        x[i] = root * root
        g[i] = q * root
        for idx, (_, bf) in enumerate(drift_pairs):
            b_vals[idx][i] = float(np.atleast_1d(bf(t[i], np.array([max(x[i], 0.0)])))[0])
    return x[:, None]


# ---------------------------------------------------------------------------
# Picard driver
# ---------------------------------------------------------------------------


def _picard(disc: _Discretization, x_init: np.ndarray, clip_sqrt: bool, tol: float):
    x = x_init
    best_res = prev_res = np.inf
    history = []
    for it in range(1, MAX_ITERATIONS + 1):
        gx = disc.rhs(x, clip_sqrt)
        res = float(np.max(np.abs(gx - x)))
        history.append(res)
        best_res = min(best_res, res)
        if res <= tol:
            return x, res, it, history
        x = gx if res <= prev_res else x + DAMPING * (gx - x)
        prev_res = res
    raise NoConvergence(MAX_ITERATIONS, best_res)


def solve_ldp_limit(p: LimitProblem) -> SolveReport:
    """Solve phi = x0 + K * [b(phi) + sigma(phi) v] to the configured tolerance."""
    disc = _Discretization(p)
    tol = p.default_tol()
    clip = p.branch_policy == "absorb_at_zero"
    x0 = None
    if p.sqrt_component is not None:
        x0 = _sequential_sqrt_seed(disc)
    if x0 is None:
        x0 = np.tile(p.x0, (len(p.grid), 1))
    x, res, its, hist = _picard(disc, x0, clip_sqrt=clip, tol=tol)
    if p.sqrt_component is not None and p.branch_policy == "continue_positive":
        if np.any(x[:, p.sqrt_component] < -1e-12):
            raise NegativeArgument("returned path is negative under continue_positive")
        x = x.copy()
        x[:, p.sqrt_component] = np.maximum(x[:, p.sqrt_component], 0.0)
    values = x[:, 0] if p.dim == 1 else x
    return SolveReport(
        path=GridFunction(p.grid, values),
        residual=res,
        picard_iterations=its,
        branch_taken=p.branch_policy,
        residual_history=hist,
    )


def solve_mdp_limit(
    kernel: KernelSpec,
    grad_b_path: GridFunction,
    sigma_path: GridFunction,
    v: Control,
) -> GridFunction:
    """Unique solution of psi = K * [grad_b psi + sigma v], the linear MDP limit.

    ``grad_b_path`` and ``sigma_path`` carry nabla_b(t, Xbar_t) and
    sigma(t, Xbar_t) precomputed on the grid (sigma one column per control
    channel, or a single column).  The equation is the LimitProblem with
    drift grad_b psi, diffusion sigma and x0 = 0, solved by
    ``solve_ldp_limit`` to TOL_SMOOTH whatever the kernel: linearity makes the
    fixed point unique.  A kernel section of ``v`` must carry ``kernel``
    (InvalidModel otherwise); NoConvergence if the Picard defect stays above
    the tolerance.
    """
    grid = grad_b_path.grid
    gb = grad_b_path.values[:, None]
    sg = sigma_path.values
    sg = sg[:, None, None] if sg.ndim == 1 else sg[:, None, :]
    p = LimitProblem(
        grid=grid,
        x0=np.zeros(1),
        drift_terms=(DriftTerm(kernel, lambda t, x: gb * x),),
        diffusion_terms=(DiffusionTerm(kernel, lambda t, x: sg),),
        control=v,
        tol=TOL_SMOOTH,
    )
    return solve_ldp_limit(p).path


def solve_mean_limit(
    grid: TimeGrid,
    kernel: KernelSpec,
    b: Callable,
    x0,
    tol: float | None = None,
) -> GridFunction:
    """Xbar = x0 + K * b(Xbar), the zero-noise limit path."""
    p = LimitProblem(
        grid=grid,
        x0=np.atleast_1d(np.asarray(x0, dtype=float)),
        drift_terms=(DriftTerm(kernel, b),),
        tol=tol,
    )
    return solve_ldp_limit(p).path
