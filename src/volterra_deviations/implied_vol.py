"""Black-Scholes machinery and the implied-volatility asymptotics.

Conventions: spot 1, zero rates and dividends, strike exp(k).  The smile
formulas take the rescaled log-moneyness k of each regime: the physical
strike is k t^(1/2 - H) in the small-time LDP regime and k t^(1/2 - beta) in
the MDP regime, and the LDP implied volatility blows up like t^(H - 1/2) as
maturity shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    DegenerateCoefficients,
    InvalidModel,
    PriceOutOfBounds,
    RateUnavailable,
    SolverFailure,
)
from .kernels import TimeGrid
from .rate_functions import ldp_rate_terminal, tail_rate_terminal
from .sve_sim import (
    PRICE_MOMENTS,
    Model,
    MultiRoughBergomi,
    RoughBergomi,
    simulate,
    small_time_ldp,
)

__all__ = [
    "SmilePoint",
    "bs_call",
    "implied_vol",
    "smile_ldp",
    "smile_mdp",
    "smile_tail",
    "mc_smile",
]

@dataclass
class SmilePoint:
    maturity: float
    log_moneyness: float
    sigma_hat: float
    source: str
    stderr: float | None = None
    flag: str | None = None
    attained: float | None = None  # where the rate infimum sits (ldp: x*, tail: y*)
    # Monte Carlo only: the F - 1 control coefficient, Var(P) / Var(P - beta (F - 1)),
    # and the run's largest Cholesky bump
    control_coef: float | None = None
    variance_ratio: float | None = None
    bump: float | None = None


def _check_maturity_strikes(t, strikes):
    """InvalidModel unless t is finite and positive and every strike is finite."""
    if not 0.0 < t < math.inf or not np.all(np.isfinite(strikes)):
        raise InvalidModel(f"need finite t > 0 and strikes, got t={t!r}, strikes={strikes!r}")


def bs_call(t: float, k: float, sigma: float) -> float:
    """European call value under Black-Scholes (spot 1, strike e^k).

    Raises PriceOutOfBounds unless t > 0, sigma >= 0 and k are all finite.
    """
    if not (0.0 < t < math.inf and 0.0 <= sigma < math.inf and math.isfinite(k)):
        raise PriceOutOfBounds(
            f"need finite t > 0, sigma >= 0 and k, got t={t!r}, k={k!r}, sigma={sigma!r}"
        )
    if sigma == 0.0:
        return max(1.0 - math.exp(k), 0.0)
    st = sigma * math.sqrt(t)
    d1 = (-k + 0.5 * st * st) / st
    d2 = d1 - st
    return float(ndtr(d1) - math.exp(k) * ndtr(d2))


def _vega(t: float, k: float, sigma: float) -> float:
    st = sigma * math.sqrt(t)
    d1 = (-k + 0.5 * st * st) / st
    return float(np.exp(-d1**2 / 2.0) / np.sqrt(2 * np.pi) * math.sqrt(t))


def implied_vol(price: float, t: float, k: float) -> float:
    """Unique nonnegative Black-Scholes volatility matching ``price``.

    One Newton loop on log bs_call, whose slope vega / price keeps its steps
    in scale when the price is tiny, inside a bracket [lo, hi] that every
    evaluated price narrows.  A step that leaves the bracket becomes a
    bisection; the loop stops when a step no longer moves sigma or the
    bracket closes to rounding.  Sigma is good to bs_call's own rounding over
    vega, about ulp(N(d1)) / vega since it forms N(d1) - e^k N(d2): in and
    near the money far more than a price ulp over vega (1.6e-15 against 5e-17
    at t = 0.04, k = -0.0235, sigma 0.2135).  Bad t or k raise InvalidModel.
    """
    _check_maturity_strikes(t, k)
    intrinsic = max(1.0 - math.exp(k), 0.0)
    if not intrinsic < price < 1.0:
        raise PriceOutOfBounds(
            f"price {price} outside ({intrinsic}, 1) for k={k}, t={t}"
        )
    lo, hi = 0.0, 1.0  # bs_call(0) is the intrinsic value, below the price
    while bs_call(t, k, hi) < price:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise PriceOutOfBounds("no volatility matches the price")
    target = math.log(price)
    sigma = 0.5 * (lo + hi)
    for _ in range(200):
        call = bs_call(t, k, sigma)
        if call < price:
            lo = sigma
        elif call > price:
            hi = sigma
        else:
            return sigma
        vega = _vega(t, k, sigma)
        step = (math.log(call) - target) * call / vega if call > 0.0 and vega > 0.0 else math.inf
        new = sigma - step
        if new == sigma:  # the step is below rounding
            return sigma
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:  # the bracket closed to rounding
                return sigma
        sigma = new
    return sigma


def smile_ldp(model: Model, k: float, t: float, n_steps: int = 256) -> SmilePoint:
    """Small-time LDP implied volatility at rescaled log-moneyness k != 0.

    sigma_hat^2 = k^2 / (2 inf_(x >= k) I^X_1(x)) for k > 0 (mirrored for
    k < 0); the physical strike is k t^(1/2 - H).  The infimum over the
    whole ray is one terminal solve (``ray=True``); ``attained`` is the
    rescaled x* where it sits.
    """
    _check_maturity_strikes(t, k)
    if k == 0.0:
        raise RateUnavailable("LDP smile formula needs k != 0")
    try:
        res = ldp_rate_terminal(model, k, component="x", n_steps=n_steps, ray=True)
    except SolverFailure as exc:
        raise RateUnavailable(str(exc)) from exc
    if res.value <= 0.0:
        raise RateUnavailable("terminal rate vanished; limit formula degenerate")
    sig = math.sqrt(k * k / (2.0 * res.value))
    return SmilePoint(t, k, sig, "asymptotic_ldp", attained=res.optimal_path.values[-1, 0])


def smile_mdp(model: Model, k: float, t: float, beta: float) -> SmilePoint:
    """MDP implied volatility: sigma_hat^2 = Sigma(y0), strike independent."""
    _check_maturity_strikes(t, k)
    if not 0.0 < beta < model.min_hurst:
        raise DegenerateCoefficients("beta must lie in (0, H)")
    if k == 0.0:
        raise DegenerateCoefficients("MDP smile formula needs k != 0")
    sig0 = float(model.sigma_sq(np.asarray(model.y0)))
    if sig0 <= 0.0:
        raise DegenerateCoefficients("Sigma(y0) must be positive")
    return SmilePoint(
        maturity=t, log_moneyness=k, sigma_hat=math.sqrt(sig0), source="asymptotic_mdp"
    )


def smile_tail(model: Model, t: float, k: float, n_steps: int = 192) -> SmilePoint:
    """Large-strike implied volatility: sigma_hat^2 ~ k / (2 t inf_(y>=1) I^X_t(y)).

    The infimum over the whole ray y >= 1 is one tail solve (``ray=True``);
    ``attained`` is the y* where it sits.  The formula needs a large strike:
    k <= 0 raises InvalidModel before the solve.
    """
    _check_maturity_strikes(t, k)
    if not k > 0.0:
        raise InvalidModel(f"the large-strike smile needs k > 0, got k={k!r}")
    try:
        res = tail_rate_terminal(model, 1.0, t_end=t, n_steps=n_steps, ray=True)
    except SolverFailure as exc:
        raise RateUnavailable(str(exc)) from exc
    if not math.isfinite(res.value) or res.value <= 0.0:
        raise RateUnavailable("tail rate infimum unavailable")
    sig = math.sqrt(k / (2.0 * t * res.value))
    return SmilePoint(t, k, sig, "asymptotic_tail", attained=res.optimal_path.values[-1, 0])


def mc_smile(
    model: Model,
    t: float,
    strikes,
    n_paths: int,
    seed: int,
    n_steps: int = 192,
    threads: int | None = None,
) -> list[SmilePoint]:
    """Monte Carlo implied-volatility points at physical log-moneyness values.

    Simulates the small-time rescaled volatility at eps = t and prices each
    path in closed form.  Given the volatility draws, the left-point log price
    X_t = c X^eps_1 (c = t^(1/2 - H)) is Gaussian, N(m, v) (``_price_moments``),
    so a path's call value is the Black-Scholes price P = BS(F, e^k, v) of the
    forward F = e^(m + v/2); the run draws no price noise and builds no log
    price, and for rough Heston no volatility path: its history loop sums the
    terms of m and v, the path-major sums to rounding.  E[F] = 1 exactly,
    because e^X is an exact discrete martingale, so F - 1 is a free control:
    the price is mean(P - beta (F - 1)), beta = Cov(P, F) / Var(F) (0 when
    Var(F) = 0), with the standard error of that residual R.  Estimating
    beta on the same paths biases the price by
    -E[R (F - 1)^2] / (N Var F) + o(1/N), at most the standard error times
    sqrt(kappa / N), kappa the kurtosis of F.  Each point reports beta
    (``control_coef``), Var(P) / Var(R) (``variance_ratio``) and the run's
    largest Cholesky bump.  Requires exp(X) to be a martingale (rho <= 0 for
    rough Bergomi); the multifactor price form is rejected, and so are a
    non-finite or non-positive t and a non-finite strike, before any draw.
    """
    _check_maturity_strikes(t, strikes)
    if isinstance(model, RoughBergomi) and model.rho > 0.0:
        raise InvalidModel("exp(X) is a martingale for rough Bergomi only when rho <= 0")
    if isinstance(model, MultiRoughBergomi):
        raise InvalidModel("exp(X) is not a martingale under the multifactor price form")
    ens = simulate(
        model, small_time_ldp(t), TimeGrid(1.0, n_steps), n_paths, seed, threads=threads,
        components=[1], _reduce=PRICE_MOMENTS,
    )
    bump, c = ens.bump, t ** (0.5 - model.min_hurst)
    # priced in place: mean, sd, fwd, dev_c and two strike buffers are the
    # (n_paths,) arrays alive at once, plus one inside each var()
    mean, sd = c * ens.paths[:, 0], c * c * ens.paths[:, 1]
    del ens
    fwd = 0.5 * sd
    fwd += mean
    np.exp(fwd, out=fwd)
    dev_c = fwd - 1.0
    dev_c -= dev_c.mean()
    var_f = float(np.mean(dev_c * dev_c))
    np.sqrt(sd, out=sd)
    dead = np.flatnonzero(~(sd > 0.0))  # no volatility: the intrinsic value
    sd[dead] = 1.0
    buf, calls = np.empty_like(sd), np.empty_like(sd)
    out = []
    for k in strikes:
        strike = math.exp(k)
        d2 = np.subtract(mean, k, out=buf)
        d2 /= sd
        np.add(d2, sd, out=calls)
        ndtr(calls, out=calls)
        calls *= fwd
        ndtr(d2, out=d2)
        d2 *= strike
        calls -= d2
        calls[dead] = np.maximum(fwd[dead] - strike, 0.0)
        centred = np.subtract(calls, calls.mean(), out=buf)
        centred *= dev_c
        beta = float(centred.mean()) / var_f if var_f > 0.0 else 0.0
        resid = np.subtract(fwd, 1.0, out=buf)
        resid *= beta
        np.subtract(calls, resid, out=resid)
        price = float(resid.mean())
        var_r = float(resid.var(ddof=1))
        se_price = math.sqrt(var_r / n_paths)
        diag = dict(
            control_coef=beta,
            variance_ratio=float(calls.var(ddof=1)) / var_r if var_r > 0.0 else math.nan,
            bump=bump,
        )
        intrinsic = max(1.0 - strike, 0.0)
        flag = None
        if price <= intrinsic:
            price = intrinsic + 1e-12
            flag = "clipped_to_intrinsic"
        try:
            sig = implied_vol(price, t, k)
        except PriceOutOfBounds:
            out.append(SmilePoint(
                t, k, float("nan"), "monte_carlo", flag="price_out_of_bounds", **diag
            ))
            continue
        vega = _vega(t, k, sig)
        se_sig = se_price / vega if vega > 1e-300 else float("inf")
        out.append(SmilePoint(t, k, sig, "monte_carlo", stderr=se_sig, flag=flag, **diag))
    return out
