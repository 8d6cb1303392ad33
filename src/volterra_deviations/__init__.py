"""Numerical toolkit for small-noise stochastic Volterra deviations.

Kernels and fractional calculus, deterministic limit solvers, exact and
Euler simulation of rough volatility models, closed-form and variational
rate functions, implied-volatility asymptotics, and importance-sampled
slope experiments.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError
from .frac_calculus import Control, FracOrder, KernelSection, energy, rl_derivative, rl_integral
from .kernels import (
    GridFunction,
    KernelSpec,
    TimeGrid,
    check_regularity,
    constant,
    eval_conv,
    eval_nonconv,
    fbm_nonconv,
    gamma_kernel,
    kernel_from_config,
    l2_norm_sq,
    matrix_kernel,
    power_law,
    raw_power,
)
from .implied_vol import SmilePoint, bs_call, implied_vol, mc_smile, smile_ldp, smile_mdp, smile_tail
from .mc_verify import (
    DeviationExperiment,
    EventSpec,
    SlopeReport,
    build_is_control,
    estimate_event_prob,
    ldp_slope,
)
from .rate_functions import (
    RateResult,
    gaussian_terminal_control,
    heston_rate,
    ldp_rate_pair,
    ldp_rate_terminal,
    mdp_rate_pair,
    mdp_rate_terminal_x,
    mdp_rate_terminal_y,
    multifactor_mdp_rate,
    tail_mdp_rate_y,
    tail_rate_heston,
    tail_rate_steinstein,
    tail_rate_terminal,
)
from .sve_sim import (
    MultiRoughBergomi,
    PathEnsemble,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
    ScalingRegime,
    heston_step_policy,
    simulate,
    simulate_controlled,
    small_time_ldp,
    small_time_mdp,
    tail_ldp,
    tail_mdp,
)
from .volterra_det import (
    DiffusionTerm,
    DriftTerm,
    LimitProblem,
    SolveReport,
    solve_ldp_limit,
    solve_mdp_limit,
    solve_mean_limit,
)
