"""Numerical toolkit for small-noise stochastic Volterra deviations.

Kernels and fractional calculus, deterministic limit solvers, exact and
Euler simulation of rough volatility models, closed-form and variational
rate functions, implied-volatility asymptotics, and importance-sampled
slope experiments.
"""

__version__ = "0.1.0"

# the public names are each module's __all__; ``implied_vol`` is the function
from .errors import *
from .frac_calculus import *
from .kernels import *
from .implied_vol import *
from .mc_verify import *
from .rate_functions import *
from .sve_sim import *
from .volterra_det import *
