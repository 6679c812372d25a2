"""Signal-driven Nash and mean-field equilibria for CRRA investors with
relative performance concerns and Poisson jump signals.

The package root holds the quick-start names; everything else is imported
from its submodule (``signalmfg.equilibrium``, ``signalmfg.response``, ...).
"""

from . import casestudy
from .equilibrium import solve_mf_finite
from .metrics import value_mf
from .quad import Quadrature
from .sim import estimate_utility

__version__ = "0.1.0"
