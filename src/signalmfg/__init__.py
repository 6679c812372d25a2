"""Signal-driven Nash and mean-field equilibria for CRRA investors with
relative performance concerns and Poisson jump signals."""

from .equilibrium import (
    EquilibriumResult,
    SolverConfig,
    residual,
    solve_mf_finite,
    solve_mf_statistic,
    solve_nagent,
)
from .meanfield import MeanFieldStats, aggregate, mean_log_terminal
from .metrics import M_mf, M_nagent, certainty_equivalent, value_mf
from .model import (
    AdmissibleInterval,
    InvestorType,
    MarketParams,
    Population,
    Signal,
    SIGNALS,
    NONZERO_SIGNALS,
    Strategy,
    admissible_interval,
    strategy_distance,
    validate_population,
)
from .quad import Quadrature, expect_outer, normal_prob, std_normal_cdf
from .response import (
    TargetContext,
    best_response,
    best_response_nagent,
    maximize_concave_1d,
    relative_utility,
    target_no_signal,
    target_signal,
)
from .signals import (
    JumpLaw,
    eta,
    perturb,
    signal_frequency,
)
from .sim import (
    AgentPath,
    CommonNoisePath,
    estimate_utility,
    nagent_geometric_average,
    simulate_agent,
    simulate_common,
)

__version__ = "0.1.0"
