"""Fixed-point solvers.

Three flavors of damped Picard iteration on the best-response map: the
n-agent Nash game, the finite-type mean-field game iterated in strategy
space, and the mean-field game iterated in the (|marks| + 1)-dimensional
statistic space for a finite common-mark law.  Non-convergence is a reported
state, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, aggregate
from .metrics import _value_constant, value_mf
from .model import (
    SIGNALS,
    InvestorType,
    Population,
    Strategy,
    strategy_distance,
    validate_investor,
    validate_population,
)
from .quad import Quadrature
from .response import (
    DEFAULT_OPT_TOL,
    _nagent_contexts,
    _respond,
    best_response,
    best_response_nagent,
    context_from_stats,
    jump_cap_binds,
    mf_target_context,
)

# Retry with half damping if the residual has not improved for this many
# iterations at full damping (oscillation guard; existence theory gives no
# contraction rate).
_STALL_WINDOW = 50


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    ``init`` is the starting strategy (all-zeros when omitted); ``horizon``
    is the investment horizon used for the per-type values in the result.
    """

    tol: float = 1e-8
    max_iter: int = 500
    damping: float = 1.0
    init: Strategy | None = None
    horizon: float = 1.0
    opt_tol: float = DEFAULT_OPT_TOL

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Converged (or best-effort) equilibrium with diagnostics."""

    strategy: Strategy
    residual: float
    iterations: int
    per_type_M: tuple[float, ...]
    per_type_value: tuple[float, ...]
    converged: bool
    stats: MeanFieldStats | None = None
    notes: tuple[str, ...] = ()


def damped_fixed_point(
    step: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    tol: float,
    max_iter: int,
    damping: float,
) -> tuple[np.ndarray, float, int, tuple[str, ...]]:
    """Iterate x <- (1-w) x + w step(x) until sup|step(x) - x| < tol.

    Returns (point, residual, iterations, notes).  At full damping a stalled
    residual (no new best for ``_STALL_WINDOW`` iterations) triggers one
    automatic restart from ``init`` with w = 0.5.
    """
    notes: list[str] = []
    x = np.array(init, dtype=float)
    start = x.copy()
    w = damping
    best = np.inf
    since_best = 0
    iterations = 0
    retried = False
    while True:
        image = step(x)
        residual = float(np.max(np.abs(image - x)))
        if residual < tol or iterations >= max_iter:
            break
        if residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
        if w == 1.0 and not retried and since_best >= _STALL_WINDOW:
            notes.append(
                f"residual stalled at {residual:.3e} after {iterations} iterations "
                "at full damping; restarted with damping 0.5"
            )
            x = start.copy()
            w, retried = 0.5, True
            best, since_best = np.inf, 0
        else:
            x = (1.0 - w) * x + w * image
        iterations += 1
    if not residual < tol:
        notes.append(f"did not converge within {max_iter} iterations (residual {residual:.3e})")
    return x, residual, iterations, tuple(notes)


def _require(what: str, problems: list[str]) -> None:
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(problems))


def _solve_table(
    best_reply: Callable[[Strategy], Strategy], n_rows: int, cfg: SolverConfig
) -> tuple[Strategy, float, int, tuple[str, ...]]:
    """Damped iteration of ``best_reply`` on strategy tables; returns (strategy, residual, iterations, notes)."""
    if cfg.init is not None and cfg.init.n_types != n_rows:
        raise ValueError(f"init strategy has {cfg.init.n_types} rows, expected {n_rows}")
    init = Strategy.zeros(n_rows) if cfg.init is None else cfg.init
    shape = (n_rows, len(SIGNALS))
    point, residual, iterations, notes = damped_fixed_point(
        lambda vec: best_reply(Strategy(vec.reshape(shape))).table.ravel(),
        init.table.ravel(), cfg.tol, cfg.max_iter, cfg.damping,
    )
    return Strategy(point.reshape(shape)), residual, iterations, notes


def _result(contexts, xbar0s, cfg, stats, strategy, residual, iterations, notes):
    """Every solver's result from its final contexts, one per type: M and closed-form
    values, with a note for each type whose M clips its jump factor
    (``jump_cap_binds``) or whose value overflows double."""
    types = [ctx.investor for ctx in contexts]
    per_type_M = tuple(_value_constant(ctx, row) for ctx, row in zip(contexts, strategy.table))
    with np.errstate(over="ignore"):
        values = tuple(value_mf(t, M, t.x0, x, cfg.horizon) for t, M, x in zip(types, per_type_M, xbar0s))
    clipped = [i for i, ctx in enumerate(contexts) if jump_cap_binds(strategy.row(i), ctx)]
    notes += tuple(f"type {i}: M clips E*(1 + phi*eta)^(1-alpha) at a tail node; M is inexact" for i in clipped)
    overflowed = [i for i, value in enumerate(values) if not np.isfinite(value)]
    notes += tuple(f"type {i}: value exp(T(1-alpha)M) overflows double; use per_type_M" for i in overflowed)
    return EquilibriumResult(strategy, residual, iterations, per_type_M, values, residual < cfg.tol, stats, notes)


def _mf_result(pop, q, cfg, strategy, *run) -> EquilibriumResult:
    """Mean-field result: aggregate the final strategy, then one context per type."""
    stats = aggregate(pop, strategy, q)
    contexts = [context_from_stats(t, stats, q) for t in pop.types]
    return _result(contexts, [stats.xbar0] * len(pop), cfg, stats, strategy, *run)


def solve_mf_finite(pop: Population, q: Quadrature, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Signal-driven mean-field equilibrium for a finite-type population."""
    _require("population", validate_population(pop, require_shared_market=False))
    run = _solve_table(lambda strat: best_response(pop, strat, q, cfg.opt_tol), len(pop), cfg)
    return _mf_result(pop, q, cfg, *run)


def solve_nagent(
    types: Sequence[InvestorType], q: Quadrature, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Signal-driven Nash equilibrium among n+1 explicit players."""
    types = tuple(types)
    if len(types) < 2:
        raise ValueError("need at least 2 players")
    # Players are not a weighted mixture; the weight field is ignored here.
    _require("players", [v for i, t in enumerate(types) for v in validate_investor(t, i, check_weight=False)])
    strategy, *run = _solve_table(lambda strat: best_response_nagent(types, strat, q, cfg.opt_tol), len(types), cfg)
    # Each player's peer average is the geometric mean of the others' x0: total minus own.
    log_x0 = np.log([t.x0 for t in types])
    peers_x0 = np.exp((log_x0.sum() - log_x0) / (len(types) - 1))
    return _result(_nagent_contexts(types, strategy, q), peers_x0, cfg, None, strategy, *run)


def respond_to_statistic(
    pop: Population, m: np.ndarray, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Best response of every type to the raw statistic (sigma0pi, m(marks))."""
    mean_jump_nodes = np.asarray(m[1:], dtype=float)
    return _respond([mf_target_context(t, q, float(m[0]), mean_jump_nodes) for t in pop.types], opt_tol)


def statistic_of(pop: Population, strat: Strategy, q: Quadrature) -> np.ndarray:
    """Statistic vector (sigma0 * pi averaged, mean jump at each mark)."""
    stats = aggregate(pop, strat, q)
    return np.concatenate(([stats.sigma0pi_bar], stats.mean_jump_nodes))


def solve_mf_statistic(
    pop: Population,
    common_marks: Sequence[tuple[float, float]],
    cfg: SolverConfig = SolverConfig(),
) -> EquilibriumResult:
    """Mean-field equilibrium via the statistic-space map for a finite mark law.

    ``common_marks`` lists (mark value, probability) pairs with probabilities
    summing to 1.  The iteration runs on the (|marks| + 1)-dimensional vector
    (sigma0-exposure, mean jump at each mark); the residual is measured there.
    """
    _require("population", validate_population(pop, require_shared_market=False))
    marks = [float(m) for m, _ in common_marks]
    probs = [float(p) for _, p in common_marks]
    q = Quadrature.discrete(marks, probs)

    def step(m: np.ndarray) -> np.ndarray:
        return statistic_of(pop, respond_to_statistic(pop, m, q, cfg.opt_tol), q)

    init_strategy = cfg.init if cfg.init is not None else Strategy.zeros(len(pop))
    m0 = statistic_of(pop, init_strategy, q)
    point, residual, iterations, notes = damped_fixed_point(step, m0, cfg.tol, cfg.max_iter, cfg.damping)
    strategy = respond_to_statistic(pop, point, q, cfg.opt_tol)
    return _mf_result(pop, q, cfg, strategy, residual, iterations, notes)


def residual(pop: Population, strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL) -> float:
    """Consistency gap: distance of the strategy from its own best response."""
    return strategy_distance(best_response(pop, strat, q, opt_tol), strat)
