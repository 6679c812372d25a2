"""Fixed-point solvers.

One Anderson-accelerated fixed-point iteration (``damped_fixed_point``) on
the best-response map serves three solvers: the n-agent Nash game, the
finite-type mean-field game iterated in strategy space, and the mean-field
game iterated in the (|marks| + 1)-dimensional statistic space for a finite
common-mark law.  Each solver clips every iterate to the box of values its
admissible positions can reach.  Non-convergence is a reported state, not
an exception.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, aggregate
from .metrics import _value_constant, value_mf
from .model import (
    SIGNALS,
    InvestorType,
    Population,
    Strategy,
    admissible_interval,
    strategy_distance,
    validate_investor,
    validate_population,
)
from .quad import Quadrature
from .response import (
    DEFAULT_OPT_TOL,
    NewtonCapWarning,
    _nagent_contexts,
    _respond,
    best_response,
    best_response_nagent,
    jump_cap_binds,
    mf_target_context,
)

# Anderson memory: how many past residual and image differences enter each extrapolation.
_ANDERSON_MEMORY = 3
# Restart with plain half damping if the residual has not improved for this many
# accelerated iterations at full damping (oscillation guard; existence theory
# gives no contraction rate).
_STALL_WINDOW = 50


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    ``damping`` is the mixing weight beta of the Anderson iteration
    (``damped_fixed_point``): 1 takes the extrapolated images, beta < 1
    mixes in the extrapolated iterates.  ``init`` is the starting strategy
    (all-zeros when omitted); ``horizon`` is the investment horizon used for
    the per-type values in the result.
    """

    tol: float = 1e-8
    max_iter: int = 500
    damping: float = 1.0
    init: Strategy | None = None
    horizon: float = 1.0
    opt_tol: float = DEFAULT_OPT_TOL

    def __post_init__(self):
        for name, value in (("tol", self.tol), ("opt_tol", self.opt_tol), ("horizon", self.horizon)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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
    box: tuple = (-np.inf, np.inf),
) -> tuple[np.ndarray, float, int, tuple[str, ...]]:
    """Anderson-accelerated fixed-point iteration of ``step`` until sup|step(x) - x| < tol.

    Type-II Anderson mixing (Walker & Ni 2011) with memory ``_ANDERSON_MEMORY``
    and mixing weight beta = ``damping``: from the differences dX, dF and dG
    of the last iterates x, residuals f = step(x) - x and images step(x),
    gamma minimizes |f - dF gamma| (least squares) and the next iterate is
    (1 - beta)(x - dX gamma) + beta(step(x) - dG gamma), clipped to ``box``
    = (lo, hi) (bounds broadcast against x).  With no history yet this is
    the damped step (1 - beta) x + beta step(x).

    Returns (point, residual, iterations, notes): the point is an iterate
    and the residual is sup|step(point) - point|.  At full damping a stalled
    residual (no new best for ``_STALL_WINDOW`` iterations) triggers one
    automatic restart from ``init`` that drops the history and iterates
    the plain damped step with damping 0.5.
    """
    lo, hi = box
    notes: list[str] = []
    x = np.array(init, dtype=float)
    start = x.copy()
    w = damping
    best = np.inf
    since_best = 0
    iterations = 0
    retried = False
    recent: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (x, f, image), oldest first
    while True:
        image = step(x)
        f = image - x
        residual = float(np.max(np.abs(f)))
        if residual < tol or iterations >= max_iter:
            break
        if residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
        if damping == 1.0 and not retried and since_best >= _STALL_WINDOW:
            notes.append(
                f"residual stalled at {residual:.3e} after {iterations} iterations "
                "at full damping; restarted with damping 0.5"
            )
            x = start.copy()
            w, retried = 0.5, True
            best, since_best = np.inf, 0
        else:
            x_bar, image_bar = x, image
            if not retried:
                recent = [*recent, (x, f, image)][-(_ANDERSON_MEMORY + 1):]
                d_x, d_f, d_image = np.diff(recent, axis=0).transpose(1, 2, 0)  # each (len(x), len(recent) - 1)
                gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
                x_bar, image_bar = x - d_x @ gamma, image - d_image @ gamma
            x = np.clip((1.0 - w) * x_bar + w * image_bar, lo, hi)
        iterations += 1
    if not residual < tol:
        notes.append(f"did not converge within {max_iter} iterations (residual {residual:.3e})")
    return x, residual, iterations, tuple(notes)


def _require(what: str, problems: list[str]) -> None:
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(problems))


def _noting_newton_caps(solver):
    """``solver`` with a result note for each best-response row that stopped at the Newton cap.

    ``_respond`` flags such a row with a ``NewtonCapWarning``; every other
    warning is passed on unchanged.
    """

    @functools.wraps(solver)
    def solve(*args, **kwargs) -> EquilibriumResult:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NewtonCapWarning)
            result = solver(*args, **kwargs)
        capped = []
        for record in caught:
            if issubclass(record.category, NewtonCapWarning):
                capped.append(str(record.message))
            else:
                warnings.warn_explicit(record.message, record.category, record.filename, record.lineno)
        return replace(result, notes=result.notes + tuple(dict.fromkeys(capped)))

    return solve


def _solve_table(
    best_reply: Callable[[Strategy], Strategy], types: Sequence[InvestorType], cfg: SolverConfig
) -> tuple[Strategy, float, int, tuple[str, ...]]:
    """Iteration of ``best_reply`` on strategy tables, each row clipped to its admissible interval;
    returns (strategy, residual, iterations, notes)."""
    n_rows = len(types)
    if cfg.init is not None and cfg.init.n_types != n_rows:
        raise ValueError(f"init strategy has {cfg.init.n_types} rows, expected {n_rows}")
    init = Strategy.zeros(n_rows) if cfg.init is None else cfg.init
    shape = (n_rows, len(SIGNALS))
    bounds = np.array([(iv.lo, iv.hi) for iv in map(admissible_interval, types)])
    point, residual, iterations, notes = damped_fixed_point(
        lambda vec: best_reply(Strategy(vec.reshape(shape))).table.ravel(),
        init.table.ravel(), cfg.tol, cfg.max_iter, cfg.damping, tuple(np.repeat(bounds, len(SIGNALS), axis=0).T),
    )
    return Strategy(point.reshape(shape)), residual, iterations, notes


def _result(ctx, xbar0s, cfg, stats, strategy, residual, iterations, notes):
    """Every solver's result from its final context: M, closed-form values and a note per type
    whose M clips its jump factor (``jump_cap_binds``) or whose value overflows double."""
    per_type_M = tuple(_value_constant(ctx, strategy.table).tolist())
    with np.errstate(over="ignore"):
        values = tuple(value_mf(t, M, t.x0, x, cfg.horizon) for t, M, x in zip(ctx.investors, per_type_M, xbar0s))
    clipped = np.flatnonzero(jump_cap_binds(strategy.table, ctx))
    notes += tuple(f"type {i}: M clips E*(1 + phi*eta)^(1-alpha) at a tail node; M is inexact" for i in clipped)
    overflowed = [i for i, value in enumerate(values) if not np.isfinite(value)]
    notes += tuple(f"type {i}: value exp(T(1-alpha)M) overflows double; use per_type_M" for i in overflowed)
    return EquilibriumResult(strategy, residual, iterations, per_type_M, values, residual < cfg.tol, stats, notes)


def _mf_result(pop, q, cfg, strategy, *run) -> EquilibriumResult:
    """Mean-field result: aggregate the final strategy, then one context for the population."""
    stats = aggregate(pop, strategy, q)
    ctx = mf_target_context(pop.types, q, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
    return _result(ctx, [stats.xbar0] * len(pop), cfg, stats, strategy, *run)


@_noting_newton_caps
def solve_mf_finite(pop: Population, q: Quadrature, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Signal-driven mean-field equilibrium for a finite-type population."""
    _require("population", validate_population(pop, require_shared_market=False))
    run = _solve_table(lambda strat: best_response(pop, strat, q, cfg.opt_tol), pop.types, cfg)
    return _mf_result(pop, q, cfg, *run)


@_noting_newton_caps
def solve_nagent(
    types: Sequence[InvestorType], q: Quadrature, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Signal-driven Nash equilibrium among n+1 explicit players."""
    types = tuple(types)
    if len(types) < 2:
        raise ValueError("need at least 2 players")
    # Players are not a weighted mixture; the weight field is ignored here.
    _require("players", [v for i, t in enumerate(types) for v in validate_investor(t, i, check_weight=False)])
    strategy, *run = _solve_table(lambda strat: best_response_nagent(types, strat, q, cfg.opt_tol), types, cfg)
    # Each player's peer average is the geometric mean of the others' x0: total minus own.
    log_x0 = np.log([t.x0 for t in types])
    peers_x0 = np.exp((log_x0.sum() - log_x0) / (len(types) - 1))
    return _result(_nagent_contexts(types, strategy, q), peers_x0, cfg, None, strategy, *run)


def respond_to_statistic(
    pop: Population, m: np.ndarray, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Best response of every type to the raw statistic (sigma0pi, m(marks))."""
    return _respond(mf_target_context(pop.types, q, float(m[0]), np.asarray(m[1:], dtype=float)), opt_tol)


def statistic_of(pop: Population, strat: Strategy, q: Quadrature) -> np.ndarray:
    """Statistic vector (sigma0 * pi averaged, mean jump at each mark)."""
    stats = aggregate(pop, strat, q)
    return np.concatenate(([stats.sigma0pi_bar], stats.mean_jump_nodes))


def _statistic_box(pop: Population, q: Quadrature) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise range of ``statistic_of`` over admissible strategies.

    sigma0pi_bar and each log m(e_c) sum over types a weighted term that
    moves monotonically with each of the type's positions, all in one
    direction per coordinate, so a type's term is extreme with its whole row
    at one end of its interval: the range is the all-lower statistic plus
    each type's negative, respectively positive, moves to its upper end.
    """
    lo, hi = np.array([(iv.lo, iv.hi) for iv in map(admissible_interval, pop.types)]).T

    def log_statistic(positions: np.ndarray) -> np.ndarray:
        stat = statistic_of(pop, Strategy(np.repeat(positions[:, np.newaxis], len(SIGNALS), axis=1)), q)
        return np.concatenate((stat[:1], np.log(stat[1:])))

    base = log_statistic(lo)
    moves = np.array([log_statistic(np.where(np.arange(len(pop)) == i, hi, lo)) - base for i in range(len(pop))])
    ends = base + np.minimum(moves, 0.0).sum(axis=0), base + np.maximum(moves, 0.0).sum(axis=0)
    return tuple(np.concatenate((end[:1], np.exp(end[1:]))) for end in ends)


@_noting_newton_caps
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
    point, residual, iterations, notes = damped_fixed_point(
        step, m0, cfg.tol, cfg.max_iter, cfg.damping, _statistic_box(pop, q)
    )
    strategy = respond_to_statistic(pop, point, q, cfg.opt_tol)
    return _mf_result(pop, q, cfg, strategy, residual, iterations, notes)


def residual(pop: Population, strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL) -> float:
    """Consistency gap: distance of the strategy from its own best response."""
    return strategy_distance(best_response(pop, strat, q, opt_tol), strat)
