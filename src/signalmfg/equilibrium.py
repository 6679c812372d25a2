"""Fixed-point solvers.

One Anderson-accelerated fixed-point iteration (``damped_fixed_point``) on
the best-response map serves three solvers: the n-agent Nash game, the
finite-type mean-field game iterated in strategy space, and the mean-field
game iterated in the (|marks| + 1)-dimensional statistic space for a finite
common-mark law.  Each solver clips every iterate to the box of values its
admissible positions can reach.  A solver builds its investors' context
once and gives one core (``_solve``) the environment its iterates induce;
the core iterates, then reads M, values and notes off the final context
for every solver alike.  Non-convergence is a reported state, not an
exception.
"""

from __future__ import annotations

import math
import warnings
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
    admissible_interval,
    strategy_distance,
    validate_investor,
    validate_population,
)
from .quad import Quadrature
from .response import (
    DEFAULT_OPT_TOL,
    NewtonCapWarning,
    TargetContext,
    _contexts,
    _mf_environment,
    _nagent_environment,
    _respond,
    best_response,
    jump_cap_binds,
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


def _solve(ctx: TargetContext, environment: Callable, cfg: SolverConfig, iteration=None) -> EquilibriumResult:
    """Every solver's core: the fixed point of the best-response map, and its result.

    ``ctx`` is the investors' context from ``response._contexts``, built
    once; ``environment(strategy)`` writes the environment a strategy
    induces into it and returns (context, each investor's peer initial
    wealth, ``MeanFieldStats`` or None).  The iteration runs on strategy
    tables, each row clipped to its admissible interval, unless
    ``iteration`` = (step, start, box, strategy_at) gives another map, its
    start and box, and the strategy at its points.  M, closed-form values
    and notes are read off the final context: a note per best-response row
    stopped at the Newton cap (``NewtonCapWarning``), per type whose M clips
    its jump factor (``jump_cap_binds``) and per value that overflows double.
    """
    if iteration is None:
        shape = (len(ctx.investors), len(SIGNALS))
        if cfg.init is not None and cfg.init.n_types != shape[0]:
            raise ValueError(f"init strategy has {cfg.init.n_types} rows, expected {shape[0]}")
        start = (Strategy.zeros(shape[0]) if cfg.init is None else cfg.init).table.ravel()
        box = tuple(np.repeat(ctx.bounds, len(SIGNALS), axis=0).T)
        iteration = (lambda x: _respond(environment(Strategy(x.reshape(shape)))[0], cfg.opt_tol).table.ravel(),
                     start, box, lambda x: Strategy(x.reshape(shape)))
    step, start, box, strategy_at = iteration
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NewtonCapWarning)
        point, residual, iterations, notes = damped_fixed_point(step, start, cfg.tol, cfg.max_iter, cfg.damping, box)
        strategy = strategy_at(point)
    capped = []
    for record in caught:
        if issubclass(record.category, NewtonCapWarning):
            capped.append(str(record.message))
        else:
            warnings.warn_explicit(record.message, record.category, record.filename, record.lineno)
    final, xbar0s, stats = environment(strategy)
    per_type_M = tuple(_value_constant(final, strategy.table).tolist())
    with np.errstate(over="ignore"):
        values = tuple(value_mf(t, M, t.x0, x, cfg.horizon) for t, M, x in zip(final.investors, per_type_M, xbar0s))
    clipped = np.flatnonzero(jump_cap_binds(strategy.table, final))
    notes += tuple(f"type {i}: M clips E*(1 + phi*eta)^(1-alpha) at a tail node; M is inexact" for i in clipped)
    overflowed = [i for i, value in enumerate(values) if not np.isfinite(value)]
    notes += tuple(f"type {i}: value exp(T(1-alpha)M) overflows double; use per_type_M" for i in overflowed)
    notes += tuple(dict.fromkeys(capped))
    return EquilibriumResult(strategy, residual, iterations, per_type_M, values, residual < cfg.tol, stats, notes)


def _mean_field(pop: Population, q: Quadrature, ctx: TargetContext) -> Callable:
    """The mean-field ``environment`` of ``_solve``: aggregate a strategy, write its statistic into ``ctx``."""

    def environment(strat: Strategy):
        stats = aggregate(pop, strat, q)
        env_ctx = _mf_environment(ctx, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        return env_ctx, [stats.xbar0] * len(pop), stats

    return environment


def solve_mf_finite(pop: Population, q: Quadrature, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Signal-driven mean-field equilibrium for a finite-type population."""
    _require("population", validate_population(pop, require_shared_market=False))
    ctx = _contexts(pop.types, q)
    return _solve(ctx, _mean_field(pop, q, ctx), cfg)


def solve_nagent(
    types: Sequence[InvestorType], q: Quadrature, cfg: SolverConfig = SolverConfig()
) -> EquilibriumResult:
    """Signal-driven Nash equilibrium among n+1 explicit players."""
    types = tuple(types)
    if len(types) < 2:
        raise ValueError("need at least 2 players")
    # Players are not a weighted mixture; the weight field is ignored here.
    _require("players", [v for i, t in enumerate(types) for v in validate_investor(t, i, check_weight=False)])
    ctx = _contexts(types, q)
    # Each player's peer average is the geometric mean of the others' x0: total minus own.
    log_x0 = np.log([t.x0 for t in types])
    peers_x0 = np.exp((log_x0.sum() - log_x0) / (len(types) - 1))
    return _solve(ctx, lambda strat: (_nagent_environment(ctx, strat), peers_x0, None), cfg)


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
    ctx = _contexts(pop.types, q)

    def respond(m: np.ndarray) -> Strategy:
        return _respond(_mf_environment(ctx, float(m[0]), np.asarray(m[1:], dtype=float)), cfg.opt_tol)

    start = statistic_of(pop, cfg.init if cfg.init is not None else Strategy.zeros(len(pop)), q)
    iteration = (lambda m: statistic_of(pop, respond(m), q), start, _statistic_box(pop, q), respond)
    return _solve(ctx, _mean_field(pop, q, ctx), cfg, iteration)


def residual(pop: Population, strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL) -> float:
    """Consistency gap: distance of the strategy from its own best response."""
    return strategy_distance(best_response(pop, strat, q, opt_tol), strat)
