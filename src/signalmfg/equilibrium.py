"""Fixed-point solvers.

One Anderson-accelerated fixed-point iteration on the best-response map
serves three solvers: the n-agent Nash game, the finite-type mean-field
game iterated in strategy space, and the mean-field game iterated in the
(|marks| + 1)-dimensional statistic space for a finite common-mark law.
Each solver clips every iterate to the box of values its admissible
positions can reach.  The iteration is a generator (``_anderson``) advanced
one image at a time, so one core (``_solve``) runs many fixed points in
lockstep: a sweep's reference and grid-point populations iterate together,
with one best response per iteration for all of them, each population on
its own environment and Anderson history, with the iterates of its solve
alone.  Populations equal byte for byte (a grid point equal to the
reference) are iterated apart but share their Newton rows: the one sharing
rule is ``response._best_rows``'s, by ``static_class`` and the bytes of
environment and start.  ``solve_mf_finite`` is that lockstep solve of
one population and ``damped_fixed_point`` drives one iteration of a given
map.  A solver builds its investors' context once and gives the core one
hook: each round builds one environment for every live problem (a sweep: every
population's mean field from one node mixture, ``response._mean_field``)
and answers each problem's point with its image.  Both mean-field solvers
take a strategy's statistic from that one node mixture
(``meanfield._population_sums`` on the context's tables); the
statistic-space image is the statistic of the best response, and only the
final one gets an environment.  The core iterates, then reads M, values
and notes off each final environment, for every solver alike; a
population's ``MeanFieldStats`` is built once, when it stops.
The equilibria exist by Schauder's theorem, which gives no contraction
rate, so the iteration has no fallback: it runs at the configured
``damping`` to ``max_iter``, and non-convergence is a reported state, not
an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, _population_sums, _stats
from .metrics import _value_constant, value_mf
from .model import (
    ADMISSIBLE_INTERVAL,
    SIGNALS,
    InvestorType,
    Population,
    Strategy,
    check_admissible,
    strategy_distance,
    validate_investor,
    validate_population,
)
from .quad import Quadrature
from .response import (
    DEFAULT_OPT_TOL,
    TargetContext,
    _best_rows,
    _cap_notes,
    _contexts,
    _distinct_investors,
    _mean_field,
    _mf_environment,
    _nagent_environment,
    best_response,
)

# Anderson memory: how many past residual and image differences enter each extrapolation.
_ANDERSON_MEMORY = 3


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    tol      : the iteration stops once the sup residual sup|BR(x) - x| of
               its iterate x is below ``tol`` (in strategy space, or in
               statistic space for ``solve_mf_statistic``).  It bounds the
               residual, not the distance to the fixed point, which is
               larger where the map contracts weakly.
    max_iter : iterations after which a solve stops unconverged.
    damping  : the mixing weight beta of the Anderson iteration
               (``damped_fixed_point``): 1 takes the extrapolated images,
               beta < 1 mixes in the extrapolated iterates.
    init     : the starting strategy (all-zeros when omitted).
    horizon  : the investment horizon of the per-type values in the result.
    opt_tol  : the width of the Newton bracket of each best-response row: a
               row stops once its verified bracket is at most ``opt_tol``/2
               wide, so rows from any two starts agree within ``opt_tol``.
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
    """Converged (or best-effort) equilibrium with diagnostics.

    strategy       : the last iterate; for ``solve_mf_statistic``, the best response to the
                     last statistic iterate.
    residual       : sup|BR(x) - x| at the last iterate x, in the space the solver iterates in.
    iterations     : Anderson steps taken.
    per_type_M     : each type's (or player's) M in its final environment.
    per_type_value : each type's closed-form value over ``SolverConfig.horizon``.
    converged      : ``residual`` < ``SolverConfig.tol``: a small residual, not
                     a bound on the distance to the fixed point.
    stats          : the mean-field statistic of ``strategy``; None for the n-agent game.
    notes          : non-convergence, Newton-cap rows, clipped M and overflowing values.
    """

    strategy: Strategy
    residual: float
    iterations: int
    per_type_M: tuple[float, ...]
    per_type_value: tuple[float, ...]
    converged: bool
    stats: MeanFieldStats | None = None
    notes: tuple[str, ...] = ()


def _anderson(init: np.ndarray, tol: float, max_iter: int, damping: float, box: tuple):
    """The iteration of ``damped_fixed_point``, one image at a time: a generator.

    It yields each point whose image it needs and is sent that image; it
    returns (point, residual, iterations, notes) as ``damped_fixed_point``
    does, the point being the last one it yielded.  Every step is the
    type-II Anderson step with mixing weight ``damping``; the only note is
    the one of non-convergence.  A driver can so advance many iterations
    side by side, each on its own history.
    """
    lo, hi = box
    x = np.array(init, dtype=float)
    iterations = 0
    previous, deltas = None, []  # (x, f, image) of the last step; differences of the steps before, oldest first
    while True:
        image = yield x
        f = image - x
        residual = float(np.max(np.abs(f)))
        if residual < tol or iterations >= max_iter:
            break
        x_bar, image_bar = x, image
        if previous is not None:
            deltas = [*deltas, np.subtract((x, f, image), previous)][-_ANDERSON_MEMORY:]
            d_x, d_f, d_image = np.transpose(deltas, (1, 2, 0))  # each (len(x), len(deltas))
            gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
            x_bar, image_bar = x - d_x @ gamma, image - d_image @ gamma
        previous = (x, f, image)
        x = np.clip((1.0 - damping) * x_bar + damping * image_bar, lo, hi)
        iterations += 1
    notes = () if residual < tol else (f"did not converge within {max_iter} iterations (residual {residual:.3e})",)
    return x, residual, iterations, notes


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
    and the residual is sup|step(point) - point|.  Every iteration is this
    one step at this one ``damping``: an iteration still above ``tol``
    after ``max_iter`` iterations stops with the note "did not converge
    within ... iterations", and a ``damping`` below 1 is the remedy.  This
    drives one ``_anderson``; the solvers drive theirs in lockstep
    (``_solve``).
    """
    iteration = _anderson(init, tol, max_iter, damping, box)
    point = next(iteration)
    while True:
        try:
            point = iteration.send(step(point))
        except StopIteration as stop:
            return stop.value


def _require(what: str, problems: list[str]) -> None:
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(problems))


@dataclass(frozen=True)
class _Problem:
    """One fixed point that ``_solve`` iterates beside others.

    ``investors`` are its investors' places in the batch context.  The
    iteration starts at ``start``, clipped to ``box``; the round that
    ``_solve`` is given answers each point with its image.
    """

    investors: np.ndarray
    start: np.ndarray
    box: tuple


def _strategy_problem(investors: np.ndarray, ctx: TargetContext, cfg: SolverConfig) -> _Problem:
    """The iteration on strategy tables of the investors of ``ctx`` at ``investors``, clipped to the admissible
    interval; its image is the best response.

    An ``init`` outside the admissible interval raises.
    """
    if cfg.init is not None:
        if cfg.init.n_types != len(investors):
            raise ValueError(f"init strategy has {cfg.init.n_types} rows, expected {len(investors)}")
        check_admissible(Population([ctx.investors[i] for i in investors]), cfg.init)
    start = (Strategy.zeros(len(investors)) if cfg.init is None else cfg.init).table.ravel()
    return _Problem(investors, start, ADMISSIBLE_INTERVAL)


def _solve(ctx: TargetContext, problems: Sequence[_Problem], environment: Callable,
           cfg: SolverConfig) -> list[EquilibriumResult]:
    """Every solver's core: the fixed points of ``problems``, iterated in lockstep, and their results.

    ``ctx`` is the context of every problem's investors from
    ``response._contexts``, built once; the problems' ``investors`` split it
    in order.  Each problem runs its own ``_anderson`` iteration.  Every
    round builds one environment for all problems still iterating:
    ``environment(batch, live, points)`` is given ``ctx`` taken at their
    investors, their indices and their points, and returns the batch
    against their environments, each row's Newton start (None for
    ``_best_rows``' default) and ``answer``.
    One best response follows for all of them, where rows never mix
    (``response._best_rows``), so each problem's iterates, residuals and
    iteration count are those of its solve alone.  ``answer(k, part, rows)``
    is, for the k-th live problem, whose investors are ``part`` of the batch
    and whose best-response rows are ``rows``, (the image of its point,
    ``last``), where ``last()`` builds its result's (strategy, context,
    peers' initial wealth, ``MeanFieldStats`` or None) should that point be
    the final one.  A problem drops out when its iteration stops, and its
    result is read off what its last round's ``last`` gives.  M, closed-form
    values and notes are read off each final context, M and its clip flag
    from one evaluation (``metrics._value_constant``) per distinct
    (``static_class``, environment, row): a note per best-response row
    stopped at the Newton cap (``NewtonCapWarning``, named by the investor's
    index in its own problem), per type whose M clips its jump factor and
    per value that overflows double.
    """
    runs = [_anderson(p.start, cfg.tol, cfg.max_iter, cfg.damping, p.box) for p in problems]
    points = [next(run) for run in runs]
    lasts, capped, outcomes = [None] * len(problems), [[] for _ in problems], [None] * len(problems)
    live, batch = list(range(len(problems))), ctx
    while live:
        env_ctx, start, answer = environment(batch, live, [points[i] for i in live])
        rows, stopped = _best_rows(env_ctx, cfg.opt_tol, start)
        for k, (i, end) in enumerate(zip(live, np.cumsum([len(problems[i].investors) for i in live]))):
            part = np.arange(end - len(problems[i].investors), end)
            capped[i] += _cap_notes(stopped[part])
            image, lasts[i] = answer(k, part, rows[part])
            try:
                points[i] = runs[i].send(image)
            except StopIteration as stop:
                outcomes[i] = stop.value
        if any(outcomes[i] is not None for i in live):
            live = [i for i in live if outcomes[i] is None]
            if live:
                batch = ctx.take(np.concatenate([problems[i].investors for i in live]))
    return [_result(*args, cfg) for args in zip(outcomes, lasts, capped)]


def _result(outcome: tuple, last: Callable, capped: list, cfg: SolverConfig) -> EquilibriumResult:
    """The result of a problem from its ``_anderson`` outcome and its last round's ``last``."""
    _, residual, iterations, notes = outcome
    strategy, final, xbar0s, stats = last()
    M, clips = _distinct_investors(final, strategy.table, _value_constant)
    per_type_M = tuple(M.tolist())
    with np.errstate(over="ignore"):
        values = tuple(value_mf(t, m, t.x0, x, cfg.horizon) for t, m, x in zip(final.investors, per_type_M, xbar0s))
    clipped = np.flatnonzero(clips)
    notes += tuple(f"type {i}: M clips E*(1 + phi*eta)^(1-alpha) at a tail node; M is inexact" for i in clipped)
    overflowed = [i for i, value in enumerate(values) if not np.isfinite(value)]
    notes += tuple(f"type {i}: value exp(T(1-alpha)M) overflows double; use per_type_M" for i in overflowed)
    notes += tuple(dict.fromkeys(capped))
    return EquilibriumResult(strategy, residual, iterations, per_type_M, values, residual < cfg.tol, stats, notes)


def _mf_last(pop: Population, table: np.ndarray, final: TargetContext, sums, mean_jump) -> tuple:
    """A mean-field result's pieces (see ``_solve``), its ``MeanFieldStats`` built from its last round's sums."""
    strategy = Strategy(table)
    stats = _stats(pop, strategy, sums, mean_jump)
    return strategy, final, [stats.xbar0] * len(pop), stats


def _solve_mf_many(pops: Sequence[Population], q: Quadrature, cfg: SolverConfig) -> list[EquilibriumResult]:
    """``solve_mf_finite`` of each population of ``pops``, all in one lockstep ``_solve``.

    The populations must be valid (``validate_population``); the caller
    checks them.  One context holds every population's types.  A round
    stacks the live populations' iterates and builds their environments with
    one ``response._mean_field`` call, each population one segment of it; a
    population's ``MeanFieldStats`` is built once, from its last round's
    sums, when it stops.  Each population is its own problem with its own
    result; populations equal byte for byte iterate side by side, and their
    investors share each round's Newton rows through ``response._best_rows``.
    """
    ctx = _contexts([t for pop in pops for t in pop.types], q)
    ends = np.cumsum([len(pop) for pop in pops])
    problems = [_strategy_problem(np.arange(end - len(pop), end), ctx, cfg) for pop, end in zip(pops, ends)]

    def environment(batch: TargetContext, live: list, points: list) -> tuple:
        table = np.concatenate(points).reshape(-1, len(SIGNALS))
        population = np.repeat(np.arange(len(live)), [len(pops[i]) for i in live])
        env, sums, mean_jump = _mean_field(batch, table, population, q.nodes)

        def answer(k: int, part: np.ndarray, rows: np.ndarray) -> tuple:
            pop, final = pops[live[k]], lambda: env if len(live) == 1 else env.take(part)
            return rows.ravel(), lambda: _mf_last(pop, table[part], final(), sums[k], mean_jump[k])

        return env, table, answer

    return _solve(ctx, problems, environment, cfg)


def solve_mf_finite(pop: Population, q: Quadrature, cfg: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Signal-driven mean-field equilibrium for a finite-type population."""
    _require("population", validate_population(pop, require_shared_market=False))
    return _solve_mf_many([pop], q, cfg)[0]


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

    def environment(batch: TargetContext, live: list, points: list) -> tuple:
        strategy = Strategy(points[0].reshape(len(types), len(SIGNALS)))
        env = _nagent_environment(ctx, strategy)
        return env, strategy.table, lambda k, part, rows: (rows.ravel(), lambda: (strategy, env, peers_x0, None))

    return _solve(ctx, [_strategy_problem(np.arange(len(types)), ctx, cfg)], environment, cfg)[0]


def _statistic_box(ctx: TargetContext, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise range of the statistic (sigma0pi_bar, m on ``nodes``) over the admissible strategies of the
    population that ``ctx`` holds.

    sigma0pi_bar and each log m(e_c) sum over types a weighted term that
    moves monotonically with each of the type's positions, all in one
    direction per coordinate, so a type's term is extreme with its whole row
    at one end of its interval: the range is the all-lower statistic plus
    each type's negative, respectively positive, moves to its upper end.
    """
    lo, hi = ADMISSIBLE_INTERVAL
    n_types = len(ctx.investors)
    population = np.zeros(n_types, dtype=np.intp)

    def log_statistic(positions: np.ndarray) -> np.ndarray:
        table = np.repeat(positions[:, np.newaxis], len(SIGNALS), axis=1)
        sums, mean_jump = _population_sums(ctx.investors, table, (ctx.law, ctx.eta_raw), nodes, population)
        return np.concatenate((sums[0, :1], np.log(mean_jump[0])))

    base = log_statistic(np.full(n_types, lo))
    moves = np.array([log_statistic(np.where(np.arange(n_types) == i, hi, lo)) - base for i in range(n_types)])
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
    It starts at the statistic of ``init``, checked as the other solvers
    check it.  The statistic of a strategy is the one node mixture of
    ``response._mean_field`` (``meanfield._population_sums`` on the
    context's tables); a round writes one environment, at its iterate, and
    the result one more, at its final best response.
    """
    _require("population", validate_population(pop, require_shared_market=False))
    marks = [float(m) for m, _ in common_marks]
    probs = [float(p) for _, p in common_marks]
    q = Quadrature.discrete(marks, probs)
    ctx = _contexts(pop.types, q)
    population = np.zeros(len(pop), dtype=np.intp)

    def answer(k: int, part: np.ndarray, rows: np.ndarray) -> tuple:
        # The statistic of ``rows`` is the image; only the result writes its environment, as ``_mean_field`` does.
        sums, mean_jump = _population_sums(ctx.investors, rows, (ctx.law, ctx.eta_raw), q.nodes, population)
        env = lambda: _mf_environment(ctx, sums[0, 0], mean_jump[0], sums[0, 1])
        return np.concatenate((sums[0, :1], mean_jump[0])), lambda: _mf_last(pop, rows, env(), sums[0], mean_jump[0])

    def environment(batch: TargetContext, live: list, points: list) -> tuple:
        # No Newton start: each best response starts at ``_best_rows``' default, the middle of the interval.
        m = points[0]
        return _mf_environment(ctx, float(m[0]), np.asarray(m[1:], dtype=float)), None, answer

    problem = _strategy_problem(np.arange(len(pop)), ctx, cfg)
    start = answer(0, problem.investors, problem.start.reshape(len(pop), len(SIGNALS)))[0]
    return _solve(ctx, [replace(problem, start=start, box=_statistic_box(ctx, q.nodes))], environment, cfg)[0]


def residual(pop: Population, strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL) -> float:
    """Consistency gap: distance of the strategy from its own best response."""
    return strategy_distance(best_response(pop, strat, q, opt_tol), strat)
