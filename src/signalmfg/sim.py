"""Monte Carlo engine.

The model is piecewise log-normal with multiplicative jumps, so paths are
simulated exactly (no Euler discretization): between jumps wealth grows by the
closed-form log-normal factor, and at each jump it is multiplied by
1 + phi(signal) * eta(e_c).

Randomness comes from one counter-based seed tree: Philox generators keyed by
(master seed, stream id, substream...), so the common realization (jump
times, common marks, W0) can be shared exactly between experiments while
per-agent idiosyncratic draws stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meanfield import aggregate, wealth_drift
from .model import (
    NONE_INDEX,
    SIGNALS,
    InvestorType,
    MarketParams,
    Population,
    Signal,
    Strategy,
    admissible_interval,
    check_admissible,
    row_positions,
)
from .quad import Quadrature
from .response import relative_utility
from .signals import JumpLaw, classify_index, eta, perturb

# Stream ids of the seed tree.
_STREAM_JUMP_TIMES = 0
_STREAM_COMMON_MARKS = 1
_STREAM_W0 = 2
_STREAM_AGENT = 3
_STREAM_TYPES = 4
_STREAM_BATCH = 5


def _generator(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class CommonNoisePath:
    """One realization of the common noise on [0, horizon].

    ``w0_increments`` holds the common Brownian increments over the segments
    between consecutive jump times (plus the final segment up to horizon), so
    it has one more entry than ``jump_times``.
    """

    jump_times: np.ndarray
    common_marks: np.ndarray
    w0_increments: np.ndarray
    horizon: float
    seed: int

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size

    @property
    def w0_total(self) -> float:
        return float(np.sum(self.w0_increments))


@dataclass(frozen=True)
class AgentPath:
    """One agent's outcome on a common path."""

    terminal_wealth: float
    signals: tuple[Signal, ...]
    seed: int


def simulate_common(T: float, market: MarketParams, seed: int) -> CommonNoisePath:
    """Draw jump times (rate lam), standard-normal common marks and W0 increments."""
    if not T > 0:
        raise ValueError("horizon T must be > 0")
    n_jumps = int(_generator(seed, _STREAM_JUMP_TIMES, 0).poisson(market.lam * T)) if market.lam > 0 else 0
    times = np.sort(_generator(seed, _STREAM_JUMP_TIMES, 1).uniform(0.0, T, size=n_jumps))
    marks = _generator(seed, _STREAM_COMMON_MARKS).standard_normal(n_jumps)
    grid = np.concatenate(([0.0], times, [T]))
    increments = _generator(seed, _STREAM_W0).standard_normal(n_jumps + 1) * np.sqrt(np.diff(grid))
    times.setflags(write=False)
    marks.setflags(write=False)
    increments.setflags(write=False)
    return CommonNoisePath(
        jump_times=times, common_marks=marks, w0_increments=increments, horizon=float(T), seed=seed
    )


def simulate_agent(
    inv_type: InvestorType, strat_row, path: CommonNoisePath, seed, agent_id: int = 0
) -> AgentPath:
    """Exact terminal wealth of one agent of ``inv_type`` on a common path.

    ``strat_row`` maps signals to positions (Signal-keyed mapping or a
    sequence in ``SIGNALS`` order).  The agent's idiosyncratic stream supplies
    its Brownian increments, the signal-noise marks e_i1 and the reception
    coins e_i2, drawn in that fixed order.
    """
    row = row_positions(strat_row)
    iv = admissible_interval(inv_type)
    if np.any(row < iv.lo) or np.any(row > iv.hi):
        raise ValueError(f"strategy row leaves the admissible interval [{iv.lo}, {iv.hi}]")
    rng = _generator(int(seed), _STREAM_AGENT, agent_id)
    k = path.n_jumps
    dt = np.diff(np.concatenate(([0.0], path.jump_times, [path.horizon])))
    dW = rng.standard_normal(k + 1) * np.sqrt(dt)
    e_i1 = rng.standard_normal(k)
    e_i2 = rng.uniform(size=k)

    phi0 = row[NONE_INDEX]
    m = inv_type.market
    growth = wealth_drift(m, phi0) * dt + m.sigma * phi0 * dW + m.sigma0 * phi0 * path.w0_increments
    log_wealth = math.log(inv_type.x0) + float(np.sum(growth))
    signals: list[Signal] = []
    if k:
        received = e_i2 <= inv_type.p_s
        labels = classify_index(perturb(inv_type.rho, path.common_marks, e_i1), received)
        jumps = eta(JumpLaw.from_market(m), path.common_marks)
        log_wealth += float(np.sum(np.log1p(row[labels] * jumps)))
        signals = [SIGNALS[int(i)] for i in labels]
    return AgentPath(terminal_wealth=math.exp(log_wealth), signals=tuple(signals), seed=int(seed))


def estimate_utility(
    pop: Population, strat: Strategy, n_paths: int, T: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type mean utility and standard error over ``n_paths`` scenarios.

    On each scenario the peer average wealth is evaluated in closed form on
    the common realization, and one representative agent per type is
    simulated on it with fresh idiosyncratic noise.  The whole batch is drawn
    vectorized from dedicated substreams of the seed tree; jump times never
    enter terminal wealth (positions are signal-driven), so only jump counts
    are drawn.  Returns (means, standard errors), one entry per type.
    """
    if n_paths < 100:
        raise ValueError("need n_paths >= 100 for a meaningful standard error")
    check_admissible(pop, strat)
    market = pop.types[0].market
    if any(t.market.lam != market.lam for t in pop.types):
        raise ValueError("jumps are common events; all types must share the intensity lam")
    stats = aggregate(pop, strat, Quadrature.standard_normal())

    counts = (
        _generator(seed, _STREAM_BATCH, 0).poisson(market.lam * T, size=n_paths)
        if market.lam > 0
        else np.zeros(n_paths, dtype=np.int64)
    )
    total = int(np.sum(counts))
    path_of_jump = np.repeat(np.arange(n_paths), counts)
    marks = _generator(seed, _STREAM_BATCH, 1).standard_normal(total)
    w0 = _generator(seed, _STREAM_BATCH, 2).standard_normal(n_paths) * math.sqrt(T)

    log_mean_jump = np.log(stats.mean_jump(marks)) if total else np.zeros(0)
    log_xbar = (
        math.log(stats.xbar0)
        + stats.taupi_bar * T
        + stats.sigma0pi_bar * w0
        + np.bincount(path_of_jump, weights=log_mean_jump, minlength=n_paths)
    )

    means = np.empty(len(pop))
    errors = np.empty(len(pop))
    for i, t in enumerate(pop.types):
        rng = _generator(seed, _STREAM_BATCH, 10 + i)
        row = strat.row(i)
        phi0 = strat.position(i, Signal.NONE)
        m = t.market
        drift = wealth_drift(m, phi0) * T
        w_own = rng.standard_normal(n_paths) * math.sqrt(T)
        log_x = math.log(t.x0) + drift + m.sigma * phi0 * w_own + m.sigma0 * phi0 * w0
        if total:
            e_i1 = rng.standard_normal(total)
            e_i2 = rng.uniform(size=total)
            labels = classify_index(perturb(t.rho, marks, e_i1), e_i2 <= t.p_s)
            jump_factor = np.log1p(row[labels] * eta(JumpLaw.from_market(m), marks))
            log_x = log_x + np.bincount(path_of_jump, weights=jump_factor, minlength=n_paths)
        u = relative_utility(np.exp(log_x), np.exp(log_xbar), t.alpha, t.theta)
        means[i] = float(np.mean(u))
        errors[i] = float(np.std(u, ddof=1) / math.sqrt(n_paths))
    return means, errors


def simulate_cohort(
    n: int, pop: Population, strat: Strategy, path: CommonNoisePath, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` agents sampled i.i.d. from the population on one shared common path.

    Returns (type indices, terminal wealths); agent ``j`` uses its own
    idiosyncratic substream, so cohorts over the same path are coupled through
    the common noise only.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    check_admissible(pop, strat)
    weights = pop.weights
    type_idx = _generator(seed, _STREAM_TYPES).choice(len(pop), size=n, p=weights / weights.sum())
    wealth = np.empty(n)
    for j in range(n):
        i = int(type_idx[j])
        wealth[j] = simulate_agent(pop.types[i], strat.row(i), path, seed, agent_id=j).terminal_wealth
    return type_idx, wealth


def nagent_geometric_average(
    n: int, pop: Population, strat: Strategy, path: CommonNoisePath, seed: int
) -> float:
    """Geometric average terminal wealth of an n-agent cohort on one path."""
    _, wealth = simulate_cohort(n, pop, strat, path, seed)
    return float(np.exp(np.mean(np.log(wealth))))
