"""Monte Carlo engine.

The model is piecewise log-normal with multiplicative jumps, so paths are
simulated exactly (no Euler discretization): between jumps wealth grows by the
closed-form log-normal factor, and at each jump it is multiplied by
1 + phi(signal) * eta(e_c).  One elementwise kernel in two steps turns draws
and the jump sizes eta(e_c) into these log returns and signal labels: the
signals before reception are read off e_i1 (``signals.signal_offset``), and
``_exact_path`` applies reception by e_i2 and returns the diffusion and jump
terms, from each type's diffusion coefficients (``meanfield.wealth_diffusion``,
taken once per type and call) and with the jump returns formed in place.
``_log_wealth`` sums them per agent (``simulate_agent``,
``simulate_cohort``), ``estimate_utility`` per path.  Each evaluates eta once
per distinct jump law (kappa_hat, sigma_hat) of its types' markets
(``signals.jump_sizes``); ``estimate_utility`` hands the same sizes to m(e_c)
and to every type's paths.

Randomness comes from one counter-based seed tree: Philox generators keyed by
(master seed, stream id, substream...), so the common realization can be
shared exactly between experiments while idiosyncratic draws stay independent.
Streams by id, each with its draws in order:

  0  jump times     substream 0: jump count k; substream 1: k uniform times
  1  common marks   k N(0,1) marks
  2  W0             k + 1 common Brownian increments
  3  agent          ``simulate_agent``, substream agent_id: noise blocks, n = 1
  4  types          ``simulate_cohort``: the n agents' type indices
  5  batch          ``estimate_utility``: 0 counts, 1 marks, 2 W0, 10 + i type i's noise
  6  cohort         ``simulate_cohort``: noise blocks of its n agents

Noise blocks (``_log_wealth``) hold agents in rows, jumps in columns:
Brownian increments (n, k+1), signal-noise marks e_i1 (n, k), reception
coins e_i2 (n, k); agent j of a cohort reads row j of each.  In
``estimate_utility`` type i draws one increment over [0, T] per path, then
e_i1 and e_i2 for every jump of the batch.  The ziggurat takes a random
number of draws, so a type's first e_i2 is reached only after its last e_i1:
``estimate_utility`` makes two passes over path-aligned blocks of about
``meanfield._MARK_BLOCK`` marks.  Pass 1 draws each block's marks and every
type's e_i1, sums log m(e_c) per path (m streams its signal law one row at a
time, with no per-block law table), and keeps eta at the marks (8 bytes per
mark and distinct jump law) and each type's signals before reception (int8,
1 byte per mark and type).  Pass 2 draws each type's e_i2 block by
block, applies reception and sums the jump returns per path.  A block holds
whole paths, so each path's terms are added in the order of one pass over
all marks, whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meanfield import _MARK_BLOCK, _log_mean_jump_given, aggregate, wealth_diffusion
from .model import (
    NONE_INDEX,
    SIGNALS,
    InvestorType,
    MarketParams,
    Population,
    Signal,
    Strategy,
    _check_integer,
    check_admissible,
    check_horizon,
    row_positions,
)
from .quad import Quadrature
from .response import relative_utility
from .signals import jump_sizes, perturb, receive, signal_offset

# Stream ids of the seed tree, in the order of the table above.
_STREAM_JUMP_TIMES, _STREAM_COMMON_MARKS, _STREAM_W0, _STREAM_AGENT = range(4)
_STREAM_TYPES, _STREAM_BATCH, _STREAM_COHORT = range(4, 7)
# Fewest paths ``estimate_utility`` accepts: fewer give no meaningful standard error.
MIN_PATHS = 100


def _generator(seed: int, *substream: int) -> np.random.Generator:
    _check_integer(seed, "seed")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *substream))))


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
    check_horizon(T)
    n_jumps = int(_generator(seed, _STREAM_JUMP_TIMES, 0).poisson(market.lam * T)) if market.lam > 0 else 0
    times = np.sort(_generator(seed, _STREAM_JUMP_TIMES, 1).uniform(0.0, T, size=n_jumps))
    marks = _generator(seed, _STREAM_COMMON_MARKS).standard_normal(n_jumps)
    grid = np.concatenate(([0.0], times, [T]))
    increments = _generator(seed, _STREAM_W0).standard_normal(n_jumps + 1) * np.sqrt(np.diff(grid))
    for drawn in (times, marks, increments):
        drawn.setflags(write=False)
    return CommonNoisePath(times, marks, increments, horizon=float(T), seed=seed)


def _exact_path(diffusion, row: np.ndarray, p_s: float, dt, dW, dW0, offsets, sizes, e_i2):
    """(diffusion, jumps, labels) of an investor holding ``row``, elementwise over its draws.

    ``diffusion`` is the investor's (drift, sigma*pi0, sigma0*pi0), one
    entry of ``meanfield.wealth_diffusion``.  It returns diffusion =
    drift*dt + sigma*pi0*dW + sigma0*pi0*dW0 per segment; jumps =
    log(1 + pi_z*eta(e_c)) and labels = z per common mark: ``offsets`` are
    the signals before reception (``signals.signal_offset`` of the perturbed
    marks), received where e_i2 <= p_s; ``sizes`` is eta at the marks under
    the investor's jump law.  The jump returns are formed in place in one
    array.
    """
    drift, sigma_pi, sigma0_pi = diffusion
    labels = receive(offsets, e_i2 <= p_s)
    jumps = row[labels]
    jumps *= sizes
    np.log1p(jumps, out=jumps)
    return drift * dt + sigma_pi * dW + sigma0_pi * dW0, jumps, labels


def _log_wealth(types, rows, type_idx: np.ndarray, path: CommonNoisePath, rng) -> tuple[np.ndarray, np.ndarray]:
    """Exact log terminal wealth (n,) and signal labels (n, k) of n agents on one common path.

    Agent j is of type ``types[type_idx[j]]``, holds ``rows[type_idx[j]]`` and
    reads row j of the noise blocks drawn from ``rng`` (module docstring).
    """
    n, k = type_idx.size, path.n_jumps
    dt = np.diff(np.concatenate(([0.0], path.jump_times, [path.horizon])))
    dW = rng.standard_normal((n, k + 1)) * np.sqrt(dt)
    e_i1 = rng.standard_normal((n, k))
    e_i2 = rng.uniform(size=(n, k))
    sizes = jump_sizes(types, path.common_marks)
    coefficients = np.transpose(wealth_diffusion(types, rows[:, NONE_INDEX]))
    log_wealth = np.empty(n)
    labels = np.empty((n, k), dtype=int)
    for i in np.unique(type_idx):
        sel = type_idx == i
        offsets = signal_offset(perturb(types[i].rho, path.common_marks, e_i1[sel]))
        diffusion, jumps, own = _exact_path(
            coefficients[i], rows[i], types[i].p_s, dt, dW[sel], path.w0_increments, offsets, sizes[i], e_i2[sel]
        )
        log_wealth[sel] = math.log(types[i].x0) + diffusion.sum(axis=1) + jumps.sum(axis=1)
        labels[sel] = own
    return log_wealth, labels


def simulate_agent(
    inv_type: InvestorType, strat_row, path: CommonNoisePath, seed, agent_id: int = 0
) -> AgentPath:
    """Exact terminal wealth of one agent of ``inv_type`` on a common path.

    ``strat_row`` maps signals to positions (Signal-keyed mapping or a
    sequence in ``SIGNALS`` order).  The agent's own substream
    (seed, 3, agent_id) supplies its noise blocks in ``_log_wealth`` order.
    """
    row = row_positions(strat_row)
    check_admissible(Population([inv_type]), Strategy(row[np.newaxis]))
    rng = _generator(seed, _STREAM_AGENT, agent_id)
    log_wealth, labels = _log_wealth((inv_type,), row[None, :], np.zeros(1, dtype=int), path, rng)
    return AgentPath(math.exp(log_wealth[0]), tuple(SIGNALS[i] for i in labels[0]), seed=int(seed))


def _path_blocks(counts: np.ndarray):
    """Path-aligned blocks of about ``_MARK_BLOCK`` marks: (path slice, path of each mark within it).

    A block holds whole paths, so a path's terms are summed in the order of
    one pass over all marks; a path with more marks than that is a block.
    """
    ends = np.cumsum(counts)
    first = 0
    while first < counts.size:
        done = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _MARK_BLOCK, side="right")))
        yield slice(first, last), np.repeat(np.arange(last - first), counts[first:last])
        first = last


def _by_path(paths: slice, path_of_jump: np.ndarray, per_jump: np.ndarray) -> np.ndarray:
    """Sum of ``per_jump`` over each path of a block, in mark order; 0 on a path without marks."""
    return np.bincount(path_of_jump, weights=per_jump, minlength=paths.stop - paths.start)


def estimate_utility(
    pop: Population, strat: Strategy, n_paths: int, T: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-type mean utility and standard error over ``n_paths`` scenarios.

    On each scenario the peer average wealth is evaluated in closed form on
    the common realization, and one representative agent per type is
    simulated on it with fresh idiosyncratic noise.  The batch is drawn
    vectorized, in two passes over path-aligned blocks of marks (module
    docstring), from dedicated substreams of the seed tree; jump times never
    enter terminal wealth (positions are signal-driven), so only jump counts
    are drawn.  Returns (means, standard errors), one entry per type.
    """
    _check_integer(n_paths, "n_paths", MIN_PATHS)
    check_horizon(T)
    check_admissible(pop, strat)
    market = pop.types[0].market
    if any(t.market.lam != market.lam for t in pop.types):
        raise ValueError("jumps are common events; all types must share the intensity lam")
    stats = aggregate(pop, strat, Quadrature.standard_normal())

    counts = _generator(seed, _STREAM_BATCH, 0).poisson(market.lam * T, size=n_paths)
    marks_rng = _generator(seed, _STREAM_BATCH, 1)
    w0 = _generator(seed, _STREAM_BATCH, 2).standard_normal(n_paths) * math.sqrt(T)
    rngs = [_generator(seed, _STREAM_BATCH, 10 + i) for i in range(len(pop))]
    w_own = [rng.standard_normal(n_paths) * math.sqrt(T) for rng in rngs]
    log_mean_jump = _log_mean_jump_given(pop, strat)

    # Pass 1, block by block: the marks, eta once per distinct jump law (kept),
    # log m summed per path, and each type's e_i1 and signals before reception (kept).
    log_m, kept = np.empty(n_paths), []
    for paths, path_of_jump in _path_blocks(counts):
        marks = marks_rng.standard_normal(path_of_jump.size)
        sizes = jump_sizes(pop.types, marks)
        log_m[paths] = _by_path(paths, path_of_jump, log_mean_jump(marks, sizes))
        e_i1 = [rng.standard_normal(marks.size) for rng in rngs]
        kept.append((sizes, [signal_offset(perturb(t.rho, marks, e)) for t, e in zip(pop.types, e_i1)]))
    xbar = np.exp(stats.log_mean_wealth(T, w0, log_m))

    # Pass 2, the same blocks: each type's e_i2, its reception and jumps, its log wealth per path.
    log_wealth = np.empty((len(pop), n_paths))
    coefficients = np.transpose(wealth_diffusion(pop.types, strat.table[:, NONE_INDEX]))
    for (paths, path_of_jump), (sizes, offsets) in zip(_path_blocks(counts), kept):
        for i, (t, rng) in enumerate(zip(pop.types, rngs)):
            e_i2 = rng.uniform(size=path_of_jump.size)
            diffusion, jumps, _ = _exact_path(coefficients[i], strat.table[i], t.p_s, T, w_own[i][paths], w0[paths],
                                              offsets[i], sizes[i], e_i2)
            log_wealth[i, paths] = math.log(t.x0) + diffusion + _by_path(paths, path_of_jump, jumps)

    means, errors = np.empty((2, len(pop)))
    for i, t in enumerate(pop.types):
        u = relative_utility(np.exp(log_wealth[i]), xbar, t.alpha, t.theta)
        means[i] = float(np.mean(u))
        errors[i] = float(np.std(u, ddof=1) / math.sqrt(n_paths))
    return means, errors


def simulate_cohort(
    n: int, pop: Population, strat: Strategy, path: CommonNoisePath, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` agents sampled i.i.d. from the population on one shared common path.

    Returns (type indices, terminal wealths).  Agent j's noise is row j of the
    cohort stream's blocks, so cohorts over the same path are coupled through
    the common noise only.
    """
    _check_integer(n, "n", 1)
    check_admissible(pop, strat)
    weights = pop.weights
    type_idx = _generator(seed, _STREAM_TYPES).choice(len(pop), size=n, p=weights / weights.sum())
    log_wealth, _ = _log_wealth(pop.types, strat.table, type_idx, path, _generator(seed, _STREAM_COHORT))
    return type_idx, np.exp(log_wealth)
