"""Wealth dynamics between jumps, and mean-field aggregation.

``wealth_diffusion`` is the one statement of each investor's log-drift
between jumps and exposures to own and common noise: the aggregate, the
n-agent environment and the Monte Carlo kernel read it.  A population with a
signal-driven strategy induces the sufficient statistic of everyone's
environment: drift aggregate, common volatility exposure, initial geometric
mean wealth, and the mean-jump function e_c -> m(e_c) multiplying the
geometric mean wealth at each jump; m mixes each type's log jump return under
its signal law P(z | e_c), once per distinct (rho, p_s, jump law, row) of
the population, the jump law being the market's (kappa_hat, sigma_hat)
(``signals.jump_law``).  The mixture sum_z P(z | e_c) log(1 + pi_z eta) is
formed once, by ``_log_mixture``, from (pi_z, P(z | e_c)) pairs one signal
at a time, each term in place: no signal first, then the nonzero signals in
order.  At marks, m streams: one block of marks at a time, it takes the law
one signal row at a time (``signals.law_rows``), so no law, CDF or
log-return table of a block is built.  It takes only the signals some row
holds (no signal, and every nonzero signal with a nonzero position): a zero
position's term is an exact zero, so m keeps its bits while the CDF skips
the edges of the other signals.  It takes the jump sizes at the marks as
given (``_log_mean_jump_given``), so Monte Carlo computes them once for m
and for its paths, and sums log m per path.  On the quadrature nodes, m is
summed from the columns of the law table of every signal and the jump
sizes there by one kernel, ``_population_sums``, with the evaluator's bits:
``aggregate`` runs it on one population, and both mean-field solvers run it
through ``response._mean_field``, on every population a round iterates at
once, with the tables their target context already holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import NONE_INDEX, SIGNALS, InvestorType, Population, Strategy, check_admissible, check_horizon
from .quad import Quadrature
from .signals import distinct, jump_law, jump_sizes, law_rows, signal_laws

# Marks per block of m(e_c) and of the Monte Carlo passes: bounds the rows of
# a block, each (distinct investors, block), on ~1e6 Monte Carlo marks.
# Measured on the streaming m (2-core Xeon, medians of 7 interleaved runs):
# on 1e6 marks with one and two distinct investors, 2^14 is fastest, 2^12,
# 2^13 and 2^15 to 2^17 take 1.0-1.2x as long; the 1e5-path reference
# estimate_utility at 2^14 took 223 ms, 237-246 ms at the other sizes.
_MARK_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class MeanFieldStats:
    """Sufficient statistic of the mean-field environment.

    sigma0pi_bar : population average of sigma0 * pi(0) (common-vol exposure)
    taupi_bar    : population average log-drift of wealth between jumps
    xbar0        : initial geometric mean wealth
    mean_jump    : exact evaluator of the mean-jump function m(e_c)
    mean_jump_nodes : m tabulated on the quadrature nodes
    """

    sigma0pi_bar: float
    taupi_bar: float
    xbar0: float
    mean_jump: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mean_jump_nodes: np.ndarray = field(repr=False)

    def log_mean_wealth(self, T: float, w0, log_jumps):
        """log geometric mean wealth at T given W0_T and sum log m(e_c) over the marks (scalars or one per path)."""
        return math.log(self.xbar0) + self.taupi_bar * T + self.sigma0pi_bar * w0 + log_jumps


def wealth_diffusion(types: Sequence[InvestorType], pi0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log-drift between jumps, sigma*pi0, sigma0*pi0) of each investor at its no-signal position pi0."""
    r, kappa, sigma, sigma0 = np.array([(t.market.r, t.market.kappa, t.market.sigma, t.market.sigma0) for t in types]).T
    drift = r + pi0 * (kappa - r) - 0.5 * (sigma**2 + sigma0**2) * pi0**2
    return drift, sigma * pi0, sigma0 * pi0


def _log_mixture(terms: Iterable[tuple[np.ndarray, np.ndarray]], sizes: np.ndarray) -> np.ndarray:
    """sum_z P(z | e_c)*log1p(pi_z*eta) of each investor, from its (pi_z, P(z | e_c)) ``terms`` and jump sizes eta.

    Each term is formed in place and added to the mixture before the next
    pair is taken, in the order the pairs come: the no-signal term first,
    then the nonzero signals in order.  The one statement of m's mixture,
    on the quadrature nodes (``_population_sums``) and at marks
    (``_log_mean_jump_given``).
    """
    def term(position: np.ndarray, law: np.ndarray) -> np.ndarray:
        value = np.multiply(position, sizes)
        np.log1p(value, out=value)
        value *= law
        return value

    return functools.reduce(operator.iadd, itertools.starmap(term, terms))


def _log_mean_jump_given(pop: Population, strat: Strategy) -> Callable:
    """log m at flat marks ``e``, given each type's jump sizes there: ``signals.jump_sizes(pop.types, e)``.

    log m(e_c) = sum_i w_i * sum_z P_i(z | e_c) log(1 + pi_iz eta_i(e_c)).  The
    expectation over z is taken once per distinct (rho, p_s, jump law, row),
    so types differing only in weight, x0, alpha or theta share it.  Marks
    go through in blocks of ``_MARK_BLOCK``; in a block ``_log_mixture``
    takes the law one signal row at a time (``signals.law_rows``: CDF row,
    p_s*(CDF_hi - CDF_lo)), so no table of the block is built.  Only the
    held signals come: no signal, and each nonzero signal at which some
    distinct row is nonzero.  The terms of the others are
    P(z | e_c)*log1p(0*eta) = +-0 at finite marks, so leaving them out
    keeps every bit of m (only the sign of a zero log m may differ, and
    m = exp(log m) is 1 either way).  The weighted types are then added one
    at a time, in population order.
    """
    keys = [(t.rho, t.p_s, jump_law(t.market), row.tobytes()) for t, row in zip(pop.types, strat.table)]
    firsts, investor_of = distinct(keys)
    investors = [pop.types[i] for i in firsts]
    rows = strat.table[firsts]
    columns = [j for j, column in enumerate(rows.T) if j == NONE_INDEX or column.any()]
    held, rows = [SIGNALS[j] for j in columns], rows[:, columns].T[:, :, np.newaxis]

    def log_mean_jump_given(e: np.ndarray, jumps: Sequence) -> np.ndarray:
        own = [jumps[i] for i in firsts]
        log_m = np.empty(e.size)
        for start in range(0, e.size, _MARK_BLOCK):
            block = slice(start, start + _MARK_BLOCK)
            laws = law_rows(investors, e[block], held)
            mixture = _log_mixture(((rows[c], law) for c, _, law in laws), np.stack([size[block] for size in own]))
            # One type at a time: np.sum over the type axis would add in pairs on a one-mark block.
            log_m[block] = functools.reduce(operator.iadd, (w * mixture[d] for w, d in zip(pop.weights, investor_of)))
        return log_m

    return log_mean_jump_given


def _mean_jump_evaluator(pop: Population, strat: Strategy) -> Callable:
    """Closed-form m(e_c) at marks of any shape, returned in that shape: ``_log_mean_jump_given``.

    It takes one eta per distinct jump law, and is set up at its first call,
    so a statistic whose m is only read on the nodes sets up nothing.
    """
    setup = functools.cache(lambda: _log_mean_jump_given(pop, strat))

    def mean_jump(e_c):
        flat = np.asarray(e_c, dtype=float).ravel()
        out = np.exp(setup()(flat, jump_sizes(pop.types, flat))).reshape(np.shape(e_c))
        return float(out) if np.isscalar(e_c) else out

    return mean_jump


def _population_sums(types: Sequence[InvestorType], table: np.ndarray, node_law: tuple, nodes: np.ndarray,
                     population: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per population: (sigma0pi_bar, taupi_bar, log xbar0) and m on the quadrature nodes, as ``aggregate`` sums them.

    ``types`` holding ``table`` form populations, labelled 0, 1, ... in
    order by ``population``; ``node_law`` is their (law, sizes) on
    ``nodes``: the ``signals.signal_laws`` table of every signal and the
    stacked ``signals.jump_sizes``, as a target context holds them (``law``,
    ``eta_raw``).  The mixture sum_z P(z | e_c) log(1 + pi_z eta) is taken
    once for all of them, by ``_log_mixture`` over the columns of the law,
    and each population adds its weighted types to +0.0, one at a time in
    its order, as ``np.sum`` over axis 0 adds them: the one statement of m
    on the nodes, for one population (``aggregate``) or for every
    population a lockstep round iterates.  Every m must be finite and > 0.
    """
    drift, _, sigma0pi = wealth_diffusion(types, table[:, NONE_INDEX])
    weights = np.array([t.weight for t in types])[:, np.newaxis]
    order = [NONE_INDEX, *range(NONE_INDEX), *range(NONE_INDEX + 1, len(SIGNALS))]
    mixture = _log_mixture(((table[:, z, np.newaxis], node_law[0][:, z]) for z in order), node_law[1])
    own = np.stack((sigma0pi, drift, np.log([t.x0 for t in types])), axis=1)
    terms = weights * np.concatenate((own, mixture), axis=1)
    # Added to +0.0, as np.sum starts (np.array([-0.0]).sum() is +0.0).  The mixture's sums are only
    # exponentiated: the sign of a zero there moves no bit of m.
    sums = np.array([sum(terms[population == p], 0.0) for p in range(population[-1] + 1)])
    mean_jump = np.exp(sums[:, 3:])
    valid = ((mean_jump > 0.0) & np.isfinite(mean_jump)).all(axis=1)
    if not valid.all():
        row = mean_jump[np.argmin(valid)]
        raise ValueError(f"mean jump factor not positive at node e_c={nodes[np.argmin(row)]}: {row[np.argmin(row)]}")
    mean_jump.setflags(write=False)
    return sums[:, :3], mean_jump


def _stats(pop: Population, strat: Strategy, sums: np.ndarray, mean_jump_nodes: np.ndarray) -> MeanFieldStats:
    """The ``MeanFieldStats`` of one population's ``_population_sums``: (sigma0pi_bar, taupi_bar, log xbar0) and m."""
    evaluator = _mean_jump_evaluator(pop, strat)
    return MeanFieldStats(*map(float, sums[:2]), float(np.exp(sums[2])), evaluator, mean_jump_nodes)


def aggregate(pop: Population, strat: Strategy, q: Quadrature) -> MeanFieldStats:
    """Aggregate a population and strategy into ``MeanFieldStats``.

    m on ``q``'s nodes is summed from the types' signal law and jump sizes
    there by ``_population_sums``, with the population as its one segment;
    it has the bits of the evaluator ``mean_jump`` at the nodes.  The solvers do not
    call this: they sum the same kernel over the tables their target context
    already holds (``response._mean_field``).  Raises on inadmissible
    positions, naming the offending (type, signal).
    """
    check_admissible(pop, strat)
    node_law = signal_laws(pop.types, q.nodes)[1], np.stack(jump_sizes(pop.types, q.nodes))
    sums, mean_jump = _population_sums(pop.types, strat.table, node_law, q.nodes, np.zeros(len(pop), dtype=np.intp))
    return _stats(pop, strat, sums[0], mean_jump[0])


def mean_log_terminal(stats: MeanFieldStats, common_path, T: float) -> float:
    """log of the geometric mean wealth at T on one common-noise realization.

    ``common_path`` must cover exactly [0, T]; the value is
    ``stats.log_mean_wealth`` with the sum of log m(e_c_k) over its marks.
    """
    check_horizon(T)
    if abs(common_path.horizon - T) > 1e-12:
        raise ValueError(f"common path covers [0, {common_path.horizon}], requested T={T}")
    log_jumps = np.sum(np.log(stats.mean_jump(common_path.common_marks)))
    return float(stats.log_mean_wealth(T, common_path.w0_total, log_jumps))
