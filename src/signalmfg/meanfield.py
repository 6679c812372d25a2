"""Mean-field aggregation.

A population together with a signal-driven strategy induces the sufficient
statistic of everyone's environment: the drift aggregate, the common
volatility exposure, the initial geometric mean wealth, and the mean-jump
function e_c -> m(e_c) multiplying the geometric mean wealth at each jump,
which mixes each type's log jump return under its signal law, read from the
tables of ``signals.signal_laws`` one block of marks at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import NONE_INDEX, NONZERO_INDEX, MarketParams, Population, Signal, Strategy, check_admissible
from .quad import Quadrature
from .signals import JumpLaw, eta, per_distinct, signal_laws

# Marks per block of m(e_c): bounds the (types, 7, block) signal-law tables on
# ~1e6 Monte Carlo marks (1 << 16 measured about twice as slow).
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


def wealth_drift(m: MarketParams, pi0: float) -> float:
    """Log-drift of wealth between jumps at stock fraction pi0."""
    return m.r + pi0 * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * pi0**2


def _mean_jump_evaluator(pop: Population, strat: Strategy) -> Callable:
    """Closed-form m(e_c): geometric mean over types and signal outcomes.

    log m(e_c) = sum_i w_i * sum_z P_i(z | e_c) log(1 + pi_iz eta_i(e_c)),
    P_i from ``signal_laws`` and one eta per distinct jump law.  Each type's
    no-signal term is summed first, then its nonzero signals in order, then
    the types in order.  Marks go through in blocks of ``_MARK_BLOCK``.
    """
    rows = strat.table.copy()[:, :, np.newaxis]
    laws = [JumpLaw.from_market(t.market) for t in pop.types]

    def log_mean_jump(e: np.ndarray) -> np.ndarray:
        _, law = signal_laws(pop.types, e)
        terms = law * np.log1p(rows * per_distinct(laws, lambda jump_law: eta(jump_law, e))[:, np.newaxis])
        mixture = sum((terms[:, column] for column in NONZERO_INDEX), terms[:, NONE_INDEX])
        return np.sum(pop.weights[:, np.newaxis] * mixture, axis=0)

    def mean_jump(e_c):
        e = np.atleast_1d(np.asarray(e_c, dtype=float))
        blocks = np.split(e.ravel(), range(_MARK_BLOCK, e.size, _MARK_BLOCK))
        out = np.exp(np.concatenate([log_mean_jump(block) for block in blocks])).reshape(e.shape)
        return float(out[0]) if np.isscalar(e_c) else out

    return mean_jump


def aggregate(pop: Population, strat: Strategy, q: Quadrature) -> MeanFieldStats:
    """Aggregate a population and strategy into ``MeanFieldStats``.

    Raises on inadmissible positions, naming the offending (type, signal).
    """
    check_admissible(pop, strat)
    sigma0pi = 0.0
    taupi = 0.0
    log_xbar0 = 0.0
    for i, t in enumerate(pop.types):
        pi0 = strat.position(i, Signal.NONE)
        m = t.market
        sigma0pi += t.weight * m.sigma0 * pi0
        taupi += t.weight * wealth_drift(m, pi0)
        log_xbar0 += t.weight * np.log(t.x0)

    mean_jump = _mean_jump_evaluator(pop, strat)
    nodes_table = np.asarray(mean_jump(q.nodes), dtype=float)
    if np.any(nodes_table <= 0.0) or not np.all(np.isfinite(nodes_table)):
        k = int(np.argmin(nodes_table))
        raise ValueError(f"mean jump factor not positive at node e_c={q.nodes[k]}: {nodes_table[k]}")
    nodes_table.setflags(write=False)

    return MeanFieldStats(
        sigma0pi_bar=float(sigma0pi),
        taupi_bar=float(taupi),
        xbar0=float(np.exp(log_xbar0)),
        mean_jump=mean_jump,
        mean_jump_nodes=nodes_table,
    )


def mean_log_terminal(stats: MeanFieldStats, common_path, T: float) -> float:
    """log of the geometric mean wealth at T on one common-noise realization.

    ``common_path`` must cover exactly [0, T]; the value is
    log(xbar0) + taupi_bar*T + sigma0pi_bar*W0_T + sum_k log m(e_c_k).
    """
    if abs(common_path.horizon - T) > 1e-12:
        raise ValueError(f"common path covers [0, {common_path.horizon}], requested T={T}")
    out = np.log(stats.xbar0) + stats.taupi_bar * T + stats.sigma0pi_bar * common_path.w0_total
    marks = np.asarray(common_path.common_marks, dtype=float)
    if marks.size:
        out += float(np.sum(np.log(stats.mean_jump(marks))))
    return float(out)
