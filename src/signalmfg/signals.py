"""Case-study signal model: the one place that knows the signal buckets.

A jump carries a common mark e_c ~ N(0,1) that moves the stock through the
log-normal map ``eta``, fixed by the market's jump law (kappa_hat,
sigma_hat), the key ``jump_law``; ``jump_sizes`` evaluates eta once per
distinct jump law among its investors.  Each investor observes, with
probability ``p_s``, a categorical signal built from the perturbed mark
``z = rho * e_c + sqrt(1 - rho^2) * e_i1``: its sign plus one of the size
buckets 0.5 / 1 / inf.  One edges table defines both the classification and
the intervals I(z), hence the signal law
P(z | e_c) = (1 - p_s)*[z = 0] + p_s*N01(I(z, e_c)).  It is written once,
one signal row at a time: ``signal_rows`` states N01(I(z, e_c)) as CDF
differences at the edges of the signals asked for (all by default), each
edge's CDF once for any number of rho, and ``law_rows`` weights them by
p_s.  The tables stack the rows: ``signal_kernel``, and ``signal_laws``'s
(investors, 7, nodes) law in ``SIGNALS`` order, which the target contexts
and the n-agent peer mixtures read and ``signal_expectation`` sums; the
mean-jump function at marks streams ``law_rows`` of the signals a strategy
holds instead.  ``classify_index`` is the signal before reception
(``signal_offset``, one byte per mark) followed by reception (``receive``),
so Monte Carlo can keep the first and draw the reception coins later.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import NONE_INDEX, NONZERO_SIGNALS, SIGNALS, InvestorType, MarketParams, Signal
from .quad import std_normal_cdf

# Bucket edges on the perturbed mark: the six intervals they cut R into are
# I(z) for ``NONZERO_SIGNALS`` in order.  A mark on an edge goes to the inner
# bucket; z = 0 carries no direction (no signal).
SIGNAL_EDGES = (-1.0, -0.5, 0.0, 0.5, 1.0)


def jump_law(market: MarketParams) -> tuple[float, float]:
    """(kappa_hat, sigma_hat): the jump law, the part of ``market`` that fixes its jump sizes."""
    return market.kappa_hat, market.sigma_hat


def eta(market: MarketParams, e_c):
    """Jump size exp(sigma_hat*e_c + kappa_hat - sigma_hat^2/2) - 1 of ``market``; > -1 for all finite e_c."""
    x = np.asarray(e_c, dtype=float)
    out = np.expm1(market.sigma_hat * x + market.kappa_hat - 0.5 * market.sigma_hat**2)
    return float(out) if np.isscalar(e_c) else out


def perturb(rho: float, e_c, e_i1):
    """Perturbed jump mark rho*e_c + sqrt(1-rho^2)*e_i1; needs |rho| < 1.

    The sum is formed in place in the noise term, so ``e_i1`` has the shape
    of the result (or is a scalar).
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"signal quality must satisfy |rho| < 1, got {rho}")
    z = np.multiply(math.sqrt(1.0 - rho * rho), e_i1, dtype=float)
    z += rho * np.asarray(e_c, dtype=float)
    return z


def distinct(keys: Sequence) -> tuple[list[int], list[int]]:
    """Where each distinct key first occurs in ``keys``, and the position of each key among the distinct ones."""
    rank: dict = {}
    position = [rank.setdefault(key, len(rank)) for key in keys]
    firsts: list[int] = []
    for i, d in enumerate(position):
        if d == len(firsts):
            firsts.append(i)
    return firsts, position


def jump_sizes(types: Sequence[InvestorType], e_c) -> list:
    """``eta`` of each type's market at ``e_c``, once per distinct ``jump_law``: types sharing one share its array."""
    firsts, law_of = distinct([jump_law(t.market) for t in types])
    sizes = [eta(types[i].market, e_c) for i in firsts]
    return [sizes[d] for d in law_of]


def signal_offset(z_perturbed) -> np.ndarray:
    """Each perturbed mark's signal before reception: its index into ``SIGNALS`` minus ``NONE_INDEX``.

    Counts the edges each mark lies strictly beyond, outward from 0, so a mark
    on an edge goes to the inner bucket; the result has dtype ``np.int8``.
    """
    z = np.asarray(z_perturbed, dtype=float)
    outward = np.zeros(z.shape, dtype=np.int8)
    for edge in SIGNAL_EDGES:
        if edge >= 0.0:
            outward += z > edge
        if edge <= 0.0:
            outward -= z < edge
    return outward


def receive(offset, received):
    """Index into ``SIGNALS`` (dtype ``np.intp``) of ``signal_offset`` values; no signal when not received."""
    return np.add(offset * received, NONE_INDEX, dtype=np.intp)


def classify_index(z_perturbed, received):
    """Index into ``SIGNALS`` of each perturbed mark's signal; no signal when not received."""
    return receive(signal_offset(z_perturbed), received)


def signal_rows(rho, e_c, signals: Sequence[Signal] = NONZERO_SIGNALS):
    """N01(I(z, e_c)) for z in ``signals``, one (*shape(rho), *shape(e_c)) row at a time.

    ``signals`` is a subsequence of ``NONZERO_SIGNALS``.  I(z, e_c) holds
    the noise values e_i1 producing signal z at mark e_c; the perturbation
    is increasing in e_i1, so its edges are (edge - rho*e_c)/sqrt(1-rho^2),
    and a row is the CDF at its upper edge less the CDF at its lower one
    (1 above the last edge, 0 below the first).  Each edge's CDF is
    evaluated once, for every rho and mark: the upper CDF of a signal is
    kept as the lower one of the next when they are neighbours.  At rho = 0
    the rows are the masses N01(I(z)).  The one statement of the CDF
    differences, for the tables (``signal_kernel``) and the rows that
    ``law_rows`` weights.
    """
    rho = np.asarray(rho, dtype=float)
    if not (np.abs(rho) < 1.0).all():
        raise ValueError(f"signal quality must satisfy |rho| < 1, got {rho}")
    e = np.asarray(e_c, dtype=float)
    rho_e, scale = np.multiply.outer(rho, e), np.sqrt(1.0 - rho * rho).reshape(rho.shape + (1,) * e.ndim)

    def cdf(edge: int):  # the CDF at one edge, for every rho and mark
        return std_normal_cdf((SIGNAL_EDGES[edge] - rho_e) / scale)

    upper, last = None, None
    for k in map(NONZERO_SIGNALS.index, signals):
        # Signal k of NONZERO_SIGNALS lies between edges k - 1 and k of SIGNAL_EDGES.
        lower = upper if last == k - 1 else cdf(k - 1) if k else 0.0
        upper, last = cdf(k) if k < len(SIGNAL_EDGES) else 1.0, k
        yield upper - lower


def signal_kernel(rho, e_c, signals: Sequence[Signal] = NONZERO_SIGNALS) -> np.ndarray:
    """N01(I(z, e_c)) for z in ``signals``: the ``signal_rows`` as a (len(signals), *shape(rho), *shape(e_c)) table."""
    return np.reshape(list(signal_rows(rho, e_c, signals)), (len(signals),) + np.shape(rho) + np.shape(e_c))


def law_rows(types: Sequence[InvestorType], e_c, signals: Sequence[Signal] = SIGNALS):
    """P(z | e_c) of ``types`` for z in ``signals``, one signal at a time: (column, kernel, law) triples.

    ``signals`` is a subsequence of ``SIGNALS`` that holds ``Signal.NONE``;
    ``column`` indexes it.  The rows come in ``signal_expectation``'s order:
    no signal first, with ``kernel`` None and ``law`` = 1 - p_s, then the
    nonzero signals in order, with ``kernel`` each investor's N01(I(z, e_c))
    (``signal_rows`` over the distinct rho, picked per investor only when
    some, not all, share a rho) and ``law`` = p_s * ``kernel``.  Each row
    broadcasts to (investors, *shape(e_c)).
    """
    e = np.asarray(e_c, dtype=float)
    nonzero = [column for column, z in enumerate(signals) if z is not Signal.NONE]
    firsts, rho_of = distinct([t.rho for t in types])
    p_s = np.array([t.p_s for t in types]).reshape((-1,) + (1,) * e.ndim)
    yield signals.index(Signal.NONE), None, 1.0 - p_s
    kernels = signal_rows([types[i].rho for i in firsts], e, [signals[column] for column in nonzero])
    for column, kernel in zip(nonzero, kernels):
        kernel = kernel[rho_of] if 1 < len(firsts) < len(types) else kernel
        yield column, kernel, p_s * kernel


def signal_laws(types: Sequence[InvestorType], e_c,
                signals: Sequence[Signal] = SIGNALS) -> tuple[np.ndarray, np.ndarray]:
    """(kernels, law) of ``types`` at marks ``e_c``: the tables of P(z | e_c) for z in ``signals``.

    ``signals`` is a subsequence of ``SIGNALS`` that holds ``Signal.NONE``,
    all of them by default.  ``kernels`` (investors, nonzero signals,
    *shape(e_c)) is each investor's ``signal_kernel`` on the nonzero ones
    and ``law`` (investors, len(signals), *shape(e_c)) is P(z | e_c) in
    ``signals`` order, both filled from ``law_rows``.
    """
    shape = np.shape(e_c)
    kernels, law = np.empty((len(types), len(signals) - 1) + shape), np.empty((len(types), len(signals)) + shape)
    for k, (column, kernel, row) in enumerate(law_rows(types, e_c, signals)):
        law[:, column] = row
        if k:  # the no-signal row comes first and has no kernel
            kernels[:, k - 1] = kernel
    return kernels, law


def signal_expectation(law: np.ndarray, values: np.ndarray, signals: Sequence[Signal] = SIGNALS) -> np.ndarray:
    """E[v(z) | e_c] under P(z | e_c), the ``signal_laws`` table ``law`` of ``signals``.

    ``values`` (len(signals), investors, *shape(e_c)) holds v at each
    signal in ``signals`` order.  The terms P(z | e_c)*v(z) are added one
    column of ``law`` at a time: the no-signal term first, then the nonzero
    signals in ``NONZERO_SIGNALS`` order.  A signal left out adds nothing
    where its v is 0, except the sign of a zero expectation.
    """
    none = signals.index(Signal.NONE)
    total = law[:, none] * values[none]
    for z in [*range(none), *range(none + 1, len(signals))]:
        total += law[:, z] * values[z]
    return total


def conditional_prob(z: Signal, e_c, rho: float):
    """N(0,1) probability of I(z, e_c): the row of ``signal_kernel`` for z != 0."""
    if z is Signal.NONE:
        raise ValueError("no conditional interval is defined for the null signal")
    return signal_kernel(rho, e_c)[NONZERO_SIGNALS.index(z)]
