"""Case-study signal model: the one place that knows the signal buckets.

A jump carries a common mark e_c ~ N(0,1) that moves the stock through the
log-normal map ``eta``.  Each investor observes, with probability ``p_s``, a
categorical signal built from the perturbed mark
``z = rho * e_c + sqrt(1 - rho^2) * e_i1``: its sign plus one of the size
buckets 0.5 / 1 / inf.  One edges table defines both the classification and
the intervals I(z), hence the signal law
P(z | e_c) = (1 - p_s)*[z = 0] + p_s*N01(I(z, e_c)) that every consumer
reaches through ``signal_kernel`` and ``signal_mixtures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import NONE_INDEX, NONZERO_INDEX, NONZERO_SIGNALS, InvestorType, MarketParams, Signal
from .quad import std_normal_cdf

# Bucket edges on the perturbed mark: the six intervals they cut R into are
# I(z) for ``NONZERO_SIGNALS`` in order.  A mark on an edge goes to the inner
# bucket; z = 0 carries no direction (no signal).
SIGNAL_EDGES = (-1.0, -0.5, 0.0, 0.5, 1.0)
# By symmetry, |z| against the non-negative edges counts buckets outward from 0.
_OUTWARD_EDGES = np.array([e for e in SIGNAL_EDGES if e >= 0.0])


@dataclass(frozen=True)
class JumpLaw:
    """Log-normal jump map parameters; eta(e_c) > -1 for all finite e_c."""

    kappa_hat: float
    sigma_hat: float

    @classmethod
    def from_market(cls, market: MarketParams) -> "JumpLaw":
        return cls(kappa_hat=market.kappa_hat, sigma_hat=market.sigma_hat)

    @property
    def degenerate(self) -> bool:
        """True iff the jump size is identically zero (sizeless jumps)."""
        return self.sigma_hat == 0.0 and self.kappa_hat == 0.0


def eta(law: JumpLaw, e_c):
    """Jump size exp(sigma_hat*e_c + kappa_hat - sigma_hat^2/2) - 1."""
    x = np.asarray(e_c, dtype=float)
    out = np.expm1(law.sigma_hat * x + law.kappa_hat - 0.5 * law.sigma_hat**2)
    return float(out) if np.isscalar(e_c) else out


def perturb(rho: float, e_c, e_i1):
    """Perturbed jump mark rho*e_c + sqrt(1-rho^2)*e_i1; needs |rho| < 1."""
    if not abs(rho) < 1.0:
        raise ValueError(f"signal quality must satisfy |rho| < 1, got {rho}")
    return rho * np.asarray(e_c, dtype=float) + math.sqrt(1.0 - rho * rho) * np.asarray(e_i1, dtype=float)


def classify_index(z_perturbed, received):
    """Index into ``SIGNALS`` of each perturbed mark's signal; no signal when not received."""
    z = np.asarray(z_perturbed, dtype=float)
    outward = np.searchsorted(_OUTWARD_EDGES, np.abs(z))
    outward *= np.sign(z).astype(outward.dtype)
    outward += NONE_INDEX
    return np.where(received, outward, NONE_INDEX)


def signal_kernel(rho: float, e_c):
    """Yield N01(I(z, e_c)) for z in ``NONZERO_SIGNALS`` order, vectorized over e_c.

    I(z, e_c) holds the noise values e_i1 producing signal z at mark e_c; the
    perturbation is increasing in e_i1, so its edges are
    (edge - rho*e_c)/sqrt(1-rho^2).  At rho = 0 the rows are the masses
    N01(I(z)).  Rows are streamed, so callers on many marks never hold six.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"signal quality must satisfy |rho| < 1, got {rho}")
    scale = math.sqrt(1.0 - rho * rho)
    shift = rho * np.asarray(e_c, dtype=float)
    lower = 0.0
    for edge in SIGNAL_EDGES:
        upper = std_normal_cdf((edge - shift) / scale)
        yield upper - lower
        lower = upper
    yield 1.0 - lower


def signal_mixtures(kernel_rows, terms):
    """(1 - p_s)*f(NONE) + p_s*sum_z K_z*f(z) for each (p_s, f) in ``terms``.

    These are expectations under the signal law: ``f`` maps a column of
    ``SIGNALS`` to a value, ``p_s`` may be an array, and ``kernel_rows``
    yields the K_z in ``NONZERO_SIGNALS`` order.  Each row is read once and
    added to every term in turn, so one row is alive at a time.  The kernel
    is not consumed when no term ever receives a signal.
    """
    out = [(1.0 - p_s) * f(NONE_INDEX) for p_s, f in terms]
    live = [(j, p_s, f) for j, (p_s, f) in enumerate(terms) if np.any(p_s > 0.0)]
    if live:
        for column, weight in zip(NONZERO_INDEX, kernel_rows):
            for j, p_s, f in live:
                out[j] = out[j] + p_s * weight * f(column)
    return out


def conditional_prob(z: Signal, e_c, rho: float):
    """N(0,1) probability of I(z, e_c): the row of ``signal_kernel`` for z != 0."""
    if z is Signal.NONE:
        raise ValueError("no conditional interval is defined for the null signal")
    return next(islice(signal_kernel(rho, e_c), NONZERO_SIGNALS.index(z), None))


def signal_frequency(inv_type: InvestorType, z: Signal) -> float:
    """Rate lam * p_s * N01(I(z)) at which the type receives signal z != 0."""
    return inv_type.market.lam * inv_type.p_s * conditional_prob(z, 0.0, 0.0)
