"""Case-study signal model: the one place that knows the signal buckets.

A jump carries a common mark e_c ~ N(0,1) that moves the stock through the
log-normal map ``eta``.  Each investor observes, with probability ``p_s``, a
categorical signal built from the perturbed mark
``z = rho * e_c + sqrt(1 - rho^2) * e_i1``: its sign plus one of the size
buckets 0.5 / 1 / inf.  One edges table defines both the classification and
the intervals I(z), hence the signal law
P(z | e_c) = (1 - p_s)*[z = 0] + p_s*N01(I(z, e_c)).  ``signal_laws`` is
the one builder of its tables: the mean-jump function, the n-agent peer
mixtures and the target contexts all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import NONE_INDEX, NONZERO_INDEX, NONZERO_SIGNALS, SIGNALS, InvestorType, MarketParams, Signal
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


def per_distinct(keys: Sequence, build: Callable[..., np.ndarray]) -> np.ndarray:
    """``build(key)`` once per distinct key, gathered into one row per entry of ``keys``."""
    distinct = list(dict.fromkeys(keys))
    return np.stack([build(key) for key in distinct])[[distinct.index(key) for key in keys]]


def signal_kernel(rho: float, e_c) -> np.ndarray:
    """N01(I(z, e_c)) for z in ``NONZERO_SIGNALS`` order: a (6, *shape(e_c)) table.

    I(z, e_c) holds the noise values e_i1 producing signal z at mark e_c; the
    perturbation is increasing in e_i1, so its edges are
    (edge - rho*e_c)/sqrt(1-rho^2).  At rho = 0 the rows are the masses
    N01(I(z)).
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"signal quality must satisfy |rho| < 1, got {rho}")
    edges = np.subtract.outer(SIGNAL_EDGES, rho * np.asarray(e_c, dtype=float))
    cdf = std_normal_cdf(edges / math.sqrt(1.0 - rho * rho))
    return np.concatenate((cdf[:1], cdf[1:] - cdf[:-1], 1.0 - cdf[-1:]))


def signal_laws(types: Sequence[InvestorType], e_c) -> tuple[np.ndarray, np.ndarray]:
    """(kernels, law) of ``types`` at marks ``e_c``: the one builder of P(z | e_c) tables.

    ``kernels`` (investors, 6, *shape(e_c)) is each investor's
    ``signal_kernel``, built once per distinct rho; ``law``
    (investors, 7, *shape(e_c)) is P(z | e_c) = (1 - p_s)*[z = 0] + p_s*kernel
    in ``SIGNALS`` order.
    """
    e = np.asarray(e_c, dtype=float)
    kernels = per_distinct([t.rho for t in types], lambda rho: signal_kernel(rho, e))
    p_s = np.array([t.p_s for t in types]).reshape((-1, 1) + (1,) * e.ndim)
    law = np.full((len(types), len(SIGNALS)) + e.shape, 1.0 - p_s)
    law[:, NONZERO_INDEX] = p_s * kernels
    return kernels, law


def conditional_prob(z: Signal, e_c, rho: float):
    """N(0,1) probability of I(z, e_c): the row of ``signal_kernel`` for z != 0."""
    if z is Signal.NONE:
        raise ValueError("no conditional interval is defined for the null signal")
    return signal_kernel(rho, e_c)[NONZERO_SIGNALS.index(z)]
