"""Closed-form value constants, value functions, and certainty equivalents.

The per-type constant M is the exponent of the closed-form value
``u(x0 * xbar0^-theta) * exp(T (1-alpha) ((1-theta) r + M))``.  Its jump terms
are exactly the best-response targets, so M can be evaluated either at a
supplied strategy's positions or with internal re-maximization; at a fixed
point the two coincide.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .meanfield import MeanFieldStats
from .model import InvestorType, Strategy, row_positions
from .quad import Quadrature
from .response import (
    DEFAULT_OPT_TOL,
    TargetContext,
    context_from_stats,
    nagent_target_context,
    relative_utility,
    respond_type,
    target_values,
)


def _value_constant(ctx: TargetContext, row) -> float:
    """Shared M assembly for both game modes.

    M = theta*(r - taupi_env) + 0.5*theta^2*(1-alpha)*(sigma0pi_env^2 +
    sig2pi2_env) + no-signal target + lam*p_s * sum_z N01(I(z)) * signal-z
    target, each target at the row's position.  The signal sums carry their
    N01(I(z, e_c)) weights directly, which equals the mu(z)-weighted
    conditional suprema for the Gaussian mark law and stays exact for
    discrete mark laws.
    """
    t = ctx.investor
    out = t.theta * (t.market.r - ctx.taupi_env)
    out += 0.5 * t.theta**2 * (1.0 - t.alpha) * (ctx.sigma0pi_env**2 + ctx.sig2pi2_env)
    return float(out + np.dot(target_values(row_positions(row), ctx), ctx.row_mass))


def M_mf(
    inv_type: InvestorType,
    row,
    stats: MeanFieldStats,
    q: Quadrature,
    opt_tol: float = DEFAULT_OPT_TOL,
) -> float:
    """Mean-field value constant of ``inv_type`` in the environment ``stats``.

    ``row`` holds the type's own positions (sequence in ``SIGNALS`` order or a
    Signal-keyed mapping); pass ``None`` to re-maximize each signal target.
    """
    ctx = context_from_stats(inv_type, stats, q)
    return _value_constant(ctx, respond_type(inv_type, ctx, opt_tol) if row is None else row)


def value_mf(inv_type: InvestorType, M: float, x0: float, xbar0: float, T: float) -> float:
    """Closed-form value u(x0 * xbar0^-theta) * exp(T (1-alpha) ((1-theta) r + M))."""
    if not (x0 > 0 and xbar0 > 0):
        raise ValueError("initial wealths must be positive")
    t = inv_type
    base = relative_utility(x0, xbar0, t.alpha, t.theta)
    return float(base * np.exp(T * (1.0 - t.alpha) * ((1.0 - t.theta) * t.market.r + M)))


def M_nagent(i: int, types: Sequence[InvestorType], strategies: Strategy, q: Quadrature) -> float:
    """n-agent value constant for player ``i`` at the supplied strategies."""
    return _value_constant(nagent_target_context(i, types, strategies, q), strategies.row(i))


def certainty_equivalent(M_alt: float, M_ref: float, T: float = 1.0) -> float:
    """Initial capital ratio exp(T (M_alt - M_ref)) equalizing expected utilities at horizon T."""
    return float(np.exp(T * (M_alt - M_ref)))
