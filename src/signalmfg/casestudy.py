"""Default two-type case-study setup used by the CLI and the test suite.

Reference environment: two equally weighted types with identical wealth,
signal frequency/quality, competitiveness and risk aversion; the alternative
environment deviates only in type B's signal or concern block.
"""

from __future__ import annotations

from .model import InvestorType, MarketParams, Population

DEFAULT_HORIZON = 1.0


def default_market(**overrides) -> MarketParams:
    """The case-study market: ``MarketParams`` defaults with ``overrides`` applied."""
    return MarketParams(**overrides)


def investor(
    market: MarketParams | None = None,
    x0: float = 1.0,
    p_s: float = 0.5,
    rho: float = 0.5,
    theta: float = 0.5,
    alpha: float = 2.0,
    weight: float = 0.5,
) -> InvestorType:
    """A case-study ``InvestorType`` on ``market`` (the case-study market when omitted), with these defaults."""
    market = market if market is not None else default_market()
    return InvestorType(x0=x0, market=market, p_s=p_s, rho=rho, alpha=alpha, theta=theta, weight=weight)


def reference_population(market: MarketParams | None = None) -> Population:
    m = market if market is not None else default_market()
    return Population([investor(m), investor(m)])


def alternative_population(
    market: MarketParams | None = None,
    p_s_b: float = 0.5,
    rho_b: float = 0.5,
    theta_b: float = 0.5,
) -> Population:
    """Reference type A paired with a type B deviating in (p_s, rho, theta)."""
    m = market if market is not None else default_market()
    return Population([investor(m), investor(m, p_s=p_s_b, rho=rho_b, theta=theta_b)])
