"""Domain types: markets, investor types, populations, strategies.

Positions are stock fractions chosen per signal from a finite alphabet; an
admissible position stays inside a compact interval that keeps wealth strictly
positive through any jump.  Everything here is an immutable value object;
``validate_population`` is the single diagnostic entry point and never raises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

# Admissible stock fractions for the single-stock log-normal-jump market are
# [0, 1 - DEFAULT_POSITION_EPS]: a compact subset of {0} plus the interior of
# [0, 1], which bounds the jump return 1 + phi*eta away from zero.
DEFAULT_POSITION_EPS = 1e-6

WEIGHT_TOL = 1e-12


class Signal(Enum):
    """Finite signal alphabet; ``NONE`` means no signal was received."""

    NEG_INF = "-inf"
    NEG_ONE = "-1"
    NEG_HALF = "-0.5"
    NONE = "0"
    POS_HALF = "+0.5"
    POS_ONE = "+1"
    POS_INF = "+inf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SIGNALS: tuple[Signal, ...] = tuple(Signal)
NONZERO_SIGNALS: tuple[Signal, ...] = tuple(s for s in SIGNALS if s is not Signal.NONE)
SIGNAL_INDEX: dict[Signal, int] = {s: i for i, s in enumerate(SIGNALS)}
NONE_INDEX = SIGNAL_INDEX[Signal.NONE]
NONZERO_INDEX = [SIGNAL_INDEX[z] for z in NONZERO_SIGNALS]


@dataclass(frozen=True)
class MarketParams:
    """Common market block: bank rate, stock drift/volatilities, jump law.

    r, kappa      : risk-free rate and stock drift (1/time)
    sigma, sigma0 : idiosyncratic and common diffusion volatilities (>= 0,
                    not both zero)
    kappa_hat, sigma_hat : drift and volatility of the log-normal jump map
    lam           : jump intensity (1/time); lam = 0 means a jump-free market
    """

    r: float = 0.0
    kappa: float = 0.08
    sigma: float = 0.0
    sigma0: float = 0.3
    kappa_hat: float = 0.0
    sigma_hat: float = 0.1
    lam: float = 10.0


@dataclass(frozen=True)
class InvestorType:
    """One investor type: initial wealth, market, signal and preference block.

    ``p_s`` is the probability of receiving a signal at a jump, ``rho`` the
    signal quality (correlation of the perturbed mark with the common mark),
    ``alpha`` the relative risk aversion (> 0, != 1), ``theta`` the relative
    performance concern in [0, 1] and ``weight`` the population proportion.
    ``eps_b`` shrinks the admissible interval to [0, 1 - eps_b].
    """

    x0: float
    market: MarketParams
    p_s: float
    rho: float
    alpha: float
    theta: float
    weight: float
    eps_b: float = DEFAULT_POSITION_EPS


@dataclass(frozen=True)
class Population:
    """Ordered finite mixture of investor types; weights live on the types."""

    types: tuple[InvestorType, ...]

    def __init__(self, types: Iterable[InvestorType]):
        object.__setattr__(self, "types", tuple(types))

    def __len__(self) -> int:
        return len(self.types)

    @property
    def weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.types])


@dataclass(frozen=True)
class AdmissibleInterval:
    """Compact interval of admissible stock fractions."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty admissible interval [{self.lo}, {self.hi}]")


def admissible_interval(inv_type: InvestorType) -> AdmissibleInterval:
    """Admissible positions for ``inv_type``, under every signal.

    Under the log-normal jump law every signal admits positions in [0, 1];
    the compact sub-interval [0, 1 - eps_b] keeps the jump return 1 + phi*eta
    bounded away from zero.
    """
    return AdmissibleInterval(0.0, 1.0 - inv_type.eps_b)


class Strategy:
    """Per-type table signal -> stock fraction, stored as a (n_types, 7) array.

    Rows follow population order, columns the fixed ``SIGNALS`` order.
    Instances are immutable.
    """

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray | Sequence[Sequence[float]]):
        arr = np.array(table, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(SIGNALS):
            raise ValueError(f"strategy table must be (n_types, {len(SIGNALS)}), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Strategy is immutable")

    @classmethod
    def zeros(cls, n_types: int) -> "Strategy":
        return cls(np.zeros((n_types, len(SIGNALS))))

    @classmethod
    def constant(cls, n_types: int, value: float) -> "Strategy":
        return cls(np.full((n_types, len(SIGNALS)), float(value)))

    @property
    def n_types(self) -> int:
        return self.table.shape[0]

    def position(self, type_index: int, signal: Signal) -> float:
        return float(self.table[type_index, SIGNAL_INDEX[signal]])

    def row(self, type_index: int) -> np.ndarray:
        return self.table[type_index]

    def row_mapping(self, type_index: int) -> dict[Signal, float]:
        return {s: float(self.table[type_index, i]) for i, s in enumerate(SIGNALS)}

    def __repr__(self) -> str:
        return f"Strategy({self.table.tolist()!r})"


def row_positions(row) -> np.ndarray:
    """One type's positions in ``SIGNALS`` order, from a sequence or a Signal-keyed mapping."""
    if isinstance(row, Mapping):
        return np.array([row[s] for s in SIGNALS], dtype=float)
    arr = np.asarray(row, dtype=float)
    if arr.shape != (len(SIGNALS),):
        raise ValueError(f"strategy row must have {len(SIGNALS)} entries, got shape {arr.shape}")
    return arr


def strategy_distance(a: Strategy, b: Strategy) -> float:
    """Sup-norm distance between two strategies on the same index set."""
    if a.table.shape != b.table.shape:
        raise ValueError(f"incompatible strategies: shapes {a.table.shape} vs {b.table.shape}")
    return float(np.max(np.abs(a.table - b.table)))


def check_admissible(pop: Population, strat: Strategy) -> None:
    """Raise, naming the first offending (type, signal), if a position (or NaN) leaves its interval."""
    if strat.n_types != len(pop):
        raise ValueError(f"strategy has {strat.n_types} rows for {len(pop)} types")
    bounds = np.array([(iv.lo, iv.hi) for iv in map(admissible_interval, pop.types)])
    _check_positions(strat.table, bounds, np.zeros(len(pop), dtype=np.intp))


def _check_positions(table: np.ndarray, bounds: np.ndarray, population: np.ndarray) -> None:
    """``check_admissible`` of the rows of ``table`` against their (lo, hi) rows of ``bounds``.

    The rows form populations, labelled in order by ``population``; the
    offending type is named by its index in its own population.
    """
    lo, hi = bounds.T[..., np.newaxis]
    outside = ~((table >= lo) & (table <= hi))
    if outside.any():
        i, k = np.argwhere(outside)[0]
        raise ValueError(
            f"inadmissible position {float(table[i, k])} for type {i - np.searchsorted(population, population[i])}, "
            f"signal {SIGNALS[k].value}: "
            f"allowed [{float(lo[i, 0])}, {float(hi[i, 0])}]"
        )


def check_horizon(T: float) -> None:
    """Raise unless the horizon ``T`` is finite and positive."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"horizon T must be finite and > 0, got {T}")


def _check_integer(value, name: str, least: int = 0) -> None:
    """Raise, naming ``name``, unless ``value`` is an integer >= ``least`` (numpy integers are; ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _exact_weight_sum(types: Sequence[InvestorType]) -> Fraction:
    # Exact rational sum of the user-given decimals; no silent renormalization.
    return sum((Fraction(str(t.weight)) for t in types), Fraction(0))


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _non_numbers(t: InvestorType, check_weight: bool) -> list[str]:
    """The fields of ``t`` (and of its market) that are not real numbers, as ``name=value``."""
    if not isinstance(t.market, MarketParams):
        return [f"market={t.market!r}"]
    skipped = {"market"} if check_weight else {"market", "weight"}
    named = [(f.name, getattr(t, f.name)) for f in fields(t) if f.name not in skipped]
    named += [(f"market {f.name}", getattr(t.market, f.name)) for f in fields(t.market)]
    return [f"{name}={value!r}" for name, value in named if not _is_real(value)]


def validate_investor(t: InvestorType, index: int = 0, check_weight: bool = True) -> list[str]:
    """Violated per-type invariants of one investor, tagged with its index.

    A field (or market field) that is not a real number is reported by name
    instead of range-checked; ``bool`` does not count as a number.
    """
    i = index
    wrong_type = _non_numbers(t, check_weight)
    if wrong_type:
        return [f"type {i}: {field} must be a real number" for field in wrong_type]
    violations: list[str] = []
    if not (t.x0 > 0 and math.isfinite(t.x0)):
        violations.append(f"type {i}: initial wealth x0 must be > 0 and finite, got {t.x0}")
    if not (0.0 <= t.p_s < 1.0):
        violations.append(f"type {i}: signal probability p_s must lie in [0, 1), got {t.p_s}")
    if not abs(t.rho) < 1.0:
        violations.append(f"type {i}: signal quality rho must satisfy |rho| < 1, got {t.rho}")
    if not (t.alpha > 0 and math.isfinite(t.alpha)):
        violations.append(f"type {i}: risk aversion alpha must be > 0 and finite, got {t.alpha}")
    if t.alpha == 1.0:
        violations.append(f"type {i}: alpha != 1 required (log utility is excluded)")
    if not (0.0 <= t.theta <= 1.0):
        violations.append(f"type {i}: concern theta must lie in [0, 1], got {t.theta}")
    if check_weight and not (0.0 <= t.weight <= 1.0):
        violations.append(f"type {i}: weight must lie in [0, 1], got {t.weight}")
    if not (0.0 < t.eps_b < 1.0):
        violations.append(f"type {i}: eps_b must lie in (0, 1), got {t.eps_b}")
    m = t.market
    for name, value in ((f.name, getattr(m, f.name)) for f in fields(m)):
        if not math.isfinite(value):
            violations.append(f"type {i}: market {name} must be finite, got {value}")
    if m.sigma < 0 or m.sigma0 < 0:
        violations.append(f"type {i}: volatilities must be >= 0, got sigma={m.sigma}, sigma0={m.sigma0}")
    if not m.sigma + m.sigma0 > 0:
        violations.append(f"type {i}: need sigma + sigma0 > 0 for a non-degenerate stock")
    if m.lam < 0:
        violations.append(f"type {i}: jump intensity lam must be >= 0, got {m.lam}")
    if m.sigma_hat < 0:
        violations.append(f"type {i}: jump volatility sigma_hat must be >= 0, got {m.sigma_hat}")
    return violations


def validate_population(pop: Population, require_shared_market: bool = True) -> list[str]:
    """Return every violated invariant (empty list iff the population is valid).

    Diagnostic only: never raises, safe to call on arbitrary inputs.
    """
    violations: list[str] = []
    if len(pop) == 0:
        return ["population: must contain at least one type"]

    for i, t in enumerate(pop.types):
        violations.extend(validate_investor(t, i))

    # Non-number and non-finite weights are flagged above; the exact sum cannot take them.
    if all(_is_real(t.weight) and math.isfinite(t.weight) for t in pop.types):
        total = float(_exact_weight_sum(pop.types))
        if abs(total - 1.0) > WEIGHT_TOL:
            violations.append(f"population: weights sum to {total}, expected 1 within {WEIGHT_TOL}")

    if require_shared_market:
        first = pop.types[0].market
        for i, t in enumerate(pop.types[1:], start=1):
            if t.market != first:
                violations.append(f"type {i}: market parameters differ from type 0 (case-study mode)")

    return violations
