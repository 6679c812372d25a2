import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from signalmfg import casestudy
from signalmfg.equilibrium import SolverConfig, solve_mf_finite, solve_nagent
from signalmfg.meanfield import aggregate
from signalmfg.model import (
    NONE_INDEX,
    SIGNALS,
    WEIGHT_TOL,
    ADMISSIBLE_INTERVAL,
    InvestorType,
    Population,
    Signal,
    Strategy,
    check_admissible,
    strategy_distance,
    validate_population,
)
from signalmfg.quad import Quadrature
from signalmfg.response import best_response
from signalmfg.sim import estimate_utility, simulate_agent, simulate_cohort, simulate_common


def two_type_pop(**b_overrides):
    a = casestudy.investor()
    b = dataclasses.replace(casestudy.investor(), **b_overrides)
    return Population([a, b])


class TestValidatePopulation:
    def test_reference_setup_is_valid(self, ref_pop):
        assert validate_population(ref_pop) == []

    def test_log_utility_rejected(self):
        pop = two_type_pop(alpha=1.0)
        violations = validate_population(pop)
        assert any("alpha != 1" in v and "type 1" in v for v in violations)

    def test_weights_must_sum_to_one(self):
        pop = Population([casestudy.investor(weight=0.6), casestudy.investor(weight=0.6)])
        violations = validate_population(pop)
        assert any("sum" in v for v in violations)

    def test_exact_decimal_weights_accepted(self):
        # 0.1 + 0.2 + 0.7 is not exactly 1.0 in binary; the rational check is.
        pop = Population([casestudy.investor(weight=w) for w in (0.1, 0.2, 0.7)])
        assert validate_population(pop) == []

    @settings(max_examples=200, deadline=None)
    @given(
        others=st.lists(st.sampled_from([0.1, 0.2, 0.7, 1.0 / 3.0, 0.25]) | st.floats(0.0, 0.5), max_size=4),
        edge=st.sampled_from([1.0 - WEIGHT_TOL, 1.0, 1.0 + WEIGHT_TOL]),
        ulps=st.integers(-6, 6),
    )
    @example(others=[0.1, 0.2], edge=1.0, ulps=0)  # 0.1 + 0.2 + 0.7
    @example(others=[1.0 / 3.0, 1.0 / 3.0], edge=1.0, ulps=0)
    @example(others=[], edge=1.0 - WEIGHT_TOL, ulps=-1)
    @example(others=[], edge=1.0 + WEIGHT_TOL, ulps=1)
    def test_weight_sums_near_the_tolerance_edges(self, others, edge, ulps):
        # The last weight puts the float sum within a few ulp of 1 or of 1 -+ WEIGHT_TOL; the verdict and its
        # message follow the exact sum of the decimal weights, computed here.
        last = edge - math.fsum(others)
        for _ in range(abs(ulps)):
            last = math.nextafter(last, math.copysign(math.inf, ulps))
        assume(0.0 <= last <= 1.0)
        weights = [*others, last]
        total = float(sum((Fraction(str(w)) for w in weights), Fraction(0)))
        off = [f"population: weights sum to {total}, expected 1 within {WEIGHT_TOL}"]
        pop = Population([casestudy.investor(weight=w) for w in weights])
        assert validate_population(pop, require_shared_market=False) == (off if abs(total - 1.0) > WEIGHT_TOL else [])

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("x0", -1.0, "x0"),
            ("p_s", 1.0, "p_s"),
            ("rho", 1.0, "rho"),
            ("alpha", -0.5, "alpha"),
            ("theta", 1.5, "theta"),
            ("weight", 1.5, "weight"),
        ],
    )
    def test_out_of_range_fields_flagged(self, field, value, fragment):
        pop = two_type_pop(**{field: value})
        violations = validate_population(pop)
        assert any(fragment in v and "type 1" in v for v in violations)

    def test_degenerate_market_flagged(self):
        market = casestudy.default_market(sigma=0.0, sigma0=0.0)
        pop = Population([casestudy.investor(market, weight=1.0)])
        assert any("sigma + sigma0" in v for v in validate_population(pop))

    def test_negative_lam_flagged_but_zero_allowed(self):
        ok = Population([casestudy.investor(casestudy.default_market(lam=0.0), weight=1.0)])
        assert validate_population(ok) == []
        bad = Population([casestudy.investor(casestudy.default_market(lam=-1.0), weight=1.0)])
        assert any("lam" in v for v in validate_population(bad))

    def test_mixed_markets_flagged_in_case_study_mode(self):
        pop = Population(
            [casestudy.investor(), casestudy.investor(casestudy.default_market(kappa=0.1))]
        )
        assert any("market" in v for v in validate_population(pop))
        assert validate_population(pop, require_shared_market=False) == []

    @pytest.mark.parametrize(
        "investor, fragment",
        [
            (lambda: casestudy.investor(weight=1.0, x0="1"), "type 0: x0='1' must be a real number"),
            (lambda: casestudy.investor(casestudy.default_market(lam=None), weight=1.0),
             "type 0: market lam=None must be a real number"),
            (lambda: casestudy.investor(weight=float("nan")), "type 0: weight must lie in [0, 1], got nan"),
        ],
        ids=["x0-string", "lam-none", "weight-nan"],
    )
    def test_non_number_fields_reported_not_raised(self, investor, fragment):
        assert fragment in validate_population(Population([investor()]))

    def test_empty_population(self):
        assert validate_population(Population([])) != []

    def test_idempotent_and_side_effect_free(self):
        pop = two_type_pop(alpha=1.0)
        first = validate_population(pop)
        second = validate_population(pop)
        assert first == second
        assert pop.types[1].alpha == 1.0


class TestStrategy:
    def test_distance_identity(self):
        s = Strategy.constant(2, 0.5)
        assert strategy_distance(s, s) == 0.0

    def test_distance_constant_offset(self):
        a = Strategy.constant(2, 0.5)
        b = Strategy.constant(2, 0.4)
        assert strategy_distance(a, b) == pytest.approx(0.1)

    def test_distance_single_entry(self):
        table = np.full((2, 7), 0.5)
        bumped = table.copy()
        bumped[1, 2] += 0.03
        assert strategy_distance(Strategy(table), Strategy(bumped)) == pytest.approx(0.03)

    def test_distance_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible"):
            strategy_distance(Strategy.zeros(2), Strategy.zeros(3))

    def test_immutable(self):
        s = Strategy.zeros(1)
        with pytest.raises(ValueError):
            s.table[0, 0] = 1.0
        with pytest.raises(AttributeError):
            s.table = None

    @given(
        st.lists(st.floats(-5, 5), min_size=7, max_size=7),
        st.lists(st.floats(-5, 5), min_size=7, max_size=7),
    )
    def test_distance_is_symmetric_nonnegative(self, xs, ys):
        a, b = Strategy([xs]), Strategy([ys])
        d = strategy_distance(a, b)
        assert d >= 0.0
        assert d == strategy_distance(b, a)


class TestAdmissibleInterval:
    def test_case_study_interval(self):
        assert ADMISSIBLE_INTERVAL == (0.0, 1.0 - 1e-6)

    def test_check_admissible_names_offender(self, ref_pop):
        table = np.zeros((2, 7))
        table[1, 0] = 1.5
        with pytest.raises(ValueError, match=r"type 1.*-inf"):
            check_admissible(ref_pop, Strategy(table))

    def test_check_admissible_rejects_nan(self, ref_pop):
        table = np.zeros((2, 7))
        table[1, NONE_INDEX] = np.nan
        with pytest.raises(ValueError, match="inadmissible position nan for type 1, signal 0"):
            check_admissible(ref_pop, Strategy(table))


# Every consumer of an admissible strategy, called on the reference population and a strategy table.
ADMISSIBILITY_CONSUMERS = {
    "check_admissible": lambda pop, strat, q: check_admissible(pop, strat),
    "aggregate": aggregate,
    "best_response": best_response,
    "solve_mf_finite init": lambda pop, strat, q: solve_mf_finite(pop, q, SolverConfig(init=strat, max_iter=1)),
    "solve_nagent init": lambda pop, strat, q: solve_nagent(pop.types, q, SolverConfig(init=strat, max_iter=1)),
    "estimate_utility": lambda pop, strat, q: estimate_utility(pop, strat, 100, 1.0, 0),
    "simulate_agent": lambda pop, strat, q: simulate_agent(pop.types[0], strat.row(0),
                                                           simulate_common(1.0, pop.types[0].market, 0), 0),
    "simulate_cohort": lambda pop, strat, q: simulate_cohort(20, pop, strat,
                                                             simulate_common(1.0, pop.types[0].market, 0), 0),
}


class TestAdmissibleBoundary:
    """Every consumer accepts a position exactly at hi and rejects the next double past either end, and NaN,
    naming the same (type, signal) and the one interval."""

    @pytest.mark.parametrize("consumer", ADMISSIBILITY_CONSUMERS)
    def test_position_at_hi_passes(self, ref_pop, consumer):
        q = Quadrature.standard_normal(32)
        ADMISSIBILITY_CONSUMERS[consumer](ref_pop, Strategy.constant(2, ADMISSIBLE_INTERVAL[1]), q)

    @pytest.mark.parametrize("value", [np.nextafter(ADMISSIBLE_INTERVAL[1], 1.0), np.nextafter(0.0, -1.0), np.nan])
    @pytest.mark.parametrize("consumer", ADMISSIBILITY_CONSUMERS)
    def test_position_past_the_interval_raises(self, ref_pop, consumer, value):
        q = Quadrature.standard_normal(32)
        table = np.full((2, len(SIGNALS)), ADMISSIBLE_INTERVAL[1])
        table[0, SIGNALS.index(Signal.POS_HALF)] = value
        message = r"inadmissible position \S+ for type 0, signal \+0\.5: allowed \[0\.0, 0\.999999\]$"
        with pytest.raises(ValueError, match=message):
            ADMISSIBILITY_CONSUMERS[consumer](ref_pop, Strategy(table), q)


class TestSignalAlphabet:
    def test_order_and_null(self):
        assert len(SIGNALS) == 7
        assert Signal.NONE in SIGNALS
        assert SIGNALS.index(Signal.NONE) == 3
