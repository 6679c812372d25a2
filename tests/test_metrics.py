import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from signalmfg import casestudy
from signalmfg.equilibrium import solve_mf_finite
from signalmfg.meanfield import aggregate
from signalmfg.metrics import M_mf, M_nagent, certainty_equivalent, value_mf
from signalmfg.model import ADMISSIBLE_INTERVAL, SIGNALS, Population, Strategy
from signalmfg.response import context_from_stats, respond_type

MERTON_M = 0.0064 / 0.36  # (kappa - r)^2 / (2 alpha sigma0^2)


def merton_pop(n_types=1):
    m = casestudy.default_market(lam=0.0)
    w = 1.0 / n_types
    return Population([casestudy.investor(m, theta=0.0, weight=w) for _ in range(n_types)])


class TestMmf:
    def test_merton_constant(self, quad128):
        pop = merton_pop()
        stats = aggregate(pop, Strategy.zeros(1), quad128)
        assert M_mf(pop.types[0], None, stats, quad128) == pytest.approx(MERTON_M, abs=1e-9)

    def test_no_edge_no_value(self, quad128):
        m = casestudy.default_market(lam=0.0, kappa=0.0, r=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        stats = aggregate(pop, Strategy.zeros(1), quad128)
        assert M_mf(pop.types[0], None, stats, quad128) == pytest.approx(0.0, abs=1e-12)

    def test_supplied_equilibrium_attains_remaximized_value(self, ref_pop, quad128, ref_eq):
        for i, t in enumerate(ref_pop.types):
            at_strategy = M_mf(t, ref_eq.strategy.row(i), ref_eq.stats, quad128)
            remaximized = M_mf(t, None, ref_eq.stats, quad128)
            assert at_strategy == pytest.approx(remaximized, abs=1e-9)

    def test_remaximization_uses_the_best_response(self, ref_pop, quad128, ref_eq):
        t = ref_pop.types[0]
        row = respond_type(t, context_from_stats(t, ref_eq.stats, quad128))
        assert M_mf(t, None, ref_eq.stats, quad128) == M_mf(t, row, ref_eq.stats, quad128)

    def test_row_mapping_accepted(self, ref_pop, quad128, ref_eq):
        row_map = ref_eq.strategy.row_mapping(0)
        a = M_mf(ref_pop.types[0], row_map, ref_eq.stats, quad128)
        b = M_mf(ref_pop.types[0], ref_eq.strategy.row(0), ref_eq.stats, quad128)
        assert a == b

    def test_invariant_under_type_relabeling(self, ref_pop, quad128, ref_eq):
        # identical characteristics => identical constants
        assert ref_eq.per_type_M[0] == pytest.approx(ref_eq.per_type_M[1], abs=1e-14)


class TestDeviations:
    """Type A's equilibrium row beats every deviation in closed form (M_mf at the supplied row).

    delta = 1e-2 costs at least 7e-7 in M on these equilibria, far above the
    rounding of M (~1e-17); the rows sit on the admissible bounds in five
    signals, where only the inward shift is tried.
    """

    DELTA = 1e-2

    @pytest.fixture(scope="class", params=[None, 0.999], ids=["reference", "p_s_B=0.999"])
    def equilibrium(self, request, ref_pop, quad128):
        p_s_B = request.param
        pop = ref_pop if p_s_B is None else Population([ref_pop.types[0], replace(ref_pop.types[1], p_s=p_s_B)])
        result = solve_mf_finite(pop, quad128)
        assert result.converged
        return pop.types[0], result.strategy.row(0), result.stats

    def deviations(self, t, row):
        lo, hi = ADMISSIBLE_INTERVAL
        for z in range(len(SIGNALS)):
            for shift in (-self.DELTA, self.DELTA):
                if lo <= row[z] + shift <= hi:
                    moved = row.copy()
                    moved[z] += shift
                    yield moved
        m = t.market
        yield np.zeros(len(SIGNALS))
        yield np.full(len(SIGNALS), (m.kappa - m.r) / (t.alpha * (m.sigma**2 + m.sigma0**2)))

    def test_equilibrium_row_beats_deviations(self, equilibrium, quad128):
        t, row, stats = equilibrium
        best = M_mf(t, row, stats, quad128)
        rivals = list(self.deviations(t, row))
        assert len(rivals) == 2 * len(SIGNALS) - 5 + 2
        for rival in rivals:
            assert M_mf(t, rival, stats, quad128) < best - 1e-10


class TestValueMf:
    def test_merton_value(self):
        t = merton_pop().types[0]
        out = value_mf(t, MERTON_M, x0=1.0, xbar0=1.0, T=1.0)
        assert out == pytest.approx(-0.9823793146181776, abs=1e-12)

    def test_boundary_condition_at_zero_horizon(self):
        t = casestudy.investor()  # alpha=2, theta=0.5
        out = value_mf(t, M=0.123, x0=2.0, xbar0=3.0, T=0.0)
        expected = (2.0 * 3.0 ** (-0.5)) ** (-1.0) / (-1.0)
        assert out == pytest.approx(expected, abs=1e-15)

    def test_homogeneity_in_initial_wealth(self):
        t = merton_pop().types[0]
        v1 = value_mf(t, MERTON_M, 1.0, 1.0, 1.0)
        v2 = value_mf(t, MERTON_M, 2.0, 1.0, 1.0)
        assert v2 == pytest.approx(v1 / 2.0)

    @pytest.mark.parametrize("alpha, sign", [(2.0, -1), (0.5, +1), (5.0, -1)])
    def test_sign_matches_risk_aversion(self, alpha, sign):
        t = casestudy.investor(alpha=alpha)
        v = value_mf(t, 0.01, 1.0, 1.0, 1.0)
        assert math.copysign(1, v) == sign

    def test_positive_wealth_required(self):
        t = casestudy.investor()
        with pytest.raises(ValueError):
            value_mf(t, 0.0, -1.0, 1.0, 1.0)

    def test_value_at_supplied_row_matches_result(self, ref_pop, quad128, ref_eq):
        t = ref_pop.types[0]
        M = M_mf(t, ref_eq.strategy.row(0), ref_eq.stats, quad128)
        assert M == pytest.approx(ref_eq.per_type_M[0])
        assert value_mf(t, M, t.x0, ref_eq.stats.xbar0, T=1.0) == pytest.approx(ref_eq.per_type_value[0])


class TestMNagent:
    def test_two_player_merton(self, quad128):
        m = casestudy.default_market(lam=0.0)
        types = [casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)]
        strat = Strategy.constant(2, 4.0 / 9.0)
        for i in range(2):
            assert M_nagent(i, types, strat, quad128) == pytest.approx(MERTON_M, abs=1e-9)

    def test_neutral_peers_reduce_to_single_agent(self, quad128):
        # peers at zero positions: aggregates vanish, the constant equals the
        # mean-field constant in a zero environment
        types = [casestudy.investor(), casestudy.investor()]
        table = np.zeros((2, 7))
        table[0] = [0.0, 0.0, 0.0, 0.3855, 0.8384, 0.99, 0.99]
        strat = Strategy(table)
        pop = Population([casestudy.investor(weight=1.0)])
        q = quad128
        stats = aggregate(pop, Strategy.zeros(1), q)
        assert M_nagent(0, types, strat, q) == pytest.approx(
            M_mf(types[0], table[0], stats, q), abs=1e-14
        )

    def test_exchangeable_players_share_m(self, quad128):
        from signalmfg.equilibrium import SolverConfig, solve_nagent

        types = [casestudy.investor() for _ in range(4)]
        res = solve_nagent(types, quad128, SolverConfig())
        assert res.converged
        for M in res.per_type_M[1:]:
            assert M == pytest.approx(res.per_type_M[0], abs=1e-12)


class TestCertaintyEquivalent:
    def test_identity(self):
        assert certainty_equivalent(0.3, 0.3) == 1.0

    def test_exponential_of_difference(self):
        assert certainty_equivalent(0.02, 0.01) == pytest.approx(1.0100501670841681, abs=1e-14)

    def test_horizon_matches_value_root(self, ref_pop):
        # the capital ratio c with value(c * x0, M_ref) = value(x0, M_alt) at T = 2
        t = ref_pop.types[0]
        m_ref, m_alt, T = 0.01, 0.0315, 2.0
        target = value_mf(t, m_alt, t.x0, 1.0, T)
        c = brentq(lambda c: value_mf(t, m_ref, c * t.x0, 1.0, T) - target, 0.5, 2.0, xtol=1e-15)
        assert certainty_equivalent(m_alt, m_ref, T) == pytest.approx(c, rel=1e-12)
        assert certainty_equivalent(m_alt, m_ref) == pytest.approx(math.exp(m_alt - m_ref), rel=1e-15)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_antisymmetry(self, a, b):
        assert certainty_equivalent(a, b) * certainty_equivalent(b, a) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    def test_depends_only_on_difference(self, a, b, c):
        assert certainty_equivalent(a + c, b + c) == pytest.approx(
            certainty_equivalent(a, b), rel=1e-9
        )


class TestMonteCarloAgreement:
    def test_off_equilibrium_strategy_matches_simulation(self, ref_pop, quad128):
        # martingale-verification conclusion, testable for any admissible strategy
        from signalmfg.sim import estimate_utility

        strat = Strategy.constant(2, 0.3)
        stats = aggregate(ref_pop, strat, quad128)
        means, errors = estimate_utility(ref_pop, strat, 40_000, 1.0, seed=123)
        for i, t in enumerate(ref_pop.types):
            M = M_mf(t, strat.row(i), stats, quad128)
            closed = value_mf(t, M, t.x0, stats.xbar0, 1.0)
            assert abs(means[i] - closed) < 3.0 * errors[i]
