import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg import casestudy
from signalmfg.equilibrium import (
    SolverConfig,
    damped_fixed_point,
    residual,
    solve_mf_finite,
    solve_mf_statistic,
    solve_nagent,
)
from signalmfg.meanfield import aggregate
from signalmfg.metrics import M_mf, M_nagent
from signalmfg.model import NONE_INDEX, Population, Signal, Strategy, strategy_distance, validate_investor
from signalmfg.quad import Quadrature
from signalmfg.response import context_from_stats, jump_cap_binds

MERTON = 4.0 / 9.0


def merton_pop():
    m = casestudy.default_market(lam=0.0)
    return Population([casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)])


class TestDampedFixedPoint:
    def test_oscillating_map_triggers_half_damping_retry(self):
        # x -> 1 - x cycles at full damping and contracts to 0.5 at half
        step = lambda x: 1.0 - x
        point, res, iters, notes = damped_fixed_point(
            step, np.array([0.0]), tol=1e-10, max_iter=500, damping=1.0
        )
        assert point[0] == pytest.approx(0.5, abs=1e-9)
        assert res < 1e-10
        assert any("damping 0.5" in n for n in notes)

    def test_divergent_map_reports_failure(self):
        step = lambda x: x + 1.0
        _, res, iters, notes = damped_fixed_point(
            step, np.array([0.0]), tol=1e-8, max_iter=20, damping=1.0
        )
        assert res >= 1e-8
        assert iters == 20
        assert any("did not converge" in n for n in notes)

    def test_contraction_converges_without_notes(self):
        step = lambda x: 0.5 * x + 1.0
        point, res, _, notes = damped_fixed_point(
            step, np.zeros(1), tol=1e-12, max_iter=200, damping=1.0
        )
        assert point[0] == pytest.approx(2.0, abs=1e-10)
        assert notes == ()


class TestSolveMfFinite:
    def test_merton_single_iteration(self, quad128):
        res = solve_mf_finite(merton_pop(), quad128)
        assert res.converged
        assert res.iterations == 1
        assert res.strategy.table == pytest.approx(np.full((2, 7), MERTON), abs=1e-6)

    def test_identical_types_get_identical_rows(self, ref_eq):
        assert np.max(np.abs(ref_eq.strategy.row(0) - ref_eq.strategy.row(1))) < 1e-8

    def test_reference_converges(self, ref_eq):
        assert ref_eq.converged
        assert ref_eq.residual < 1e-8
        assert ref_eq.iterations <= 500

    def test_result_invariants(self, ref_pop, quad128, ref_eq):
        assert ref_eq.converged == (ref_eq.residual < 1e-8)
        hi = 1.0 - ref_pop.types[0].eps_b
        assert np.all(ref_eq.strategy.table >= 0.0) and np.all(ref_eq.strategy.table <= hi)

    def test_stats_self_consistency(self, ref_pop, quad128, ref_eq):
        fresh = aggregate(ref_pop, ref_eq.strategy, quad128)
        assert fresh.sigma0pi_bar == ref_eq.stats.sigma0pi_bar
        assert fresh.taupi_bar == ref_eq.stats.taupi_bar
        assert fresh.xbar0 == ref_eq.stats.xbar0
        assert np.array_equal(fresh.mean_jump_nodes, ref_eq.stats.mean_jump_nodes)

    def test_invalid_population_rejected(self, quad128):
        pop = Population([casestudy.investor(weight=0.7), casestudy.investor(weight=0.7)])
        with pytest.raises(ValueError, match="invalid population"):
            solve_mf_finite(pop, quad128)

    def test_damping_reaches_same_fixed_point(self, ref_pop, quad128, ref_eq):
        damped = solve_mf_finite(ref_pop, quad128, SolverConfig(damping=0.5))
        assert damped.converged
        assert strategy_distance(damped.strategy, ref_eq.strategy) < 1e-7

    def test_custom_init_accepted(self, ref_pop, quad128, ref_eq):
        warm = solve_mf_finite(ref_pop, quad128, SolverConfig(init=ref_eq.strategy))
        assert warm.converged
        assert warm.iterations <= ref_eq.iterations

    def test_wrong_init_shape_rejected(self, ref_pop, quad128):
        with pytest.raises(ValueError, match="init"):
            solve_mf_finite(ref_pop, quad128, SolverConfig(init=Strategy.zeros(3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


# Single types that validate_investor accepts and whose jump factor
# E*(1 + phi*eta)^-alpha overflows at tail nodes; each made the solve raise
# "non-finite first-order condition" before that product was formed in logs.
EXTREME_TYPES = [
    ({"sigma_hat": 4.0}, {"alpha": 100.0}),
    ({"sigma_hat": 2.0}, {"alpha": 100.0}),
    ({"lam": 0.0, "sigma_hat": 2.0}, {"alpha": 51.0}),
    ({"lam": 1.0, "sigma_hat": 4.0}, {"alpha": 42.0, "theta": 1.0}),
    ({"lam": 1.0, "sigma_hat": 2.0}, {"alpha": 51.0, "p_s": 0.0, "rho": 0.75}),
]


# One type's characteristics over the ranges validate_investor accepts.
TYPE_PARAMETERS = st.fixed_dictionaries({
    "alpha": st.floats(0.1, 100.0).filter(lambda a: abs(a - 1.0) >= 1e-3),
    "p_s": st.floats(0.0, 1.0, exclude_max=True),
    "rho": st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    "theta": st.floats(0.0, 1.0),
})


def assert_finite_solve(t, q):
    assert not validate_investor(t)
    result = solve_mf_finite(Population([t]), q)
    assert np.all(np.isfinite(result.strategy.table))
    assert np.all(np.isfinite(result.per_type_M))
    return result


class TestExtremeTypes:
    @pytest.mark.parametrize("market, kwargs", EXTREME_TYPES)
    def test_overflowing_types_report_instead_of_raising(self, quad128, market, kwargs):
        t = casestudy.investor(casestudy.default_market(**market), weight=1.0, **kwargs)
        result = assert_finite_solve(t, quad128)
        assert result.converged or result.notes

    @pytest.mark.parametrize("index", [1, 2, 4])
    def test_converged_extreme_types_do_not_clip_M(self, quad128, index):
        market, kwargs = EXTREME_TYPES[index]
        t = casestudy.investor(casestudy.default_market(**market), weight=1.0, **kwargs)
        result = assert_finite_solve(t, quad128)
        assert result.converged and not result.notes
        assert not jump_cap_binds(result.strategy.row(0), context_from_stats(t, result.stats, quad128))

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 20.0),
        sigma_hat=st.floats(0.0, 4.0),
        alpha=st.floats(0.1, 100.0).filter(lambda a: abs(a - 1.0) >= 1e-3),
        p_s=st.floats(0.0, 1.0, exclude_max=True),
        rho=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        theta=st.floats(0.0, 1.0),
    )
    def test_property_single_type_solve_is_finite(self, quad128, lam, sigma_hat, alpha, p_s, rho, theta):
        market = casestudy.default_market(lam=lam, sigma_hat=sigma_hat)
        t = casestudy.investor(market, p_s=p_s, rho=rho, alpha=alpha, theta=theta, weight=1.0)
        assert_finite_solve(t, quad128)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.0, 20.0), sigma_hat=st.floats(0.0, 4.0), nagent=st.booleans(), data=st.data())
    def test_property_games_and_populations_are_finite_or_reported(self, quad128, lam, sigma_hat, nagent, data):
        # A game has 2-3 players; a mean-field population has 1-3 types with drawn shares.
        shares = st.floats(0.1, 1.0)
        kinds = data.draw(st.lists(st.tuples(TYPE_PARAMETERS, shares), min_size=2 if nagent else 1, max_size=3))
        market = casestudy.default_market(lam=lam, sigma_hat=sigma_hat)
        total = sum(share for _, share in kinds)
        types = [casestudy.investor(market, weight=share / total, **kind) for kind, share in kinds]
        cfg = SolverConfig(max_iter=60)
        result = solve_nagent(types, quad128, cfg) if nagent else solve_mf_finite(Population(types), quad128, cfg)
        if result.converged:
            assert np.all(np.isfinite(result.strategy.table))
            assert np.all(np.isfinite(result.per_type_M))
        else:
            assert any("did not converge" in n for n in result.notes)


OVERFLOW_NOTE = "type 0: value exp(T(1-alpha)M) overflows double; use per_type_M"


class TestOverflowingValues:
    """Valid types whose finite M sends exp(T(1-alpha)M) past double: the value is -inf, and noted."""

    def test_mean_field_value_overflow_is_noted(self, quad128):
        market = casestudy.default_market(lam=4.0, sigma_hat=3.75)
        t = casestudy.investor(market, alpha=23.0, theta=1.0, p_s=0.5, rho=0.0, weight=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_mf_finite(Population([t]), quad128)
        assert result.converged and np.isfinite(result.per_type_M[0])
        assert result.per_type_value[0] == -np.inf
        assert result.notes == (OVERFLOW_NOTE,)

    def test_nagent_value_overflow_is_noted(self, quad128):
        market = casestudy.default_market(lam=20.0, sigma_hat=2.0)
        bold = casestudy.investor(market, alpha=30.0, theta=1.0, p_s=0.0, rho=0.0, weight=1.0)
        plain = casestudy.investor(market, alpha=2.0, theta=0.0, p_s=0.9, rho=0.9, weight=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_nagent([bold, plain], quad128)
        assert result.converged and np.all(np.isfinite(result.per_type_M))
        assert result.per_type_value[0] == -np.inf and np.isfinite(result.per_type_value[1])
        assert result.notes == (OVERFLOW_NOTE,)

    @pytest.mark.parametrize("lam, sigma_hat", [(4.0, 3.0), (4.0, 3.75), (4.0, 4.0), (20.0, 3.0)])
    def test_nagent_peer_mixture_does_not_overflow(self, quad128, lam, sigma_hat):
        # The bold player's peer factor (1 + pi*eta)^59 passes the double range at tail nodes; its log does not.
        market = casestudy.default_market(lam=lam, sigma_hat=sigma_hat)
        bold = casestudy.investor(market, alpha=60.0, theta=1.0, p_s=0.0, rho=0.0)
        plain = casestudy.investor(market, alpha=2.0, theta=0.0, p_s=0.9, rho=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_nagent([bold, plain], quad128)
        assert result.converged
        assert np.all(np.isfinite(result.strategy.table)) and np.all(np.isfinite(result.per_type_M))


def sizeless_M(t, stats, row, q):
    """M of a type with sizeless jumps: its own positions meet no jump, E still does.

    Its signal targets reduce to lam*p_s*sum_z N01(I(z, e_c))*(E-1)/(1-alpha),
    and the kernel rows sum to 1 at every mark, so the jump part of M is
    lam*sum_k w_k*(E_k-1)/(1-alpha) with E = m(e_c)^(-theta*(1-alpha)).
    """
    m, phi0 = t.market, row[NONE_INDEX]
    slope = (m.kappa - m.r) - t.theta * (1.0 - t.alpha) * m.sigma0 * stats.sigma0pi_bar
    curvature = t.alpha * (m.sigma**2 + m.sigma0**2)
    env = stats.mean_jump_nodes ** (-t.theta * (1.0 - t.alpha))
    return (
        t.theta * (m.r - stats.taupi_bar)
        + 0.5 * t.theta**2 * (1.0 - t.alpha) * stats.sigma0pi_bar**2
        + slope * phi0
        - 0.5 * curvature * phi0**2
        + m.lam * np.dot(q.weights, (env - 1.0) / (1.0 - t.alpha))
    )


class TestSizelessBesideSized:
    def test_M_keeps_the_peer_jump_factor(self, quad128):
        sizeless = casestudy.default_market(kappa_hat=0.0, sigma_hat=0.0)
        sized = casestudy.default_market(sigma_hat=0.3)
        pop = Population([casestudy.investor(sizeless, weight=0.5), casestudy.investor(sized, weight=0.5)])
        result = solve_mf_finite(pop, quad128)
        assert result.converged
        expected = sizeless_M(pop.types[0], result.stats, result.strategy.row(0), quad128)
        assert result.per_type_M[0] == pytest.approx(expected, rel=1e-13)

    def test_clipped_M_is_noted(self, quad128):
        # A very risk-averse sizeless type beside a bold one with wide jumps:
        # E reaches exp(760) at tail nodes, above the exp(600) cap on target values.
        sizeless = casestudy.default_market(kappa_hat=0.0, sigma_hat=0.0, lam=1.0)
        sized = casestudy.default_market(sigma_hat=3.0, lam=1.0)
        pop = Population([
            casestudy.investor(sizeless, alpha=100.0, theta=1.0, weight=0.5),
            casestudy.investor(sized, alpha=0.5, theta=0.0, weight=0.5),
        ])
        result = solve_mf_finite(pop, quad128)
        assert result.converged
        assert np.all(np.isfinite(result.per_type_M))
        assert [n[:7] for n in result.notes if "clips" in n] == ["type 0:"]


class TestResultMatchesPerTypeAPI:
    """Solvers read M off their final contexts; it equals the per-type functions bitwise."""

    def test_nagent_result_M(self, quad128):
        types = [
            casestudy.investor(x0=0.5, alpha=2.0, rho=0.5),
            casestudy.investor(x0=1.0, alpha=3.5, rho=-0.3),
            casestudy.investor(x0=2.0, alpha=0.7, rho=0.5, p_s=0.2),
        ]
        result = solve_nagent(types, quad128)
        assert result.converged
        for i in range(len(types)):
            assert result.per_type_M[i] == M_nagent(i, types, result.strategy, quad128)

    def test_mean_field_result_M(self, quad128):
        pop = Population([casestudy.investor(alpha=3.0, p_s=0.3), casestudy.investor(rho=-0.4, theta=0.8)])
        result = solve_mf_finite(pop, quad128)
        assert result.converged
        for i, t in enumerate(pop.types):
            assert result.per_type_M[i] == M_mf(t, result.strategy.row(i), result.stats, quad128)


class TestResidual:
    def test_converged_strategy_has_small_gap(self, ref_pop, quad128, ref_eq):
        assert residual(ref_pop, ref_eq.strategy, quad128) < 1e-8

    def test_zero_init_far_from_equilibrium(self, ref_pop, quad128):
        assert residual(ref_pop, Strategy.zeros(2), quad128) > 0.1

    def test_invariant_under_type_permutation(self, quad128):
        pop = Population([casestudy.investor(p_s=0.2), casestudy.investor(p_s=0.8)])
        flipped = Population([casestudy.investor(p_s=0.8), casestudy.investor(p_s=0.2)])
        strat = Strategy(np.vstack([np.full(7, 0.2), np.full(7, 0.5)]))
        back = Strategy(np.vstack([np.full(7, 0.5), np.full(7, 0.2)]))
        assert residual(pop, strat, quad128) == pytest.approx(
            residual(flipped, back, quad128), abs=1e-14
        )


class TestSolveNAgent:
    def test_two_player_merton(self, quad128):
        m = casestudy.default_market(lam=0.0)
        players = [casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)]
        res = solve_nagent(players, quad128)
        assert res.converged and res.iterations == 1
        assert res.strategy.table == pytest.approx(np.full((2, 7), MERTON), abs=1e-6)
        assert res.stats is None

    def test_symmetric_players_symmetric_output(self, quad128):
        res = solve_nagent([casestudy.investor() for _ in range(5)], quad128)
        assert res.converged
        for i in range(1, 5):
            assert np.array_equal(res.strategy.row(0), res.strategy.row(i))

    def test_weight_field_ignored_for_players(self, quad128):
        # players are not a mixture; weights needn't sum to one
        players = [casestudy.investor(weight=1.0), casestudy.investor(weight=1.0)]
        assert solve_nagent(players, quad128).converged

    def test_gap_to_mean_field_shrinks_with_n(self, quad128, ref_eq):
        # diagnostic: no limit theorem backs a hard tolerance
        mf_row = ref_eq.strategy.row(0)

        def gap(n_players):
            res = solve_nagent([casestudy.investor() for _ in range(n_players)], quad128)
            return float(np.max(np.abs(res.strategy.row(0) - mf_row)))

        g2, g16 = gap(2), gap(16)
        assert np.isfinite(g2) and np.isfinite(g16)
        assert g16 < g2

    def test_single_player_rejected(self, quad128):
        with pytest.raises(ValueError):
            solve_nagent([casestudy.investor()], quad128)

    def test_two_group_game_converges_without_restart(self, quad128):
        # stalled at a 4e-8 residual and restarted when the best response was a
        # golden-section search accurate to ~4e-8 only
        players = [casestudy.investor()] * 2 + [casestudy.investor(p_s=0.25)] * 2
        res = solve_nagent(players, quad128)
        assert res.converged
        assert not any("restarted" in note for note in res.notes)

    def test_weakly_informed_symmetric_game_converges_without_restart(self, quad128):
        # took 395 iterations with a golden-section best response
        res = solve_nagent([casestudy.investor(p_s=0.3, rho=0.01, theta=0.7)] * 5, quad128)
        assert res.converged
        assert not any("restarted" in note for note in res.notes)
        assert res.iterations < 50


class TestSolveMfStatistic:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            solve_mf_statistic(casestudy.reference_population(), [(0.0, 0.5), (1.0, 0.6)])

    def test_single_sizeless_mark(self):
        # eta(e_c) = 0 at e_c = sigma_hat/2 - kappa_hat/sigma_hat: jumps carry no risk,
        # the statistic collapses to (sigma0 * default exposure, 1)
        pop = casestudy.reference_population()
        mark = 0.05  # sigma_hat = 0.1, kappa_hat = 0 => eta(0.05) = 0
        res = solve_mf_statistic(pop, [(mark, 1.0)])
        assert res.converged
        avg_default = float(
            np.mean([res.strategy.position(i, Signal.NONE) for i in range(2)])
        )
        assert res.stats.sigma0pi_bar == pytest.approx(0.3 * avg_default, abs=1e-12)
        assert res.stats.mean_jump_nodes == pytest.approx([1.0], abs=1e-12)

    def test_forced_zero_positions(self, quad128):
        # no drift edge, no concern: a symmetric sizeless jump leaves phi* = 0
        m = casestudy.default_market(kappa=0.0, r=0.0, kappa_hat=0.0, sigma_hat=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        res = solve_mf_statistic(pop, [(0.0, 1.0)])
        assert res.converged
        assert res.strategy.table == pytest.approx(np.zeros((1, 7)), abs=1e-9)
        assert res.stats.mean_jump_nodes == pytest.approx([1.0], abs=1e-12)

    def test_matches_strategy_space_solver_on_discrete_law(self):
        marks = [(-1.0, 0.25), (0.0, 0.5), (1.5, 0.25)]
        pop = casestudy.reference_population()
        stat = solve_mf_statistic(pop, marks)
        q = Quadrature.discrete([m for m, _ in marks], [p for _, p in marks])
        fin = solve_mf_finite(pop, q)
        assert stat.converged and fin.converged
        assert strategy_distance(stat.strategy, fin.strategy) < 1e-6
