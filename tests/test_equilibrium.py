import numpy as np
import pytest

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
from signalmfg.model import Population, Signal, Strategy, strategy_distance
from signalmfg.quad import Quadrature

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
