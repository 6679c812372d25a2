import functools
import math

import numpy as np
import pytest

from signalmfg import casestudy
from signalmfg.meanfield import _MARK_BLOCK, _population_sums, aggregate, mean_log_terminal
from signalmfg.model import NONE_INDEX, NONZERO_SIGNALS, SIGNAL_INDEX, SIGNALS, Population, Strategy
from signalmfg.quad import Quadrature
from signalmfg.response import _contexts
from signalmfg.signals import classify_index, conditional_prob, eta, jump_sizes, perturb, signal_laws
from signalmfg.sim import CommonNoisePath

from oracles import signal_expectation


def path_of(marks, w0_total, T=1.0):
    k = len(marks)
    times = np.linspace(0.1, 0.9 * T, k) if k else np.empty(0)
    incs = np.zeros(k + 1)
    incs[0] = w0_total
    return CommonNoisePath(
        jump_times=times,
        common_marks=np.asarray(marks, dtype=float),
        w0_increments=incs,
        horizon=T,
        seed=0,
    )


def per_type_mean_jump(pop, strat, e):
    """m(e_c) one type at a time: each type's own jump map and kernel, its signal terms summed in order."""
    log_m = np.zeros_like(e)
    for t, row in zip(pop.types, strat.table):
        jump = eta(t.market, e)
        mixture = (1.0 - t.p_s) * np.log1p(row[NONE_INDEX] * jump)
        if t.p_s > 0.0:
            for z in NONZERO_SIGNALS:
                mixture = mixture + t.p_s * conditional_prob(z, e, t.rho) * np.log1p(row[SIGNAL_INDEX[z]] * jump)
        log_m += t.weight * mixture
    return np.exp(log_m)


def full_law_mean_jump(pop, strat, e):
    """m(e_c) from the law of all seven signals: one ``signal_laws`` table, its expectation, the types one at a time."""
    sizes = np.stack(jump_sizes(pop.types, e))
    mixture = signal_expectation(signal_laws(pop.types, e)[1], np.log1p(strat.table.T[:, :, np.newaxis] * sizes))
    return np.exp(functools.reduce(np.add, pop.weights[:, np.newaxis] * mixture))


SIZELESS = casestudy.default_market(sigma_hat=0.0, kappa_hat=0.0)
# Populations and strategies whose rows hold zeros: the evaluator tabulates only the signals some row holds.
# The two distinct rho together hold the first, fourth and sixth nonzero signals, which are not all neighbours.
HELD_CASES = {
    "negative_zeros": (casestudy.reference_population(), Strategy([[-0.0, -0.0, 0.0, 0.4, 0.8, 0.9, -0.0]] * 2)),
    "all_zero": (casestudy.reference_population(), Strategy.zeros(2)),
    "distinct_rho_and_zeros": (
        Population([casestudy.investor(weight=0.4, p_s=0.6, rho=0.5),
                    casestudy.investor(weight=0.6, p_s=0.9, rho=-0.3)]),
        Strategy([[0.0, 0.0, 0.0, 0.4, 0.8, 0.0, 0.0], [0.2, 0.0, 0.0, 0.3, 0.0, 0.0, 0.9]]),
    ),
    "sizeless_beside_sized": (
        Population([casestudy.investor(SIZELESS, weight=0.5), casestudy.investor(weight=0.5, rho=0.2)]),
        Strategy([[0.3, 0.0, 0.0, 0.2, 0.5, 0.7, 0.9], [0.0, 0.0, 0.0, 0.386, 0.838, 0.999999, 0.999999]]),
    ),
}


class TestAggregate:
    def test_constant_positions_collapse(self, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.constant(2, 0.3), quad128)
        market = ref_pop.types[0].market
        for e_c in (-2.0, 0.0, 1.5):
            assert stats.mean_jump(e_c) == pytest.approx(1.0 + 0.3 * eta(market, e_c), rel=1e-14)

    def test_shared_kernel_is_bitwise_per_type(self, quad128):
        # Types 0 and 1 share rho = 0.5 (type 1 never receives a signal); type 2 has its own rho.
        pop = Population([
            casestudy.investor(weight=0.5),
            casestudy.investor(weight=0.25, p_s=0.0),
            casestudy.investor(weight=0.25, p_s=0.8, rho=-0.3),
        ])
        strat = Strategy([np.linspace(0.0, 0.9, 7), np.linspace(0.9, 0.1, 7), np.full(7, 0.4)])
        stats = aggregate(pop, strat, quad128)
        # One block, then several blocks with a ragged tail.
        for n_marks in (10_000, 3 * _MARK_BLOCK + 7):
            marks = np.random.default_rng(5).standard_normal(n_marks)
            assert np.array_equal(stats.mean_jump(marks), per_type_mean_jump(pop, strat, marks))
        assert np.array_equal(stats.mean_jump_nodes, per_type_mean_jump(pop, strat, quad128.nodes))
        scalar = stats.mean_jump(0.3)
        assert isinstance(scalar, float) and scalar == per_type_mean_jump(pop, strat, 0.3)
        assert stats.mean_jump(np.empty(0)).shape == (0,)

    def test_shared_evaluations_are_bitwise_per_type(self, quad128):
        # Types 0 and 1 differ only in weight, x0, alpha and theta.  Weights aside, type 5
        # differs from type 0 only in its jump law, type 8 only in p_s, type 9 only in rho.
        # Types 2 and 3 share rho = -0.3 with different rows; types 5-7 jump under another
        # law.  With this many types np.sum over the type axis would add them in pairs on
        # one mark.
        wide = casestudy.default_market(sigma_hat=1.0, kappa_hat=-0.05)
        pop = Population([
            casestudy.investor(weight=0.2),
            casestudy.investor(weight=0.05, x0=2.0, alpha=5.0, theta=0.1),
            casestudy.investor(weight=0.1, p_s=0.8, rho=-0.3),
            casestudy.investor(weight=0.1, p_s=0.8, rho=-0.3),
            casestudy.investor(weight=0.1, p_s=0.0, rho=0.9),
            casestudy.investor(wide, weight=0.15),
            casestudy.investor(wide, weight=0.1, p_s=0.6, rho=-0.95),
            casestudy.investor(wide, weight=0.05, p_s=0.999, rho=0.0),
            casestudy.investor(weight=0.1, p_s=0.25),
            casestudy.investor(weight=0.05, rho=0.2),
        ])
        table = np.random.default_rng(9).uniform(0.0, 0.9, size=(len(pop), 7))
        table[[1, 5, 8, 9]] = table[0]
        strat = Strategy(table)
        stats = aggregate(pop, strat, quad128)
        assert np.array_equal(stats.mean_jump_nodes, per_type_mean_jump(pop, strat, quad128.nodes))
        # Several blocks with a ragged tail, then one-mark tail blocks.
        for n_marks in (3 * _MARK_BLOCK + 7, _MARK_BLOCK + 1):
            marks = 3.0 * np.random.default_rng(6).standard_normal(n_marks)
            assert np.array_equal(stats.mean_jump(marks), per_type_mean_jump(pop, strat, marks))
        tails = np.linspace(-6.0, 6.0, 25)
        assert [stats.mean_jump(np.append(marks[:_MARK_BLOCK], x))[-1] for x in tails] == [
            stats.mean_jump(float(x)) for x in tails
        ]
        assert [stats.mean_jump(float(x)) for x in tails] == [per_type_mean_jump(pop, strat, float(x)) for x in tails]

    def test_zero_positions(self, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.zeros(2), quad128)
        assert np.all(stats.mean_jump_nodes == 1.0)
        assert stats.sigma0pi_bar == 0.0
        assert stats.taupi_bar == pytest.approx(
            sum(t.weight * t.market.r for t in ref_pop.types), abs=1e-15
        )
        assert stats.xbar0 == pytest.approx(1.0)

    @pytest.mark.parametrize("n_types", [1, 2])
    def test_negative_zero_no_signal_column_sums_as_np_sum(self, quad128, n_types):
        # Every weighted sigma0*pi is -0.0; the sum has the bits np.sum over the types gives (+0.0: it starts there).
        pop = Population([casestudy.investor(weight=1.0 / n_types)] * n_types)
        table = np.zeros((n_types, len(SIGNALS)))
        table[:, NONE_INDEX] = -0.0
        stats = aggregate(pop, Strategy(table), quad128)
        terms = np.array([[t.weight * t.market.sigma0 * -0.0] for t in pop.types])
        assert np.float64(stats.sigma0pi_bar).tobytes() == terms.sum(axis=0)[0].tobytes()

    def test_population_sums_do_not_depend_on_neighbours(self, quad128):
        # A one-type population beside a two-type one keeps the bits of its sums alone, the sum of its one -0.0
        # term included.
        types = [casestudy.investor(weight=1.0)] + [casestudy.investor(weight=0.5)] * 2
        table = np.full((3, len(SIGNALS)), 0.25)
        table[0, NONE_INDEX] = -0.0

        def node_law(types):
            return signal_laws(types, quad128.nodes)[1], np.stack(jump_sizes(types, quad128.nodes))

        sums, _ = _population_sums(types, table, node_law(types), quad128.nodes, np.array([0, 1, 1]))
        alone, _ = _population_sums(types[:1], table[:1], node_law(types[:1]), quad128.nodes, np.array([0]))
        assert sums[0].tobytes() == alone[0].tobytes()

    def test_single_type_collapse(self, quad128):
        t = casestudy.investor(weight=1.0, x0=2.0)
        stats = aggregate(Population([t]), Strategy.constant(1, 0.5), quad128)
        m = t.market
        assert stats.sigma0pi_bar == pytest.approx(m.sigma0 * 0.5)
        assert stats.taupi_bar == pytest.approx(m.r + 0.5 * (m.kappa - m.r) - 0.5 * m.sigma0**2 * 0.25)
        assert stats.xbar0 == pytest.approx(2.0)

    @pytest.mark.parametrize("n_types", [1, 2, 12])
    def test_matches_scalar_per_type_sum(self, quad128, n_types):
        # Past 8 terms numpy's pairwise sum would add in another order than this loop.
        rng = np.random.default_rng(n_types)
        types = [
            casestudy.investor(
                casestudy.default_market(
                    r=rng.uniform(0.01, 0.03), sigma=rng.uniform(0.0, 0.3), sigma0=rng.uniform(0.1, 0.3)
                ),
                x0=rng.uniform(1.5, 3.0),
                weight=w,
            )
            for w in rng.dirichlet(np.ones(n_types))
        ]
        table = rng.uniform(0.0, 0.9, size=(n_types, 7))
        stats = aggregate(Population(types), Strategy(table), quad128)
        sigma0pi, taupi, log_xbar0 = 0.0, 0.0, 0.0
        for t, pi0 in zip(types, table[:, NONE_INDEX].tolist()):
            m = t.market
            sigma0pi += t.weight * m.sigma0 * pi0
            taupi += t.weight * (m.r + pi0 * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * pi0**2)
            log_xbar0 += t.weight * math.log(t.x0)
        assert stats.sigma0pi_bar == pytest.approx(sigma0pi, rel=1e-15, abs=0.0)
        assert stats.taupi_bar == pytest.approx(taupi, rel=1e-15, abs=0.0)
        assert math.log(stats.xbar0) == pytest.approx(log_xbar0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n_types", [1, 3, 12])
    @pytest.mark.parametrize("q", [
        Quadrature.standard_normal(),
        Quadrature.discrete([-1.0, 0.0, 1.5], [0.25, 0.5, 0.25]),
    ], ids=["gauss", "discrete"])
    def test_node_law_gives_the_aggregate_bits(self, q, n_types):
        # A solver's mean field sums the signal laws and jump sizes its context built once per solve: aggregate's bits.
        rng = np.random.default_rng(n_types)
        types = [
            casestudy.investor(
                casestudy.default_market(sigma_hat=rng.choice([0.1, 0.3])),
                p_s=rng.choice([0.0, 0.5, 0.9]),
                rho=rng.choice([-0.4, 0.5]),
                weight=w,
            )
            for w in rng.dirichlet(np.ones(n_types))
        ]
        pop, strat = Population(types), Strategy(rng.uniform(0.0, 0.9, size=(n_types, 7)))
        ctx = _contexts(types, q)
        fresh = aggregate(pop, strat, q)
        sums, mean_jump = _population_sums(types, strat.table, (ctx.law, ctx.eta_raw), q.nodes, np.zeros(n_types, int))
        assert mean_jump[0].tobytes() == fresh.mean_jump_nodes.tobytes()
        # The node table and the evaluator at any marks are one m.
        assert fresh.mean_jump(q.nodes).tobytes() == fresh.mean_jump_nodes.tobytes()
        assert (sums[0, 0], sums[0, 1], np.exp(sums[0, 2])) == (fresh.sigma0pi_bar, fresh.taupi_bar, fresh.xbar0)

    def test_exposure_monotonicity(self, ref_pop, quad128):
        lo = aggregate(ref_pop, Strategy.constant(2, 0.2), quad128)
        hi = aggregate(ref_pop, Strategy.constant(2, 0.6), quad128)
        assert hi.sigma0pi_bar > lo.sigma0pi_bar

    def test_mean_jump_positive_and_continuous(self, ref_pop, quad128, ref_eq):
        stats = aggregate(ref_pop, ref_eq.strategy, quad128)
        assert np.all(stats.mean_jump_nodes > 0.0)
        h = 1e-7
        bumped = stats.mean_jump(quad128.nodes + h)
        assert np.max(np.abs(bumped - stats.mean_jump_nodes)) < 1e-4

    def test_mean_jump_matches_type_by_signal_loop(self, quad128):
        # log m(e_c) as the explicit sum over types and signals of w_i P(z | e_c) log1p(pi_iz eta)
        market = casestudy.default_market(sigma_hat=0.3)
        pop = Population(
            [
                casestudy.investor(market, p_s=0.6, rho=0.8, weight=0.5),
                casestudy.investor(market, p_s=0.0, rho=-0.4, weight=0.3),
                casestudy.investor(market, p_s=0.9, rho=-0.95, weight=0.2),
            ]
        )
        table = np.random.default_rng(3).uniform(0.0, 0.99, size=(3, 7))
        stats = aggregate(pop, Strategy(table), quad128)
        marks = np.random.default_rng(4).normal(0.0, 2.0, size=10_000)
        for e_c in (quad128.nodes, marks):
            jump = eta(market, e_c)
            log_m = np.zeros_like(e_c)
            for t, row in zip(pop.types, table):
                log_m += t.weight * (1.0 - t.p_s) * np.log1p(row[NONE_INDEX] * jump)
                for z in NONZERO_SIGNALS:
                    law = t.p_s * conditional_prob(z, e_c, t.rho)
                    log_m += t.weight * law * np.log1p(row[SIGNAL_INDEX[z]] * jump)
            assert np.max(np.abs(stats.mean_jump(e_c) / np.exp(log_m) - 1.0)) <= 1e-15

    def test_inadmissible_position_named(self, ref_pop, quad128):
        table = np.zeros((2, 7))
        table[0, 6] = 1.2
        with pytest.raises(ValueError, match=r"type 0.*\+inf"):
            aggregate(ref_pop, Strategy(table), quad128)

    def test_mean_jump_against_brute_force_mc(self, quad128):
        # heterogeneous strategy, m(0) vs a 2D Monte Carlo over (e_i1, e_i2)
        pop = Population([casestudy.investor(p_s=0.4, rho=0.3), casestudy.investor(p_s=0.8, rho=0.7)])
        table = np.array(
            [
                [0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9],
                [0.05, 0.15, 0.3, 0.4, 0.6, 0.8, 0.95],
            ]
        )
        strat = Strategy(table)
        stats = aggregate(pop, strat, quad128)
        e_c = 0.0
        jump = eta(pop.types[0].market, e_c)

        rng = np.random.default_rng(42)
        n = 10_000_000
        log_est, var_est = 0.0, 0.0
        for i, t in enumerate(pop.types):
            e1 = rng.standard_normal(n)
            e2 = rng.uniform(size=n)
            labels = classify_index(perturb(t.rho, e_c, e1), e2 <= t.p_s)
            samples = np.log1p(table[i, labels] * jump)
            log_est += t.weight * samples.mean()
            var_est += (t.weight**2) * samples.var() / n
        se = math.sqrt(var_est)
        assert abs(math.log(stats.mean_jump(e_c)) - log_est) < 3 * se


class TestHeldSignals:
    """m(e_c) tabulates only the signals some row holds; the terms it leaves out are exact zeros."""

    @pytest.mark.parametrize("case", ["reference", *HELD_CASES])
    def test_bitwise_the_full_law(self, case, ref_pop, ref_eq, quad128):
        pop, strat = (ref_pop, ref_eq.strategy) if case == "reference" else HELD_CASES[case]
        marks = 3.0 * np.random.default_rng(8).standard_normal(3 * _MARK_BLOCK + 7)
        jumps = eta(pop.types[-1].market, marks)
        assert jumps.min() < 0.0 < jumps.max()  # 0 * eta takes both signs
        stats = aggregate(pop, strat, quad128)
        assert stats.mean_jump(marks).tobytes() == full_law_mean_jump(pop, strat, marks).tobytes()
        assert stats.mean_jump(quad128.nodes).tobytes() == stats.mean_jump_nodes.tobytes()

    @pytest.mark.parametrize("e_c", [np.array(0.5), 0.5, np.empty(0), np.linspace(-2.0, 2.0, 12).reshape(3, 4)],
                             ids=["0-d", "scalar", "empty", "3x4"])
    def test_mean_jump_keeps_the_shape_of_its_marks(self, e_c, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.constant(2, 0.3), quad128)
        m = stats.mean_jump(e_c)
        assert isinstance(m, float) if np.isscalar(e_c) else m.shape == np.shape(e_c)
        flat = stats.mean_jump(np.ravel(e_c))
        assert np.asarray(m).ravel().tobytes() == flat.tobytes()


class TestMeanLogTerminal:
    def test_deterministic_case(self, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.zeros(2), quad128)
        out = mean_log_terminal(stats, path_of([], w0_total=0.0), T=1.0)
        expected = math.log(stats.xbar0) + sum(t.weight * t.market.r for t in ref_pop.types)
        assert out == pytest.approx(expected, abs=1e-15)

    def test_unit_mean_jump_contributes_nothing(self, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.zeros(2), quad128)
        quiet = mean_log_terminal(stats, path_of([], 0.3), 1.0)
        jumpy = mean_log_terminal(stats, path_of([0.7, -1.2], 0.3), 1.0)
        assert jumpy == pytest.approx(quiet, abs=1e-15)

    def test_brownian_and_jump_terms(self, ref_pop, quad128, ref_eq):
        stats = ref_eq.stats
        marks = [0.5, -0.8]
        out = mean_log_terminal(stats, path_of(marks, w0_total=0.4), T=1.0)
        expected = (
            math.log(stats.xbar0)
            + stats.taupi_bar
            + stats.sigma0pi_bar * 0.4
            + sum(math.log(stats.mean_jump(m)) for m in marks)
        )
        assert out == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_horizon_rejected(self, ref_pop, quad128, T):
        stats = aggregate(ref_pop, Strategy.zeros(2), quad128)
        with pytest.raises(ValueError, match="horizon T must be finite and > 0"):
            mean_log_terminal(stats, path_of([], 0.0), T)

    def test_horizon_mismatch_rejected(self, ref_pop, quad128):
        stats = aggregate(ref_pop, Strategy.zeros(2), quad128)
        with pytest.raises(ValueError, match="covers"):
            mean_log_terminal(stats, path_of([], 0.0, T=2.0), T=1.0)
