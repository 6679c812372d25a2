import hashlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg import casestudy, cli, meanfield, signals, sim
from signalmfg.meanfield import aggregate, mean_log_terminal
from signalmfg.model import SIGNALS, Population, Signal, Strategy, validate_population
from signalmfg.quad import Quadrature
from signalmfg.sim import (
    _STREAM_AGENT,
    _STREAM_BATCH,
    _STREAM_COHORT,
    _STREAM_TYPES,
    CommonNoisePath,
    _generator,
    estimate_utility,
    simulate_agent,
    simulate_cohort,
    simulate_common,
)

MARKET = casestudy.default_market()
MIXED_ROW = np.array([0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9])
TWO_ROWS = Strategy([MIXED_ROW, MIXED_ROW[::-1]])
# Every investor holds nothing on the short-side signals, as at the reference equilibrium.
ZERO_SHORT_ROW = [0.0, 0.0, 0.0, 0.4, 0.8, 0.999999, 0.999999]

# Non-dyadic weights, x0 != 1, sigma > 0 and T != 1: no term of the wealth model drops out.
REPLAY_MARKET = casestudy.default_market(sigma=0.2, sigma_hat=0.3, kappa_hat=0.02)
REPLAY_POP = Population([
    casestudy.investor(REPLAY_MARKET, weight=0.3, x0=2.0, p_s=0.7, rho=0.3, alpha=3.0),
    casestudy.investor(REPLAY_MARKET, weight=0.7, x0=0.7, theta=0.8, rho=-0.6),
])
# Populations and horizons for block-boundary invariance (lam*T = 3 where lam > 0).
BLOCK_CASES = {
    "reference": (casestudy.reference_population(), 0.3),
    "distinct": (cli.load_config({"reference": {"B": {"p_s": 0.25, "rho": 0.8}}}).reference, 0.3),
    "two jump laws": (
        Population([
            casestudy.investor(casestudy.default_market(lam=3.0), weight=0.4),
            casestudy.investor(casestudy.default_market(lam=3.0, kappa_hat=0.05, sigma_hat=0.4), weight=0.6, rho=-0.3),
        ]),
        1.0,
    ),
    "lam = 0": (casestudy.reference_population(casestudy.default_market(lam=0.0, sigma=0.2)), 1.0),
}


def nagent_geometric_average(
    n: int, pop: Population, strat: Strategy, path: CommonNoisePath, seed: int
) -> float:
    """Geometric average terminal wealth of an n-agent cohort on one path."""
    _, wealth = simulate_cohort(n, pop, strat, path, seed)
    return float(np.exp(np.mean(np.log(wealth))))


def crash_path():
    """One jump at t = 0.5 with common mark -12: the jump return sits at its floor."""
    return CommonNoisePath(
        jump_times=np.array([0.5]), common_marks=np.array([-12.0]), w0_increments=np.zeros(2), horizon=1.0, seed=0
    )


def local_label(z, received):
    """Index into SIGNALS: no signal unless received and z != 0, else sign and bucket of |z| (edges inward)."""
    if not received or z == 0.0:
        return 3
    size = 1 if abs(z) <= 0.5 else 2 if abs(z) <= 1.0 else 3
    return 3 + size if z > 0 else 3 - size


def local_log_wealth(t, row, path, dW, e_i1, e_i2):
    """Exact log terminal wealth of one agent from its own draws, one scalar term at a time."""
    m = t.market
    phi0 = float(row[3])
    grid = [0.0, *path.jump_times, path.horizon]
    drift = m.r + phi0 * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * phi0**2
    out = math.log(t.x0)
    for s in range(len(grid) - 1):
        out += drift * (grid[s + 1] - grid[s]) + m.sigma * phi0 * dW[s] + m.sigma0 * phi0 * path.w0_increments[s]
    labels = []
    for e_c, u1, u2 in zip(path.common_marks, e_i1, e_i2):
        z = t.rho * e_c + math.sqrt(1.0 - t.rho**2) * u1
        labels.append(local_label(z, u2 <= t.p_s))
        jump = math.expm1(m.sigma_hat * e_c + m.kappa_hat - 0.5 * m.sigma_hat**2)
        out += math.log1p(float(row[labels[-1]]) * jump)
    return out, labels


def replay_cohort(n, pop, strat, path, seed):
    """Per-agent oracle of ``simulate_cohort``: agent j reads row j of the cohort stream's blocks."""
    weights = pop.weights
    type_idx = _generator(seed, _STREAM_TYPES).choice(len(pop), size=n, p=weights / weights.sum())
    rng = _generator(seed, _STREAM_COHORT)
    k = path.n_jumps
    dt = np.diff(np.concatenate(([0.0], path.jump_times, [path.horizon])))
    dW = rng.standard_normal((n, k + 1)) * np.sqrt(dt)
    e_i1 = rng.standard_normal((n, k))
    e_i2 = rng.uniform(size=(n, k))
    logs = [
        local_log_wealth(pop.types[i], strat.row(i), path, dW[j], e_i1[j], e_i2[j])[0]
        for j, i in enumerate(type_idx)
    ]
    return type_idx, np.exp(logs)


def replay_estimate_utility(pop, strat, n_paths, T, seed):
    """Scalar oracle of ``estimate_utility``: its streams replayed one path and one jump at a time.

    Stream 5 substream 0 gives the jump counts, 1 the marks of every path in
    order, 2 the W0 increments over [0, T]; type i's substream 10 + i gives its
    own increments, then e_i1 and e_i2 for every jump.
    """
    stats = aggregate(pop, strat, Quadrature.standard_normal())
    counts = _generator(seed, _STREAM_BATCH, 0).poisson(pop.types[0].market.lam * T, size=n_paths)
    total = int(counts.sum())
    marks = _generator(seed, _STREAM_BATCH, 1).standard_normal(total).tolist()
    w0 = (_generator(seed, _STREAM_BATCH, 2).standard_normal(n_paths) * math.sqrt(T)).tolist()
    noise = []
    for i in range(len(pop)):
        rng = _generator(seed, _STREAM_BATCH, 10 + i)
        w_own = rng.standard_normal(n_paths) * math.sqrt(T)
        noise.append((w_own.tolist(), rng.standard_normal(total).tolist(), rng.uniform(size=total).tolist()))
    utilities = [[] for _ in pop.types]
    end = 0
    for p, k in enumerate(counts.tolist()):
        jumps = range(end, end + k)
        end += k
        log_xbar = math.log(stats.xbar0) + stats.taupi_bar * T + stats.sigma0pi_bar * w0[p]
        log_xbar += sum(math.log(stats.mean_jump(marks[j])) for j in jumps)
        for i, t in enumerate(pop.types):
            m, row, (w_own, e_i1, e_i2) = t.market, strat.row(i).tolist(), noise[i]
            phi0 = row[3]
            drift = m.r + phi0 * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * phi0**2
            log_x = math.log(t.x0) + drift * T + m.sigma * phi0 * w_own[p] + m.sigma0 * phi0 * w0[p]
            for j in jumps:
                z = t.rho * marks[j] + math.sqrt(1.0 - t.rho**2) * e_i1[j]
                jump = math.expm1(m.sigma_hat * marks[j] + m.kappa_hat - 0.5 * m.sigma_hat**2)
                log_x += math.log1p(row[local_label(z, e_i2[j] <= t.p_s)] * jump)
            relative = math.exp(log_x) * math.exp(log_xbar) ** -t.theta
            utilities[i].append(relative ** (1.0 - t.alpha) / (1.0 - t.alpha))
    means = [statistics.fmean(u) for u in utilities]
    errors = [statistics.stdev(u) / math.sqrt(n_paths) for u in utilities]
    return np.array(means), np.array(errors)


class TestSimulateCommon:
    def test_no_jumps_when_rate_zero(self):
        path = simulate_common(1.0, casestudy.default_market(lam=0.0), seed=1)
        assert path.n_jumps == 0
        assert path.w0_increments.shape == (1,)

    def test_jump_count_and_mark_moments(self):
        counts, marks = [], []
        for seed in range(20_000):
            path = simulate_common(1.0, MARKET, seed)
            counts.append(path.n_jumps)
            marks.extend(path.common_marks[:2])
        lam_t = MARKET.lam * 1.0
        se_count = math.sqrt(lam_t) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - lam_t) < 3 * se_count
        se_mark = 1.0 / math.sqrt(len(marks))
        assert abs(np.mean(marks)) < 3 * se_mark

    def test_times_sorted_and_within_horizon(self):
        path = simulate_common(2.0, MARKET, seed=5)
        assert np.all(np.diff(path.jump_times) >= 0.0)
        assert np.all((path.jump_times >= 0.0) & (path.jump_times <= 2.0))
        assert path.w0_increments.shape == (path.n_jumps + 1,)

    def test_deterministic_in_seed(self):
        a = simulate_common(1.0, MARKET, seed=9)
        b = simulate_common(1.0, MARKET, seed=9)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.common_marks, b.common_marks)
        assert np.array_equal(a.w0_increments, b.w0_increments)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_common(0.0, MARKET, seed=0)

    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_infinite_horizon_rejected(self, lam):
        with pytest.raises(ValueError, match="horizon T must be finite and > 0"):
            simulate_common(float("inf"), casestudy.default_market(lam=lam), seed=0)


class TestSimulateAgent:
    def test_zero_positions_bank_account(self):
        t = casestudy.investor(x0=3.0)
        path = simulate_common(1.0, MARKET, seed=2)
        out = simulate_agent(t, np.zeros(7), path, seed=2)
        assert out.terminal_wealth == pytest.approx(3.0 * math.exp(t.market.r), rel=1e-12)

    def test_exact_lognormal_solution_without_jumps(self):
        t = casestudy.investor(market=casestudy.default_market(lam=0.0, sigma=0.2))
        path = simulate_common(1.0, t.market, seed=4)
        c = 0.37
        out = simulate_agent(t, np.full(7, c), path, seed=4, agent_id=7)
        # replay the agent's own Brownian draw from the identical stream
        from signalmfg.sim import _generator, _STREAM_AGENT

        rng = _generator(4, _STREAM_AGENT, 7)
        dW = rng.standard_normal(1) * math.sqrt(1.0)
        m = t.market
        expected = t.x0 * math.exp(
            (m.r + c * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * c**2)
            + m.sigma * c * float(dW[0])
            + m.sigma0 * c * path.w0_total
        )
        assert out.terminal_wealth == pytest.approx(expected, rel=1e-14)

    def test_replay_with_jumps_matches_local_formula(self):
        t = casestudy.investor(market=casestudy.default_market(sigma=0.2, sigma_hat=0.4, kappa_hat=0.05))
        path = simulate_common(1.0, t.market, seed=21)
        assert path.n_jumps > 3
        out = simulate_agent(t, MIXED_ROW, path, seed=21, agent_id=4)
        rng = _generator(21, _STREAM_AGENT, 4)
        k = path.n_jumps
        dW = rng.standard_normal(k + 1) * np.sqrt(np.diff(np.concatenate(([0.0], path.jump_times, [1.0]))))
        e_i1 = rng.standard_normal(k)
        e_i2 = rng.uniform(size=k)
        expected, labels = local_log_wealth(t, MIXED_ROW, path, dW, e_i1, e_i2)
        assert out.terminal_wealth == pytest.approx(math.exp(expected), rel=1e-14)
        assert out.signals == tuple(SIGNALS[i] for i in labels)
        assert len(set(labels)) > 1

    @pytest.mark.parametrize(
        "seed, wealth_hex",
        [(3, "0x1.546ad2a279cf3p+0"), (21, "0x1.06a7d8f1944d6p+0"), (1234, "0x1.1d0569d1f0bf3p+0")],
    )
    def test_terminal_wealth_pinned(self, seed, wealth_hex):
        # Values of the per-agent implementation that predates the batched kernel.
        path = simulate_common(1.0, MARKET, seed)
        out = simulate_agent(casestudy.investor(), MIXED_ROW, path, seed, agent_id=5)
        assert out.terminal_wealth.hex() == wealth_hex

    def test_bitwise_reproducible(self):
        t = casestudy.investor()
        path = simulate_common(1.0, MARKET, seed=11)
        row = np.full(7, 0.5)
        a = simulate_agent(t, row, path, seed=11, agent_id=3)
        b = simulate_agent(t, row, path, seed=11, agent_id=3)
        assert a.terminal_wealth == b.terminal_wealth
        assert a.signals == b.signals

    def test_crash_floor_keeps_wealth_positive(self):
        t = casestudy.investor()
        hi = 1.0 - t.eps_b
        out = simulate_agent(t, np.full(7, hi), crash_path(), seed=0)
        assert out.terminal_wealth > 0.0

    def test_signals_match_reception_probability(self):
        t = casestudy.investor(p_s=0.3)
        received = 0
        total = 0
        for seed in range(300):
            path = simulate_common(1.0, MARKET, seed)
            out = simulate_agent(t, np.zeros(7), path, seed)
            total += path.n_jumps
            received += sum(1 for z in out.signals if z is not Signal.NONE)
        se = math.sqrt(0.3 * 0.7 * total) / total
        assert abs(received / total - 0.3) < 4 * se

    def test_inadmissible_row_rejected(self):
        t = casestudy.investor()
        path = simulate_common(1.0, MARKET, seed=0)
        with pytest.raises(ValueError, match="admissible"):
            simulate_agent(t, np.full(7, 1.5), path, seed=0)

    def test_nan_row_rejected(self):
        path = simulate_common(1.0, MARKET, seed=0)
        with pytest.raises(ValueError, match="inadmissible position nan"):
            simulate_agent(casestudy.investor(), np.full(7, np.nan), path, seed=0)

    def test_stream_separation_between_agents(self):
        t = casestudy.investor()
        path = simulate_common(1.0, MARKET, seed=21)
        assert path.n_jumps > 0
        a = simulate_agent(t, MIXED_ROW, path, seed=21, agent_id=0)
        b = simulate_agent(t, MIXED_ROW, path, seed=21, agent_id=1)
        # same jump times and common marks by construction; idiosyncratic draws differ
        assert a.signals != b.signals
        assert a.terminal_wealth != b.terminal_wealth


class TestEstimateUtility:
    def test_merton_matches_closed_form(self):
        m = casestudy.default_market(lam=0.0)
        pop = Population([casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)])
        strat = Strategy.constant(2, 4.0 / 9.0)
        means, errors = estimate_utility(pop, strat, 50_000, 1.0, seed=31)
        closed = -math.exp(-0.0064 / 0.36)
        for i in range(2):
            assert abs(means[i] - closed) < 3 * errors[i]

    def test_no_concern_ignores_peer_average(self):
        # theta = 0: scaling every initial wealth (hence xbar) leaves utility unchanged
        m = casestudy.default_market()
        small = Population([casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)])
        big = Population(
            [casestudy.investor(m, theta=0.0, x0=5.0), casestudy.investor(m, theta=0.0, x0=5.0)]
        )
        strat = Strategy.constant(2, 0.4)
        mean_small, _ = estimate_utility(small, strat, 5_000, 1.0, seed=77)
        mean_big, _ = estimate_utility(big, strat, 5_000, 1.0, seed=77)
        assert mean_big == pytest.approx(mean_small / 5.0, rel=1e-12)

    def test_deterministic_in_seed(self, ref_pop):
        strat = Strategy.constant(2, 0.3)
        a = estimate_utility(ref_pop, strat, 1_000, 1.0, seed=8)
        b = estimate_utility(ref_pop, strat, 1_000, 1.0, seed=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_minimum_paths_enforced(self, ref_pop):
        with pytest.raises(ValueError, match="n_paths"):
            estimate_utility(ref_pop, Strategy.zeros(2), 10, 1.0, seed=0)

    @pytest.mark.parametrize("T", [-1.0, float("nan"), float("inf")])
    def test_invalid_horizon_rejected(self, ref_pop, T):
        with pytest.raises(ValueError, match="horizon T must be finite and > 0"):
            estimate_utility(ref_pop, Strategy.zeros(2), 1_000, T, seed=0)

    def test_matches_scalar_replay_of_its_streams(self):
        means, errors = estimate_utility(REPLAY_POP, TWO_ROWS, 300, 1.5, seed=7)
        oracle_means, oracle_errors = replay_estimate_utility(REPLAY_POP, TWO_ROWS, 300, 1.5, seed=7)
        assert np.max(np.abs(means / oracle_means - 1.0)) <= 1e-12
        assert np.max(np.abs(errors / oracle_errors - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "args, means_hex, errors_hex",
        [
            (
                (REPLAY_POP, TWO_ROWS, 300, 1.5, 7),
                ("-0x1.270dac06b47c3p-3", "-0x1.49a891fa68876p+0"),
                ("0x1.294e6fb4f683ap-7", "0x1.6966b1032f4cfp-6"),
            ),
            (
                (casestudy.reference_population(), Strategy.constant(2, 0.3), 2_000, 1.0, 8),
                ("-0x1.fd284940b8419p-1",) * 2,
                ("0x1.6f4c77e2709c9p-10",) * 2,
            ),
            (
                (casestudy.reference_population(), Strategy([ZERO_SHORT_ROW] * 2), 2_000, 1.0, 9),
                ("-0x1.eb086d1179facp-1", "-0x1.eb7d6e24a475dp-1"),
                ("0x1.659b842cef06ep-9", "0x1.7037b4044e908p-9"),
            ),
        ],
        ids=["replay", "reference", "zero_short_side"],
    )
    def test_outputs_pinned(self, args, means_hex, errors_hex):
        # Values of the whole-array implementation that predates the path-aligned blocks; the zero-short-side
        # values are those of m(e_c) on the law of all seven signals, before it tabulated only the held ones.
        means, errors = estimate_utility(*args)
        assert tuple(m.hex() for m in means.tolist()) == means_hex
        assert tuple(e.hex() for e in errors.tolist()) == errors_hex

    @pytest.mark.parametrize("block", [1, 7, 10**9])
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_block_boundaries_leave_every_bit(self, monkeypatch, case, block):
        pop, T = BLOCK_CASES[case]
        expected = estimate_utility(pop, TWO_ROWS, 300, T, seed=5)
        counts = _generator(5, _STREAM_BATCH, 0).poisson(pop.types[0].market.lam * T, size=300)
        if pop.types[0].market.lam > 0:
            # Paths without marks, and paths with more marks than a block of 7.
            assert counts.min() == 0 and counts.max() > 7
        for module in (sim, meanfield):
            monkeypatch.setattr(module, "_MARK_BLOCK", block)
        means, errors = estimate_utility(pop, TWO_ROWS, 300, T, seed=5)
        assert means.tobytes() == expected[0].tobytes() and errors.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("equilibrium, edges", [(True, 3), (False, 5)], ids=["reference_equilibrium", "constant"])
    def test_cdf_edges_per_mark(self, monkeypatch, ref_pop, ref_eq, quad128, equilibrium, edges):
        # m(e_c) evaluates the CDF only at the edges of the signals some row holds: at the reference equilibrium
        # the three short-side signals sit at 0, so it skips 2 of the 5 edges.  The aggregate's node law takes all 5.
        strat = ref_eq.strategy if equilibrium else Strategy.constant(2, 0.3)
        values, marks = [], []
        cdf, sizes = signals.std_normal_cdf, sim.jump_sizes
        monkeypatch.setattr(signals, "std_normal_cdf", lambda x: values.append(np.size(x)) or cdf(x))
        monkeypatch.setattr(sim, "jump_sizes", lambda types, e_c: marks.append(len(e_c)) or sizes(types, e_c))
        estimate_utility(ref_pop, strat, 10_000, 1.0, seed=3)
        assert sum(marks) > 50_000
        assert sum(values) == edges * sum(marks) + 5 * len(quad128.nodes)

    def test_one_signal_law_table_per_run(self, monkeypatch, ref_pop, ref_eq, quad128):
        # m(e_c) at marks streams one signal row at a time (signals.law_rows): the one signal_laws table of a run
        # is aggregate's node law, never one per block of marks.
        tables, marks = [], []

        def counted(build):
            return lambda types, e_c, *args: tables.append(np.shape(e_c)) or build(types, e_c, *args)

        for module in (signals, meanfield):
            monkeypatch.setattr(module, "signal_laws", counted(module.signal_laws))
        sizes = sim.jump_sizes
        monkeypatch.setattr(sim, "jump_sizes", lambda types, e_c: marks.append(len(e_c)) or sizes(types, e_c))
        estimate_utility(ref_pop, ref_eq.strategy, 10_000, 1.0, seed=3)
        assert len(marks) > 3 and sum(marks) > 3 * meanfield._MARK_BLOCK
        assert tables == [quad128.nodes.shape]

    def test_memory_stays_per_mark_small(self, ref_pop):
        # About 1e6 marks (lam*T = 10).  The whole-array body held ~68 bytes per mark, 68 MB here; the
        # path-aligned blocks keep eta (8 B per jump law) and int8 signals (1 B per type), 21 MB in all.
        # The bound is 1.5x the measured peak and below half of the whole-array figure.
        tracemalloc.start()
        try:
            estimate_utility(ref_pop, TWO_ROWS, 100_000, 1.0, seed=12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32e6


class TestCohorts:
    def test_single_agent_average_is_that_agent(self, ref_pop):
        path = simulate_common(1.0, MARKET, seed=13)
        strat = Strategy.constant(2, 0.5)
        ga = nagent_geometric_average(1, ref_pop, strat, path, seed=13)
        idx, wealth = simulate_cohort(1, ref_pop, strat, path, seed=13)
        assert ga == pytest.approx(float(wealth[0]), rel=1e-15)

    def test_zero_positions_deterministic(self, ref_pop):
        path = simulate_common(1.0, MARKET, seed=17)
        ga = nagent_geometric_average(50, ref_pop, Strategy.zeros(2), path, seed=17)
        assert ga == pytest.approx(math.exp(MARKET.r), rel=1e-12)  # x0 = 1, bank account

    def test_law_of_large_numbers_single_path(self, ref_pop, quad128, ref_eq):
        path = simulate_common(1.0, MARKET, seed=19)
        idx, wealth = simulate_cohort(5_000, ref_pop, ref_eq.strategy, path, seed=19)
        logs = np.log(wealth)
        se = float(np.std(logs, ddof=1) / math.sqrt(logs.size))
        expected = mean_log_terminal(ref_eq.stats, path, 1.0)
        assert abs(float(np.mean(logs)) - expected) < 3 * se

    def test_type_sampling_follows_weights(self):
        pop = Population([casestudy.investor(weight=0.25), casestudy.investor(weight=0.75)])
        path = simulate_common(1.0, MARKET, seed=23)
        idx, _ = simulate_cohort(8_000, pop, Strategy.zeros(2), path, seed=23)
        share = float(np.mean(idx == 1))
        se = math.sqrt(0.25 * 0.75 / 8_000)
        assert abs(share - 0.75) < 4 * se


# Every public entry point that takes a Monte Carlo master seed.
seeded_entries = pytest.mark.parametrize(
    "entry",
    [
        lambda seed: simulate_common(1.0, MARKET, seed),
        lambda seed: simulate_agent(casestudy.investor(), MIXED_ROW, crash_path(), seed),
        lambda seed: simulate_cohort(10, casestudy.reference_population(), Strategy.zeros(2), crash_path(), seed),
        lambda seed: estimate_utility(casestudy.reference_population(), Strategy.zeros(2), 1_000, 1.0, seed),
    ],
    ids=["simulate_common", "simulate_agent", "simulate_cohort", "estimate_utility"],
)


@seeded_entries
def test_non_integer_seed_rejected(entry):
    # A float seed is rejected, not truncated: 3.7 must not run seed 3.
    with pytest.raises(TypeError, match="seed must be an integer"):
        entry(3.7)


@seeded_entries
def test_negative_seed_rejected(entry):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        entry(-1)


@pytest.mark.parametrize("n_paths", [150.0, True])
def test_non_integer_path_count_rejected(n_paths):
    with pytest.raises(TypeError, match="n_paths must be an integer"):
        estimate_utility(casestudy.reference_population(), Strategy.zeros(2), n_paths, 1.0, seed=0)


@pytest.mark.parametrize("n", [10.5, True])
def test_non_integer_cohort_size_rejected(n):
    with pytest.raises(TypeError, match="n must be an integer"):
        simulate_cohort(n, casestudy.reference_population(), Strategy.zeros(2), crash_path(), seed=0)


def test_numpy_integer_counts_accepted():
    pop, strat = casestudy.reference_population(), Strategy.zeros(2)
    assert estimate_utility(pop, strat, np.int64(200), 1.0, np.int64(1))[0].shape == (2,)
    assert simulate_cohort(np.int64(3), pop, strat, crash_path(), seed=np.int64(1))[1].shape == (3,)


TWO_TYPES = Population([casestudy.investor(weight=0.25, rho=0.3, p_s=0.7, x0=2.0), casestudy.investor(weight=0.75)])


class TestCohortKernel:
    def assert_matches_oracle(self, n, pop, strat, path, seed):
        idx, wealth = simulate_cohort(n, pop, strat, path, seed)
        oracle_idx, oracle_wealth = replay_cohort(n, pop, strat, path, seed)
        assert np.array_equal(idx, oracle_idx)
        assert np.max(np.abs(wealth / oracle_wealth - 1.0)) <= 1e-13
        return idx, wealth

    def test_two_types_match_per_agent_oracle(self):
        path = simulate_common(1.0, MARKET, seed=7)
        assert path.n_jumps > 3
        idx, _ = self.assert_matches_oracle(400, TWO_TYPES, TWO_ROWS, path, seed=7)
        assert set(idx) == {0, 1}

    def test_type_indices_pinned(self):
        # The type draw has its own stream; these indices predate the batched kernel.
        idx, _ = simulate_cohort(40, TWO_TYPES, TWO_ROWS, simulate_common(1.0, MARKET, seed=7), seed=7)
        assert "".join(map(str, idx)) == "1110000011111111011111111111110101101010"

    def test_terminal_wealth_pinned(self):
        # sha256 of the 400 wealths' bytes, recorded before the jump returns were formed in place and the
        # diffusion coefficients taken once per type; the oracle above checks them only to 1e-13.
        _, wealth = simulate_cohort(400, TWO_TYPES, TWO_ROWS, simulate_common(1.0, MARKET, seed=7), seed=7)
        assert wealth[0].hex() == "0x1.7b9f64933e621p-1"
        assert hashlib.sha256(wealth.tobytes()).hexdigest() == (
            "e6798209a00c310bac43a86d405060254224ac7a3749310cdc4f54560f58bca3"
        )

    def test_jump_free_path_matches_oracle(self):
        m = casestudy.default_market(lam=0.0, sigma=0.2)
        pop = Population([casestudy.investor(m, weight=0.4, x0=0.5), casestudy.investor(m, weight=0.6, x0=3.0)])
        path = simulate_common(1.0, m, seed=5)
        assert path.n_jumps == 0
        self.assert_matches_oracle(300, pop, TWO_ROWS, path, seed=5)

    @pytest.mark.parametrize("n", [1, 3_000])
    def test_crash_path_matches_oracle(self, ref_pop, n):
        hi = 1.0 - ref_pop.types[0].eps_b
        _, wealth = self.assert_matches_oracle(n, ref_pop, Strategy.constant(2, hi), crash_path(), seed=0)
        assert np.all(wealth > 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 20.0),
        sigma_hat=st.floats(0.0, 4.0),
        blocks=st.lists(
            st.tuples(
                st.floats(0.1, 100.0).filter(lambda a: abs(a - 1.0) >= 1e-3),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0, exclude_max=True),
                st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                st.lists(st.booleans(), min_size=7, max_size=7),
            ),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_valid_cohort_wealth_is_finite_and_positive(self, lam, sigma_hat, blocks, seed):
        market = casestudy.default_market(lam=lam, sigma_hat=sigma_hat)
        types = [
            casestudy.investor(market, p_s=p_s, rho=rho, alpha=alpha, theta=theta, weight=1.0 / len(blocks))
            for alpha, theta, p_s, rho, _ in blocks
        ]
        pop = Population(types)
        assert not validate_population(pop)
        # Every position at an admissible bound: 0 or 1 - eps_b.
        strat = Strategy([[1.0 - t.eps_b if high else 0.0 for high in block[4]] for t, block in zip(types, blocks)])
        _, wealth = simulate_cohort(200, pop, strat, simulate_common(1.0, market, seed), seed)
        assert np.all(np.isfinite(wealth)) and np.all(wealth > 0.0)
