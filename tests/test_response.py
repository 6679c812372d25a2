import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg import casestudy
from signalmfg.meanfield import aggregate
from signalmfg.model import (
    NONE_INDEX,
    NONZERO_SIGNALS,
    SIGNAL_INDEX,
    SIGNALS,
    AdmissibleInterval,
    InvestorType,
    MarketParams,
    Population,
    Signal,
    Strategy,
    admissible_interval,
    validate_investor,
)
from signalmfg.quad import Quadrature, expect_outer
from signalmfg.response import (
    best_response,
    best_response_nagent,
    context_from_stats,
    maximize_concave_1d,
    nagent_target_context,
    relative_utility,
    respond_type,
    target_no_signal,
    target_signal,
)
from signalmfg.signals import JumpLaw, conditional_prob, eta

MERTON = 4.0 / 9.0  # 0.08 / (2 * 0.09) for the case-study market


def mf_context(pop, strat, q, type_index=0):
    return context_from_stats(pop.types[type_index], aggregate(pop, strat, q), q)


class TestRelativeUtility:
    def test_no_concern(self):
        assert relative_utility(2.0, 5.0, alpha=2.0, theta=0.0) == pytest.approx(-0.5)

    def test_concern_direction(self):
        # alpha > 1: a richer peer average lowers utility
        lo = relative_utility(1.0, 1.0, alpha=2.0, theta=0.5)
        hi = relative_utility(1.0, 2.0, alpha=2.0, theta=0.5)
        assert hi < lo

    def test_low_risk_aversion_sign(self):
        assert relative_utility(1.0, 1.0, alpha=0.5, theta=0.3) > 0


class TestTargetNoSignal:
    def test_quadratic_closed_form(self, quad128):
        # lam = 0, theta = 0: value is phi*kappa - alpha/2 * sigma0^2 * phi^2
        m = casestudy.default_market(lam=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        ctx = mf_context(pop, Strategy.zeros(1), quad128)
        assert target_no_signal(MERTON, ctx) == pytest.approx(0.0177777777777778, abs=1e-15)

    def test_zero_position_zero_value(self, quad128):
        m = casestudy.default_market(lam=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        ctx = mf_context(pop, Strategy.zeros(1), quad128)
        assert target_no_signal(0.0, ctx) == 0.0

    def test_neutral_environment_vanishes_at_zero(self, ref_pop, quad128):
        # u(1, 1)-subtraction keeps the jump integrand zero at phi = 0
        ctx = mf_context(ref_pop, Strategy.zeros(2), quad128)
        assert target_no_signal(0.0, ctx) == pytest.approx(0.0, abs=1e-14)

    def test_refinement_oracle(self, ref_pop):
        # dense-grid/high-node evaluation agrees with default settings
        coarse_ctx = mf_context(ref_pop, Strategy.constant(2, 0.5), Quadrature.standard_normal(128, 8.0))
        fine_ctx = mf_context(ref_pop, Strategy.constant(2, 0.5), Quadrature.standard_normal(512, 10.0))
        assert target_no_signal(0.5, coarse_ctx) == pytest.approx(
            target_no_signal(0.5, fine_ctx), abs=1e-7
        )

    def test_array_evaluation_matches_scalar(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.constant(2, 0.4), quad128)
        grid = np.linspace(0.0, 0.9, 7)
        vals = target_no_signal(grid, ctx)
        assert vals == pytest.approx([target_no_signal(float(p), ctx) for p in grid])


class TestTargetSignal:
    def test_zero_in_neutral_environment(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.zeros(2), quad128)
        for z in NONZERO_SIGNALS:
            assert target_signal(0.0, z, ctx) == pytest.approx(0.0, abs=1e-14)

    def test_rho_zero_mirror_symmetry(self, quad128):
        pop = Population([casestudy.investor(rho=0.0, weight=1.0)])
        ctx = mf_context(pop, Strategy.constant(1, 0.3), quad128)
        for z in (Signal.POS_HALF, Signal.POS_ONE, Signal.POS_INF):
            assert target_signal(0.4, z, ctx) == pytest.approx(
                target_signal(0.4, z.mirrored(), ctx), abs=1e-10
            )

    def test_posterior_weights_integrate_to_one(self, ref_pop, quad128):
        t = ref_pop.types[0]
        for z in NONZERO_SIGNALS:
            mass = expect_outer(lambda x: conditional_prob(z, x, t.rho), quad128)
            assert mass / conditional_prob(z, 0.0, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_null_signal_rejected(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.zeros(2), quad128)
        with pytest.raises(ValueError):
            target_signal(0.1, Signal.NONE, ctx)


class TestMaximizeConcave1d:
    def test_quadratic_vertex(self):
        x, v = maximize_concave_1d(lambda x: -((x - 0.3) ** 2), AdmissibleInterval(0.0, 1.0), 1e-10)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_boundary_maximum(self):
        x, _ = maximize_concave_1d(lambda x: x, AdmissibleInterval(0.0, 1.0), 1e-10)
        assert x == pytest.approx(1.0, abs=1e-9)

    def test_merton_vertex(self):
        # localization is flatness-limited: sqrt(ulp(f*) / curvature) ~ 5e-9 here
        x, _ = maximize_concave_1d(lambda x: 0.08 * x - 0.09 * x * x, AdmissibleInterval(0.0, 1.0), 1e-10)
        assert x == pytest.approx(MERTON, abs=2e-8)

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            maximize_concave_1d(lambda x: -x * x, AdmissibleInterval(0.0, 1.0), 0.0)

    def test_non_finite_objective(self):
        with pytest.raises(ValueError, match="finite"):
            maximize_concave_1d(lambda x: float("nan"), AdmissibleInterval(0.0, 1.0), 1e-8)


class TestBestResponse:
    def test_degenerate_jumps_give_clipped_merton_everywhere(self, quad128):
        # eta identically zero: signals are uninformative, Merton for every signal
        m = casestudy.default_market(kappa_hat=0.0, sigma_hat=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        out = best_response(pop, Strategy.zeros(1), quad128)
        assert out.table == pytest.approx(np.full((1, 7), MERTON), abs=1e-9)

    def test_merton_env_independent_bit_for_bit(self, quad128):
        m = casestudy.default_market(lam=0.0)
        pop = Population([casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)])
        a = best_response(pop, Strategy.zeros(2), quad128)
        b = best_response(pop, Strategy.constant(2, 0.9), quad128)
        assert np.array_equal(a.table, b.table)
        assert a.table == pytest.approx(np.full((2, 7), MERTON), abs=1e-9)

    def test_no_drift_no_jumps_no_concern(self, quad128):
        m = casestudy.default_market(lam=0.0, kappa=0.0, r=0.0)
        pop = Population([casestudy.investor(m, theta=0.0, weight=1.0)])
        out = best_response(pop, Strategy.constant(1, 0.5), quad128)
        assert out.table == pytest.approx(np.zeros((1, 7)), abs=1e-9)

    def test_admissibility_closure(self, ref_pop, quad128):
        rng = np.random.default_rng(0)
        hi = 1.0 - ref_pop.types[0].eps_b
        for _ in range(3):
            env = Strategy(rng.uniform(0.0, hi, size=(2, 7)))
            out = best_response(ref_pop, env, quad128)
            assert np.all(out.table >= 0.0) and np.all(out.table <= hi)

    def test_grid_oracle_on_reference(self, ref_pop, quad128):
        # coarse grid scan plus local refinement brackets each maximizer to 1e-4
        env = Strategy.constant(2, 0.5)
        stats = aggregate(ref_pop, env, quad128)
        out = best_response(ref_pop, env, quad128)
        for i, t in enumerate(ref_pop.types):
            ctx = context_from_stats(t, stats, quad128)
            iv = admissible_interval(t)
            for z in SIGNALS:
                f = (
                    (lambda p: target_no_signal(p, ctx))
                    if z is Signal.NONE
                    else (lambda p: target_signal(p, z, ctx))
                )
                grid = np.linspace(iv.lo, iv.hi, 10_001)
                best = grid[int(np.argmax(f(grid)))]
                assert out.position(i, z) == pytest.approx(best, abs=1e-4)

    def test_signal_symmetry_rho_zero(self, quad128):
        pop = Population([casestudy.investor(rho=0.0, weight=1.0)])
        out = best_response(pop, Strategy.constant(1, 0.4), quad128)
        for z in (Signal.POS_HALF, Signal.POS_ONE, Signal.POS_INF):
            assert out.position(0, z) == pytest.approx(out.position(0, z.mirrored()), abs=1e-8)

    def test_concern_raises_default_position(self, ref_pop, quad128):
        # argmax of the no-signal target is nondecreasing in theta at fixed stats
        stats = aggregate(ref_pop, Strategy.constant(2, 0.5), quad128)
        assert stats.sigma0pi_bar > 0
        args = []
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            t = casestudy.investor(theta=theta)
            ctx = context_from_stats(t, stats, quad128)
            phi, _ = maximize_concave_1d(
                lambda p: target_no_signal(p, ctx), admissible_interval(t), 1e-10
            )
            args.append(phi)
        assert all(b >= a - 1e-9 for a, b in zip(args, args[1:]))

    def test_sampled_concavity(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.constant(2, 0.5), quad128)
        iv = admissible_interval(ref_pop.types[0])
        grid = np.linspace(iv.lo, iv.hi, 21)
        for z in SIGNALS:
            f = (
                (lambda p: target_no_signal(p, ctx))
                if z is Signal.NONE
                else (lambda p: target_signal(p, z, ctx))
            )
            vals = f(grid)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.max(second) <= 1e-10


class TestNAgentResponse:
    def test_theta_zero_matches_mean_field(self, quad128):
        # without concern the peer environment is irrelevant in both modes
        types = [casestudy.investor(theta=0.0), casestudy.investor(theta=0.0)]
        nag = best_response_nagent(types, Strategy.constant(2, 0.7), quad128)
        pop = Population(types)
        mf = best_response(pop, Strategy.constant(2, 0.7), quad128)
        assert np.array_equal(nag.table, mf.table)

    def test_many_players_approach_mean_field(self, quad128):
        t = casestudy.investor()
        env = Strategy.constant(60, 0.5)
        nag = best_response_nagent([t] * 60, env, quad128)
        pop = Population([casestudy.investor(weight=1.0)])
        mf = best_response(pop, Strategy.constant(1, 0.5), quad128)
        assert np.max(np.abs(nag.table[0] - mf.table[0])) < 5e-3

    def test_needs_two_players(self, quad128):
        with pytest.raises(ValueError):
            best_response_nagent([casestudy.investor()], Strategy.zeros(1), quad128)


def first_derivative(phi, z, t, stats, q):
    """Closed-form g'(phi) of target z, built here from the public model pieces."""
    m = t.market
    jump = eta(JumpLaw.from_market(m), q.nodes)
    env = stats.mean_jump_nodes ** (-t.theta * (1.0 - t.alpha))
    integrand = jump * (1.0 + phi * jump) ** (-t.alpha) * env
    if z is Signal.NONE:
        drift = (m.kappa - m.r) - t.theta * (1.0 - t.alpha) * m.sigma0 * stats.sigma0pi_bar
        drift -= t.alpha * (m.sigma**2 + m.sigma0**2) * phi
        return drift + m.lam * (1.0 - t.p_s) * np.dot(q.weights, integrand)
    weights = q.weights * conditional_prob(z, q.nodes, t.rho) / conditional_prob(z, 0.0, 0.0)
    return np.dot(weights, integrand)


def signal_target(z, ctx):
    if z is Signal.NONE:
        return lambda p: target_no_signal(p, ctx)
    return lambda p: target_signal(p, z, ctx)


class TestNewtonBestResponse:
    def test_first_order_conditions_on_reference(self, ref_pop, quad128, ref_eq):
        kinds = set()
        for t in ref_pop.types:
            row = respond_type(t, context_from_stats(t, ref_eq.stats, quad128))
            iv = admissible_interval(t)
            for z, phi in zip(SIGNALS, row):
                slope = first_derivative(phi, z, t, ref_eq.stats, quad128)
                if phi == iv.lo:
                    kinds.add("lo")
                    assert slope <= 0.0
                elif phi == iv.hi:
                    kinds.add("hi")
                    assert slope >= 0.0
                else:
                    kinds.add("interior")
                    assert abs(slope) <= 1e-9
        assert kinds == {"lo", "hi", "interior"}

    def test_values_at_least_golden_section(self, ref_pop, quad128, ref_eq):
        rng = np.random.default_rng(11)
        hi = 1.0 - ref_pop.types[0].eps_b
        envs = [ref_eq.stats] + [aggregate(ref_pop, Strategy(rng.uniform(0.0, hi, (2, 7))), quad128) for _ in range(3)]
        for stats in envs:
            t = ref_pop.types[0]
            ctx = context_from_stats(t, stats, quad128)
            row = respond_type(t, ctx)
            for z, phi in zip(SIGNALS, row):
                f = signal_target(z, ctx)
                _, golden = maximize_concave_1d(f, admissible_interval(t, z))
                assert f(phi) >= golden - 1e-15

    def test_merton_exact_without_jumps(self, quad128):
        t = casestudy.investor(casestudy.default_market(lam=0.0), theta=0.0, weight=1.0)
        ctx = context_from_stats(t, aggregate(Population([t]), Strategy.constant(1, 0.3), quad128), quad128)
        assert respond_type(t, ctx) == pytest.approx(np.full(7, MERTON), abs=1e-12)

    @pytest.mark.parametrize(
        "market, kwargs",
        [
            ({"sigma_hat": 0.0}, {}),
            ({}, {"p_s": 0.999}),
            ({}, {"rho": 0.999}),
            ({}, {"rho": -0.999}),
            ({}, {"theta": 0.0}),
            ({}, {"theta": 1.0}),
            ({}, {"alpha": 0.999}),
            ({}, {"alpha": 1.001}),
        ],
    )
    def test_edge_inputs_give_admissible_rows(self, quad128, market, kwargs):
        t = casestudy.investor(casestudy.default_market(**market), weight=1.0, **kwargs)
        for env in (0.0, 0.5, 1.0 - t.eps_b):
            stats = aggregate(Population([t]), Strategy.constant(1, env), quad128)
            row = respond_type(t, context_from_stats(t, stats, quad128))
            assert np.all(np.isfinite(row))
            assert np.all(row >= 0.0) and np.all(row <= 1.0 - t.eps_b)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 20.0),
        kappa=st.floats(-0.1, 0.3),
        sigma=st.floats(0.0, 0.5),
        sigma0=st.floats(0.0, 0.5),
        kappa_hat=st.floats(-0.3, 0.3),
        sigma_hat=st.floats(0.0, 0.5),
        p_s=st.floats(0.0, 0.999),
        rho=st.floats(-0.999, 0.999),
        alpha=st.floats(0.2, 8.0),
        theta=st.floats(0.0, 1.0),
        eps_b=st.floats(1e-6, 0.5),
        env=st.floats(0.0, 1.0),
    )
    def test_property_rows_finite_and_admissible(
        self, quad128, lam, kappa, sigma, sigma0, kappa_hat, sigma_hat, p_s, rho, alpha, theta, eps_b, env
    ):
        market = MarketParams(0.0, kappa, sigma, sigma0, kappa_hat, sigma_hat, lam)
        t = InvestorType(1.0, market, p_s, rho, alpha, theta, 1.0, eps_b)
        if validate_investor(t):
            return
        stats = aggregate(Population([t]), Strategy.constant(1, env * (1.0 - eps_b)), quad128)
        row = respond_type(t, context_from_stats(t, stats, quad128))
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0) and np.all(row <= 1.0 - eps_b)

    def test_signal_rows_invariant_to_a_lifted_jump_factor(self, ref_pop, quad128, ref_eq):
        # Signal targets carry no drift, so scaling E by exp(1000) leaves their
        # maximizers; the first-order conditions must scale rows, not clip them.
        t = ref_pop.types[0]
        ctx = context_from_stats(t, ref_eq.stats, quad128)
        lifted = dataclasses.replace(ctx, env_jump_log=ctx.env_jump_log + 1000.0)
        signal_rows = [SIGNAL_INDEX[z] for z in NONZERO_SIGNALS]
        base, row = respond_type(t, ctx), respond_type(t, lifted)
        assert np.max(np.abs(row[signal_rows] - base[signal_rows])) <= 1e-12

    def test_row_unchanged_when_E_and_weights_trade_a_factor(self, ref_pop, quad128, ref_eq):
        # E*exp(700) with weights*exp(-700) is the same objective; its logs pass the cap.
        t = ref_pop.types[0]
        ctx = context_from_stats(t, ref_eq.stats, quad128)
        traded = dataclasses.replace(
            ctx, env_jump_log=ctx.env_jump_log + 700.0, row_weights=ctx.row_weights * np.exp(-700.0)
        )
        assert np.max(np.abs(respond_type(t, traded) - respond_type(t, ctx))) <= 1e-12

    def test_opt_tol_validated(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.zeros(2), quad128)
        with pytest.raises(ValueError):
            respond_type(ref_pop.types[0], ctx, 0.0)


def direct_nagent_context(i, types, table, q):
    """Peer aggregates and peer jump product by a direct loop over the peers."""
    me = types[i]
    n = len(types) - 1
    exponent = -me.theta * (1.0 - me.alpha) / n
    taupi = sigma0pi = sig2pi2 = 0.0
    peer_pow = np.ones_like(q.nodes)
    for j, t in enumerate(types):
        if j == i:
            continue
        m, row = t.market, table[j]
        pj0 = row[NONE_INDEX]
        taupi += (m.r + pj0 * (m.kappa - m.r) - 0.5 * (m.sigma**2 + m.sigma0**2) * pj0**2) / n
        sigma0pi += m.sigma0 * pj0 / n
        sig2pi2 += (m.sigma * pj0) ** 2 / n**2
        jump = eta(JumpLaw.from_market(m), q.nodes)
        mix = (1.0 - t.p_s) * (1.0 + pj0 * jump) ** exponent
        for z in NONZERO_SIGNALS:
            w = conditional_prob(z, q.nodes, t.rho)
            mix = mix + t.p_s * w * (1.0 + row[SIGNAL_INDEX[z]] * jump) ** exponent
        peer_pow = peer_pow * mix
    return taupi, sigma0pi, sig2pi2, peer_pow


class TestNAgentContext:
    def test_batched_contexts_match_direct_product(self, quad128):
        rng = np.random.default_rng(5)
        markets = [casestudy.default_market(sigma=s) for s in (0.0, 0.1)]
        types = [
            casestudy.investor(
                markets[k % 2],
                p_s=rng.uniform(0.0, 0.95),
                rho=rng.uniform(-0.9, 0.9),
                theta=rng.uniform(0.0, 1.0),
                alpha=rng.uniform(0.5, 5.0),
            )
            for k in range(5)
        ]
        table = rng.uniform(0.0, 0.99, size=(5, 7))
        for i in range(5):
            ctx = nagent_target_context(i, types, Strategy(table), quad128)
            taupi, sigma0pi, sig2pi2, peer_pow = direct_nagent_context(i, types, table, quad128)
            assert ctx.taupi_env == pytest.approx(taupi, abs=1e-13)
            assert ctx.sigma0pi_env == pytest.approx(sigma0pi, abs=1e-13)
            assert ctx.sig2pi2_env == pytest.approx(sig2pi2, abs=1e-13)
            assert np.max(np.abs(np.exp(ctx.env_jump_log) / peer_pow - 1.0)) <= 1e-13

    def test_sizeless_player_keeps_peer_jump_product(self, quad128):
        sizeless = casestudy.default_market(kappa_hat=0.0, sigma_hat=0.0)
        sized = casestudy.default_market(sigma_hat=0.3)
        types = [casestudy.investor(sizeless), casestudy.investor(sized, p_s=0.3), casestudy.investor(sized, rho=-0.4)]
        table = np.random.default_rng(7).uniform(0.0, 0.99, size=(3, 7))
        ctx = nagent_target_context(0, types, Strategy(table), quad128)
        peer_pow = direct_nagent_context(0, types, table, quad128)[3]
        assert np.max(np.abs(peer_pow - 1.0)) > 1e-3
        assert np.max(np.abs(np.exp(ctx.env_jump_log) / peer_pow - 1.0)) <= 1e-13

    def test_player_index_checked(self, quad128):
        types = [casestudy.investor(), casestudy.investor()]
        for i in (2, -1):
            with pytest.raises(IndexError):
                nagent_target_context(i, types, Strategy.zeros(2), quad128)
