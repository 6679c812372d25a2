import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signalmfg import casestudy, response
from signalmfg.meanfield import aggregate, wealth_diffusion
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
from signalmfg.quad import Quadrature
from signalmfg.response import (
    _LOG_CAP,
    DEFAULT_OPT_TOL,
    NewtonCapWarning,
    _contexts,
    _mf_environment,
    _nagent_contexts,
    _respond,
    best_response,
    best_response_nagent,
    context_from_stats,
    maximize_concave_1d,
    mf_target_context,
    nagent_target_context,
    relative_utility,
    respond_type,
    target_no_signal,
    target_signal,
)
from signalmfg.signals import conditional_prob, eta, jump_law

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
                target_signal(0.4, SIGNALS[-1 - SIGNAL_INDEX[z]], ctx), abs=1e-10
            )

    def test_posterior_weights_integrate_to_one(self, ref_pop, quad128):
        t = ref_pop.types[0]
        for z in NONZERO_SIGNALS:
            mass = quad128.weights @ conditional_prob(z, quad128.nodes, t.rho)
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
            assert out.position(0, z) == pytest.approx(out.position(0, SIGNALS[-1 - SIGNAL_INDEX[z]]), abs=1e-8)

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
    jump = eta(m, q.nodes)
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
                _, golden = maximize_concave_1d(f, admissible_interval(t))
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
    # Subnormal lam and sigma0: g'' of the signal rows underflows and the Newton quotient overflows to inf.
    @example(lam=2.225073858507e-311, kappa=0.25, sigma=0.0, sigma0=2.2250738585e-313, kappa_hat=0.0,
             sigma_hat=0.5, p_s=0.0, rho=0.0, alpha=0.5, theta=0.0, eps_b=0.5, env=0.0)
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

    def test_creeping_row_reaches_the_mpmath_root(self, quad128):
        # Iterate 73 of plain iteration for the sigma_hat = 4, alpha = 100 type.  Left of its
        # root (1.2e-5) the no-signal row's g' grows like phi^-100, so each Newton step is only
        # ~phi/100: unguarded, the row stopped at the step cap near 2.4e-7.
        t = casestudy.investor(casestudy.default_market(sigma_hat=4.0), alpha=100.0, weight=1.0)
        iterate = [7.374732961414661e-06, 8.109301003498402e-06, 8.789586080532213e-06, 1.2084072394462127e-05,
                   9.659288957397916e-06, 1.1076616338923155e-05, 5.141855186295251e-05]
        ctx = mf_context(Population([t]), Strategy([iterate]), quad128)
        row = respond_type(t, ctx)

        mp.mp.dps = 60
        weights, etas, env_logs = ([mp.mpf(float(v)) for v in a] for a in
                                   (ctx.row_weights[0, NONE_INDEX], ctx.eta_nodes[0], ctx.env_jump_log[0]))
        alpha, slope, curvature = (mp.mpf(float(v[0])) for v in (ctx.alpha, ctx.drift_slope, ctx.drift_curvature))

        def g1(phi):
            jumps = mp.fsum(w * e * mp.exp(el - alpha * mp.log1p(phi * e)) for w, e, el in zip(weights, etas, env_logs))
            return slope - curvature * phi + jumps

        lo, hi = (mp.mpf(float(v)) for v in ctx.bounds[0])
        assert g1(lo) > 0 > g1(hi)
        while hi - lo > 1e-14:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g1(mid) > 0 else (lo, mid)
        assert abs(row[NONE_INDEX] - float(lo)) <= DEFAULT_OPT_TOL
        assert float(lo) == pytest.approx(1.20907e-5, rel=1e-5)

    def test_row_at_the_step_cap_is_flagged(self, ref_pop, quad128, ref_eq, monkeypatch):
        monkeypatch.setattr(response, "_MAX_NEWTON", 2)
        with pytest.warns(NewtonCapWarning) as caught:
            _respond(mf_target_context(ref_pop.types, quad128, ref_eq.stats.sigma0pi_bar,
                                       ref_eq.stats.mean_jump_nodes, ref_eq.stats.taupi_bar), DEFAULT_OPT_TOL)
        messages = [str(w.message) for w in caught]
        assert "type 1, signal 0: best response stopped unconverged at the 2-step Newton cap" in messages

    def test_opt_tol_validated(self, ref_pop, quad128):
        ctx = mf_context(ref_pop, Strategy.zeros(2), quad128)
        with pytest.raises(ValueError):
            respond_type(ref_pop.types[0], ctx, 0.0)


def batch_types():
    """Reference, scaled-row (sigma_hat = 4, alpha = 100), jump-free, sizeless-jump,
    never-signalled and upper-endpoint (Merton fraction 6.7) types."""
    m = casestudy.default_market
    return [
        casestudy.investor(weight=1.0),
        casestudy.investor(m(sigma_hat=4.0), alpha=100.0, weight=1.0),
        casestudy.investor(m(lam=0.0), weight=1.0),
        casestudy.investor(m(sigma_hat=0.0), weight=1.0),
        casestudy.investor(p_s=0.0, weight=1.0),
        casestudy.investor(m(kappa=0.3), alpha=0.5, weight=1.0),
    ]


def batch_context(mode, types, stats, q, order=None):
    """One context for ``types`` (in ``order``, all of them by default) in either game mode."""
    order = list(range(len(types))) if order is None else order
    if mode == "mean-field":
        chosen = [types[i] for i in order]
        return mf_target_context(chosen, q, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
    env = Strategy(np.random.default_rng(5).uniform(0.0, 0.9, (len(types), len(SIGNALS))))
    return _nagent_contexts(types, env, q).take(order)


class TestBatchedRows:
    @pytest.mark.parametrize("mode", ["mean-field", "n-agent"])
    def test_batch_rows_equal_single_context_rows(self, quad128, ref_eq, mode):
        types = batch_types()
        ctx = batch_context(mode, types, ref_eq.stats, quad128)
        batch = _respond(ctx, DEFAULT_OPT_TOL).table
        backwards = list(range(len(types)))[::-1]
        reversed_batch = _respond(batch_context(mode, types, ref_eq.stats, quad128, backwards), DEFAULT_OPT_TOL)
        for i, (t, row, row_reversed) in enumerate(zip(types, batch, reversed_batch.table[::-1])):
            single = batch_context(mode, types, ref_eq.stats, quad128, [i])
            assert single.investors == (t,)
            assert row.tobytes() == respond_type(t, single).tobytes() == row_reversed.tobytes()

        # The batch holds a row scaled below the cap, flat rows and an endpoint optimum.
        hi = admissible_interval(types[1]).hi
        log_power = ctx.env_jump_log[1] - types[1].alpha * np.log1p(hi * ctx.eta_nodes[1])
        assert log_power.max() > _LOG_CAP
        assert ctx.jumps_degenerate.tolist() == [False, False, True, True, False, False]
        assert batch[-1, NONE_INDEX] == admissible_interval(types[-1]).hi

    def test_mean_field_batch_fields_equal_one_type_contexts(self, quad128, ref_eq):
        # Shared and distinct rho and jump laws: kernels and eta are built once per
        # distinct value and gathered, which must not change a bit of any field.
        m = casestudy.default_market
        types = batch_types() + [
            casestudy.investor(m(sigma_hat=4.0), rho=-0.3, weight=1.0),
            casestudy.investor(rho=-0.3, p_s=0.7, weight=1.0),
            casestudy.investor(m(sigma_hat=0.0), rho=0.9, weight=1.0),
        ]
        assert len({t.rho for t in types}) == 3
        assert len({jump_law(t.market) for t in types}) == 3
        stats = ref_eq.stats
        ctx = mf_target_context(types, quad128, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        assert ctx.investors == tuple(types)
        # Labels are numbered within a context: distinct types, distinct labels.
        assert ctx.static_class.tolist() == list(range(len(types)))
        for i, t in enumerate(types):
            single = context_from_stats(t, stats, quad128)
            assert single.static_class.tolist() == [0]
            for f in dataclasses.fields(ctx)[1:]:
                if f.name == "static_class":
                    continue
                batch_field, single_field = getattr(ctx, f.name), getattr(single, f.name)
                assert single_field.shape[0] == 1 and batch_field.shape[0] == len(types)
                assert batch_field[i].tobytes() == single_field[0].tobytes(), f.name

    def test_single_context_row_is_writable_and_type_checked(self, ref_pop, ref_eq, quad128):
        t = ref_pop.types[0]
        ctx = context_from_stats(t, ref_eq.stats, quad128)
        row = respond_type(t, ctx)
        row[0] = -1.0
        with pytest.raises(ValueError, match="another investor type"):
            respond_type(casestudy.investor(alpha=3.0), ctx)


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
        jump = eta(m, q.nodes)
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


class TestTakenContexts:
    """A context taken out of a larger one: before its environment is written, and with the larger one's labels."""

    def test_take_before_the_environment_is_the_one_type_context(self, quad128):
        types = batch_types()
        ctx = _contexts(types, quad128)
        for i, t in enumerate(types):
            taken, alone = ctx.take(i), _contexts([t], quad128)
            assert taken.investors == alone.investors == (t,)
            # Labels compare only within one context: the taken one keeps the larger context's label.
            assert taken.static_class.tolist() == [ctx.static_class[i]]
            for f in dataclasses.fields(alone)[1:]:
                a, b = getattr(taken, f.name), getattr(alone, f.name)
                if f.name == "static_class":
                    continue
                if b is None:
                    assert a is None
                else:
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("labels, newton_sizes", [([0, 5], [None]), ([2, 0, 0], [2])])
    def test_grouping_reads_distinct_labels_not_their_range(self, quad128, ref_eq, monkeypatch, labels, newton_sizes):
        # [0, 5] are distinct, so the Newton runs on the context itself; [2, 0, 0] repeat one investor, run once.
        stats = ref_eq.stats
        ctx = _contexts(batch_types(), quad128)
        taken = ctx.take(labels)
        assert taken.static_class.tolist() == labels
        env = _mf_environment(taken, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        contexts = []
        newton = response._newton
        monkeypatch.setattr(response, "_newton", lambda c, *a: contexts.append(c) or newton(c, *a))
        rows = _respond(env, DEFAULT_OPT_TOL).table
        assert [None if c is env else len(c.investors) for c in contexts] == newton_sizes
        assert rows.tobytes() == rows_one_by_one(env).tobytes()


def rows_one_by_one(ctx, start=None):
    """The oracle of the grouped Newton: each investor's context solved on its own, rows stacked."""
    starts = [None] * len(ctx.investors) if start is None else [start[i:i + 1] for i in range(len(ctx.investors))]
    return np.vstack([_respond(ctx.take(i), DEFAULT_OPT_TOL, s).table for i, s in enumerate(starts)])


def repeated_starts(n_investors, seed):
    """Warm starts drawn from two rows, so that equal investors sometimes share a start and sometimes do not."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.9, (2, len(SIGNALS)))[rng.integers(0, 2, n_investors)]


def all_players_environment(ctx, strat):
    """The n-agent environment with every player's log mixture evaluated, none shared: (sigma0pi, taupi,
    sig2pi2, log E) as ``_nagent_environment`` computed them before players were grouped."""
    n = len(ctx.investors) - 1
    drift, sigma_pi, sigma0pi = wealth_diffusion(ctx.investors, strat.table[:, NONE_INDEX])
    sig2pi2 = sigma_pi**2
    exponents = ctx.peer_exponent / n
    log_returns = np.log1p(strat.table[:, :, np.newaxis] * ctx.eta_raw[:, np.newaxis, :])
    peer_log = np.zeros(ctx.eta_raw.shape)
    for e in set(exponents) - {0.0}:
        terms = np.where(ctx.law > 0.0, e * log_returns, -np.inf)
        shift = terms.max(axis=1)
        log_mix = shift + np.log(np.sum(ctx.law * np.exp(terms - shift[:, np.newaxis]), axis=1))
        mine = exponents == e
        peer_log[mine] = log_mix.sum(axis=0) - log_mix[mine]
    env = ((sigma0pi.sum() - sigma0pi) / n, (drift.sum() - drift) / n, (sig2pi2.sum() - sig2pi2) / n**2)
    return (*env, np.where(ctx.jump_free[:, np.newaxis], 0.0, peer_log))


# Signal and preference blocks of a repeated type; theta may be -0.0, equal to 0.0 as an InvestorType field.
GROUP_KINDS = st.fixed_dictionaries({
    "p_s": st.floats(0.0, 0.999),
    "rho": st.floats(-0.999, 0.999),
    "alpha": st.floats(0.2, 8.0).filter(lambda a: abs(a - 1.0) >= 1e-3),
    "theta": st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
})


def zero_theta_twins():
    """The reference type with theta = 0.0 and -0.0: equal as types, apart in the sign of their peer exponent."""
    twins = [casestudy.investor(theta=0.0, weight=0.5), casestudy.investor(theta=-0.0, weight=0.5)]
    assert twins[0] == twins[1]
    return twins


class TestGroupedRows:
    """Investors with byte-equal contexts share one Newton and one peer mixture, bit for bit."""

    def test_zero_theta_twins_are_grouped_apart(self, quad128, ref_eq):
        types = zero_theta_twins() * 2
        stats = ref_eq.stats
        ctx = mf_target_context(types, quad128, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        assert ctx.static_class.tolist() == [0, 1, 0, 1]
        assert _respond(ctx, DEFAULT_OPT_TOL).table.tobytes() == rows_one_by_one(ctx).tobytes()
        start = np.repeat(ref_eq.strategy.table[:1], 4, axis=0)
        assert _respond(ctx, DEFAULT_OPT_TOL, start).table.tobytes() == rows_one_by_one(ctx, start).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        kinds=st.lists(GROUP_KINDS, min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=8),
        env=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_field_population_with_repeated_types(self, quad128, kinds, picks, env, seed):
        market = casestudy.default_market(sigma_hat=0.3)
        pool = [casestudy.investor(market, weight=1.0, **kind) for kind in kinds] + zero_theta_twins()
        types = [pool[i % len(pool)] for i in picks]
        stats = aggregate(Population(pool[:1]), Strategy.constant(1, env), quad128)
        ctx = mf_target_context(types, quad128, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        assert _respond(ctx, DEFAULT_OPT_TOL).table.tobytes() == rows_one_by_one(ctx).tobytes()
        start = repeated_starts(len(types), seed)
        assert _respond(ctx, DEFAULT_OPT_TOL, start).table.tobytes() == rows_one_by_one(ctx, start).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        kinds=st.lists(GROUP_KINDS, min_size=1, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=2, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_games_with_repeated_players(self, quad128, kinds, picks, seed):
        # A player is a (type, row) pick: repeated types may hold the same row or different ones.
        market = casestudy.default_market(sigma_hat=0.3)
        pool = [casestudy.investor(market, **kind) for kind in kinds] + zero_theta_twins()
        rows = np.random.default_rng(seed).uniform(0.0, 0.9, (3, len(SIGNALS)))
        types = [pool[k % len(pool)] for k, _ in picks]
        strat = Strategy(rows[[r for _, r in picks]])
        ctx = _nagent_contexts(types, strat, quad128)
        assert _respond(ctx, DEFAULT_OPT_TOL).table.tobytes() == rows_one_by_one(ctx).tobytes()
        # Warm-started at the strategy whose environment the context holds, as the solvers do.
        warm = _respond(ctx, DEFAULT_OPT_TOL, strat.table).table
        assert warm.tobytes() == rows_one_by_one(ctx, strat.table).tobytes()
        expected = all_players_environment(ctx, strat)
        actual = (ctx.sigma0pi_env, ctx.taupi_env, ctx.sig2pi2_env, ctx.env_jump_log)
        assert [a.tobytes() for a in actual] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("lam, sigma_hat", [(4.0, 3.0), (20.0, 3.0)])
    def test_peer_mixture_of_repeated_players_is_the_all_players_sum(self, quad128, lam, sigma_hat):
        # alpha = 60 players' peer factor (1 + pi*eta)^59 passes the double range at tail nodes; its log does not.
        market = casestudy.default_market(lam=lam, sigma_hat=sigma_hat)
        bold = casestudy.investor(market, alpha=60.0, theta=1.0, p_s=0.0, rho=0.0)
        plain = casestudy.investor(market, alpha=2.0, theta=0.0, p_s=0.9, rho=0.9)
        signalled = casestudy.investor(market, alpha=59.5, theta=1.0, p_s=0.5, rho=0.3)
        types = [bold, plain, bold, signalled, bold, plain, signalled]
        table = np.random.default_rng(11).uniform(0.0, 0.9, (len(types), len(SIGNALS)))
        table[2] = table[0]  # two of the three bold players share a row
        table[6] = table[3]
        strat = Strategy(table)
        ctx = _nagent_contexts(types, strat, quad128)
        expected = all_players_environment(ctx, strat)
        assert np.isfinite(expected[-1]).all() and np.abs(expected[-1]).max() > 700.0
        actual = (ctx.sigma0pi_env, ctx.taupi_env, ctx.sig2pi2_env, ctx.env_jump_log)
        assert [a.tobytes() for a in actual] == [e.tobytes() for e in expected]
