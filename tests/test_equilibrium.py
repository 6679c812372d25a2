import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg import casestudy, cli, equilibrium, meanfield, response
from signalmfg.equilibrium import (
    SolverConfig,
    _solve_mf_many,
    _statistic_box,
    damped_fixed_point,
    residual,
    solve_mf_finite,
    solve_mf_statistic,
    solve_nagent,
)
from signalmfg.meanfield import aggregate
from signalmfg.metrics import M_mf, M_nagent, _value_constant
from signalmfg.model import (
    NONE_INDEX,
    NONZERO_INDEX,
    SIGNALS,
    Population,
    Signal,
    Strategy,
    strategy_distance,
    validate_investor,
    validate_population,
)
from signalmfg.quad import Quadrature
from signalmfg.response import (
    DEFAULT_OPT_TOL,
    _contexts,
    _nagent_contexts,
    _respond,
    best_response_nagent,
    context_from_stats,
    mf_target_context,
)

MERTON = 4.0 / 9.0
# The finite common-mark law of acceptance 11 (cross-solver oracle).
MARKS_11 = [(-1.0, 0.25), (0.0, 0.5), (1.5, 0.25)]


def merton_pop():
    m = casestudy.default_market(lam=0.0)
    return Population([casestudy.investor(m, theta=0.0), casestudy.investor(m, theta=0.0)])


class TestDampedFixedPoint:
    def test_stalled_map_is_reported_and_damping_is_the_remedy(self):
        # The residual is exactly 1 within 1/4 of every integer and 0 at the half-integers.
        # Full steps from 0 hop from integer to integer: the residual differences Anderson
        # extrapolates from vanish, so the residual never improves; half steps land on 0.5.
        step = lambda x: x + np.minimum(1.0, 4.0 * np.abs(x - np.floor(x) - 0.5))
        _, res, iters, notes = damped_fixed_point(step, np.array([0.0]), tol=1e-10, max_iter=500, damping=1.0)
        assert (iters, res) == (500, 1.0)
        assert len(notes) == 1 and notes[0].startswith("did not converge within 500 iterations")
        point, res, _, notes = damped_fixed_point(step, np.array([0.0]), tol=1e-10, max_iter=500, damping=0.5)
        assert point[0] == pytest.approx(0.5, abs=1e-9)
        assert res < 1e-10 and notes == ()

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

    def test_iterates_stay_in_the_box(self):
        # The fixed point (1, 0.375) sits on the box edge, and the extrapolation overshoots it.
        def run(box):
            seen = []

            def step(x):
                seen.append(x.copy())
                return np.array([1.0 - 0.5 * (1.0 - x[0]) ** 2, 0.3 + 0.2 * x[1]])

            point, res, _, _ = damped_fixed_point(step, np.zeros(2), tol=1e-12, max_iter=100, damping=1.0, box=box)
            return np.array(seen), point, res

        unclipped, _, _ = run((-np.inf, np.inf))
        assert unclipped.max() > 1.1
        seen, point, res = run((np.zeros(2), np.ones(2)))
        assert np.all((seen >= 0.0) & (seen <= 1.0))
        assert point == pytest.approx([1.0, 0.375], abs=1e-12) and res < 1e-12

    def test_linear_map_converges_in_three_iterations(self):
        # Two residual differences span the plane, so the third iterate is the fixed point.
        a, b = np.array([[0.5, 0.2], [0.1, 0.3]]), np.array([1.0, -1.0])
        point, res, iters, notes = damped_fixed_point(
            lambda x: a @ x + b, np.zeros(2), tol=1e-12, max_iter=100, damping=1.0
        )
        assert iters <= 3 and res < 1e-12 and notes == ()
        assert point == pytest.approx(np.linalg.solve(np.eye(2) - a, b), abs=1e-12)


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

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, float("nan")])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon must be > 0"):
            SolverConfig(horizon=horizon)

    @pytest.mark.parametrize(
        "name, value",
        [("tol", np.inf), ("opt_tol", np.inf), ("opt_tol", np.nan), ("opt_tol", 0.0), ("max_iter", 2.5),
         ("max_iter", True)],
    )
    def test_config_rejects_non_finite_tolerance_and_non_integer_max_iter(self, name, value):
        # A non-finite tolerance lets the zero start pass as converged; max_iter counts iterations.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize(
        "field, value",
        [("x0", np.inf), ("alpha", np.inf), ("lam", np.nan), ("lam", np.inf), ("sigma_hat", np.nan),
         ("kappa_hat", np.inf), ("kappa", np.nan), ("r", np.inf), ("sigma", np.inf)],
    )
    def test_non_finite_investor_rejected(self, quad128, field, value):
        if field in ("x0", "alpha"):
            t = casestudy.investor(weight=1.0, **{field: value})
        else:
            t = casestudy.investor(casestudy.default_market(**{field: value}), weight=1.0)
        assert any(f"{field} must be" in v for v in validate_investor(t))
        with pytest.raises(ValueError, match="invalid population"):
            solve_mf_finite(Population([t]), quad128)
        with pytest.raises(ValueError, match="invalid players"):
            solve_nagent([t, t], quad128)


# Single types that validate_investor accepts and whose jump factor
# E*(1 + phi*eta)^-alpha overflows at tail nodes; each made the solve raise
# "non-finite first-order condition" before that product was formed in logs.
# All five converge under the default SolverConfig; the first and fourth stalled
# near 1e-6 while a best-response Newton row crept into the step cap unconverged.
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

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
    def test_converged_extreme_types_do_not_clip_M(self, quad128, index):
        market, kwargs = EXTREME_TYPES[index]
        t = casestudy.investor(casestudy.default_market(**market), weight=1.0, **kwargs)
        result = assert_finite_solve(t, quad128)
        assert result.converged and not result.notes
        assert not _value_constant(context_from_stats(t, result.stats, quad128), [result.strategy.row(0)])[1]

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

    def test_drawn_solves_converge_at_default_settings(self):
        # One iteration path suffices: 40 populations of 1-5 types and 10 games of 2-7 distinct players,
        # drawn over validate_investor's ranges, every one solved at the default SolverConfig.
        rng = np.random.default_rng(0)
        q = Quadrature.standard_normal(64)

        def drawn_types(count):
            market = casestudy.default_market(lam=float(rng.choice([0.0, 1.0, 10.0, 20.0])),
                                              sigma_hat=float(rng.uniform(0.0, 4.0)),
                                              kappa_hat=float(rng.uniform(-0.5, 0.5)))
            alphas = np.exp(rng.uniform(np.log(0.1), np.log(100.0), count))
            alphas[np.abs(alphas - 1.0) < 1e-3] = 2.0
            shares = rng.uniform(0.1, 1.0, count)
            return [casestudy.investor(market, x0=float(np.exp(rng.uniform(-0.7, 0.7))),
                                       p_s=float(rng.uniform(0.0, 0.99)), rho=float(rng.uniform(-0.99, 0.99)),
                                       theta=float(rng.uniform(0.0, 1.0)), alpha=float(a),
                                       weight=float(share / shares.sum()))
                    for a, share in zip(alphas, shares)]

        populations = [Population(drawn_types(int(rng.integers(1, 6)))) for _ in range(40)]
        games = [drawn_types(int(rng.integers(2, 8))) for _ in range(10)]
        assert not [problem for pop in populations for problem in validate_population(pop)]
        results = [solve_mf_finite(pop, q) for pop in populations] + [solve_nagent(game, q) for game in games]
        assert [r.notes for r in results if not r.converged] == []


OVERFLOW_NOTE = "type 0: value exp(T(1-alpha)M) overflows double; use per_type_M"


class TestNewtonCapNotes:
    def test_capped_rows_are_named_in_the_result(self, ref_pop, quad128, monkeypatch):
        monkeypatch.setattr(response, "_MAX_NEWTON", 2)
        result = solve_mf_finite(ref_pop, quad128, SolverConfig(max_iter=3))
        capped = [n for n in result.notes if "Newton cap" in n]
        assert capped and len(capped) == len(set(capped))
        assert "type 0, signal 0: best response stopped unconverged at the 2-step Newton cap" in capped


# The benchmark's sweep grids (perfbench/workloads.py).
BENCHMARK_GRIDS = {
    "p_s_B": (0.0, 0.25, 0.5, 0.75, 1.0),
    "rho_B": (-0.9, -0.45, 0.0, 0.45, 0.9),
    "theta_B": (0.0, 0.25, 0.5, 0.75, 1.0),
}


class TestIterationCounts:
    """Anderson acceleration: at most 6 best responses per solve (plain iteration took 9-16)."""

    def test_reference_solve(self, ref_eq):
        assert ref_eq.converged and ref_eq.iterations <= 6 and not ref_eq.notes

    @pytest.mark.parametrize("parameter", list(BENCHMARK_GRIDS))
    def test_benchmark_sweep_grids(self, parameter):
        config = cli.load_config({"sweep": {"parameter": parameter, "grid": BENCHMARK_GRIDS[parameter]}})
        rows, _ = cli.run_experiment(config)
        assert all(row["converged"] for row in rows)
        assert max(row["iterations"] for row in rows) <= 6

    @pytest.mark.parametrize("players", [
        [casestudy.investor()] * 5,
        [casestudy.investor()] * 20,
        [casestudy.investor()] * 80,
        [casestudy.investor()] * 2 + [casestudy.investor(p_s=0.25)] * 2,
    ], ids=["n5", "n20", "n80", "two-group"])
    def test_benchmark_games(self, quad128, players):
        result = solve_nagent(players, quad128)
        assert result.converged and result.iterations <= 6


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

    def test_statistic_result_M(self):
        pop = casestudy.reference_population()
        result = solve_mf_statistic(pop, MARKS_11)
        assert result.converged
        q = Quadrature.discrete([m for m, _ in MARKS_11], [p for _, p in MARKS_11])
        for i, t in enumerate(pop.types):
            assert result.per_type_M[i] == M_mf(t, result.strategy.row(i), result.stats, q)


def extreme_equilibrium(index, q):
    """``EXTREME_TYPES[index]``, its solved equilibrium and the one-investor context of its environment."""
    market, kwargs = EXTREME_TYPES[index]
    t = casestudy.investor(casestudy.default_market(**market), weight=1.0, **kwargs)
    result = solve_mf_finite(Population([t]), q)
    return t, result, context_from_stats(t, result.stats, q)


def assert_warm_rows_are_cold_rows(ctx, iterate, rng):
    """From starts at lo, lo + 1e-12, hi, the iterate and random points, every row is the cold (midpoint-started)
    row within opt_tol, and a row whose g' points out of its interval at a bound is that bound exactly."""
    lo, hi = (np.repeat(end[:, np.newaxis], len(SIGNALS), axis=1) for end in ctx.bounds.T)
    terms = response._first_order_terms(ctx)
    g_lo, g_hi = (response._derivatives(end.ravel(), *terms)[0].reshape(end.shape) for end in (lo, hi))
    own = np.ones(lo.shape, dtype=bool)
    own[:, NONZERO_INDEX] = ~ctx.jumps_degenerate[:, np.newaxis]  # degenerate signal rows copy the no-signal row
    at_lo, at_hi = own & (g_lo < 0.0), own & (g_hi > 0.0)
    cold = _respond(ctx, DEFAULT_OPT_TOL).table
    for start in (None, lo, lo + 1e-12, hi, iterate, rng.uniform(lo, hi), rng.uniform(lo, hi)):
        warm = _respond(ctx, DEFAULT_OPT_TOL, start).table
        assert np.max(np.abs(warm - cold)) <= DEFAULT_OPT_TOL
        assert np.array_equal(warm[at_lo], lo[at_lo]) and np.array_equal(warm[at_hi], hi[at_hi])


class TestWarmStart:
    """Best responses start at the iterate's rows; each row stops only on a certificate, so the start moves no
    row by more than opt_tol."""

    @pytest.mark.parametrize("index", range(len(EXTREME_TYPES)))
    def test_extreme_equilibrium_environments(self, quad128, index):
        _, result, ctx = extreme_equilibrium(index, quad128)
        assert_warm_rows_are_cold_rows(ctx, result.strategy.table, np.random.default_rng(index))

    # Jump sizes either absent or at least 1e-3: for sigma_hat -> 0 a signal row's g' is of order sigma_hat^2
    # against terms of order sigma_hat, so rounding alone places its root within about 2e-16/(alpha*sigma_hat),
    # and no start-independent answer exists below that (sigma_hat = 2e-16 moved a row by 1e-3).
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 20.0),
        sigma_hat=st.just(0.0) | st.floats(1e-3, 4.0),
        kind=TYPE_PARAMETERS,
        env=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_types_and_environments(self, quad128, lam, sigma_hat, kind, env, seed):
        t = casestudy.investor(casestudy.default_market(lam=lam, sigma_hat=sigma_hat), weight=1.0, **kind)
        iterate = Strategy.constant(1, env * (1.0 - t.eps_b))
        ctx = context_from_stats(t, aggregate(Population([t]), iterate, quad128), quad128)
        assert_warm_rows_are_cold_rows(ctx, iterate.table, np.random.default_rng(seed))

    @pytest.mark.parametrize("start", [0.0, 1e-12])
    @pytest.mark.parametrize("index", [0, 3])
    def test_a_short_newton_step_is_no_certificate(self, quad128, index, start):
        # Where g'' is huge, Newton from 0 or 1e-12 moves by less than opt_tol, 5e-5 to 1e-3 short of the
        # maximizer; stopping there gave a false fixed point reported as converged with M = -1.4e136.
        t, result, ctx = extreme_equilibrium(index, quad128)
        cold = _respond(ctx, DEFAULT_OPT_TOL).table
        warm = _respond(ctx, DEFAULT_OPT_TOL, np.full_like(cold, start)).table
        assert np.max(np.abs(cold - start)) > 1e-5
        assert np.max(np.abs(warm - cold)) <= DEFAULT_OPT_TOL
        assert result.converged and -1.0 < result.per_type_M[0] < 0.0


class TestWorkCounts:
    """Warm starts and a node kernel built once per solve, counted."""

    def test_derivative_evaluations_per_reference_solve(self, ref_pop, quad128, monkeypatch):
        # Cold best responses took 2 endpoint evaluations and 4 Newton steps each: 30 in 4 iterations.
        calls = []
        derivatives = response._derivatives
        monkeypatch.setattr(response, "_derivatives", lambda *args: calls.append(1) or derivatives(*args))
        result = solve_mf_finite(ref_pop, quad128)
        assert result.converged and result.iterations == 4
        assert len(calls) <= 20

    @pytest.mark.parametrize(
        "solve",
        [lambda pop, q: solve_mf_finite(pop, q), lambda pop, q: solve_mf_statistic(pop, MARKS_11)],
        ids=["mf_finite", "mf_statistic"],
    )
    def test_no_node_kernel_built_by_the_mean_field_iteration(self, solve, ref_pop, quad128, monkeypatch):
        # aggregate builds its node law through meanfield.signal_laws; the mean jump evaluator streams its mark law
        # through meanfield.law_rows, once per block of marks.
        calls = []
        for name in ("signal_laws", "law_rows"):
            build = getattr(meanfield, name)
            monkeypatch.setattr(meanfield, name, lambda *args, build=build: calls.append(args) or build(*args))
        result = solve(ref_pop, quad128)
        assert result.converged and result.iterations > 1
        assert not calls
        result.stats.mean_jump(0.5)
        assert len(calls) == 1


class TestOneEvaluation:
    """Work that each solve does once: no aggregate beside the mean field, one log return table per result."""

    def test_statistic_solve_calls_no_aggregate(self, count_calls):
        # Its rounds, start and box read the strategy solvers' mean field, never a MeanFieldStats per call.
        calls = count_calls(meanfield, "aggregate")
        result = solve_mf_statistic(casestudy.reference_population(), MARKS_11)
        assert result.converged and not calls

    @pytest.mark.parametrize("solve", [
        lambda q: solve_mf_finite(casestudy.reference_population(), q),
        lambda q: solve_nagent(casestudy.reference_population().types, q),
        lambda q: solve_mf_statistic(casestudy.reference_population(), MARKS_11),
    ], ids=["mf_finite", "nagent", "mf_statistic"])
    def test_M_and_its_clip_flag_from_one_log_return_table(self, solve, quad128, count_calls):
        calls = count_calls(response, "_log_scaled_returns")
        result = solve(quad128)
        assert result.converged and len(calls) == 1


class TestInitChecked:
    """Every solver checks ``init`` alike: its row count, then each position against its interval."""

    @pytest.mark.parametrize("solve", [
        lambda pop, cfg: solve_mf_finite(pop, Quadrature.standard_normal(16), cfg),
        lambda pop, cfg: solve_nagent(pop.types, Quadrature.standard_normal(16), cfg),
        lambda pop, cfg: solve_mf_statistic(pop, MARKS_11, cfg),
    ], ids=["mf_finite", "nagent", "mf_statistic"])
    @pytest.mark.parametrize("row, column, value, message", [
        (2, 0, 0.2, "init strategy has 3 rows, expected 2"),
        (1, 3, 1.0, "inadmissible position 1.0 for type 1, signal 0: allowed [0.0, 0.999999]"),
        (1, 5, np.nan, "inadmissible position nan for type 1, signal +1: allowed [0.0, 0.999999]"),
    ], ids=["rows", "one", "nan"])
    def test_bad_init_raises_one_message(self, solve, row, column, value, message):
        table = np.full((max(row + 1, 2), 7), 0.2)
        table[row, column] = value
        with pytest.raises(ValueError) as error:
            solve(casestudy.reference_population(), SolverConfig(init=Strategy(table)))
        assert str(error.value) == message


class TestGroupedValues:
    """M and its clip flag are evaluated once per distinct (static class, environment, row), bit for bit the
    per-player values."""

    @pytest.mark.parametrize("players", [
        [casestudy.investor()] * 20,
        [casestudy.investor()] * 2 + [casestudy.investor(p_s=0.25)] * 2,
        [casestudy.investor(theta=0.0), casestudy.investor(theta=-0.0)] * 2,
    ], ids=["n20", "two-group", "zero-theta-twins"])
    def test_nagent(self, quad128, players):
        result = solve_nagent(players, quad128)
        ctx = _nagent_contexts(players, result.strategy, quad128)
        per_player, clips = _value_constant(ctx, result.strategy.table)
        assert result.converged and np.array(result.per_type_M).tobytes() == per_player.tobytes()
        assert not clips.any()

    def test_mean_field(self, ref_pop, quad128, ref_eq):
        stats = ref_eq.stats
        ctx = mf_target_context(ref_pop.types, quad128, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        per_type = _value_constant(ctx, ref_eq.strategy.table)[0]
        assert np.array(ref_eq.per_type_M).tobytes() == per_type.tobytes()

    def test_markets_with_one_excess_return(self, quad128):
        # kappa - r is byte-equal, so the two types have the same rows, but M reads theta*r: they differ by theta/8.
        pop = Population([
            casestudy.investor(casestudy.default_market(kappa=0.125, r=0.0)),
            casestudy.investor(casestudy.default_market(kappa=0.25, r=0.125)),
        ])
        result = solve_mf_finite(pop, quad128)
        stats = result.stats
        ctx = mf_target_context(pop.types, quad128, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
        per_type = _value_constant(ctx, result.strategy.table)[0]
        assert result.converged and np.array(result.per_type_M).tobytes() == per_type.tobytes()
        assert result.strategy.table[0].tobytes() == result.strategy.table[1].tobytes()
        assert per_type[1] - per_type[0] == pytest.approx(0.5 * 0.125)


class TestContextBuiltOnce:
    """A solve builds its investors' signal laws once; each iteration writes only the environment."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda q: solve_mf_finite(casestudy.reference_population(), q),
            lambda q: solve_nagent([casestudy.investor()] * 5, q),
            lambda q: solve_mf_statistic(casestudy.reference_population(), MARKS_11),
        ],
        ids=["mf_finite", "nagent", "mf_statistic"],
    )
    def test_one_signal_law_build_per_solve(self, solve, quad128, monkeypatch):
        # Counts the context builder's tables; a solver's mean field reads them off its context.
        calls = []
        build = response.signal_laws
        monkeypatch.setattr(response, "signal_laws", lambda *args: calls.append(args) or build(*args))
        result = solve(quad128)
        assert result.converged and result.iterations > 1
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "solve, result_writes",
        [
            (lambda q: solve_mf_finite(casestudy.reference_population(), q), 0),
            (lambda q: solve_nagent([casestudy.investor()] * 5, q), 0),
            # The statistic solve's image is a statistic: its result writes the final best response's environment.
            (lambda q: solve_mf_statistic(casestudy.reference_population(), MARKS_11), 1),
        ],
        ids=["mf_finite", "nagent", "mf_statistic"],
    )
    def test_one_environment_build_per_best_response(self, solve, result_writes, quad128, count_calls):
        # Each round writes one environment, for its best response, and no image or start writes another.
        writes, responses = count_calls(response, "_with_environment"), count_calls(equilibrium, "_best_rows")
        result = solve(quad128)
        assert result.converged and len(responses) == result.iterations + 1
        assert len(writes) == len(responses) + result_writes

    def test_distinct_investors_are_not_regrouped(self, quad128, monkeypatch):
        # Every sweep alternative population has distinct types: no context is sliced into representatives.
        calls = []
        take = response.TargetContext.take
        monkeypatch.setattr(response.TargetContext, "take", lambda ctx, index: calls.append(index) or take(ctx, index))
        pop = Population([casestudy.investor(weight=0.5), casestudy.investor(p_s=0.25, weight=0.5)])
        result = solve_mf_finite(pop, quad128)
        assert result.converged and result.iterations > 1
        assert not calls

    @pytest.mark.parametrize("players, distinct", [
        ([casestudy.investor()] * 20, 1),
        ([casestudy.investor()] * 2 + [casestudy.investor(p_s=0.25)] * 2, 2),
    ], ids=["n20", "two-group"])
    def test_one_newton_row_per_distinct_player(self, players, distinct, quad128, monkeypatch):
        # Identical players face identical peers: each best response solves one of each.
        sizes = []
        newton = response._newton
        monkeypatch.setattr(response, "_newton", lambda ctx, *a: sizes.append(len(ctx.investors)) or newton(ctx, *a))
        result = solve_nagent(players, quad128)
        assert result.converged and result.iterations > 1
        assert len(sizes) > result.iterations and set(sizes) == {distinct}


def assert_same_result(lockstep, alone):
    """Byte for byte: strategy, residual, iterations, M, values, statistic and notes."""
    def numbers(r):
        stats = r.stats
        return np.array([r.residual, *r.per_type_M, *r.per_type_value, stats.sigma0pi_bar, stats.taupi_bar,
                         stats.xbar0, *stats.mean_jump_nodes]).tobytes()

    assert lockstep.strategy.table.tobytes() == alone.strategy.table.tobytes()
    assert numbers(lockstep) == numbers(alone)
    assert (lockstep.iterations, lockstep.converged, lockstep.notes) == (alone.iterations, alone.converged, alone.notes)


def sweep_populations(parameter, grid):
    cfg = cli.load_config({"sweep": {"parameter": parameter, "grid": grid}})
    return [cfg.reference, *(cli._alternative(cfg, value)[0] for value in grid)]


def envious_type(weight=1.0):
    """The weakly contracting type of ``EXTREME_TYPES``: 19 iterations alone."""
    market, kwargs = EXTREME_TYPES[3]
    return casestudy.investor(casestudy.default_market(**market), weight=weight, **kwargs)


class TestLockstep:
    """A sweep's populations iterate together, one best response per round, each as if solved alone."""

    @pytest.mark.parametrize("parameter", list(BENCHMARK_GRIDS))
    def test_benchmark_grids_equal_solo_solves(self, quad128, parameter):
        pops = sweep_populations(parameter, BENCHMARK_GRIDS[parameter])
        for lockstep, pop in zip(_solve_mf_many(pops, quad128, SolverConfig()), pops):
            assert_same_result(lockstep, solve_mf_finite(pop, quad128))

    def test_populations_that_stop_at_different_iterations(self, quad128):
        # 4 and 5 iterations beside one that hits max_iter; the populations hold 2, 1 and 2 types.
        cfg = SolverConfig(max_iter=10)
        pops = [casestudy.reference_population(), Population([envious_type()]),
                casestudy.alternative_population(p_s_b=0.25, rho_b=0.8)]
        results = _solve_mf_many(pops, quad128, cfg)
        assert [r.iterations for r in results] == [4, 10, 5]
        assert [r.converged for r in results] == [True, False, True]
        assert "did not converge within 10 iterations" in results[1].notes[0]
        for lockstep, pop in zip(results, pops):
            assert_same_result(lockstep, solve_mf_finite(pop, quad128, cfg))

    def test_newton_cap_notes_name_the_populations_own_investors(self, quad128, monkeypatch):
        # At an 8-step cap the reference rows converge (they take at most 5) and the envious type's rows cap.
        monkeypatch.setattr(response, "_MAX_NEWTON", 8)
        pops = [casestudy.reference_population(), Population([casestudy.investor(), envious_type(0.5)])]
        results = _solve_mf_many(pops, quad128, SolverConfig(max_iter=3))
        capped = [[n for n in r.notes if "Newton cap" in n] for r in results]
        assert capped[0] == []
        assert capped[1] and all(n.startswith("type 1, signal ") for n in capped[1])
        for lockstep, pop in zip(results, pops):
            assert_same_result(lockstep, solve_mf_finite(pop, quad128, SolverConfig(max_iter=3)))

    @pytest.mark.parametrize("parameter", list(BENCHMARK_GRIDS))
    def test_derivative_evaluations_per_sweep(self, parameter, monkeypatch):
        # Solved one population at a time, the three grids took 110, 104 and 107 evaluations.
        calls = []
        derivatives = response._derivatives
        monkeypatch.setattr(response, "_derivatives", lambda *args: calls.append(1) or derivatives(*args))
        rows, _ = cli.run_experiment(cli.load_config({"sweep": {"parameter": parameter,
                                                                "grid": BENCHMARK_GRIDS[parameter]}}))
        assert all(row["converged"] for row in rows)
        assert len(calls) <= 25

    def test_a_grid_point_equal_to_the_reference_keeps_ce_one(self):
        # theta_B = 0.5 is the reference population: it iterates beside the reference, to the same bits.
        cfg = cli.load_config({"sweep": {"parameter": "theta_B", "grid": BENCHMARK_GRIDS["theta_B"]}})
        rows, notes = cli.run_experiment(cfg)
        middle = rows[2]
        assert middle["sweep_value"] == 0.5 and middle["certainty_equivalent"] == 1.0
        assert middle["M_A_alt"] == middle["M_A_ref"] and middle["residual_alt"] == middle["residual_ref"]
        assert f"reference: residual={middle['residual_ref']:.3e} iterations={middle['iterations']}" == notes[0]

    def test_populations_are_keyed_by_bytes(self, quad128, monkeypatch):
        # theta = -0.0 equals 0.0 as a type field.  A repeated population gets the bits of its first copy and
        # adds no Newton row; the -0.0 population's type B has rows of its own.
        zero, negative_zero = (casestudy.alternative_population(theta_b=theta) for theta in (0.0, -0.0))
        assert zero == negative_zero
        rows = count_newton_rows(monkeypatch)

        def solve(pops):
            rows.clear()
            return _solve_mf_many(pops, quad128, SolverConfig()), sum(rows)

        results, with_repeat = solve([zero, negative_zero, zero])
        assert with_repeat == solve([zero, negative_zero])[1] > solve([zero])[1]
        assert_same_result(results[2], results[0])
        for lockstep, pop in zip(results, (zero, negative_zero, zero)):
            assert_same_result(lockstep, solve_mf_finite(pop, quad128))

    @pytest.mark.parametrize("parameter, newton_rows, derivative_calls", [("theta_B", 287, 20), ("p_s_B", 343, 19)],
                             ids=["theta_B", "p_s_B"])
    def test_the_reference_grid_point_adds_no_newton_work(self, parameter, newton_rows, derivative_calls, monkeypatch):
        # The 0.5 point's investors share every round's Newton rows with the reference's (response._best_rows).
        rows, calls, work = count_newton_rows(monkeypatch), [], []
        derivatives = response._derivatives
        monkeypatch.setattr(response, "_derivatives", lambda *args: calls.append(1) or derivatives(*args))
        for grid in (BENCHMARK_GRIDS[parameter], [v for v in BENCHMARK_GRIDS[parameter] if v != 0.5]):
            rows.clear()
            calls.clear()
            cli.run_experiment(cli.load_config({"sweep": {"parameter": parameter, "grid": grid}}))
            work.append((sum(rows), len(calls)))
        assert work == [(newton_rows, derivative_calls)] * 2


def count_newton_rows(monkeypatch):
    """A list that gets, per ``response._newton`` call, the number of (investor, signal) rows it solves."""
    rows, newton = [], response._newton
    monkeypatch.setattr(response, "_newton", lambda ctx, opt_tol, start: rows.append(start.size)
                        or newton(ctx, opt_tol, start))
    return rows


def lockstep_populations():
    """Populations of 1-3 types: mixed rho, a sizeless type beside sized ones, a jump-free market, theta in
    {0, -0.0, 1}, and the weakly contracting type, which iterates on after the others stop."""
    m = casestudy.default_market
    return [
        Population([casestudy.investor(weight=1.0)]),
        Population([casestudy.investor(rho=0.3, weight=0.25), casestudy.investor(rho=-0.6, p_s=0.7, weight=0.25),
                    casestudy.investor(rho=0.9, theta=1.0, weight=0.5)]),
        Population([casestudy.investor(m(kappa_hat=0.0, sigma_hat=0.0), weight=0.5),
                    casestudy.investor(m(sigma_hat=0.3), rho=0.8, weight=0.5)]),
        Population([casestudy.investor(m(lam=0.0), weight=0.5), casestudy.investor(m(lam=0.0), p_s=0.2, weight=0.5)]),
        Population([casestudy.investor(theta=0.0, weight=0.25), casestudy.investor(theta=-0.0, weight=0.25),
                    casestudy.investor(theta=1.0, weight=0.5)]),
        Population([envious_type(0.5), casestudy.investor(weight=0.5)]),
    ]


class TestBatchedRounds:
    """One round builds every live population's environment from one node mixture; each result is the solo
    solve's, byte for byte."""

    @pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)], ids=["forward", "backward"])
    def test_mixed_populations_equal_solo_solves(self, quad128, order):
        pops = lockstep_populations()[order]
        results = _solve_mf_many(pops, quad128, SolverConfig())
        assert len({r.iterations for r in results}) > 2  # populations stop in different rounds
        for lockstep, pop in zip(results, pops):
            assert_same_result(lockstep, solve_mf_finite(pop, quad128))

    def test_a_nan_image_raises_as_the_solo_solve(self, quad128, monkeypatch):
        # A best response of NaN for the p_s = 0.7 type: the next round's admissibility check names that
        # type by its index in its own population, as the population's solve alone does.
        best_rows = equilibrium._best_rows

        def poisoned(ctx, *args):
            rows, stopped = best_rows(ctx, *args)
            return np.where(np.array([[t.p_s == 0.7] for t in ctx.investors]), np.nan, rows), stopped

        monkeypatch.setattr(equilibrium, "_best_rows", poisoned)
        pops = lockstep_populations()
        with pytest.raises(ValueError) as alone:
            solve_mf_finite(pops[1], quad128)
        with pytest.raises(ValueError) as lockstep:
            _solve_mf_many(pops, quad128, SolverConfig())
        assert str(alone.value).startswith("inadmissible position nan for type 1, signal -inf")
        assert str(lockstep.value) == str(alone.value)

    @pytest.mark.parametrize("parameter", list(BENCHMARK_GRIDS))
    def test_one_environment_per_round_in_a_sweep(self, parameter, monkeypatch):
        # The per-population path ran aggregate and the context writer once per population per round.
        rounds, environments, aggregates = [], [], []
        for module, name, calls in ((equilibrium, "_best_rows", rounds), (equilibrium, "_mean_field", environments),
                                    (meanfield, "aggregate", aggregates)):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=original, c=calls: c.append(1) or f(*a))
        cfg = cli.load_config({"sweep": {"parameter": parameter, "grid": BENCHMARK_GRIDS[parameter]}})
        rows, _ = cli.run_experiment(cfg)
        assert all(row["converged"] for row in rows)
        assert len(environments) == len(rounds) == max(row["iterations"] for row in rows) + 1
        assert len(aggregates) <= 1 + len(rows)


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

    def test_one_signal_law_build_per_residual(self, ref_pop, quad128, monkeypatch):
        # The mean field reads the laws of the context that the best response is made in.
        calls = []
        for module in (meanfield, response):
            build = module.signal_laws
            monkeypatch.setattr(module, "signal_laws", lambda *args, build=build: calls.append(args) or build(*args))
        assert residual(ref_pop, Strategy.constant(2, 0.3), quad128) > 0.0
        assert len(calls) == 1


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

    @pytest.mark.parametrize("value", [-0.5, 1.0, 2.0, np.nan])
    def test_inadmissible_init_rejected(self, quad128, value):
        # Outside [0, 1 - eps_b]: named as the mean-field solver names it, before any environment is built.
        players, init = [casestudy.investor()] * 3, Strategy.constant(3, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inadmissible position .* for type 0, signal -inf"):
                solve_nagent(players, quad128, SolverConfig(init=init))
            for call in (best_response_nagent, lambda *args: M_nagent(1, *args)):
                with pytest.raises(ValueError, match="inadmissible position"):
                    call(players, init, quad128)

    def test_single_player_rejected(self, quad128):
        with pytest.raises(ValueError):
            solve_nagent([casestudy.investor()], quad128)

    def test_two_group_game_converges(self, quad128):
        # stalled at a 4e-8 residual when the best response was a golden-section search accurate to ~4e-8 only
        players = [casestudy.investor()] * 2 + [casestudy.investor(p_s=0.25)] * 2
        res = solve_nagent(players, quad128)
        assert res.converged

    def test_weakly_informed_symmetric_game_converges(self, quad128):
        # took 395 iterations with a golden-section best response
        res = solve_nagent([casestudy.investor(p_s=0.3, rho=0.01, theta=0.7)] * 5, quad128)
        assert res.converged
        assert res.iterations < 50


class TestSolveMfStatistic:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            solve_mf_statistic(casestudy.reference_population(), [(0.0, 0.5), (1.0, 0.6)])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            solve_mf_statistic(casestudy.reference_population(), [(0.0, float("nan")), (1.0, 1.0)])

    def test_nan_mark_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            solve_mf_statistic(casestudy.reference_population(), [(float("nan"), 0.5), (1.0, 0.5)])

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

    def test_statistic_box_is_the_range_of_admissible_statistics(self):
        # Two jump laws whose jumps have opposite signs at some marks.
        m = casestudy.default_market
        pop = Population([casestudy.investor(m(kappa_hat=0.3)), casestudy.investor(m(kappa_hat=-0.3, sigma_hat=0.5))])
        q = Quadrature.discrete([-1.0, 0.0, 1.5], [0.25, 0.5, 0.25])
        lo, hi = _statistic_box(_contexts(pop.types, q), q.nodes)
        hi_position = 1.0 - pop.types[0].eps_b

        def statistic(table):
            stats = aggregate(pop, Strategy(table), q)
            return np.concatenate(([stats.sigma0pi_bar], stats.mean_jump_nodes))

        corners = np.array([statistic([[a] * 7, [b] * 7]) for a in (0.0, hi_position) for b in (0.0, hi_position)])
        assert corners.min(axis=0) == pytest.approx(lo, rel=1e-12, abs=1e-15)
        assert corners.max(axis=0) == pytest.approx(hi, rel=1e-12, abs=1e-15)
        # Wider than the range between the all-lower and all-upper statistics.
        assert np.any(lo < np.minimum(corners[0], corners[3])) and np.any(hi > np.maximum(corners[0], corners[3]))
        rng = np.random.default_rng(3)
        for _ in range(50):
            stat = statistic(rng.uniform(0.0, hi_position, (2, 7)))
            assert np.all(lo <= stat) and np.all(stat <= hi)

    def test_matches_strategy_space_solver_on_discrete_law(self):
        pop = casestudy.reference_population()
        stat = solve_mf_statistic(pop, MARKS_11)
        q = Quadrature.discrete([m for m, _ in MARKS_11], [p for _, p in MARKS_11])
        fin = solve_mf_finite(pop, q)
        assert stat.converged and fin.converged
        assert strategy_distance(stat.strategy, fin.strategy) < 1e-6
