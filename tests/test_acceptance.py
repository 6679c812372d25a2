"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with ``pytest -s``
to see them).  Quantitative criteria rest on closed-form or statistical
oracles.  Criteria 07-09 pin qualitative shapes for the certainty-equivalent
experiments; the solved model's comparative statics (validated against raw
simulation by criteria 05/06 and the deviation checks in the unit suite) run
opposite to parts of those shapes, so the affected assertions fail with the
measured curves in the message rather than being weakened to fit.
"""

import math
import time

import numpy as np
import pytest

from signalmfg import casestudy
from signalmfg.cli import emit_csv, load_config, run_experiment
from signalmfg.equilibrium import SolverConfig, residual, solve_mf_finite, solve_mf_statistic, solve_nagent
from signalmfg.meanfield import aggregate, mean_log_terminal
from signalmfg.metrics import certainty_equivalent, value_mf
from signalmfg.model import (
    ADMISSIBLE_INTERVAL,
    SIGNALS,
    Population,
    Signal,
    Strategy,
    strategy_distance,
)
from signalmfg.quad import Quadrature
from signalmfg.response import context_from_stats, maximize_concave_1d, target_no_signal, target_signal
from signalmfg.signals import classify_index, eta, perturb
from signalmfg.sim import estimate_utility, simulate_cohort, simulate_common

CFG = SolverConfig()


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    from conftest import acceptance_lines

    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    acceptance_lines.append(line)


@pytest.fixture(scope="module")
def quad():
    return Quadrature.standard_normal(128, 8.0)


@pytest.fixture(scope="module")
def reference(quad):
    pop = casestudy.reference_population()
    start = time.perf_counter()
    result = solve_mf_finite(pop, quad, CFG)
    elapsed = time.perf_counter() - start
    return pop, result, elapsed


def test_01_merton_oracle(quad):
    market = casestudy.default_market(lam=0.0)
    pop = Population([casestudy.investor(market, theta=0.0), casestudy.investor(market, theta=0.0)])
    start = time.perf_counter()
    res = solve_mf_finite(pop, quad, CFG)
    elapsed = time.perf_counter() - start
    merton = 4.0 / 9.0
    worst = float(np.max(np.abs(res.strategy.table - merton)))
    m_err = abs(res.per_type_M[0] - 0.0064 / 0.36)
    v_err = abs(res.per_type_value[0] - (-0.9823793146181776))
    ok = worst < 1e-6 and res.iterations == 1 and m_err < 1e-9 and v_err < 1e-8 and elapsed < 1.0
    report(1, "Merton oracle", ok, f"|phi err|={worst:.1e} iter={res.iterations} {elapsed:.2f}s")
    assert worst < 1e-6
    assert res.iterations == 1
    assert m_err < 1e-9
    assert v_err < 1e-8
    assert elapsed < 1.0


def test_02_fixed_point_residual(quad, reference):
    pop, res, elapsed = reference
    recomputed = residual(pop, res.strategy, quad)
    ok = res.converged and res.residual < 1e-8 and res.iterations <= 500 and recomputed < 1e-8 and elapsed < 30.0
    report(2, "fixed-point residual", ok, f"residual={res.residual:.2e} recomputed={recomputed:.2e} {elapsed:.2f}s")
    assert res.converged and res.residual < 1e-8
    assert res.iterations <= 500
    assert recomputed < 1e-8
    assert elapsed < 30.0


def test_03_symmetry(quad, reference):
    _, res, _ = reference
    mf_gap = float(np.max(np.abs(res.strategy.row(0) - res.strategy.row(1))))
    players = [casestudy.investor() for _ in range(5)]
    nag = solve_nagent(players, quad, CFG)
    nag_gap = max(
        float(np.max(np.abs(nag.strategy.row(0) - nag.strategy.row(i)))) for i in range(1, 5)
    )
    ok = mf_gap < 1e-8 and nag.converged and nag_gap < 1e-8
    report(3, "symmetry", ok, f"mf gap={mf_gap:.1e} n-agent gap={nag_gap:.1e}")
    assert mf_gap < 1e-8
    assert nag.converged and nag_gap < 1e-8


def test_04_empirical_uniqueness(quad, reference):
    pop, base, _ = reference
    hi = ADMISSIBLE_INTERVAL[1]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        init = Strategy(rng.uniform(0.0, hi, size=(2, 7)))
        res = solve_mf_finite(pop, quad, SolverConfig(init=init))
        assert res.converged
        worst = max(worst, strategy_distance(res.strategy, base.strategy))
    ok = worst < 1e-7
    report(4, "empirical uniqueness", ok, f"max spread={worst:.2e} over 10 random inits")
    assert worst < 1e-7


def test_05_mc_value_verification(quad, reference):
    pop, res, _ = reference
    start = time.perf_counter()
    means, errors = estimate_utility(pop, res.strategy, 100_000, 1.0, seed=20240801)
    elapsed = time.perf_counter() - start
    gaps = []
    for i, t in enumerate(pop.types):
        closed = value_mf(t, res.per_type_M[i], t.x0, res.stats.xbar0, 1.0)
        gaps.append(abs(means[i] - closed) / errors[i])
    ok = max(gaps) < 3.0 and elapsed < 120.0
    report(5, "MC value verification", ok, f"gaps={[f'{g:.2f}' for g in gaps]} SE, {elapsed:.1f}s")
    assert max(gaps) < 3.0
    assert elapsed < 120.0


def test_06_law_of_large_numbers(quad, reference):
    pop, res, _ = reference
    market = pop.types[0].market
    passes = 0
    for seed in range(20):
        path = simulate_common(1.0, market, seed)
        _, wealth = simulate_cohort(5_000, pop, res.strategy, path, seed)
        logs = np.log(wealth)
        se = float(np.std(logs, ddof=1) / math.sqrt(logs.size))
        gap = abs(float(np.mean(logs)) - mean_log_terminal(res.stats, path, 1.0))
        passes += gap < 3.0 * se
    ok = passes >= 18
    report(6, "law of large numbers", ok, f"{passes}/20 paths within 3 SE")
    assert passes >= 18


def _ce_sweep(quad, reference, parameter, grid, theta_b=None):
    _, ref, _ = reference
    out = []
    for value in grid:
        kwargs = {}
        if parameter == "p_s_b":
            kwargs["p_s_b"] = value
        elif parameter == "rho_b":
            kwargs["rho_b"] = value
        if theta_b is not None:
            kwargs["theta_b"] = theta_b
        alt = solve_mf_finite(casestudy.alternative_population(**kwargs), quad, CFG)
        assert alt.converged
        out.append(certainty_equivalent(alt.per_type_M[0], ref.per_type_M[0]))
    return out


def test_07_ce_shape_in_peer_signal_frequency(quad, reference):
    grid = (0.0, 0.25, 0.5, 0.75, 0.999)
    ce = _ce_sweep(quad, reference, "p_s_b", grid)
    steps = np.diff(ce)
    nondecreasing = bool(np.all(steps >= -1e-6))
    unit_at_ref = abs(ce[2] - 1.0) < 1e-9
    ok = nondecreasing and unit_at_ref
    report(7, "CE shape in peer signal frequency", ok, "CE=" + " ".join(f"{c:.6f}" for c in ce))
    assert unit_at_ref, f"CE at the reference point is {ce[2]!r}"
    assert nondecreasing, (
        f"CE(p_s_B) is not nondecreasing: {ce} (steps {steps.tolist()}); the solved model's "
        "simulation-validated comparative statics are strictly decreasing here"
    )


def test_08_ce_peak_in_peer_signal_quality(quad, reference):
    grid = (0.0, 0.2, 0.4, 0.6, 0.8)
    ce = _ce_sweep(quad, reference, "rho_b", grid)
    above_left = ce[2] - ce[0] > 1e-5
    above_right = ce[2] - ce[4] > 1e-5
    ok = above_left and above_right
    report(8, "CE peak in peer signal quality", ok, "CE=" + " ".join(f"{c:.6f}" for c in ce))
    assert above_right, f"CE(0.4)={ce[2]} vs CE(0.8)={ce[4]}"
    assert above_left, (
        f"CE(0.4)={ce[2]} does not exceed CE(0)={ce[0]}; the solved model's "
        "simulation-validated CE is monotone decreasing in rho_B on this grid"
    )


def test_09_ce_shape_in_peer_competitiveness(quad, reference):
    thetas = (0.0, 0.25, 0.5, 0.75, 1.0)
    curves = {}
    for p_s_b in (0.1, 0.5, 0.9):
        curves[p_s_b] = [
            _ce_sweep(quad, reference, "p_s_b", (p_s_b,), theta_b=theta)[0] for theta in thetas
        ]
    increasing = {k: bool(np.all(np.diff(v) > 0)) for k, v in curves.items()}
    at_one = {k: v[-1] for k, v in curves.items()}
    ordered = at_one[0.9] > at_one[0.5] > at_one[0.1]
    ok = all(increasing.values()) and ordered
    detail = "; ".join(f"p_s={k}: " + " ".join(f"{c:.5f}" for c in v) for k, v in curves.items())
    report(9, "CE shape in peer competitiveness", ok, detail)
    assert all(increasing.values()), (
        f"CE not increasing in theta_B for every curve: {increasing}; the solved model's "
        "simulation-validated comparative statics run opposite for the better-informed peer"
    )
    assert ordered, f"CE ordering at theta_B=1 is {at_one}, expected CE(0.9) > CE(0.5) > CE(0.1)"


def test_10_concavity_suite(quad, reference):
    pop, _, _ = reference
    rng = np.random.default_rng(7)
    hi = ADMISSIBLE_INTERVAL[1]
    worst_second = -np.inf
    worst_gap = np.inf
    for _ in range(5):
        env = Strategy(rng.uniform(0.0, hi, size=(2, 7)))
        stats = aggregate(pop, env, quad)
        for t in pop.types:
            ctx = context_from_stats(t, stats, quad)
            for z in SIGNALS:
                f = (
                    (lambda p: target_no_signal(p, ctx))
                    if z is Signal.NONE
                    else (lambda p, z=z: target_signal(p, z, ctx))
                )
                grid21 = np.linspace(*ADMISSIBLE_INTERVAL, 21)
                vals = f(grid21)
                worst_second = max(worst_second, float(np.max(vals[2:] - 2 * vals[1:-1] + vals[:-2])))
                arg, best = maximize_concave_1d(f, ADMISSIBLE_INTERVAL, 1e-10)
                scan = float(np.max(f(np.linspace(*ADMISSIBLE_INTERVAL, 10_000))))
                worst_gap = min(worst_gap, best - scan)
    ok = worst_second <= 1e-10 and worst_gap >= -1e-9
    report(10, "concavity suite", ok, f"max 2nd diff={worst_second:.2e} min opt-grid gap={worst_gap:.2e}")
    assert worst_second <= 1e-10
    assert worst_gap >= -1e-9


def test_11_cross_solver_oracle():
    marks = [(-1.0, 0.25), (0.0, 0.5), (1.5, 0.25)]
    pop = casestudy.reference_population()
    stat = solve_mf_statistic(pop, marks, CFG)
    q_disc = Quadrature.discrete([m for m, _ in marks], [p for _, p in marks])
    fin = solve_mf_finite(pop, q_disc, CFG)
    gap = strategy_distance(stat.strategy, fin.strategy)
    ok = stat.converged and fin.converged and gap < 1e-6
    report(11, "cross-solver oracle", ok, f"strategy gap={gap:.2e}")
    assert stat.converged and fin.converged
    assert gap < 1e-6


def test_12_positivity_invariants(quad, reference):
    pop, res, _ = reference
    floor = 1.0 - ADMISSIBLE_INTERVAL[1]  # 1 + phi*eta > 1 - hi for every jump eta > -1
    market = pop.types[0].market
    rng = np.random.default_rng(99)
    n = 1_000_000
    marks = rng.standard_normal(n)
    jumps = eta(market, marks)
    worst = np.inf
    for i, t in enumerate(pop.types):
        e1, e2 = rng.standard_normal(n), rng.uniform(size=n)
        labels = classify_index(perturb(t.rho, marks, e1), e2 <= t.p_s)
        returns = 1.0 + res.strategy.row(i)[labels] * jumps
        worst = min(worst, float(np.min(returns)))
    path = simulate_common(1.0, market, seed=41)
    _, wealth = simulate_cohort(2_000, pop, res.strategy, path, seed=41)
    ok = worst >= floor and bool(np.all(wealth > 0.0))
    report(12, "positivity invariants", ok, f"min jump return={worst:.3e} min wealth={wealth.min():.3e}")
    assert worst >= floor
    assert np.all(wealth > 0.0)


def test_13_determinism(tmp_path):
    raw = {
        "quadrature": {"nodes": 96},
        "sweep": {"parameter": "p_s_B", "grid": [0.25, 0.5, 0.75]},
        "mc": {"n_paths": 1000, "seed": 3},
    }
    cfg = load_config(raw)
    files = []
    for name in ("a.csv", "b.csv"):
        rows, _ = run_experiment(cfg)
        out = tmp_path / name
        emit_csv(rows, out)
        files.append(out.read_bytes())
    ok = files[0] == files[1]
    report(13, "determinism", ok, f"{len(files[0])} bytes")
    assert files[0] == files[1]
