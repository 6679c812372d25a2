"""Best-response target functions, their Newton maximizer, and a generic 1-D maximizer.

Targets come in two flavors sharing one code path: mean-field mode, where the
environment is a ``MeanFieldStats``, and n-agent mode, where it is built from
the other players' explicit strategies.  A type's seven targets (one per
signal) are rows of one (7 x nodes) weight table applied to one jump
integrand.  Each is strictly concave on its admissible interval whenever
jumps are live, with closed-form first and second derivatives, so
``respond_type`` solves all seven first-order conditions at once by a
bracketed Newton iteration.  ``maximize_concave_1d`` (golden section) stays
as a derivative-free maximizer for arbitrary concave functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, aggregate, wealth_drift
from .model import (
    NONE_INDEX,
    NONZERO_INDEX,
    NONZERO_SIGNALS,
    SIGNAL_INDEX,
    SIGNALS,
    AdmissibleInterval,
    InvestorType,
    Population,
    Signal,
    Strategy,
    admissible_interval,
)
from .quad import Quadrature
from .signals import JumpLaw, eta, signal_kernel

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_OPT_TOL = 1e-10
# Cap on Newton/bisection steps per best response; case-study types need 4.
_MAX_NEWTON = 200
# Largest log(E*(1 + phi*eta)^p) put through exp(): valid extreme types (alpha ~ 100,
# sigma_hat ~ 4) pass it at tail nodes, where exp() overflows and inf*0 = NaN.
_LOG_CAP = 600.0
# N01(I(z)) in ``NONZERO_SIGNALS`` order: the signal kernel at rho = 0.
_SIGNAL_MASS = np.array(list(signal_kernel(0.0, 0.0)))


def relative_utility(x, xbar, alpha: float, theta: float):
    """CRRA utility of wealth relative to the peer average: u((x * xbar^-theta))."""
    return (x * xbar ** (-theta)) ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class TargetContext:
    """Everything a type's targets need, precomputed on the quadrature grid.

    ``env_jump_log`` is the log of E, the environment's jump factor raised to
    -theta*(1-alpha) (mean-field mode: the mean-jump function; n-agent mode:
    the expected peer product, which keeps the per-peer signal mixture intact
    rather than collapsing it to a geometric mean); zero when lam = 0.  The
    jump sizes are zero when jumps are degenerate (lam = 0 or sizeless); a
    sizeless type keeps E, which its targets and M still carry.  Row z of
    ``row_weights`` (``SIGNALS`` order) weighs the jump integrand in target
    z: lam*(1-p_s)*w for no signal, w*N01(I(z, e_c))/N01(I(z)) for z != 0.
    ``row_mass`` turns the seven target values into the value constant's
    jump part: 1 for no signal, lam*p_s*N01(I(z)) for z != 0.
    """

    investor: InvestorType
    sigma0pi_env: float
    taupi_env: float
    sig2pi2_env: float
    eta_nodes: np.ndarray = field(repr=False)
    env_jump_log: np.ndarray = field(repr=False)
    row_weights: np.ndarray = field(repr=False)
    row_mass: np.ndarray = field(repr=False)
    jumps_degenerate: bool = False


def _context(t: InvestorType, q: Quadrature, env: tuple, env_log, kernel, eta_nodes) -> TargetContext:
    """Context from env = (sigma0pi, taupi, sig2pi2) and the type's (6 x nodes) signal kernel."""
    m = t.market
    degenerate = m.lam == 0.0 or JumpLaw.from_market(m).degenerate
    if degenerate:
        eta_nodes = np.zeros(q.n_nodes)
    if m.lam == 0.0:
        env_log = np.zeros(q.n_nodes)
    weights = np.empty((len(SIGNALS), q.n_nodes))
    weights[NONE_INDEX] = m.lam * (1.0 - t.p_s) * q.weights
    weights[NONZERO_INDEX] = q.weights * kernel / _SIGNAL_MASS[:, np.newaxis]
    mass = np.ones(len(SIGNALS))
    mass[NONZERO_INDEX] = m.lam * t.p_s * _SIGNAL_MASS
    return TargetContext(
        t, *(float(v) for v in env), eta_nodes=eta_nodes, env_jump_log=env_log,
        row_weights=weights, row_mass=mass, jumps_degenerate=degenerate,
    )


def mf_target_context(
    inv_type: InvestorType,
    q: Quadrature,
    sigma0pi_bar: float,
    mean_jump_nodes: np.ndarray,
    taupi_bar: float = 0.0,
) -> TargetContext:
    """Context against a mean-field environment given by its statistic."""
    exponent = -inv_type.theta * (1.0 - inv_type.alpha)
    env_log = exponent * np.log(np.asarray(mean_jump_nodes, dtype=float))
    eta_nodes = eta(JumpLaw.from_market(inv_type.market), q.nodes)
    kernel = np.array(list(signal_kernel(inv_type.rho, q.nodes)))
    return _context(inv_type, q, (sigma0pi_bar, taupi_bar, 0.0), env_log, kernel, eta_nodes)


def context_from_stats(inv_type: InvestorType, stats: MeanFieldStats, q: Quadrature) -> TargetContext:
    return mf_target_context(
        inv_type, q, stats.sigma0pi_bar, stats.mean_jump_nodes, taupi_bar=stats.taupi_bar
    )


def _nagent_contexts(types: Sequence[InvestorType], strat: Strategy, q: Quadrature) -> list[TargetContext]:
    """Every player's n-agent context, built in one pass over all players.

    Peer aggregates are totals over all players minus the player's own term.
    The expected peer jump factor of player i is the product over peers of
    their signal mixture of (1 + pi*eta)^e_i, e_i = -theta_i*(1-alpha_i)/n;
    its log is S(e_i) - log mix_i(e_i), with S(e) the sum of every player's
    log mixture, since peers' signal draws are independent given the common
    mark.  Each log mixture is a log-sum-exp over signals of log weight +
    e*log1p(pi*eta), shifted per (player, node) by its largest weighted term,
    so large |e| (alpha ~ 100) cannot overflow it.
    """
    n_players = len(types)
    if strat.n_types != n_players:
        raise ValueError(f"strategy has {strat.n_types} rows for {n_players} players")
    if n_players < 2:
        raise ValueError("n-agent mode needs at least 2 players")
    n = n_players - 1
    pi0 = strat.table[:, NONE_INDEX]
    markets = [t.market for t in types]
    drift = np.array([wealth_drift(m, p) for m, p in zip(markets, pi0)])
    sigma0pi = np.array([m.sigma0 for m in markets]) * pi0
    sig2pi2 = (np.array([m.sigma for m in markets]) * pi0) ** 2
    kernels = {rho: np.array(list(signal_kernel(rho, q.nodes))) for rho in {t.rho for t in types}}
    jumps = np.stack([eta(JumpLaw.from_market(m), q.nodes) for m in markets])
    exponents = [-t.theta * (1.0 - t.alpha) / n for t in types]

    # Every player's signal law, (players, 7, nodes), and log return in each signal.
    p_s = np.array([t.p_s for t in types])[:, np.newaxis]
    law = np.empty((n_players, len(SIGNALS), q.n_nodes))
    law[:, NONE_INDEX] = 1.0 - p_s
    law[:, NONZERO_INDEX] = p_s[:, np.newaxis] * np.stack([kernels[t.rho] for t in types])
    log_returns = np.log1p(strat.table[:, :, np.newaxis] * jumps[:, np.newaxis, :])
    log_mix = {}
    for e in set(exponents) - {0.0}:
        terms = np.where(law > 0.0, e * log_returns, -np.inf)
        shift = terms.max(axis=1)
        log_mix[e] = shift + np.log(np.sum(law * np.exp(terms - shift[:, np.newaxis]), axis=1))
    total = {e: mix.sum(axis=0) for e, mix in log_mix.items()}

    out = []
    for i, (t, e) in enumerate(zip(types, exponents)):
        peer_log = np.zeros(q.n_nodes) if e == 0.0 else total[e] - log_mix[e][i]
        env = ((sigma0pi.sum() - sigma0pi[i]) / n, (drift.sum() - drift[i]) / n, (sig2pi2.sum() - sig2pi2[i]) / n**2)
        out.append(_context(t, q, env, peer_log, kernels[t.rho], jumps[i]))
    return out


def nagent_target_context(
    i: int, types: Sequence[InvestorType], strat: Strategy, q: Quadrature
) -> TargetContext:
    """Context for player ``i`` against the other players' strategies (see ``_nagent_contexts``)."""
    if not 0 <= i < len(types):
        raise IndexError(f"player index {i} out of range for {len(types)} players")
    return _nagent_contexts(types, strat, q)[i]


def _log_scaled_returns(phi, ctx: TargetContext) -> np.ndarray:
    """Per-node log(E*(1 + phi*eta)^(1-alpha)); array ``phi`` gets shape (..., nodes)."""
    phi_arr = np.asarray(phi, dtype=float)[..., np.newaxis]
    return ctx.env_jump_log + (1.0 - ctx.investor.alpha) * np.log1p(phi_arr * ctx.eta_nodes)


def jump_cap_binds(row, ctx: TargetContext) -> bool:
    """True iff ``target_values(row, ctx)``, hence M, clip a weighted node's log at ``_LOG_CAP``."""
    return bool(np.any(_log_scaled_returns(row, ctx)[ctx.row_weights != 0.0] > _LOG_CAP))


def _jump_integrand(phi, ctx: TargetContext):
    """Per-node (u(1 + phi*eta, env) - u(1, 1)) with the env power E folded in.

    Broadcasts over array-valued ``phi`` (shape (..., 1) against the nodes).
    """
    t = ctx.investor
    scaled = np.exp(np.minimum(_log_scaled_returns(phi, ctx), _LOG_CAP))
    vals = (scaled - 1.0) / (1.0 - t.alpha)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite jump integrand; position outside its admissible interval?")
    return vals


def _drift_coefficients(ctx: TargetContext) -> tuple[float, float]:
    """(slope, curvature) of the no-signal drift: slope*phi - curvature*phi^2/2."""
    t, m = ctx.investor, ctx.investor.market
    slope = (m.kappa - m.r) - t.theta * (1.0 - t.alpha) * m.sigma0 * ctx.sigma0pi_env
    return slope, t.alpha * (m.sigma**2 + m.sigma0**2)


def target_no_signal(phi, ctx: TargetContext):
    """Objective for the default (no-signal) position; scalar or array phi."""
    slope, curvature = _drift_coefficients(ctx)
    phi_arr = np.asarray(phi, dtype=float)
    out = slope * phi_arr - 0.5 * curvature * phi_arr**2
    if ctx.investor.market.lam > 0.0:
        out = out + np.dot(_jump_integrand(phi_arr, ctx), ctx.row_weights[NONE_INDEX])
    return float(out) if np.isscalar(phi) else out


def target_signal(phi, z: Signal, ctx: TargetContext):
    """Objective for the position taken upon receiving signal z != 0."""
    if z is Signal.NONE:
        raise ValueError("signal target is defined for nonzero signals only")
    out = np.dot(_jump_integrand(phi, ctx), ctx.row_weights[SIGNAL_INDEX[z]])
    return float(out) if np.isscalar(phi) else out


def target_values(row: np.ndarray, ctx: TargetContext) -> np.ndarray:
    """All seven targets, target z evaluated at ``row[z]`` (``SIGNALS`` order)."""
    slope, curvature = _drift_coefficients(ctx)
    out = np.sum(_jump_integrand(row, ctx) * ctx.row_weights, axis=-1)
    phi0 = row[NONE_INDEX]
    out[NONE_INDEX] += slope * phi0 - 0.5 * curvature * phi0**2
    return out


def maximize_concave_1d(
    f: Callable[[float], float], iv: AdmissibleInterval, tol: float = DEFAULT_OPT_TOL
) -> tuple[float, float]:
    """Maximize a strictly concave scalar function on a compact interval.

    Golden-section search shrinks the bracket to width ``tol``, then a single
    parabolic fit through the last three probes refines the maximizer; the
    best evaluated point wins, so refinement can only improve the result.
    Returns (argmax, max).

    Localization from double-precision values is flatness-limited: once
    |f(x) - f(x*)| falls below one ulp of f(x*) the probes tie, so the
    effective argmax accuracy is ~sqrt(ulp(f*)/|f''|) even for tiny ``tol``
    (3.5e-8 measured on the case-study targets).  The solvers do not use this
    function; ``respond_type`` solves the first-order conditions instead.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")

    def probe(x: float) -> float:
        v = float(f(x))
        if not math.isfinite(v):
            raise ValueError(f"objective not finite at phi={x}")
        return v

    a, b = iv.lo, iv.hi
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, probe(mid)

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = probe(x1), probe(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    history = [(x1, f1), (x2, f2)]
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = probe(x1)
            history.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = probe(x2)
            history.append((x2, f2))
        if history[-1][1] >= best_f:
            best_x, best_f = history[-1]

    # One parabolic refinement through the last three distinct probes.
    pts = {x: fx for x, fx in history[-4:]}
    if len(pts) >= 3:
        (xa, fa), (xb, fb), (xc, fc) = sorted(pts.items())[:3]
        denom = (xb - xa) * (fb - fc) - (xb - xc) * (fb - fa)
        if denom != 0.0:
            vertex = xb - 0.5 * ((xb - xa) ** 2 * (fb - fc) - (xb - xc) ** 2 * (fb - fa)) / denom
            vertex = min(max(vertex, iv.lo), iv.hi)
            fv = probe(vertex)
            if fv > best_f:
                best_x, best_f = vertex, fv
    return best_x, best_f


def respond_type(inv_type: InvestorType, ctx: TargetContext, opt_tol: float = DEFAULT_OPT_TOL) -> np.ndarray:
    """Best-response row (one position per signal) for a single type.

    Solves the seven first-order conditions g'(phi) = 0 together, where
    g'(phi) = drift'(phi) + sum_k W_zk eta_k (1 + phi eta_k)^-alpha E_k and
    g'' < 0 (W = ``row_weights``, log E = ``env_jump_log``; the drift enters
    the no-signal row only).  A row whose log E_k (1 + phi eta_k)^-alpha passes
    ``_LOG_CAP`` is scaled down, g' and g'' alike, which keeps the sign of g'
    and the step g'/g'' exact.  If g' keeps one sign on the admissible
    interval the maximizer is the matching endpoint; otherwise Newton steps
    run inside the shrinking sign-change bracket, bisecting whenever a step
    would leave it, until a step is at most ``opt_tol``.

    When jumps are absent (lam = 0) or sizeless (eta identically 0) the
    nonzero-signal targets are flat in phi, so every admissible position is a
    maximizer; the default position is the canonical selection then.
    """
    if not opt_tol > 0.0:
        raise ValueError("opt_tol must be > 0")
    alpha = inv_type.alpha
    iv = admissible_interval(inv_type)
    slope, curvature = np.zeros(len(SIGNALS)), np.zeros(len(SIGNALS))
    slope[NONE_INDEX], curvature[NONE_INDEX] = _drift_coefficients(ctx)
    w_eta = ctx.row_weights * ctx.eta_nodes
    w_eta2 = alpha * w_eta * ctx.eta_nodes
    # Each node's log power is monotone in phi, so the interval's ends bound it.
    ends = np.array([[iv.lo], [iv.hi]]).repeat(len(SIGNALS), axis=1)
    scale_rows = np.max(ctx.env_jump_log - alpha * np.log1p(ends[..., :1] * ctx.eta_nodes)) > _LOG_CAP

    def derivatives(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        move = phi[..., np.newaxis] * ctx.eta_nodes
        log_power = ctx.env_jump_log - alpha * np.log1p(move)
        drift, drift_curvature = slope - curvature * phi, -curvature
        if scale_rows:
            # Unweighted nodes set no scale (their power must not overflow into 0*inf).
            log_power = np.where(w_eta != 0.0, log_power, -np.inf)
            shift = np.maximum(log_power.max(axis=-1) - _LOG_CAP, 0.0)
            log_power = log_power - shift[..., np.newaxis]
            drift, drift_curvature = drift * np.exp(-shift), drift_curvature * np.exp(-shift)
        power = np.exp(log_power)
        g1 = drift + (w_eta * power).sum(axis=-1)
        g2 = drift_curvature - (w_eta2 * (power / (1.0 + move))).sum(axis=-1)
        if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
            raise ValueError("non-finite first-order condition; position outside its admissible interval?")
        return g1, g2

    (g_lo, g_hi), _ = derivatives(ends)
    row = np.where(g_lo <= 0.0, iv.lo, iv.hi)
    active = (g_lo > 0.0) & (g_hi < 0.0)
    lo, hi = np.full(len(SIGNALS), iv.lo), np.full(len(SIGNALS), iv.hi)
    phi = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON):
        if not active.any():
            break
        g1, g2 = derivatives(phi)
        lo, hi = np.where(g1 > 0.0, phi, lo), np.where(g1 > 0.0, hi, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = phi - g1 / g2
        newton = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = active & (np.abs(newton - phi) <= opt_tol)
        phi = np.where(active, newton, phi)
        row = np.where(done, phi, row)
        active &= ~done
    row = np.where(active, phi, row)
    if ctx.jumps_degenerate:
        row[NONZERO_INDEX] = row[NONE_INDEX]
    return row


def _respond(contexts: Sequence[TargetContext], opt_tol: float) -> Strategy:
    """Best-response strategy: one ``respond_type`` row per context."""
    return Strategy(np.vstack([respond_type(ctx.investor, ctx, opt_tol) for ctx in contexts]))


def best_response_to_stats(
    pop: Population, stats: MeanFieldStats, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    return _respond([context_from_stats(t, stats, q) for t in pop.types], opt_tol)


def best_response(
    pop: Population, strat_env: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Mean-field best response of every type to the environment ``strat_env``."""
    return best_response_to_stats(pop, aggregate(pop, strat_env, q), q, opt_tol)


def best_response_nagent(
    types: Sequence[InvestorType], strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Every player's best response to the others' strategies in ``strat``."""
    return _respond(_nagent_contexts(types, strat, q), opt_tol)
