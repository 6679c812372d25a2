"""Best-response target functions, their Newton maximizer, and a generic 1-D maximizer.

One ``TargetContext`` holds an environment's investors in both game modes.
``_contexts`` builds every field that does not depend on the peers (signal
laws from ``signals.signal_laws``, jump sizes, row weights, boxes), once per
solve; ``_with_environment`` writes the environment into it: mean-field,
from a ``MeanFieldStats`` (``_mf_environment``), or n-agent, from the other
players' explicit strategies (``_nagent_environment``).  An investor's
seven targets (one per signal) are rows of one (7 x nodes) weight table
applied to one jump integrand.  Each is strictly concave on its admissible
interval whenever jumps are live, with closed-form first and second
derivatives, so ``_respond`` solves every investor's seven first-order
conditions in one bracketed Newton iteration.  ``maximize_concave_1d``
(golden section) stays as a derivative-free maximizer for arbitrary
concave functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, aggregate, wealth_diffusion
from .model import (
    NONE_INDEX,
    NONZERO_INDEX,
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
from .signals import JumpLaw, eta, per_distinct, signal_kernel, signal_laws

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_OPT_TOL = 1e-10
# Cap on Newton/bisection steps per best response, a backstop: case-study types need
# 4, and with the rtsafe rule no row of 80 random single-type solves over the
# property-test ranges needed more than 36 (without it, rows with g' ~ phi^-alpha
# crept by phi/alpha per step into the cap).
_MAX_NEWTON = 200
# Largest log(E*(1 + phi*eta)^p) put through exp(): valid extreme types (alpha ~ 100,
# sigma_hat ~ 4) pass it at tail nodes, where exp() overflows and inf*0 = NaN.
_LOG_CAP = 600.0
# N01(I(z)) in ``NONZERO_SIGNALS`` order: the signal kernel at rho = 0.
_SIGNAL_MASS = signal_kernel(0.0, 0.0)


class NewtonCapWarning(RuntimeWarning):
    """A best-response row was still unconverged after ``_MAX_NEWTON`` Newton/bisection steps."""


def relative_utility(x, xbar, alpha: float, theta: float):
    """CRRA utility of wealth relative to the peer average: u((x * xbar^-theta))."""
    return (x * xbar ** (-theta)) ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class TargetContext:
    """Everything the targets of one environment's investors need, on the quadrature grid.

    One context holds every type of a mean-field population or every player
    of an n-agent game: array fields lead with an investor axis in
    ``investors`` order; ``take`` slices investors out as their own context.
    ``_contexts`` builds every field that does not depend on the peers; the
    last four are the environment, None until ``_with_environment`` writes
    them.  ``env_jump_log`` is log E, the environment's jump factor raised
    to ``peer_exponent`` = -theta*(1-alpha) (mean-field: the mean-jump
    function; n-agent: the expected peer product, each peer's signal mixture
    intact); zero when lam = 0.  ``eta_nodes`` are the jump sizes, zero when
    degenerate (lam = 0 or sizeless); a sizeless type keeps E.  ``law`` is
    P(z | e_c) and ``eta_raw`` the jump sizes never zeroed: the n-agent
    environment reads them for the peers.  Row z of ``row_weights``
    (``SIGNALS`` order) weighs the jump integrand in target z:
    lam*(1-p_s)*w for no signal, w*N01(I(z, e_c))/N01(I(z)) else;
    ``row_mass`` turns the seven targets into M's jump part: 1 for no
    signal, lam*p_s*N01(I(z)) else.  The drift is ``drift_slope``*phi -
    ``drift_curvature``*phi^2/2; ``bounds`` = (lo, hi).
    """

    investors: tuple[InvestorType, ...]
    alpha: np.ndarray = field(repr=False)
    peer_exponent: np.ndarray = field(repr=False)
    excess_return: np.ndarray = field(repr=False)
    sigma0: np.ndarray = field(repr=False)
    drift_curvature: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    eta_nodes: np.ndarray = field(repr=False)
    eta_raw: np.ndarray = field(repr=False)
    law: np.ndarray = field(repr=False)
    row_weights: np.ndarray = field(repr=False)
    row_mass: np.ndarray = field(repr=False)
    jumps_degenerate: np.ndarray = field(repr=False)
    jump_free: np.ndarray = field(repr=False)
    sigma0pi_env: np.ndarray | None = None
    taupi_env: np.ndarray | None = None
    sig2pi2_env: np.ndarray | None = None
    env_jump_log: np.ndarray | None = field(default=None, repr=False)

    @property
    def drift_slope(self) -> np.ndarray:
        """(kappa - r) - theta*(1-alpha)*sigma0*sigma0pi_env: the drift's slope at phi = 0."""
        return self.excess_return + self.peer_exponent * self.sigma0 * self.sigma0pi_env

    def take(self, index) -> "TargetContext":
        """The investors at ``index`` (one index or a sequence of them) as their own context."""
        rows = np.atleast_1d(index)
        arrays = (getattr(self, f.name)[rows] for f in fields(self)[1:])
        return TargetContext(tuple(self.investors[i] for i in rows), *arrays)


def _contexts(types: Sequence[InvestorType], q: Quadrature) -> TargetContext:
    """The context of ``types`` with no environment yet: the one build of every field the peers leave alone.

    One ``signal_laws`` call and one ``eta`` per distinct jump law; a solver
    builds this once and writes each iteration's environment into it.
    """
    types = tuple(types)
    markets = [t.market for t in types]
    alpha, theta, p_s = np.array([(t.alpha, t.theta, t.p_s) for t in types]).T
    r, kappa, sigma, sigma0, lam = np.array([(m.r, m.kappa, m.sigma, m.sigma0, m.lam) for m in markets]).T
    laws = [JumpLaw.from_market(m) for m in markets]
    jump_free = lam == 0.0
    degenerate = jump_free | np.array([law.degenerate for law in laws])
    jumps = per_distinct(laws, lambda law: eta(law, q.nodes))
    kernels, law = signal_laws(types, q.nodes)
    weights = np.empty((len(types), len(SIGNALS), q.n_nodes))
    weights[:, NONE_INDEX] = (lam * (1.0 - p_s))[:, np.newaxis] * q.weights
    weights[:, NONZERO_INDEX] = q.weights * kernels / _SIGNAL_MASS[:, np.newaxis]
    mass = np.ones((len(types), len(SIGNALS)))
    mass[:, NONZERO_INDEX] = (lam * p_s)[:, np.newaxis] * _SIGNAL_MASS
    bounds = np.array([(iv.lo, iv.hi) for iv in map(admissible_interval, types)])
    eta_nodes = np.where(degenerate[:, np.newaxis], 0.0, jumps)
    return TargetContext(types, alpha, -theta * (1.0 - alpha), kappa - r, sigma0, alpha * (sigma**2 + sigma0**2),
                         bounds, eta_nodes, jumps, law, weights, mass, degenerate, jump_free)


def _with_environment(ctx: TargetContext, env: tuple, env_log) -> TargetContext:
    """``ctx`` against an environment: ``env`` = (sigma0pi, taupi, sig2pi2), each shared or one per
    investor, and ``env_log`` each investor's log E on the nodes."""
    sigma0pi, taupi, sig2pi2 = (np.full(len(ctx.investors), v, dtype=float) for v in env)
    env_log = np.where(ctx.jump_free[:, np.newaxis], 0.0, env_log)
    return replace(ctx, sigma0pi_env=sigma0pi, taupi_env=taupi, sig2pi2_env=sig2pi2, env_jump_log=env_log)


def _mf_environment(ctx: TargetContext, sigma0pi_bar: float, mean_jump_nodes, taupi_bar: float = 0.0):
    """``ctx`` against a mean-field environment given by its statistic."""
    env_log = ctx.peer_exponent[:, np.newaxis] * np.log(np.asarray(mean_jump_nodes))
    return _with_environment(ctx, (sigma0pi_bar, taupi_bar, 0.0), env_log)


def mf_target_context(
    types: Sequence[InvestorType], q: Quadrature, sigma0pi_bar: float, mean_jump_nodes, taupi_bar: float = 0.0
) -> TargetContext:
    """Context of ``types`` against a mean-field environment given by its statistic."""
    return _mf_environment(_contexts(types, q), sigma0pi_bar, mean_jump_nodes, taupi_bar)


def context_from_stats(inv_type: InvestorType, stats: MeanFieldStats, q: Quadrature) -> TargetContext:
    """One-investor context of ``inv_type`` against ``stats``."""
    return mf_target_context([inv_type], q, stats.sigma0pi_bar, stats.mean_jump_nodes, taupi_bar=stats.taupi_bar)


def _nagent_environment(ctx: TargetContext, strat: Strategy) -> TargetContext:
    """``ctx`` of every player against the others' strategies in ``strat``, in one pass over all players.

    Peer aggregates are totals over all players minus the player's own term.
    The expected peer jump factor of player i is the product over peers of
    their signal mixture of (1 + pi*eta)^e_i, e_i = -theta_i*(1-alpha_i)/n;
    its log is S(e_i) - log mix_i(e_i), with S(e) the sum of every player's
    log mixture, since peers' signal draws are independent given the common
    mark.  Each log mixture is a log-sum-exp over signals of log weight +
    e*log1p(pi*eta), shifted per (player, node) by its largest weighted term,
    so large |e| (alpha ~ 100) cannot overflow it.  Peers jump by
    ``eta_raw``, also where their own ``eta_nodes`` are zeroed.
    """
    n_players = len(ctx.investors)
    if strat.n_types != n_players:
        raise ValueError(f"strategy has {strat.n_types} rows for {n_players} players")
    if n_players < 2:
        raise ValueError("n-agent mode needs at least 2 players")
    n = n_players - 1
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
    return _with_environment(ctx, env, peer_log)


def _nagent_contexts(types: Sequence[InvestorType], strat: Strategy, q: Quadrature) -> TargetContext:
    """The context of every player against the others (see ``_nagent_environment``)."""
    return _nagent_environment(_contexts(types, q), strat)


def nagent_target_context(i: int, types: Sequence[InvestorType], strat: Strategy, q: Quadrature) -> TargetContext:
    """One-investor context of player ``i`` against the other players' strategies (see ``_nagent_environment``)."""
    if not 0 <= i < len(types):
        raise IndexError(f"player index {i} out of range for {len(types)} players")
    return _nagent_contexts(types, strat, q).take(i)


def _log_scaled_returns(phi, ctx: TargetContext) -> np.ndarray:
    """Per-node log(E*(1 + phi*eta)^(1-alpha)): positions (investors, k) give (investors, k, nodes)."""
    move = np.asarray(phi, dtype=float)[..., np.newaxis] * ctx.eta_nodes[:, np.newaxis]
    return ctx.env_jump_log[:, np.newaxis] + (1.0 - ctx.alpha)[:, np.newaxis, np.newaxis] * np.log1p(move)


def jump_cap_binds(table, ctx: TargetContext) -> np.ndarray:
    """Per investor: do ``target_values(table, ctx)``, hence M, clip a weighted node's log at ``_LOG_CAP``?"""
    return ((_log_scaled_returns(table, ctx) > _LOG_CAP) & (ctx.row_weights != 0.0)).any(axis=(-2, -1))


def _jump_integrand(phi, ctx: TargetContext) -> np.ndarray:
    """Per-node (u(1 + phi*eta, env) - u(1, 1)) with the env power E folded in; shaped as ``_log_scaled_returns``."""
    scaled = np.exp(np.minimum(_log_scaled_returns(phi, ctx), _LOG_CAP))
    vals = (scaled - 1.0) / (1.0 - ctx.alpha)[:, np.newaxis, np.newaxis]
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite jump integrand; position outside its admissible interval?")
    return vals


def _target(phi, ctx: TargetContext, column: int):
    """Target ``column`` (``SIGNALS`` order) of a one-investor context at scalar or array phi."""
    phi_arr = np.asarray(phi, dtype=float)
    integrand = _jump_integrand(phi_arr.reshape(1, -1), ctx).reshape(phi_arr.shape + (-1,))
    out = np.dot(integrand, ctx.row_weights[0, column])
    if column == NONE_INDEX:
        out = ctx.drift_slope[0] * phi_arr - 0.5 * ctx.drift_curvature[0] * phi_arr**2 + out
    return float(out) if np.isscalar(phi) else out


def target_no_signal(phi, ctx: TargetContext):
    """Objective for the default (no-signal) position; scalar or array phi."""
    return _target(phi, ctx, NONE_INDEX)


def target_signal(phi, z: Signal, ctx: TargetContext):
    """Objective for the position taken upon receiving signal z != 0."""
    if z is Signal.NONE:
        raise ValueError("signal target is defined for nonzero signals only")
    return _target(phi, ctx, SIGNAL_INDEX[z])


def target_values(table, ctx: TargetContext) -> np.ndarray:
    """(investors, 7) targets: target z of investor i evaluated at ``table[i, z]`` (``SIGNALS`` order)."""
    table = np.asarray(table, dtype=float)
    out = np.sum(_jump_integrand(table, ctx) * ctx.row_weights, axis=-1)
    phi0 = table[:, NONE_INDEX]
    out[:, NONE_INDEX] += ctx.drift_slope * phi0 - 0.5 * ctx.drift_curvature * phi0**2
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
    function; ``_respond`` solves the first-order conditions instead.
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
    """Best-response row (one position per signal) of ``inv_type`` in its one-investor context."""
    if ctx.investors != (inv_type,):
        raise ValueError("context belongs to another investor type")
    return _respond(ctx, opt_tol).table[0].copy()


def _respond(ctx: TargetContext, opt_tol: float) -> Strategy:
    """Best-response strategy, one row per investor, from one Newton over every (investor, signal) row.

    Solves g'(phi) = drift'(phi) + sum_k W_zk eta_k (1 + phi eta_k)^-alpha E_k = 0
    for all rows at once, with g'' < 0 (W = ``row_weights``, log E =
    ``env_jump_log``; the drift enters the no-signal row only).  Each row's
    g' and g'' are scaled by exp(-shift), shift = max(0, largest weighted
    log E_k (1 + phi eta_k)^-alpha - ``_LOG_CAP``), which keeps the sign of
    g' and the step g'/g'' exact.  If g' keeps one sign on the admissible
    interval the maximizer is the matching endpoint; otherwise Newton steps
    run inside the shrinking sign-change bracket until a step is at most
    ``opt_tol``.  A row bisects instead whenever its Newton step would leave
    the bracket or be longer than half its step before the last (rtsafe,
    Press et al., Numerical Recipes 9.4), so a slowly creeping Newton cannot
    use up the ``_MAX_NEWTON`` cap.  A row still unconverged at the cap is
    returned as it stands, with a ``NewtonCapWarning`` naming its (investor,
    signal).  Rows never mix, so a row is the same in any batch.

    When jumps are absent (lam = 0) or sizeless (eta identically 0) every
    admissible position maximizes a nonzero-signal target; those rows take
    the default position.
    """
    if not opt_tol > 0.0:
        raise ValueError("opt_tol must be > 0")
    alpha = ctx.alpha[:, np.newaxis, np.newaxis]
    eta_nodes = ctx.eta_nodes[:, np.newaxis, :]
    env_log = ctx.env_jump_log[:, np.newaxis, :]
    w_eta = ctx.row_weights * eta_nodes
    w_eta2 = alpha * w_eta * eta_nodes
    unweighted = w_eta == 0.0  # set no scale; their power must not overflow into 0*inf
    slope, curvature = np.zeros((2, len(ctx.investors), len(SIGNALS)))
    slope[:, NONE_INDEX], curvature[:, NONE_INDEX] = ctx.drift_slope, ctx.drift_curvature
    lo, hi = ctx.bounds.T[..., np.newaxis].repeat(len(SIGNALS), axis=-1)  # each (investors, 7)

    def derivatives(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        move = phi[..., np.newaxis] * eta_nodes
        log_power = np.where(unweighted, -np.inf, env_log - alpha * np.log1p(move))
        shift = np.maximum(log_power.max(axis=-1) - _LOG_CAP, 0.0)
        scale = np.exp(-shift)
        power = np.exp(log_power - shift[..., np.newaxis])
        g1 = (slope - curvature * phi) * scale + (w_eta * power).sum(axis=-1)
        g2 = -curvature * scale - (w_eta2 * (power / (1.0 + move))).sum(axis=-1)
        if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
            raise ValueError("non-finite first-order condition; position outside its admissible interval?")
        return g1, g2

    # Two calls, not one stacked call: half the peak size of the (rows, nodes) temporaries.
    (g_lo, _), (g_hi, _) = derivatives(lo), derivatives(hi)
    row = np.where(g_lo <= 0.0, lo, hi)
    active = (g_lo > 0.0) & (g_hi < 0.0)
    phi = 0.5 * (lo + hi)
    last_step = step_before = hi - lo
    for _ in range(_MAX_NEWTON):
        if not active.any():
            break
        g1, g2 = derivatives(phi)
        lo, hi = np.where(g1 > 0.0, phi, lo), np.where(g1 > 0.0, hi, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = phi - g1 / g2
        # rtsafe: bisect when Newton leaves the bracket or its step is over half the step before the last.
        keep = (newton >= lo) & (newton <= hi) & (2.0 * np.abs(newton - phi) <= step_before)
        newton = np.where(keep, newton, 0.5 * (lo + hi))
        step_before, last_step = last_step, np.abs(newton - phi)
        done = active & (last_step <= opt_tol)
        phi = np.where(active, newton, phi)
        row = np.where(done, phi, row)
        active &= ~done
    for i, k in np.argwhere(active):
        warnings.warn(f"type {i}, signal {SIGNALS[k].value}: best response stopped unconverged at the "
                      f"{_MAX_NEWTON}-step Newton cap", NewtonCapWarning, stacklevel=2)
    row = np.where(active, phi, row)
    degenerate = ctx.jumps_degenerate[:, np.newaxis]
    row[:, NONZERO_INDEX] = np.where(degenerate, row[:, [NONE_INDEX]], row[:, NONZERO_INDEX])
    return Strategy(row)


def best_response_to_stats(
    pop: Population, stats: MeanFieldStats, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    ctx = mf_target_context(pop.types, q, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
    return _respond(ctx, opt_tol)


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
