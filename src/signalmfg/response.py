"""Best-response target functions, their Newton maximizer, and a generic 1-D maximizer.

One ``TargetContext`` holds an environment's investors in both game modes.
``_contexts`` builds every field that does not depend on the peers (signal
laws from ``signals.signal_laws``, jump sizes, row weights, boxes), once per
solve; ``_with_environment`` writes the environment into it: mean-field,
from a statistic (``_mf_environment``), which ``_mean_field`` computes for
the strategies of one or many populations side by side, all from one node
mixture on the context's own law tables, or n-agent, from the other
players' explicit strategies (``_nagent_environment``).  An investor's
seven targets (one per signal) are rows of one (7 x nodes) weight table
applied to one jump integrand.  Each is strictly concave on its admissible
interval whenever jumps are live, with closed-form first and second
derivatives, so ``_respond`` solves the seven first-order conditions of
every distinct investor in one bracketed Newton iteration, started where the
caller says (a solver: at the iterate) and stopped only on a verified
bracket; investors whose contexts and starts are equal byte for byte share
one solve.  ``maximize_concave_1d`` (golden section) stays as a
derivative-free maximizer for arbitrary concave functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .meanfield import MeanFieldStats, _population_sums, wealth_diffusion
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
    _check_positions,
    admissible_interval,
    check_admissible,
)
from .quad import Quadrature
from .signals import distinct, jump_sizes, signal_kernel, signal_laws

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
    ``drift_curvature``*phi^2/2; ``bounds`` = (lo, hi).  Investors with
    equal ``static_class`` labels have byte-equal fields from ``alpha`` to
    ``jump_free``; labels compare only within one context.
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
    static_class: np.ndarray = field(repr=False)
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
        arrays = (getattr(self, f.name) for f in fields(self)[1:])
        return TargetContext(tuple(self.investors[i] for i in rows), *(a if a is None else a[rows] for a in arrays))


def _contexts(types: Sequence[InvestorType], q: Quadrature) -> TargetContext:
    """The context of ``types`` with no environment yet: the one build of every field the peers leave alone.

    One ``signal_laws`` call and one ``eta`` per distinct jump law, read
    with the flags jump-free (lam = 0) and sizeless (kappa_hat = sigma_hat =
    0) from the markets; a solver builds this once and writes each
    iteration's environment into it.
    ``static_class`` labels the investors by the bytes of these fields and
    of theta and r, so that investors of one label have the same rows and
    the same M in any environment, and -0.0 and 0.0 (equal as
    ``InvestorType`` fields) label apart.
    """
    types = tuple(types)
    markets = [t.market for t in types]
    alpha, theta, p_s = np.array([(t.alpha, t.theta, t.p_s) for t in types]).T
    r, kappa, sigma, sigma0, lam, kappa_hat, sigma_hat = np.array(
        [(m.r, m.kappa, m.sigma, m.sigma0, m.lam, m.kappa_hat, m.sigma_hat) for m in markets]).T
    jump_free = lam == 0.0
    degenerate = jump_free | ((kappa_hat == 0.0) & (sigma_hat == 0.0))  # sizeless jumps
    jumps = np.stack(jump_sizes(types, q.nodes))
    kernels, law = signal_laws(types, q.nodes)
    weights = np.empty((len(types), len(SIGNALS), q.n_nodes))
    weights[:, NONE_INDEX] = (lam * (1.0 - p_s))[:, np.newaxis] * q.weights
    weights[:, NONZERO_INDEX] = q.weights * kernels / _SIGNAL_MASS[:, np.newaxis]
    mass = np.ones((len(types), len(SIGNALS)))
    mass[:, NONZERO_INDEX] = (lam * p_s)[:, np.newaxis] * _SIGNAL_MASS
    bounds = np.array([(iv.lo, iv.hi) for iv in map(admissible_interval, types)])
    eta_nodes = np.where(degenerate[:, np.newaxis], 0.0, jumps)
    static = (alpha, -theta * (1.0 - alpha), kappa - r, sigma0, alpha * (sigma**2 + sigma0**2),
              bounds, eta_nodes, jumps, law, weights, mass, degenerate, jump_free)
    labelled = static + (theta, r)  # M reads them, not only -theta*(1-alpha) and kappa - r
    _, static_class = distinct([b"".join(a[i].tobytes() for a in labelled) for i in range(len(types))])
    return TargetContext(types, *static, np.array(static_class))


def _with_environment(ctx: TargetContext, env: tuple, env_log) -> TargetContext:
    """``ctx`` against an environment: ``env`` = (sigma0pi, taupi, sig2pi2), each shared or one per
    investor, and ``env_log`` each investor's log E on the nodes."""
    sigma0pi, taupi, sig2pi2 = (np.full(len(ctx.investors), v, dtype=float) for v in env)
    env_log = np.where(ctx.jump_free[:, np.newaxis], 0.0, env_log)
    return replace(ctx, sigma0pi_env=sigma0pi, taupi_env=taupi, sig2pi2_env=sig2pi2, env_jump_log=env_log)


def _mf_environment(ctx: TargetContext, sigma0pi_bar, mean_jump_nodes, taupi_bar=0.0):
    """``ctx`` against a mean-field environment given by its statistic, shared or one per investor."""
    env_log = ctx.peer_exponent[:, np.newaxis] * np.log(np.asarray(mean_jump_nodes))
    return _with_environment(ctx, (sigma0pi_bar, taupi_bar, 0.0), env_log)


def _mean_field(ctx: TargetContext, table: np.ndarray, population: np.ndarray, nodes: np.ndarray) -> tuple:
    """``ctx`` against the mean field of each of its populations: (context, per-population sums, m on the nodes).

    The investors of ``ctx`` holding ``table`` form populations, labelled
    0, 1, ... in order by ``population``, and ``nodes`` are the quadrature
    nodes.  Each population's statistic is ``meanfield._population_sums`` of
    its rows, all from one node mixture over ``ctx``'s law and jump sizes,
    and every investor gets its own population's environment, written by
    ``_mf_environment``.  Raises on inadmissible positions, naming the
    (type, signal) in its population.
    """
    _check_positions(table, ctx.bounds, population)
    sums, mean_jump = _population_sums(ctx.investors, table, (ctx.law, ctx.eta_raw), nodes, population)
    return _mf_environment(ctx, sums[population, 0], mean_jump[population], sums[population, 1]), sums, mean_jump


def mf_target_context(
    types: Sequence[InvestorType], q: Quadrature, sigma0pi_bar: float, mean_jump_nodes, taupi_bar: float = 0.0
) -> TargetContext:
    """Context of ``types`` against a mean-field environment given by its statistic."""
    return _mf_environment(_contexts(types, q), sigma0pi_bar, mean_jump_nodes, taupi_bar)


def context_from_stats(inv_type: InvestorType, stats: MeanFieldStats, q: Quadrature) -> TargetContext:
    """One-investor context of ``inv_type`` against ``stats``."""
    return mf_target_context([inv_type], q, stats.sigma0pi_bar, stats.mean_jump_nodes, taupi_bar=stats.taupi_bar)


def _nagent_environment(ctx: TargetContext, strat: Strategy) -> TargetContext:
    """``ctx`` of every player against the others' strategies in ``strat``.

    Peer aggregates are totals over all players minus the player's own term.
    The expected peer jump factor of player i is the product over peers of
    their signal mixture of (1 + pi*eta)^e_i, e_i = -theta_i*(1-alpha_i)/n;
    its log is S(e_i) - log mix_i(e_i), with S(e) the sum of every player's
    log mixture, since peers' signal draws are independent given the common
    mark.  Each log mixture is a log-sum-exp over signals of log weight +
    e*log1p(pi*eta), shifted per (player, node) by its largest weighted term,
    so large |e| (alpha ~ 100) cannot overflow it.  Peers jump by
    ``eta_raw``, also where their own ``eta_nodes`` are zeroed.  Log mixtures
    are evaluated once per distinct (``static_class``, strategy row) and
    copied out to every player before the sum over players, which adds them
    in player order.
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
    firsts, position = distinct(list(zip(ctx.static_class.tolist(), map(np.ndarray.tobytes, strat.table))))
    law = ctx.law[firsts]
    log_returns = np.log1p(strat.table[firsts, :, np.newaxis] * ctx.eta_raw[firsts, np.newaxis, :])
    peer_log = np.zeros(ctx.eta_raw.shape)
    for e in set(exponents) - {0.0}:
        terms = np.where(law > 0.0, e * log_returns, -np.inf)
        shift = terms.max(axis=1)
        log_mix = (shift + np.log(np.sum(law * np.exp(terms - shift[:, np.newaxis]), axis=1)))[position]
        mine = exponents == e
        peer_log[mine] = log_mix.sum(axis=0) - log_mix[mine]
    env = ((sigma0pi.sum() - sigma0pi) / n, (drift.sum() - drift) / n, (sig2pi2.sum() - sig2pi2) / n**2)
    return _with_environment(ctx, env, peer_log)


def _nagent_contexts(types: Sequence[InvestorType], strat: Strategy, q: Quadrature) -> TargetContext:
    """The context of every player against the others (see ``_nagent_environment``); raises on inadmissible positions."""
    check_admissible(Population(types), strat)
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


def _jump_integrand(log_scaled: np.ndarray, ctx: TargetContext) -> np.ndarray:
    """Per-node (u(1 + phi*eta, env) - u(1, 1)) with the env power E folded in, from ``_log_scaled_returns``."""
    scaled = np.exp(np.minimum(log_scaled, _LOG_CAP))
    vals = (scaled - 1.0) / (1.0 - ctx.alpha)[:, np.newaxis, np.newaxis]
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite jump integrand; position outside its admissible interval?")
    return vals


def _target(phi, ctx: TargetContext, column: int):
    """Target ``column`` (``SIGNALS`` order) of a one-investor context at scalar or array phi."""
    phi_arr = np.asarray(phi, dtype=float)
    integrand = _jump_integrand(_log_scaled_returns(phi_arr.reshape(1, -1), ctx), ctx).reshape(phi_arr.shape + (-1,))
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


def target_values(table, ctx: TargetContext) -> tuple[np.ndarray, np.ndarray]:
    """(investors, 7) targets, target z of investor i evaluated at ``table[i, z]`` (``SIGNALS`` order), and per
    investor whether they clip a weighted node's log at ``_LOG_CAP`` (then M is inexact)."""
    table = np.asarray(table, dtype=float)
    log_scaled = _log_scaled_returns(table, ctx)
    clips = ((log_scaled > _LOG_CAP) & (ctx.row_weights != 0.0)).any(axis=(-2, -1))
    out = np.sum(_jump_integrand(log_scaled, ctx) * ctx.row_weights, axis=-1)
    phi0 = table[:, NONE_INDEX]
    out[:, NONE_INDEX] += ctx.drift_slope * phi0 - 0.5 * ctx.drift_curvature * phi0**2
    return out, clips


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


def _distinct_investors(ctx: TargetContext, table: np.ndarray, evaluate: Callable) -> tuple:
    """``evaluate(ctx, table)``, arrays with a leading investor axis, run once per distinct investor.

    Investors with the same ``static_class``, byte-equal environment fields
    and byte-equal rows of ``table`` get the same outputs: ``evaluate`` runs
    on one of each such group and its outputs are copied to every member.
    When every ``static_class`` label differs, every investor is distinct
    and ``evaluate`` runs on ``ctx`` itself.  Labels need not run 0..n-1:
    a context taken from a larger one keeps the larger one's labels.
    """
    if np.unique(ctx.static_class).size == len(ctx.investors):
        return evaluate(ctx, table)
    keys = np.column_stack((ctx.env_jump_log, ctx.sigma0pi_env, ctx.taupi_env, ctx.sig2pi2_env, table))
    firsts, position = distinct(list(zip(ctx.static_class.tolist(), map(np.ndarray.tobytes, keys))))
    return tuple(out[position] for out in evaluate(ctx.take(firsts), table[firsts]))


def _respond(ctx: TargetContext, opt_tol: float, start: np.ndarray | None = None) -> Strategy:
    """Best-response strategy, one row per investor, from one Newton over the distinct investors' rows.

    The rows of ``_best_rows``; each row it flags as stopped at the
    ``_MAX_NEWTON`` cap is returned as it stands, with a ``NewtonCapWarning``
    naming its (investor, signal).
    """
    row, capped = _best_rows(ctx, opt_tol, start)
    for message in _cap_notes(capped):
        warnings.warn(message, NewtonCapWarning, stacklevel=2)
    return Strategy(row)


def _best_rows(ctx: TargetContext, opt_tol: float, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every investor's best-response row (investors x 7), and which rows stopped at the Newton cap.

    Each row's Newton starts at its entry of ``start`` (investors x 7),
    typically the iterate whose environment ``ctx`` holds; without a start,
    at the middle of its admissible interval.  Where it starts moves a row
    by at most ``opt_tol``.  Investors with the same ``static_class``,
    byte-equal environment fields and byte-equal start rows have the same
    rows: ``_newton`` solves one of each such group, whose rows and cap
    flags are copied to every member.  Rows never mix, so an investor's row
    is the same in any context that holds it.
    """
    if not opt_tol > 0.0:
        raise ValueError("opt_tol must be > 0")
    start = np.repeat(ctx.bounds.mean(axis=1, keepdims=True), len(SIGNALS), axis=1) if start is None else start
    return _distinct_investors(ctx, np.asarray(start, dtype=float), lambda c, s: _newton(c, opt_tol, s))


def _cap_notes(capped: np.ndarray) -> list[str]:
    """One message per (investor, signal) flagged in ``capped`` (investors x 7), in row order."""
    return [f"type {i}, signal {SIGNALS[k].value}: best response stopped unconverged at the "
            f"{_MAX_NEWTON}-step Newton cap" for i, k in np.argwhere(capped)]


def _derivatives(phi: np.ndarray, nodes: np.ndarray, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g'(phi) and g''(phi) of rows, each scaled by exp(-shift) (see ``_newton``).

    ``nodes`` stacks per row and node eta, log E (-inf where the row weighs
    nothing), W*eta and alpha*W*eta^2; ``coefficients`` stacks per row
    alpha and the drift's slope and curvature.  Every row is evaluated on
    its own, so it has the same bits in any batch.
    """
    eta, env_log, w_eta, w_eta2 = nodes
    alpha, slope, curvature = coefficients
    move = phi[:, np.newaxis] * eta
    log_power = env_log - alpha[:, np.newaxis] * np.log1p(move)
    top = log_power.max(axis=-1)
    scale = 1.0  # shift = 0 below the cap, where scaling leaves every bit as it is
    if top.max() > _LOG_CAP:
        shift = np.maximum(top - _LOG_CAP, 0.0)
        scale, log_power = np.exp(-shift), log_power - shift[:, np.newaxis]
    power = np.exp(log_power)
    g1 = (slope - curvature * phi) * scale + (w_eta * power).sum(axis=-1)
    g2 = -curvature * scale - (w_eta2 * (power / (1.0 + move))).sum(axis=-1)
    if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise ValueError("non-finite first-order condition; position outside its admissible interval?")
    return g1, g2


def _first_order_terms(ctx: TargetContext) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes`` and ``coefficients`` that ``_derivatives`` reads, for every (investor, signal) row in turn."""
    n_investors, n_signals = len(ctx.investors), len(SIGNALS)
    nodes = np.empty((4, n_investors, n_signals, ctx.eta_nodes.shape[-1]))
    eta, env_log, w_eta, w_eta2 = nodes
    eta[:], env_log[:] = ctx.eta_nodes[:, np.newaxis], ctx.env_jump_log[:, np.newaxis]
    np.multiply(ctx.row_weights, eta, out=w_eta)
    # Unweighted nodes set no scale; their power must not overflow into 0*inf.
    np.copyto(env_log, -np.inf, where=w_eta == 0.0)
    np.multiply(ctx.alpha[:, np.newaxis, np.newaxis], w_eta, out=w_eta2)
    w_eta2 *= eta
    coefficients = np.zeros((3, n_investors * n_signals))  # alpha, and the drift (no-signal rows only)
    coefficients[0] = np.repeat(ctx.alpha, n_signals)
    coefficients[1:, NONE_INDEX::n_signals] = ctx.drift_slope, ctx.drift_curvature
    return nodes.reshape(4, n_investors * n_signals, -1), coefficients


def _newton(ctx: TargetContext, opt_tol: float, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (investor, signal) row of ``ctx`` from one Newton started at ``start``, and which rows stopped at the cap.

    Solves g'(phi) = drift'(phi) + sum_k W_zk eta_k (1 + phi eta_k)^-alpha E_k = 0
    for all rows at once, with g'' < 0 (W = ``row_weights``, log E =
    ``env_jump_log``; the drift enters the no-signal row only).  Each row's
    g' and g'' are scaled by exp(-shift), shift = max(0, largest weighted
    log E_k (1 + phi eta_k)^-alpha - ``_LOG_CAP``), which keeps the sign of
    g' and the step g'/g'' exact.

    A row starts at its entry of ``start``, clipped to its admissible
    interval [lo, hi], and keeps a verified bracket [a, b] of its maximizer:
    an evaluated point x becomes a where g'(x) >= 0 or x = lo, and b where
    g'(x) <= 0 or x = hi (unverified ends are -inf and inf).  A row stops
    only on that certificate, b - a <= ``opt_tol``/2, and returns the Newton
    point of its last evaluation clipped to [a, b], which is within
    ``opt_tol``/2 of the maximizer: rows from any two starts agree within
    ``opt_tol``.  An endpoint whose g' points outward (g'(lo) <= 0 or
    g'(hi) >= 0) certifies itself with b - a = 0, so a maximizer at a bound
    is returned as that bound exactly.  A short Newton step is no
    certificate: where g'' is huge (alpha ~ 100, sigma_hat ~ 4) Newton from
    0 or 1e-12 moves by less than ``opt_tol`` while the maximizer is 5e-5 to
    1e-3 away.

    Each step goes to the Newton point pushed on by ``opt_tol``/5 (so that
    near the root the next evaluation lands across it) and clipped to
    [lo, hi], so an endpoint is evaluated only when a step would cross it.
    Once the Newton step is at most sqrt(``opt_tol``), the point pushed back
    by ``opt_tol``/5 is evaluated in the same pass, so that the two straddle
    the root and certify it together.  A point closes one side of the
    bracket, and the Newton point of a start 1e-3 from the root lands 5e-9
    across it, so a row alone would take one pass per side after that (the
    reference solve 22 evaluations instead of 17).  A row bisects its bracket (within
    [lo, hi]) instead whenever its step would leave the verified bracket or
    be longer than half its step before the last (rtsafe, Press et al.,
    Numerical Recipes 9.4), so a slowly creeping Newton cannot use up the
    ``_MAX_NEWTON`` cap.  A row still unconverged at the cap is returned as
    it stands and flagged.  Only the still active rows are evaluated, and
    rows never mix, so a row is the same in any batch.

    A flat row (g' = g'' = 0: no weight on a nonzero jump, no drift) is
    maximized by every position and takes lo, wherever it starts.  When
    jumps are absent (lam = 0) or sizeless (eta identically 0) every
    admissible position maximizes a nonzero-signal target; those rows take
    the default position.
    """
    n_investors, n_signals = len(ctx.investors), len(SIGNALS)
    n_rows = n_investors * n_signals
    nodes, coefficients = _first_order_terms(ctx)
    # Per still active row (rows drop out as they stop): its next point, its admissible [lo, hi], its
    # verified bracket [a, b] (-inf and inf until verified), its last step and the step before, and its
    # second point where it straddles its root.
    state = np.empty((8, n_rows))
    x, lo, hi, a, b, last, before, near = state  # views, updated in place
    state[1:3] = np.repeat(ctx.bounds, n_signals, axis=0).T
    np.minimum(np.maximum(np.ravel(start), lo), hi, out=x)
    a.fill(-np.inf)
    b.fill(np.inf)
    np.subtract(hi, lo, out=last)
    before[:] = last
    rows, pairs = np.arange(n_rows), np.arange(0)
    row = np.empty(n_rows)
    width, nudge, close = opt_tol / 2.0, opt_tol / 5.0, math.sqrt(opt_tol)
    # g1 / g2 is inf where g'' is 0 or subnormal (both clip to [lo, hi]) and NaN where both are 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_NEWTON):
            if pairs.size:
                at = np.concatenate((np.arange(rows.size), pairs))
                points = np.concatenate((x, near[pairs]))
                g1, g2 = _derivatives(points, nodes.take(at, axis=1), coefficients.take(at, axis=1))
                g_near, g1, g2 = g1[rows.size:], g1[: rows.size], g2[: rows.size]
            else:
                g1, g2 = _derivatives(x, nodes, coefficients)
            # x bounds the maximizer from below where g' >= 0 or x = lo, from above where g' <= 0 or x = hi.
            np.copyto(a, x, where=(g1 >= 0.0) | (x == lo))
            np.copyto(b, x, where=(g1 <= 0.0) | (x == hi))
            if pairs.size:
                p, a_p, b_p = near[pairs], a[pairs], b[pairs]
                a[pairs] = np.where(g_near >= 0.0, np.maximum(p, a_p), a_p)
                b[pairs] = np.where(g_near <= 0.0, np.minimum(p, b_p), b_p)
            newton = x - g1 / g2
            done = b - a <= width
            if np.count_nonzero(done):
                # Newton is NaN only where g' = g'' = 0: a flat row, maximized anywhere, takes lo.
                row[rows[done]] = np.where(np.isnan(newton), lo, np.fmin(np.fmax(newton, a), b))[done]
                keep = ~done
                rows, state, newton = rows[keep], state.compress(keep, axis=1), newton[keep]
                if not rows.size:
                    break
                nodes, coefficients = nodes.compress(keep, axis=1), coefficients.compress(keep, axis=1)
                x, lo, hi, a, b, last, before, near = state
            # Next: the Newton point pushed past itself, clipped to [lo, hi], if inside the verified bracket
            # and short (rtsafe), with its mirror image as a second point once close; else bisection.
            delta = newton - x
            toward = np.copysign(nudge, delta)
            pushed = newton + toward
            step = np.minimum(np.maximum(pushed, lo), hi)
            moved = np.abs(step - x)
            short = (step > a) & (step < b) & (moved + moved <= before)
            size = np.abs(delta)
            straddle = short & (step == pushed) & (size > nudge) & (size <= close)
            pairs = np.flatnonzero(straddle)
            np.subtract(newton, toward, out=near)  # read at ``pairs`` only
            np.copyto(before, last)
            if np.count_nonzero(short) < short.size:
                np.copyto(step, 0.5 * (np.maximum(a, lo) + np.minimum(b, hi)), where=~short)
                np.abs(step - x, out=moved)
            np.copyto(last, moved)
            np.copyto(x, step)
    row[rows] = state[0]
    active = np.zeros(n_rows, dtype=bool)
    active[rows] = True
    row, active = row.reshape(n_investors, n_signals), active.reshape(n_investors, n_signals)
    if ctx.jumps_degenerate.any():
        degenerate = ctx.jumps_degenerate[:, np.newaxis]
        row[:, NONZERO_INDEX] = np.where(degenerate, row[:, [NONE_INDEX]], row[:, NONZERO_INDEX])
    return row, active


def best_response_to_stats(
    pop: Population, stats: MeanFieldStats, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Mean-field best response of every type of ``pop`` to the environment that ``stats`` sums up."""
    ctx = mf_target_context(pop.types, q, stats.sigma0pi_bar, stats.mean_jump_nodes, stats.taupi_bar)
    return _respond(ctx, opt_tol)


def best_response(
    pop: Population, strat_env: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Mean-field best response of every type to the environment ``strat_env``, from one context's signal laws."""
    check_admissible(pop, strat_env)
    population = np.zeros(len(pop), dtype=np.intp)
    return _respond(_mean_field(_contexts(pop.types, q), strat_env.table, population, q.nodes)[0], opt_tol)


def best_response_nagent(
    types: Sequence[InvestorType], strat: Strategy, q: Quadrature, opt_tol: float = DEFAULT_OPT_TOL
) -> Strategy:
    """Every player's best response to the others' strategies in ``strat``."""
    return _respond(_nagent_contexts(types, strat, q), opt_tol)
