"""Command-line interface and experiment orchestration.

Subcommands:
  solve     solve one mean-field equilibrium, print the strategy table and M
  sweep     run a certainty-equivalent sweep over a type-B parameter grid
  simulate  Monte Carlo validation of the closed-form values

Configuration is a single JSON file; every block is optional and defaults to
the case-study values.  Exit codes: 0 on success, 2 if any sweep grid point
failed to converge, 1 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import casestudy
from .equilibrium import SolverConfig, _solve_mf_many, solve_mf_finite
from .metrics import certainty_equivalent
from .model import SIGNALS, InvestorType, MarketParams, Population, validate_population
from .quad import DEFAULT_HALF_WIDTH, DEFAULT_NODES, Quadrature
from .sim import MIN_PATHS, estimate_utility

SWEEP_PARAMETERS = ("p_s_B", "rho_B", "theta_B")
MAX_P_S = 1.0 - 1e-6

CSV_COLUMNS = (
    "sweep_value",
    "certainty_equivalent",
    "residual_ref",
    "residual_alt",
    "iterations",
    "M_A_ref",
    "M_A_alt",
    "converged",
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; out-of-range values raise ``ConfigError``.

    The reference population and every grid point's population are checked
    here, once, so the solvers take them as valid.
    """

    reference: Population
    solver: SolverConfig
    n_nodes: int
    half_width: float
    sweep_parameter: str
    sweep_grid: tuple[float, ...]
    mc_paths: int
    mc_seed: int

    def __post_init__(self):
        # Also runs on ``dataclasses.replace``, so the --nodes/--seed overrides are checked too.
        problems = validate_population(self.reference)
        if problems:
            raise ConfigError("invalid reference population: " + "; ".join(problems))
        if self.n_nodes < 1:
            raise ConfigError(f"quadrature.nodes must be >= 1, got {self.n_nodes}")
        if not self.half_width > 0.0:
            raise ConfigError(f"quadrature.L must be > 0, got {self.half_width}")
        if self.mc_paths < MIN_PATHS:
            raise ConfigError(f"mc.n_paths must be >= {MIN_PATHS}, got {self.mc_paths}")
        if self.mc_seed < 0:
            raise ConfigError(f"mc.seed must be >= 0, got {self.mc_seed}")
        for value in self.sweep_grid:
            problems = validate_population(_alternative(self, value)[0])
            if problems:
                raise ConfigError(f"invalid sweep point {self.sweep_parameter}={value}: " + "; ".join(problems))

    @property
    def horizon(self) -> float:
        """Investment horizon; the solver block carries it."""
        return self.solver.horizon

    @property
    def market(self) -> MarketParams:
        """The market; every type of the reference shares it (``validate_population``)."""
        return self.reference.types[0].market

    def quadrature(self) -> Quadrature:
        return Quadrature.standard_normal(self.n_nodes, self.half_width)


def _block(value, label: str, known) -> dict:
    """A JSON object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{label} must be a JSON object, got {value!r}")
    extra = set(value) - set(known)
    if extra:
        raise ConfigError(f"unknown keys in {label}: {sorted(extra)}")
    return value


def _real(value, label: str) -> float:
    # abs(value) <= max rejects NaN, infinities and ints too large for a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, label: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _type_block(block, market: MarketParams, label: str) -> InvestorType:
    block = _block(block, f"reference.{label}", ("x0", "p_s", "rho", "theta", "alpha", "weight"))
    # Omitted keys take the case-study defaults of ``casestudy.investor``.
    return casestudy.investor(market, **{k: _real(v, f"reference.{label}.{k}") for k, v in block.items()})


def load_config(raw: dict) -> ExperimentConfig:
    """Build an ``ExperimentConfig`` from a parsed JSON document.

    Every block is optional; an omitted key takes the library default
    (``MarketParams``, ``casestudy.investor``, ``SolverConfig``, ``quad``).
    Unknown keys, values of the wrong JSON type and out-of-range values raise
    ``ConfigError``.
    """
    raw = _block(raw, "config root", ("market", "horizon", "reference", "solver", "quadrature", "sweep", "mc"))
    market_block = _block(raw.get("market", {}), "market", [f.name for f in fields(MarketParams)])
    market = casestudy.default_market(**{k: _real(v, f"market.{k}") for k, v in market_block.items()})

    ref_block = _block(raw.get("reference", {}), "reference", ("A", "B"))
    type_a = _type_block(ref_block.get("A", {}), market, "A")
    type_b = _type_block(ref_block.get("B", {}), market, "B")
    reference = Population([type_a, type_b])

    solver_block = _block(raw.get("solver", {}), "solver", ("tol", "max_iter", "damping"))
    convert = {"tol": _real, "max_iter": _integer, "damping": _real}
    solver_values = {k: convert[k](v, f"solver.{k}") for k, v in solver_block.items()}
    horizon = _real(raw.get("horizon", casestudy.DEFAULT_HORIZON), "horizon")
    try:
        solver = SolverConfig(**solver_values, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"invalid solver block: {exc}") from None

    quad_block = _block(raw.get("quadrature", {}), "quadrature", ("nodes", "L"))
    sweep_block = _block(raw.get("sweep", {}), "sweep", ("parameter", "grid"))
    parameter = sweep_block.get("parameter", "p_s_B")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    grid = sweep_block.get("grid", (0.0, 0.25, 0.5, 0.75, MAX_P_S))
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError(f"sweep grid must be a non-empty list, got {grid!r}")
    grid = tuple(_real(v, "sweep grid value") for v in grid)

    mc_block = _block(raw.get("mc", {}), "mc", ("n_paths", "seed"))
    return ExperimentConfig(
        reference=reference,
        solver=solver,
        n_nodes=_integer(quad_block.get("nodes", DEFAULT_NODES), "quadrature.nodes"),
        half_width=_real(quad_block.get("L", DEFAULT_HALF_WIDTH), "quadrature.L"),
        sweep_parameter=parameter,
        sweep_grid=grid,
        mc_paths=_integer(mc_block.get("n_paths", 100_000), "mc.n_paths"),
        mc_seed=_integer(mc_block.get("seed", 0), "mc.seed"),
    )


def read_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return load_config({})
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return load_config(raw)


def _alternative(cfg: ExperimentConfig, value: float) -> tuple[Population, float, list[str]]:
    """Type-B deviation for one grid point; clamps p_s to stay below 1."""
    notes: list[str] = []
    if cfg.sweep_parameter == "p_s_B" and value >= 1.0:
        notes.append(f"p_s_B={value} clamped to {MAX_P_S} (signal probability must stay below 1)")
        value = MAX_P_S
    b_ref = cfg.reference.types[1]
    fields = {"p_s_B": "p_s", "rho_B": "rho", "theta_B": "theta"}
    alt_b = replace(b_ref, **{fields[cfg.sweep_parameter]: value})
    return Population([cfg.reference.types[0], alt_b]), value, notes


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Solve the reference and one alternative equilibrium per grid point, all in one lockstep iteration.

    ``equilibrium._solve_mf_many`` advances every population together, one
    best response per iteration for all of them, each with the iterates,
    iteration count and M of its solve alone; a grid point equal to the
    reference iterates beside it, sharing its Newton rows, to the same bits,
    so its certainty equivalent is exactly 1.  Returns (rows, notes); each
    row carries the sweep value, the Type-A certainty equivalent
    exp(T (M_alt - M_ref)), residuals, iteration count of the alternative
    solve, both M constants and a converged flag.
    """
    alternatives = [_alternative(cfg, value) for value in cfg.sweep_grid]
    ref, *alts = _solve_mf_many([cfg.reference, *(pop for pop, _, _ in alternatives)], cfg.quadrature(), cfg.solver)
    notes = [f"reference: residual={ref.residual:.3e} iterations={ref.iterations}"]
    notes.extend(ref.notes)
    m_a_ref = ref.per_type_M[0]

    rows = []
    for value, (_, used, point_notes), alt in zip(cfg.sweep_grid, alternatives, alts):
        notes.extend(f"grid {value}: {n}" for n in (*point_notes, *alt.notes))
        m_a_alt = alt.per_type_M[0]
        rows.append(
            {
                "sweep_value": used,
                "certainty_equivalent": certainty_equivalent(m_a_alt, m_a_ref, cfg.horizon),
                "residual_ref": ref.residual,
                "residual_alt": alt.residual,
                "iterations": alt.iterations,
                "M_A_ref": m_a_ref,
                "M_A_alt": m_a_alt,
                "converged": ref.converged and alt.converged,
            }
        )
    return rows, notes


def _format(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _csv_text(table: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_format(row[c]) for c in CSV_COLUMNS) for row in table)
    return "\n".join(lines) + "\n"


def emit_csv(table: list[dict], path: str | Path) -> None:
    """Write the result table: header plus one row per grid point, 12
    significant digits, LF line endings."""
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(_csv_text(table))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _cmd_solve(cfg: ExperimentConfig) -> int:
    result = solve_mf_finite(cfg.reference, cfg.quadrature(), cfg.solver)
    print(f"converged={result.converged} residual={result.residual:.3e} iterations={result.iterations}")
    header = "type " + " ".join(f"{s.value:>10}" for s in SIGNALS)
    print(header)
    for i in range(len(cfg.reference)):
        cells = " ".join(f"{result.strategy.position(i, s):10.6f}" for s in SIGNALS)
        print(f"{i:4d} {cells}")
    for i, (M, v) in enumerate(zip(result.per_type_M, result.per_type_value)):
        print(f"type {i}: M={M:.10f} value(T={cfg.horizon})={v:.10f}")
    for note in result.notes:
        print(f"note: {note}")
    return 0 if result.converged else 2


def _cmd_sweep(cfg: ExperimentConfig, out: str | None) -> int:
    rows, notes = run_experiment(cfg)
    for note in notes:
        print(f"note: {note}")
    if out is not None:
        emit_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(_csv_text(rows), end="")
    return 0 if all(row["converged"] for row in rows) else 2


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    result = solve_mf_finite(cfg.reference, cfg.quadrature(), cfg.solver)
    means, errors = estimate_utility(cfg.reference, result.strategy, cfg.mc_paths, cfg.horizon, cfg.mc_seed)
    print(f"equilibrium residual={result.residual:.3e} (converged={result.converged})")
    for i, (closed, mean, error) in enumerate(zip(result.per_type_value, means, errors)):
        if error > 0.0:
            gap = (mean - closed) / error
        else:  # deterministic wealth (lam = 0, kappa = r): the estimate is exact or infinitely many SE off
            gap = 0.0 if mean == closed else math.copysign(math.inf, mean - closed)
        print(f"type {i}: closed-form={closed:.8f} mc={mean:.8f} se={error:.2e} gap={gap:+.2f} SE")
    return 0 if result.converged else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="signalmfg",
        description="Signal-driven mean-field equilibria for investors with relative performance concerns",
    )
    parser.add_argument("--config", help="JSON experiment configuration", default=None)
    parser.add_argument("--out", help="output CSV path (sweep)", default=None)
    parser.add_argument("--seed", type=int, help="Monte Carlo master seed", default=None)
    parser.add_argument("--nodes", type=int, help="quadrature node count", default=None)
    parser.add_argument("command", choices=("solve", "sweep", "simulate"))
    args = parser.parse_args(argv)

    try:
        cfg = read_config(args.config)
        # One replace: each builds and checks the config, the sweep's populations too.
        overrides = {name: v for name, v in (("mc_seed", args.seed), ("n_nodes", args.nodes)) if v is not None}
        cfg = replace(cfg, **overrides) if overrides else cfg
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.out)
        return _cmd_simulate(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
