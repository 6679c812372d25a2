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
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import casestudy
from .equilibrium import SolverConfig, solve_mf_finite
from .metrics import certainty_equivalent
from .model import SIGNALS, InvestorType, MarketParams, Population, validate_population
from .quad import Quadrature
from .sim import estimate_utility

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
    """Fully resolved experiment description."""

    market: MarketParams
    reference: Population
    solver: SolverConfig
    n_nodes: int
    half_width: float
    sweep_parameter: str
    sweep_grid: tuple[float, ...]
    mc_paths: int
    mc_seed: int

    @property
    def horizon(self) -> float:
        """Investment horizon; the solver block carries it."""
        return self.solver.horizon

    def quadrature(self) -> Quadrature:
        return Quadrature.standard_normal(self.n_nodes, self.half_width)


def _type_block(block: dict, market: MarketParams, label: str) -> InvestorType:
    known = {"x0", "p_s", "rho", "theta", "alpha", "weight"}
    extra = set(block) - known
    if extra:
        raise ConfigError(f"unknown keys in type block {label!r}: {sorted(extra)}")
    # Omitted keys take the case-study defaults of ``casestudy.investor``.
    return casestudy.investor(market, **{k: float(v) for k, v in block.items()})


def load_config(raw: dict) -> ExperimentConfig:
    """Build an ``ExperimentConfig`` from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    market = casestudy.default_market(**{k: float(v) for k, v in raw.get("market", {}).items()})

    ref_block = raw.get("reference", {})
    type_a = _type_block(ref_block.get("A", {}), market, "A")
    type_b = _type_block(ref_block.get("B", {}), market, "B")
    reference = Population([type_a, type_b])
    problems = validate_population(reference)
    if problems:
        raise ConfigError("invalid reference population: " + "; ".join(problems))

    solver_block = raw.get("solver", {})
    solver = SolverConfig(
        tol=float(solver_block.get("tol", 1e-8)),
        max_iter=int(solver_block.get("max_iter", 500)),
        damping=float(solver_block.get("damping", 1.0)),
        horizon=float(raw.get("horizon", casestudy.DEFAULT_HORIZON)),
    )

    quad_block = raw.get("quadrature", {})
    sweep_block = raw.get("sweep", {})
    parameter = sweep_block.get("parameter", "p_s_B")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    grid = tuple(float(v) for v in sweep_block.get("grid", (0.0, 0.25, 0.5, 0.75, MAX_P_S)))
    if not grid:
        raise ConfigError("sweep grid must not be empty")

    mc_block = raw.get("mc", {})
    cfg = ExperimentConfig(
        market=market,
        reference=reference,
        solver=solver,
        n_nodes=int(quad_block.get("nodes", 128)),
        half_width=float(quad_block.get("L", 8.0)),
        sweep_parameter=parameter,
        sweep_grid=grid,
        mc_paths=int(mc_block.get("n_paths", 100_000)),
        mc_seed=int(mc_block.get("seed", 0)),
    )
    for value in grid:
        problems = validate_population(_alternative(cfg, value)[0])
        if problems:
            raise ConfigError(f"invalid sweep point {parameter}={value}: " + "; ".join(problems))
    return cfg


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
    """Solve the reference once, then one alternative equilibrium per grid point.

    Returns (rows, notes); each row carries the sweep value, the Type-A
    certainty equivalent exp(T (M_alt - M_ref)), residuals, iteration count
    of the alternative solve, both M constants and a converged flag.
    """
    q = cfg.quadrature()
    ref = solve_mf_finite(cfg.reference, q, cfg.solver)
    notes = [f"reference: residual={ref.residual:.3e} iterations={ref.iterations}"]
    notes.extend(ref.notes)
    m_a_ref = ref.per_type_M[0]

    rows = []
    for value in cfg.sweep_grid:
        alt_pop, used, point_notes = _alternative(cfg, value)
        alt = solve_mf_finite(alt_pop, q, cfg.solver)
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
        gap = (mean - closed) / error
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
        if args.seed is not None:
            cfg = replace(cfg, mc_seed=args.seed)
        if args.nodes is not None:
            cfg = replace(cfg, n_nodes=args.nodes)
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
