"""The three benchmark workloads.

Each workload is a sequence of passes.  Pass ``p`` of a run with seed ``s``
draws whatever it draws from ``numpy.random.default_rng([s, p])`` only, so any
pass can be replayed exactly.  The library receives nothing but the generated
inputs: JSON-style configs, player lists built from them, and Monte Carlo
master seeds.

A workload provides

* ``setup(out_dir)``: build the state every pass needs (counted in ``setup_s``);
* ``make_pass(state, seed, p)``: the operations of one pass, as ``Op``s;
* ``run(state, op)``: the timed call into the library;
* ``check(state, op, out)``: the output checks, run outside the timed region;
* ``figures(records)``: the workload's own figures from the timed records.

Only public functions of ``cli``, ``equilibrium``, ``sim`` and ``metrics`` are
called in the timed region, always through the module attribute so that the
traced run's wrappers are picked up.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from signalmfg import cli, equilibrium, meanfield, metrics, sim

# The CLI's default p_s_B grid and evenly spaced rho_B and theta_B grids.  They
# are fixed: with grids drawn from the seed, the median solver iterations per
# sweep differed more than twofold between seeds (see README).
SWEEP_GRIDS = {
    "p_s_B": (0.0, 0.25, 0.5, 0.75, 1.0),
    "rho_B": (-0.9, -0.45, 0.0, 0.45, 0.9),
    "theta_B": (0.0, 0.25, 0.5, 0.75, 1.0),
}

NAGENT_SIZES = (5, 20)
MIXED_PLAYERS = 4
# p_s of the two-group game's second group; the first group and both symmetric
# games use the case-study reference type (p_s = rho = theta = 0.5).  At 0.25
# the solve stalls near 4e-8, restarts at damping 0.5 and converges after 265
# iterations; drawn from the seed, p_s gave 11 to 442 iterations (see README).
MIXED_P_S = 0.25
IDENTICAL_ROWS_TOL = 1e-12

MC_PATHS = 100_000
COHORT_AGENTS = 5_000
# |estimate - closed form| <= 5 SE: a false alarm per check has probability ~6e-7.
MC_SE_BOUND = 5.0


@dataclass
class Op:
    """One timed call: its kind and its inputs."""

    kind: str
    inputs: dict


@dataclass
class Verdict:
    """Outcome of the checks on one operation.

    ``problems`` lists wrong outputs; a reported non-convergence is a failed
    operation (``converged`` false) but not a wrong output.  ``counts`` holds
    work counts read off the outputs, which repeat exactly for a seed.
    """

    converged: bool = True
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _seconds(records: list[dict], kind: str) -> list[float]:
    return [r["seconds"] for r in records if r["kind"] == kind]


def _total(records: list[dict], kind: str, key: str) -> int:
    return sum(r["counts"].get(key, 0) for r in records if r["kind"] == kind)


class Sweep:
    """Certainty-equivalent sweeps through the CLI: load_config, run_experiment, emit_csv."""

    def setup(self, out_dir: Path):
        cfg = cli.load_config({})
        return {"q": cfg.quadrature(), "solver": cfg.solver, "out_dir": out_dir, "csv_repeat_checked": False}

    def make_pass(self, state, seed: int, p: int) -> list[Op]:
        """The three sweeps in a drawn order; one drawn grid point, on a rotating
        parameter, is re-solved in the checks."""
        rng = np.random.default_rng([seed, p])
        parameters = list(SWEEP_GRIDS)
        checked = parameters[p % len(parameters)]
        ops = []
        for k in rng.permutation(len(parameters)):
            parameter = parameters[k]
            grid = SWEEP_GRIDS[parameter]
            resolve = int(rng.integers(len(grid))) if parameter == checked else None
            ops.append(Op(parameter, {"raw": {"sweep": {"parameter": parameter, "grid": grid}}, "resolve": resolve}))
        return ops

    def figures(self, records: list[dict]) -> dict:
        """Grid rows per second; each call's reference solve counts in the time."""
        rows = sum(_total(records, k, "rows") for k in SWEEP_GRIDS)
        return {"sweep_points_per_s": rows / sum(sum(_seconds(records, k)) for k in SWEEP_GRIDS)}

    def run(self, state, op: Op):
        cfg = cli.load_config(op.inputs["raw"])
        rows, _ = cli.run_experiment(cfg)
        path = state["out_dir"] / "sweep.csv"
        cli.emit_csv(rows, path)
        return rows, path.read_bytes()

    def check(self, state, op: Op, out) -> Verdict:
        rows, csv_bytes = out
        verdict = Verdict()
        grid = op.inputs["raw"]["sweep"]["grid"]
        if len(rows) != len(grid):
            verdict.problems.append(f"{len(rows)} rows for {len(grid)} grid points")
        verdict.converged = all(row["converged"] for row in rows)
        for row in rows:
            ce = row["certainty_equivalent"]
            if not (math.isfinite(ce) and ce > 0.0):
                verdict.problems.append(f"certainty equivalent {ce} at {row['sweep_value']}")
        verdict.counts = {"rows": len(rows), "iterations": [row["iterations"] for row in rows]}

        k = op.inputs["resolve"]
        if k is not None and k < len(rows):
            self._resolve(state, op, rows[k], verdict)
        if not state["csv_repeat_checked"]:
            state["csv_repeat_checked"] = True
            again, _ = cli.run_experiment(cli.load_config(op.inputs["raw"]))
            path = state["out_dir"] / "sweep_repeat.csv"
            cli.emit_csv(again, path)
            if path.read_bytes() != csv_bytes:
                verdict.problems.append("repeated config emitted a different CSV")
        return verdict

    def _resolve(self, state, op: Op, row: dict, verdict: Verdict) -> None:
        """Re-solve one grid point directly and recompute its fixed-point residual."""
        parameter = op.inputs["raw"]["sweep"]["parameter"]
        field_name = parameter[: -len("_B")]
        pop = cli.load_config({"reference": {"B": {field_name: row["sweep_value"]}}}).reference
        q, solver = state["q"], state["solver"]
        result = equilibrium.solve_mf_finite(pop, q, solver)
        gap = equilibrium.residual(pop, result.strategy, q, solver.opt_tol)
        if not gap < solver.tol:
            verdict.problems.append(f"re-solved {parameter}={row['sweep_value']}: residual {gap:.3e}")
        if abs(result.per_type_M[0] - row["M_A_alt"]) > 1e-9:
            verdict.problems.append(f"re-solved {parameter}={row['sweep_value']}: M_A differs from the row")


class NAgent:
    """n-player Nash solves: two symmetric games and one two-group game."""

    def setup(self, out_dir: Path):
        cfg = cli.load_config({})
        return {"q": cfg.quadrature(), "solver": cfg.solver, "reference": cfg.reference.types[0]}

    def make_pass(self, state, seed: int, p: int) -> list[Op]:
        """The same three games in every pass, whatever the seed."""
        reference = state["reference"]
        ops = [Op(f"n{n}", {"players": (reference,) * n, "groups": (n,)}) for n in NAGENT_SIZES]
        other = cli.load_config({"reference": {"A": {"p_s": MIXED_P_S}}}).reference.types[0]
        half = MIXED_PLAYERS // 2
        ops.append(Op("mixed", {"players": (reference,) * half + (other,) * half, "groups": (half, half)}))
        return ops

    def figures(self, records: list[dict]) -> dict:
        """Median time of each game's solve, with its sample count."""
        out = {}
        for kind in ("n5", "n20", "mixed"):
            out[f"nagent_{kind}_solve_s"] = statistics.median(_seconds(records, kind))
            out[f"nagent_{kind}_samples"] = len(_seconds(records, kind))
        return out

    def run(self, state, op: Op):
        return equilibrium.solve_nagent(op.inputs["players"], state["q"], state["solver"])

    def check(self, state, op: Op, result) -> Verdict:
        verdict = Verdict(converged=bool(result.converged))
        table = result.strategy.table
        start = 0
        for size in op.inputs["groups"]:
            group = table[start : start + size]
            spread = float(np.max(np.abs(group - group[0])))
            if not spread <= IDENTICAL_ROWS_TOL:
                verdict.problems.append(f"identical players' rows differ by {spread:.3e}")
            start += size
        if not np.all(np.isfinite(result.per_type_M)):
            verdict.problems.append("non-finite value constant")
        restarts = sum("restarted" in note for note in result.notes)
        verdict.counts = {"iterations": result.iterations, "restarts": restarts}
        return verdict


class MonteCarlo:
    """Exact Monte Carlo against the closed forms at the reference equilibrium."""

    def setup(self, out_dir: Path):
        cfg = cli.load_config({})
        q = cfg.quadrature()
        ref = equilibrium.solve_mf_finite(cfg.reference, q, cfg.solver)
        if not ref.converged:
            raise RuntimeError("reference equilibrium did not converge")
        return {"pop": cfg.reference, "ref": ref, "horizon": cfg.horizon}

    def make_pass(self, state, seed: int, p: int) -> list[Op]:
        rng = np.random.default_rng([seed, p])
        eu_seed, cohort_seed = (int(s) for s in rng.integers(0, 2**62, size=2))
        return [Op("estimate_utility", {"seed": eu_seed}), Op("cohort", {"seed": cohort_seed})]

    def figures(self, records: list[dict]) -> dict:
        """Paths per second through estimate_utility, agents per second through a cohort."""
        paths = _total(records, "estimate_utility", "paths")
        agents = _total(records, "cohort", "agents")
        return {
            "mc_paths_per_s": paths / sum(_seconds(records, "estimate_utility")),
            "cohort_agents_per_s": agents / sum(_seconds(records, "cohort")),
        }

    def run(self, state, op: Op):
        pop, strategy, horizon = state["pop"], state["ref"].strategy, state["horizon"]
        if op.kind == "estimate_utility":
            return sim.estimate_utility(pop, strategy, MC_PATHS, horizon, op.inputs["seed"])
        path = sim.simulate_common(horizon, pop.types[0].market, op.inputs["seed"])
        _, wealth = sim.simulate_cohort(COHORT_AGENTS, pop, strategy, path, op.inputs["seed"])
        return path, wealth

    def check(self, state, op: Op, out) -> Verdict:
        verdict = Verdict()
        pop, ref, horizon = state["pop"], state["ref"], state["horizon"]
        if op.kind == "estimate_utility":
            means, errors = out
            for i, t in enumerate(pop.types):
                closed = metrics.value_mf(t, ref.per_type_M[i], t.x0, ref.stats.xbar0, horizon)
                gap = abs(means[i] - closed)
                if not gap <= MC_SE_BOUND * errors[i]:
                    verdict.problems.append(f"type {i}: |mc - closed form| = {gap / errors[i]:.2f} SE")
            verdict.counts = {"paths": MC_PATHS}
            return verdict
        path, wealth = out
        if not np.all(wealth > 0.0) or not np.all(np.isfinite(wealth)):
            verdict.problems.append("non-positive or non-finite terminal wealth")
            return verdict
        log_w = np.log(wealth)
        expected = meanfield.mean_log_terminal(ref.stats, path, horizon)
        se = max(float(np.std(log_w, ddof=1)) / math.sqrt(wealth.size), 1e-12 * (1.0 + abs(expected)))
        gap = abs(float(np.mean(log_w)) - expected)
        if not gap <= MC_SE_BOUND * se:
            verdict.problems.append(f"cohort mean log wealth off by {gap / se:.2f} SE")
        verdict.counts = {"agents": int(wealth.size), "common_jumps": int(path.n_jumps)}
        return verdict


WORKLOADS = {"sweep": Sweep, "nagent": NAgent, "montecarlo": MonteCarlo}
