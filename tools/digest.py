"""Print the sha256 of every output that a "bit for bit" claim compares.

    PYTHONPATH=src python tools/digest.py [--parent DIR]

Without ``PYTHONPATH`` it digests the installed ``signalmfg``.  One line per
output, ``<sha256>  <name>``:

* ``sweep``: each benchmark grid (``p_s_B``, ``rho_B``, ``theta_B``) through
  ``cli.run_experiment`` at 128 and 64 nodes: the CSV that ``cli.emit_csv``
  writes, and the notes;
* ``solve_mf_finite``: strategy, M, values, residual, iterations and notes on
  the reference population, five extreme single types, a distinct B type,
  a mixed-rho population, a sizeless type beside sized ones and 200 drawn
  types;
* ``solve_nagent``: the same fields for 5 and 20 reference players and a
  two-group game of four;
* the statistic-space solve and the discrete finite solve on the
  three-mark law (-1, 0.25), (0, 0.5), (1.5, 0.25);
* Monte Carlo at the reference equilibrium: the means and standard errors
  of one 1e5-path ``estimate_utility``; one ``simulate_agent`` (terminal
  wealth and signals) and one 5 000-agent ``simulate_cohort`` (type indices
  and terminal wealths) on a ``simulate_common`` path; and a 2e4-path
  ``estimate_utility`` at the distinct-B equilibrium (two rho, two
  mixtures).

With ``--parent DIR`` the same digests are also taken in the checkout
``DIR`` (its ``src`` first on the path, in a child process) and the outputs
that differ are listed; the exit status is 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from signalmfg import casestudy, cli
from signalmfg.equilibrium import solve_mf_finite, solve_mf_statistic, solve_nagent
from signalmfg.model import Population
from signalmfg.quad import Quadrature
from signalmfg.sim import estimate_utility, simulate_agent, simulate_cohort, simulate_common

GRIDS = {
    "p_s_B": [0.0, 0.25, 0.5, 0.75, 1.0],
    "rho_B": [-0.9, -0.45, 0.0, 0.45, 0.9],
    "theta_B": [0.0, 0.25, 0.5, 0.75, 1.0],
}
# (market overrides, type overrides) of single types at the edges the solvers must survive.
EXTREME_TYPES = [
    ({"sigma_hat": 4.0}, {"alpha": 100.0}),
    ({"sigma_hat": 2.0}, {"alpha": 100.0}),
    ({"lam": 0.0, "sigma_hat": 2.0}, {"alpha": 51.0}),
    ({"lam": 1.0, "sigma_hat": 4.0}, {"alpha": 42.0, "theta": 1.0}),
    ({"lam": 1.0, "sigma_hat": 2.0}, {"alpha": 51.0, "p_s": 0.0, "rho": 0.75}),
]
MARKS = [(-1.0, 0.25), (0.0, 0.5), (1.5, 0.25)]
MC_PATHS, MC_SEED = 100_000, 2401
COHORT_AGENTS, DISTINCT_PATHS = 5_000, 20_000


def _sha(*parts) -> str:
    """sha256 of the parts: text by its UTF-8 bytes, numbers and arrays by their float64 bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.asarray(part, dtype=float).tobytes())
        h.update(b"\0")
    return h.hexdigest()


def _result(result) -> str:
    return _sha(result.strategy.table, result.per_type_M, result.per_type_value, result.residual,
                result.iterations, "\n".join(result.notes))


def digests() -> dict[str, str]:
    """Each output's name and sha256, from the ``signalmfg`` on the path."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for nodes in (128, 64):
            for parameter, grid in GRIDS.items():
                cfg = cli.load_config({"quadrature": {"nodes": nodes}, "sweep": {"parameter": parameter, "grid": grid}})
                rows, notes = cli.run_experiment(cfg)
                cli.emit_csv(rows, Path(tmp) / "sweep.csv")
                out[f"sweep {parameter} {nodes} nodes: csv"] = _sha((Path(tmp) / "sweep.csv").read_text())
                out[f"sweep {parameter} {nodes} nodes: notes"] = _sha("\n".join(notes))

    q = Quadrature.standard_normal()
    m, investor = casestudy.default_market, casestudy.investor
    rng = np.random.default_rng(3)
    drawn = [investor(p_s=float(rng.uniform(0.0, 0.99)), rho=float(rng.uniform(-0.9, 0.9)),
                      theta=float(rng.uniform(0.0, 1.0)), alpha=float(rng.uniform(1.5, 4.0)), weight=1 / 200)
             for _ in range(200)]
    populations = {
        "reference": casestudy.reference_population(),
        **{f"extreme type {i}": Population([investor(m(**market), weight=1.0, **kwargs)])
           for i, (market, kwargs) in enumerate(EXTREME_TYPES)},
        "distinct B (p_s 0.25, rho 0.8)": casestudy.alternative_population(p_s_b=0.25, rho_b=0.8),
        "mixed rho": Population([investor(rho=0.3, weight=0.25), investor(rho=-0.6, p_s=0.7, weight=0.25),
                                 investor(rho=0.9, theta=1.0, weight=0.5)]),
        "sizeless beside sized": Population([investor(m(kappa_hat=0.0, sigma_hat=0.0), weight=0.5),
                                             investor(m(sigma_hat=0.3), rho=0.8, weight=0.5)]),
        "200 drawn types": Population(drawn),
    }
    for name, pop in populations.items():
        out[f"solve_mf_finite {name}"] = _result(solve_mf_finite(pop, q))

    reference, other = investor(), investor(p_s=0.25)
    games = {"5 players": [reference] * 5, "20 players": [reference] * 20,
             "two groups": [reference] * 2 + [other] * 2}
    for name, players in games.items():
        out[f"solve_nagent {name}"] = _result(solve_nagent(players, q))

    pop = casestudy.reference_population()
    out["solve_mf_statistic three marks"] = _result(solve_mf_statistic(pop, MARKS))
    discrete = Quadrature.discrete([mark for mark, _ in MARKS], [p for _, p in MARKS])
    out["solve_mf_finite three marks"] = _result(solve_mf_finite(pop, discrete))

    strategy = solve_mf_finite(pop, q).strategy
    means, errors = estimate_utility(pop, strategy, MC_PATHS, 1.0, MC_SEED)
    out[f"estimate_utility reference {MC_PATHS} paths"] = _sha(means, errors)
    path = simulate_common(1.0, pop.types[0].market, MC_SEED)
    agent = simulate_agent(pop.types[0], strategy.row(0), path, MC_SEED)
    out["simulate_agent reference"] = _sha(agent.terminal_wealth, " ".join(z.value for z in agent.signals))
    out[f"simulate_cohort reference {COHORT_AGENTS} agents"] = _sha(*simulate_cohort(COHORT_AGENTS, pop, strategy, path,
                                                                                    MC_SEED))
    distinct = populations["distinct B (p_s 0.25, rho 0.8)"]
    means, errors = estimate_utility(distinct, solve_mf_finite(distinct, q).strategy, DISTINCT_PATHS, 1.0, MC_SEED)
    out[f"estimate_utility distinct B {DISTINCT_PATHS} paths"] = _sha(means, errors)
    return out


def _in_checkout(checkout: Path) -> dict[str, str]:
    """``digests()`` of ``checkout``, run in a child process with its ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return {name: sha for sha, name in (line.split("  ", 1) for line in proc.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    args = parser.parse_args(argv)
    found = digests()
    for name, sha in found.items():
        print(f"{sha}  {name}")
    if args.parent is None:
        return 0
    parent = _in_checkout(args.parent.resolve())
    differ = [name for name in {**found, **parent} if found.get(name) != parent.get(name)]
    for name in differ:
        print(f"differs from {args.parent}: {name}")
    if not differ:
        print(f"no output differs from {args.parent} ({len(found)} outputs)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
