"""Compare two checkouts of this repository on one machine and write ``BENCH_<pr>.json``.

    python tools/bench_pair.py --parent DIR --change DIR --pr N [--seed 2101]

Each directory is a full checkout (``src/`` and ``perfbench/``).  The script
records three things, parent and change side by side:

* ``benchmark``: ``perfbench/run.py`` on every workload, 10 pairs of runs of
  the benchmark's 30 s each, alternating which checkout runs first, one seed
  per pair (``--seed`` + pair).  Per end-to-end metric: every run, the
  median and quartiles of each side, and the pairs the change wins.
* ``counts``: per sweep of each benchmark grid, the lockstep rounds (best
  responses), environment builds (writes of an environment into a target
  context), ``meanfield.aggregate`` calls, ``response._derivatives``
  calls and Newton rows (the (investor, signal) rows entering
  ``response._newton``).  Counts repeat exactly and do not depend on the
  machine.
* ``solves``: ``time.perf_counter`` seconds of single solves, 5 pairs of
  processes alternating checkouts: the reference ``solve_mf_finite``, 200
  drawn types, and ``solve_nagent`` on 20 and 80 distinct players.  Per
  solve, as per end-to-end metric: each process's median, the median and
  quartiles of each side, and the pairs the change wins.
* ``monte_carlo``: one 1e5-path ``estimate_utility`` at the reference
  equilibrium: the marks it draws (read off its ``jump_sizes`` calls), the
  values it passes to the normal CDF (``signals.std_normal_cdf``; the
  aggregate's node law included) and its ``tracemalloc`` peak in MB.  All
  three repeat exactly; the peak is the allocation behind the
  ``montecarlo`` workload's ``peak_rss_mb``, without the interpreter and
  imports.  Beside them, the CPU seconds of the same run in three parts,
  each the median of 5 alternating runs per side: draws (the calls on the
  generators that ``sim._generator`` returns), CDF (the calls of
  ``signals.std_normal_cdf``) and the rest.

Run it on an otherwise idle machine; it starts one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "nagent", "montecarlo")
PAIRS = 10
SECONDS = 30  # BENCHMARK.json's run_seconds
METRICS = ("pass_s", "setup_s", "peak_rss_mb")
GRIDS = {
    "p_s_B": [0.0, 0.25, 0.5, 0.75, 1.0],
    "rho_B": [-0.9, -0.45, 0.0, 0.45, 0.9],
    "theta_B": [0.0, 0.25, 0.5, 0.75, 1.0],
}

# Run inside a checkout with its ``src`` first on the path; prints one JSON line.
COUNTS = f"""
import json
from signalmfg import cli, equilibrium, meanfield, response

calls = {{}}

def count(module, name, key):
    original = getattr(module, name, None)
    if original is not None:
        setattr(module, name, lambda *a, **k: calls.__setitem__(key, calls.get(key, 0) + 1) or original(*a, **k))

count(equilibrium, "_best_rows", "rounds")
count(response, "_with_environment", "environment_builds")
for module in (meanfield, response, equilibrium):
    count(module, "aggregate", "aggregate_calls")
count(response, "_derivatives", "derivative_calls")
newton = response._newton

def counted_newton(ctx, opt_tol, start):
    calls["newton_rows"] = calls.get("newton_rows", 0) + start.size
    return newton(ctx, opt_tol, start)

response._newton = counted_newton
out = {{}}
for parameter, grid in {GRIDS!r}.items():
    calls.clear()
    rows, _ = cli.run_experiment(cli.load_config({{"sweep": {{"parameter": parameter, "grid": grid}}}}))
    keys = ("rounds", "environment_builds", "aggregate_calls", "derivative_calls", "newton_rows")
    out[parameter] = {{"iterations": [row["iterations"] for row in rows], **{{k: calls.get(k, 0) for k in keys}}}}
print(json.dumps(out))
"""

SOLVES = """
import json, statistics, time
import numpy as np
from signalmfg import casestudy
from signalmfg.equilibrium import solve_mf_finite, solve_nagent
from signalmfg.model import Population
from signalmfg.quad import Quadrature

q = Quadrature.standard_normal()
rng = np.random.default_rng(3)
drawn = Population([casestudy.investor(p_s=float(rng.uniform(0.0, 0.99)), rho=float(rng.uniform(-0.9, 0.9)),
                                       theta=float(rng.uniform(0.0, 1.0)), alpha=float(rng.uniform(1.5, 4.0)),
                                       weight=1 / 200) for _ in range(200)])

def players(n):
    return [casestudy.investor(theta=0.1 + 0.8 * i / (n - 1), alpha=1.5 + i / (n - 1)) for i in range(n)]

cases = {
    "reference solve_mf_finite": (lambda: solve_mf_finite(casestudy.reference_population(), q), 30),
    "solve_mf_finite, 200 drawn types": (lambda: solve_mf_finite(drawn, q), 5),
    "solve_nagent, 20 distinct players": (lambda: solve_nagent(players(20), q), 10),
    "solve_nagent, 80 distinct players": (lambda: solve_nagent(players(80), q), 3),
}
out = {}
for name, (solve, repeats) in cases.items():
    result = solve()
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        solve()
        seconds.append(time.perf_counter() - start)
    out[name] = {"median_s": statistics.median(seconds), "iterations": result.iterations}
print(json.dumps(out))
"""

MONTE_CARLO = """
import json, tracemalloc
import numpy as np
from signalmfg import Quadrature, casestudy, signals, sim
from signalmfg.equilibrium import solve_mf_finite

pop = casestudy.reference_population()
strategy = solve_mf_finite(pop, Quadrature.standard_normal()).strategy
marks, jump_sizes = [], sim.jump_sizes
sim.jump_sizes = lambda types, e_c: marks.append(len(e_c)) or jump_sizes(types, e_c)
cdf_values, cdf = [], signals.std_normal_cdf
signals.std_normal_cdf = lambda x: cdf_values.append(np.size(x)) or cdf(x)
tracemalloc.start()
sim.estimate_utility(pop, strategy, 100_000, 1.0, 2401)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"paths": 100_000, "marks": sum(marks), "cdf_values": sum(cdf_values),
                  "tracemalloc_peak_mb": peak / 1e6}))
"""

# CPU seconds of one 1e5-path estimate_utility after a warm-up run: in all, in draws and in the normal CDF.
MONTE_CARLO_SPLIT = """
import json, time
from signalmfg import Quadrature, casestudy, signals, sim
from signalmfg.equilibrium import solve_mf_finite

pop = casestudy.reference_population()
strategy = solve_mf_finite(pop, Quadrature.standard_normal()).strategy
spent = {"draws_s": 0.0, "cdf_s": 0.0}

def timed(part, call):
    def timed_call(*args, **kwargs):
        start = time.process_time()
        out = call(*args, **kwargs)
        spent[part] += time.process_time() - start
        return out
    return timed_call

class Draws:
    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return timed("draws_s", getattr(self.rng, name))

generator = sim._generator
sim._generator = lambda *key: Draws(generator(*key))
signals.std_normal_cdf = timed("cdf_s", signals.std_normal_cdf)
sim.estimate_utility(pop, strategy, 100_000, 1.0, 2400)
spent.update(draws_s=0.0, cdf_s=0.0)
start = time.process_time()
sim.estimate_utility(pop, strategy, 100_000, 1.0, 2401)
total = time.process_time() - start
print(json.dumps({"total_s": total, **spent, "rest_s": total - spent["draws_s"] - spent["cdf_s"]}))
"""


def python_in(checkout: Path, code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_run(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: result["metrics"][name]["value"] for name in METRICS}
    return {**metrics, "correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float]) -> dict:
    """Each side's runs summed up, the pairs (runs at one index) the change is lower in, and its median's change."""
    return {
        "parent": summary(parent),
        "change": summary(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "relative_change": statistics.median(change) / statistics.median(parent) - 1.0,
    }


def alternate(run, pairs: int):
    """``run(side, pair)`` for ``pairs`` pairs, the parent first in even pairs; returns each side's results."""
    out = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            out[side].append(run(side, pair))
            print(f"  pair {pair} {side}: {json.dumps(out[side][-1])[:160]}", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=2101)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "pr": args.pr,
        "machine": {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "method": f"{PAIRS} alternating pairs per workload, perfbench/run.py --seconds {SECONDS}, "
                  f"seeds {args.seed}..{args.seed + PAIRS - 1}; solves: 5 alternating pairs of processes; "
                  "the monte carlo split: medians of 5 alternating runs",
    }
    print("counts", file=sys.stderr)
    report["counts"] = {side: python_in(path, COUNTS) for side, path in checkouts.items()}
    print("monte carlo", file=sys.stderr)
    report["monte_carlo"] = {side: python_in(path, MONTE_CARLO) for side, path in checkouts.items()}
    split = alternate(lambda side, _: python_in(checkouts[side], MONTE_CARLO_SPLIT), 5)
    for side, runs in split.items():
        report["monte_carlo"][side]["cpu_s_median_of_5"] = {part: statistics.median(run[part] for run in runs)
                                                              for part in runs[0]}
    print("solves", file=sys.stderr)
    solves = alternate(lambda side, _: python_in(checkouts[side], SOLVES), 5)
    report["solves"] = {}
    for name in solves["parent"][0]:
        parent, change = ([run[name]["median_s"] for run in solves[side]] for side in ("parent", "change"))
        report["solves"][name] = compare(parent, change)
    report["benchmark"] = {}
    for workload in WORKLOADS:
        print(workload, file=sys.stderr)
        runs = alternate(lambda side, pair: benchmark_run(checkouts[side], workload, args.seed + pair), PAIRS)
        entry = {"failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                 "all_correct": all(r["correct"] for rs in runs.values() for r in rs)}
        for metric in METRICS:
            entry[metric] = compare(*([r[metric] for r in runs[side]] for side in ("parent", "change")))
        report["benchmark"][workload] = entry
        Path(f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=1) + "\n")
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
