"""Outside-in span tracer for the traced benchmark run.

``Tracer.patch()`` replaces each public layer function listed in ``LAYERS``
by a wrapper, in every ``signalmfg`` module namespace that holds it, and
``unpatch()`` puts the originals back.  Only the traced run imports this
module; the untraced run never sees a wrapper.

A wrapper records one span per call: name, start, end, the enclosing span
and the id of the benchmark operation it belongs to.  Spans are kept in
memory as flat arrays and written out once, at the end of the run.  A span's
self time is its duration minus the durations of its direct children (calls
are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer (module) -> public functions wrapped in the traced run.
LAYERS = {
    "cli": ("load_config", "run_experiment", "emit_csv"),
    "equilibrium": ("solve_mf_finite", "solve_nagent", "damped_fixed_point"),
    "response": (
        "best_response_to_stats",
        "best_response_nagent",
        "respond_type",
        "maximize_concave_1d",
        "target_no_signal",
        "target_signal",
        "mf_target_context",
        "nagent_target_context",
    ),
    "meanfield": ("aggregate",),
    "metrics": ("M_mf", "M_nagent"),
    "signals": ("conditional_prob", "classify_index"),
    "sim": ("estimate_utility", "simulate_common", "simulate_cohort", "simulate_agent"),
}

SOLVERS = ("equilibrium.solve_mf_finite", "equilibrium.solve_nagent")
OBJECTIVES = ("response.target_no_signal", "response.target_signal")
BEST_RESPONSES = ("response.best_response_to_stats", "response.best_response_nagent")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.op_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        # Per-call facts read off arguments and results.
        self.solves: list[tuple[int, bool, int]] = []  # (iterations, converged, restarts)
        self.classified = 0  # marks classified by classify_index calls
        self.paths = 0  # paths requested from estimate_utility
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build()

    def _build(self) -> None:
        importlib.import_module("signalmfg")
        modules = [m for name, m in sys.modules.items() if name == "signalmfg" or name.startswith("signalmfg.")]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"signalmfg.{layer}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swaps.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, op_of, parent, start, end, stack = (
            self.name_of, self.op_of, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            op_of.append(self.op_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _observer(self, name: str):
        if name in SOLVERS:
            def solve(args, result):
                restarts = sum("restarted" in note for note in result.notes)
                self.solves.append((result.iterations, bool(result.converged), restarts))
            return solve
        if name == "signals.classify_index":
            def classify(args, labels):
                self.classified += int(np.size(labels))
            return classify
        if name == "sim.estimate_utility":
            def paths(args, out):
                self.paths += int(args[2])
            return paths
        return None

    def patch(self) -> None:
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name_of, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        return {
            "name": name,
            "op": np.frombuffer(self.op_of, dtype=np.int64),
            "parent": parent,
            "start": start,
            "duration": duration,
            "self": duration - covered,
        }

    def layer_metrics(self, passes: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass, as {name: (value, unit)}."""
        s = self.spans()
        ids = {name: i for i, name in enumerate(self.names)}
        n_names = len(self.names)
        calls = np.bincount(s["name"], minlength=n_names)
        total = np.bincount(s["name"], weights=s["duration"], minlength=n_names)
        own = np.bincount(s["name"], weights=s["self"], minlength=n_names)
        parent_name = np.where(s["parent"] >= 0, s["name"][np.maximum(s["parent"], 0)], -1)

        def n(*names):
            return float(sum(calls[ids[x]] for x in names))

        def self_s(*names):
            return float(sum(own[ids[x]] for x in names))

        def total_s(*names):
            return float(sum(total[ids[x]] for x in names))

        def children(of: str, *names) -> float:
            child = np.isin(s["name"], [ids[x] for x in names])
            return float(np.count_nonzero(child & (parent_name == ids[of])))

        solves = len(self.solves)
        maximize = n("response.maximize_concave_1d")
        per_pass = {
            "equilibrium.solves": (solves, "count"),
            "equilibrium.map_evals": (children("equilibrium.damped_fixed_point", *BEST_RESPONSES), "count"),
            "equilibrium.restarts": (sum(r for _, _, r in self.solves), "count"),
            "equilibrium.nonconverged": (sum(not c for _, c, _ in self.solves), "count"),
            "equilibrium.self_s": (self_s(*SOLVERS, "equilibrium.damped_fixed_point"), "s"),
            "response.best_response.calls": (n(*BEST_RESPONSES), "count"),
            "response.respond_type.self_s": (self_s("response.respond_type"), "s"),
            "response.maximize.calls": (maximize, "count"),
            "response.maximize.self_s": (self_s("response.maximize_concave_1d"), "s"),
            "response.objective_evals": (n(*OBJECTIVES), "count"),
            "response.mf_context.calls": (n("response.mf_target_context"), "count"),
            "response.mf_context.self_s": (self_s("response.mf_target_context"), "s"),
            "response.nagent_context.calls": (n("response.nagent_target_context"), "count"),
            "response.nagent_context.self_s": (self_s("response.nagent_target_context"), "s"),
            "meanfield.aggregate.calls": (n("meanfield.aggregate"), "count"),
            "meanfield.aggregate.self_s": (self_s("meanfield.aggregate"), "s"),
            "metrics.M.calls": (n("metrics.M_mf", "metrics.M_nagent"), "count"),
            "metrics.M.self_s": (self_s("metrics.M_mf", "metrics.M_nagent"), "s"),
            "signals.conditional_prob.calls": (n("signals.conditional_prob"), "count"),
            "signals.conditional_prob.s": (total_s("signals.conditional_prob"), "s"),
            "signals.classify_index.calls": (n("signals.classify_index"), "count"),
            "signals.classify_index.s": (total_s("signals.classify_index"), "s"),
            "sim.estimate_utility.calls": (n("sim.estimate_utility"), "count"),
            "sim.estimate_utility.self_s": (self_s("sim.estimate_utility"), "s"),
            "sim.paths": (self.paths, "count"),
            "sim.jumps": (self.classified, "count"),
            "sim.simulate_common.s": (total_s("sim.simulate_common"), "s"),
            "sim.simulate_cohort.self_s": (self_s("sim.simulate_cohort"), "s"),
            "sim.simulate_agent.calls": (n("sim.simulate_agent"), "count"),
            "sim.simulate_agent.s": (total_s("sim.simulate_agent"), "s"),
            "cli.run_experiment.self_s": (self_s("cli.run_experiment"), "s"),
            "cli.emit_csv.s": (total_s("cli.emit_csv"), "s"),
            "trace.spans": (float(s["name"].size), "count"),
        }
        out = {name: (float(value) / passes, unit) for name, (value, unit) in per_pass.items()}
        # Ratios are not divided by the pass count.
        out["equilibrium.iterations_per_solve"] = (
            sum(i for i, _, _ in self.solves) / solves if solves else 0.0, "count"
        )
        objective_in_maximize = children("response.maximize_concave_1d", *OBJECTIVES)
        out["response.evals_per_maximize"] = (objective_in_maximize / maximize if maximize else 0.0, "count")
        return out

    def solve_seconds(self) -> list[float]:
        """Wall time of every traced equilibrium solve."""
        s = self.spans()
        ids = [self.names.index(x) for x in SOLVERS]
        return s["duration"][np.isin(s["name"], ids)].tolist()

    def write(self, path: Path) -> None:
        """Write every span (name table plus one array per field) as an uncompressed ``.npz``."""
        s = self.spans()
        np.savez(
            path,
            names=np.array(self.names),
            name=s["name"],
            op=s["op"],
            parent=s["parent"],
            start=s["start"],
            end=s["start"] + s["duration"],
            self_s=s["self"],
        )
