"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that

* two traced runs with the same seed give identical counts: the per-operation
  counts of the untraced and the traced half, and every per-layer metric whose
  unit is ``count``;
* tracing changes no output: each run's traced half repeats the counts of its
  untraced half;
* the inputs generated for ``nagent`` are exactly what ``solve_nagent`` receives.

Exits with code 1 and a message on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
# A run this short does one pass in each half, so the per-pass counts cover the same work.
SECONDS = "0.01"


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_counts_repeat(workload: str) -> None:
    (report_a, result_a), (report_b, result_b) = traced_run(workload), traced_run(workload)
    untraced_a = [op["counts"] for op in report_a["ops"]]
    untraced_b = [op["counts"] for op in report_b["ops"]]
    expect(untraced_a and all(untraced_a), f"{workload}: no counts recorded")
    expect(untraced_a == untraced_b, f"{workload}: untraced counts differ between runs")
    expect(report_a["traced_counts"] == report_b["traced_counts"], f"{workload}: traced counts differ between runs")
    expect(untraced_a == report_a["traced_counts"], f"{workload}: tracing changed the counts")
    counts_a = {k: v["value"] for k, v in result_a["metrics"].items() if v["unit"] == "count"}
    counts_b = {k: v["value"] for k, v in result_b["metrics"].items() if v["unit"] == "count"}
    expect(counts_a == counts_b, f"{workload}: per-layer counts differ: {counts_a} vs {counts_b}")
    print(f"ok   {workload}: counts repeat ({len(counts_a)} per-layer counts)")


def check_nagent_inputs() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from signalmfg import equilibrium

    workload = workloads.NAgent()
    state = workload.setup(ROOT / ".bench_out")
    received = []
    original = equilibrium.solve_nagent

    def recording(types, q, cfg):
        received.append((tuple(types), q, cfg))
        return original(types, q, cfg)

    equilibrium.solve_nagent = recording
    try:
        ops = workload.make_pass(state, SEED, 0)
        for op in ops:
            workload.run(state, op)
    finally:
        equilibrium.solve_nagent = original
    expect(len(received) == len(ops), "nagent: one solve per operation")
    for op, (types, q, cfg) in zip(ops, received):
        expect(types == tuple(op.inputs["players"]), f"nagent {op.kind}: players differ from the generated inputs")
        expect(q is state["q"] and cfg is state["solver"], f"nagent {op.kind}: quadrature or solver differ")
    again = workload.make_pass(state, SEED, 0)
    expect([op.inputs["players"] for op in again] == [op.inputs["players"] for op in ops],
           "nagent: the same seed generated different players")
    print("ok   nagent: generated inputs reach solve_nagent unchanged")


def expect(condition, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


if __name__ == "__main__":
    check_nagent_inputs()
    for name in ("sweep", "nagent", "montecarlo"):
        check_counts_repeat(name)
