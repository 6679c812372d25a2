"""Benchmark of the signalmfg library: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {sweep,nagent,montecarlo} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's passes (see ``workloads.py``)
repeat until ``S`` seconds of timed calls are done: the first pass runs whole,
later ones may stop between operations.  Output checks run between calls,
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, traced (``tracing.py``) and untraced, for ``S`` seconds in
all, and reports the per-layer metrics per pass plus the tracing overhead:
traced over untraced time of the same operations, minus one.  Spans go to
``.bench_out/``.

The second-to-last stdout line is a JSON report (environment, workload
metrics, per-operation counts); the last line is the result object.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin the BLAS thread pools before numpy is imported, here or in a child.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "nagent", "montecarlo")
# Set-up is measured in this many fresh interpreters plus the benchmark process itself.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# Process CPU time between two speed samples, and the size of the sampled kernel.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_ITERATIONS = 100
# Median CPU time of ``SpeedSampler.kernel_s()`` on the machine the baseline was
# measured on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
SPEED_REFERENCE_S = 0.0022
SETUP_SPEED_SAMPLES = 50


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def timed_setup(name: str):
    """Import the library, build the workload's inputs.

    Returns (workload, state, times): ``times`` holds the set-up's wall and CPU
    time and ``speed_s``, the mean CPU time of ``SETUP_SPEED_SAMPLES`` runs of
    the speed kernel right after it.  (Sampling during the set-up would import
    numpy ahead of the library.)
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    import workloads  # imports signalmfg, so the import is part of the timed set-up

    workload = workloads.WORKLOADS[name]()
    state = workload.setup(OUT_DIR)
    times = {"wall_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu_start}
    kernel_s = SpeedSampler(active=False).kernel_s
    times["speed_s"] = statistics.fmean(kernel_s() for _ in range(SETUP_SPEED_SAMPLES))
    return workload, state, times


def probe_setup(name: str) -> dict:
    """Set-up times measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "0", "--setup-only"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_ops(workload, state, seed: int, seconds: float, tracer=None):
    """Run the operations of passes 0, 1, ... in order; returns one record per operation.

    Pass 0 always runs whole.  After it, stops before the next operation once
    ``seconds`` of timed calls are done.  With a tracer, each operation runs
    twice, traced and untraced, so that drift in machine speed cancels out of
    the tracing overhead.
    """
    records = []
    timed = 0.0
    p = 0
    while True:
        for op in workload.make_pass(state, seed, p):
            if p and timed >= seconds:
                return records
            record = {"pass": p, "kind": op.kind}
            if tracer is None:
                record |= call(workload, state, op)
            else:
                # Alternate which of the two calls goes first, so that warm caches favour neither.
                tracer.op_id += 1
                if tracer.op_id % 2:
                    record |= call(workload, state, op)
                    record["traced"] = call(workload, state, op, tracer)
                else:
                    record["traced"] = call(workload, state, op, tracer)
                    record |= call(workload, state, op)
                timed += record["traced"]["seconds"]
            records.append(record)
            timed += record["seconds"]
        p += 1


class SpeedSampler:
    """Samples the speed of the CPU this process runs on, during one timed call.

    Every ``SAMPLE_INTERVAL_S`` of process CPU time, a SIGPROF handler runs a
    fixed numpy/scipy kernel that uses no library code and records its CPU
    time.  The kernel mimics the library's profile (normal CDFs, powers and dot
    products on 128-node arrays inside a Python loop).  The samples are spread
    evenly over the call's CPU time, so their mean tracks the speed the call
    ran at even where that speed changes within the call.  ``cpu_s`` is the
    CPU time the handler itself took, to be taken out of the call's.
    """

    def __init__(self, active: bool = True):
        import numpy as np
        from scipy.special import ndtr

        self.active = active
        self.np, self.ndtr = np, ndtr
        self.x = np.linspace(-8.0, 8.0, 128)
        self.w = np.exp(-0.5 * self.x * self.x)
        self.samples: list[float] = []
        self.cpu_s = 0.0
        self.busy = False

    def __enter__(self):
        if self.active:
            self.previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self.previous)

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        start = time.thread_time()
        self.samples.append(self.kernel_s())
        self.cpu_s += time.thread_time() - start
        self.busy = False

    def kernel_s(self) -> float:
        """CPU time of one run of the kernel.

        Thread CPU time: while a process-wide CPU timer is armed, the process
        CPU clock advances only at scheduler ticks on some kernels.
        """
        np, ndtr, x = self.np, self.ndtr, self.x
        start = time.thread_time()
        acc = 0.0
        for i in range(SAMPLE_ITERATIONS):
            phi = 0.5 + 1e-3 * i
            p = ndtr(x - phi) - ndtr(x - 2.0 * phi)
            v = ((1.0 + phi * np.expm1(0.1 * x)) ** -1.0 - 1.0) * p
            acc += float(np.dot(v, self.w))
        return time.thread_time() - start


def call(workload, state, op, tracer=None) -> dict:
    """One timed call of ``op``, then its output checks (untimed, never traced).

    Untraced calls run under a ``SpeedSampler``.  ``seconds`` and
    ``cpu_seconds`` are the call's wall and CPU time less the sampler's, and
    ``speed_s`` is the mean CPU time of the sampler's kernel during the call
    (None if the call was too short for a sample).
    """
    import workloads  # already loaded by timed_setup

    error = None
    if tracer is not None:
        tracer.patch()
    sampler = SpeedSampler(active=tracer is None)
    start, cpu_start = time.perf_counter(), time.process_time()
    with sampler:
        try:
            out = workload.run(state, op)
        except Exception:  # a failed call is counted, not fatal
            error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start - sampler.cpu_s
    cpu = time.process_time() - cpu_start - sampler.cpu_s
    if tracer is not None:
        tracer.unpatch()
    if error is None:
        try:
            verdict = workload.check(state, op, out)
        except Exception:  # a check that cannot run counts as a wrong output
            verdict = workloads.Verdict(converged=False, problems=[traceback.format_exc(limit=3)])
    else:
        verdict = workloads.Verdict(converged=False, problems=[error])
    return {
        "seconds": elapsed,
        "cpu_seconds": cpu,
        "speed_samples": len(sampler.samples),
        "speed_s": statistics.fmean(sampler.samples) if sampler.samples else None,
        "converged": verdict.converged,
        "problems": verdict.problems,
        "counts": verdict.counts,
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def reference_seconds(ops: list[dict]) -> None:
    """Set each operation's ``ref_seconds``: its CPU time at the speed where the
    sampler's kernel takes ``SPEED_REFERENCE_S``.

    An operation too short for a speed sample is scaled by the run's mean sample.
    """
    speeds = [o["speed_s"] for o in ops if o["speed_s"] is not None]
    fallback = statistics.fmean(speeds) if speeds else SPEED_REFERENCE_S
    for o in ops:
        o["ref_seconds"] = o["cpu_seconds"] * SPEED_REFERENCE_S / (o["speed_s"] or fallback)


def typical_pass_s(workload, state, seed: int, ops: list[dict], key: str) -> float:
    """Sum over one pass's operations of each operation kind's median ``key`` time.

    Medians keep a rare slow call (a burst of machine noise) from setting the
    figure.
    """
    kinds = [op.kind for op in workload.make_pass(state, seed, 0)]
    return sum(statistics.median(o[key] for o in ops if o["kind"] == k) for k in kinds)


def percentiles(samples: list[float]) -> dict:
    """Median and, when at least ten samples lie beyond it, the 90th percentile."""
    out = {"samples": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[-1]
        if sum(x > p90 for x in samples) >= 10:
            out["p90"] = p90
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signalmfg" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_only:
        _, _, times = timed_setup(args.workload)
        print(json.dumps(times))
        return 0

    setup_samples = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    workload, state, times = timed_setup(args.workload)
    setup_samples.append(times)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ops = run_ops(workload, state, args.seed, args.seconds, tracer)
    reference_seconds(ops)
    pass_wall_s = typical_pass_s(workload, state, args.seed, ops, "seconds")
    pass_cpu_s = typical_pass_s(workload, state, args.seed, ops, "cpu_seconds")
    end_to_end = {
        # CPU time leaves out the time the process waits for a CPU; the speed
        # samples take out drift in the speed of the CPU it is given.
        "pass_s": (typical_pass_s(workload, state, args.seed, ops, "ref_seconds"), "s"),
        "setup_s": (statistics.median(t["cpu_s"] * SPEED_REFERENCE_S / t["speed_s"] for t in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {"workload": args.workload, "env": environment(args.seed), "setup_s_samples": setup_samples}
    all_ops = list(ops)
    if tracer is None:
        metrics = end_to_end
    else:
        traced = [o["traced"] for o in ops]
        metrics = tracer.layer_metrics(len(ops) / len(workload.make_pass(state, args.seed, 0)))
        metrics["trace.overhead"] = (sum(o["seconds"] for o in traced) / sum(o["seconds"] for o in ops) - 1.0, "ratio")
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        report["traced_counts"] = [o["counts"] for o in traced]
        report["solve_s"] = percentiles(tracer.solve_seconds()) if tracer.solves else None
        all_ops += traced

    failed = [o for o in all_ops if o["problems"] or not o["converged"]]
    wrong = [o for o in all_ops if o["problems"]]
    report["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    report["end_to_end"] |= {
        "pass_wall_s": pass_wall_s,
        "pass_cpu_s": pass_cpu_s,
        "setup_wall_s": statistics.median(t["wall_s"] for t in setup_samples),
        "setup_cpu_s": statistics.median(t["cpu_s"] for t in setup_samples),
    }
    report["workload_metrics"] = workload.figures(ops)
    report["failed_ratio"] = len(failed) / len(all_ops)
    report["ops"] = [{k: o[k] for k in ("pass", "kind", "seconds", "cpu_seconds", "ref_seconds", "speed_s", "speed_samples", "converged", "counts")} for o in ops]
    report["problems"] = [{"kind": o["kind"], "problems": o["problems"]} for o in wrong]
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(all_ops),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
