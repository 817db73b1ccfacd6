"""padambench benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run. The line before it records the process
environment. Outputs are checked on every operation against
``reference.json``; any mismatch makes ``correct`` false.

Exit code 2 without a result when the checkout has no ``src/padambench``.
See README.md for the workloads and what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# references exist for input seeds 0 .. REFERENCE_SEEDS-1; --seed n uses
# input seed n mod REFERENCE_SEEDS
REFERENCE_SEEDS = 16
SETUP_PROBES = 5
MIN_OPS = 3
MIN_ROUNDS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-check only")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _probe_setup(args) -> None:
    """Child process: import padambench and build the inputs, once."""
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload].setup(args.seed, args.size)
    print(time.perf_counter() - start)


def _setup_seconds(args, input_seed: int) -> float:
    """Median over fresh processes of import plus input construction."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", args.workload, "--seed", str(input_seed),
             "--size", args.size],
            check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Runner:
    """Runs and checks operations of one workload; counts failures."""

    def __init__(self, workload, inp, reference, outdir: Path):
        self.w = workload
        self.inp = inp
        self.reference = reference
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0

    def _fresh(self) -> Path:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        return self.outdir

    def _check(self, summary) -> None:
        self.attempted += 1
        if not (self.w.valid(summary) and summary == self.reference):
            self.failed += 1
            print(f"perfbench: output mismatch: {json.dumps(summary)}",
                  file=sys.stderr)

    def _guarded(self, fn):
        """Time ``fn``; an exception counts as a failed operation."""
        outdir = self._fresh()
        start = time.perf_counter()
        try:
            result = fn(outdir)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return elapsed, None
        return time.perf_counter() - start, result

    def op(self) -> float:
        elapsed, result = self._guarded(lambda d: self.w.op(self.inp, d))
        if result is not None:
            try:
                self._check(self.w.summarize(self.inp, self.outdir, result))
            except (OSError, KeyError, ValueError, IndexError):
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
        return elapsed

    def replay(self, tracer):
        elapsed, result = self._guarded(
            lambda d: self.w.replay(self.inp, d, tracer))
        if result is None:
            return elapsed, {}
        summary, extras = result
        self._check(summary)
        return elapsed, extras


def _untraced(runner: Runner, seconds: float) -> dict:
    runner.op()  # warm-up: first call in the process, not in wall_s
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        times.append(runner.op())
    wall = statistics.median(times)
    return {"wall_s": wall,
            "steps_per_s": runner.w.rows_per_op(runner.inp) / wall,
            "_op_wall_s": times}


def _layer_metrics(tr, fields) -> dict:
    import workloads
    run_s = sum(sum(tr.durations(n)) for n in workloads.RUN_SPANS)
    steps = tr.counts["harness.steps"]
    under = tr.calls_under(workloads.RUN_SPANS)
    m = {}
    oracle_calls, oracle_s = 0, 0.0
    for f in fields:
        n, secs = under.get(f"problems.{f}", (0, 0.0))
        m[f"problems.{f}_us"] = 1e6 * secs / n if n else 0.0
        m[f"problems.{f}_calls"] = n
        oracle_calls += n
        oracle_s += secs
    m["problems.calls_per_step"] = oracle_calls / steps if steps else 0.0
    m["problems.busy_frac"] = oracle_s / run_s if run_s else 0.0
    m["harness.run_us_per_step"] = 1e6 * run_s / steps if steps else 0.0
    m["harness.self_us_per_step"] = \
        1e6 * (run_s - oracle_s) / steps if steps else 0.0
    for kind, count in (("write", "harness.rows_written"),
                        ("read", "harness.rows_read")):
        secs = sum(tr.durations(f"harness.{kind}_trace_csv"))
        m[f"harness.{kind}_rows_per_s"] = tr.counts[count] / secs \
            if secs else 0.0
    m["harness.mean_channel_s"] = sum(tr.durations("harness.mean_channel"),
                                     0.0)
    checks = tr.durations("theory.run_trajectory_checks")
    m["theory.run_trajectory_checks_ms"] = \
        1e3 * statistics.fmean(checks) if checks else 0.0
    m["theory.verify_bound_s"] = sum(tr.durations("theory.verify_bound"), 0.0)
    return m


def _traced(runner: Runner, seconds: float) -> dict:
    import padambench
    import workloads
    from tracer import NullTracer, Tracer, callable_fields
    fields = callable_fields(padambench.StochasticProblem)
    w = runner.w
    null = NullTracer()
    runner.op()
    if w.has_cli:
        runner.replay(null)
    cli_s, untraced_s, traced_s, layers, covered = [], [], [], [], []
    extras = {}
    deadline = time.perf_counter() + seconds
    while len(traced_s) < MIN_ROUNDS or time.perf_counter() < deadline:
        cli_s.append(runner.op())
        untraced_s.append(runner.replay(null)[0] if w.has_cli
                          else cli_s[-1])
        tr = Tracer()
        elapsed, extras = runner.replay(tr)
        traced_s.append(elapsed)
        layers.append(_layer_metrics(tr, fields))
        covered.append(tr.top_level_seconds())
    m = {name: statistics.median(row[name] for row in layers)
         for name in layers[0]}
    # direct-call figures of functions this workload never calls stay 0
    m.update(dict.fromkeys(
        [f"optim.{rule}_step_us" for rule in workloads.STEP_RULES]
        + ["optim.alloc_bytes_per_step", "theory.check_smoothness_gap_ms",
           "theory.estimate_growth_s_ms"], 0.0))
    m.update(w.micro(runner.inp, extras))
    med = statistics.median
    m["cli.self_s"] = med(cli_s) - med(untraced_s) if w.has_cli else 0.0
    m["trace.overhead_frac"] = med(traced_s) / med(untraced_s) - 1.0
    m["trace.coverage"] = (med(covered) * med(untraced_s) / med(traced_s)
                           / med(cli_s))
    m["_rounds"] = len(traced_s)
    return m


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_us_per_step", "us"),
                         ("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mib", "MiB"), ("_calls", "count"),
                         ("calls_per_step", "count"),
                         ("bytes_per_step", "bytes")):
        if name.endswith(suffix):
            return unit
    return "frac"


def main(argv=None) -> int:
    args = _parse(argv)
    benchenv.configure()
    if args.probe_setup:
        _probe_setup(args)
        return 0
    input_seed = args.seed % REFERENCE_SEEDS

    import numpy as np
    import padambench
    import workloads
    benchenv.check_imported(padambench)
    w = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[args.size][w.name][
        str(input_seed)]
    inp = w.setup(input_seed, args.size)
    outdir = benchenv.ROOT / ".perfbench_work" / f"{w.name}-{args.trace}"
    runner = Runner(w, inp, reference, outdir)
    try:
        if args.trace:
            metrics = _traced(runner, args.seconds)
        else:
            metrics = _untraced(runner, args.seconds)
            metrics["setup_s"] = _setup_seconds(args, input_seed)
            metrics["peak_rss_mib"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            outdir.parent.rmdir()
    detail = {k[1:]: metrics.pop(k) for k in list(metrics)
              if k.startswith("_")}
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": benchenv.nproc(), "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": w.name, "seed": args.seed, "input_seed": input_seed,
        "size": args.size, **detail}}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
