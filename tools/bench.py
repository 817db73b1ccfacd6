"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Usage::

    python tools/bench.py <n> [--checkout DIR]

Measures the checkout ``DIR`` (default: the one holding this script):

- ``perfbench/run.py`` with ``--trace 0`` (end-to-end metrics) and
  ``--trace 1`` (per-layer metrics) on every workload that
  ``BENCHMARK.json`` lists, at seeds 0 and 15 (15 being a held-out seed
  that ``reference.json`` covers);
- the wall time and the test count of the whole tier-1 suite;
- the wall time that acceptance criteria 02, 04 and 08 report, each run
  alone with ``pytest -k``, and for criterion 02 the µs per iteration of
  its 10^4-iteration step loop;
- ``padambench run`` at d = 1e5, 300 steps, once per optimizer;
- the MLP's oracle passes in one child (``MLP_PASSES``): the median µs
  of a full-batch gradient pass on 12 rows (compare's block), a value
  pass on 16 rows (``finite_diff_grad``'s probe block) and a minibatch
  gradient pass on 12 rows;
- the ``CLI_RUNS`` commands: ``compare`` on the MLP, ``sweep-p`` on the
  quadratic, a lone ``run`` at d = 10, and ``verify --suite all`` at
  perfbench's ``verify-all`` shape;
- the line count of every module under ``src/padambench``.

Each pytest and ``padambench`` child also records its peak RSS and
minor page faults (``ru_maxrss``, ``ru_minflt`` from ``os.wait4``: the
child and the children it waited for); a ``padambench run`` child also
the µs per step of its stepping loop, from its trace sidecar, and a
``padambench verify --suite all`` child each suite's ``wall_ms`` from its
``report.json``.

Writes ``BENCH_<n>.json`` at the root of the checkout holding this script,
so a parent checkout can be measured into the current tree. Each perfbench
run lasts ``run_seconds`` of ``BENCHMARK.json`` plus set-up probes, about
nine minutes in all on a 2-core host. Exits 1 when any perfbench run
reports ``correct: false`` or fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 15)
CRITERIA = {"02": "test_c02", "04": "test_c04", "08": "test_c08"}
LOOP_ITERATIONS = {"02": 10_000}  # a criterion's step loop, where it has one
OPTIMIZERS = ("padam", "adam", "amsgrad", "adamw", "sgdm", "adagrad")
# name -> padambench arguments of a child timed on its own
CLI_RUNS = {
    "compare-mlp": ["compare", "--problem", "mlp", "--steps", "2000",
                    "--seeds", "5"],
    "sweep-p-quadratic": ["sweep-p", "--problem", "quadratic", "--steps",
                          "1000", "--seeds", "4"],
    "run-d10": ["run", "--problem", "quadratic", "--dim", "10", "--steps",
                "20000"],
    "verify-all": ["verify", "--suite", "all", "--steps", "1000", "--seeds",
                   "6", "--dim", "10"],
}
# prints the median µs per call of the MLP's passes as one JSON object
MLP_PASSES = """
import json, timeit
import numpy as np
from padambench.problems import make_mlp
prob = make_mlp(0)
rng = np.random.default_rng(0)
x12, x16 = (0.3 * rng.standard_normal((s, prob.dim)) for s in (12, 16))
xi = prob.sample_xi([np.random.default_rng(k) for k in range(12)], 1)
def median_us(call, number):
    times = sorted(timeit.repeat(call, number=number, repeat=15))
    return 1e6 * times[len(times) // 2] / number
print(json.dumps({
    "grad_rows12_us": median_us(lambda: prob.exact_grad(x12), 20),
    "value_rows16_us": median_us(lambda: prob.loss(x16), 20),
    "stoch_grad_rows12_us": median_us(lambda: prob.stoch_grad(x12, xi), 200),
}))
"""


def _child(argv: list[str], checkout: Path) -> tuple[str, dict]:
    """Run ``argv`` in ``checkout`` with its ``src`` on ``PYTHONPATH``;
    its stdout, and its exit code, wall time, peak RSS and minor faults."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return text, {"exit": proc.returncode, "wall_s": wall,
                  "peak_rss_mib": usage.ru_maxrss / 1024,
                  "minflt": usage.ru_minflt}


def _perfbench(checkout: Path, workload: str, seed: int, trace: int,
               seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        return {"correct": False, "error": out.stderr[-2000:]}
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _criterion_seconds(checkout: Path, tag: str, test: str) -> dict:
    """The ``elapsed`` a criterion's report line prints, its status, the
    µs per iteration of its step loop, and the child's resources."""
    stdout, child = _child(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", test], checkout)
    match = re.search(rf"\[criterion-{tag}\] (PASS|FAIL) .*elapsed=([0-9.]+)s",
                      stdout)
    if match is None:
        return {"status": "ERROR", "elapsed_s": None, "child": child}
    out = {"status": match.group(1), "elapsed_s": float(match.group(2)),
           "child": child}
    if tag in LOOP_ITERATIONS:
        out["us_per_iter"] = 1e6 * out["elapsed_s"] / LOOP_ITERATIONS[tag]
    return out


def _tier1(checkout: Path) -> dict:
    """Wall time of the whole tier-1 suite, its tests by outcome, and the
    child's resources."""
    stdout, child = _child(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"], checkout)
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": child["wall_s"], "tests": sum(counts.values()),
            **counts, "child": child}


def _cli_child(argv: list[str], checkout: Path) -> dict:
    """A ``padambench`` child's resources; for a lone ``run``, also the
    µs per step of its stepping loop (``wall_ms`` of its sidecar), and
    for ``verify --suite all``, the ``wall_ms`` of each suite."""
    print(f"bench: padambench {' '.join(argv)}", flush=True)
    with tempfile.TemporaryDirectory() as outdir:
        child = _child([sys.executable, "-m", "padambench.cli", *argv,
                        "--outdir", outdir], checkout)[1]
        sidecar = Path(outdir) / "trace.meta.json"
        if sidecar.exists():
            steps = int(argv[argv.index("--steps") + 1])
            wall_ms = json.loads(sidecar.read_text())["wall_ms"]
            child["us_per_step"] = 1000.0 * wall_ms / steps
        report = Path(outdir) / "report.json"
        if report.exists():
            suites = json.loads(report.read_text())["suites"]
            child["suite_wall_ms"] = {name: s.get("wall_ms")
                                      for name, s in suites.items()}
    return child


def _wide_runs(checkout: Path) -> dict:
    """``padambench run`` at d = 1e5 for each optimizer, one child each."""
    return {opt: _cli_child(["run", "--problem", "quadratic", "--dim",
                             "100000", "--steps", "300", "--optimizer", opt],
                            checkout)
            for opt in OPTIMIZERS}


def _cli_runs(checkout: Path) -> dict:
    return {name: _cli_child(argv, checkout)
            for name, argv in CLI_RUNS.items()}


def _mlp_passes(checkout: Path) -> dict:
    print("bench: MLP passes", flush=True)
    stdout, child = _child([sys.executable, "-c", MLP_PASSES], checkout)
    return {**json.loads(stdout), "child": child}


def _src_lines(checkout: Path) -> dict:
    files = sorted((checkout / "src" / "padambench").glob("*.py"))
    per_file = {f.name: len(f.read_text().splitlines()) for f in files}
    return {"total": sum(per_file.values()), "per_file": per_file}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    import numpy as np

    workloads = {}
    for w in (entry["name"] for entry in bench["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                print(f"bench: {w} seed {seed} trace {trace}", flush=True)
                workloads.setdefault(w, {})[f"seed{seed}_trace{trace}"] = \
                    _perfbench(checkout, w, seed, trace, seconds)
    print("bench: tier-1", flush=True)
    tier1 = _tier1(checkout)
    criteria = {}
    for tag, test in CRITERIA.items():
        print(f"bench: criterion {tag}", flush=True)
        criteria[tag] = _criterion_seconds(checkout, tag, test)
    wide_runs = _wide_runs(checkout)
    cli_runs = _cli_runs(checkout)
    mlp_passes = _mlp_passes(checkout)
    record = {
        "n": args.n,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "perfbench_seconds": seconds},
        "workloads": workloads,
        "tier1": tier1,
        "criteria": criteria,
        "wide_runs": wide_runs,
        "cli_runs": cli_runs,
        "mlp_passes": mlp_passes,
        "src_lines": _src_lines(checkout),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    ok = all(run["correct"] for runs in workloads.values()
             for run in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
