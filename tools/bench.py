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
  alone with ``pytest -k``;
- the line count of every module under ``src/padambench``.

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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 15)
CRITERIA = {"02": "test_c02", "04": "test_c04", "08": "test_c08"}


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
    """The ``elapsed`` a criterion's report line prints, and its status."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", test],
        cwd=checkout, env=env, capture_output=True, text=True)
    match = re.search(rf"\[criterion-{tag}\] (PASS|FAIL) .*elapsed=([0-9.]+)s",
                      out.stdout)
    if match is None:
        return {"status": "ERROR", "elapsed_s": None}
    return {"status": match.group(1), "elapsed_s": float(match.group(2))}


def _tier1(checkout: Path) -> dict:
    """Wall time of the whole tier-1 suite, and its tests by outcome."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": wall, "tests": sum(counts.values()), **counts}


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
    record = {
        "n": args.n,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "perfbench_seconds": seconds},
        "workloads": workloads,
        "tier1": tier1,
        "criteria": criteria,
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
