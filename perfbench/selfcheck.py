"""Self-check of the benchmark, at tiny size.

    python3 perfbench/selfcheck.py

1. Runs every workload untraced and traced through run.py (those of
   BENCHMARK.json and trace-io, which is kept out of it), and checks that
   the printed metric names and units are exactly the ones BENCHMARK.json
   declares and that every output check passed.
2. Checks that each workload's output check fails when one value of its
   reference is deliberately wrong, one leaf at a time.

Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import benchenv


def _perturbed(value):
    """The value a deliberately wrong reference holds: one ulp off for a
    float, flipped for a bool, another exit code or digest."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value.startswith(("0x", "-0x")):
        return math.nextafter(float.fromhex(value), math.inf).hex()
    return ("1" if value[0] == "0" else "0") + value[1:]


def _leaves(tree, path=()):
    """``(path, value)`` for each scalar of a nested reference."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        yield path, tree
        return
    for k, v in items:
        yield from _leaves(v, path + (k,))


def _with_leaf(tree, path, value):
    tree = json.loads(json.dumps(tree))
    node = tree
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return tree


def _check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(benchenv.ROOT / spec["command"][1]),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=benchenv.ROOT)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n"
                f"{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if got != want:
        errors.append(f"{workload} trace={trace}: metrics differ: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{ {k: got[k] for k in want if got.get(k, want[k]) != want[k]} }")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload} trace={trace}: outputs not correct")
    return errors


def _check_mutations(workload_names) -> list[str]:
    import run
    import workloads
    refs = json.loads(run.REFERENCE.read_text())["tiny"]
    work = benchenv.ROOT / ".perfbench_work" / "selfcheck"
    errors = []
    try:
        for name in workload_names:
            w = workloads.WORKLOADS[name]
            inp = w.setup(0, "tiny")
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            summary = w.summarize(inp, work, w.op(inp, work))
            ref = refs[name]["0"]
            if not (w.valid(summary) and summary == ref):
                errors.append(f"{name}: output differs from its reference")
            for path, value in _leaves(ref):
                wrong = _with_leaf(ref, path, _perturbed(value))
                if w.valid(summary) and summary == wrong:
                    errors.append(f"{name}: check passes with a wrong "
                                  f"reference at {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def main() -> int:
    benchenv.configure()
    import workloads
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)
    errors = [f"BENCHMARK.json names unknown workload {w['name']!r}"
              for w in spec["workloads"] if w["name"] not in names]
    for name in names:
        for trace in (0, 1):
            errors += _check_run(spec, name, trace)
    errors += _check_mutations(names)
    for e in errors:
        print(e, file=sys.stderr)
    print("selfcheck:", "FAIL" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
