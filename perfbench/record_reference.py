"""Record the reference outputs the benchmark checks every operation
against, for input seeds 0 .. REFERENCE_SEEDS-1 at both sizes.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good: it refuses to record
an output that fails the workload's own validity rule, or a replay whose
output differs from the operation's.
"""

from __future__ import annotations

import json
import shutil
import sys

import benchenv


def main() -> int:
    benchenv.configure()
    import run
    import workloads
    from tracer import NullTracer
    out = {}
    work = benchenv.ROOT / ".perfbench_work" / "record"
    try:
        for size in ("tiny", "full"):
            out[size] = {}
            for name, w in workloads.WORKLOADS.items():
                out[size][name] = {}
                for seed in range(run.REFERENCE_SEEDS):
                    inp = w.setup(seed, size)
                    shutil.rmtree(work, ignore_errors=True)
                    work.mkdir(parents=True)
                    summary = w.summarize(inp, work, w.op(inp, work))
                    replayed, _ = w.replay(inp, work, NullTracer())
                    if not w.valid(summary) or replayed != summary:
                        print(f"{size} {name} seed {seed}: refusing to "
                              f"record {summary} (replay {replayed})",
                              file=sys.stderr)
                        return 1
                    out[size][name][str(seed)] = summary
                    print(size, name, seed, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
