"""Compare the CLI of two padambench source trees byte for byte.

Usage::

    python tools/cli_identity.py <parent-src> <change-src>

Each ``*-src`` is a directory holding the ``padambench`` package (a
checkout's ``src``). Every command of ``COMMANDS`` runs once under each
tree, as ``python -m padambench.cli`` with that tree on ``PYTHONPATH``,
in its own empty directory. The files written, stdout and the exit code
are compared; in JSON files every ``wall_ms`` value is zeroed first,
since it is a wall-clock time. Stderr is not compared: a traceback names
its tree's paths. Exits 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_OPTIMIZERS = ("padam", "adam", "amsgrad", "adamw", "sgdm", "adagrad")

# name -> (argv, files written into the directory before the run)
COMMANDS: dict[str, tuple[list[str], dict[str, object]]] = {
    **{f"run-{opt}": (["run", "--problem", "quadratic", "--optimizer", opt,
                       "--steps", "80", "--seed", "2"], {})
       for opt in _OPTIMIZERS},
    "run-seeds17": (["run", "--problem", "quadratic", "--steps", "60",
                     "--seeds", "17"], {}),
    # one seed given explicitly: the lone-trace output of the default
    "run-seeds1": (["run", "--problem", "quadratic", "--steps", "60",
                    "--seeds", "1"], {}),
    "run-seeds18": (["run", "--problem", "logistic", "--optimizer",
                     "adagrad", "--steps", "40", "--seeds", "18"], {}),
    "run-mlp-seeds17": (["run", "--problem", "mlp", "--steps", "20",
                         "--seeds", "17"], {}),
    # a 7-row block: full-batch stacks of 4 and 3 rows
    "run-mlp-seeds7": (["run", "--problem", "mlp", "--steps", "20",
                        "--seeds", "7"], {}),
    # a lone run steps on the oracle's own gradient array, not a block row
    "run-mlp": (["run", "--problem", "mlp", "--steps", "40"], {}),
    "run-multistage": (["run", "--problem", "rosenbrock", "--schedule",
                        "multistage", "--milestones", "20,40", "--init-seed",
                        "3", "--lr", "0.01", "--steps", "60", "--seeds", "3"],
                       {}),
    # one wide replica: the (1, d) block path on a large draw
    "run-wide": (["run", "--problem", "quadratic", "--dim", "100000",
                  "--steps", "40"], {}),
    # the other rules alone at that size, each stepping its state in place
    **{f"run-wide-{opt}": (["run", "--problem", "quadratic", "--dim",
                            "100000", "--optimizer", opt, "--steps", "40"],
                           {})
       for opt in ("amsgrad", "adam", "adamw", "adagrad")},
    # draws of at least harness._PREFETCH_BYTES are made one step ahead on
    # a worker thread: a 12-row block in six groups, mask draws with zero
    # denominators, and two rows that stop after step 1 with a draw in
    # flight (exit 2)
    "compare-wide": (["compare", "--problem", "quadratic", "--dim", "40000",
                      "--steps", "30", "--seeds", "2"], {}),
    "run-wide-sparse-eps0": (["run", "--problem", "sparse-growth", "--dim",
                              "100000", "--sparsity", "0.1", "--epsilon",
                              "0", "--p", "0", "--steps", "40"], {}),
    "run-wide-stop-at-1": (["run", "--problem", "quadratic", "--dim",
                            "100000", "--optimizer", "sgdm", "--lr", "1e200",
                            "--steps", "40", "--seeds", "2"], {}),
    "run-sparse-seeds17": (["run", "--problem", "sparse-growth", "--rho",
                            "0.5", "--steps", "60", "--seeds", "17"], {}),
    # p = 0 with eps = 0 on coordinates whose v_hat is still exactly 0
    "run-p0-eps0": (["run", "--problem", "sparse-growth", "--sparsity", "0.1",
                     "--p", "0", "--epsilon", "0", "--steps", "40",
                     "--seeds", "3"], {}),
    "run-preset": (["run", "--problem", "quadratic", "--preset", "lstm",
                    "--steps", "30"], {}),
    "run-diverging": (["run", "--problem", "rosenbrock", "--optimizer",
                       "sgdm", "--lr", "0.5", "--steps", "100"], {}),
    # finite losses near 1e308 whose sum over the seeds overflows
    "run-mean-overflow": (["run", "--problem", "quadratic", "--dim", "5",
                           "--steps", "350", "--seeds", "18", "--lr", "0.5",
                           "--optimizer", "sgdm"], {}),
    "run-config-error": (["run", "--problem", "quadratic", "--p", "0.7"],
                         {}),
    "sweep-p-quadratic": (["sweep-p", "--problem", "quadratic", "--steps",
                           "40", "--seeds", "2"], {}),
    "sweep-p-sparse-eps0": (["sweep-p", "--problem", "sparse-growth",
                             "--steps", "50", "--seeds", "3", "--epsilon",
                             "0"], {}),
    "sweep-p-multistage": (["sweep-p", "--problem", "quadratic", "--steps",
                            "40", "--seeds", "2", "--schedule", "multistage",
                            "--milestones", "10,25"], {}),
    "compare-quadratic": (["compare", "--problem", "quadratic", "--steps",
                           "60", "--seeds", "4"], {}),
    "compare-mlp": (["compare", "--problem", "mlp", "--steps", "30",
                     "--seeds", "3"], {}),
    # one-entry lists: a block of one optimizer, and of one exponent
    "compare-adam": (["compare", "--problem", "quadratic", "--steps", "40",
                      "--seeds", "3", "--optimizers", "adam"], {}),
    "sweep-p-one": (["sweep-p", "--problem", "quadratic", "--steps", "40",
                     "--seeds", "2", "--p-list", "0.25"], {}),
    # one lr given to every optimizer, not each one's compare_lr
    "compare-lr": (["compare", "--problem", "quadratic", "--lr", "0.01",
                    "--steps", "40", "--seeds", "2"], {}),
    "sweep-p-logistic": (["sweep-p", "--problem", "logistic", "--steps",
                          "30", "--seeds", "2"], {}),
    # one block across optimizers, some of whose rows diverge
    "compare-diverging": (["compare", "--problem", "rosenbrock",
                           "--lr", "0.5", "--steps", "100",
                           "--seeds", "3"], {}),
    # zero denominators under epsilon = 0 in a block across optimizers
    "compare-sparse-eps0": (["compare", "--problem", "sparse-growth",
                             "--sparsity", "0.1", "--epsilon", "0",
                             "--steps", "50", "--seeds", "3"], {}),
    # one block across exponents on the stacked MLP passes
    "sweep-p-mlp": (["sweep-p", "--problem", "mlp", "--steps", "20",
                     "--seeds", "5"], {}),
    **{f"verify-{suite}": (["verify", "--suite", suite, "--steps", "150",
                            "--seeds", "4", "--seed", "3"], {})
       for suite in ("reductions", "gradients", "trajectory", "bound",
                     "all")},
    # the shortest run, and a long one on the held-out seed
    "verify-reductions-2": (["verify", "--suite", "reductions", "--steps",
                             "2"], {}),
    "verify-reductions-1000": (["verify", "--suite", "reductions",
                                "--steps", "1000", "--seed", "15"], {}),
    # 17 seeds cross a block boundary
    "verify-bound-seeds17": (["verify", "--suite", "bound", "--steps", "100",
                              "--seeds", "17"], {}),
    # a window of 64 steps does not divide 700, and 17 seeds pass 16
    "verify-all-700x17": (["verify", "--suite", "all", "--steps", "700",
                           "--seeds", "17"], {}),
    # the bound suite raises on beta1 >= beta2^(2p) after the others ran
    "verify-all-hypothesis": (["verify", "--suite", "all", "--beta1",
                               "0.9999", "--beta2", "0.9", "--p", "0.5",
                               "--steps", "50", "--seeds", "2"], {}),
    # the shape perfbench's verify-all workload runs
    "verify-all-gated": (["verify", "--suite", "all", "--steps", "1000",
                          "--seeds", "6", "--seed", "0", "--dim", "10"], {}),
    "config-run": (["run", "--config", "cfg.json"],
                   {"cfg.json": {"problem": "quadratic",
                                 "optimizer": "amsgrad", "dim": 4,
                                 "steps": 30, "lr": 0.02, "seeds": 3}}),
    "config-compare": (["compare", "--config", "cfg.json", "--steps", "20"],
                       {"cfg.json": {"problem": "logistic", "seeds": 2,
                                     "optimizers": ["padam", "sgdm"]}}),
    "config-sweep-p": (["sweep-p", "--config", "cfg.json"],
                       {"cfg.json": {"problem": "rosenbrock", "steps": 25,
                                     "seeds": 2, "lr": 0.01,
                                     "p-list": [0.1, 0.25]}}),
    "config-compare-lists": (["compare", "--config", "cfg.json"],
                             {"cfg.json": {"problem": "quadratic",
                                           "steps": 30, "seeds": 2,
                                           "schedule": "multistage",
                                           "milestones": [10, 20],
                                           "optimizers": ["adam", "sgdm"]}}),
    **{f"help-{name or 'main'}": ([name, "--help"] if name else ["--help"],
                                  {})
       for name in ("", "run", "sweep-p", "compare", "verify")},
}


def _zero_wall_ms(value):
    if isinstance(value, dict):
        return {k: 0 if k == "wall_ms" else _zero_wall_ms(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_zero_wall_ms(v) for v in value]
    return value


def _outputs(directory: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(_zero_wall_ms(json.loads(data)), indent=2,
                              sort_keys=True).encode()
        out[str(path.relative_to(directory))] = data
    return out


def _run(src: Path, name: str, workdir: Path):
    argv, files = COMMANDS[name]
    directory = workdir / name
    directory.mkdir(parents=True)
    for fname, body in files.items():
        (directory / fname).write_text(json.dumps(body))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "padambench.cli", *argv],
                          cwd=directory, env=env, capture_output=True)
    return proc.returncode, proc.stdout, _outputs(directory)


def _differences(a, b) -> list[str]:
    (rc_a, out_a, files_a), (rc_b, out_b, files_b) = a, b
    diffs = []
    if rc_a != rc_b:
        diffs.append(f"exit {rc_a} -> {rc_b}")
    if out_a != out_b:
        diffs.append("stdout differs")
    for fname in sorted(set(files_a) | set(files_b)):
        if fname not in files_b:
            diffs.append(f"only in parent: {fname}")
        elif fname not in files_a:
            diffs.append(f"only in change: {fname}")
        elif files_a[fname] != files_b[fname]:
            diffs.append(f"{fname} differs")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        n_diff = n_files = 0
        for name in COMMANDS:
            parent = _run(args.parent_src.resolve(), name, workdir / "parent")
            change = _run(args.change_src.resolve(), name, workdir / "change")
            diffs = _differences(parent, change)
            n_files += len(change[2])
            n_diff += bool(diffs)
            status = "; ".join(diffs) if diffs else "same"
            print(f"{name:<22} exit {change[0]}  {status}", flush=True)
    print(f"{len(COMMANDS)} commands, {n_files} files: "
          f"{n_diff} command(s) differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
