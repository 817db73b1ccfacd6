"""Command line interface.

Subcommands: ``run`` one configuration and persist its trace, ``sweep-p``
the partial-adaptivity exponent over a grid, ``compare`` the bundled
optimizers on one problem, and ``verify`` the numeric guarantees behind
the implementation. Exit codes: 0 success, 1 configuration error,
2 divergence, 3 verification failure.

A JSON config file may supply any long-flag value under its kebab-case
name; explicit flags win over the file, which wins over a preset.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (
    OPTIMIZERS,
    RunSpec,
    Schedule,
    _atomic_write,
    _sidecar_path,
    mean_channel,
    repeat_runs,
    run,
    write_trace_csv,
)
from .optim import (
    REGISTRY,
    PadamConfig,
    amsgrad_step,
    init_state,
    padam_step,
    sgd_momentum_step,
)
from .problems import (
    finite_diff_grad,
    make_logistic,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)
from .theory import (
    HypothesisError,
    _keep_worst,
    optimal_alpha,
    report_to_dict,
    run_trajectory_checks,
    verify_bound,
)

__all__ = ["main"]

PROBLEMS = ("quadratic", "rosenbrock", "logistic", "sparse-growth", "mlp")

# optimizer flag -> default over the whole registry; in flag order the
# exponent under study leads and the other flags follow alphabetically
_OPT_FLAG_DEFAULTS = {flag: entry.defaults[param]
                      for entry in REGISTRY.values()
                      for param, flag in entry.flags.items()}
_OPT_FLAGS = tuple(sorted(_OPT_FLAG_DEFAULTS, key=lambda f: (f != "p", f)))
_PADAM_FLAGS = tuple(f for f in _OPT_FLAGS
                     if f in REGISTRY["padam"].flags.values())

_DEFAULTS = {
    "problem": None,
    "optimizer": "padam",
    "lr": 0.1,
    **_OPT_FLAG_DEFAULTS,
    "steps": 100,
    "seed": 0,
    "seeds": 3,
    "init-seed": None,
    "schedule": "constant",
    "milestones": "",
    "decay": 0.1,
    "dim": 10,
    "condition-number": 10.0,
    "noise": 0.1,
    "n-samples": 200,
    "sparsity": 1.0,
    "rho": 0.0,
    "data-seed": 0,
    "p-list": "",
    "optimizers": "",
}

_PRESETS = {
    # image-classification style defaults: small exponent, slow second moment
    "vision": {"optimizer": "padam", "p": 0.125, "beta1": 0.9,
               "beta2": 0.999, "lr": 0.1},
    # recurrent-net style defaults: nearly full adaptivity, small base lr
    "lstm": {"optimizer": "padam", "p": 0.4, "lr": 0.01},
}

# keys of run, sweep-p and compare alike; sweep-p only runs padam, with
# the exponent taken from its grid
_SHARED_KEYS = (
    "problem", "lr", "steps", "seed", "seeds", "schedule", "milestones",
    "decay", "dim", "condition-number", "noise", "n-samples", "sparsity",
    "rho", "data-seed",
)
_RUN_KEYS = _SHARED_KEYS + ("optimizer", "init-seed") + _OPT_FLAGS
_SWEEP_KEYS = _SHARED_KEYS + ("p-list",) + tuple(
    f for f in _PADAM_FLAGS if f != "p")
_COMPARE_KEYS = _SHARED_KEYS + ("optimizers",) + _OPT_FLAGS

_VERIFY_DEFAULTS = {"steps": 200, "seeds": 5, "seed": 0, "dim": 6,
                    **{f: _OPT_FLAG_DEFAULTS[f] for f in _PADAM_FLAGS},
                    "lr": None}

_PROBLEM_CFG_KEYS = {
    "quadratic": ("dim", "condition-number", "noise"),
    "rosenbrock": ("dim",),
    "logistic": ("dim", "n-samples", "data-seed"),
    "sparse-growth": ("dim", "sparsity", "rho", "data-seed"),
    "mlp": ("data-seed",),
}


class ConfigError(Exception):
    """Bad flag, config key, or value combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; surface them as exit 1
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub, keys) -> None:
    arg = sub.add_argument
    if "problem" in keys:
        arg("--problem", choices=PROBLEMS)
    if "optimizer" in keys:
        arg("--optimizer", choices=OPTIMIZERS)
    if "lr" in keys:
        arg("--lr", type=float)
    for name in _OPT_FLAGS:
        if name in keys:
            arg(f"--{name}", type=float)
    for name in ("steps", "seed", "seeds", "dim"):
        if name in keys:
            arg(f"--{name}", type=int)
    if "init-seed" in keys:
        arg("--init-seed", type=int)
    if "schedule" in keys:
        arg("--schedule", choices=("constant", "inv_sqrt", "multistage"))
        arg("--milestones", type=str)
        arg("--decay", type=float)
    for name in ("condition-number", "noise", "sparsity", "rho"):
        if name in keys:
            arg(f"--{name}", type=float)
    for name in ("n-samples", "data-seed"):
        if name in keys:
            arg(f"--{name}", type=int)
    if "p-list" in keys:
        arg("--p-list", type=str)
    if "optimizers" in keys:
        arg("--optimizers", type=str)
    arg("--config", type=str, help="JSON file of kebab-case flag values")
    arg("--preset", choices=tuple(_PRESETS))
    arg("--outdir", type=str, default=".")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="padambench",
        description="Benchmark partially adaptive momentum optimizers and "
                    "verify the convergence guarantee behind them.",
    )
    subs = parser.add_subparsers(dest="command")

    p_run = subs.add_parser("run", help="run one configuration, write its "
                                        "trace CSV and sidecar")
    _add_common(p_run, _RUN_KEYS)

    p_sweep = subs.add_parser("sweep-p", help="sweep the adaptivity exponent "
                                              "over a grid")
    _add_common(p_sweep, _SWEEP_KEYS)

    p_cmp = subs.add_parser("compare", help="compare the bundled optimizers "
                                            "on one problem")
    _add_common(p_cmp, _COMPARE_KEYS)

    p_ver = subs.add_parser("verify", help="check reductions, gradients, "
                                           "trajectory facts, or the bound")
    p_ver.add_argument("--suite", default="all",
                       choices=("reductions", "gradients", "trajectory",
                                "bound", "all"))
    for name, default in _VERIFY_DEFAULTS.items():
        p_ver.add_argument(f"--{name}",
                           type=int if isinstance(default, int) else float)
    p_ver.add_argument("--outdir", type=str, default=".")
    return parser


def _resolve(args, keys, defaults=_DEFAULTS) -> tuple[dict, set]:
    """Merge defaults, preset, config file, and explicit flags, in that
    order. Returns the effective config and the set of keys the user set."""
    cfg = {k: defaults[k] for k in keys}
    given: set = set()
    preset = getattr(args, "preset", None)
    if preset:
        for k, v in _PRESETS[preset].items():
            if k in cfg:
                cfg[k] = v
                given.add(k)
    path = getattr(args, "config", None)
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for k, v in data.items():
            if k not in cfg:
                raise ConfigError(f"unknown config key {k!r}")
            cfg[k] = v
            given.add(k)
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            cfg[k] = v
            given.add(k)
    for k in ("steps", "seeds"):
        if k in cfg and int(cfg[k]) < 1:
            raise ConfigError(f"{k} must be at least 1, got {cfg[k]}")
    return cfg, given


def _parse_milestones(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    text = str(value).strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_list(value, cast, what):
    if isinstance(value, (list, tuple)):
        return [cast(v) for v in value]
    text = str(value).strip()
    if not text:
        raise ConfigError(f"empty {what} list")
    try:
        return [cast(tok.strip()) for tok in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad {what} list {value!r}") from e


def _build_problem(cfg):
    name = cfg["problem"]
    if name is None:
        raise ConfigError("a problem must be chosen (--problem)")
    dim = int(cfg.get("dim", _DEFAULTS["dim"]))
    if name == "quadratic":
        return make_quadratic(dim, float(cfg["condition-number"]),
                              float(cfg["noise"]))
    if name == "rosenbrock":
        return make_rosenbrock(dim)
    if name == "logistic":
        return make_logistic(dim, int(cfg["n-samples"]),
                             int(cfg["data-seed"]))
    if name == "sparse-growth":
        return make_sparse_growth(dim, float(cfg["sparsity"]),
                                  int(cfg["data-seed"]), float(cfg["rho"]))
    if name == "mlp":
        return make_mlp(int(cfg["data-seed"]))
    raise ConfigError(f"unknown problem {name!r}")


def _flag_params(cfg, optimizer: str) -> dict:
    """Step-rule parameters of ``optimizer``, read from its flags."""
    if optimizer not in REGISTRY:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    return {param: float(cfg[flag])
            for param, flag in REGISTRY[optimizer].flags.items()}


def _build_schedule(cfg, lr: float) -> Schedule:
    return Schedule(cfg["schedule"], float(lr),
                    milestones=_parse_milestones(cfg["milestones"]),
                    decay=float(cfg["decay"]))


def _build_spec(cfg, optimizer: str, lr: float) -> RunSpec:
    problem = _build_problem(cfg)
    init_seed = cfg.get("init-seed")
    return RunSpec(
        problem=problem,
        optimizer=optimizer,
        opt_params=_flag_params(cfg, optimizer),
        schedule=_build_schedule(cfg, lr),
        steps=int(cfg["steps"]),
        seed=int(cfg["seed"]),
        init_seed=None if init_seed is None else int(init_seed),
    )


def _flat_config(cfg, optimizer: str, lr: float) -> dict:
    """Effective settings for the sidecar, kebab-case like the flags."""
    out = {"problem": cfg["problem"], "optimizer": optimizer,
           "lr": float(lr), "schedule": cfg["schedule"],
           "steps": int(cfg["steps"]), "seed": int(cfg["seed"])}
    for k in REGISTRY[optimizer].flags.values():
        out[k] = float(cfg[k])
    for k in _PROBLEM_CFG_KEYS.get(cfg["problem"], ()):
        out[k] = cfg[k]
    if cfg["schedule"] == "multistage":
        out["milestones"] = list(_parse_milestones(cfg["milestones"]))
        out["decay"] = float(cfg["decay"])
    if cfg.get("init-seed") is not None:
        out["init-seed"] = int(cfg["init-seed"])
    return out


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_table(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v)
            for v in row
        ))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_meta(table_path: Path, payload: dict) -> None:
    """Sidecar next to a summary CSV so the file is reproducible from its
    own metadata."""
    _atomic_write(_sidecar_path(table_path),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg, given = _resolve(args, _RUN_KEYS)
    optimizer = cfg["optimizer"]
    lr = float(cfg["lr"])
    spec = _build_spec(cfg, optimizer, lr)
    flat = _flat_config(cfg, optimizer, lr)
    outdir = _outdir(args)
    seeds = int(cfg["seeds"]) if "seeds" in given else 1
    if seeds <= 1:
        trace = run(spec)
        trace.meta["config"] = flat
        path = write_trace_csv(trace, outdir / "trace.csv")
        print(f"wrote {path}")
        print(f"recorded {len(trace.t)} steps, final loss "
              f"{trace.loss[-1]:.8g}, final grad norm^2 "
              f"{trace.grad_norm_sq[-1]:.8g}")
        if trace.diverged:
            print("run diverged; the trace is truncated at the last "
                  "finite row", file=sys.stderr)
            return 2
        return 0
    traces = repeat_runs(spec, seeds)
    for tr in traces:
        tr.meta["config"] = dict(flat, seed=tr.meta["seed"])
        write_trace_csv(tr, outdir / f"trace_seed{tr.meta['seed']}.csv")
    losses = mean_channel(traces, "loss")
    gns = mean_channel(traces, "grad_norm_sq")
    ts = traces[0].t[: len(losses)]
    rows = [(int(t), float(losses[i]), float(gns[i]))
            for i, t in enumerate(ts)]
    path = outdir / "summary.csv"
    _write_table(path, ["t", "mean_loss", "mean_grad_norm_sq"], rows)
    _write_meta(path, {"config": flat, "seeds": seeds})
    print(f"wrote {seeds} traces and {path}")
    print(f"mean final loss {losses[-1]:.8g} over {seeds} seeds")
    if any(tr.diverged for tr in traces):
        print("at least one replica diverged", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep_p(args) -> int:
    cfg, given = _resolve(args, _SWEEP_KEYS)
    if "p-list" in given:
        grid = _parse_list(cfg["p-list"], float, "p")
    else:
        grid = [0.0625, 0.125, 0.2, 0.25, 0.4]
    lr = float(cfg["lr"])
    rows = []
    finals = []
    any_diverged = False
    for p in grid:
        sub = dict(cfg)
        sub["p"] = p
        spec = _build_spec(sub, "padam", lr)
        traces = repeat_runs(spec, int(cfg["seeds"]))
        any_diverged |= any(tr.diverged for tr in traces)
        losses = mean_channel(traces, "loss")
        gns = mean_channel(traces, "grad_norm_sq")
        ts = traces[0].t[: len(losses)]
        for i, t in enumerate(ts):
            rows.append((float(p), int(t), float(losses[i]), float(gns[i])))
        finals.append((p, float(losses[-1])))
    path = _outdir(args) / "sweep.csv"
    _write_table(path, ["p", "t", "mean_loss", "mean_grad_norm_sq"], rows)
    _write_meta(path, {"config": {k: cfg[k] for k in _SWEEP_KEYS
                                  if k != "p-list"},
                       "p_grid": [float(p) for p in grid],
                       "seeds": int(cfg["seeds"])})
    print(f"wrote {path}")
    best = min(finals, key=lambda pair: pair[1])
    for p, final in finals:
        marker = "  <- best" if p == best[0] else ""
        print(f"p={p:<8g} final mean loss {final:.8g}{marker}")
    return 2 if any_diverged else 0


def _cmd_compare(args) -> int:
    cfg, given = _resolve(args, _COMPARE_KEYS)
    if "optimizers" in given:
        names = _parse_list(cfg["optimizers"], str, "optimizer")
        for name in names:
            if name not in OPTIMIZERS:
                raise ConfigError(
                    f"unknown optimizer {name!r}, expected one of "
                    f"{', '.join(OPTIMIZERS)}"
                )
    else:
        names = list(OPTIMIZERS)
    rows = []
    summary = []
    any_diverged = False
    for name in names:
        lr = float(cfg["lr"]) if "lr" in given else REGISTRY[name].compare_lr
        spec = _build_spec(cfg, name, lr)
        traces = repeat_runs(spec, int(cfg["seeds"]))
        any_diverged |= any(tr.diverged for tr in traces)
        losses = mean_channel(traces, "loss")
        gns = mean_channel(traces, "grad_norm_sq")
        ts = traces[0].t[: len(losses)]
        for i, t in enumerate(ts):
            rows.append((name, int(t), float(losses[i]), float(gns[i])))
        last_loss = [float(tr.loss[len(losses) - 1]) for tr in traces]
        last_gns = [float(tr.grad_norm_sq[len(losses) - 1]) for tr in traces]
        summary.append((name, lr,
                        float(np.mean(last_loss)), float(np.std(last_loss)),
                        float(np.mean(last_gns)), float(np.std(last_gns))))
    outdir = _outdir(args)
    path = outdir / "compare.csv"
    _write_table(path, ["optimizer", "t", "mean_loss", "mean_grad_norm_sq"],
                 rows)
    spath = outdir / "compare_summary.csv"
    _write_table(spath, ["optimizer", "lr", "final_loss_mean",
                         "final_loss_std", "final_grad_norm_sq_mean",
                         "final_grad_norm_sq_std"], summary)
    _write_meta(path, {"config": {k: cfg[k] for k in _COMPARE_KEYS
                                  if k != "optimizers"},
                       "optimizers": names,
                       "seeds": int(cfg["seeds"])})
    print(f"wrote {path}")
    print(f"wrote {spath}")
    print(f"{'optimizer':<10} {'lr':>8}  final mean loss (+/- std)")
    for name, lr, lm, ls, _, _ in summary:
        print(f"{name:<10} {lr:>8g}  {lm:.8g} +/- {ls:.3g}")
    return 2 if any_diverged else 0


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------

def _verify_reductions(steps: int, seed: int) -> dict:
    """Drive the half-exponent and zero-exponent reductions side by side on
    one gradient stream and report the worst relative split."""
    problem = make_quadratic(8, 10.0, 0.1)
    rng = np.random.default_rng(seed)
    x0 = 0.1 * rng.standard_normal(problem.dim)
    lr = 1e-3

    cfg_half = PadamConfig(p=0.5)
    xp = x0.copy()
    xa = x0.copy()
    sp = init_state(problem.dim)
    sa = init_state(problem.dim)
    worst_half = 0.0
    for t in range(1, steps + 1):
        g = problem.stoch_grad(xp, problem.sample_xi(rng, t))
        sp, op = padam_step(sp, xp, g, lr, cfg_half)
        sa, oa = amsgrad_step(sa, xa, g, lr, cfg_half.beta1, cfg_half.beta2,
                              cfg_half.epsilon)
        xp, xa = op.new_x, oa.new_x
        gap = float(np.abs(xp - xa).max() / (1.0 + np.abs(xa).max()))
        worst_half = max(worst_half, gap)

    cfg_zero = PadamConfig(p=0.0)
    xp = x0.copy()
    xs = x0.copy()
    sp = init_state(problem.dim)
    ss = init_state(problem.dim)
    worst_zero = 0.0
    for t in range(1, steps + 1):
        g = problem.stoch_grad(xp, problem.sample_xi(rng, t))
        sp, op = padam_step(sp, xp, g, lr, cfg_zero)
        ss, os_ = sgd_momentum_step(ss, xs, g, lr * (1.0 - cfg_zero.beta1),
                                    cfg_zero.beta1)
        xp, xs = op.new_x, os_.new_x
        gap = float(np.abs(xp - xs).max() / (1.0 + np.abs(xs).max()))
        worst_zero = max(worst_zero, gap)

    tol = 1e-9
    return {
        "passed": worst_half <= tol and worst_zero <= tol,
        "tolerance": tol,
        "steps": steps,
        "max_rel_gap_half_exponent": worst_half,
        "max_rel_gap_zero_exponent": worst_zero,
    }


def _verify_gradients(seed: int) -> dict:
    """Finite differences against every analytic gradient."""
    problems = [
        (make_quadratic(6, 8.0, 0.1), 1.0),
        (make_rosenbrock(6), 0.5),
        (make_logistic(5, 80, seed=1), 0.5),
        (make_sparse_growth(6), 1.0),
        (make_mlp(1), 0.2),
    ]
    rng = np.random.default_rng(seed)
    tol = 1e-5
    per_problem = {}
    for problem, scale in problems:
        worst = 0.0
        for _ in range(5):
            x = scale * rng.standard_normal(problem.dim)
            g = problem.exact_grad(x)
            fd = finite_diff_grad(problem, x, h=1e-6)
            rel = float(np.linalg.norm(fd - g)
                        / max(np.linalg.norm(g), 1e-12))
            worst = max(worst, rel)
        per_problem[problem.name] = worst
    return {
        "passed": all(v <= tol for v in per_problem.values()),
        "tolerance": tol,
        "max_rel_error": per_problem,
    }


def _verify_trajectory(steps: int, seeds: int, seed: int, dim: int,
                       cfg: PadamConfig, lr: float) -> dict:
    """Pathwise identity and inequality checks on fresh traces."""
    problem = make_quadratic(dim, 10.0, 0.1)
    worst: dict = {}
    for k in range(seeds):
        spec = RunSpec(
            problem=problem,
            optimizer="padam",
            opt_params=dataclasses.asdict(cfg),
            schedule=Schedule("constant", lr),
            steps=steps,
            seed=seed + k,
            record_dense=True,
        )
        _keep_worst(worst, run_trajectory_checks(run(spec), problem, cfg))
    return {
        "passed": all(r.status == "pass" for r in worst.values()),
        "steps": steps,
        "seeds": seeds,
        "checks": {name: {"status": r.status, "margin": r.margin,
                          "detail": r.detail}
                   for name, r in worst.items()},
    }


def _verify_bound_suite(steps: int, seeds: int, seed: int, dim: int,
                        cfg: PadamConfig, lr: float | None) -> dict:
    """Measured left side of the guarantee against its right side."""
    problem = make_quadratic(dim, 10.0, 0.1)
    alpha = lr if lr is not None else optimal_alpha(dim, steps, 0.5)
    report = verify_bound(problem, cfg, alpha=alpha, steps=steps,
                          n_seeds=seeds, seed=seed)
    out = report_to_dict(report)
    out["passed"] = bool(
        report.applicable
        and report.empirical_grad_norm_sq <= report.bound
    )
    return out


def _cmd_verify(args) -> int:
    suite = args.suite
    settings, _ = _resolve(args, tuple(_VERIFY_DEFAULTS), _VERIFY_DEFAULTS)
    steps, seeds, seed, dim, lr = (settings[k] for k in
                                   ("steps", "seeds", "seed", "dim", "lr"))
    cfg = PadamConfig(**_flag_params(settings, "padam"))

    def run_suite(name: str) -> dict:
        if name == "reductions":
            return _verify_reductions(steps, seed)
        if name == "gradients":
            return _verify_gradients(seed)
        if name == "trajectory":
            return _verify_trajectory(steps, seeds, seed, dim, cfg,
                                      lr if lr is not None else 0.05)
        return _verify_bound_suite(steps, seeds, seed, dim, cfg, lr)

    report: dict = {"suite": suite, "config": settings}
    try:
        if suite == "all":
            sub = {}
            for name in ("reductions", "gradients", "trajectory", "bound"):
                sub[name] = run_suite(name)
            report["suites"] = sub
            report["passed"] = all(s["passed"] for s in sub.values())
        else:
            report.update(run_suite(suite))
    except HypothesisError as e:
        report["passed"] = False
        report["error"] = str(e)

    path = _outdir(args) / "report.json"
    _atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    status = "PASS" if report["passed"] else "FAIL"
    print(f"suite {suite}: {status}")
    if "error" in report:
        print(f"  {report['error']}", file=sys.stderr)
    return 0 if report["passed"] else 3


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds at the ceilings its dynamic
    policy would reach. Left dynamic, whether each step re-faults freed
    temporaries (the MLP's 1000 x 16 activations sit just under the 128 KiB
    default) hinges on heap layout: ``compare --problem mlp`` ran 25-35%
    slower in an unlucky one. A no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_DISPATCH = {
    "run": _cmd_run,
    "sweep-p": _cmd_sweep_p,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        # argparse exits directly for --help; keep that a success
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except HypothesisError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
