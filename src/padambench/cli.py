"""Command line interface.

Subcommands: ``run`` one configuration and persist its trace, ``sweep-p``
the partial-adaptivity exponent over a grid, ``compare`` the bundled
optimizers on one problem, and ``verify`` the numeric guarantees behind
the implementation. Exit codes: 0 success, 1 configuration error,
2 divergence, 3 verification failure.

A JSON config file may supply any long-flag value under its kebab-case
name, with the flag's type and choices; explicit flags win over the file,
which wins over a preset.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .harness import (
    OPTIMIZERS,
    RunSpec,
    Schedule,
    _SCHEDULE_KINDS,
    _atomic_write,
    _sidecar_path,
    _write_table,
    iter_runs,
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
    _check_records,
    _keep_worst,
    optimal_alpha,
    report_to_dict,
    run_trajectory_checks,
    verify_bound,
)

__all__ = ["main"]

# problem -> (factory, the config keys it takes in call order); a trace
# sidecar's config lists the keys in this order
_PROBLEMS = {
    "quadratic": (make_quadratic, ("dim", "condition-number", "noise")),
    "rosenbrock": (make_rosenbrock, ("dim",)),
    "logistic": (make_logistic, ("dim", "n-samples", "data-seed")),
    "sparse-growth": (
        lambda dim, sparsity, rho, seed:
            make_sparse_growth(dim, sparsity, seed, rho),
        ("dim", "sparsity", "rho", "data-seed")),
    "mlp": (make_mlp, ("data-seed",)),
}

# optimizer flag -> default over the whole registry; in flag order the
# exponent under study leads and the other flags follow alphabetically
_OPT_FLAG_DEFAULTS = dict(sorted(
    ((flag, entry.defaults[param]) for entry in REGISTRY.values()
     for param, flag in entry.flags.items()),
    key=lambda item: (item[0] != "p", item[0])))
_OPT_FLAGS = tuple(_OPT_FLAG_DEFAULTS)
_PADAM_FLAGS = tuple(f for f in _OPT_FLAGS
                     if f in REGISTRY["padam"].flags.values())

# every CLI key in --help order; a key's flag and config-file values have
# its default's type, unless _TYPES overrides it
_DEFAULTS = {
    "problem": None,
    "optimizer": "padam",
    "lr": 0.1,
    **_OPT_FLAG_DEFAULTS,
    "steps": 100,
    "seed": 0,
    "seeds": 3,
    "dim": 10,
    "init-seed": None,
    "schedule": "constant",
    "milestones": "",
    "decay": 0.1,
    "condition-number": 10.0,
    "noise": 0.1,
    "sparsity": 1.0,
    "rho": 0.0,
    "n-samples": 200,
    "data-seed": 0,
    "p-list": "",
    "optimizers": "",
}
_TYPES = {**{k: type(v) for k, v in _DEFAULTS.items()},
          "problem": str, "init-seed": int}
_CHOICES = {"problem": tuple(_PROBLEMS), "optimizer": OPTIMIZERS,
            "schedule": _SCHEDULE_KINDS}
# list-valued keys with their item type; a flag or config string is split
# at commas, and a config file may also give a JSON list
_LIST_ITEMS = {"milestones": int, "p-list": float, "optimizers": str}

_PRESETS = {
    # image-classification style defaults: small exponent, slow second moment
    "vision": {"optimizer": "padam", "p": 0.125, "beta1": 0.9,
               "beta2": 0.999, "lr": 0.1},
    # recurrent-net style defaults: nearly full adaptivity, small base lr
    "lstm": {"optimizer": "padam", "p": 0.4, "lr": 0.01},
}


def _help_order(*keys) -> tuple:
    return tuple(k for k in _DEFAULTS if k in keys)


# keys of run, sweep-p and compare alike; sweep-p only runs padam, with
# the exponent taken from its grid
_SHARED_KEYS = (
    "problem", "lr", "steps", "seed", "seeds", "schedule", "milestones",
    "decay", "dim", "condition-number", "noise", "n-samples", "sparsity",
    "rho", "data-seed",
)
_RUN_KEYS = _help_order(*_SHARED_KEYS, "optimizer", "init-seed", *_OPT_FLAGS)
_SWEEP_KEYS = _help_order(*_SHARED_KEYS, "p-list",
                          *(f for f in _PADAM_FLAGS if f != "p"))
_COMPARE_KEYS = _help_order(*_SHARED_KEYS, "optimizers", *_OPT_FLAGS)

_VERIFY_DEFAULTS = {"steps": 200, "seeds": 5, "seed": 0, "dim": 6,
                    **{f: _DEFAULTS[f] for f in _PADAM_FLAGS},
                    "lr": None}


class ConfigError(Exception):
    """Bad flag, config key, or value combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; surface them as exit 1
    def error(self, message):
        raise ConfigError(message)


def _add_flags(sub, keys) -> None:
    for k in keys:
        sub.add_argument(f"--{k}", type=_TYPES[k], choices=_CHOICES.get(k))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="padambench",
        description="Benchmark partially adaptive momentum optimizers and "
                    "verify the convergence guarantee behind them.",
    )
    subs = parser.add_subparsers(dest="command")
    for name, keys, text in (
        ("run", _RUN_KEYS,
         "run one configuration, write its trace CSV and sidecar"),
        ("sweep-p", _SWEEP_KEYS, "sweep the adaptivity exponent over a grid"),
        ("compare", _COMPARE_KEYS,
         "compare the bundled optimizers on one problem"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_flags(sub, keys)
        sub.add_argument("--config", type=str,
                         help="JSON file of kebab-case flag values")
        sub.add_argument("--preset", choices=tuple(_PRESETS))
        sub.add_argument("--outdir", type=str, default=".")

    p_ver = subs.add_parser("verify", help="check reductions, gradients, "
                                           "trajectory facts, or the bound")
    p_ver.add_argument("--suite", default="all",
                       choices=("reductions", "gradients", "trajectory",
                                "bound", "all"))
    _add_flags(p_ver, tuple(_VERIFY_DEFAULTS))
    p_ver.add_argument("--outdir", type=str, default=".")
    return parser


def _typed(key: str, value, typ: type):
    """``value`` if JSON gave it the type ``typ`` (an int passes as a
    float), converted to ``typ``; otherwise a ConfigError."""
    if (isinstance(value, (int, float) if typ is float else typ)
            and not isinstance(value, bool)):
        try:
            return typ(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"config key {key!r} takes {typ.__name__} values, "
                      f"got {json.dumps(value)}")


def _config_value(key: str, value, default):
    """A config-file value held to the type and choices of its flag."""
    if value is None and default is None:
        return None
    if isinstance(value, list) and key in _LIST_ITEMS:
        return [_typed(key, v, _LIST_ITEMS[key]) for v in value]
    value = _typed(key, value, _TYPES[key])
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{', '.join(_CHOICES[key])}, got {value!r}")
    return value


def _resolve(args, keys, defaults=_DEFAULTS) -> tuple[dict, set]:
    """Merge defaults, preset, config file, and explicit flags, in that
    order, and split the list keys' strings into typed lists. Returns the
    effective config and the set of keys the user set."""
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
            cfg[k] = _config_value(k, v, defaults[k])
            given.add(k)
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            cfg[k] = v
            given.add(k)
    for k, least in (("steps", 2), ("seeds", 1)):
        if k in cfg and cfg[k] < least:
            raise ConfigError(f"{k!r} must be at least {least}, "
                              f"got {cfg[k]}")
    for k, cast in _LIST_ITEMS.items():
        if isinstance(cfg.get(k), str):  # a flag or config string
            try:
                cfg[k] = ([cast(tok.strip()) for tok in cfg[k].split(",")]
                          if cfg[k].strip() else [])
            except ValueError as e:
                raise ConfigError(f"{k!r} takes comma-separated "
                                  f"{cast.__name__} values, got "
                                  f"{cfg[k]!r}") from e
    return cfg, given


def _build_problem(cfg):
    if cfg["problem"] is None:
        raise ConfigError("a problem must be chosen (--problem)")
    factory, keys = _PROBLEMS[cfg["problem"]]
    return factory(*(cfg[k] for k in keys))


def _flag_params(cfg, optimizer: str) -> dict:
    """Step-rule parameters of ``optimizer``, read from its flags."""
    return {param: cfg[flag]
            for param, flag in REGISTRY[optimizer].flags.items()}


def _build_spec(cfg, optimizer: str, lr: float) -> RunSpec:
    return RunSpec(
        problem=_build_problem(cfg),
        optimizer=optimizer,
        opt_params=_flag_params(cfg, optimizer),
        schedule=Schedule(cfg["schedule"], lr,
                          milestones=cfg["milestones"],
                          decay=cfg["decay"]),
        steps=cfg["steps"],
        seed=cfg["seed"],
        init_seed=cfg.get("init-seed"),
    )


def _flat_config(cfg) -> dict:
    """Effective settings of a run for the sidecar, kebab-case like the
    flags."""
    keys = ("problem", "optimizer", "lr", "schedule", "steps", "seed",
            *REGISTRY[cfg["optimizer"]].flags.values(),
            *_PROBLEMS[cfg["problem"]][1])
    out = {k: cfg[k] for k in keys}
    if cfg["schedule"] == "multistage":
        out["milestones"] = cfg["milestones"]
        out["decay"] = cfg["decay"]
    if cfg["init-seed"] is not None:
        out["init-seed"] = cfg["init-seed"]
    return out


def _mean_rows(traces) -> list[tuple]:
    """``(t, mean loss, mean squared grad norm)`` over the replicas, for
    each step they all recorded."""
    losses = mean_channel(traces, "loss")
    gns = mean_channel(traces, "grad_norm_sq")
    return [(int(t), float(loss), float(gn))
            for t, loss, gn in zip(traces[0].t, losses, gns)]


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    spec = _build_spec(cfg, cfg["optimizer"], cfg["lr"])
    flat = _flat_config(cfg)
    outdir = _outdir(args)
    seeds = cfg["seeds"] if "seeds" in given else 1
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
    rows = _mean_rows(traces)
    path = outdir / "summary.csv"
    _write_table(path, ["t", "mean_loss", "mean_grad_norm_sq"], rows)
    _write_meta(path, {"config": flat, "seeds": seeds})
    print(f"wrote {seeds} traces and {path}")
    print(f"mean final loss {rows[-1][1]:.8g} over {seeds} seeds")
    if any(tr.diverged for tr in traces):
        print("at least one replica diverged", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep_p(args) -> int:
    cfg, given = _resolve(args, _SWEEP_KEYS)
    grid = (cfg["p-list"] if "p-list" in given
            else [0.0625, 0.125, 0.2, 0.25, 0.4])
    if not grid:
        raise ConfigError("empty p list")
    rows = []
    finals = []
    any_diverged = False
    for p in grid:
        spec = _build_spec({**cfg, "p": p}, "padam", cfg["lr"])
        traces = repeat_runs(spec, cfg["seeds"])
        any_diverged |= any(tr.diverged for tr in traces)
        mean = _mean_rows(traces)
        rows += [(p, *row) for row in mean]
        finals.append((p, mean[-1][1]))
    path = _outdir(args) / "sweep.csv"
    _write_table(path, ["p", "t", "mean_loss", "mean_grad_norm_sq"], rows)
    _write_meta(path, {"config": {k: cfg[k] for k in _SWEEP_KEYS
                                  if k != "p-list"},
                       "p_grid": grid,
                       "seeds": cfg["seeds"]})
    print(f"wrote {path}")
    best = min(finals, key=lambda pair: pair[1])
    for p, final in finals:
        marker = "  <- best" if p == best[0] else ""
        print(f"p={p:<8g} final mean loss {final:.8g}{marker}")
    return 2 if any_diverged else 0


def _cmd_compare(args) -> int:
    cfg, given = _resolve(args, _COMPARE_KEYS)
    names = cfg["optimizers"] if "optimizers" in given else list(OPTIMIZERS)
    if not names:
        raise ConfigError("empty optimizer list")
    for name in names:
        if name not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {name!r}, expected one of "
                              f"{', '.join(OPTIMIZERS)}")
    rows = []
    summary = []
    any_diverged = False
    for name in names:
        lr = cfg["lr"] if "lr" in given else REGISTRY[name].compare_lr
        traces = repeat_runs(_build_spec(cfg, name, lr), cfg["seeds"])
        any_diverged |= any(tr.diverged for tr in traces)
        mean = _mean_rows(traces)
        rows += [(name, *row) for row in mean]
        last_loss = [float(tr.loss[len(mean) - 1]) for tr in traces]
        last_gns = [float(tr.grad_norm_sq[len(mean) - 1]) for tr in traces]
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
                       "seeds": cfg["seeds"]})
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
    """Drive each endpoint exponent side by side with the method it reduces
    to, on one gradient stream, and report the worst relative split."""
    problem = make_quadratic(8, 10.0, 0.1)
    rng = np.random.default_rng(seed)
    x0 = 0.1 * rng.standard_normal(problem.dim)
    lr = 1e-3
    cfg = PadamConfig()
    # exponent -> (report name, reference step, the lr it takes)
    references = {
        0.5: ("half", partial(amsgrad_step, beta1=cfg.beta1,
                              beta2=cfg.beta2, epsilon=cfg.epsilon), lr),
        0.0: ("zero", partial(sgd_momentum_step, mu=cfg.beta1),
              lr * (1.0 - cfg.beta1)),
    }
    tol = 1e-9
    out = {"passed": True, "tolerance": tol, "steps": steps}
    for p, (name, reference, ref_lr) in references.items():
        padam_cfg = dataclasses.replace(cfg, p=p)
        xp, xr = x0.copy(), x0.copy()
        sp, sr = init_state(problem.dim), init_state(problem.dim)
        worst = 0.0
        for t in range(1, steps + 1):
            g = problem.stoch_grad(xp, problem.sample_xi(rng, t))
            sp, op = padam_step(sp, xp, g, lr, padam_cfg)
            sr, orf = reference(sr, xr, g, ref_lr)
            xp, xr = op.new_x, orf.new_x
            gap = float(np.abs(xp - xr).max() / (1.0 + np.abs(xr).max()))
            worst = max(worst, gap)
        out[f"max_rel_gap_{name}_exponent"] = worst
        out["passed"] = out["passed"] and worst <= tol
    return out


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
    spec = RunSpec(
        problem=problem,
        optimizer="padam",
        opt_params=dataclasses.asdict(cfg),
        schedule=Schedule("constant", lr),
        steps=steps,
        seed=seed,
        record_dense=True,
    )
    worst: dict = {}
    for trace in iter_runs(spec, seeds):
        _keep_worst(worst, run_trajectory_checks(trace, problem, cfg))
    return {
        "passed": all(r.status == "pass" for r in worst.values()),
        "steps": steps,
        "seeds": seeds,
        "checks": _check_records(worst),
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
        started = time.perf_counter()
        if name == "reductions":
            out = _verify_reductions(steps, seed)
        elif name == "gradients":
            out = _verify_gradients(seed)
        elif name == "trajectory":
            out = _verify_trajectory(steps, seeds, seed, dim, cfg,
                                     lr if lr is not None else 0.05)
        else:
            out = _verify_bound_suite(steps, seeds, seed, dim, cfg, lr)
        out["wall_ms"] = 1000.0 * (time.perf_counter() - started)
        return out

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


_DISPATCH = {
    "run": _cmd_run,
    "sweep-p": _cmd_sweep_p,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
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
