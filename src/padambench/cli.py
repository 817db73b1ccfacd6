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
from pathlib import Path

import numpy as np

from .harness import (
    OPTIMIZERS,
    RunSpec,
    Schedule,
    _COLUMNS,
    _SCHEDULE_KINDS,
    _atomic_write,
    _sidecar_path,
    _write_table,
    mean_channel,
    repeat_runs,
    write_trace_csv,
)
from .optim import REGISTRY, PadamConfig
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
    _folded_runs,
    _keep_worst,
    optimal_alpha,
    report_to_dict,
    verify_bound,
)

__all__ = ["main"]

# problem -> (factory, the config keys it takes in call order); a trace
# sidecar's config lists the keys in this order
_PROBLEMS = {
    "quadratic": (make_quadratic, ("dim", "condition-number", "noise")),
    "rosenbrock": (make_rosenbrock, ("dim",)),
    "logistic": (make_logistic, ("dim", "n-samples", "data-seed")),
    "sparse-growth": (make_sparse_growth, ("dim", "sparsity", "rho")),
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
    p_ver.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
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
        if k in cfg and len(set(cfg[k])) < len(cfg[k]):
            raise ConfigError(f"{k!r} repeats an entry: {cfg[k]}")
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


def _build_spec(cfg, problem, optimizer: str, lr: float) -> RunSpec:
    return RunSpec(
        problem=problem,
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


def _replicas(specs, seeds: int):
    """``seeds`` replicas of each spec, all run as one ``repeat_runs``
    call. Returns each spec's traces with its rows ``(t, mean loss, mean
    squared grad norm)`` over each step they all recorded, and whether any
    replica diverged."""
    traces = repeat_runs(specs, seeds)
    per_spec = []
    for k in range(0, len(traces), seeds):
        group = traces[k:k + seeds]
        rows = zip(group[0].t, mean_channel(group, "loss"),
                   mean_channel(group, "grad_norm_sq"))
        per_spec.append((group, [(int(t), float(loss), float(gn))
                                 for t, loss, gn in rows]))
    return per_spec, any(tr.diverged for tr in traces)


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_means(path: Path, means: dict, meta: dict, key=None) -> None:
    """Mean rows as a CSV beside its sidecar ``meta``, which makes the
    file reproducible. ``means`` maps each entry to its rows. In long
    format, column ``key`` names each row's entry; with no ``key``,
    ``means`` holds one entry, whose rows stand alone."""
    header = ["t", "mean_loss", "mean_grad_norm_sq"]
    _write_table(path, [key, *header] if key else header,
                 [(k, *row) if key else row
                  for k, rows in means.items() for row in rows])
    _atomic_write(_sidecar_path(path),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg, given = _resolve(args, _RUN_KEYS)
    spec = _build_spec(cfg, _build_problem(cfg), cfg["optimizer"], cfg["lr"])
    flat = _flat_config(cfg)
    outdir = _outdir(args)
    seeds = cfg["seeds"] if "seeds" in given else 1
    [(traces, rows)], diverged = _replicas([spec], seeds)
    for tr in traces:
        tr.meta["config"] = dict(flat, seed=tr.meta["seed"])
    if seeds == 1:
        trace = traces[0]
        path = write_trace_csv(trace, outdir / "trace.csv")
        print(f"wrote {path}")
        print(f"recorded {len(trace.t)} steps, final loss "
              f"{trace.loss[-1]:.8g}, final grad norm^2 "
              f"{trace.grad_norm_sq[-1]:.8g}")
        if diverged:
            print("run diverged; the trace is truncated at the last "
                  "finite row", file=sys.stderr)
        return 2 if diverged else 0
    for tr in traces:
        write_trace_csv(tr, outdir / f"trace_seed{tr.meta['seed']}.csv")
    path = outdir / "summary.csv"
    _write_means(path, {None: rows}, {"config": flat, "seeds": seeds})
    print(f"wrote {seeds} traces and {path}")
    print(f"mean final loss {rows[-1][1]:.8g} over {seeds} seeds")
    if diverged:
        print("at least one replica diverged", file=sys.stderr)
    return 2 if diverged else 0


def _cmd_sweep_p(args) -> int:
    cfg, given = _resolve(args, _SWEEP_KEYS)
    grid = (cfg["p-list"] if "p-list" in given
            else [0.0625, 0.125, 0.2, 0.25, 0.4])
    if not grid:
        raise ConfigError("empty p list")
    problem = _build_problem(cfg)
    per_p, diverged = _replicas(
        [_build_spec({**cfg, "p": p}, problem, "padam", cfg["lr"])
         for p in grid], cfg["seeds"])
    means = {p: mean for p, (_, mean) in zip(grid, per_p)}
    path = _outdir(args) / "sweep.csv"
    _write_means(path, means, {"config": {k: cfg[k] for k in _SWEEP_KEYS
                                          if k != "p-list"},
                               "p_grid": grid, "seeds": cfg["seeds"]},
                 key="p")
    print(f"wrote {path}")
    finals = [(p, mean[-1][1]) for p, mean in means.items()]
    best = min(finals, key=lambda pair: pair[1])
    for p, final in finals:
        marker = "  <- best" if p == best[0] else ""
        print(f"p={p:<8g} final mean loss {final:.8g}{marker}")
    return 2 if diverged else 0


def _cmd_compare(args) -> int:
    cfg, given = _resolve(args, _COMPARE_KEYS)
    names = cfg["optimizers"] if "optimizers" in given else list(OPTIMIZERS)
    if not names:
        raise ConfigError("empty optimizer list")
    for name in names:
        if name not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {name!r}, expected one of "
                              f"{', '.join(OPTIMIZERS)}")
    problem = _build_problem(cfg)
    specs = [_build_spec(cfg, problem, name, cfg["lr"] if "lr" in given
                         else REGISTRY[name].compare_lr) for name in names]
    per_opt, diverged = _replicas(specs, cfg["seeds"])
    summary = []
    for name, spec, (traces, mean) in zip(names, specs, per_opt):
        last_loss = [float(tr.loss[len(mean) - 1]) for tr in traces]
        last_gns = [float(tr.grad_norm_sq[len(mean) - 1]) for tr in traces]
        summary.append((name, spec.schedule.base,
                        float(np.mean(last_loss)), float(np.std(last_loss)),
                        float(np.mean(last_gns)), float(np.std(last_gns))))
    outdir = _outdir(args)
    path = outdir / "compare.csv"
    _write_means(path, {n: mean for n, (_, mean) in zip(names, per_opt)},
                 {"config": {k: cfg[k] for k in _COMPARE_KEYS
                             if k != "optimizers"},
                  "optimizers": names, "seeds": cfg["seeds"]},
                 key="optimizer")
    spath = outdir / "compare_summary.csv"
    _write_table(spath, ["optimizer", "lr", "final_loss_mean",
                         "final_loss_std", "final_grad_norm_sq_mean",
                         "final_grad_norm_sq_std"], summary)
    print(f"wrote {path}")
    print(f"wrote {spath}")
    print(f"{'optimizer':<10} {'lr':>8}  final mean loss (+/- std)")
    for name, lr, lm, ls, _, _ in summary:
        print(f"{name:<10} {lr:>8g}  {lm:.8g} +/- {ls:.3g}")
    return 2 if diverged else 0


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------

def _verify_reductions(steps: int, seed: int) -> dict:
    """Run each endpoint exponent beside the method it reduces to, as one
    harness block with every row on its own stream from ``seed``.
    ``p = 1/2`` must follow amsgrad bit for bit; ``p = 0`` must follow
    heavy-ball SGD at ``lr * (1 - beta1)`` to within ``tolerance``,
    relative, at every iterate."""
    problem = make_quadratic(8, 10.0, 0.1)
    lr, mu = 1e-3, PadamConfig().beta1
    traces = repeat_runs([
        RunSpec(problem=problem, optimizer=name, opt_params=params,
                schedule=Schedule("constant", rate), steps=steps, seed=seed,
                record_dense=True)
        for name, params, rate in (
            ("padam", {"p": 0.5}, lr), ("amsgrad", {}, lr),
            ("padam", {"p": 0.0}, lr), ("sgdm", {"mu": mu}, lr * (1.0 - mu)))
    ], 1)
    xs = [np.vstack([tr.dense["x"], tr.dense["x_final"]]) for tr in traces]
    n = min(map(len, xs))  # a diverged row stops early
    gaps = [float((np.abs(xp[:n] - xr[:n]).max(axis=1)
                   / (1.0 + np.abs(xr[:n]).max(axis=1))).max())
            for xp, xr in (xs[:2], xs[2:])]
    half, amsgrad = traces[:2]
    bitwise = xs[0].tobytes() == xs[1].tobytes() and all(
        getattr(half, c).tobytes() == getattr(amsgrad, c).tobytes()
        for c in _COLUMNS)
    tol = 1e-9
    return {
        "passed": bitwise and gaps[1] <= tol
        and not any(tr.diverged for tr in traces),
        "tolerance": tol,
        "steps": steps,
        "max_rel_gap_half_exponent": gaps[0],
        "max_rel_gap_zero_exponent": gaps[1],
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
    spec = RunSpec(
        problem=problem,
        optimizer="padam",
        opt_params=dataclasses.asdict(cfg),
        schedule=Schedule("constant", lr),
        steps=steps,
        seed=seed,
    )
    worst: dict = {}
    for trace, fold, j in _folded_runs(spec, seeds, cfg):
        _keep_worst(worst, fold.results(j, trace))
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


# suite -> its run on the resolved verify settings ``s`` and their padam
# config; ``all`` runs every suite in this order
_SUITES = {
    "reductions": lambda s, cfg: _verify_reductions(s["steps"], s["seed"]),
    "gradients": lambda s, cfg: _verify_gradients(s["seed"]),
    "trajectory": lambda s, cfg: _verify_trajectory(
        s["steps"], s["seeds"], s["seed"], s["dim"], cfg,
        s["lr"] if s["lr"] is not None else 0.05),
    "bound": lambda s, cfg: _verify_bound_suite(
        s["steps"], s["seeds"], s["seed"], s["dim"], cfg, s["lr"]),
}


def _cmd_verify(args) -> int:
    suite = args.suite
    settings, _ = _resolve(args, tuple(_VERIFY_DEFAULTS), _VERIFY_DEFAULTS)
    cfg = PadamConfig(**_flag_params(settings, "padam"))
    report: dict = {"suite": suite, "config": settings}
    results = {}
    for name in _SUITES if suite == "all" else (suite,):
        started = time.perf_counter()
        try:
            out = _SUITES[name](settings, cfg)
            out["wall_ms"] = 1000.0 * (time.perf_counter() - started)
        except HypothesisError as e:  # the other suites still run
            out = {"passed": False, "error": str(e)}
            report.setdefault("error", str(e))
        results[name] = out
    if suite == "all":
        report["suites"] = results
        report["passed"] = all(s["passed"] for s in results.values())
    else:
        report.update(results[suite])

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
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
