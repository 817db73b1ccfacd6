"""End-to-end tests for the command line interface.

All invocations go through main(argv) in-process so exit codes are the
values under test, not SystemExit side effects.
"""

import csv
import json
import os
import re

import numpy as np
import pytest

from padambench import (OPTIMIZERS, RunSpec, Schedule, make_quadratic,
                        read_trace_csv, run)
from padambench.cli import main
from padambench.optim import REGISTRY


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_config_error(capsys):
    rc = main(["run", "--problem", "quadratic", "--frobnicate", "1"])
    assert rc == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_run_writes_trace_and_sidecar(tmp_path, capsys):
    rc = main([
        "run", "--problem", "quadratic", "--optimizer", "padam",
        "--dim", "4", "--steps", "30", "--lr", "0.05", "--p", "0.25",
        "--seed", "3", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert len(rows) == 30
    assert list(rows[0]) == ["t", "loss", "grad_norm_sq", "lr", "eff_lr_min",
                             "eff_lr_max", "vhat_min", "vhat_max"]
    sidecar = json.loads((tmp_path / "trace.meta.json").read_text())
    assert sidecar["optimizer"] == "padam"
    assert sidecar["seed"] == 3
    assert sidecar["config"]["lr"] == 0.05
    assert sidecar["config"]["p"] == 0.25
    assert sidecar["config"]["steps"] == 30
    out = capsys.readouterr().out
    assert "trace.csv" in out


# each optimizer's flags, all away from their defaults, and the step-rule
# parameter each flag sets
_FLAG_PARAMS = {"p": "p", "beta1": "beta1", "beta2": "beta2",
                "epsilon": "epsilon", "momentum": "mu",
                "weight-decay": "weight_decay"}
_NONDEFAULT_FLAGS = {
    "padam": {"beta1": 0.8, "beta2": 0.99, "p": 0.25, "epsilon": 1e-6},
    "adam": {"beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6},
    "amsgrad": {"beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6},
    "adamw": {"beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6,
              "weight-decay": 0.05},
    "sgdm": {"momentum": 0.5},
    "adagrad": {"epsilon": 1e-6},
}


def test_nondefault_flags_cover_every_optimizer():
    assert set(_NONDEFAULT_FLAGS) == set(OPTIMIZERS)


@pytest.mark.parametrize("name", OPTIMIZERS)
def test_optimizer_flags_reach_sidecar_and_step(name, tmp_path, capsys):
    flags = _NONDEFAULT_FLAGS[name]
    argv = ["run", "--problem", "quadratic", "--optimizer", name,
            "--dim", "3", "--steps", "12", "--lr", "0.01",
            "--outdir", str(tmp_path)]
    for flag, value in flags.items():
        argv += [f"--{flag}", repr(value)]
    assert main(argv) == 0
    cfg = json.loads((tmp_path / "trace.meta.json").read_text())["config"]
    assert {k: cfg[k] for k in _FLAG_PARAMS if k in cfg} == flags

    def lib_trace(params):
        return run(RunSpec(make_quadratic(3, 10.0, 0.1), name, params,
                           Schedule("constant", 0.01), steps=12))

    back = read_trace_csv(tmp_path / "trace.csv")
    explicit = lib_trace({_FLAG_PARAMS[k]: v for k, v in flags.items()})
    default = lib_trace({})
    cols = ("loss", "eff_lr_min", "eff_lr_max", "vhat_max")
    for col in cols:
        np.testing.assert_array_equal(getattr(back, col),
                                      getattr(explicit, col))
    assert any(not np.array_equal(getattr(back, col), getattr(default, col))
               for col in cols)


def test_run_divergence_exit_code(tmp_path, capsys):
    rc = main([
        "run", "--problem", "quadratic", "--optimizer", "sgdm",
        "--dim", "3", "--steps", "50", "--lr", "1e6",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2
    sidecar = json.loads((tmp_path / "trace.meta.json").read_text())
    assert sidecar["diverged"] is True


def test_run_seeds_overflowing_mean_exits_2(tmp_path, capsys):
    # 17 of the 18 replicas end with finite losses near 1e308, whose sum
    # overflows: the summary still holds a finite mean at every step
    rc = main([
        "run", "--problem", "quadratic", "--dim", "5", "--steps", "350",
        "--seeds", "18", "--lr", "0.5", "--optimizer", "sgdm",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2
    rows = read_rows(tmp_path / "summary.csv")
    assert len(rows) >= 347
    values = [float(v) for row in rows for v in row.values()]
    assert all(np.isfinite(values))
    assert max(values) > 1e305


def test_run_invalid_value_is_config_error(tmp_path, capsys):
    rc = main(["run", "--problem", "quadratic", "--p", "0.7",
               "--outdir", str(tmp_path)])
    assert rc == 1


def test_config_file_round_trip(tmp_path, capsys):
    cfg = {"problem": "quadratic", "optimizer": "padam", "dim": 3,
           "steps": 12, "lr": 0.02, "p": 0.125, "condition-number": 3.0}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert rc == 0
    sidecar = json.loads((tmp_path / "trace.meta.json").read_text())
    assert sidecar["config"]["steps"] == 12
    assert sidecar["config"]["condition-number"] == 3.0


def test_config_file_null_init_seed_is_unset(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic", "dim": 3,
                                    "steps": 5, "init-seed": None}))
    rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert rc == 0
    sidecar = json.loads((tmp_path / "trace.meta.json").read_text())
    assert "init-seed" not in sidecar["config"]


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic", "stepz": 5}))
    rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert rc == 1
    assert "stepz" in capsys.readouterr().err


def test_config_file_unknown_optimizer_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic",
                                    "optimizer": "lion"}))
    rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert rc == 1
    assert "lion" in capsys.readouterr().err


def test_explicit_flag_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic", "steps": 12,
                                    "lr": 0.02}))
    rc = main(["run", "--config", str(cfg_path), "--steps", "9",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert len(read_rows(tmp_path / "trace.csv")) == 9


def test_preset_vision_defaults(tmp_path, capsys):
    rc = main(["run", "--preset", "vision", "--problem", "quadratic",
               "--dim", "3", "--steps", "10", "--outdir", str(tmp_path)])
    assert rc == 0
    cfg = json.loads((tmp_path / "trace.meta.json").read_text())["config"]
    assert cfg["p"] == 0.125
    assert cfg["beta1"] == 0.9
    assert cfg["beta2"] == 0.999
    assert cfg["lr"] == 0.1


def test_sweep_p_default_grid(tmp_path, capsys):
    rc = main(["sweep-p", "--problem", "quadratic", "--dim", "3",
               "--steps", "15", "--seeds", "2", "--lr", "0.05",
               "--outdir", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert list(rows[0]) == ["p", "t", "mean_loss", "mean_grad_norm_sq"]
    p_values = sorted({float(r["p"]) for r in rows})
    assert p_values == [0.0625, 0.125, 0.2, 0.25, 0.4]
    assert len(rows) == 5 * 15
    meta = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert "milestones" not in meta["config"]  # the schedule is constant


def test_sweep_p_custom_grid(tmp_path, capsys):
    rc = main(["sweep-p", "--problem", "quadratic", "--dim", "3",
               "--steps", "10", "--seeds", "1", "--lr", "0.05",
               "--p-list", "0.5,0.25", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert sorted({float(r["p"]) for r in rows}) == [0.25, 0.5]


def test_compare_all_optimizers(tmp_path, capsys):
    rc = main(["compare", "--problem", "quadratic", "--dim", "3",
               "--steps", "20", "--seeds", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "compare.csv")
    assert list(rows[0]) == ["optimizer", "t", "mean_loss",
                             "mean_grad_norm_sq"]
    names = {r["optimizer"] for r in rows}
    assert names == {"padam", "adam", "amsgrad", "sgdm", "adagrad", "adamw"}
    out = capsys.readouterr().out
    assert "padam" in out and "final" in out


def test_compare_subset(tmp_path, capsys):
    rc = main(["compare", "--problem", "quadratic", "--dim", "3",
               "--steps", "10", "--seeds", "1",
               "--optimizers", "padam,adam", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "compare.csv")
    assert {r["optimizer"] for r in rows} == {"padam", "adam"}


def test_verify_reductions_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "reductions", "--steps", "200",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["suite"] == "reductions"
    assert report["passed"] is True


def test_verify_gradients_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "gradients", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_verify_trajectory_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "trajectory", "--steps", "120",
               "--seeds", "3", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {"z_identity", "z_step_bound",
                                     "smoothness_gap", "moment_bounds",
                                     "update_energy"}


def test_verify_bound_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "bound", "--steps", "150",
               "--seeds", "3", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["empirical_grad_norm_sq"] <= report["bound"]


def test_verify_bound_rejects_void_hypotheses(tmp_path, capsys):
    rc = main(["verify", "--suite", "bound", "--steps", "80", "--seeds", "2",
               "--beta1", "0.95", "--beta2", "0.9", "--p", "0.5",
               "--outdir", str(tmp_path)])
    assert rc == 3


def test_verify_all_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "all", "--steps", "100", "--seeds", "2",
               "--outdir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["suite"] == "all"
    suites = report["suites"]
    assert set(suites) == {"reductions", "gradients", "trajectory", "bound"}
    assert report["passed"] is all(s["passed"] for s in suites.values())
    assert rc == (0 if report["passed"] else 3)
    for name, sub in suites.items():
        assert sub["wall_ms"] > 0.0, name


def test_verify_all_keeps_the_suites_that_finished(tmp_path, capsys):
    # beta1 >= beta2^(2p) voids the bound: that suite raises, after the
    # other three ran
    rc = main(["verify", "--suite", "all", "--beta1", "0.9999", "--beta2",
               "0.9", "--p", "0.5", "--steps", "50", "--seeds", "2",
               "--outdir", str(tmp_path)])
    assert rc == 3
    report = json.loads((tmp_path / "report.json").read_text())
    error = "beta1/beta2^(2p) = 1.111000 must be below 1"
    assert (report["passed"], report["error"]) == (False, error)
    suites = report["suites"]
    assert suites["bound"] == {"passed": False, "error": error}
    for name in ("reductions", "gradients", "trajectory"):
        assert suites[name]["wall_ms"] > 0.0, name
    assert suites["reductions"]["passed"] is True
    assert set(suites["trajectory"]["checks"]) == {
        "z_identity", "z_step_bound", "smoothness_gap", "moment_bounds",
        "update_energy"}
    assert error in capsys.readouterr().err


def test_verify_unknown_suite_is_config_error(tmp_path):
    assert main(["verify", "--suite", "bogus", "--outdir", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "trajectory", "--seeds", "0"],
    ["verify", "--suite", "bound", "--seeds", "-1"],
    ["verify", "--suite", "reductions", "--steps", "0"],
    ["run", "--problem", "quadratic", "--seeds", "0"],
    ["run", "--problem", "quadratic", "--seeds", "-3"],
    ["compare", "--problem", "quadratic", "--steps", "0"],
])
def test_nonpositive_counts_are_config_errors(argv, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
    least = {"steps": 2, "seeds": 1}
    key = "steps" if "--steps" in argv else "seeds"
    assert f"{key!r} must be at least {least[key]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "bound", "--steps", "1"],
    ["run", "--problem", "quadratic", "--steps", "1"],
])
def test_single_step_is_a_config_error(argv, tmp_path, capsys):
    # output selection draws from steps 2..T, so a run needs two steps
    outdir = tmp_path / "out"
    assert main(argv + ["--outdir", str(outdir)]) == 1
    assert not outdir.exists()
    assert "'steps' must be at least 2, got 1" in capsys.readouterr().err


def test_failed_rewrite_keeps_previous_outputs(tmp_path, monkeypatch,
                                               capsys):
    argv = ["compare", "--problem", "quadratic", "--dim", "3", "--seeds",
            "1", "--optimizers", "padam,sgdm", "--outdir", str(tmp_path)]
    assert main(argv + ["--steps", "10"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "compare_summary.csv" in before

    def refuse(src, dst):
        raise OSError("simulated failure while renaming into place")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="simulated"):
        main(argv + ["--steps", "20"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# one case per subcommand and problem; across the run cases every run key
# is set away from its default at least once
_FLAG_CONFIG_CASES = [
    ("run", {"problem": "quadratic", "optimizer": "padam", "lr": 0.02,
             "p": 0.25, "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6,
             "steps": 30, "seed": 2, "dim": 4, "init-seed": 5,
             "schedule": "multistage", "milestones": "10,20", "decay": 0.5,
             "condition-number": 3.0, "noise": 0.2}),
    ("run", {"problem": "logistic", "optimizer": "adamw", "dim": 4,
             "steps": 20, "seeds": 2, "n-samples": 50, "data-seed": 3,
             "weight-decay": 0.02}),
    ("run", {"problem": "sparse-growth", "optimizer": "sgdm",
             "momentum": 0.5, "dim": 5, "steps": 20, "sparsity": 0.5,
             "rho": 0.2}),
    ("run", {"problem": "rosenbrock", "optimizer": "adagrad", "lr": 0.01,
             "dim": 3, "steps": 20, "schedule": "inv_sqrt"}),
    ("sweep-p", {"problem": "quadratic", "dim": 3, "steps": 15, "seeds": 2,
                 "lr": 0.05, "p-list": "0.5,0.25", "beta1": 0.8}),
    ("compare", {"problem": "logistic", "dim": 3, "steps": 15, "seeds": 2,
                 "n-samples": 40, "optimizers": "padam,sgdm,adamw",
                 "momentum": 0.5, "weight-decay": 0.02}),
]


def test_flag_config_cases_cover_every_run_key():
    from padambench.cli import _DEFAULTS
    changed = {k for command, values in _FLAG_CONFIG_CASES if command == "run"
               for k, v in values.items() if v != _DEFAULTS[k]}
    assert changed == set(_DEFAULTS) - {"p-list", "optimizers"}


def _written_files(outdir):
    files = {}
    for path in sorted(outdir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            text = re.sub(r'"wall_ms": [^,\n]+', '"wall_ms": 0', text)
        files[path.name] = text
    return files


@pytest.mark.parametrize("command, values", _FLAG_CONFIG_CASES)
def test_config_file_matches_flags(command, values, tmp_path, capsys):
    argv = [command]
    for k, v in values.items():
        argv += [f"--{k}", str(v)]
    assert main(argv + ["--outdir", str(tmp_path / "flags")]) == 0
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "config")]) == 0
    flags = _written_files(tmp_path / "flags")
    assert flags
    assert _written_files(tmp_path / "config") == flags


@pytest.mark.parametrize("body, key", [
    ({"lr": None}, "lr"),
    ({"steps": None}, "steps"),
    ({"dim": [3]}, "dim"),
    ({"steps": 2.7}, "steps"),
    ({"steps": True}, "steps"),
    ({"schedule": "cosine"}, "schedule"),
    ({"milestones": [2.5]}, "milestones"),
    ({"lr": 10 ** 400}, "lr"),  # an int beyond the float range
])
def test_config_value_must_match_flag_type(body, key, tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic", "dim": 3,
                                    "steps": 5, **body}))
    outdir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--outdir", str(outdir)])
    assert rc == 1
    assert not outdir.exists()
    assert repr(key) in capsys.readouterr().err


# list keys as JSON lists; the flag form joins each list with commas
_LIST_KEY_CASES = [
    ("sweep-p", {"problem": "quadratic", "dim": 3, "steps": 25, "seeds": 2,
                 "lr": 0.05, "schedule": "multistage",
                 "milestones": [10, 20], "p-list": [0.5, 0.25]}),
    ("compare", {"problem": "quadratic", "dim": 3, "steps": 25, "seeds": 2,
                 "schedule": "multistage", "milestones": [10, 20],
                 "optimizers": ["padam", "sgdm"]}),
]


@pytest.mark.parametrize("command, values", _LIST_KEY_CASES)
def test_list_keys_as_flags_match_json_lists(command, values, tmp_path,
                                             capsys):
    argv = [command]
    for k, v in values.items():
        argv += [f"--{k}", ",".join(map(str, v)) if isinstance(v, list)
                 else str(v)]
    assert main(argv + ["--outdir", str(tmp_path / "flags")]) == 0
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "config")]) == 0
    flags = _written_files(tmp_path / "flags")
    assert _written_files(tmp_path / "config") == flags
    meta = next(json.loads(text) for name, text in flags.items()
                if name.endswith(".meta.json"))
    assert meta["config"]["milestones"] == [10, 20]


# argv, the mean table's sidecar, and keys given that did not apply
_REPLAY_CASES = [
    (["run", "--problem", "quadratic", "--dim", "3", "--steps", "12",
      "--seeds", "3", "--rho", "0.5"], "summary", ["rho"]),
    (["sweep-p", "--problem", "quadratic", "--dim", "3", "--steps", "25",
      "--seeds", "2", "--schedule", "multistage", "--milestones", "10,20",
      "--p-list", "0.5,0.25", "--data-seed", "7"], "sweep", ["data-seed"]),
    (["compare", "--problem", "quadratic", "--dim", "3", "--steps", "15",
      "--seeds", "2", "--lr", "0.01", "--decay", "0.5"], "compare",
     ["decay"]),
    (["compare", "--problem", "quadratic", "--dim", "3", "--steps", "15",
      "--seeds", "2", "--data-seed", "7"], "compare", ["lr", "data-seed"]),
    (["compare", "--problem", "logistic", "--dim", "3", "--n-samples", "40",
      "--data-seed", "5", "--steps", "15", "--seeds", "2", "--optimizers",
      "sgdm,adamw", "--p", "0.25"], "compare", ["lr", "noise", "p"]),
]


@pytest.mark.parametrize("argv, table, unused", _REPLAY_CASES, ids=[
    "run-seeds3", "sweep-p-multistage", "compare-lr", "compare-own-lrs",
    "compare-logistic"])
def test_sidecar_config_replays(argv, table, unused, tmp_path, capsys):
    # a mean table's sidecar records what ran: its config, with the grid,
    # optimizers and seed count beside it, run again writes the same files
    assert main(argv + ["--outdir", str(tmp_path / "first")]) == 0
    meta = json.loads((tmp_path / "first" / f"{table}.meta.json")
                      .read_text())
    assert not set(unused) & set(meta["config"])
    names = {"p_grid": "p-list", "optimizers": "optimizers", "seeds": "seeds"}
    replay = dict(meta["config"], **{names[k]: v for k, v in meta.items()
                                     if k != "config"})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(replay))
    assert main([argv[0], "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "replay")]) == 0
    first = _written_files(tmp_path / "first")
    assert any(name.endswith(".csv") for name in first)
    assert _written_files(tmp_path / "replay") == first


@pytest.mark.parametrize("argv, key", [
    (["run", "--problem", "quadratic", "--schedule", "multistage",
      "--milestones", "10,x"], "milestones"),
    (["sweep-p", "--problem", "quadratic", "--p-list", "0.1,abc"], "p-list"),
])
def test_bad_list_token_names_its_key(argv, key, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(argv + ["--outdir", str(outdir)]) == 1
    assert not outdir.exists()
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("optimizer, flag, value", [
    (name, flag, value)
    for name in ("adam", "amsgrad", "adamw", "adagrad")
    for flag, value in (("beta1", "1.5"), ("beta2", "1.5"),
                        ("epsilon", "-0.5"))
    if flag in REGISTRY[name].flags.values()
])
def test_bad_adaptive_hyperparameter_is_config_error(optimizer, flag, value,
                                                     tmp_path, capsys):
    assert main(["run", "--problem", "quadratic", "--optimizer", optimizer,
                 f"--{flag}", value, "--steps", "5",
                 "--outdir", str(tmp_path)]) == 1
    assert f"{flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("optimizer, flag, value, message", [
    ("sgdm", "momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
    ("adamw", "weight-decay", "-1",
     "weight decay must be nonnegative, got -1.0"),
])
def test_bad_momentum_or_weight_decay_is_config_error(
        command, optimizer, flag, value, message, tmp_path, capsys):
    outdir = tmp_path / "out"
    which = (["--optimizer", optimizer] if command == "run"
             else ["--optimizers", f"padam,{optimizer}"])
    assert main([command, "--problem", "quadratic", *which, f"--{flag}",
                 value, "--steps", "5", "--outdir", str(outdir)]) == 1
    assert message in capsys.readouterr().err
    assert not any(outdir.glob("*.csv"))


@pytest.mark.parametrize("argv, body, key", [
    (["compare", "--problem", "quadratic", "--optimizers",
      "padam,adam,padam"], None, "optimizers"),
    (["sweep-p", "--problem", "quadratic", "--p-list", "0.1,0.10"], None,
     "p-list"),
    (["compare", "--problem", "quadratic"], {"optimizers": ["sgdm", "sgdm"]},
     "optimizers"),
    (["sweep-p", "--problem", "quadratic"], {"p-list": [0.25, 0.25]},
     "p-list"),
])
def test_repeated_list_entry_names_its_key(argv, body, key, tmp_path,
                                           capsys):
    if body is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(body))
        argv = argv + ["--config", str(cfg_path)]
    outdir = tmp_path / "out"
    assert main(argv + ["--steps", "5", "--outdir", str(outdir)]) == 1
    assert not outdir.exists()
    assert f"{key!r} repeats an entry" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    (None, "cannot read config file"),
    ("{not json", "config file is not valid JSON"),
    ("[1, 2]", "config file must hold a JSON object"),
])
def test_unusable_config_file_is_config_error(body, message, tmp_path,
                                              capsys):
    cfg_path = tmp_path / "c.json"
    if body is not None:
        cfg_path.write_text(body)
    outdir = tmp_path / "out"
    assert main(["run", "--problem", "quadratic", "--config", str(cfg_path),
                 "--outdir", str(outdir)]) == 1
    assert not outdir.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run"], "a problem must be chosen (--problem)"),
    (["sweep-p", "--problem", "quadratic", "--p-list", ""], "empty p list"),
    (["compare", "--problem", "quadratic", "--optimizers", ""],
     "empty optimizer list"),
    (["compare", "--problem", "quadratic", "--optimizers", "padam,lion"],
     "unknown optimizer 'lion'"),
])
def test_missing_or_empty_choice_is_config_error(argv, message, tmp_path,
                                                 capsys):
    outdir = tmp_path / "out"
    assert main(argv + ["--steps", "5", "--outdir", str(outdir)]) == 1
    assert not outdir.exists()
    assert message in capsys.readouterr().err
