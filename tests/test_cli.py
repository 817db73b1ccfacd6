"""End-to-end tests for the command line interface.

All invocations go through main(argv) in-process so exit codes are the
values under test, not SystemExit side effects.
"""

import csv
import json
import os

import numpy as np
import pytest

from padambench import (OPTIMIZERS, RunSpec, Schedule, make_quadratic,
                        read_trace_csv, run)
from padambench.cli import main


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
    assert "at least 1" in capsys.readouterr().err


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
