"""Verification against a padam whose second moment keeps no running
maximum (``v_hat = v``, Adam's denominator). The maximum is the change
that gives the method its convergence proof (Reddi et al. 2018), so every
verdict that speaks for the claim must turn against this mutant."""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from padambench.cli import main
from padambench.optim import REGISTRY, PadamConfig, padam_step
from padambench.problems import make_quadratic
from padambench.theory import optimal_alpha, verify_bound


def _padam_without_max(state, x, g, lr, cfg):
    # the maximum over a zeroed v_hat is the new v itself
    return padam_step(dataclasses.replace(state, v_hat=np.zeros_like(state.v)),
                      x, g, lr, cfg)


@pytest.fixture
def without_max(monkeypatch):
    monkeypatch.setitem(REGISTRY, "padam", dataclasses.replace(
        REGISTRY["padam"],
        bind=lambda kw: partial(_padam_without_max, cfg=PadamConfig(**kw))))


@pytest.mark.parametrize("suite", ["bound", "reductions"])
def test_verify_suite_fails(without_max, suite, tmp_path, capsys):
    assert main(["verify", "--suite", suite, "--steps", "1000", "--seeds",
                 "8", "--dim", "10", "--outdir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    if suite == "bound":
        assert report["checks"]["z_step_bound"]["status"] == "fail"
    else:
        assert report["max_rel_gap_half_exponent"] > 0.0


@pytest.mark.parametrize("p", [0.125, 0.5])
def test_criterion_04_report_is_inapplicable(without_max, p):
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=p, epsilon=1e-8)
    rep = verify_bound(make_quadratic(10, condition_number=10.0, noise=0.1),
                       cfg, alpha=optimal_alpha(10, 1000, 0.5), steps=1000,
                       n_seeds=8, seed=0)
    assert not rep.applicable
    assert rep.checks["z_step_bound"].status == "fail"
