"""Verification against broken padam step rules (mutants).

The first is a padam whose second moment keeps no running maximum
(``v_hat = v``, Adam's denominator). The maximum is the change that gives
the method its convergence proof (Reddi et al. 2018), so every verdict
that speaks for the claim must turn against this mutant. The table that
follows holds six more faults, each with the trajectory checks that catch
it on the d=10 quadratic."""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from padambench.cli import main
from padambench.optim import (
    REGISTRY,
    OptState,
    PadamConfig,
    StepOutcome,
    _guarded_update,
    _prepare,
    init_state,
    padam_step,
)
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


# fault -> the checks of verify_bound that fail on it, at p = 1/8 and 1/2.
# denominator_from_v divides by (v + eps)^p but records the running max
MUTANTS = {
    "eps_outside_power": ("z_identity", "z_step_bound"),
    "m_without_1_minus_beta1": ("z_identity", "z_step_bound"),
    "exponent_2p": ("z_identity", "z_step_bound"),
    "g_in_place_of_m": ("z_identity", "z_step_bound"),
    "lr_times_1_plus_1e-7": ("z_identity", "z_step_bound"),
    "denominator_from_v": ("z_identity",),
}


def _faulty_padam(state, x, g, lr, cfg, fault=None):
    """``padam_step`` written out with one ``fault`` of ``MUTANTS`` in it;
    with none, it is ``padam_step`` bitwise."""
    x, g = _prepare(state, x, g, lr)
    b1, b2, p, eps = cfg.beta1, cfg.beta2, cfg.p, cfg.epsilon
    m = b1 * state.m + (1.0 if fault == "m_without_1_minus_beta1"
                        else 1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    v_hat = np.maximum(state.v_hat, v)
    if fault == "eps_outside_power":
        denom = v_hat ** p + eps
    elif fault == "exponent_2p":
        denom = (v_hat + eps) ** (2.0 * p)
    elif fault == "denominator_from_v":
        denom = (v + eps) ** p
    else:
        denom = (v_hat + eps) ** p
    if fault == "lr_times_1_plus_1e-7":
        lr = lr * (1.0 + 1e-7)
    update, lo, hi = _guarded_update(lr, g if fault == "g_in_place_of_m"
                                     else m, denom, strict=True)
    new_state = OptState(m=m, v=v, v_hat=v_hat, t=state.t + 1)
    return new_state, StepOutcome(x - update, lo, hi)


def _report(monkeypatch, fault, p):
    monkeypatch.setitem(REGISTRY, "padam", dataclasses.replace(
        REGISTRY["padam"], bind=lambda kw: partial(
            _faulty_padam, cfg=PadamConfig(**kw), fault=fault)))
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=p, epsilon=1e-8)
    return verify_bound(make_quadratic(10, condition_number=10.0, noise=0.1),
                        cfg, alpha=optimal_alpha(10, 1000, 0.5), steps=1000,
                        n_seeds=8, seed=0)


@pytest.mark.parametrize("p", [0.125, 0.5])
def test_written_out_step_without_fault_is_padam(monkeypatch, p):
    rep = _report(monkeypatch, None, p)
    assert rep.applicable
    assert all(c.status == "pass" for c in rep.checks.values())
    rng = np.random.default_rng(0)
    state, x, cfg = init_state(10), rng.standard_normal(10), PadamConfig(p=p)
    for _ in range(5):
        g = rng.standard_normal(10)
        (want, want_out), (got, got_out) = (
            padam_step(state, x, g, 0.1, cfg), _faulty_padam(state, x, g, 0.1,
                                                             cfg))
        for name in ("m", "v", "v_hat"):
            assert getattr(want, name).tobytes() == getattr(got,
                                                            name).tobytes()
        assert want_out.new_x.tobytes() == got_out.new_x.tobytes()
        assert want_out[1:] == got_out[1:]
        state, x = want, want_out.new_x


@pytest.mark.parametrize("p", [0.125, 0.5])
@pytest.mark.parametrize("fault", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, fault, p):
    rep = _report(monkeypatch, fault, p)
    assert not rep.applicable
    for name in MUTANTS[fault]:
        assert rep.checks[name].status == "fail", name
