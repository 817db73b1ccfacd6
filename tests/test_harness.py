"""Unit tests for the deterministic run harness and trace persistence."""

import dataclasses
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from padambench.harness import (
    RunSpec,
    Schedule,
    TraceFormatError,
    mean_channel,
    read_trace_csv,
    repeat_runs,
    run,
    schedule_lr,
    select_output_indices,
    write_trace_csv,
)
from padambench.problems import (
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)

CSV_HEADER = "t,loss,grad_norm_sq,lr,eff_lr_min,eff_lr_max,vhat_min,vhat_max"


def quad_spec(**kw):
    defaults = dict(
        problem=make_quadratic(3, condition_number=5.0, noise=0.1),
        optimizer="padam",
        opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.125, "epsilon": 1e-8},
        schedule=Schedule("constant", 0.05),
        steps=40,
        seed=0,
    )
    defaults.update(kw)
    return RunSpec(**defaults)


# ---------------------------------------------------------------- schedules


def test_schedule_constant():
    s = Schedule("constant", 0.1)
    assert [schedule_lr(s, t) for t in (1, 7, 10**6)] == [0.1, 0.1, 0.1]


def test_schedule_inv_sqrt_frozen():
    s = Schedule("inv_sqrt", 0.2)
    assert schedule_lr(s, 1) == 0.2
    assert schedule_lr(s, 3) == 0.11547005383792516  # 0.2 / sqrt(3)


def test_schedule_multistage_frozen():
    s = Schedule("multistage", 0.1, milestones=(100, 150), decay=0.1)
    assert schedule_lr(s, 99) == 0.1
    assert schedule_lr(s, 100) == 0.1 * 0.1
    assert schedule_lr(s, 149) == 0.1 * 0.1
    assert schedule_lr(s, 150) == 0.1 * 0.1 * 0.1
    assert schedule_lr(s, 10**4) == 0.1 * 0.1 * 0.1


def test_schedule_is_nonincreasing():
    for s in (
        Schedule("inv_sqrt", 1.0),
        Schedule("multistage", 1.0, milestones=(3, 7, 11), decay=0.5),
    ):
        vals = [schedule_lr(s, t) for t in range(1, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("linear", 0.1)
    with pytest.raises(ValueError):
        Schedule("constant", -0.1)
    with pytest.raises(ValueError):
        Schedule("multistage", 0.1, milestones=(5, 5), decay=0.1)
    with pytest.raises(ValueError):
        Schedule("multistage", 0.1, milestones=(5, 9), decay=1.5)
    with pytest.raises(ValueError):
        schedule_lr(Schedule("constant", 0.1), 0)


# --------------------------------------------------------------------- runs


def test_run_trace_shape_and_monotone_t():
    trace = run(quad_spec())
    assert len(trace.t) == 40
    assert trace.t[0] == 1 and np.all(np.diff(trace.t) == 1)
    assert not trace.diverged
    for name in ("loss", "grad_norm_sq", "lr", "eff_lr_min", "eff_lr_max",
                 "vhat_min", "vhat_max"):
        col = getattr(trace, name)
        assert col.shape == (40,)
        assert np.all(np.isfinite(col))
    assert np.all(trace.eff_lr_min <= trace.eff_lr_max)
    assert np.all(trace.vhat_min <= trace.vhat_max)


def test_run_rejects_short_horizon():
    with pytest.raises(ValueError):
        quad_spec(steps=1)


def test_run_rejects_unknown_optimizer():
    with pytest.raises(ValueError):
        run(quad_spec(optimizer="nadam"))


def test_run_lr_column_follows_schedule():
    sched = Schedule("inv_sqrt", 0.1)
    trace = run(quad_spec(schedule=sched, steps=9))
    np.testing.assert_array_equal(
        trace.lr, [schedule_lr(sched, t) for t in range(1, 10)]
    )


def test_run_records_prestep_loss():
    prob = make_quadratic(3, condition_number=5.0, noise=0.0)
    start = np.array([1.0, -2.0, 0.5])
    prob = prob.with_start(start)
    trace = run(quad_spec(problem=prob, record_dense=True))
    assert trace.loss[0] == prob.loss(start)
    np.testing.assert_array_equal(trace.dense["x"][0], start)


def test_run_default_init_is_seeded_small_gaussian():
    spec = quad_spec(record_dense=True)
    trace = run(spec)
    expected = 0.1 * np.random.default_rng(spec.seed).standard_normal(3)
    np.testing.assert_array_equal(trace.dense["x"][0], expected)


def test_run_init_seed_decouples_start_from_noise():
    a = run(quad_spec(seed=1, init_seed=7, record_dense=True))
    b = run(quad_spec(seed=2, init_seed=7, record_dense=True))
    np.testing.assert_array_equal(a.dense["x"][0], b.dense["x"][0])
    assert not np.array_equal(a.loss[1:], b.loss[1:])  # noise streams differ


def test_run_padam_p_zero_effective_lr_equals_schedule():
    trace = run(quad_spec(opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.0,
                                      "epsilon": 1e-8}))
    np.testing.assert_array_equal(trace.eff_lr_min, trace.lr)
    np.testing.assert_array_equal(trace.eff_lr_max, trace.lr)


def test_run_dense_channels_consistent():
    spec = quad_spec(record_dense=True, steps=25)
    trace = run(spec)
    d = trace.dense
    assert d["x"].shape == (25, 3) and d["g"].shape == (25, 3)
    # first momentum is (1-beta1) * g_1 and vhat tracks the trace columns
    np.testing.assert_array_equal(d["m"][0], (1.0 - 0.9) * d["g"][0])
    np.testing.assert_array_equal(d["vhat"].min(axis=1), trace.vhat_min)
    np.testing.assert_array_equal(d["vhat"].max(axis=1), trace.vhat_max)
    # x_final is the iterate produced by the last recorded step
    eps, p = 1e-8, 0.125
    last = d["x"][-1] - trace.lr[-1] * d["m"][-1] / (d["vhat"][-1] + eps) ** p
    np.testing.assert_array_equal(d["x_final"], last)


def test_run_sgdm_vhat_columns_are_zero():
    trace = run(quad_spec(optimizer="sgdm", opt_params={"mu": 0.9},
                          schedule=Schedule("constant", 0.01)))
    assert np.all(trace.vhat_min == 0.0) and np.all(trace.vhat_max == 0.0)


def test_run_noiseless_quadratic_converges():
    prob = make_quadratic(4, condition_number=5.0, noise=0.0)
    spec = quad_spec(
        problem=prob,
        opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.25, "epsilon": 1e-8},
        schedule=Schedule("constant", 0.02),
        steps=5000,
    )
    trace = run(spec)
    assert trace.grad_norm_sq.min() < 1e-12


def test_run_divergence_sets_flag_and_truncates():
    prob = make_quadratic(3, condition_number=5.0, noise=0.0)
    spec = quad_spec(problem=prob, optimizer="sgdm", opt_params={"mu": 0.9},
                     schedule=Schedule("constant", 1e4), steps=200)
    trace = run(spec)
    assert trace.diverged
    assert len(trace.t) < 200
    assert np.all(np.isfinite(trace.loss))


def test_run_bitwise_deterministic():
    a = run(quad_spec(record_dense=True))
    b = run(quad_spec(record_dense=True))
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
    np.testing.assert_array_equal(a.dense["x"], b.dense["x"])
    np.testing.assert_array_equal(a.dense["x_final"], b.dense["x_final"])


def test_run_meta_embeds_resolved_config():
    spec = quad_spec(steps=17, seed=5)
    trace = run(spec)
    assert trace.meta["problem"] == "quadratic"
    assert trace.meta["optimizer"] == "padam"
    assert trace.meta["seed"] == 5
    cfg = trace.meta["config"]
    assert cfg["steps"] == 17
    assert cfg["optimizer-params"]["p"] == 0.125
    assert cfg["schedule"]["kind"] == "constant"
    assert trace.meta["wall_ms"] >= 0.0


def test_run_box_exit_detection():
    prob = make_quadratic(2, condition_number=2.0, noise=0.0)
    prob = prob.with_start(np.array([11.0, 0.0]))  # already outside the box
    trace = run(quad_spec(problem=prob, steps=5))
    assert trace.box_exit == 1


# ----------------------------------------------------------- output choice


def test_select_output_inv_sqrt_frozen_weight():
    # T=3: candidates are t in {2, 3} weighted by lr at t-1.
    # P(t=2) = 1 / (1 + 1/sqrt(2)) = 0.58578643762690497
    sched = Schedule("inv_sqrt", 0.2)
    trace = run(quad_spec(schedule=sched, steps=3))
    idx = select_output_indices(trace, sched, np.random.default_rng(1), 200_000)
    hits = int((idx == 2).sum())
    np.testing.assert_allclose(hits / 200_000, 0.58578643762690497, atol=0.005)


def test_select_output_constant_schedule_uniform():
    trace = run(quad_spec(steps=5, record_dense=True))
    idx = select_output_indices(trace, None, np.random.default_rng(4), 100_000)
    freq = np.bincount(idx, minlength=6)[2:] / 100_000
    np.testing.assert_allclose(freq, 0.25, atol=0.01)


# -------------------------------------------------------------- persistence


def test_csv_round_trip_bitwise(tmp_path):
    trace = run(quad_spec(steps=30, seed=3))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.t, trace.t)
    for name in ("loss", "grad_norm_sq", "lr", "eff_lr_min", "eff_lr_max",
                 "vhat_min", "vhat_max"):
        np.testing.assert_array_equal(getattr(back, name), getattr(trace, name))
    assert back.diverged == trace.diverged
    assert back.meta["seed"] == trace.meta["seed"]
    assert back.meta["config"] == trace.meta["config"]


def test_csv_header_exact(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    assert path.read_text().splitlines()[0] == CSV_HEADER


def test_sidecar_schema(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    sidecar = json.loads((tmp_path / "t.meta.json").read_text())
    assert set(sidecar) == {"problem", "optimizer", "config", "seed",
                            "diverged", "wall_ms"}
    assert sidecar["problem"] == "quadratic"
    assert sidecar["diverged"] is False


def test_read_rejects_tampered_header(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    body = path.read_text().replace("grad_norm_sq", "gradsq")
    path.write_text(body)
    with pytest.raises(TraceFormatError, match="line 1"):
        read_trace_csv(path)


def test_read_rejects_bad_row(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop a field on data line 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="line 4"):
        read_trace_csv(path)


@pytest.mark.parametrize("line, field, value", [
    (4, 1, "nan"),         # loss
    (4, 2, "-inf"),        # grad_norm_sq
    (2, 3, "inf"),         # lr
    (5, 4, "nan"),         # eff_lr_min
    (4, 5, "-inf"),        # eff_lr_max
    (3, 6, "inf"),         # vhat_min
    (4, 7, "nan"),         # vhat_max
    (4, 0, "1"),           # t going 2, 1
    (4, 0, "2"),           # t repeated
    (2, 0, "0"),           # t starting at 0
    (4, 0, "3.0"),         # t not an integer
    (4, 2, "abc"),         # not a number
])
def test_read_rejects_nonconforming_row(tmp_path, line, field, value):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split(",")
    parts[field] = value
    lines[line - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=f"line {line}:"):
        read_trace_csv(path)


@pytest.mark.parametrize("optimizer", ["padam", "amsgrad", "adam", "adagrad"])
def test_infinite_effective_lr_round_trips(tmp_path, optimizer):
    # epsilon = 0 on a sparse problem leaves coordinates with a zero
    # denominator, so the largest effective lr is +inf on every row
    trace = run(RunSpec(make_sparse_growth(10, sparsity=0.1), optimizer,
                        {"epsilon": 0.0}, Schedule("constant", 0.1),
                        steps=20))
    assert not trace.diverged
    assert np.all(trace.eff_lr_max == np.inf)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.t, trace.t)
    for name in ("loss", "grad_norm_sq", "lr", "eff_lr_min", "eff_lr_max",
                 "vhat_min", "vhat_max"):
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(trace, name))


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_trace_csv(run(quad_spec(steps=5)), tmp_path / "t.csv")
    finally:
        os.umask(old)
    for name in ("t.csv", "t.meta.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640


def test_read_without_sidecar(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    (tmp_path / "t.meta.json").unlink()
    back = read_trace_csv(path)
    assert back.meta == {}
    assert back.diverged is False


@pytest.mark.parametrize("sidecar", [
    '{"broken',              # not JSON
    '[1, 2]',                # not an object
    '{"diverged": "no"}',    # diverged not a bool
])
def test_read_rejects_bad_sidecar(tmp_path, sidecar):
    path = tmp_path / "t.csv"
    write_trace_csv(run(quad_spec(steps=5)), path)
    (tmp_path / "t.meta.json").write_text(sidecar)
    with pytest.raises(TraceFormatError, match="t.meta.json"):
        read_trace_csv(path)


def test_csv_uses_17_significant_digits(tmp_path):
    trace = run(quad_spec(steps=5))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    first_loss_field = path.read_text().splitlines()[1].split(",")[1]
    assert float(first_loss_field) == trace.loss[0]


# -------------------------------------------------------------- repetition


def test_repeat_runs_seeds_and_shapes():
    traces = repeat_runs(quad_spec(seed=10, steps=15), n_seeds=3)
    assert len(traces) == 3
    assert [tr.meta["seed"] for tr in traces] == [10, 11, 12]
    assert all(len(tr.t) == 15 for tr in traces)
    # distinct noise streams produce distinct trajectories
    assert not np.array_equal(traces[0].loss, traces[1].loss)


def test_repeat_runs_parallel_matches_serial():
    # the replicas advance together as one block; each must equal the
    # lone run of its seed bitwise
    spec = quad_spec(seed=2, steps=20)
    batched = repeat_runs(spec, n_seeds=4)
    serial = [run(dataclasses.replace(spec, seed=spec.seed + k))
              for k in range(4)]
    for a, b in zip(serial, batched):
        assert a.loss.tobytes() == b.loss.tobytes()
        assert a.grad_norm_sq.tobytes() == b.grad_norm_sq.tobytes()


def test_wide_run_peak_holds_few_arrays():
    # at its peak a run holds x, the state, the draw in use, the next one
    # being drawn ahead on the worker, and the oracle's two temporaries:
    # 8.8 arrays of 8d bytes, counting what run() allocates besides. It
    # peaked at 16.8 when each step returned fresh moments beside 4-6
    # temporaries and the exact gradient and spent draws stayed held, and
    # at 12.8 with fresh moments alone
    d = 2**17  # 1 MiB draws: the worker draws ahead
    spec = RunSpec(problem=make_quadratic(d), optimizer="padam",
                   opt_params={}, schedule=Schedule("constant", 0.1),
                   steps=5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * d, peak / (8 * d)


def test_mean_channel_fsum():
    traces = repeat_runs(quad_spec(seed=0, steps=10), n_seeds=5)
    mean = mean_channel(traces, "loss")
    stacked = np.stack([tr.loss for tr in traces])
    np.testing.assert_allclose(mean, stacked.mean(axis=0), rtol=1e-15)
    assert mean.shape == (10,)


@pytest.mark.parametrize("values", [(math.inf, 1e308, 1e308),
                                    (1e308, math.inf, 1e308),
                                    (math.inf, 1.0, 2.0)])
def test_mean_channel_inf_beside_overflowing_values(values):
    # the first two overflow fsum's finite partials; the mean is +inf
    # either way, as it is for the last
    base = run(quad_spec(steps=2))
    traces = [dataclasses.replace(base, t=base.t[:1],
                                  eff_lr_max=np.array([v]))
              for v in values]
    assert mean_channel(traces, "eff_lr_max").tolist() == [math.inf]
