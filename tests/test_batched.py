"""Runs of several specs in one replica block, and the MLP's held scratch.

``repeat_runs(specs, n)`` advances the replicas of every spec in the same
blocks, each spec's rows with its own step rule, schedule and state, and
returns the traces spec-major; each must be bitwise its lone ``run``.
The MLP's full-batch passes run in stacked slices on scratch held per
thread, so no call may see another's intermediates.
"""

import dataclasses
import threading

import numpy as np
import pytest

from padambench import harness
from padambench.harness import (
    CSV_HEADER,
    OPTIMIZERS,
    RunSpec,
    Schedule,
    repeat_runs,
    run,
)
from padambench.optim import REGISTRY
from padambench.problems import (
    StochasticProblem,
    _draw_rows,
    _mlp_eval,
    _rowdot,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)

_COLUMNS = CSV_HEADER.split(",")


def _specs(problem, steps, lr=None, record_dense=False, **params):
    """One spec per optimizer, with its own seed, each taking those of
    ``params`` it has; the sgdm spec runs a multistage schedule."""
    specs = []
    for k, name in enumerate(OPTIMIZERS):
        base = lr if lr is not None else REGISTRY[name].compare_lr
        schedule = (Schedule("multistage", base, milestones=(5, 9))
                    if name == "sgdm" else Schedule("constant", base))
        specs.append(RunSpec(
            problem=problem, optimizer=name,
            opt_params={k: v for k, v in params.items()
                        if k in REGISTRY[name].defaults},
            schedule=schedule, steps=steps, seed=3 * k,
            record_dense=record_dense))
    return specs


def _assert_same_trace(a, b):
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.diverged is b.diverged
    assert a.box_exit == b.box_exit
    assert a.meta["optimizer"] == b.meta["optimizer"]
    assert a.meta["config"] == b.meta["config"]
    assert (a.dense is None) == (b.dense is None)
    for name, arr in (a.dense or {}).items():
        assert arr.tobytes() == b.dense[name].tobytes(), name


def _assert_mixed_equals_lone(specs, n_seeds):
    traces = repeat_runs(specs, n_seeds)
    assert len(traces) == len(specs) * n_seeds
    for k, trace in enumerate(traces):
        spec = specs[k // n_seeds]
        alone = run(dataclasses.replace(spec, seed=spec.seed + k % n_seeds))
        _assert_same_trace(trace, alone)
    return traces


@pytest.mark.parametrize("make, steps, n_seeds", [
    (lambda: make_mlp(0), 12, 2),
    (lambda: make_quadratic(5, 8.0, 0.1), 30, 3),
])
def test_all_optimizers_in_one_block_equal_lone_runs(make, steps, n_seeds):
    traces = _assert_mixed_equals_lone(_specs(make(), steps), n_seeds)
    assert len({tr.meta["wall_ms"] for tr in traces}) == 1  # one block


def test_mixed_block_with_dense_histories():
    _assert_mixed_equals_lone(
        _specs(make_quadratic(4, 8.0, 0.1), 20, record_dense=True), 2)


def test_mixed_block_with_diverging_rows():
    traces = _assert_mixed_equals_lone(_specs(make_rosenbrock(4), 60, 0.5),
                                       3)
    assert any(tr.diverged for tr in traces)
    assert not all(tr.diverged for tr in traces)


def test_mixed_block_with_zero_denominators():
    traces = _assert_mixed_equals_lone(
        _specs(make_sparse_growth(6, sparsity=0.1, seed=0), 40,
               epsilon=0.0), 3)
    assert any(np.isinf(tr.eff_lr_max).any() for tr in traces)


def _tiny_gradient_problem() -> StochasticProblem:
    """Coordinate 0's stochastic gradient is 0, except on rare draws where
    it is 1e-163: under epsilon = 0 its second moment underflows to 0
    while its momentum does not, so padam and amsgrad raise
    ``NumericError`` there, and the other rules step on."""

    def fill(rng, row):
        row[0] = 1e-163 if rng.random() < 0.04 else 0.0
        row[1] = rng.standard_normal()

    return StochasticProblem(
        name="tiny-gradient", dim=2,
        loss=lambda x: 0.5 * _rowdot(x, x),
        exact_grad=lambda x: np.array(x, dtype=np.float64),
        stoch_loss=lambda x, xi: 0.5 * _rowdot(x, x),
        stoch_grad=lambda x, xi: np.stack([xi[..., 0], x[..., 1] + xi[..., 1]],
                                          axis=-1),
        sample_xi=lambda rng, t: _draw_rows(rng, (2,), fill),
    )


def test_mixed_block_with_numeric_errors():
    traces = _assert_mixed_equals_lone(
        _specs(_tiny_gradient_problem(), 60, 0.05, record_dense=True,
               epsilon=0.0), 4)
    stopped = {tr.meta["optimizer"] for tr in traces if tr.diverged}
    assert stopped and stopped <= {"padam", "amsgrad"}


def test_mixed_specs_cross_a_block_boundary(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 0)  # blocks of 16 rows
    traces = _assert_mixed_equals_lone(_specs(make_quadratic(3), 25), 3)
    walls = [tr.meta["wall_ms"] for tr in traces]
    assert len(set(walls[:16])) == 1 and walls[16] == walls[17] != walls[0]


@pytest.mark.parametrize("make, lr, params", [
    (lambda: make_quadratic(5, 8.0, 0.1), None, {}),
    (lambda: make_mlp(0), None, {}),
    (lambda: make_rosenbrock(4), 0.5, {}),  # some rows diverge
    (lambda: make_sparse_growth(6, sparsity=0.1, seed=0), None,
     {"epsilon": 0.0}),
    (_tiny_gradient_problem, 0.05, {"epsilon": 0.0}),  # NumericError rows
])
def test_mixed_block_draws_ahead_equal_inline(make, lr, params, monkeypatch):
    # each next draw on the worker thread, against every draw inline, in
    # blocks of 16 rows: the 18 rows cross a block boundary
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 0)
    specs = _specs(make(), 30, lr, record_dense=True, **params)
    runs = []
    for prefetch in (1 << 62, 0):
        monkeypatch.setattr(harness, "_PREFETCH_BYTES", prefetch)
        runs.append(repeat_runs(specs, 3))
    for inline, ahead in zip(*runs, strict=True):
        _assert_same_trace(inline, ahead)


@pytest.mark.parametrize("change", [
    {"problem": make_quadratic(5, 8.0, 0.1)},  # equal, but not the same
    {"steps": 31},
    {"record_dense": True},
])
def test_specs_of_one_block_must_share_problem_and_length(change):
    specs = _specs(make_quadratic(5, 8.0, 0.1), 30)
    specs[2] = dataclasses.replace(specs[2], **change)
    with pytest.raises(ValueError, match="share one problem"):
        repeat_runs(specs, 2)


def test_no_specs_is_an_error():
    with pytest.raises(ValueError, match="no run specs"):
        repeat_runs([], 2)


def _point_block(rows, seed=0, scale=0.3):
    return scale * np.random.default_rng(seed).standard_normal(
        (rows, make_mlp(0).dim))


@pytest.mark.parametrize("rows", [1, 3, 4, 5, 17])
def test_mlp_interleaved_calls_equal_lone_calls(rows):
    prob = make_mlp(2)
    feats, labels = prob.meta["features"], prob.meta["labels"]
    x, y = _point_block(rows, rows), _point_block(rows, rows + 100)
    xi = prob.sample_xi([np.random.default_rng(k) for k in range(rows)], 1)

    def lone(z):  # a pass on fresh arrays, as no scratch is shared
        return _mlp_eval(z, feats, labels, True)

    g_x = prob.exact_grad(x)
    g_y0 = prob.exact_grad(y[0])
    f_y = prob.loss(y)  # the value pass: the memo holds y[0]
    sg_x = prob.stoch_grad(x, xi)
    f_x0 = prob.loss(x[0])
    g_y = prob.exact_grad(y)
    f_x = prob.loss(x)  # the value pass: the memo holds y
    for k in range(rows):
        f, g = lone(x[k])
        assert g_x[k].tobytes() == g.tobytes() == prob.exact_grad(
            x[k]).tobytes()
        assert f_x[k] == f == prob.loss(x[k])
        f, g = lone(y[k])
        assert g_y[k].tobytes() == g.tobytes()
        assert f_y[k] == f
        assert sg_x[k].tobytes() == prob.stoch_grad(x[k], xi[k]).tobytes()
    assert g_y0.tobytes() == lone(y[0])[1].tobytes()
    assert f_x0 == lone(x[0])[0]


def test_mlp_results_do_not_alias_scratch():
    prob = make_mlp(1)
    x, y = _point_block(6, 1), _point_block(6, 2)
    g = prob.exact_grad(x)
    f = prob.loss(x)
    v = prob.loss(y)
    g0 = prob.exact_grad(x[0])
    want = [a.copy() for a in (g, f, v, g0)]
    for a in (g, f, v, g0):
        a[...] = np.nan
    prob.exact_grad(y[1])  # moves the memo off x
    assert prob.exact_grad(x).tobytes() == want[0].tobytes()
    assert prob.loss(y).tobytes() == want[2].tobytes()
    assert prob.exact_grad(y).tobytes() != want[0].tobytes()
    assert prob.loss(x).tobytes() == want[1].tobytes()
    assert prob.exact_grad(x[0]).tobytes() == want[3].tobytes()


def test_mlp_threads_sharing_one_problem_get_lone_bits():
    prob = make_mlp(3)
    points = [_point_block(5, k) for k in range(2)]
    points += [p[0] for p in points]  # lone points too
    want = [(prob.exact_grad(p).tobytes(),
             np.asarray(prob.loss(p + 0.0)).tobytes()) for p in points]
    got: dict = {}
    start = threading.Barrier(2)

    def work(first):
        start.wait()
        seen = []
        for rep in range(30):
            p = points[(first + rep) % len(points)]
            seen.append((prob.exact_grad(p).tobytes(),
                         np.asarray(prob.loss(p + 0.0)).tobytes()))
        got[first] = seen

    threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for first, seen in got.items():
        for rep, pair in enumerate(seen):
            assert pair == want[(first + rep) % len(points)]
