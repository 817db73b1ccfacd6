"""Replicas run together must equal replicas run alone, bitwise.

``repeat_runs(spec, n)[k]`` is compared with ``run`` on seed
``spec.seed + k`` for every optimizer on every problem, and on blocks in
which some replicas stop early while the others run on. The byte budget
is patched to zero, so blocks hold their 16-row minimum and eighteen seeds
cross a block boundary. A block that makes each next draw one step ahead
on a worker thread must equal the block that draws inline, bitwise.
"""

import dataclasses
import math

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
from padambench.optim import REGISTRY, PadamConfig
from padambench.problems import (
    StochasticProblem,
    _draw_rows,
    _mlp_eval,
    _rowdot,
    make_logistic,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)
from padambench.theory import (
    _folded_runs,
    estimate_growth_s,
    run_trajectory_checks,
)

N_SEEDS = 18
_COLUMNS = CSV_HEADER.split(",")


@pytest.fixture(autouse=True)
def blocks_of_16(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 0)

PROBLEMS = {
    "quadratic": lambda: make_quadratic(4, condition_number=8.0, noise=0.1),
    "rosenbrock": lambda: make_rosenbrock(3),
    "logistic": lambda: make_logistic(4, 40, seed=1),
    "sparse-growth": lambda: make_sparse_growth(5, sparsity=0.5, seed=0,
                                                rho=0.2),
    "mlp": lambda: make_mlp(0),
}


def assert_same_trace(a, b):
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.diverged is b.diverged
    assert a.box_exit == b.box_exit
    assert a.meta["seed"] == b.meta["seed"]
    assert a.meta["config"] == b.meta["config"]
    assert (a.dense is None) == (b.dense is None)
    if a.dense is not None:
        assert sorted(a.dense) == ["g", "m", "vhat", "x", "x_final"]
        assert sorted(b.dense) == sorted(a.dense)
        for name, arr in a.dense.items():
            other = b.dense[name]
            assert arr.shape == other.shape, name
            assert arr.tobytes() == other.tobytes(), name


def assert_batched_equals_serial(spec, n_seeds=N_SEEDS):
    batched = repeat_runs(spec, n_seeds)
    assert len(batched) == n_seeds
    for k, trace in enumerate(batched):
        alone = run(dataclasses.replace(spec, seed=spec.seed + k))
        assert_same_trace(trace, alone)
    return batched


def _spied(problem):
    """``problem`` with its oracles wrapped: ``exact_grad`` logs a copy of
    each block it is given, and every array an oracle returns is kept
    with a copy of itself."""
    iterates, returned = [], []

    def keep(out):
        if isinstance(out, np.ndarray):
            returned.append((out, out.copy()))
        return out

    def exact_grad(x):
        iterates.append(x.copy())
        return keep(problem.exact_grad(x))

    spied = dataclasses.replace(
        problem, exact_grad=exact_grad,
        loss=lambda x: keep(problem.loss(x)),
        stoch_grad=lambda x, xi: keep(problem.stoch_grad(x, xi)),
        sample_xi=lambda rng, t: keep(problem.sample_xi(rng, t)))
    return spied, iterates, returned


def assert_stopped_rows_stay_zero(spec, n_seeds=N_SEEDS):
    """The oracles still evaluate a stopped row, so its stochastic gradient
    need not be zero; the harness must keep the row zero in ``x``, which
    takes a zero ``g`` and state too, and must write into no array an
    oracle returned. Eighteen seeds make one block of 16 rows, then one
    of 2."""
    problem, iterates, returned = _spied(spec.problem)
    traces = repeat_runs(dataclasses.replace(spec, problem=problem), n_seeds)
    blocks = {}
    for block in iterates:  # the steps of each block, in order
        blocks.setdefault(len(block), []).append(block)
    evaluated_after_stop = 0
    for k, trace in enumerate(traces):
        first = 16 * (k // 16)
        steps = blocks[min(16, n_seeds - first)]
        if trace.diverged:
            # zero from the step after the one that stopped it
            after = steps[len(trace.t) + 1:]
            assert all(not block[k - first].any() for block in after)
            evaluated_after_stop += len(after)
    assert evaluated_after_stop > 0
    for out, copy in returned:
        assert out.tobytes() == copy.tobytes()


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_batched_replicas_equal_serial_runs(optimizer, problem):
    spec = RunSpec(problem=PROBLEMS[problem](), optimizer=optimizer,
                   opt_params={},
                   schedule=Schedule("inv_sqrt",
                                     REGISTRY[optimizer].compare_lr),
                   steps=25, seed=5, record_dense=True)
    assert_batched_equals_serial(spec)


def test_mlp_memo_leaves_traces_unchanged():
    # the MLP's loss reuses the full-batch pass of exact_grad at the same
    # point; a copy that makes both passes must give the same traces
    prob = make_mlp(0)
    feats, labels = prob.meta["features"], prob.meta["labels"]
    plain = dataclasses.replace(
        prob,
        loss=lambda x: _mlp_eval(x, feats, labels, want_grad=False)[0],
        exact_grad=lambda x: _mlp_eval(x, feats, labels, want_grad=True)[1])
    spec = RunSpec(problem=prob, optimizer="padam", opt_params={},
                   schedule=Schedule("inv_sqrt", REGISTRY["padam"].compare_lr),
                   steps=30, seed=5, record_dense=True)
    plain_spec = dataclasses.replace(spec, problem=plain)
    assert_same_trace(run(spec), run(plain_spec))
    for a, b in zip(repeat_runs(spec, N_SEEDS),
                    repeat_runs(plain_spec, N_SEEDS), strict=True):
        assert_same_trace(a, b)


def test_mixed_block_some_replicas_diverge():
    # heavy-ball SGD past its stability limit: most noise streams overflow
    # after 347-349 recorded steps, seed 3 lasts the whole horizon
    spec = RunSpec(problem=make_quadratic(5), optimizer="sgdm",
                   opt_params={}, schedule=Schedule("constant", 0.5),
                   steps=350, seed=0, record_dense=True)
    traces = assert_batched_equals_serial(spec)
    lengths = {len(tr.t) for tr in traces}
    assert any(tr.diverged for tr in traces)
    assert not all(tr.diverged for tr in traces)
    assert len(lengths) > 2
    assert_stopped_rows_stay_zero(spec)


def _tiny_gradient_problem() -> StochasticProblem:
    """Coordinate 0's stochastic gradient is 0, except on rare draws where
    it is 1e-163: under epsilon = 0 its second moment underflows to 0
    while its momentum does not, so the step raises ``NumericError``."""

    def fill(rng, row):
        row[0] = 1e-163 if rng.random() < 0.04 else 0.0
        row[1] = rng.standard_normal()

    def stoch_grad(x, xi):
        return np.stack([xi[..., 0], x[..., 1] + xi[..., 1]], axis=-1)

    return StochasticProblem(
        name="tiny-gradient", dim=2,
        loss=lambda x: 0.5 * _rowdot(x, x),
        exact_grad=lambda x: np.array(x, dtype=np.float64),
        stoch_loss=lambda x, xi: 0.5 * _rowdot(x, x),
        stoch_grad=stoch_grad,
        sample_xi=lambda rng, t: _draw_rows(rng, (2,), fill),
    )


def test_mixed_block_numeric_error_on_some_replicas():
    spec = RunSpec(problem=_tiny_gradient_problem(), optimizer="padam",
                   opt_params={"epsilon": 0.0},
                   schedule=Schedule("constant", 0.05),
                   steps=60, seed=0, record_dense=True)
    traces = assert_batched_equals_serial(spec)
    stopped = [len(tr.t) for tr in traces if tr.diverged]
    assert len(set(stopped)) > 1  # raised at different steps
    assert not all(tr.diverged for tr in traces)
    assert_stopped_rows_stay_zero(spec)


def _nan_gradient_problem() -> StochasticProblem:
    """A quadratic whose stochastic gradient is NaN on a coordinate with
    probability 0.01 per step: a replica stops at the first such draw."""

    def fill(rng, row):
        row[:] = 0.1 * rng.standard_normal(2)
        row[rng.random(2) < 0.01] = math.nan

    return StochasticProblem(
        name="nan-gradient", dim=2,
        loss=lambda x: 0.5 * _rowdot(x, x),
        # the iterate itself, as sparse-growth's gradient is
        exact_grad=lambda x: np.asarray(x, dtype=np.float64),
        stoch_loss=lambda x, xi: 0.5 * _rowdot(x, x),
        stoch_grad=lambda x, xi: x + xi,
        sample_xi=lambda rng, t: _draw_rows(rng, (2,), fill),
    )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_mixed_block_nonfinite_stochastic_gradient(optimizer):
    spec = RunSpec(problem=_nan_gradient_problem(), optimizer=optimizer,
                   opt_params={},
                   schedule=Schedule("constant",
                                     REGISTRY[optimizer].compare_lr),
                   steps=80, seed=0, record_dense=True)
    traces = assert_batched_equals_serial(spec)
    stopped = [len(tr.t) for tr in traces if tr.diverged]
    assert len(set(stopped)) > 1
    assert not all(tr.diverged for tr in traces)
    assert_stopped_rows_stay_zero(spec)


def _spike_problem() -> StochasticProblem:
    """Pure noise gradients that are 1e308 on rare draws: at lr 10 that
    step overflows the new iterate, while the loss and both gradients at
    the current iterate stay finite."""

    def fill(rng, row):
        row[:] = 0.1 * rng.standard_normal(2)
        if rng.random() < 0.03:
            row[0] = 1e308

    return StochasticProblem(
        name="spike", dim=2,
        loss=lambda x: 0.5 * _rowdot(x, x),
        exact_grad=lambda x: np.asarray(x, dtype=np.float64),
        stoch_loss=lambda x, xi: 0.5 * _rowdot(x, x),
        stoch_grad=lambda x, xi: xi.copy(),
        sample_xi=lambda rng, t: _draw_rows(rng, (2,), fill),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixed_block_nonfinite_new_iterate():
    spec = RunSpec(problem=_spike_problem(), optimizer="sgdm",
                   opt_params={}, schedule=Schedule("constant", 10.0),
                   steps=60, seed=0, record_dense=True)
    traces = assert_batched_equals_serial(spec)
    stopped = [len(tr.t) for tr in traces if tr.diverged]
    assert len(set(stopped)) > 1
    assert not all(tr.diverged for tr in traces)
    # stopped after its step: the spike row is recorded, x_final is finite
    for tr in traces:
        if tr.diverged:
            assert tr.dense["g"][-1, 0] == 1e308
            assert np.isfinite(tr.dense["x_final"]).all()
    assert_stopped_rows_stay_zero(spec)


def test_lone_run_leaves_the_oracle_gradient_alone():
    # the stochastic gradient is the draw itself, which the test keeps: a
    # lone run steps on it in place of a copy and must not zero it on stop,
    # nor write into it, nor into the iterate exact_grad hands back
    draws, copies = [], []
    base = _nan_gradient_problem()

    def sample_xi(rng, t):
        draws.append(base.sample_xi(rng, t))
        copies.append(draws[-1].copy())
        return draws[-1]

    problem = dataclasses.replace(base, sample_xi=sample_xi,
                                  stoch_grad=lambda x, xi: xi)
    trace = run(RunSpec(problem=problem, optimizer="padam", opt_params={},
                        schedule=Schedule("constant", 0.1), steps=80,
                        seed=0))
    assert trace.diverged and len(trace.t) == len(draws) - 1
    assert np.isnan(draws[-1]).any()
    assert [d.tobytes() for d in draws] == [c.tobytes() for c in copies]
    spied, _, returned = _spied(problem)
    run(RunSpec(problem=spied, optimizer="padam", opt_params={},
                schedule=Schedule("constant", 0.1), steps=80, seed=0))
    assert all(out.tobytes() == copy.tobytes() for out, copy in returned)


def _cliff_problem() -> StochasticProblem:
    """A quadratic whose loss is infinite past ``x[0] = 0.05``, with a
    stochastic gradient that drifts ``x[0]`` towards it: replicas stop at
    the loss check where their start or their path crosses it, some
    before their first step."""

    def loss(x):
        return np.where(x[..., 0] < 0.05, 0.5 * _rowdot(x, x), math.inf)

    def fill(rng, row):
        row[:] = 0.05 * rng.standard_normal(3)

    return StochasticProblem(
        name="cliff", dim=3, loss=loss,
        exact_grad=lambda x: np.asarray(x, dtype=np.float64),
        stoch_loss=lambda x, xi: loss(x),
        stoch_grad=lambda x, xi: x + xi - np.array([0.2, 0.0, 0.0]),
        sample_xi=lambda rng, t: _draw_rows(rng, (3,), fill),
    )


@pytest.mark.parametrize("optimizer, lr", [("padam", 0.01), ("sgdm", 0.002)])
def test_mixed_block_loss_check_before_first_step(optimizer, lr):
    spec = RunSpec(problem=_cliff_problem(), optimizer=optimizer,
                   opt_params={}, schedule=Schedule("constant", lr),
                   steps=40, seed=0, record_dense=True)
    traces = assert_batched_equals_serial(spec)
    lengths = [len(tr.t) for tr in traces if tr.diverged]
    assert 0 in lengths and len(set(lengths)) > 1
    assert not all(tr.diverged for tr in traces)
    never = next(tr for tr in traces if len(tr.t) == 0)
    assert never.dense["x"].shape == (0, 3)
    assert never.dense["x_final"][0] >= 0.05
    assert_stopped_rows_stay_zero(spec)


def assert_fold_matches_dense(spec, n_seeds, monkeypatch, ahead=False):
    """The checks folded while a block runs, window by window, equal the
    one-window fold over each dense trace: verdicts and details identical,
    margins, the growth estimate and ``v_hat_1`` bitwise, for windows of
    one step, of a size that divides nothing, of 64 steps, of the whole
    run and of more than the run. The dense runs draw inline; with
    ``ahead``, the folded runs draw each next step on the worker thread."""
    problem = spec.problem
    dense = repeat_runs(dataclasses.replace(spec, record_dense=True), n_seeds)
    if ahead:
        monkeypatch.setattr(harness, "_PREFETCH_BYTES", 0)
    entry = REGISTRY[spec.optimizer]
    cfg = entry.padam_config(dense[0].meta["config"]["optimizer-params"])
    steps = spec.steps
    monkeypatch.setattr(harness, "_WINDOW_FLOATS", 1 << 30)
    for width in (1, 7, 64, steps, steps + 1):
        monkeypatch.setattr(harness, "_WINDOW", width)
        folded = list(_folded_runs(spec, n_seeds, cfg))
        for (trace, fold, j), want in zip(folded, dense, strict=True):
            assert all(getattr(trace, name).tobytes()
                       == getattr(want, name).tobytes() for name in _COLUMNS)
            assert (trace.diverged, trace.box_exit) == \
                (want.diverged, want.box_exit)
            got = fold.results(j, trace)
            for name, res in run_trajectory_checks(want, problem).items():
                assert (got[name].status, got[name].detail) == \
                    (res.status, res.detail), (width, name)
                assert np.float64(got[name].margin).tobytes() == \
                    np.float64(res.margin).tobytes(), (width, name)
            if want.diverged:
                continue
            est = fold.growth.estimate(j, problem.known_G_inf)
            ref = estimate_growth_s(want.dense["g"], problem.known_G_inf)
            assert np.float64(est.s).tobytes() == \
                np.float64(ref.s).tobytes(), width
            assert est.degenerate is ref.degenerate
            assert fold.vhat1[j].tobytes() == want.dense["vhat"][0].tobytes()


@pytest.mark.parametrize("optimizer", ["padam", "amsgrad"])
def test_fold_matches_dense_on_mixed_blocks(optimizer, monkeypatch):
    # rows stop mid-window (at the loss check, at a nonfinite stochastic
    # gradient, on NumericError) and the others run on; these problems
    # have no certificates, so the growth estimate falls back on max |g|
    for spec in (
        RunSpec(problem=_nan_gradient_problem(), optimizer=optimizer,
                opt_params={}, schedule=Schedule("constant", 0.05),
                steps=80, seed=0),
        RunSpec(problem=_tiny_gradient_problem(), optimizer=optimizer,
                opt_params={"epsilon": 0.0},
                schedule=Schedule("constant", 0.05), steps=60, seed=0),
        RunSpec(problem=_cliff_problem(), optimizer=optimizer,
                opt_params={}, schedule=Schedule(
                    "constant", 0.01 if optimizer == "padam" else 0.0005),
                steps=40, seed=0),
    ):
        traces = repeat_runs(spec, N_SEEDS)
        assert any(tr.diverged for tr in traces), spec.problem.name
        assert not all(tr.diverged for tr in traces), spec.problem.name
        assert_fold_matches_dense(spec, N_SEEDS, monkeypatch)


def test_fold_matches_dense_on_random_configurations(monkeypatch):
    # criterion 03's draws, shorter: random problem, betas, p, lr and
    # horizon, epsilon 0 on every fourth
    master = np.random.default_rng(2024)
    for k in range(8):
        if k % 2 == 0:
            prob = make_quadratic(int(master.integers(2, 9)),
                                  condition_number=float(
                                      master.uniform(1.0, 50.0)),
                                  noise=float(master.uniform(0.0, 0.3)))
        else:
            prob = make_logistic(int(master.integers(3, 7)),
                                 n_samples=int(master.integers(30, 81)),
                                 seed=int(master.integers(0, 100)))
        while True:
            beta1 = float(master.uniform(0.5, 0.95))
            beta2 = float(master.uniform(0.95, 0.9999))
            p = float(master.uniform(0.0, 0.5))
            if beta1 / beta2 ** (2 * p) < 0.995:
                break
        cfg = PadamConfig(beta1=beta1, beta2=beta2, p=p,
                          epsilon=0.0 if k % 4 == 0 else 1e-8)
        spec = RunSpec(
            problem=prob, optimizer="padam",
            opt_params=dataclasses.asdict(cfg),
            schedule=Schedule("constant", float(master.uniform(0.005, 0.05))),
            steps=int(master.integers(30, 131)),
            seed=int(master.integers(0, 10_000)))
        assert_fold_matches_dense(spec, 3, monkeypatch)


# --------------------------------------------- the draw made one step ahead


def assert_ahead_equals_inline(specs, n_seeds, monkeypatch):
    """``repeat_runs`` with each next draw made on the worker thread while
    the step runs equals the run that draws inline: every trace column and
    every dense history byte for byte."""
    monkeypatch.setattr(harness, "_PREFETCH_BYTES", 1 << 62)  # never
    inline = repeat_runs(specs, n_seeds)
    monkeypatch.setattr(harness, "_PREFETCH_BYTES", 0)  # every ndarray draw
    ahead = repeat_runs(specs, n_seeds)
    for a, b in zip(inline, ahead, strict=True):
        assert_same_trace(a, b)
    return ahead


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_draws_ahead_equal_inline_draws(optimizer, problem, monkeypatch):
    spec = RunSpec(problem=PROBLEMS[problem](), optimizer=optimizer,
                   opt_params={},
                   schedule=Schedule("inv_sqrt",
                                     REGISTRY[optimizer].compare_lr),
                   steps=25, seed=5, record_dense=True)
    assert_ahead_equals_inline(spec, N_SEEDS, monkeypatch)


@pytest.mark.parametrize("make, optimizer, params, lr, steps, box_exits", [
    # rows leave the box, then diverge, at different steps
    (lambda: make_quadratic(5), "sgdm", {}, 0.5, 350, True),
    (_tiny_gradient_problem, "padam", {"epsilon": 0.0}, 0.05, 60, False),
    (_nan_gradient_problem, "adam", {}, 0.001, 80, False),
    (_spike_problem, "sgdm", {}, 10.0, 60, True),
    (_cliff_problem, "padam", {}, 0.01, 40, False),
])
def test_draws_ahead_on_blocks_whose_rows_stop(make, optimizer, params, lr,
                                               steps, box_exits, monkeypatch):
    spec = RunSpec(problem=make(), optimizer=optimizer, opt_params=params,
                   schedule=Schedule("constant", lr), steps=steps, seed=0,
                   record_dense=True)
    traces = assert_ahead_equals_inline(spec, N_SEEDS, monkeypatch)
    assert any(tr.diverged for tr in traces)
    assert not all(tr.diverged for tr in traces)
    assert any(tr.box_exit is not None for tr in traces) is box_exits


def test_fold_ahead_matches_dense_inline(monkeypatch):
    for spec in (
        RunSpec(problem=_tiny_gradient_problem(), optimizer="padam",
                opt_params={"epsilon": 0.0},
                schedule=Schedule("constant", 0.05), steps=60, seed=0),
        RunSpec(problem=make_quadratic(6), optimizer="amsgrad",
                opt_params={}, schedule=Schedule("inv_sqrt", 0.01),
                steps=70, seed=2),
    ):
        assert_fold_matches_dense(spec, N_SEEDS, monkeypatch, ahead=True)
