"""Property tests for the step rules over random hyperparameters and
gradient streams: the two endpoint reductions, a nondecreasing ``v_hat``,
the effective-lr extrema and coordinates that never see a gradient.

Streams have at most 8 coordinates, at most 20 steps and entries bounded
by 1e3 in magnitude.

Also the problems' block contract: on a block of 1 to 17 random points,
every oracle equals its row-by-row calls byte for byte, and ``sample_xi``
on S generators equals S lone draws.
"""

import dataclasses
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from padambench.optim import (
    NumericError,
    PadamConfig,
    amsgrad_step,
    effective_lr_bounds,
    init_state,
    padam_step,
    sgd_momentum_step,
)
from padambench.problems import (
    make_logistic,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)

LR = 1e-3

streams = arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 8)),
                 elements=st.floats(-1e3, 1e3))
configs = st.builds(
    PadamConfig,
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.0, 1.0, exclude_min=True),
    p=st.floats(0.0, 0.5),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),
)
property_test = settings(deadline=None, max_examples=60)


def _steps(step, stream, x0=None):
    """``(state, outcome)`` after each step of ``step(state, x, g)`` along
    ``stream``, stopping at the first ``NumericError``; returns the pairs
    and that error, or ``None``."""
    state = init_state(stream.shape[1])
    x = np.zeros(stream.shape[1]) if x0 is None else x0
    pairs = []
    for g in stream:
        try:
            state, out = step(state, x, g)
        except NumericError as exc:
            return pairs, exc
        x = out.new_x
        pairs.append((state, out))
    return pairs, None


def _assert_same_path(ours, reference):
    # both rules must stop at the same step, for the same reason
    (a, a_err), (b, b_err) = ours, reference
    assert len(a) == len(b)
    assert (a_err is None) == (b_err is None)
    for (_, oa), (_, ob) in zip(a, b):
        scale = 1.0 + np.abs(ob.new_x).max()
        assert np.abs(oa.new_x - ob.new_x).max() <= 1e-9 * scale


@property_test
@given(configs, streams)
def test_half_exponent_is_amsgrad(cfg, stream):
    cfg = dataclasses.replace(cfg, p=0.5)
    ours = _steps(partial(padam_step, lr=LR, cfg=cfg), stream)
    reference = _steps(partial(amsgrad_step, lr=LR, beta1=cfg.beta1,
                               beta2=cfg.beta2, epsilon=cfg.epsilon), stream)
    _assert_same_path(ours, reference)


@property_test
@given(configs, streams)
def test_zero_exponent_is_heavy_ball(cfg, stream):
    cfg = dataclasses.replace(cfg, p=0.0)
    ours = _steps(partial(padam_step, lr=LR, cfg=cfg), stream)
    reference = _steps(partial(sgd_momentum_step, lr=LR * (1.0 - cfg.beta1),
                               mu=cfg.beta1), stream)
    assert ours[1] is None
    _assert_same_path(ours, reference)


@property_test
@given(configs, streams)
def test_vhat_is_nondecreasing(cfg, stream):
    pairs, _ = _steps(partial(padam_step, lr=LR, cfg=cfg), stream)
    vhats = [np.zeros(stream.shape[1])] + [s.v_hat for s, _ in pairs]
    for before, after in zip(vhats, vhats[1:]):
        assert np.all(after >= before)


@property_test
@given(configs, streams)
def test_effective_lr_bounds_match_step_outcome(cfg, stream):
    pairs, _ = _steps(partial(padam_step, lr=LR, cfg=cfg), stream)
    for state, out in pairs:
        assert effective_lr_bounds(state, LR, cfg.p, cfg.epsilon) == (
            out.effective_lr_min, out.effective_lr_max)


@property_test
@given(configs, streams, st.data())
def test_dead_coordinates_never_raise_or_move(cfg, stream, data):
    cfg = dataclasses.replace(cfg, epsilon=0.0)
    d = stream.shape[1]
    dead = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    stream[:, sorted(dead)] = 0.0
    x0 = np.arange(1.0, d + 1.0)
    pairs, err = _steps(partial(padam_step, lr=LR, cfg=cfg), stream, x0)
    if err is not None:
        # a live coordinate may still meet a zero denominator (its g*g can
        # vanish while its momentum does not); a dead one never does
        assert int(str(err).rsplit(" ", 1)[1]) not in dead
    for _, out in pairs:
        for k in dead:
            assert out.new_x[k] == x0[k]


PROBLEMS = {
    "quadratic": make_quadratic(7, condition_number=8.0, noise=0.1),
    "rosenbrock": make_rosenbrock(5),
    "logistic": make_logistic(6, 50, seed=1),
    "sparse-growth": make_sparse_growth(6, sparsity=0.5, seed=0, rho=0.3),
    "mlp": make_mlp(2),
}


def _same_bytes(block, rows):
    """``block`` is ``rows`` stacked, with the same dtype, bit for bit."""
    stacked = np.array(rows)
    block = np.asarray(block)
    assert block.shape == stacked.shape
    assert block.dtype == stacked.dtype
    assert block.tobytes() == stacked.tobytes()


def _assert_block_contract(problem, X, seeds, t):
    xi = problem.sample_xi([np.random.default_rng(s) for s in seeds], t)
    lone = [problem.sample_xi(np.random.default_rng(s), t) for s in seeds]
    if xi is None:  # a noiseless problem
        assert all(draw is None for draw in lone)
    else:
        _same_bytes(xi, lone)
    # exact_grad first, as the harness calls it: the MLP's loss then
    # answers from the gradient pass
    for name in ("exact_grad", "loss"):
        oracle = getattr(problem, name)
        _same_bytes(oracle(X), [oracle(x) for x in X])
    for name in ("stoch_grad", "stoch_loss"):
        oracle = getattr(problem, name)
        rows = [oracle(x, draw) for x, draw in zip(X, lone)]
        _same_bytes(oracle(X, xi), rows)
    assert all(type(problem.loss(x)) is float for x in X)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(sorted(PROBLEMS)), st.integers(1, 17),
       st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 3.0]),
       st.integers(1, 200))
def test_block_oracles_equal_row_calls(name, S, seed, scale, t):
    problem = PROBLEMS[name]
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((S, problem.dim))
    _assert_block_contract(problem, X, range(seed % 1000, seed % 1000 + S), t)


def test_block_oracles_equal_row_calls_wide_quadratic():
    # where BLAS splits a long dot product into blocks of its own
    problem = make_quadratic(100_000, condition_number=10.0, noise=0.1)
    X = 0.1 * np.random.default_rng(3).standard_normal((3, problem.dim))
    _assert_block_contract(problem, X, [5, 6, 7], 1)
