"""Property tests for the step rules over random hyperparameters and
gradient streams: the two endpoint reductions, a nondecreasing ``v_hat``,
the effective-lr extrema and coordinates that never see a gradient.

Streams have at most 8 coordinates, at most 20 steps and entries bounded
by 1e3 in magnitude.

Also exact-zero denominators (``epsilon = 0``) on random states, lone and
in blocks, and the problems' block contract: on a block of 1 to 17 random
points, every oracle equals its row-by-row calls byte for byte, and
``sample_xi`` on S generators equals S lone draws; the value oracles also
on fresh blocks of up to 40 points.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from padambench.optim import (
    NumericError,
    OptState,
    PadamConfig,
    adagrad_step,
    adam_step,
    amsgrad_step,
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
        denom = (state.v_hat + cfg.epsilon) ** cfg.p
        lo, hi = (LR / d if d > 0.0 else math.inf
                  for d in (denom.max(), denom.min()))
        assert (lo, hi) == (out.effective_lr_min, out.effective_lr_max)


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


B1, B2 = 0.9, 0.999


def _moments(state, g):
    """The new momentum, second moment and its running maximum, written
    as the step rules write them."""
    v = B2 * state.v + (1.0 - B2) * g * g
    return B1 * state.m + (1.0 - B1) * g, v, np.maximum(state.v_hat, v)


def _adagrad_terms(state, g):
    t = state.t + 1
    v = ((t - 1) * state.v + g * g) / t
    return g, np.sqrt(v + 0.0), LR / math.sqrt(t)


def _padam_terms(p):
    def terms(state, g):
        m, _, v_hat = _moments(state, g)
        return m, (v_hat + 0.0) ** p, LR
    return terms


def _sqrt_terms(state, g, use_max):
    m, v, v_hat = _moments(state, g)
    return m, np.sqrt((v_hat if use_max else v) + 0.0), LR


# name -> (step at epsilon = 0, strict, its numerator, denominator and lr)
ZERO_EPS_RULES = {
    **{f"padam-p{p}": (
        partial(padam_step, lr=LR,
                cfg=PadamConfig(beta1=B1, beta2=B2, p=p, epsilon=0.0)),
        True, _padam_terms(p)) for p in (0.0, 0.125, 0.5)},
    "amsgrad": (partial(amsgrad_step, lr=LR, beta1=B1, beta2=B2, epsilon=0.0),
                True, partial(_sqrt_terms, use_max=True)),
    "adam": (partial(adam_step, lr=LR, beta1=B1, beta2=B2, epsilon=0.0),
             False, partial(_sqrt_terms, use_max=False)),
    "adagrad": (partial(adagrad_step, lr=LR, epsilon=0.0), False,
                _adagrad_terms),
}

# entries that are exactly zero often, and gradients whose square underflows
_maybe_zero = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
_moment = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
_grad = st.one_of(st.just(0.0), st.just(1e-170), st.floats(-1e3, 1e3))


@st.composite
def zero_denominator_cases(draw):
    """A state, gradient and iterate of shape ``(S, d)``, one row all zero
    when drawn so, and the step count."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    m, x = (draw(arrays(np.float64, shape, elements=_maybe_zero))
            for _ in range(2))
    v, v_hat = (draw(arrays(np.float64, shape, elements=_moment))
                for _ in range(2))
    g = draw(arrays(np.float64, shape, elements=_grad))
    zero_row = draw(st.one_of(st.none(), st.integers(0, shape[0] - 1)))
    if zero_row is not None:
        for a in (m, v, v_hat, g):
            a[zero_row] = 0.0
    return OptState(m=m, v=v, v_hat=v_hat, t=draw(st.integers(0, 5))), g, x


def _check_zero_denominators(step, strict, terms, state, g, x):
    """One step on ``state``: the update is zero exactly where the
    denominator is, it raises exactly when a zero denominator meets
    nonzero momentum, and an effective lr is inf exactly where that
    extreme denominator is zero. Returns the outcome, or None on a raise."""
    num, denom, lr = terms(state, g)
    dead = denom == 0.0
    bad = strict and bool((dead & (num != 0.0)).any())
    try:
        new_state, out = step(state, x, g)
    except NumericError:
        assert bad
        return None
    assert not bad
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = x - lr * num / denom
    assert out.new_x[dead].tobytes() == x[dead].tobytes()
    assert out.new_x[~dead].tobytes() == moved[~dead].tobytes()
    rows = denom.reshape(-1, denom.shape[-1])
    lows = np.atleast_1d(out.effective_lr_min)
    highs = np.atleast_1d(out.effective_lr_max)
    for row, lo, hi in zip(rows, lows, highs):
        assert math.isinf(lo) == (row.max() == 0.0)
        assert math.isinf(hi) == (row.min() == 0.0)
    return new_state, out


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(ZERO_EPS_RULES)), zero_denominator_cases())
def test_zero_denominators_lone_and_in_blocks(name, case):
    step, strict, terms = ZERO_EPS_RULES[name]
    state, g, x = case
    block = _check_zero_denominators(step, strict, terms, state, g, x)
    lone = []
    for j in range(len(x)):
        row = OptState(m=state.m[j], v=state.v[j], v_hat=state.v_hat[j],
                       t=state.t)
        lone.append(_check_zero_denominators(step, strict, terms, row,
                                             g[j], x[j]))
    # a block raises exactly when one of its rows raises alone
    assert (block is None) == any(r is None for r in lone)
    if block is None:
        return
    new_state, out = block
    for j, (row_state, row_out) in enumerate(lone):
        assert out.new_x[j].tobytes() == row_out.new_x.tobytes()
        for field in ("m", "v", "v_hat"):
            assert (getattr(new_state, field)[j].tobytes()
                    == getattr(row_state, field).tobytes())
        assert out.effective_lr_min[j] == row_out.effective_lr_min
        assert out.effective_lr_max[j] == row_out.effective_lr_max


PROBLEMS = {
    "quadratic": make_quadratic(7, condition_number=8.0, noise=0.1),
    "rosenbrock": make_rosenbrock(5),
    "logistic": make_logistic(6, 50, seed=1),
    "sparse-growth": make_sparse_growth(6, sparsity=0.5, rho=0.3),
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


@pytest.mark.parametrize("S", [2, 16, 17, 40])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_fresh_value_blocks_equal_row_calls(name, S):
    # loss and stoch_loss with no exact_grad before them: the MLP's block
    # loss is then its own stacked pass, in slices of up to 16 rows
    problem = make_mlp(2) if name == "mlp" else PROBLEMS[name]
    rng = np.random.default_rng(S)
    scales = rng.choice([0.1, 1.0, 50.0], size=(S, 1))
    X = scales * rng.standard_normal((S, problem.dim))
    seeds = range(S)
    xi = problem.sample_xi([np.random.default_rng(s) for s in seeds], 1)
    lone = [problem.sample_xi(np.random.default_rng(s), 1) for s in seeds]
    block = problem.stoch_loss(X, xi)
    _same_bytes(block, [problem.stoch_loss(x, d) for x, d in zip(X, lone)])
    block = problem.loss(X)
    _same_bytes(block, [problem.loss(x) for x in X])
