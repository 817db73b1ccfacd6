"""The draw made one step ahead on a worker thread.

Where a block's first draw is an ndarray of at least
``harness._PREFETCH_BYTES`` bytes, ``_run_block`` makes draw ``t + 1`` on
one worker thread while step ``t`` runs. Each test runs with every draw
inline and with the draw ahead forced at every size, and holds both to one
contract: the draws are ``t = 1, 2, ...`` in order, one at a time; an
exception raised in a draw surfaces unchanged; and no thread outlives the
block, however it ends.
"""

import dataclasses
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from padambench import harness
from padambench.harness import RunSpec, Schedule, repeat_runs
from padambench.optim import REGISTRY, NumericError, PadamConfig, padam_step
from padambench.problems import make_quadratic

STEPS = 20


@pytest.fixture(params=["inline", "ahead"])
def mode(request, monkeypatch):
    monkeypatch.setattr(harness, "_PREFETCH_BYTES",
                        0 if request.param == "ahead" else 1 << 62)
    return request.param


def _recording(problem, fail_at=None):
    """``problem`` whose ``sample_xi`` logs ``(t, thread, draws in flight
    at entry)`` and raises ``RuntimeError`` at step ``fail_at``."""
    log, lock, in_flight = [], threading.Lock(), [0]

    def sample_xi(rngs, t):
        with lock:
            in_flight[0] += 1
            log.append((t, threading.get_ident(), in_flight[0]))
        try:
            time.sleep(0.001)  # widens the window for an overlapping call
            if t == fail_at:
                raise RuntimeError(f"draw {t} failed")
            return problem.sample_xi(rngs, t)
        finally:
            with lock:
                in_flight[0] -= 1

    return dataclasses.replace(problem, sample_xi=sample_xi), log


def _spec(problem, optimizer="padam", lr=0.05):
    return RunSpec(problem=problem, optimizer=optimizer, opt_params={},
                   schedule=Schedule("constant", lr), steps=STEPS, seed=0)


def _assert_draws_in_order(log, mode, n):
    assert [t for t, _, _ in log] == list(range(1, n + 1))
    assert all(k == 1 for _, _, k in log)  # never two at once
    threads = [ident for _, ident, _ in log]
    assert threads[0] == threading.get_ident()  # step 1 draws inline
    if mode == "ahead" and n > 1:
        assert len(set(threads[1:]) - {threading.get_ident()}) == 1
    else:
        assert set(threads) == {threading.get_ident()}


def test_draws_run_in_step_order_one_at_a_time(mode):
    threads = threading.active_count()
    problem, log = _recording(make_quadratic(4))
    traces = repeat_runs(_spec(problem), 3)
    assert all(len(tr.t) == STEPS and not tr.diverged for tr in traces)
    _assert_draws_in_order(log, mode, STEPS)
    assert threading.active_count() == threads


def test_every_row_stops_early(mode):
    # the first step overflows every iterate: the loss check stops each
    # row at step 2, with the draw of step 3 in flight when drawn ahead
    threads = threading.active_count()
    problem, log = _recording(make_quadratic(4))
    traces = repeat_runs(_spec(problem, "sgdm", lr=1e200), 2)
    assert all(tr.diverged and len(tr.t) == 1 for tr in traces)
    _assert_draws_in_order(log, mode, 3 if mode == "ahead" else 2)
    assert threading.active_count() == threads


def test_an_exception_in_a_draw_surfaces_unchanged(mode):
    threads = threading.active_count()
    problem, log = _recording(make_quadratic(4), fail_at=5)
    with pytest.raises(RuntimeError) as err:
        repeat_runs(_spec(problem), 3)
    assert type(err.value) is RuntimeError
    assert str(err.value) == "draw 5 failed"
    _assert_draws_in_order(log, mode, 5)
    assert threading.active_count() == threads


def test_an_exception_in_an_oracle_stops_the_worker(mode):
    threads = threading.active_count()
    problem, log = _recording(make_quadratic(4))
    calls = []

    def stoch_grad(x, xi):
        calls.append(None)
        if len(calls) == 7:
            raise ValueError("oracle failed")
        return problem.stoch_grad(x, xi)

    with pytest.raises(ValueError, match="^oracle failed$") as err:
        repeat_runs(_spec(dataclasses.replace(problem,
                                              stoch_grad=stoch_grad)), 3)
    _assert_draws_in_order(log, mode, 8 if mode == "ahead" else 7)
    # while its traceback, which holds the block's frame, is alive
    assert err.tb is not None and threading.active_count() == threads


def _raises_on_blocks(state, x, g, lr, cfg):
    # a block step fails while no row fails alone: the harness re-raises
    if np.ndim(x) == 2:
        raise NumericError("block step failed")
    return padam_step(state, x, g, lr, PadamConfig(**cfg))


def test_a_numeric_error_no_row_explains_stops_the_worker(mode,
                                                          monkeypatch):
    monkeypatch.setitem(REGISTRY, "padam", dataclasses.replace(
        REGISTRY["padam"], bind=lambda kw: partial(_raises_on_blocks,
                                                   cfg=kw)))
    threads = threading.active_count()
    problem, log = _recording(make_quadratic(4))
    with pytest.raises(NumericError, match="^block step failed$") as err:
        repeat_runs(_spec(problem), 3)
    _assert_draws_in_order(log, mode, 2 if mode == "ahead" else 1)
    assert err.tb is not None and threading.active_count() == threads


def test_blocks_on_threads_sharing_one_problem_get_inline_bits(monkeypatch):
    # four callers, each with its worker, on one problem object: more
    # threads than cores, switching every microsecond
    problem = make_quadratic(300)
    specs = [dataclasses.replace(_spec(problem, optimizer), seed=k)
             for k, optimizer in enumerate(("padam", "adam", "sgdm",
                                            "adagrad"))]
    want = [repeat_runs(spec, 2) for spec in specs]
    monkeypatch.setattr(harness, "_PREFETCH_BYTES", 0)
    got: dict = {}
    start = threading.Barrier(len(specs))

    def work(k):
        start.wait()
        got[k] = [repeat_runs(specs[k], 2) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=work, args=(k,))
                   for k in range(len(specs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for k, runs in sorted(got.items()):
        for traces in runs:
            for a, b in zip(want[k], traces, strict=True):
                assert a.loss.tobytes() == b.loss.tobytes()
                assert a.vhat_max.tobytes() == b.vhat_max.tobytes()
    assert len(got) == len(specs)
