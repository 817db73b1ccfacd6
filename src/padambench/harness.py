"""Deterministic run harness: schedules, traces, persistence, repetition.

A run is fully determined by its ``RunSpec``. The noise stream comes from
``numpy.random.default_rng(seed)``; the initial point is
``0.1 * standard_normal`` drawn from ``init_seed`` (falling back to the
noise generator) unless the problem pins its own ``start``. Divergence is
recorded, never raised: the trace is truncated at the last finite row and
flagged.

Trace CSV files carry exactly the columns in ``CSV_HEADER`` with floats at
17 significant digits, so a read-back is bitwise lossless. A JSON sidecar
next to each CSV holds the resolved configuration.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .optim import REGISTRY, NumericError, OptState
from .problems import StochasticProblem, _rowdot

__all__ = [
    "CSV_HEADER",
    "OPTIMIZERS",
    "RunSpec",
    "Schedule",
    "Trace",
    "TraceFormatError",
    "iter_runs",
    "mean_channel",
    "read_trace_csv",
    "repeat_runs",
    "run",
    "schedule_lr",
    "select_output",
    "select_output_indices",
    "write_trace_csv",
]

CSV_HEADER = "t,loss,grad_norm_sq,lr,eff_lr_min,eff_lr_max,vhat_min,vhat_max"
_COLUMNS = tuple(CSV_HEADER.split(",")[1:])  # the float columns

_SCHEDULE_KINDS = ("constant", "inv_sqrt", "multistage")

OPTIMIZERS = tuple(REGISTRY)


class TraceFormatError(ValueError):
    """Raised when a trace CSV does not match the expected layout."""


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule; every kind is nonincreasing in ``t``."""

    kind: str
    base: float
    milestones: tuple[int, ...] = ()
    decay: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule {self.kind!r}, expected one of "
                f"{_SCHEDULE_KINDS}"
            )
        if not self.base > 0.0:
            raise ValueError(f"base lr must be positive, got {self.base}")
        ms = tuple(self.milestones)
        object.__setattr__(self, "milestones", ms)
        if any(b <= a for a, b in zip(ms, ms[1:])) or any(m < 1 for m in ms):
            raise ValueError(f"milestones must be strictly increasing: {ms}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")


def schedule_lr(schedule: Schedule, t: int) -> float:
    """Learning rate at step ``t`` (1-based)."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return schedule.base
    if schedule.kind == "inv_sqrt":
        return schedule.base / math.sqrt(t)
    lr = schedule.base
    for _ in range(bisect_right(schedule.milestones, t)):
        lr *= schedule.decay
    return lr


@dataclass(frozen=True)
class RunSpec:
    problem: StochasticProblem
    optimizer: str
    opt_params: dict
    schedule: Schedule
    steps: int
    seed: int = 0
    init_seed: int | None = None
    record_dense: bool = False

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")
        if self.optimizer not in REGISTRY:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}, expected one of "
                f"{OPTIMIZERS}"
            )


@dataclass
class Trace:
    """Recorded run. Row ``i`` describes step ``t[i]``: loss and gradient
    norm at the pre-step iterate, the scheduled lr, and the effective-lr
    and vhat extremes after the step. ``dense`` optionally holds the full
    ``x``, ``g``, ``m`` and ``vhat`` histories plus the final iterate."""

    t: np.ndarray
    loss: np.ndarray
    grad_norm_sq: np.ndarray
    lr: np.ndarray
    eff_lr_min: np.ndarray
    eff_lr_max: np.ndarray
    vhat_min: np.ndarray
    vhat_max: np.ndarray
    diverged: bool = False
    box_exit: int | None = None
    dense: dict | None = None
    meta: dict = field(default_factory=dict)


def _resolve_params(optimizer: str, params: dict) -> dict:
    defaults = REGISTRY[optimizer].defaults
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameters for {optimizer}: {sorted(unknown)}"
        )
    return {**defaults, **params}


def _resolved_config(spec: RunSpec) -> dict:
    prob = spec.problem
    return {
        "problem": prob.name,
        "problem-params": {
            k: v for k, v in prob.meta.items()
            if isinstance(v, (bool, int, float, str))
        },
        "dim": prob.dim,
        "optimizer": spec.optimizer,
        "optimizer-params": _resolve_params(spec.optimizer, spec.opt_params),
        "schedule": {
            "kind": spec.schedule.kind,
            "base": spec.schedule.base,
            "milestones": list(spec.schedule.milestones),
            "decay": spec.schedule.decay,
        },
        "steps": spec.steps,
        "seed": spec.seed,
        "init-seed": spec.init_seed,
        "box": prob.box,
        "record-dense": spec.record_dense,
    }


# replicas advanced together; bounds the dense histories alive at once
_BLOCK = 16


def run(spec: RunSpec) -> Trace:
    """Execute one run and return its trace.

    Never raises on numeric blowup: a nonfinite loss, gradient or iterate
    stops the loop with ``diverged=True`` and the rows recorded so far.
    """
    return _run_block(spec, [spec.seed])[0]


def iter_runs(spec: RunSpec, n_seeds: int):
    """Yield the traces of seeds ``spec.seed + k`` for ``k < n_seeds``, in
    order. Replicas advance in blocks of at most 16, each run only when
    the consumer reaches it; a block's traces share its arrays, which are
    freed once its last trace is dropped."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    for first in range(0, n_seeds, _BLOCK):
        last = min(first + _BLOCK, n_seeds)
        yield from _run_block(
            spec, [spec.seed + k for k in range(first, last)])


def repeat_runs(spec: RunSpec, n_seeds: int) -> list[Trace]:
    """Run ``n_seeds`` replicas with seeds ``spec.seed + k``, in order.

    Each trace is bitwise the one ``run`` gives for its seed."""
    return list(iter_runs(spec, n_seeds))


def _raises(stepper, state: OptState, x, g, lr: float, j: int) -> bool:
    """Whether the step raises ``NumericError`` on block row ``j`` alone."""
    row = OptState(m=state.m[j], v=state.v[j], v_hat=state.v_hat[j],
                   t=state.t)
    try:
        stepper(row, x[j], g[j], lr)
    except NumericError:
        return True
    return False


# overflow on a blown-up iterate, in the oracles or in the step rule, is the
# divergence signal, not an error
@np.errstate(over="ignore", invalid="ignore")
def _run_block(spec: RunSpec, seeds: list[int]) -> list[Trace]:
    """Run ``spec`` once per seed, advancing the replicas together as
    ``(S, d)`` arrays; block row ``j`` is seed ``seeds[j]`` throughout.

    The step rule and each of the problem's oracles run once per step on
    the whole block, so every row follows its lone run bit for bit. A row
    stops at the check and the step where its lone run would stop
    (nonfinite loss or gradient norm, nonfinite stochastic gradient,
    ``NumericError``, nonfinite new iterate); the other rows carry on. A
    stopped row is zeroed in ``x``, ``g`` and the state, which every step
    rule steps to zero without raising, and its trace is cut at its last
    recorded row. The oracles still evaluate it, at zero.
    """
    prob = spec.problem
    entry = REGISTRY[spec.optimizer]
    stepper = entry.bind(_resolve_params(spec.optimizer, spec.opt_params))
    S, d, steps = len(seeds), prob.dim, spec.steps
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x = np.empty((S, d))
    for j, rng in enumerate(rngs):
        if prob.start is not None:
            x[j] = prob.start
        else:
            init_rng = (np.random.default_rng(spec.init_seed)
                        if spec.init_seed is not None else rng)
            x[j] = 0.1 * init_rng.standard_normal(d)

    cols = {name: np.empty((S, steps)) for name in _COLUMNS}
    dense = None
    if spec.record_dense:
        dense = {name: np.empty((S, steps, d))
                 for name in ("x", "g", "m", "vhat")}
    zeros = np.zeros((S, d))
    state = OptState(m=zeros, v=zeros.copy(), v_hat=zeros.copy())
    recorded = [steps] * S
    box_exit: list[int | None] = [None] * S
    # a stopped row's last iterate; None marks a row that never stopped
    x_final: list[np.ndarray | None] = [None] * S
    live = np.ones(S, dtype=bool)
    n_live = S

    def halt(stop, n) -> bool:
        """Stop rows ``stop`` at the current iterate with ``n`` rows
        recorded and zero them in the state. Returns whether no row is
        left running."""
        nonlocal n_live
        for j in stop:
            recorded[j], x_final[j] = n, x[j].copy()
        live[stop] = False
        n_live -= len(stop)
        for a in (state.m, state.v, state.v_hat):
            a[stop] = 0.0
        return not n_live

    def live_rows(a):
        """``a`` with the stopped rows zeroed, in a new array: ``a`` may be
        one an oracle returned (sparse-growth's gradient is its input)."""
        return a if n_live == S else np.where(live[:, None], a, 0.0)

    loss, exact_grad = prob.loss, prob.exact_grad
    stoch_grad, sample_xi = prob.stoch_grad, prob.sample_xi
    loss_col, gns_col = cols["loss"], cols["grad_norm_sq"]
    started = time.perf_counter()
    for t in range(1, steps + 1):
        i = t - 1
        # gradient first: an oracle may reuse that pass for the loss
        g_exact = exact_grad(x)
        f = loss_col[:, i] = loss(x)
        gns = gns_col[:, i] = _rowdot(g_exact, g_exact)
        g = stoch_grad(x, sample_xi(rngs, t))
        # rows stopping at the loss check, which precedes the box check
        at_loss = live & ~(np.isfinite(f) & np.isfinite(gns))
        if None in box_exit and np.abs(x).max() > prob.box:
            for j in np.flatnonzero(np.abs(x).max(axis=1) > prob.box):
                if box_exit[j] is None and not at_loss[j]:
                    box_exit[j] = t
        lr_t = schedule_lr(spec.schedule, t)
        stop = np.flatnonzero(at_loss | live & ~np.isfinite(g).all(axis=1))
        if stop.size:
            if halt(stop, t - 1):
                break
            x = live_rows(x)
        g = live_rows(g)
        try:
            state, out = stepper(state, x, g, lr_t)
        except NumericError:
            # rare: stop the rows that raise on their own, step the rest
            stop = [j for j in np.flatnonzero(live)
                    if _raises(stepper, state, x, g, lr_t, j)]
            if not stop:
                raise
            if halt(stop, t - 1):
                break
            x, g = live_rows(x), live_rows(g)
            state, out = stepper(state, x, g, lr_t)
        vhat = getattr(state, entry.vhat_field)
        cols["lr"][:, i] = lr_t
        cols["eff_lr_min"][:, i] = out.effective_lr_min
        cols["eff_lr_max"][:, i] = out.effective_lr_max
        cols["vhat_min"][:, i] = vhat.min(axis=1)
        cols["vhat_max"][:, i] = vhat.max(axis=1)
        if dense is not None:
            dense["x"][:, i] = x
            dense["g"][:, i] = g
            dense["m"][:, i] = state.m
            dense["vhat"][:, i] = vhat
        if not np.isfinite(out.new_x).all():
            if halt(np.flatnonzero(~np.isfinite(out.new_x).all(axis=1)), t):
                break
            out.new_x[~live] = 0.0  # the step's own array
        x = out.new_x
    wall_ms = 1000.0 * (time.perf_counter() - started)

    config = _resolved_config(spec)
    traces = []
    for r, seed in enumerate(seeds):
        n = recorded[r]
        diverged = x_final[r] is not None
        trace_dense = None
        if dense is not None:
            trace_dense = {k: v[r, :n] for k, v in dense.items()}
            trace_dense["x_final"] = x_final[r] if diverged else x[r].copy()
        meta = {
            "problem": prob.name,
            "optimizer": spec.optimizer,
            "config": dict(config, seed=seed),
            "seed": seed,
            "diverged": diverged,
            "wall_ms": wall_ms,
        }
        traces.append(Trace(
            t=np.arange(1, n + 1, dtype=np.int64),
            **{name: cols[name][r, :n] for name in _COLUMNS},
            diverged=diverged,
            box_exit=box_exit[r],
            dense=trace_dense,
            meta=meta,
        ))
    return traces


def mean_channel(traces: list[Trace], name: str) -> np.ndarray:
    """Per-step mean of one trace column, compensated summation. At a
    step where that sum of finite values overflows, the mean is the exact
    mean rounded once, which is finite (summing ``v / n`` can still
    overflow when every value is near the float maximum), unless the step
    also holds ``+inf``: then it is ``+inf``."""
    if not traces:
        raise ValueError("no traces given")
    length = min(len(tr.t) for tr in traces)
    cols = [getattr(tr, name) for tr in traces]
    n = len(cols)
    out = np.empty(length)
    for i in range(length):
        try:
            out[i] = math.fsum(c[i] for c in cols) / n
        except OverflowError:
            row = [c[i] for c in cols]
            special = [v for v in row if not math.isfinite(v)]
            if special:  # +inf decides the mean, as it does without overflow
                out[i] = math.fsum(special) / n
            else:
                # imported here: fractions loads decimal, about 0.4 MiB of RSS
                from fractions import Fraction
                out[i] = float(sum(map(Fraction, row)) / n)
    return out


def _selection_cdf(trace: Trace, schedule: Schedule | None) -> np.ndarray:
    steps = len(trace.t)
    if steps < 2:
        raise ValueError("output selection needs at least 2 recorded steps")
    if schedule is None:
        weights = np.asarray(trace.lr[:-1], dtype=np.float64)
    else:
        weights = np.array([schedule_lr(schedule, int(t))
                            for t in trace.t[:-1]])
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = np.inf  # absorb roundoff so draws never fall off the end
    return cdf


def select_output_indices(
    trace: Trace,
    schedule: Schedule | None,
    rng: np.random.Generator,
    n_draws: int,
) -> np.ndarray:
    """Draw ``n_draws`` output steps: step ``t`` in ``2..T`` is chosen with
    probability proportional to the lr at ``t - 1``."""
    cdf = _selection_cdf(trace, schedule)
    draws = rng.random(n_draws)
    return np.searchsorted(cdf, draws, side="right").astype(np.int64) + 2


def select_output(
    trace: Trace, schedule: Schedule | None, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Draw the returned iterate by the rule of ``select_output_indices``.

    Requires dense recording, since the iterate itself is returned.
    """
    if trace.dense is None or "x" not in trace.dense:
        raise ValueError("select_output needs a trace with dense recording")
    t_out = int(select_output_indices(trace, schedule, rng, 1)[0])
    return t_out, trace.dense["x"][t_out - 1].copy()


def _atomic_write(path: Path, text: str) -> None:
    # a fresh name opened with O_EXCL rather than mkstemp, so the file gets
    # the umask-governed mode a plain open() gives instead of 0600
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: Path, header, rows) -> None:
    """CSV with floats at 17 significant digits, written atomically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v)
            for v in row
        ))
    _atomic_write(path, "\n".join(lines) + "\n")


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write the trace columns as CSV plus a JSON metadata sidecar.

    Both files are written atomically (temp file and rename), so readers
    never observe a torn trace.
    """
    path = Path(path)
    _write_table(path, ("t", *_COLUMNS), zip(
        trace.t.tolist(),
        *(getattr(trace, name).tolist() for name in _COLUMNS)))

    sidecar = dict(trace.meta)
    sidecar["diverged"] = trace.diverged
    _atomic_write(_sidecar_path(path), json.dumps(sidecar, indent=2) + "\n")
    return path


def _check_trace_values(path: Path, t: np.ndarray, cols: dict) -> None:
    # run() records t = 1, 2, ... and finite values, except +inf effective
    # lrs where a denominator is zero under epsilon = 0
    bad = np.flatnonzero(np.diff(t, prepend=0) < 1)
    if bad.size:
        raise TraceFormatError(
            f"{path}: line {bad[0] + 2}: t = {t[bad[0]]} does not increase "
            "strictly from 1"
        )
    for name, col in cols.items():
        ok = np.isfinite(col)
        if name.startswith("eff_lr"):
            ok |= col == np.inf
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise TraceFormatError(
                f"{path}: line {bad[0] + 2}: {name} = {col[bad[0]]} is not "
                "allowed"
            )


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace CSV (and its sidecar, when present) back losslessly."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise TraceFormatError(
            f"{path}: line 1 must be the exact header {CSV_HEADER!r}"
        )
    n = len(lines) - 1
    t = np.empty(n, dtype=np.int64)
    cols = {name: np.empty(n) for name in _COLUMNS}
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 8:
            raise TraceFormatError(
                f"{path}: line {i + 2} has {len(parts)} fields, expected 8"
            )
        try:
            t[i] = int(parts[0])
            for j, name in enumerate(_COLUMNS):
                cols[name][i] = float(parts[j + 1])
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {i + 2}: {exc}") from exc
    _check_trace_values(path, t, cols)

    meta: dict = {}
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{sidecar}: not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise TraceFormatError(f"{sidecar}: must hold a JSON object")
        if not isinstance(meta.get("diverged", False), bool):
            raise TraceFormatError(f"{sidecar}: 'diverged' must be a bool")
    return Trace(t=t, diverged=meta.get("diverged", False), meta=meta, **cols)
