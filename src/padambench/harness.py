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

import dataclasses
import json
import math
import os
import secrets
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .optim import REGISTRY, NumericError, init_state
from .problems import StochasticProblem

__all__ = [
    "CSV_HEADER",
    "OPTIMIZERS",
    "RunSpec",
    "Schedule",
    "Trace",
    "TraceFormatError",
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


def run(spec: RunSpec) -> Trace:
    """Execute one run and return its trace.

    Never raises on numeric blowup: a nonfinite loss, gradient or iterate
    stops the loop with ``diverged=True`` and the rows recorded so far.
    """
    prob = spec.problem
    entry = REGISTRY[spec.optimizer]
    stepper = entry.bind(_resolve_params(spec.optimizer, spec.opt_params))
    noise_rng = np.random.default_rng(spec.seed)
    if prob.start is not None:
        x = np.asarray(prob.start, dtype=np.float64).copy()
    else:
        init_rng = (np.random.default_rng(spec.init_seed)
                    if spec.init_seed is not None else noise_rng)
        x = 0.1 * init_rng.standard_normal(prob.dim)

    steps = spec.steps
    cols = {name: np.empty(steps) for name in _COLUMNS}
    dense = None
    if spec.record_dense:
        dense = {name: np.empty((steps, prob.dim))
                 for name in ("x", "g", "m", "vhat")}

    state = init_state(prob.dim)
    diverged = False
    box_exit = None
    n = 0
    started = time.perf_counter()
    for t in range(1, steps + 1):
        # overflow on a blown-up iterate is the divergence signal, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            fval = prob.loss(x)
            g_exact = prob.exact_grad(x)
            gns = float(g_exact @ g_exact)
        if not (math.isfinite(fval) and math.isfinite(gns)):
            diverged = True
            break
        if box_exit is None and np.max(np.abs(x)) > prob.box:
            box_exit = t
        lr_t = schedule_lr(spec.schedule, t)
        xi = prob.sample_xi(noise_rng, t)
        g = prob.stoch_grad(x, xi)
        if not np.all(np.isfinite(g)):
            diverged = True
            break
        try:
            state, out = stepper(state, x, g, lr_t)
        except NumericError:
            diverged = True
            break
        vhat = getattr(state, entry.vhat_field)
        i = t - 1
        cols["loss"][i] = fval
        cols["grad_norm_sq"][i] = gns
        cols["lr"][i] = lr_t
        cols["eff_lr_min"][i] = out.effective_lr_min
        cols["eff_lr_max"][i] = out.effective_lr_max
        cols["vhat_min"][i] = vhat.min()
        cols["vhat_max"][i] = vhat.max()
        if dense is not None:
            dense["x"][i] = x
            dense["g"][i] = g
            dense["m"][i] = state.m
            dense["vhat"][i] = vhat
        n = t
        if not np.all(np.isfinite(out.new_x)):
            diverged = True
            break
        x = out.new_x
    wall_ms = 1000.0 * (time.perf_counter() - started)

    if dense is not None:
        dense = {k: v[:n] for k, v in dense.items()}
        dense["x_final"] = x.copy()
    meta = {
        "problem": prob.name,
        "optimizer": spec.optimizer,
        "config": _resolved_config(spec),
        "seed": spec.seed,
        "diverged": diverged,
        "wall_ms": wall_ms,
    }
    return Trace(
        t=np.arange(1, n + 1, dtype=np.int64),
        loss=cols["loss"][:n],
        grad_norm_sq=cols["grad_norm_sq"][:n],
        lr=cols["lr"][:n],
        eff_lr_min=cols["eff_lr_min"][:n],
        eff_lr_max=cols["eff_lr_max"][:n],
        vhat_min=cols["vhat_min"][:n],
        vhat_max=cols["vhat_max"][:n],
        diverged=diverged,
        box_exit=box_exit,
        dense=dense,
        meta=meta,
    )


def repeat_runs(
    spec: RunSpec, n_seeds: int, parallel: bool = False
) -> list[Trace]:
    """Run ``n_seeds`` replicas with seeds ``spec.seed + k``, in order.

    The threaded path exists for callers whose problems release the GIL;
    results are identical to the serial path either way.
    """
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    specs = [dataclasses.replace(spec, seed=spec.seed + k)
             for k in range(n_seeds)]
    if not parallel:
        return [run(s) for s in specs]
    with ThreadPoolExecutor(max_workers=min(4, n_seeds)) as pool:
        return list(pool.map(run, specs))


def mean_channel(traces: list[Trace], name: str) -> np.ndarray:
    """Per-step mean of one trace column, compensated summation."""
    if not traces:
        raise ValueError("no traces given")
    length = min(len(tr.t) for tr in traces)
    cols = [getattr(tr, name) for tr in traces]
    out = np.empty(length)
    for i in range(length):
        out[i] = math.fsum(c[i] for c in cols) / len(cols)
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


def select_output(
    trace: Trace, schedule: Schedule | None, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Draw the returned iterate: step ``t`` in ``2..T`` is chosen with
    probability proportional to the lr at ``t - 1``.

    Requires dense recording, since the iterate itself is returned.
    """
    if trace.dense is None or "x" not in trace.dense:
        raise ValueError("select_output needs a trace with dense recording")
    cdf = _selection_cdf(trace, schedule)
    k = int(np.searchsorted(cdf, rng.random(), side="right"))
    t_out = k + 2
    return t_out, trace.dense["x"][t_out - 1].copy()


def select_output_indices(
    trace: Trace,
    schedule: Schedule | None,
    rng: np.random.Generator,
    n_draws: int,
) -> np.ndarray:
    """Vectorized batch of output-step draws (same law as ``select_output``)."""
    cdf = _selection_cdf(trace, schedule)
    draws = rng.random(n_draws)
    return np.searchsorted(cdf, draws, side="right").astype(np.int64) + 2


def _float_field(v: float) -> str:
    return format(float(v), ".17g")


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


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write the trace columns as CSV plus a JSON metadata sidecar.

    Both files are written atomically (temp file and rename), so readers
    never observe a torn trace.
    """
    path = Path(path)
    lines = [CSV_HEADER]
    for i in range(len(trace.t)):
        lines.append(",".join([str(int(trace.t[i]))] + [
            _float_field(getattr(trace, name)[i]) for name in _COLUMNS
        ]))
    _atomic_write(path, "\n".join(lines) + "\n")

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
        meta = json.loads(sidecar.read_text())
    return Trace(t=t, diverged=bool(meta.get("diverged", False)),
                 meta=meta, **cols)
