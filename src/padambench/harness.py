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
    "mean_channel",
    "read_trace_csv",
    "repeat_runs",
    "run",
    "schedule_lr",
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


# a block holds as many replicas as keep its arrays within this many bytes,
# and at least 16: the (S, T) columns, the (S, d) state and temporaries, and
# the dense histories or the window a fold reads. 80 MiB runs criterion
# 04's 100 replicas of 10^4 steps at d = 10 as one block
_BLOCK_BYTES = 80 << 20
_STATE_ROWS = 10  # (S, d) arrays alive in a step: x, g, the state, temporaries
# steps per window handed to a fold: at most _WINDOW, and fewer where a
# window array would pass _WINDOW_FLOATS. Measured at d = 10: at 6 rows,
# 128 steps save 0.1 us a replica-step over 64 but lift verify-all's peak
# RSS by 0.5 MiB; at 100 rows, 64-step windows (512 KiB arrays) cost
# 360,000 minor faults a 10^4-step run, 16-step windows 6,400
_WINDOW = 64
_WINDOW_FLOATS = 1 << 14
# a block whose first draw is an ndarray of at least this many bytes makes
# each next draw on a worker thread while the step runs. Time a step drawing
# ahead over drawing inline (padam, quadratic, 2 cores): 1.6 for lone runs
# at d = 10 and 4096; 1.0-1.2 for draws of 256 and 384 KiB, of 1, 2 or 16
# rows; 0.6-1.1 at 512 KiB; 0.6 from 625 KiB (a lone run at d = 80,000) up
_PREFETCH_BYTES = 1 << 19


def run(spec: RunSpec) -> Trace:
    """Execute one run and return its trace.

    Never raises on numeric blowup: a nonfinite loss, gradient or iterate
    stops the loop with ``diverged=True`` and the rows recorded so far.
    """
    return _run_block([(spec, spec.seed)])[0]


def _blocks(specs, n_seeds: int, folded: bool = False) -> list[list]:
    """The rows ``(spec, spec.seed + k)``, ``k < n_seeds``, spec by spec,
    cut into the lists that advance together: as many as fit
    ``_BLOCK_BYTES``, at least 16. ``specs`` is one ``RunSpec`` or a
    sequence of them sharing one problem object, ``steps`` and
    ``record_dense``. A fold (``folded``) adds its window and carry rows."""
    specs = [specs] if isinstance(specs, RunSpec) else list(specs)
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    if not specs:
        raise ValueError("no run specs given")
    spec = specs[0]
    if any(s.problem is not spec.problem or s.steps != spec.steps
           or s.record_dense != spec.record_dense for s in specs):
        raise ValueError("specs run together must share one problem "
                         "object, steps and record_dense")
    steps, d = spec.steps, spec.problem.dim
    floats = len(_COLUMNS) * steps + _STATE_ROWS * d
    if spec.record_dense:
        floats += 4 * (steps + 1) * d
    elif folded:  # the fold's temporaries fit _WINDOW_FLOATS, whatever S
        floats += 4 * (_WINDOW + 1) * d
    per = max(16, _BLOCK_BYTES // (8 * floats))
    rows = [(s, s.seed + k) for s in specs for k in range(n_seeds)]
    return [rows[first:first + per] for first in range(0, len(rows), per)]


def repeat_runs(specs, n_seeds: int) -> list[Trace]:
    """Run ``n_seeds`` replicas with seeds ``spec.seed + k``, in order, of
    one spec or, spec-major, of each spec of a sequence that shares one
    problem object, ``steps`` and ``record_dense``.

    Each trace is bitwise the one ``run`` gives for its spec and seed.
    Replicas advance in blocks (see ``_blocks``); a block's traces share
    its arrays."""
    return [trace for rows in _blocks(specs, n_seeds)
            for trace in _run_block(rows)]


def _draws(sample_xi, rngs, steps: int):
    """Yield ``sample_xi(rngs, t)`` for ``t = 1..steps``. Where the first
    draw is an ndarray of at least ``_PREFETCH_BYTES``, draw ``t + 1`` runs
    on a worker thread while the caller uses draw ``t``, one call at a
    time and in step order, so each is bitwise the inline draw. Closing
    waits for the draw in flight, which goes unread, and stops the worker."""
    xi = sample_xi(rngs, 1)
    if not (isinstance(xi, np.ndarray) and xi.nbytes >= _PREFETCH_BYTES):
        yield xi
        for t in range(2, steps + 1):
            yield sample_xi(rngs, t)
        return
    from concurrent.futures import ThreadPoolExecutor  # lazily: setup time

    with ThreadPoolExecutor(1) as worker:
        for t in range(2, steps + 1):
            ahead = worker.submit(sample_xi, rngs, t)
            yield xi
            xi = ahead.result()
        yield xi


# overflow on a blown-up iterate, in the oracles or in the step rule, is the
# divergence signal, not an error
@np.errstate(over="ignore", invalid="ignore")
def _run_block(rows: list[tuple[RunSpec, int]], fold=None) -> list[Trace]:
    """Run each ``(spec, seed)`` of ``rows``, advancing the replicas
    together as ``(S, d)`` arrays; block row ``j`` is ``rows[j]``
    throughout. The specs share the problem, ``steps`` and
    ``record_dense``; each run of consecutive rows with one spec is a group
    with its own step rule, schedule and state.

    Each of the problem's oracles runs once per step on the whole block,
    and each group's step rule once on its rows, so every row follows its
    lone run bit for bit. A row stops at the check and the step where its
    lone run would stop (nonfinite loss or gradient norm, nonfinite
    stochastic gradient, ``NumericError``, nonfinite new iterate); the
    other rows carry on. A stopped row is zeroed in ``x``, ``g`` and the
    state, which every step rule steps to zero without raising, and its
    trace is cut at its last recorded row. The oracles still evaluate it,
    at zero.

    ``record_dense`` keeps the ``x``, ``g``, ``m`` and ``vhat`` histories
    of every step. A ``fold`` gets them a window of steps at a time
    instead, the last window cut short: ``fold.add(x, g, m, vhat,
    lr)`` with ``x`` of shape ``(S, n + 1, d)``, the window's iterates and
    the one after, and the others ``(S, n, d)`` and ``(S, n)``. A stopped
    row's slots hold what the zeroed row steps to.
    """
    spec = rows[0][0]
    prob = spec.problem
    S, d, steps = len(rows), prob.dim, spec.steps
    edges = [0, *(j for j in range(1, S) if rows[j][0] is not rows[j - 1][0]),
             S]
    spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
    specs = [rows[rs.start][0] for rs in spans]
    # each group's rows, schedule, step rule and vhat column
    groups = [(rs, s.schedule,
               REGISTRY[s.optimizer].bind(_resolve_params(s.optimizer,
                                                          s.opt_params)),
               REGISTRY[s.optimizer].vhat_field)
              for rs, s in zip(spans, specs)]
    group = np.repeat(np.arange(len(spans)), np.diff(edges))
    rngs = [np.random.default_rng(seed) for _, seed in rows]
    x = np.empty((S, d))
    for j, ((s, _), rng) in enumerate(zip(rows, rngs)):
        if prob.start is not None:
            x[j] = prob.start
        else:
            init_rng = (np.random.default_rng(s.init_seed)
                        if s.init_seed is not None else rng)
            x[j] = 0.1 * init_rng.standard_normal(d)

    cols = {name: np.empty((S, steps)) for name in _COLUMNS}
    width = steps if spec.record_dense else \
        max(1, min(_WINDOW, _WINDOW_FLOATS // (S * d)))
    rec = None  # a slot per step of the window, x one more
    if spec.record_dense or fold is not None:
        rec = {name: np.empty((S, width + (name == "x"), d))
               for name in ("x", "g", "m", "vhat")}
    states = []
    for rs in spans:
        zeros = np.zeros((rs.stop - rs.start, d))
        states.append(OptState(m=zeros, v=zeros.copy(), v_hat=zeros.copy()))
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
            q = group[j]
            state, r = states[q], j - spans[q].start
            state.m[r] = state.v[r] = state.v_hat[r] = 0.0
        live[stop] = False
        n_live -= len(stop)
        return not n_live

    def live_rows(a):
        """``a`` with the stopped rows zeroed, in a new array: ``a`` may be
        one an oracle returned (sparse-growth's gradient is its input)."""
        return a if n_live == S else np.where(live[:, None], a, 0.0)

    loss, exact_grad = prob.loss, prob.exact_grad
    stoch_grad = prob.stoch_grad
    loss_col, gns_col = cols["loss"], cols["grad_norm_sq"]
    draws = _draws(prob.sample_xi, rngs, steps)
    started = time.perf_counter()
    try:
        for t, xi in zip(range(1, steps + 1), draws):
            i = t - 1
            # gradient first: an oracle may reuse that pass for the loss
            g_exact = exact_grad(x)
            f = loss_col[:, i] = loss(x)
            gns = gns_col[:, i] = _rowdot(g_exact, g_exact)
            g = stoch_grad(x, xi)
            ok = math.isfinite(f.sum() + gns.sum() + g.sum())  # none stops
            # rows stopping at the loss check, which precedes the box check
            at_loss = live & (not ok and ~(np.isfinite(f) & np.isfinite(gns)))
            if None in box_exit and np.abs(x).max() > prob.box:
                for j in np.flatnonzero(np.abs(x).max(axis=1) > prob.box):
                    if box_exit[j] is None and not at_loss[j]:
                        box_exit[j] = t
            stop = () if ok else np.flatnonzero(
                at_loss | live & ~np.isfinite(g).all(axis=1))
            if len(stop):
                if halt(stop, t - 1):
                    break
                x = live_rows(x)
            g = live_rows(g)
            k = i % width
            new_xs, ms, vhats = [], [], []
            for q, (rs, schedule, stepper, vhat_field) in enumerate(groups):
                lr_t = schedule_lr(schedule, t)
                try:
                    state, out = stepper(states[q], x[rs], g[rs], lr_t)
                except NumericError as exc:
                    # rare: stop the rows the step names, step the rest
                    if not exc.rows:
                        raise
                    halt([rs.start + r for r in exc.rows], t - 1)
                    x, g = live_rows(x), live_rows(g)
                    state, out = stepper(states[q], x[rs], g[rs], lr_t)
                states[q] = state
                cols["lr"][rs, i] = lr_t
                cols["eff_lr_min"][rs, i] = out.effective_lr_min
                cols["eff_lr_max"][rs, i] = out.effective_lr_max
                new_xs.append(out.new_x)
                ms.append(state.m)
                vhats.append(getattr(state, vhat_field))
            if not n_live:  # every row left raised NumericError
                break
            # one pass a step over the groups' arrays joined; a lone group's
            # are its own, and the block keeps its new_x
            one = len(groups) == 1
            vhat = vhats[0] if one else np.concatenate(vhats)
            cols["vhat_min"][:, i] = vhat.min(axis=1)
            cols["vhat_max"][:, i] = vhat.max(axis=1)
            if rec is not None:
                if k == 0:
                    rec["x"][:, 0] = x
                rec["g"][:, k] = g
                rec["m"][:, k] = ms[0] if one else np.concatenate(ms)
                rec["vhat"][:, k] = vhat
            new_x = new_xs[0] if one else np.concatenate(new_xs)
            if not np.isfinite(new_x).all():
                if halt(np.flatnonzero(~np.isfinite(new_x).all(axis=1)), t):
                    break
                new_x[~live] = 0.0
            x = new_x
            if rec is not None:
                rec["x"][:, k + 1] = x
                if fold is not None and (k == width - 1 or t == steps):
                    fold.add(rec["x"][:, :k + 2], rec["g"][:, :k + 1],
                             rec["m"][:, :k + 1], rec["vhat"][:, :k + 1],
                             cols["lr"][:, i - k:t])
    finally:  # on every way out, the worker stops
        draws.close()
    wall_ms = 1000.0 * (time.perf_counter() - started)

    configs = [_resolved_config(s) for s in specs]
    traces = []
    for r, (s, seed) in enumerate(rows):
        n = recorded[r]
        diverged = x_final[r] is not None
        trace_dense = None
        if spec.record_dense:
            trace_dense = {k: v[r, :n] for k, v in rec.items()}
            trace_dense["x_final"] = x_final[r] if diverged else x[r].copy()
        meta = {
            "problem": prob.name,
            "optimizer": s.optimizer,
            "config": dict(configs[group[r]], seed=seed),
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
