"""The four workloads: their inputs, operation, output summary and replay.

Each workload has

- ``setup(seed, size)``: builds the inputs (problem factories, synthetic
  traces). Counted in ``setup_s`` only.
- ``op(inp, outdir)``: the operation a user waits for. Timed for ``wall_s``.
- ``summarize(inp, outdir, result)``: the outputs that are checked, as a
  JSON-ready dict. Floats are ``float.hex`` strings, so equality is bitwise.
- ``valid(summary)``: what must hold for any seed (exit code 0, verification
  passed, no divergence, lossless read-back).
- ``replay(inp, outdir, tracer)``: the same library work as ``op``, made by
  direct calls into public functions so that the tracer can put a span
  around each. Returns ``(summary, extras)``; the summary must equal the
  operation's.
- ``micro(inp, extras)``: per-layer figures measured by direct calls that
  replay the workload's own shapes.

Why these four, and which metric each is meant to move, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import padambench as pb
from padambench import cli

from tracer import NullTracer

# spans whose time is run() time; oracle calls inside them are what
# problems.* and harness.self_us_per_step describe
RUN_SPANS = ("harness.run", "harness.repeat_runs")

# the per-optimizer base rates `padambench compare` uses without --lr
COMPARE_LRS = {"padam": 0.1, "sgdm": 0.1, "adam": 0.001, "amsgrad": 0.001,
               "adamw": 0.001, "adagrad": 0.01}

_B1, _B2, _EPS = 0.9, 0.999, 1e-8
_PADAM = pb.PadamConfig(beta1=_B1, beta2=_B2, p=0.125, epsilon=_EPS)
_MICRO_LR = 1e-3

# step rules at their CLI defaults, keyed by the per-layer metric stem
STEP_RULES = {
    "padam": lambda s, x, g: pb.padam_step(s, x, g, _MICRO_LR, _PADAM),
    "adam": lambda s, x, g: pb.adam_step(s, x, g, _MICRO_LR, _B1, _B2, _EPS),
    "amsgrad": lambda s, x, g: pb.amsgrad_step(s, x, g, _MICRO_LR, _B1, _B2,
                                               _EPS),
    "adamw": lambda s, x, g: pb.adamw_step(s, x, g, _MICRO_LR, _B1, _B2, _EPS,
                                           0.01),
    "sgd_momentum": lambda s, x, g: pb.sgd_momentum_step(s, x, g, _MICRO_LR,
                                                         0.9),
    "adagrad": lambda s, x, g: pb.adagrad_step(s, x, g, _MICRO_LR, _EPS),
}


def _hex(v) -> str:
    return float(v).hex()


def _run_cli(argv: list[str], outdir: Path) -> int:
    # the CLI's progress lines would precede the benchmark's result line
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--outdir", str(outdir)])


def _gradient_stream(problem, seed: int, n: int = 32) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(problem.dim)
    return [problem.stoch_grad(x, problem.sample_xi(rng, t))
            for t in range(1, n + 1)]


def step_us(rule: str, grads: list[np.ndarray], blocks: int = 5) -> float:
    """Median over blocks of the mean µs per call of one step rule, fed the
    workload's own gradients."""
    step = STEP_RULES[rule]
    dim = grads[0].size
    calls = max(10, min(1000, 2_000_000 // dim))
    state, x = pb.init_state(dim), np.zeros(dim)
    state, out = step(state, x, grads[0])  # warm
    x = out.new_x
    per_call = []
    k = 0
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            state, out = step(state, x, grads[k % len(grads)])
            x = out.new_x
            k += 1
        per_call.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(per_call)


def alloc_bytes_per_step(grads: list[np.ndarray]) -> int:
    """tracemalloc peak of one warm ``padam_step``: the bytes of the
    temporaries and new state it allocates (computed, not DRAM traffic)."""
    dim = grads[0].size
    state, out = STEP_RULES["padam"](pb.init_state(dim), np.zeros(dim),
                                     grads[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        STEP_RULES["padam"](state, out.new_x, grads[1])
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _mean_ms(fn, items) -> float:
    if not items:
        return 0.0
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.fmean(times)


class VerifyAll:
    """``padambench verify --suite all`` on the d=10 quadratic."""

    name = "verify-all"
    has_cli = True
    dim = 10
    sizes = {"full": {"steps": 1000, "seeds": 6},
             "tiny": {"steps": 60, "seeds": 2}}

    def setup(self, seed: int, size: str):
        sz = self.sizes[size]
        return SimpleNamespace(
            seed=seed, steps=sz["steps"], seeds=sz["seeds"],
            problem=pb.make_quadratic(self.dim, 10.0, 0.1),
            argv=["verify", "--suite", "all", "--steps", str(sz["steps"]),
                  "--seeds", str(sz["seeds"]), "--seed", str(seed),
                  "--dim", str(self.dim)],
        )

    def rows_per_op(self, inp) -> int:
        # trajectory suite plus bound suite, one trace row per step
        return 2 * inp.seeds * inp.steps

    def op(self, inp, outdir: Path):
        return _run_cli(inp.argv, outdir)

    def summarize(self, inp, outdir: Path, rc) -> dict:
        report = json.loads((outdir / "report.json").read_text())
        bound = report["suites"]["bound"]
        return {"exit": rc, "passed": report["passed"],
                "bound": _hex(bound["bound"]),
                "empirical_grad_norm_sq": _hex(bound["empirical_grad_norm_sq"]),
                "looseness": _hex(bound["looseness"])}

    def valid(self, summary: dict) -> bool:
        return summary["exit"] == 0 and summary["passed"] is True

    def replay(self, inp, outdir: Path, tr):
        with tr.span("verify.reductions"):
            reductions_ok = self._reductions(inp.steps, inp.seed, tr)
        with tr.span("verify.gradients"):
            gradients_ok = self._gradients(inp.seed, tr)
        with tr.span("verify.trajectory"):
            trajectory_ok, traces = self._trajectory(inp, tr)
        with tr.span("verify.bound"):
            with tr.span("problems.make_quadratic"):
                problem = tr.wrap_problem(
                    pb.make_quadratic(self.dim, 10.0, 0.1))
            alpha = pb.optimal_alpha(self.dim, inp.steps, 0.5)
            with tr.span("theory.verify_bound"):
                report = pb.verify_bound(problem, _PADAM, alpha=alpha,
                                         steps=inp.steps, n_seeds=inp.seeds,
                                         seed=inp.seed)
        bound_ok = report.applicable \
            and report.empirical_grad_norm_sq <= report.bound
        passed = reductions_ok and gradients_ok and trajectory_ok and bound_ok
        summary = {"exit": 0 if passed else 3, "passed": passed,
                   "bound": _hex(report.bound),
                   "empirical_grad_norm_sq":
                       _hex(report.empirical_grad_norm_sq),
                   "looseness": _hex(report.looseness)}
        return summary, {"traces": traces}

    @staticmethod
    def _reductions(steps: int, seed: int, tr) -> bool:
        """The ``reductions`` suite: p=1/2 against amsgrad, p=0 against
        heavy-ball SGD, on one gradient stream."""
        with tr.span("problems.make_quadratic"):
            problem = tr.wrap_problem(pb.make_quadratic(8, 10.0, 0.1))
        padam = tr.timed("optim.padam_step", pb.padam_step)
        amsgrad = tr.timed("optim.amsgrad_step", pb.amsgrad_step)
        sgdm = tr.timed("optim.sgd_momentum_step", pb.sgd_momentum_step)
        rng = np.random.default_rng(seed)
        x0 = 0.1 * rng.standard_normal(problem.dim)
        lr = 1e-3
        worst = 0.0
        for p, other in ((0.5, "amsgrad"), (0.0, "sgdm")):
            cfg = pb.PadamConfig(beta1=_B1, beta2=_B2, p=p, epsilon=_EPS)
            xp, xo = x0.copy(), x0.copy()
            sp, so = pb.init_state(problem.dim), pb.init_state(problem.dim)
            for t in range(1, steps + 1):
                g = problem.stoch_grad(xp, problem.sample_xi(rng, t))
                sp, op = padam(sp, xp, g, lr, cfg)
                if other == "amsgrad":
                    so, oo = amsgrad(so, xo, g, lr, _B1, _B2, _EPS)
                else:
                    so, oo = sgdm(so, xo, g, lr * (1.0 - _B1), _B1)
                xp, xo = op.new_x, oo.new_x
                worst = max(worst, float(np.abs(xp - xo).max()
                                         / (1.0 + np.abs(xo).max())))
        return worst <= 1e-9

    @staticmethod
    def _gradients(seed: int, tr) -> bool:
        """The ``gradients`` suite: finite differences on every problem."""
        with tr.span("problems.factories"):
            problems = [
                (pb.make_quadratic(6, 8.0, 0.1), 1.0),
                (pb.make_rosenbrock(6), 0.5),
                (pb.make_logistic(5, 80, seed=1), 0.5),
                (pb.make_sparse_growth(6), 1.0),
                (pb.make_mlp(1), 0.2),
            ]
        rng = np.random.default_rng(seed)
        ok = True
        for problem, scale in problems:
            problem = tr.wrap_problem(problem)
            with tr.span("problems.finite_diff_grad"):
                for _ in range(5):
                    x = scale * rng.standard_normal(problem.dim)
                    g = problem.exact_grad(x)
                    fd = pb.finite_diff_grad(problem, x, h=1e-6)
                    rel = float(np.linalg.norm(fd - g)
                                / max(np.linalg.norm(g), 1e-12))
                    ok = ok and rel <= 1e-5
        return ok

    def _trajectory(self, inp, tr):
        """The ``trajectory`` suite: dense runs and the five pathwise
        checks, one replica per seed."""
        with tr.span("problems.make_quadratic"):
            problem = tr.wrap_problem(pb.make_quadratic(self.dim, 10.0, 0.1))
        params = {"beta1": _B1, "beta2": _B2, "p": _PADAM.p, "epsilon": _EPS}
        ok = True
        traces = []
        for k in range(inp.seeds):
            spec = pb.RunSpec(problem=problem, optimizer="padam",
                              opt_params=params,
                              schedule=pb.Schedule("constant", 0.05),
                              steps=inp.steps, seed=inp.seed + k,
                              record_dense=True)
            with tr.span("harness.run"):
                trace = pb.run(spec)
            tr.add("harness.steps", len(trace.t))
            with tr.span("theory.run_trajectory_checks"):
                results = pb.run_trajectory_checks(trace, problem, _PADAM)
            ok = ok and all(r.status == "pass" for r in results.values())
            traces.append(trace)
        return ok, traces

    def micro(self, inp, extras) -> dict:
        grads = _gradient_stream(inp.problem, inp.seed)
        traces = extras.get("traces", [])
        problem = inp.problem
        return {
            "optim.padam_step_us": step_us("padam", grads),
            "optim.alloc_bytes_per_step": alloc_bytes_per_step(grads),
            "theory.check_smoothness_gap_ms": _mean_ms(
                lambda trace: pb.check_smoothness_gap(trace, problem, _PADAM),
                traces),
            "theory.estimate_growth_s_ms": _mean_ms(
                lambda trace: pb.estimate_growth_s(
                    trace.dense["g"], g_inf=problem.known_G_inf),
                traces),
        }


class MlpCompare:
    """``padambench compare --problem mlp`` over all six optimizers."""

    name = "mlp-compare"
    has_cli = True
    sizes = {"full": {"steps": 150, "seeds": 2},
             "tiny": {"steps": 20, "seeds": 1}}

    def setup(self, seed: int, size: str):
        sz = self.sizes[size]
        return SimpleNamespace(
            seed=seed, steps=sz["steps"], seeds=sz["seeds"],
            problem=pb.make_mlp(seed),
            argv=["compare", "--problem", "mlp", "--steps", str(sz["steps"]),
                  "--seeds", str(sz["seeds"]), "--seed", str(seed),
                  "--data-seed", str(seed)],
        )

    def rows_per_op(self, inp) -> int:
        return len(pb.OPTIMIZERS) * inp.seeds * inp.steps

    def op(self, inp, outdir: Path):
        return _run_cli(inp.argv, outdir)

    def summarize(self, inp, outdir: Path, rc) -> dict:
        lines = (outdir / "compare_summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        col_loss = header.index("final_loss_mean")
        col_gns = header.index("final_grad_norm_sq_mean")
        means = {}
        for line in lines[1:]:
            parts = line.split(",")
            means[parts[0]] = [_hex(parts[col_loss]), _hex(parts[col_gns])]
        return {"exit": rc, "means": means}

    def valid(self, summary: dict) -> bool:
        return summary["exit"] == 0 \
            and sorted(summary["means"]) == sorted(pb.OPTIMIZERS)

    def replay(self, inp, outdir: Path, tr):
        means = {}
        diverged = False
        for name in pb.OPTIMIZERS:
            with tr.span("problems.make_mlp"):
                problem = tr.wrap_problem(pb.make_mlp(inp.seed))
            spec = pb.RunSpec(problem=problem, optimizer=name, opt_params={},
                              schedule=pb.Schedule("constant",
                                                   COMPARE_LRS[name]),
                              steps=inp.steps, seed=inp.seed)
            with tr.span("harness.repeat_runs"):
                traces = pb.repeat_runs(spec, inp.seeds)
            tr.add("harness.steps", sum(len(t.t) for t in traces))
            with tr.span("harness.mean_channel"):
                losses = pb.mean_channel(traces, "loss")
                pb.mean_channel(traces, "grad_norm_sq")
            diverged = diverged or any(t.diverged for t in traces)
            last = len(losses) - 1
            means[name] = [
                _hex(np.mean([float(t.loss[last]) for t in traces])),
                _hex(np.mean([float(t.grad_norm_sq[last]) for t in traces])),
            ]
        return {"exit": 2 if diverged else 0, "means": means}, {}

    def micro(self, inp, extras) -> dict:
        grads = _gradient_stream(inp.problem, inp.seed)
        out = {f"optim.{rule}_step_us": step_us(rule, grads)
               for rule in STEP_RULES}
        out["optim.alloc_bytes_per_step"] = alloc_bytes_per_step(grads)
        return out


class WideRun:
    """``padambench run`` on the d=1e5 quadratic, one seed."""

    name = "wide-run"
    has_cli = True
    sizes = {"full": {"dim": 100_000, "steps": 300},
             "tiny": {"dim": 1000, "steps": 20}}

    def setup(self, seed: int, size: str):
        sz = self.sizes[size]
        return SimpleNamespace(
            seed=seed, steps=sz["steps"], dim=sz["dim"],
            problem=pb.make_quadratic(sz["dim"], 10.0, 0.1),
            argv=["run", "--problem", "quadratic", "--dim", str(sz["dim"]),
                  "--steps", str(sz["steps"]), "--seed", str(seed)],
        )

    def rows_per_op(self, inp) -> int:
        return inp.steps

    def op(self, inp, outdir: Path):
        return _run_cli(inp.argv, outdir)

    def summarize(self, inp, outdir: Path, rc) -> dict:
        last = (outdir / "trace.csv").read_text().splitlines()[-1]
        meta = json.loads((outdir / "trace.meta.json").read_text())
        return {"exit": rc, "diverged": meta["diverged"],
                "rows": int(last.split(",")[0]),
                "final_loss": _hex(last.split(",")[1])}

    def valid(self, summary: dict) -> bool:
        return summary["exit"] == 0 and summary["diverged"] is False

    def replay(self, inp, outdir: Path, tr):
        with tr.span("problems.make_quadratic"):
            problem = tr.wrap_problem(pb.make_quadratic(inp.dim, 10.0, 0.1))
        spec = pb.RunSpec(problem=problem, optimizer="padam", opt_params={},
                          schedule=pb.Schedule("constant", 0.1),
                          steps=inp.steps, seed=inp.seed)
        with tr.span("harness.run"):
            trace = pb.run(spec)
        tr.add("harness.steps", len(trace.t))
        with tr.span("harness.write_trace_csv"):
            pb.write_trace_csv(trace, outdir / "trace.csv")
        tr.add("harness.rows_written", len(trace.t))
        summary = {"exit": 2 if trace.diverged else 0,
                   "diverged": trace.diverged, "rows": len(trace.t),
                   "final_loss": _hex(trace.loss[-1])}
        return summary, {"written": outdir / "trace.csv"}

    def micro(self, inp, extras) -> dict:
        grads = _gradient_stream(inp.problem, inp.seed, n=8)
        out = {"optim.padam_step_us": step_us("padam", grads),
               "optim.alloc_bytes_per_step": alloc_bytes_per_step(grads)}
        # the reader on the trace this workload wrote: trace-io, which
        # exercises it at size, is not in BENCHMARK.json (see README.md)
        written = extras.get("written")
        if written is not None:
            read_ms = _mean_ms(pb.read_trace_csv, [written] * 5)
            out["harness.read_rows_per_s"] = 1e3 * inp.steps / read_ms
        return out


TRACE_COLUMNS = ("loss", "grad_norm_sq", "lr", "eff_lr_min", "eff_lr_max",
                 "vhat_min", "vhat_max")


def synthetic_traces(seed: int, n: int, rows: int) -> list:
    """Traces a padam run could have written: positive, finite, 17-digit
    floats, strictly increasing ``t``, nonincreasing lr and running-max
    second-moment columns."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, rows + 1, dtype=np.int64)
    out = []
    for k in range(n):
        lr = 0.1 / np.sqrt(t)
        eff_min = lr * rng.uniform(0.5, 1.0, rows)
        vhat_min = np.maximum.accumulate(rng.lognormal(-6.0, 1.0, rows))
        out.append(pb.Trace(
            t=t.copy(),
            loss=rng.lognormal(0.0, 1.0, rows),
            grad_norm_sq=rng.lognormal(-2.0, 1.5, rows),
            lr=lr,
            eff_lr_min=eff_min,
            eff_lr_max=eff_min * rng.uniform(1.0, 20.0, rows),
            vhat_min=vhat_min,
            vhat_max=np.maximum.accumulate(
                vhat_min * rng.uniform(1.0, 50.0, rows)),
            meta={"problem": "synthetic", "optimizer": "padam", "seed": k},
        ))
    return out


def traces_equal(a, b) -> bool:
    return a.t.tobytes() == b.t.tobytes() and all(
        getattr(a, c).tobytes() == getattr(b, c).tobytes()
        for c in TRACE_COLUMNS)


class TraceIO:
    """``write_trace_csv`` on N synthetic traces, ``read_trace_csv`` on
    each, ``mean_channel`` over what was read."""

    name = "trace-io"
    has_cli = False
    sizes = {"full": {"traces": 8, "rows": 6000},
             "tiny": {"traces": 2, "rows": 200}}

    def setup(self, seed: int, size: str):
        sz = self.sizes[size]
        return SimpleNamespace(
            seed=seed, rows=sz["rows"],
            traces=synthetic_traces(seed, sz["traces"], sz["rows"]))

    def rows_per_op(self, inp) -> int:
        return 2 * len(inp.traces) * inp.rows

    def op(self, inp, outdir: Path):
        return self.replay(inp, outdir, NullTracer())[0]

    def summarize(self, inp, outdir: Path, summary) -> dict:
        return summary

    def valid(self, summary: dict) -> bool:
        return summary["roundtrip"] is True

    def replay(self, inp, outdir: Path, tr):
        paths = []
        for k, trace in enumerate(inp.traces):
            with tr.span("harness.write_trace_csv"):
                paths.append(pb.write_trace_csv(trace,
                                                outdir / f"trace{k}.csv"))
            tr.add("harness.rows_written", len(trace.t))
        back = []
        for path in paths:
            with tr.span("harness.read_trace_csv"):
                back.append(pb.read_trace_csv(path))
            tr.add("harness.rows_read", len(back[-1].t))
        with tr.span("harness.mean_channel"):
            mean = pb.mean_channel(back, "loss")
        roundtrip = all(traces_equal(a, b) for a, b in zip(inp.traces, back))
        summary = {"roundtrip": roundtrip,
                   "mean_loss_sha256": hashlib.sha256(mean.tobytes())
                   .hexdigest()}
        return summary, {}

    def micro(self, inp, extras) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (VerifyAll(), MlpCompare(), WideRun(),
                                 TraceIO())}
