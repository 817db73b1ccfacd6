"""Convergence-bound constants, trajectory checks, and end-to-end verification.

The guarantee implemented here: running the partially adaptive method with
constant step size on an L-smooth objective whose stochastic gradients stay
bounded by ``G_inf`` in sup norm, the expected squared gradient norm at a
randomly selected iterate is at most

    m1 / (T a) + m2 d / T + m3 a d G_inf^(1-q) / T^((1-q)(1/2-s))

where ``s`` is the cumulative gradient-growth exponent, ``q`` is a free
interpolation knob in ``[max(0, 4p-1), 1]``, and the constants require the
momentum-to-adaptivity ratio ``gamma = beta1 / beta2**(2p)`` to be below
one. ``check_*`` functions test the per-step identities and inequalities
behind the proof pathwise on recorded traces; ``verify_bound`` runs the
whole pipeline and compares the empirical left side against the bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .harness import RunSpec, Schedule, Trace, iter_runs, select_output
from .optim import REGISTRY, PadamConfig
from .problems import StochasticProblem, _rowdot

__all__ = [
    "BoundConstants",
    "BoundInputs",
    "CheckResult",
    "GrowthEstimate",
    "HypothesisError",
    "TheoryReport",
    "bound_constants",
    "bound_q0",
    "bound_value",
    "check_moment_bounds",
    "check_smoothness_gap",
    "check_update_energy",
    "check_z_identity",
    "check_z_step_bound",
    "estimate_growth_s",
    "optimal_alpha",
    "report_to_dict",
    "run_trajectory_checks",
    "verify_bound",
]


class HypothesisError(ValueError):
    """A stated hypothesis of the guarantee is violated, so no conclusion
    can be drawn (for example ``gamma >= 1``)."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formula consumes.

    ``vhat1_term`` is the expected l1 norm of ``(v_hat_1 + eps)**-p``;
    ``s`` is the gradient-growth exponent; ``q`` may be ``None`` to pick
    the smallest admissible value ``max(0, 4p - 1)``.
    """

    g_inf: float
    smoothness: float
    delta_f: float
    dim: int
    steps: int
    alpha: float
    beta1: float
    beta2: float
    p: float
    vhat1_term: float
    s: float
    q: float | None = None

    def __post_init__(self) -> None:
        if not self.g_inf > 0.0:
            raise ValueError(f"g_inf must be positive, got {self.g_inf}")
        if not self.smoothness > 0.0:
            raise ValueError("smoothness must be positive")
        if self.delta_f < 0.0:
            raise ValueError("delta_f must be nonnegative")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in (0, 1), got {self.beta2}")
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"p must be in [0, 1/2], got {self.p}")
        if not (math.isfinite(self.vhat1_term) and self.vhat1_term >= 0.0):
            raise ValueError("vhat1_term must be finite and nonnegative")
        if not 0.0 <= self.s <= 0.5:
            raise ValueError(f"s must be in [0, 1/2], got {self.s}")

    def replace(self, **kw) -> "BoundInputs":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class BoundConstants:
    m1: float
    m2: float
    m3: float
    gamma: float
    q: float


def _resolve_q(p: float, q: float | None) -> float:
    q_min = max(0.0, 4.0 * p - 1.0)
    if q is None:
        return q_min
    if q < q_min - 1e-12 or q > 1.0:
        raise ValueError(
            f"q must lie in [{q_min}, 1] for p={p}, got {q}"
        )
    return q


def bound_constants(inp: BoundInputs) -> BoundConstants:
    """The three constants of the guarantee, at the resolved ``q``."""
    gamma = inp.beta1 / inp.beta2 ** (2.0 * inp.p)
    if gamma >= 1.0:
        raise HypothesisError(
            f"beta1/beta2^(2p) = {gamma:.6f} must be below 1"
        )
    q = _resolve_q(inp.p, inp.q)
    g, L = inp.g_inf, inp.smoothness
    b1, b2, p = inp.beta1, inp.beta2, inp.p
    m1 = 2.0 * g ** (2.0 * p) * inp.delta_f
    m2 = 4.0 * g ** (2.0 + 2.0 * p) * inp.vhat1_term / (inp.dim * (1.0 - b1)) \
        + 4.0 * g * g
    m3 = 4.0 * L * g ** (1.0 + q - 2.0 * p) / (1.0 - b2) ** (2.0 * p) \
        + 8.0 * L * g ** (1.0 + q - 2.0 * p) * (1.0 - b1) \
        / ((1.0 - b2) ** (2.0 * p) * (1.0 - gamma)) * (b1 / (1.0 - b1)) ** 2
    return BoundConstants(m1=m1, m2=m2, m3=m3, gamma=gamma, q=q)


def bound_value(inp: BoundInputs) -> float:
    """Right-hand side of the guarantee for these inputs."""
    c = bound_constants(inp)
    horizon_pow = (1.0 - c.q) * (0.5 - inp.s)
    return c.m1 / (inp.steps * inp.alpha) \
        + c.m2 * inp.dim / inp.steps \
        + c.m3 * inp.alpha * inp.dim * inp.g_inf ** (1.0 - c.q) \
        / inp.steps ** horizon_pow


def bound_q0(inp: BoundInputs) -> float:
    """Small-exponent specialization: valid for ``p <= 1/4``, with ``q``
    pinned at zero. Written out independently of ``bound_value`` so the
    two can be cross-checked."""
    if inp.p > 0.25:
        raise HypothesisError(
            f"the q=0 specialization needs p <= 1/4, got {inp.p}"
        )
    gamma = inp.beta1 / inp.beta2 ** (2.0 * inp.p)
    if gamma >= 1.0:
        raise HypothesisError(
            f"beta1/beta2^(2p) = {gamma:.6f} must be below 1"
        )
    g, L = inp.g_inf, inp.smoothness
    b1, b2, p = inp.beta1, inp.beta2, inp.p
    m1 = 2.0 * g ** (2.0 * p) * inp.delta_f
    m2 = 4.0 * g ** (2.0 + 2.0 * p) * inp.vhat1_term / (inp.dim * (1.0 - b1)) \
        + 4.0 * g * g
    m3p = 4.0 * L * g ** (1.0 - 2.0 * p) / (1.0 - b2) ** (2.0 * p) \
        + 8.0 * L * g ** (1.0 - 2.0 * p) * (1.0 - b1) \
        / ((1.0 - b2) ** (2.0 * p) * (1.0 - gamma)) * (b1 / (1.0 - b1)) ** 2
    return m1 / (inp.steps * inp.alpha) + m2 * inp.dim / inp.steps \
        + m3p * inp.alpha * inp.dim * g / inp.steps ** (0.5 - inp.s)


def optimal_alpha(dim: int, steps: int, s: float, scale: float = 1.0) -> float:
    """Step size that balances the bound's terms:
    ``scale / (sqrt(dim) * steps**(1/4 + s/2))``."""
    if dim < 1 or steps < 1:
        raise ValueError("dim and steps must be positive")
    if not 0.0 <= s <= 0.5:
        raise ValueError(f"s must be in [0, 1/2], got {s}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scale / (math.sqrt(dim) * steps ** (0.25 + 0.5 * s))


@dataclass(frozen=True)
class GrowthEstimate:
    s: float
    slope: float
    degenerate: bool


def estimate_growth_s(
    grads: np.ndarray, g_inf: float | None = None
) -> GrowthEstimate:
    """Estimate the cumulative gradient-growth exponent from a gradient
    stream of shape ``(T, d)``.

    The point estimate is the smallest ``s`` with
    ``max_i ||g_{1:T,i}||_2 <= g_inf * T**s`` pathwise, clamped to
    ``[0, 1/2]``. ``slope`` is a least-squares diagnostic fitted to the
    running maximum over the back half of the stream. An all-zero stream
    is flagged degenerate and reports ``s = 0``.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] < 2:
        raise ValueError("need a (T, d) gradient stream with T >= 2")
    steps = grads.shape[0]
    running = np.sqrt(np.cumsum(grads * grads, axis=0))
    final_max = float(running[-1].max())
    if final_max == 0.0:
        return GrowthEstimate(s=0.0, slope=0.0, degenerate=True)
    if g_inf is None:
        g_inf = float(np.abs(grads).max())
    raw = math.log(final_max / g_inf) / math.log(steps)
    s = min(0.5, max(0.0, raw))

    tail = np.arange(steps // 2, steps)
    ys = running.max(axis=1)[tail]
    keep = ys > 0.0
    if keep.sum() >= 2:
        slope = float(np.polyfit(np.log(tail[keep] + 1.0),
                                 np.log(ys[keep]), 1)[0])
    else:
        slope = 0.0
    return GrowthEstimate(s=s, slope=slope, degenerate=False)


# --------------------------------------------------------------------------
# trajectory checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inapplicable"
    margin: float
    detail: str = ""


def _dense_arrays(trace: Trace):
    if trace.dense is None or "x_final" not in trace.dense:
        raise ValueError("this check needs a trace recorded with dense=True")
    d = trace.dense
    return d["x"], d["g"], d["m"], d["vhat"], d["x_final"]


def _inverse_powers(vhat: np.ndarray, cfg: PadamConfig) -> np.ndarray:
    """Per-coordinate ``(v_hat + eps)**-p``: ones at ``p = 0``, zero bases
    included; for ``p > 0``, ``inf`` exactly where the base is 0."""
    base = vhat + cfg.epsilon
    with np.errstate(divide="ignore"):
        return base ** -cfg.p


def _scaled_denominators(raw: np.ndarray) -> np.ndarray:
    """``raw`` with dead (``inf``) coordinates zeroed, like the step rule."""
    return np.where(raw == np.inf, 0.0, raw)


def _z_sequence(x: np.ndarray, x_final: np.ndarray, c: float) -> np.ndarray:
    """Momentum-corrected auxiliary sequence ``z_t = x_t + c (x_t - x_{t-1})``
    for ``t = 1..n+1``, with ``x_0`` taken equal to ``x_1``."""
    full = np.vstack([x, x_final])
    z = full.copy()
    z[1:] += c * (full[1:] - full[:-1])
    return z


def check_z_identity(trace: Trace, cfg: PadamConfig) -> CheckResult:
    """Exact per-step identity for the increments of the momentum-corrected
    sequence. Residuals beyond float roundoff mean the trace and the step
    rule disagree."""
    name = "z_identity"
    if trace.diverged:
        return CheckResult(name, "inapplicable", 0.0, "trace diverged")
    x, g, m, vhat, x_final = _dense_arrays(trace)
    n = x.shape[0]
    c = cfg.beta1 / (1.0 - cfg.beta1)
    alphas = trace.lr
    scaled = _scaled_denominators(_inverse_powers(vhat, cfg))
    update = alphas[:, None] * m * scaled
    g_term = alphas[:, None] * g * scaled
    z = _z_sequence(x, x_final, c)
    lhs = z[1:] - z[:-1]
    rhs = np.empty_like(lhs)
    rhs[0] = -g_term[0]
    if n > 1:
        cross = alphas[1:, None] * m[:-1] * scaled[1:]
        rhs[1:] = c * (update[:-1] - cross) - g_term[1:]
    resid = np.abs(lhs - rhs).max(axis=1)
    scale_ = 1.0 + np.abs(lhs).max(axis=1)
    margin = float((resid / scale_).max())
    status = "pass" if margin <= 1e-10 else "fail"
    return CheckResult(name, status, margin,
                       f"max normalized residual {margin:.3e}")


def check_z_step_bound(trace: Trace, cfg: PadamConfig) -> CheckResult:
    """Increment bound: ``||z_{t+1} - z_t||`` is at most the gradient part
    plus ``c`` times the previous iterate displacement. Needs the
    effective lr to be nonincreasing, which monotone ``v_hat`` plus a
    nonincreasing schedule guarantees."""
    name = "z_step_bound"
    if trace.diverged:
        return CheckResult(name, "inapplicable", 0.0, "trace diverged")
    x, g, m, vhat, x_final = _dense_arrays(trace)
    c = cfg.beta1 / (1.0 - cfg.beta1)
    alphas = trace.lr
    # monotonicity uses the raw power, where a zero denominator is +inf:
    # a dead coordinate waking up is a decrease, not an increase
    raw = _inverse_powers(vhat, cfg)
    scaled = _scaled_denominators(raw)
    eff = alphas[:, None] * raw
    if not np.all(eff[1:] <= eff[:-1] * (1.0 + 1e-12) + 1e-300):
        return CheckResult(name, "inapplicable", 0.0,
                           "effective lr is not nonincreasing")
    z = _z_sequence(x, x_final, c)
    lhs = np.linalg.norm(z[1:] - z[:-1], axis=1)
    g_part = np.linalg.norm(alphas[:, None] * g * scaled, axis=1)
    disp = np.zeros_like(lhs)
    disp[1:] = np.linalg.norm(x[:-1] - x[1:], axis=1)
    rhs = g_part + c * disp
    slack = ((rhs - lhs) / (1.0 + rhs)).min()
    status = "pass" if slack >= -1e-9 else "fail"
    return CheckResult(name, status, float(slack),
                       f"worst normalized slack {slack:.3e}")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's norm, bitwise ``np.linalg.norm(row)`` (``norm(axis=1)``
    sums pairwise instead)."""
    return np.sqrt(_rowdot(a, a))


def check_smoothness_gap(
    trace: Trace,
    problem: StochasticProblem,
    cfg: PadamConfig,
    smoothness: float | None = None,
) -> CheckResult:
    """The gradient gap between the corrected and the raw iterate is
    controlled by smoothness times the last displacement."""
    name = "smoothness_gap"
    L = smoothness if smoothness is not None else problem.known_L
    if L is None:
        return CheckResult(name, "inapplicable", 0.0,
                           "problem has no smoothness certificate")
    if trace.diverged:
        return CheckResult(name, "inapplicable", 0.0, "trace diverged")
    x, _, _, _, x_final = _dense_arrays(trace)
    c = cfg.beta1 / (1.0 - cfg.beta1)
    z = _z_sequence(x, x_final, c)
    # one oracle call on each (T, d) history
    gap = _row_norms(problem.exact_grad(z[:-1]) - problem.exact_grad(x))
    disp = np.zeros_like(gap)
    disp[1:] = _row_norms(np.diff(x, axis=0))
    allowed = L * c * disp
    # fmin, not min: a NaN slack (an overflowing displacement) is skipped
    worst = float(np.fmin.reduce((allowed - gap) / (1.0 + allowed),
                                 initial=math.inf))
    status = "pass" if worst >= -1e-9 else "fail"
    return CheckResult(name, status, float(worst),
                       f"worst normalized slack {worst:.3e}")


def check_moment_bounds(
    trace: Trace, g_inf: float | None, ) -> CheckResult:
    """Accumulator bounds ``||m||_inf <= G`` and ``||v_hat||_inf <= G^2``,
    valid while the iterates stay inside the certified box."""
    name = "moment_bounds"
    if g_inf is None:
        return CheckResult(name, "inapplicable", 0.0,
                           "problem has no gradient-bound certificate")
    if trace.diverged:
        return CheckResult(name, "inapplicable", 0.0, "trace diverged")
    if trace.box_exit is not None:
        return CheckResult(
            name, "inapplicable", 0.0,
            f"iterates left the certified box at step {trace.box_exit}",
        )
    _, _, m, vhat, _ = _dense_arrays(trace)
    m_ratio = float(np.abs(m).max()) / g_inf
    v_ratio = float(vhat.max()) / (g_inf * g_inf)
    worst = max(m_ratio, v_ratio)
    status = "pass" if worst <= 1.0 + 1e-12 else "fail"
    return CheckResult(name, status, 1.0 - worst,
                       f"m ratio {m_ratio:.3e}, vhat ratio {v_ratio:.3e}")


def check_update_energy(
    trace: Trace,
    cfg: PadamConfig,
    g_inf: float | None,
    q: float | None = None,
) -> CheckResult:
    """Cumulative scaled update energy against its closed-form budget, in
    both the momentum and the raw-gradient variants. Stated for constant
    step size."""
    name = "update_energy"
    if g_inf is None:
        return CheckResult(name, "inapplicable", 0.0,
                           "problem has no gradient-bound certificate")
    if trace.diverged:
        return CheckResult(name, "inapplicable", 0.0, "trace diverged")
    alphas = trace.lr
    if float(np.ptp(alphas)) != 0.0:
        return CheckResult(name, "inapplicable", 0.0,
                           "stated for constant step size only")
    gamma = cfg.gamma
    if gamma >= 1.0:
        return CheckResult(name, "inapplicable", 0.0,
                           "needs beta1/beta2^(2p) below 1")
    q_val = _resolve_q(cfg.p, q)
    x, g, m, vhat, _ = _dense_arrays(trace)
    steps, dim = g.shape
    alpha = float(alphas[0])
    scaled = _scaled_denominators(_inverse_powers(vhat, cfg))
    lhs_m = float(np.sum((alpha * m * scaled) ** 2))
    lhs_g = float(np.sum((alpha * g * scaled) ** 2))
    col_sum = float(np.linalg.norm(g, axis=0).sum())
    common = steps ** ((1.0 + q_val) / 2.0) * dim ** q_val * alpha * alpha \
        * g_inf ** (1.0 + q_val - 4.0 * cfg.p) \
        / (1.0 - cfg.beta2) ** (2.0 * cfg.p) * col_sum ** (1.0 - q_val)
    rhs_g = common
    rhs_m = common * (1.0 - cfg.beta1) / (1.0 - gamma)
    ratios = []
    for lhs, rhs in ((lhs_m, rhs_m), (lhs_g, rhs_g)):
        if rhs == 0.0:
            ratios.append(0.0 if lhs == 0.0 else math.inf)
        else:
            ratios.append(lhs / rhs)
    worst = max(ratios)
    status = "pass" if worst <= 1.0 + 1e-12 else "fail"
    return CheckResult(
        name, status, 1.0 - worst,
        f"momentum ratio {ratios[0]:.3e}, gradient ratio {ratios[1]:.3e}",
    )


def run_trajectory_checks(
    trace: Trace,
    problem: StochasticProblem,
    cfg: PadamConfig | None = None,
    q: float | None = None,
) -> dict[str, CheckResult]:
    """Run every per-step check against one densely recorded trace."""
    opt = trace.meta.get("optimizer")
    entry = REGISTRY.get(opt)
    if entry is None or entry.padam_config is None:
        raise ValueError(
            f"trajectory checks apply to padam-family traces, got {opt!r}"
        )
    if cfg is None:
        cfg = entry.padam_config(trace.meta["config"]["optimizer-params"])
    results = [
        check_z_identity(trace, cfg),
        check_z_step_bound(trace, cfg),
        check_smoothness_gap(trace, problem, cfg),
        check_moment_bounds(trace, problem.known_G_inf),
        check_update_energy(trace, cfg, problem.known_G_inf, q=q),
    ]
    return {r.name: r for r in results}


_SEVERITY = {"pass": 0, "inapplicable": 1, "fail": 2}


def _keep_worst(worst: dict[str, CheckResult],
                results: dict[str, CheckResult]) -> None:
    """Fold one trace's check results into ``worst``, per check: a failure
    outranks an inapplicable check, which outranks a pass, and among equal
    statuses the smaller margin wins."""
    for name, res in results.items():
        prev = worst.get(name)
        if prev is None or _SEVERITY[res.status] > _SEVERITY[prev.status] \
                or (res.status == prev.status and res.margin < prev.margin):
            worst[name] = res


# --------------------------------------------------------------------------
# end-to-end verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryReport:
    problem: str
    optimizer_params: dict
    alpha: float
    steps: int
    seeds: int
    inputs: BoundInputs
    constants: BoundConstants
    bound: float
    bound_small_p: float | None
    empirical_grad_norm_sq: float
    looseness: float
    fitted_s: float
    checks: dict[str, CheckResult]
    applicable: bool
    notes: tuple[str, ...]


def verify_bound(
    problem: StochasticProblem,
    cfg: PadamConfig,
    alpha: float,
    steps: int,
    n_seeds: int,
    seed: int = 0,
    q: float | None = None,
) -> TheoryReport:
    """Run the method, measure the left side, evaluate the right side.

    All replicas share one initial point (drawn from ``seed``) and use
    noise streams ``seed+1 .. seed+n_seeds``. The growth exponent entering
    the bound is the largest pathwise estimate across replicas, so the
    hypothesis it encodes holds on every observed stream. Divergence or a
    box exit marks the report inapplicable instead of raising.
    """
    if problem.known_L is None or problem.known_G_inf is None \
            or problem.known_f_star is None:
        raise ValueError(
            f"problem {problem.name!r} lacks the certificates "
            "(smoothness, gradient bound, optimum) this verification needs"
        )
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    spec = RunSpec(
        problem=problem,
        optimizer="padam",
        opt_params=dataclasses.asdict(cfg),
        schedule=Schedule("constant", alpha),
        steps=steps,
        seed=seed + 1,
        init_seed=seed,
        record_dense=True,
    )
    notes: list[str] = []
    applicable = True
    delta_f = None
    vhat1_parts: list[float] = []
    lhs_parts: list[float] = []
    fitted = 0.0
    agg: dict[str, CheckResult] = {}
    for k, trace in enumerate(iter_runs(spec, n_seeds)):
        if trace.diverged:
            applicable = False
            notes.append(f"replica {k} diverged")
            continue
        if trace.box_exit is not None:
            applicable = False
            notes.append(
                f"replica {k} left the certified box at step {trace.box_exit}"
            )
        x1 = trace.dense["x"][0]
        if delta_f is None:
            delta_f = problem.loss(x1) - problem.known_f_star
        raw1 = _inverse_powers(trace.dense["vhat"][0], cfg)
        if np.isinf(raw1).any():
            applicable = False
            notes.append(
                f"replica {k}: zero first-step denominator, the expectation "
                "term is undefined"
            )
        else:
            vhat1_parts.append(float(np.sum(raw1)))
        est = estimate_growth_s(trace.dense["g"], g_inf=problem.known_G_inf)
        fitted = max(fitted, est.s)
        _keep_worst(agg, run_trajectory_checks(trace, problem, cfg, q=q))
        out_rng = np.random.default_rng(seed + 777_000 + k)
        _, x_out = select_output(trace, None, out_rng)
        g_out = problem.exact_grad(x_out)
        lhs_parts.append(float(g_out @ g_out))

    if not lhs_parts or delta_f is None:
        raise HypothesisError("every replica diverged; nothing to verify")
    empirical = math.fsum(lhs_parts) / len(lhs_parts)
    vhat1_term = math.fsum(vhat1_parts) / len(vhat1_parts) if vhat1_parts else 0.0
    inputs = BoundInputs(
        g_inf=problem.known_G_inf,
        smoothness=problem.known_L,
        delta_f=max(delta_f, 0.0),
        dim=problem.dim,
        steps=steps,
        alpha=alpha,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        p=cfg.p,
        vhat1_term=vhat1_term,
        s=fitted,
        q=q,
    )
    constants = bound_constants(inputs)
    bound = bound_value(inputs)
    small_p = bound_q0(inputs) if cfg.p <= 0.25 else None
    looseness = empirical / bound if bound > 0.0 else math.inf
    if looseness < 1e-4:
        notes.append(
            f"bound is loose: measured/bound = {looseness:.3e}"
        )
    if any(r.status == "fail" for r in agg.values()):
        applicable = False
        notes.append("a trajectory check failed")
    return TheoryReport(
        problem=problem.name,
        optimizer_params=dataclasses.asdict(cfg),
        alpha=alpha,
        steps=steps,
        seeds=n_seeds,
        inputs=inputs,
        constants=constants,
        bound=bound,
        bound_small_p=small_p,
        empirical_grad_norm_sq=empirical,
        looseness=looseness,
        fitted_s=fitted,
        checks=agg,
        applicable=applicable,
        notes=tuple(notes),
    )


def _check_records(checks: dict[str, CheckResult]) -> dict:
    """Each check as the ``{status, margin, detail}`` record of
    ``report.json``."""
    return {name: {"status": r.status, "margin": float(r.margin),
                   "detail": r.detail}
            for name, r in checks.items()}


def report_to_dict(report: TheoryReport) -> dict:
    """Flatten a report into JSON-serializable primitives."""
    return {
        "problem": report.problem,
        "optimizer-params": dict(report.optimizer_params),
        "alpha": float(report.alpha),
        "steps": int(report.steps),
        "seeds": int(report.seeds),
        "g_inf": float(report.inputs.g_inf),
        "smoothness": float(report.inputs.smoothness),
        "delta_f": float(report.inputs.delta_f),
        "vhat1_term": float(report.inputs.vhat1_term),
        "s": float(report.inputs.s),
        "q": float(report.constants.q),
        "gamma": float(report.constants.gamma),
        "m1": float(report.constants.m1),
        "m2": float(report.constants.m2),
        "m3": float(report.constants.m3),
        "bound": float(report.bound),
        "bound_small_p": (None if report.bound_small_p is None
                          else float(report.bound_small_p)),
        "empirical_grad_norm_sq": float(report.empirical_grad_norm_sq),
        "looseness": float(report.looseness),
        "fitted_s": float(report.fitted_s),
        "applicable": bool(report.applicable),
        "checks": _check_records(report.checks),
        "notes": list(report.notes),
    }
