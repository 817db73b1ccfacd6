"""Convergence-bound constants, trajectory checks, and end-to-end verification.

The guarantee implemented here: running the partially adaptive method with
constant step size on an L-smooth objective whose stochastic gradients stay
bounded by ``G_inf`` in sup norm, the expected squared gradient norm at a
randomly selected iterate is at most

    m1 / (T a) + m2 d / T + m3 a d G_inf^(1-q) / T^((1-q)(1/2-s))

where ``s`` is the cumulative gradient-growth exponent, ``q`` is a free
interpolation knob in ``[max(0, 4p-1), 1]``, and the constants require the
momentum-to-adaptivity ratio ``gamma = beta1 / beta2**(2p)`` to be below
one. ``run_trajectory_checks`` tests the per-step identities and
inequalities behind the proof pathwise on a recorded trace;
``verify_bound`` runs the whole pipeline and compares the empirical left
side against the bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .harness import (RunSpec, Schedule, Trace, _blocks, _run_block,
                      select_output_indices)
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
    "check_smoothness_gap",
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
    degenerate: bool


def _growth_estimate(sq_sum: np.ndarray, steps: int,
                     g_inf: float) -> GrowthEstimate:
    """``estimate_growth_s`` of a stream of ``steps`` gradients from its
    per-coordinate sum of ``g*g``."""
    final_max = float(np.sqrt(sq_sum).max())
    if final_max == 0.0:
        return GrowthEstimate(s=0.0, degenerate=True)
    raw = math.log(final_max / g_inf) / math.log(steps)
    return GrowthEstimate(s=min(0.5, max(0.0, raw)), degenerate=False)


def estimate_growth_s(
    grads: np.ndarray, g_inf: float | None = None
) -> GrowthEstimate:
    """Estimate the cumulative gradient-growth exponent from a gradient
    stream of shape ``(T, d)``.

    The point estimate is the smallest ``s`` with
    ``max_i ||g_{1:T,i}||_2 <= g_inf * T**s`` pathwise, clamped to
    ``[0, 1/2]``. An all-zero stream is flagged degenerate and reports
    ``s = 0``. The largest ``|g|`` stands in for ``g_inf`` when that is
    ``None``.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] < 2:
        raise ValueError("need a (T, d) gradient stream with T >= 2")
    if g_inf is None:
        g_inf = float(np.abs(grads).max())
    # cumsum adds step by step, as the fold does: the same bits
    return _growth_estimate(np.cumsum(grads * grads, axis=0)[-1],
                            len(grads), g_inf)


# --------------------------------------------------------------------------
# trajectory checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inapplicable"
    margin: float
    detail: str = ""


def _inverse_powers(vhat: np.ndarray, cfg: PadamConfig) -> np.ndarray:
    """Per-coordinate ``(v_hat + eps)**-p``: ones at ``p = 0``, zero bases
    included; for ``p > 0``, ``inf`` exactly where the base is 0."""
    base = vhat + cfg.epsilon
    with np.errstate(divide="ignore"):
        return base ** -cfg.p


def _scaled_denominators(raw: np.ndarray) -> np.ndarray:
    """``raw`` with dead (``inf``) coordinates zeroed, like the step rule."""
    return np.where(raw == np.inf, 0.0, raw)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Each row's norm, bitwise ``np.linalg.norm(row)`` (``norm(axis=1)``
    sums pairwise instead)."""
    return np.sqrt(_rowdot(a, a))


def _norms(a: np.ndarray) -> np.ndarray:
    """Norms along the last axis, bitwise ``np.linalg.norm(a, axis=-1)``,
    without its argument handling."""
    return np.sqrt((a * a).sum(axis=-1))


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, "inapplicable", 0.0, why)


def _with_prev(prev: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a`` shifted one step later along axis 1, the carried row ``prev``
    in front."""
    return np.concatenate([prev, a[:, :-1]], axis=1)


class _Fold:
    """The five trajectory checks, the sums behind ``estimate_growth_s``
    and the first ``v_hat`` of ``rows`` padam-family runs on ``problem``,
    folded a window at a time as ``harness._run_block`` hands the windows
    over. ``add`` takes the window's iterates and the one after, ``(S, n +
    1, d)``, then its ``g``, ``m`` and ``vhat``, ``(S, n, d)``, and lrs,
    ``(S, n)``. The fold carries one previous row, each check's running
    worst, and the update energies and ``g*g`` per coordinate, summed
    step by step; every split into windows gives the same bits.
    ``run_trajectory_checks`` and ``check_smoothness_gap`` run it over a
    dense trace as one window."""

    def __init__(self, cfg: PadamConfig, rows: int,
                 problem: StochasticProblem):
        self.cfg, self.problem = cfg, problem
        # the last step's x, m, update and effective lr; before the first
        # window x_0 = x_1, m_0 = update_0 = 0 and eff_0 = eff_1
        self.prev = None
        self.vhat1 = None
        self.sq_sum = np.zeros((rows, problem.dim))
        self.resid = np.full(rows, -math.inf)
        self.slack = np.full(rows, math.inf)
        self.monotone = np.ones(rows, dtype=bool)
        self.smooth = np.full(rows, math.inf)
        self.m_max = np.full(rows, -math.inf)
        self.v_max = np.full(rows, -math.inf)
        self.energy = np.zeros((2, rows))  # momentum and gradient variants

    def add(self, x, g, m, vhat, lr) -> None:
        n = g.shape[1]
        self.m_max = np.maximum(self.m_max, np.abs(m).max(axis=(1, 2)))
        self.v_max = np.maximum(self.v_max, vhat.max(axis=(1, 2)))
        sq = g * g
        sq[:, 0] += self.sq_sum
        self.sq_sum = np.cumsum(sq, axis=1)[:, -1].copy()
        cfg = self.cfg
        c = cfg.beta1 / (1.0 - cfg.beta1)
        alpha = lr[..., None]
        raw = _inverse_powers(vhat, cfg)
        scaled = _scaled_denominators(raw)
        eff = alpha * raw
        update = alpha * m * scaled
        g_term = alpha * g * scaled
        if self.prev is None:
            self.vhat1 = vhat[:, 0].copy()
            zero = np.zeros_like(m[:, :1])
            self.prev = {"x": x[:, :1], "m": zero, "update": zero,
                         "eff": eff[:, :1]}
        prev = self.prev
        back = _with_prev(prev["x"], x)  # the iterate before each of x's
        z = x + c * (x - back)  # momentum-corrected z_t, t = first..n+1
        step = z[:, 1:] - z[:, :-1]
        moved = x[:, :-1] - back[:, :-1]  # x_t - x_{t-1}

        # z_identity: the exact increment of z
        rhs = c * (_with_prev(prev["update"], update)
                   - alpha * _with_prev(prev["m"], m) * scaled) - g_term
        resid = np.abs(step - rhs).max(axis=-1)
        scale = 1.0 + np.abs(step).max(axis=-1)
        self.resid = np.maximum(self.resid, (resid / scale).max(axis=-1))

        # z_step_bound; monotonicity uses the raw power, where a zero
        # denominator is +inf: a dead coordinate waking up is a decrease
        ok = eff <= _with_prev(prev["eff"], eff) * (1.0 + 1e-12) + 1e-300
        self.monotone &= ok.all(axis=(1, 2))
        lhs = _norms(step)
        rhs = _norms(g_term) + c * _norms(moved)
        self.slack = np.minimum(self.slack,
                                ((rhs - lhs) / (1.0 + rhs)).min(axis=-1))

        L = self.problem.known_L
        if L is not None:  # smoothness_gap, one oracle call per history
            grad, rows, d = self.problem.exact_grad, len(x), x.shape[-1]
            gap = _row_norms(grad(z[:, :-1].reshape(-1, d))
                             - grad(x[:, :-1].reshape(-1, d)))
            allowed = L * c * _row_norms(moved.reshape(-1, d))
            # fmin, not min: a NaN slack (an overflowing displacement) is
            # skipped
            self.smooth = np.fmin(self.smooth, np.fmin.reduce(
                ((allowed - gap) / (1.0 + allowed)).reshape(rows, n),
                axis=-1, initial=math.inf))

        for k, a in enumerate((update, g_term)):  # update_energy
            e = (a * a).sum(axis=-1)
            e[:, 0] += self.energy[k]
            self.energy[k] = np.cumsum(e, axis=1)[:, -1]
        self.prev = {"x": x[:, -2:-1].copy(), "m": m[:, -1:].copy(),
                     "update": update[:, -1:].copy(),
                     "eff": eff[:, -1:].copy()}

    def z_identity(self, j: int, trace: Trace) -> CheckResult:
        name = "z_identity"
        if trace.diverged:
            return _skip(name, "trace diverged")
        margin = float(self.resid[j])
        status = "pass" if margin <= 1e-10 else "fail"
        return CheckResult(name, status, margin,
                           f"max normalized residual {margin:.3e}")

    def z_step_bound(self, j: int, trace: Trace) -> CheckResult:
        name = "z_step_bound"
        if trace.diverged:
            return _skip(name, "trace diverged")
        slack = self.slack[j]
        if not self.monotone[j]:
            # every Schedule is nonincreasing, so v_hat fell
            return CheckResult(name, "fail", float(slack),
                               "effective lr rose: v_hat is not a running "
                               "maximum")
        status = "pass" if slack >= -1e-9 else "fail"
        return CheckResult(name, status, float(slack),
                           f"worst normalized slack {slack:.3e}")

    def smoothness_gap(self, j: int, trace: Trace) -> CheckResult:
        name = "smoothness_gap"
        if self.problem.known_L is None:
            return _skip(name, "problem has no smoothness certificate")
        if trace.diverged:
            return _skip(name, "trace diverged")
        worst = float(self.smooth[j])
        status = "pass" if worst >= -1e-9 else "fail"
        return CheckResult(name, status, worst,
                           f"worst normalized slack {worst:.3e}")

    def moment_bounds(self, j: int, trace: Trace) -> CheckResult:
        name = "moment_bounds"
        g_inf = self.problem.known_G_inf
        if g_inf is None:
            return _skip(name, "problem has no gradient-bound certificate")
        if trace.diverged:
            return _skip(name, "trace diverged")
        if trace.box_exit is not None:
            return _skip(name, "iterates left the certified box at step "
                         f"{trace.box_exit}")
        m_ratio = float(self.m_max[j]) / g_inf
        v_ratio = float(self.v_max[j]) / (g_inf * g_inf)
        worst = max(m_ratio, v_ratio)
        status = "pass" if worst <= 1.0 + 1e-12 else "fail"
        return CheckResult(name, status, 1.0 - worst,
                           f"m ratio {m_ratio:.3e}, vhat ratio {v_ratio:.3e}")

    def update_energy(self, j: int, trace: Trace) -> CheckResult:
        name = "update_energy"
        g_inf = self.problem.known_G_inf
        if g_inf is None:
            return _skip(name, "problem has no gradient-bound certificate")
        if trace.diverged:
            return _skip(name, "trace diverged")
        alphas = trace.lr
        if float(np.ptp(alphas)) != 0.0:
            return _skip(name, "stated for constant step size only")
        cfg = self.cfg
        gamma = cfg.gamma
        if gamma >= 1.0:
            return _skip(name, "needs beta1/beta2^(2p) below 1")
        q_val = _resolve_q(cfg.p, None)
        col_norms = np.sqrt(self.sq_sum[j])
        steps, dim = len(alphas), len(col_norms)
        alpha = float(alphas[0])
        col_sum = float(col_norms.sum())
        common = steps ** ((1.0 + q_val) / 2.0) * dim ** q_val * alpha \
            * alpha * g_inf ** (1.0 + q_val - 4.0 * cfg.p) \
            / (1.0 - cfg.beta2) ** (2.0 * cfg.p) * col_sum ** (1.0 - q_val)
        rhs_g = common
        rhs_m = common * (1.0 - cfg.beta1) / (1.0 - gamma)
        ratios = []
        for lhs, rhs in zip(self.energy[:, j].tolist(), (rhs_m, rhs_g)):
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

    def results(self, j: int, trace: Trace) -> dict[str, CheckResult]:
        """Row ``j``'s five verdicts; ``trace`` is its trace."""
        return {r.name: r for r in (
            self.z_identity(j, trace),
            self.z_step_bound(j, trace),
            self.smoothness_gap(j, trace),
            self.moment_bounds(j, trace),
            self.update_energy(j, trace),
        )}


def _folded_runs(spec: RunSpec, n_seeds: int, cfg: PadamConfig):
    """``(trace, fold, j)`` for the seeds ``repeat_runs`` gives, in order:
    each block runs with a ``_Fold`` and records no dense histories; row
    ``j`` of ``fold`` holds the trace's checks."""
    for rows in _blocks(spec, n_seeds, folded=True):
        fold = _Fold(cfg, len(rows), spec.problem)
        for j, trace in enumerate(_run_block(rows, fold)):
            yield trace, fold, j


def _one_window(trace: Trace, cfg: PadamConfig,
                problem: StochasticProblem) -> _Fold:
    """The fold over a dense trace, as one window. A diverged trace needs
    no numbers: every check reads it as inapplicable."""
    fold = _Fold(cfg, 1, problem)
    if not trace.diverged:
        if trace.dense is None or "x_final" not in trace.dense:
            raise ValueError(
                "this check needs a trace recorded with dense=True")
        d = trace.dense
        fold.add(np.vstack([d["x"], d["x_final"]])[None], d["g"][None],
                 d["m"][None], d["vhat"][None], trace.lr[None])
    return fold


def check_smoothness_gap(
    trace: Trace,
    problem: StochasticProblem,
    cfg: PadamConfig,
) -> CheckResult:
    """The gradient gap between the corrected and the raw iterate is
    controlled by smoothness times the last displacement."""
    return _one_window(trace, cfg, problem).smoothness_gap(0, trace)


def run_trajectory_checks(
    trace: Trace,
    problem: StochasticProblem,
    cfg: PadamConfig | None = None,
) -> dict[str, CheckResult]:
    """Run the five per-step checks against one densely recorded trace:
    the exact increment of the momentum-corrected sequence and its bound,
    the smoothness gap, the moment bounds inside the certified box, and
    the update energy budget at constant step size."""
    opt = trace.meta.get("optimizer")
    entry = REGISTRY.get(opt)
    if entry is None or entry.padam_config is None:
        raise ValueError(
            f"trajectory checks apply to padam-family traces, got {opt!r}"
        )
    if cfg is None:
        params = trace.meta.get("config", {}).get("optimizer-params")
        if params is None:  # a CLI sidecar records flat settings
            raise ValueError("the trace records no optimizer-params; "
                             "pass cfg")
        cfg = entry.padam_config(params)
    return _one_window(trace, cfg, problem).results(0, trace)


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
) -> TheoryReport:
    """Run the method, measure the left side, evaluate the right side.

    All replicas share one initial point (drawn from ``seed``) and use
    noise streams ``seed+1 .. seed+n_seeds``. The growth exponent entering
    the bound is the largest pathwise estimate across replicas, so the
    hypothesis it encodes holds on every observed stream. The left side
    and ``f(x_1)`` are read from the recorded ``grad_norm_sq`` and ``loss``
    columns. The trajectory checks, the growth exponents and ``v_hat_1``
    are folded window by window while the replicas run, so no dense
    histories are kept. Divergence or a box exit marks the report
    inapplicable instead of raising.
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
    )
    notes: list[str] = []
    applicable = True
    delta_f = None
    vhat1_parts: list[float] = []
    lhs_parts: list[float] = []
    fitted = 0.0
    agg: dict[str, CheckResult] = {}
    for k, (trace, fold, j) in enumerate(_folded_runs(spec, n_seeds, cfg)):
        if trace.diverged:
            applicable = False
            notes.append(f"replica {k} diverged")
            continue
        if trace.box_exit is not None:
            applicable = False
            notes.append(
                f"replica {k} left the certified box at step {trace.box_exit}"
            )
        if delta_f is None:
            delta_f = float(trace.loss[0]) - problem.known_f_star
        raw1 = _inverse_powers(fold.vhat1[j], cfg)
        if np.isinf(raw1).any():
            applicable = False
            notes.append(
                f"replica {k}: zero first-step denominator, the expectation "
                "term is undefined"
            )
        else:
            vhat1_parts.append(float(np.sum(raw1)))
        fitted = max(fitted, _growth_estimate(
            fold.sq_sum[j], steps, problem.known_G_inf).s)
        _keep_worst(agg, fold.results(j, trace))
        out_rng = np.random.default_rng(seed + 777_000 + k)
        t_out = select_output_indices(trace, None, out_rng, 1)[0]
        lhs_parts.append(float(trace.grad_norm_sq[t_out - 1]))

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
