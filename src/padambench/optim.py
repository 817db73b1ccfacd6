"""Core optimizer step rules.

Every public step (``padam_step`` and the others) is a pure function from
``(state, x, gradient, lr, ...)`` to ``(new_state, StepOutcome)``: it
mutates none of its inputs, and callers thread states through their own
loop. All arithmetic is float64. The arithmetic of each rule lives in one
kernel that writes the new moments into the arrays it is handed; a public
step hands it fresh ones. The stepper that ``REGISTRY[name].bind`` returns,
which the harness runs, hands it the given state's own arrays instead: it
updates that state in place and allocates only the new iterate and one
temporary, bitwise the public step otherwise. A step that raises
``NumericError`` leaves the state it was given untouched, in place or not:
only padam and amsgrad raise, and only at ``epsilon = 0``, where their bound
steppers write fresh arrays.

``x``, the gradient and the state may also be ``(S, d)`` blocks of ``S``
independent iterates. Every rule is elementwise, so row ``k`` of the result
is bitwise what the rule gives on row ``k`` alone; the effective-lr extrema
are then lists with one entry per row.

The central rule is the partially adaptive step: the update divides momentum
by ``(v_hat + eps)**p`` where ``v_hat`` is the running elementwise maximum of
the second-moment average and ``p`` lies in ``[0, 1/2]``. The two endpoints
recover familiar methods, which the reference baselines here implement
independently so the reductions can be cross-checked:

* ``p = 1/2`` is the max-stabilized adaptive method (``amsgrad_step``),
* ``p = 0`` is heavy-ball momentum SGD with a rescaled learning rate.

There is no bias correction anywhere in this family.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DimensionError",
    "NumericError",
    "OptState",
    "PadamConfig",
    "StepOutcome",
    "adagrad_step",
    "adam_step",
    "adamw_step",
    "amsgrad_step",
    "init_state",
    "padam_step",
    "sgd_momentum_step",
]


class DimensionError(ValueError):
    """Raised when per-coordinate buffers and inputs disagree in shape."""


class NumericError(ArithmeticError):
    """Raised on nonfinite inputs or an unresolvable zero denominator;
    ``rows`` lists the ``(S, d)`` block rows at fault, where known."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class PadamConfig:
    """Hyperparameters of the partially adaptive step.

    ``epsilon`` sits inside the power: the denominator is
    ``(v_hat + epsilon)**p``. ``epsilon = 0`` is permitted; in that case a
    coordinate with zero ``v_hat`` necessarily has zero momentum and its
    update is taken to be zero.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    p: float = 0.125
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 < self.beta2 <= 1.0:
            raise ValueError(f"beta2 must be in (0, 1], got {self.beta2}")
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"p must be in [0, 1/2], got {self.p}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")

    @property
    def gamma(self) -> float:
        """Momentum-to-adaptivity ratio ``beta1 / beta2**(2p)``.

        The convergence guarantees need this below one.
        """
        return self.beta1 / self.beta2 ** (2.0 * self.p)


@dataclass(frozen=True)
class OptState:
    """Per-coordinate accumulators shared by all step rules.

    ``m`` holds first-moment or heavy-ball momentum, ``v`` the second-moment
    average, ``v_hat`` its running maximum (used only by the max-stabilized
    rules), and ``t`` counts completed steps.
    """

    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    t: int = 0


class StepOutcome(NamedTuple):
    new_x: np.ndarray
    effective_lr_min: float
    effective_lr_max: float


def init_state(dim: int) -> OptState:
    """Return the all-zero state for ``dim`` coordinates."""
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    zeros = np.zeros(dim, dtype=np.float64)
    return OptState(m=zeros, v=zeros.copy(), v_hat=zeros.copy(), t=0)


def _prepare(state: OptState, x: np.ndarray, g: np.ndarray, lr: float):
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise DimensionError(f"x has shape {x.shape}, gradient {g.shape}")
    if state.m.shape != x.shape:
        raise DimensionError(
            f"state is {state.m.shape}, inputs are {x.shape}"
        )
    if not np.isfinite(g).all():
        raise NumericError("gradient contains nonfinite entries")
    if lr < 0.0:
        raise ValueError(f"learning rate must be nonnegative, got {lr}")
    return x, g


def _lr_range(lr: float, denom: np.ndarray):
    """``lr`` over the largest and the smallest denominator, ``inf`` where
    that is zero (floats for one iterate, per-row lists for a ``(S, d)``
    block), and whether every smallest denominator is ``> 0``."""
    if denom.ndim == 1:
        dmin = float(denom.min())
        dmax = float(denom.max())
        lo = lr / dmax if dmax > 0.0 else math.inf
        hi = lr / dmin if dmin > 0.0 else math.inf
        return lo, hi, dmin > 0.0
    mins = denom.min(axis=-1).tolist()
    return ([lr / d if d > 0.0 else math.inf
             for d in denom.max(axis=-1).tolist()],
            [lr / d if d > 0.0 else math.inf for d in mins],
            all(d > 0.0 for d in mins))


def _guarded_update(lr: float, m: np.ndarray, denom: np.ndarray,
                    strict: bool):
    """``lr * m / denom`` in a new array, zero where ``denom`` is zero, and
    ``_lr_range``'s extremes, whose row minima are the zero test; with
    ``strict``, zero meeting nonzero ``m`` raises ``NumericError``, naming
    a block's rows at fault, instead. Under
    ``epsilon = 0`` that happens on a coordinate whose every gradient so
    far is below roughly 1e-161 in magnitude (at ``b2 = 0.999``), not all
    zero: ``(1-b2)*g*g`` underflows to zero while ``(1-b1)*g`` does not."""
    lo, hi, positive = _lr_range(lr, denom)
    if positive:  # else the masked division, equal where nothing is zero
        update = lr * m
        update /= denom
        return update, lo, hi
    dead = denom == 0.0
    if strict:
        bad = np.argwhere(dead & (m != 0.0))
        if bad.size:
            *row, col = bad[0]  # a block names its row too
            at = f"row {row[0]}, " if row else ""
            raise NumericError(f"zero denominator with nonzero momentum at "
                               f"{at}coordinate {col}",
                               np.unique(bad[:, 0]).tolist() if row else ())
    return np.where(dead, 0.0, lr * m / np.where(dead, 1.0, denom)), lo, hi


# The kernels below hold each rule's arithmetic. A kernel reads ``state``,
# writes the rule's new moments into ``out``, the arrays ``(m, v, v_hat)``
# (``state``'s own, to step in place, or new ones; ``None`` where the rule
# keeps the old), and returns the new state and the StepOutcome. Beyond the
# new iterate it allocates at most one temporary at a time. The public steps
# allocate the new moments before the kernel runs: left to the kernel's
# ufuncs, after its temporary, they made glibc trim and regrow its heap on
# every step at d = 1e5 (277-379 minor faults a step, the state threaded
# through a loop).


def _moments(state, out, g, b1, b2):
    """``m = b1*m + (1-b1)*g`` and ``v = b2*v + (1-b2)*g*g``, written into
    ``out``, and the temporary, free for the caller's denominator."""
    tmp = (1.0 - b1) * g
    m = np.multiply(state.m, b1, out=out[0])
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v = np.multiply(state.v, b2, out=out[1])
    v += tmp
    return m, v, tmp


def _padam(state, out, x, g, lr, cfg):
    m, v, tmp = _moments(state, out, g, cfg.beta1, cfg.beta2)
    v_hat = np.maximum(state.v_hat, v, out=out[2])
    np.add(v_hat, cfg.epsilon, out=tmp)
    tmp **= cfg.p  # the power operator, which numpy maps to sqrt at 1/2
    update, lo, hi = _guarded_update(lr, m, tmp, strict=True)
    return (OptState(m, v, v_hat, state.t + 1),
            StepOutcome(np.subtract(x, update, out=update), lo, hi))


def _amsgrad(state, out, x, g, lr, beta1, beta2, epsilon):
    # written out, not _moments: the independent p = 1/2 reference
    tmp = (1.0 - beta1) * g
    m = np.multiply(state.m, beta1, out=out[0])
    m += tmp
    np.multiply(g, 1.0 - beta2, out=tmp)
    tmp *= g
    v = np.multiply(state.v, beta2, out=out[1])
    v += tmp
    v_hat = np.maximum(state.v_hat, v, out=out[2])
    np.add(v_hat, epsilon, out=tmp)
    np.sqrt(tmp, out=tmp)
    update, lo, hi = _guarded_update(lr, m, tmp, strict=True)
    return (OptState(m, v, v_hat, state.t + 1),
            StepOutcome(np.subtract(x, update, out=update), lo, hi))


def _adam(state, out, x, g, lr, beta1, beta2, epsilon):
    m, v, tmp = _moments(state, out, g, beta1, beta2)
    np.add(v, epsilon, out=tmp)
    np.sqrt(tmp, out=tmp)
    update, lo, hi = _guarded_update(lr, m, tmp, strict=False)
    return (OptState(m, v, state.v_hat, state.t + 1),
            StepOutcome(np.subtract(x, update, out=update), lo, hi))


def _adamw(state, out, x, g, lr, beta1, beta2, epsilon, weight_decay):
    new_state, outcome = _adam(state, out, x, g, lr, beta1, beta2, epsilon)
    new_x = outcome.new_x
    new_x -= lr * weight_decay * x  # the pre-step iterate
    return new_state, outcome


def _sgdm(state, out, x, g, lr, mu):
    b = np.multiply(state.m, mu, out=out[0])
    b += g
    update = lr * b
    return (OptState(b, state.v, state.v_hat, state.t + 1),
            StepOutcome(np.subtract(x, update, out=update), lr, lr))


def _adagrad(state, out, x, g, lr, epsilon):
    t = state.t + 1
    v = np.multiply(state.v, t - 1, out=out[1])
    tmp = g * g
    v += tmp
    v /= t
    np.add(v, epsilon, out=tmp)
    np.sqrt(tmp, out=tmp)
    update, lo, hi = _guarded_update(lr / math.sqrt(t), g, tmp, strict=False)
    return (OptState(state.m, v, state.v_hat, t),
            StepOutcome(np.subtract(x, update, out=update), lo, hi))


def padam_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    cfg: PadamConfig,
) -> tuple[OptState, StepOutcome]:
    """One partially adaptive update.

    Computes ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``, takes the
    elementwise maximum into ``v_hat`` and moves against
    ``lr * m / (v_hat + eps)**p``. Raises ``NumericError`` when a zero
    denominator meets nonzero momentum. With ``eps > 0`` that cannot happen
    on states this module produced; with ``eps = 0`` it happens when
    ``(1-b2)*g*g`` underflows to zero, which needs ``|g|`` below roughly
    1e-161 (at ``b2 = 0.999``) on a coordinate whose second moment is still
    zero.
    """
    x, g = _prepare(state, x, g, lr)
    out = (np.empty(x.shape), np.empty(x.shape), np.empty(x.shape))
    return _padam(state, out, x, g, lr, cfg)


def amsgrad_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> tuple[OptState, StepOutcome]:
    """Max-stabilized adaptive step, written against its own denominator.

    Deliberately not a wrapper around ``padam_step``: using ``sqrt`` here
    keeps this function an independent reference for the ``p = 1/2``
    reduction tests.
    """
    x, g = _prepare(state, x, g, lr)
    out = (np.empty(x.shape), np.empty(x.shape), np.empty(x.shape))
    return _amsgrad(state, out, x, g, lr, beta1, beta2, epsilon)


def adam_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> tuple[OptState, StepOutcome]:
    """Plain adaptive step without the running maximum or bias correction.

    ``v_hat`` is carried through untouched so the state layout stays uniform
    across optimizers.
    """
    x, g = _prepare(state, x, g, lr)
    out = (np.empty(x.shape), np.empty(x.shape), None)
    return _adam(state, out, x, g, lr, beta1, beta2, epsilon)


def _check_weight_decay(weight_decay: float) -> None:
    if weight_decay < 0.0:
        raise ValueError(f"weight decay must be nonnegative, got {weight_decay}")


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {mu}")


def adamw_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    epsilon: float,
    weight_decay: float,
) -> tuple[OptState, StepOutcome]:
    """Adaptive step plus decoupled weight decay on the pre-step iterate."""
    _check_weight_decay(weight_decay)
    x, g = _prepare(state, x, g, lr)
    out = (np.empty(x.shape), np.empty(x.shape), None)
    return _adamw(state, out, x, g, lr, beta1, beta2, epsilon, weight_decay)


def sgd_momentum_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    mu: float,
) -> tuple[OptState, StepOutcome]:
    """Heavy-ball momentum: ``b = mu*b + g``, move against ``lr * b``.

    The momentum buffer lives in the ``m`` slot; ``v`` and ``v_hat`` pass
    through untouched.
    """
    _check_mu(mu)
    x, g = _prepare(state, x, g, lr)
    return _sgdm(state, (np.empty(x.shape), None, None), x, g, lr, mu)


def adagrad_step(
    state: OptState,
    x: np.ndarray,
    g: np.ndarray,
    lr: float,
    epsilon: float = 1e-8,
) -> tuple[OptState, StepOutcome]:
    """Running-average adagrad.

    ``v`` holds the arithmetic mean of squared gradients over the first
    ``t`` steps and the update is ``(lr / sqrt(t)) * g / sqrt(v + eps)``.
    A zero denominator only occurs with ``epsilon = 0`` on coordinates whose
    gradients were all zero, where the update is zero as well.
    """
    x, g = _prepare(state, x, g, lr)
    return _adagrad(state, (None, np.empty(x.shape), None), x, g, lr, epsilon)


def _in_place(kernel, fresh: bool = False, **params) -> Callable:
    """The stepper ``(state, x, g, lr)`` that ``REGISTRY`` binds:
    ``kernel`` writing the new moments over ``state``'s own arrays, which
    the harness owns, and returning them with the new ``t``. It skips
    ``_prepare``'s checks, which the harness has made or the oracles' block
    contract promises: equal shapes, a finite gradient, a schedule's
    positive ``lr``. A step that may raise ``NumericError`` (``fresh``: a
    strict rule at ``epsilon = 0``) writes fresh arrays instead, so that a
    raise leaves ``state`` as given."""
    def step(state, x, g, lr):
        # float64 first: NEP 50 would round a float32 gradient otherwise
        x = np.asarray(x, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        out = ((np.empty(x.shape), np.empty(x.shape), np.empty(x.shape))
               if fresh else (state.m, state.v, state.v_hat))
        return kernel(state, out, x, g, lr, **params)
    return step


@dataclass(frozen=True)
class OptimizerEntry:
    """What the harness, the CLI and the theory checks know of an optimizer.

    ``bind`` turns resolved parameters into a stepper ``(state, x, g, lr)``
    that may update ``state``'s arrays in place (``_in_place``);
    ``vhat_field`` feeds the trace's ``vhat_*`` columns; ``compare_lr`` is
    ``compare``'s default base rate; ``padam_config`` maps parameters into
    the partially adaptive family (``None`` outside it). A parameter's CLI
    flag is its kebab-case name unless ``flag_names`` says otherwise.
    """

    bind: Callable[[dict], Callable]
    defaults: dict
    vhat_field: str
    compare_lr: float
    padam_config: Callable[[dict], PadamConfig] | None = None
    flag_names: dict = field(default_factory=dict)

    @property
    def flags(self) -> dict:
        """Parameter name -> CLI flag, in ``defaults`` order."""
        return {k: self.flag_names.get(k, k.replace("_", "-"))
                for k in self.defaults}


_PADAM_DEFAULTS = asdict(PadamConfig())
_ADAPTIVE_DEFAULTS = {k: v for k, v in _PADAM_DEFAULTS.items() if k != "p"}


def _checked(kw: dict) -> dict:
    """``kw``, once ``PadamConfig`` accepts the betas and epsilon in it and
    its momentum and weight decay pass their step rule's own checks."""
    PadamConfig(**{k: v for k, v in kw.items() if k in _ADAPTIVE_DEFAULTS})
    if "mu" in kw:
        _check_mu(kw["mu"])
    if "weight_decay" in kw:
        _check_weight_decay(kw["weight_decay"])
    return kw


# the single place to add an optimizer; order is the public OPTIMIZERS order
REGISTRY: dict[str, OptimizerEntry] = {
    "padam": OptimizerEntry(
        bind=lambda kw: _in_place(_padam, kw["epsilon"] == 0.0,
                                  cfg=PadamConfig(**kw)),
        defaults=_PADAM_DEFAULTS, vhat_field="v_hat", compare_lr=0.1,
        padam_config=lambda kw: PadamConfig(**kw)),
    "adam": OptimizerEntry(
        bind=lambda kw: _in_place(_adam, **_checked(kw)),
        defaults=_ADAPTIVE_DEFAULTS, vhat_field="v", compare_lr=0.001),
    "amsgrad": OptimizerEntry(
        bind=lambda kw: _in_place(_amsgrad, kw["epsilon"] == 0.0,
                                  **_checked(kw)),
        defaults=_ADAPTIVE_DEFAULTS, vhat_field="v_hat", compare_lr=0.001,
        padam_config=lambda kw: PadamConfig(p=0.5, **kw)),
    "adamw": OptimizerEntry(
        bind=lambda kw: _in_place(_adamw, **_checked(kw)),
        defaults={**_ADAPTIVE_DEFAULTS, "weight_decay": 0.01},
        vhat_field="v", compare_lr=0.001),
    "sgdm": OptimizerEntry(
        bind=lambda kw: _in_place(_sgdm, **_checked(kw)),
        defaults={"mu": 0.9}, vhat_field="v", compare_lr=0.1,
        flag_names={"mu": "momentum"}),
    "adagrad": OptimizerEntry(
        bind=lambda kw: _in_place(_adagrad, **_checked(kw)),
        defaults={"epsilon": 1e-8}, vhat_field="v", compare_lr=0.01),
}
