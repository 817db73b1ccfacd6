"""Synthetic stochastic optimization problems with certified constants.

A problem bundles a deterministic objective, its analytic gradient, a
stochastic oracle driven by replayable draws, and whatever smoothness or
gradient-bound certificates it can honestly offer. Draws are produced by
``sample_xi(rng, t)`` so a run can be reproduced exactly from a seed; the
step index ``t`` lets a problem schedule its own noise process.

Certificates (``known_L``, ``known_G_inf``, ``known_f_star``) are ``None``
when no closed form is available; downstream verification refuses to run on
uncertified problems rather than guessing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "StochasticProblem",
    "finite_diff_grad",
    "logistic_newton_optimum",
    "make_logistic",
    "make_mlp",
    "make_quadratic",
    "make_rosenbrock",
    "make_sparse_growth",
]

NOISE_CLIP = 3.0  # gaussian gradient noise is truncated at +/- this many sd


@dataclass(frozen=True)
class StochasticProblem:
    """A stochastic objective with optional analytic certificates.

    ``known_G_inf`` bounds the sup norm of every stochastic gradient drawn
    inside the centered box of half-width ``box``; ``known_L`` bounds the
    smoothness of the deterministic objective; ``known_f_star`` is its
    infimum. ``start`` overrides the harness's random initial point.

    Oracles must be pure: the same arguments give the same result, in any
    order of calls. At each recorded point the harness asks for
    ``exact_grad`` before ``loss``, so an oracle may keep the loss its
    gradient pass computed and return it from the ``loss`` call that
    follows.
    """

    name: str
    dim: int
    loss: Callable[[np.ndarray], float]
    exact_grad: Callable[[np.ndarray], np.ndarray]
    stoch_loss: Callable[[np.ndarray, Any], float]
    stoch_grad: Callable[[np.ndarray, Any], np.ndarray]
    sample_xi: Callable[[np.random.Generator, int], Any]
    known_L: float | None = None
    known_G_inf: float | None = None
    known_f_star: float | None = None
    box: float = 10.0
    start: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def with_start(self, x: np.ndarray) -> "StochasticProblem":
        return dataclasses.replace(
            self, start=np.asarray(x, dtype=np.float64)
        )


def make_quadratic(
    dim: int, condition_number: float = 10.0, noise: float = 0.1
) -> StochasticProblem:
    """Diagonal quadratic with clipped additive gradient noise.

    Eigenvalues are geometrically spaced from 1 to ``condition_number``.
    The stochastic gradient adds ``noise`` times a truncated standard
    normal draw, so the sup-norm certificate stays finite.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if condition_number < 1.0:
        raise ValueError("condition number must be at least 1")
    if noise < 0.0:
        raise ValueError("noise magnitude must be nonnegative")
    eigs = condition_number ** np.linspace(0.0, 1.0, dim)
    box = 10.0

    def loss(x):
        return 0.5 * float((eigs * x) @ x)

    def grad(x):
        return eigs * x

    def stoch_loss(x, xi):
        return loss(x) + noise * float(xi @ x)

    def stoch_grad(x, xi):
        return grad(x) + noise * xi

    def sample_xi(rng, t):
        return np.clip(rng.standard_normal(dim), -NOISE_CLIP, NOISE_CLIP)

    return StochasticProblem(
        name="quadratic",
        dim=dim,
        loss=loss,
        exact_grad=grad,
        stoch_loss=stoch_loss,
        stoch_grad=stoch_grad,
        sample_xi=sample_xi,
        known_L=float(eigs.max()),
        known_G_inf=float(eigs.max()) * box + noise * NOISE_CLIP,
        known_f_star=0.0,
        box=box,
        meta={"condition-number": condition_number, "noise": noise},
    )


def make_rosenbrock(dim: int) -> StochasticProblem:
    """Chained banana-valley objective, deterministic.

    No smoothness or gradient certificates: both grow with the box and are
    not useful here. The minimum sits at the all-ones point with value 0.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")

    def loss(x):
        xm, xp = x[:-1], x[1:]
        return float(np.sum(100.0 * (xp - xm * xm) ** 2 + (1.0 - xm) ** 2))

    def grad(x):
        g = np.zeros_like(x, dtype=np.float64)
        xm, xp = x[:-1], x[1:]
        g[:-1] += -400.0 * xm * (xp - xm * xm) - 2.0 * (1.0 - xm)
        g[1:] += 200.0 * (xp - xm * xm)
        return g

    return StochasticProblem(
        name="rosenbrock",
        dim=dim,
        loss=loss,
        exact_grad=grad,
        stoch_loss=lambda x, xi: loss(x),
        stoch_grad=lambda x, xi: grad(x),
        sample_xi=lambda rng, t: None,
        known_f_star=0.0,
        meta={},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def make_logistic(
    dim: int, n_samples: int, seed: int
) -> StochasticProblem:
    """Ridge-regularized binary logistic regression on planted data.

    Features are standard normal draws shifted by half a unit along a
    planted direction according to the label, then clipped to +/-5 so the
    gradient certificate is finite. Minibatches of 8 indices are drawn
    with replacement.
    """
    if dim < 1 or n_samples < 2:
        raise ValueError("need dim >= 1 and n_samples >= 2")
    ridge = 1e-3
    batch = 8
    box = 10.0
    data_rng = np.random.default_rng(seed)
    direction = data_rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    y = np.where(data_rng.random(n_samples) < 0.5, -1.0, 1.0)
    A = data_rng.standard_normal((n_samples, dim)) + 0.5 * y[:, None] * direction
    A = np.clip(A, -5.0, 5.0)

    def _value(x, feats, labels):
        margins = labels * (feats @ x)
        data = float(np.logaddexp(0.0, -margins).mean())
        return data + 0.5 * ridge * float(x @ x)

    def _gradient(x, feats, labels):
        margins = labels * (feats @ x)
        weights = labels * _sigmoid(-margins)
        return -(feats.T @ weights) / len(labels) + ridge * x

    def loss(x):
        return _value(x, A, y)

    def grad(x):
        return _gradient(x, A, y)

    def stoch_loss(x, xi):
        return _value(x, A[xi], y[xi])

    def stoch_grad(x, xi):
        return _gradient(x, A[xi], y[xi])

    def sample_xi(rng, t):
        return rng.integers(0, n_samples, size=batch)

    gram_top = float(np.linalg.eigvalsh(A.T @ A / n_samples)[-1])
    prob = StochasticProblem(
        name="logistic",
        dim=dim,
        loss=loss,
        exact_grad=grad,
        stoch_loss=stoch_loss,
        stoch_grad=stoch_grad,
        sample_xi=sample_xi,
        known_L=0.25 * gram_top + ridge,
        known_G_inf=float(np.max(np.abs(A))) + ridge * box,
        box=box,
        meta={
            "n_samples": n_samples,
            "seed": seed,
            "batch_size": batch,
            "ridge": ridge,
            "features": A,
            "labels": y,
        },
    )
    _, f_star = logistic_newton_optimum(prob)
    return dataclasses.replace(prob, known_f_star=f_star)


def logistic_newton_optimum(
    problem: StochasticProblem,
) -> tuple[np.ndarray, float]:
    """Full-batch Newton solve of a logistic problem, to machine precision.

    Used as an independent oracle for the optimum value; the ridge term
    makes the Hessian uniformly positive definite.
    """
    A = problem.meta["features"]
    y = problem.meta["labels"]
    ridge = problem.meta["ridge"]
    n, d = A.shape
    x = np.zeros(d)
    for _ in range(100):
        margins = y * (A @ x)
        sig = _sigmoid(-margins)
        g = -(A.T @ (y * sig)) / n + ridge * x
        if np.linalg.norm(g) < 1e-12:
            break
        w = sig * (1.0 - sig)
        hess = (A.T * w) @ A / n + ridge * np.eye(d)
        x = x - np.linalg.solve(hess, g)
    return x, problem.loss(x)


def make_sparse_growth(
    dim: int, sparsity: float = 1.0, seed: int = 0, rho: float = 0.0
) -> StochasticProblem:
    """Identity quadratic observed through a decaying random mask.

    At step ``t`` each coordinate's gradient is revealed independently with
    probability ``min(1, sparsity * t**-rho)``; hidden coordinates
    contribute zero. The masking is deliberately unrescaled: dividing by
    the activation probability would restore unbiasedness but inflate the
    very cumulative gradient growth this problem exists to keep small, so
    the oracle is unbiased only in the dense configuration
    (``sparsity=1, rho=0``).
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must be in (0, 1]")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    box = 10.0

    def loss(x):
        return 0.5 * float(x @ x)

    def grad(x):
        return np.asarray(x, dtype=np.float64)

    def stoch_loss(x, xi):
        return 0.5 * float((xi * x) @ x)

    def stoch_grad(x, xi):
        return xi * x

    def sample_xi(rng, t):
        pi = min(1.0, sparsity * float(t) ** -rho) if rho > 0.0 else sparsity
        return (rng.random(dim) < pi).astype(np.float64)

    return StochasticProblem(
        name="sparse_growth",
        dim=dim,
        loss=loss,
        exact_grad=grad,
        stoch_loss=stoch_loss,
        stoch_grad=stoch_grad,
        sample_xi=sample_xi,
        known_L=1.0,
        known_G_inf=box,
        known_f_star=0.0,
        box=box,
        meta={"sparsity": sparsity, "seed": seed, "rho": rho},
    )


# two-blob classification task for the tanh network
_MLP_IN, _MLP_HIDDEN, _MLP_OUT = 10, 16, 2
_MLP_DIM = _MLP_IN * _MLP_HIDDEN + _MLP_HIDDEN + _MLP_HIDDEN * _MLP_OUT + _MLP_OUT
_MLP_N = 1000
_MLP_BATCH = 32
_MLP_SEP = 1.8
_MLP_FLIP = 0.04


def _mlp_unpack(theta: np.ndarray):
    i = _MLP_IN * _MLP_HIDDEN
    w1 = theta[:i].reshape(_MLP_IN, _MLP_HIDDEN)
    b1 = theta[i:i + _MLP_HIDDEN]
    j = i + _MLP_HIDDEN
    w2 = theta[j:j + _MLP_HIDDEN * _MLP_OUT].reshape(_MLP_HIDDEN, _MLP_OUT)
    b2 = theta[j + _MLP_HIDDEN * _MLP_OUT:]
    return w1, b1, w2, b2


def _mlp_eval(theta, feats, labels, want_grad):
    # in place where the formula allows, so a full-batch gradient holds two
    # (n, hidden) arrays at once rather than five; the two-class row max
    # and row sum are written elementwise, which is the same arithmetic
    w1, b1, w2, b2 = _mlp_unpack(np.asarray(theta, dtype=np.float64))
    h = feats @ w1
    h += b1
    np.tanh(h, out=h)
    shifted = h @ w2
    shifted += b2
    l0, l1 = shifted[:, 0], shifted[:, 1]
    shifted -= np.maximum(l0, l1)[:, None]
    e = np.exp(shifted)
    log_z = e[:, 0] + e[:, 1]
    np.log(log_z, out=log_z)
    log_p = shifted
    log_p -= log_z[:, None]
    n = feats.shape[0]
    rows = np.arange(n)
    value = -float(log_p[rows, labels].mean())
    if not want_grad:
        return value, None
    delta = np.exp(log_p, out=e)
    delta[rows, labels] -= 1.0
    delta /= n
    g_w2 = h.T @ delta
    g_b2 = delta.sum(axis=0)
    dz1 = delta @ w2.T
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    dz1 *= h
    g_w1 = feats.T @ dz1
    g_b1 = dz1.sum(axis=0)
    return value, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def make_mlp(task_seed: int) -> StochasticProblem:
    """Small tanh network (10-16-2, softmax cross-entropy) on two blobs.

    The blobs sit 1.8 apart along a random direction and 4% of labels are
    flipped, so the achievable loss floor is well above zero and optimizer
    differences stay visible. Minibatches of 32 are drawn with replacement.
    No certificates: the landscape is nonconvex and unbounded.
    """
    rng = np.random.default_rng(task_seed)
    direction = rng.standard_normal(_MLP_IN)
    direction /= np.linalg.norm(direction)
    labels = (rng.random(_MLP_N) < 0.5).astype(np.int64)
    signs = 2.0 * labels - 1.0
    feats = rng.standard_normal((_MLP_N, _MLP_IN)) \
        + (0.5 * _MLP_SEP) * signs[:, None] * direction
    flips = rng.random(_MLP_N) < _MLP_FLIP
    labels = np.where(flips, 1 - labels, labels)
    # (bytes of the last point grad saw, the loss there): the gradient pass
    # computes the loss too. Keyed on bytes, so -0.0, NaN payloads and
    # arrays mutated in place never match a point they are not.
    last = (None, 0.0)

    def loss(x):
        x = np.asarray(x, dtype=np.float64)
        key, value = last
        if x.tobytes() == key:
            return value
        return _mlp_eval(x, feats, labels, want_grad=False)[0]

    def grad(x):
        nonlocal last
        x = np.asarray(x, dtype=np.float64)
        value, g = _mlp_eval(x, feats, labels, want_grad=True)
        last = (x.tobytes(), value)
        return g

    def stoch_loss(x, xi):
        return _mlp_eval(x, feats[xi], labels[xi], want_grad=False)[0]

    def stoch_grad(x, xi):
        return _mlp_eval(x, feats[xi], labels[xi], want_grad=True)[1]

    def sample_xi(rng_, t):
        return rng_.integers(0, _MLP_N, size=_MLP_BATCH)

    return StochasticProblem(
        name="mlp",
        dim=_MLP_DIM,
        loss=loss,
        exact_grad=grad,
        stoch_loss=stoch_loss,
        stoch_grad=stoch_grad,
        sample_xi=sample_xi,
        meta={
            "task_seed": task_seed,
            "n_samples": _MLP_N,
            "batch_size": _MLP_BATCH,
            "separation": _MLP_SEP,
            "label_noise": _MLP_FLIP,
            "flipped_fraction": float(flips.mean()),
            "features": feats,
            "labels": labels,
        },
    )


def finite_diff_grad(
    problem: StochasticProblem,
    x: np.ndarray,
    h: float,
    xi: Any = None,
) -> np.ndarray:
    """Central-difference gradient of the loss, or of ``stoch_loss`` at a
    fixed draw when ``xi`` is given."""
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    if xi is None:
        f = problem.loss
    else:
        def f(z):
            return problem.stoch_loss(z, xi)
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return out
