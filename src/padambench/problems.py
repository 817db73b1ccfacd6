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
import threading
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
_STACK = 16  # probe points per block of finite_diff_grad


def _rowdot(a: np.ndarray, b: np.ndarray):
    """``a[k] @ b[k]`` for each row k, bitwise (``einsum`` and
    ``(a * b).sum(-1)`` sum in another order); a scalar for 1-D."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x[k]`` for each row k (and matrix ``m[k]``), bitwise, which
    the plain product ``x @ m.T`` is not."""
    return np.matmul(m, x[..., None])[..., 0]


def _per_point(value, x):
    """A float for one point ``x``, the ``(S,)`` array for a block."""
    return float(value) if np.ndim(x) == 1 else value


def _draw_rows(rng, shape: tuple, fill, dtype=np.float64) -> np.ndarray:
    """One generator's ``shape`` draw, or an ``(S, *shape)`` block whose row
    j ``fill(rng[j], row)`` draws in place, as that generator's lone draw."""
    lone = isinstance(rng, np.random.Generator)
    rngs = (rng,) if lone else rng
    out = np.empty((len(rngs), *shape), dtype)
    for r, row in zip(rngs, out):
        fill(r, row)
    return out[0] if lone else out


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

    Block contract: every oracle takes either one point ``x`` of shape
    ``(d,)`` or a block of shape ``(S, d)``, and row k of a block result is
    bitwise what the call on row k returns. The values (``loss``,
    ``stoch_loss``) are a float for one point and an ``(S,)`` array for a
    block. ``sample_xi(rng, t)`` takes one generator, or a sequence of S
    generators and then returns an ``(S, ...)`` block of draws whose row j
    is bitwise ``sample_xi(rngs[j], t)``; the stochastic oracles take that
    block with the block of points. A noiseless problem draws ``None`` in
    both forms.

    Threading contract: draws depend on no iterate, so the harness may
    call ``sample_xi`` on another thread, one step ahead of the step that
    uses the draw, one call at a time and in step order, while the other
    oracles run. It does so where the first draw is an ndarray of at
    least ``harness._PREFETCH_BYTES``. A draw may touch only its
    generators and must return a new array each call.
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
        return _per_point(0.5 * _rowdot(eigs * x, x), x)

    def grad(x):
        return eigs * x

    def stoch_loss(x, xi):
        return loss(x) + noise * _per_point(_rowdot(xi, x), x)

    def stoch_grad(x, xi):
        return grad(x) + noise * xi

    def sample_xi(rng, t):
        xi = _draw_rows(rng, (dim,), lambda r, a: r.standard_normal(out=a))
        np.minimum(xi, NOISE_CLIP, out=xi)  # np.clip, bitwise, but faster
        return np.maximum(xi, -NOISE_CLIP, out=xi)

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
        xm, xp = x[..., :-1], x[..., 1:]
        return _per_point(np.sum(
            100.0 * (xp - xm * xm) ** 2 + (1.0 - xm) ** 2, axis=-1), x)

    def grad(x):
        g = np.zeros_like(x, dtype=np.float64)
        xm, xp = x[..., :-1], x[..., 1:]
        r = xp - xm * xm
        g[..., :-1] += -400.0 * xm * r - 2.0 * (1.0 - xm)
        g[..., 1:] += 200.0 * r
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

    # feats and labels are the full data, or one minibatch per row: (S, 8, d)
    def _value(x, feats, labels):
        margins = labels * _matvec(feats, x)
        data = np.logaddexp(0.0, -margins).mean(axis=-1)
        return _per_point(data + 0.5 * ridge * _rowdot(x, x), x)

    def _gradient(x, feats, labels):
        margins = labels * _matvec(feats, x)
        weights = labels * _sigmoid(-margins)
        return (-_matvec(np.swapaxes(feats, -1, -2), weights)
                / labels.shape[-1] + ridge * x)

    def loss(x):
        return _value(x, A, y)

    def grad(x):
        return _gradient(x, A, y)

    def stoch_loss(x, xi):
        return _value(x, A[xi], y[xi])

    def stoch_grad(x, xi):
        return _gradient(x, A[xi], y[xi])

    def sample_xi(rng, t):
        return _draw_rows(rng, (batch,), lambda r, row: np.copyto(
            row, r.integers(0, n_samples, size=batch)), np.int64)

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
    dim: int, sparsity: float = 1.0, rho: float = 0.0
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
        return _per_point(0.5 * _rowdot(x, x), x)

    def grad(x):
        return np.asarray(x, dtype=np.float64)

    def stoch_loss(x, xi):
        return _per_point(0.5 * _rowdot(xi * x, x), x)

    def stoch_grad(x, xi):
        return xi * x

    def sample_xi(rng, t):
        pi = min(1.0, sparsity * float(t) ** -rho) if rho > 0.0 else sparsity
        u = _draw_rows(rng, (dim,), lambda r, row: r.random(out=row))
        return np.less(u, pi, out=u)  # the 0.0 / 1.0 mask, in place

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
        meta={"sparsity": sparsity, "rho": rho},
    )


# two-blob classification task for the tanh network
_MLP_IN, _MLP_HIDDEN, _MLP_OUT = 10, 16, 2
_MLP_DIM = _MLP_IN * _MLP_HIDDEN + _MLP_HIDDEN + _MLP_HIDDEN * _MLP_OUT + _MLP_OUT
_MLP_N = 1000
_MLP_BATCH = 32
_MLP_SEP = 1.8
_MLP_FLIP = 0.04
# rows per stacked full-batch pass: its scratch holds two rows × n × hidden
# arrays, 0.5 MB each at 4 rows; a gradient pass costs 125 µs per row at 2-4
# rows, 135 at 8 and 165-215 at 16-32, a value pass 55-63 at 2-16
_MLP_STACK = 4
_MLP_COLS = {"h": _MLP_HIDDEN, "dz1": _MLP_HIDDEN, "logits": _MLP_OUT,
             "l0": 1, "l1": 1, "top": 1, "e": 1}


def _mlp_unpack(theta: np.ndarray):
    lead = theta.shape[:-1]  # () for one point, (S,) for a block
    i = _MLP_IN * _MLP_HIDDEN
    w1 = theta[..., :i].reshape(*lead, _MLP_IN, _MLP_HIDDEN)
    b1 = theta[..., i:i + _MLP_HIDDEN]
    j = i + _MLP_HIDDEN
    w2 = theta[..., j:j + _MLP_HIDDEN * _MLP_OUT].reshape(
        *lead, _MLP_HIDDEN, _MLP_OUT)
    b2 = theta[..., j + _MLP_HIDDEN * _MLP_OUT:]
    return w1, b1, w2, b2


def _mlp_scratch(lead: tuple, n: int, want_grad: bool, held: dict) -> tuple:
    """``_mlp_eval``'s h, dz1, logits, l0, l1, top and e on ``lead`` points
    (``()`` or ``(rows,)``) of ``n`` samples, as ``(*lead, n, k)`` and
    ``(*lead, n)`` views, kept in ``held`` per shape over flat arrays grown
    to the most rows asked for. A gradient pass gets h, dz1 and logits
    sample-major, so its sums over the samples add rows of ``rows * k``
    floats, not ``k``; a value pass has no such sums: point-major is faster."""
    if (lead, want_grad) not in held:
        size = n * (lead[0] if lead else 1)
        if len(held.get("e", ())) < size:  # grow the flat arrays
            held.clear()
            held.update({k: np.empty(size * w) for k, w in _MLP_COLS.items()})
        held[lead, want_grad] = tuple(
            held[k][:size].reshape(*lead, n) if w == 1
            else np.moveaxis(held[k][:size * w].reshape(n, *lead, w), 0, -2)
            if want_grad else held[k][:size * w].reshape(*lead, n, w)
            for k, w in _MLP_COLS.items())
    return held[lead, want_grad]


# each thread's scratch, one dict per sample count (the full data, one
# minibatch), made on first use and shared by every MLP problem; a pass
# writes each entry before reading it, so no call sees another's data. An
# in-process `compare --problem mlp --steps 300 --seeds 5` takes 14-30 minor
# page faults after the first (221-357 with fresh minibatch intermediates)
_MLP_HELD = threading.local()


def _mlp_eval(theta, feats, labels, want_grad, held=False):
    # one point or an (S, d) block, on the full data or on one minibatch
    # per row; stacked, each row is bitwise its lone pass. The
    # intermediates go to this thread's held scratch (new arrays when
    # ``held`` is false); the value and the gradient returned are new
    # arrays. Ufuncs and sums run in memory order in either layout, and a
    # sum adds the samples in order; exp, log and tanh run on contiguous
    # arrays only, as in a lone pass. The two classes are (n,) columns,
    # faster than (n, 2) broadcasts and the same arithmetic
    theta = np.asarray(theta, dtype=np.float64)
    lead = theta.shape[:-1]  # () for one point, (S,) for a block
    n = labels.shape[-1]
    h, dz1, logits, l0, l1, top, e = _mlp_scratch(
        lead, n, want_grad, vars(_MLP_HELD).setdefault(n, {}) if held else {})
    w1, b1, w2, b2 = _mlp_unpack(theta)
    np.matmul(feats, w1, out=h)
    h += b1[..., None, :]
    np.tanh(h, out=h)
    np.matmul(h, w2, out=logits)
    np.add(logits[..., 0], b2[..., 0, None], out=l0)
    np.add(logits[..., 1], b2[..., 1, None], out=l1)
    np.maximum(l0, l1, out=top)
    l0 -= top
    l1 -= top
    log_z = np.exp(l0, out=top)
    log_z += np.exp(l1, out=e)
    np.log(log_z, out=log_z)
    l0 -= log_z  # the log-probabilities
    l1 -= log_z
    # the log-probability of each sample's own label
    value = _per_point(-np.where(labels, l1, l0).mean(axis=-1), theta)
    if not want_grad:
        return value, None
    delta = logits  # the softmax minus the one-hot label; x - 0 is x
    np.subtract(np.exp(l0, out=e), 1 - labels, out=delta[..., 0])
    np.subtract(np.exp(l1, out=e), labels, out=delta[..., 1])
    delta /= n
    g_w2 = np.swapaxes(h, -1, -2) @ delta
    g_b2 = delta.sum(axis=-2)
    np.matmul(delta, np.swapaxes(w2, -1, -2), out=dz1)
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    dz1 *= h
    g_w1 = np.swapaxes(feats, -1, -2) @ dz1
    g_b1 = dz1.sum(axis=-2)
    return value, np.concatenate([g_w1.reshape(*lead, -1), g_b1,
                                  g_w2.reshape(*lead, -1), g_b2], axis=-1)


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
    # (shape and bytes of the last point or block grad saw, the loss there):
    # the gradient pass computes the loss too. Keyed on bytes, so -0.0, NaN
    # payloads and arrays mutated in place never match a point they are not.
    last = (None, 0.0)

    def full_batch(x, want_grad):
        if x.ndim == 1:
            return _mlp_eval(x, feats, labels, want_grad, held=True)
        values, grads = zip(*[
            _mlp_eval(x[k:k + _MLP_STACK], feats, labels, want_grad, True)
            for k in range(0, len(x), _MLP_STACK)])
        return (np.concatenate(values),
                np.concatenate(grads) if want_grad else None)

    def loss(x):
        x = np.asarray(x, dtype=np.float64)
        key, value = last
        if (x.shape, x.tobytes()) == key:
            return value if x.ndim == 1 else value.copy()
        return full_batch(x, want_grad=False)[0]

    def grad(x):
        nonlocal last
        x = np.asarray(x, dtype=np.float64)
        value, g = full_batch(x, want_grad=True)
        last = ((x.shape, x.tobytes()), value)
        return g

    def stoch_loss(x, xi):
        return _mlp_eval(x, feats[xi], labels[xi], False, held=True)[0]

    def stoch_grad(x, xi):
        return _mlp_eval(x, feats[xi], labels[xi], True, held=True)[1]

    def sample_xi(rng_, t):
        return _draw_rows(rng_, (_MLP_BATCH,), lambda r, row: np.copyto(
            row, r.integers(0, _MLP_N, size=_MLP_BATCH)), np.int64)

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
    fixed draw ``xi``. Both must honour the block contract: the probes
    ``x +- h e_i`` go in blocks of up to 16 rows, ``xi`` repeated per row."""
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)

    def f(z):  # a block of probe points
        return problem.loss(z) if xi is None else problem.stoch_loss(
            z, np.broadcast_to(xi, (len(z), *np.shape(xi))))
    out = np.empty_like(x)
    for lo in range(0, x.size, _STACK):
        bump = np.zeros((min(_STACK, x.size - lo), x.size))
        np.fill_diagonal(bump[:, lo:], h)  # row k probes coordinate lo + k
        out[lo:lo + len(bump)] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return out
