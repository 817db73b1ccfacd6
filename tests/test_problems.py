"""Unit tests for the synthetic benchmark problems."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from padambench.problems import (
    finite_diff_grad,
    logistic_newton_optimum,
    make_logistic,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)


# ---------------------------------------------------------------- quadratic


def test_quadratic_frozen_values():
    # d=3, cond=4 gives geometric eigenvalues [1, 2, 4]
    prob = make_quadratic(3, condition_number=4.0, noise=0.0)
    x = np.ones(3)
    assert prob.loss(x) == 3.5  # 0.5 * (1 + 2 + 4)
    np.testing.assert_array_equal(prob.exact_grad(x), [1.0, 2.0, 4.0])
    assert prob.known_L == 4.0
    assert prob.known_f_star == 0.0
    assert prob.dim == 3


def test_quadratic_certified_constants():
    prob = make_quadratic(10, condition_number=10.0, noise=0.1)
    # gradient sup-norm over the box: lambda_max * box + noise * clip
    assert prob.known_G_inf == 10.0 * prob.box + 0.1 * 3.0
    assert prob.known_L == 10.0
    assert prob.box == 10.0


def test_quadratic_noise_is_clipped_and_additive():
    prob = make_quadratic(4, condition_number=10.0, noise=0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    for t in range(1, 50):
        xi = prob.sample_xi(rng, t)
        assert np.all(np.abs(xi) <= 3.0)
        np.testing.assert_array_equal(
            prob.stoch_grad(x, xi), prob.exact_grad(x) + 0.5 * xi
        )


def test_quadratic_noise_mean_zero():
    prob = make_quadratic(2, condition_number=1.0, noise=1.0)
    rng = np.random.default_rng(1)
    draws = np.array([prob.sample_xi(rng, t) for t in range(1, 20001)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)


def test_quadratic_stoch_loss_consistent_with_stoch_grad():
    prob = make_quadratic(5, condition_number=8.0, noise=0.3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    xi = prob.sample_xi(rng, 1)
    fd = finite_diff_grad(prob, x, h=1e-6, xi=xi)
    np.testing.assert_allclose(fd, prob.stoch_grad(x, xi), rtol=1e-6, atol=1e-8)


def test_quadratic_noiseless_stoch_grad_is_exact():
    prob = make_quadratic(3, condition_number=2.0, noise=0.0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    xi = prob.sample_xi(rng, 7)
    np.testing.assert_array_equal(prob.stoch_grad(x, xi), prob.exact_grad(x))


# --------------------------------------------------------------- rosenbrock


def test_rosenbrock_frozen_values():
    prob = make_rosenbrock(2)
    assert prob.loss(np.zeros(2)) == 1.0
    np.testing.assert_array_equal(prob.exact_grad(np.zeros(2)), [-2.0, 0.0])
    assert prob.loss(np.ones(2)) == 0.0
    np.testing.assert_array_equal(prob.exact_grad(np.ones(2)), [0.0, 0.0])


def test_rosenbrock_minimum_at_ones_high_dim():
    prob = make_rosenbrock(10)
    np.testing.assert_array_equal(prob.exact_grad(np.ones(10)), np.zeros(10))
    assert prob.known_f_star == 0.0


def test_rosenbrock_gradient_vs_finite_diff():
    prob = make_rosenbrock(6)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = 0.5 * rng.standard_normal(6)
        fd = finite_diff_grad(prob, x, h=1e-6)
        g = prob.exact_grad(x)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-6


def test_rosenbrock_is_deterministic():
    prob = make_rosenbrock(4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    xi = prob.sample_xi(rng, 1)
    np.testing.assert_array_equal(prob.stoch_grad(x, xi), prob.exact_grad(x))
    assert prob.stoch_loss(x, xi) == prob.loss(x)


# ----------------------------------------------------------------- logistic


def test_logistic_loss_at_origin_is_log2():
    prob = make_logistic(5, n_samples=40, seed=0)
    np.testing.assert_allclose(prob.loss(np.zeros(5)), math.log(2.0), rtol=1e-12)


def test_logistic_minibatch_average_recovers_full_gradient():
    # averaging the single-sample stochastic gradient over every index
    # reproduces the full-batch gradient (the ridge term is per-sample)
    prob = make_logistic(4, n_samples=25, seed=1)
    rng = np.random.default_rng(6)
    x = 0.3 * rng.standard_normal(4)
    acc = np.zeros(4)
    for i in range(25):
        acc += prob.stoch_grad(x, np.array([i]))
    np.testing.assert_allclose(acc / 25.0, prob.exact_grad(x), rtol=1e-12, atol=1e-14)


def test_logistic_newton_reaches_stationarity():
    prob = make_logistic(6, n_samples=80, seed=2)
    x_star, f_star = logistic_newton_optimum(prob)
    assert np.linalg.norm(prob.exact_grad(x_star)) < 1e-10
    assert f_star < prob.loss(np.zeros(6))
    np.testing.assert_allclose(prob.known_f_star, f_star, rtol=1e-12)


def test_logistic_smoothness_certificate_dominates_hessian():
    # known_L must upper bound the largest Hessian eigenvalue anywhere;
    # check at a few points via finite differences of the gradient
    prob = make_logistic(3, n_samples=30, seed=3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        gap = np.linalg.norm(prob.exact_grad(a) - prob.exact_grad(b))
        assert gap <= prob.known_L * np.linalg.norm(a - b) * (1 + 1e-9)


def test_logistic_gradient_sup_bound_inside_box():
    prob = make_logistic(4, n_samples=30, seed=4)
    rng = np.random.default_rng(8)
    for t in range(1, 30):
        x = rng.uniform(-prob.box, prob.box, 4)
        xi = prob.sample_xi(rng, t)
        assert np.max(np.abs(prob.stoch_grad(x, xi))) <= prob.known_G_inf


def test_logistic_features_are_clipped():
    prob = make_logistic(8, n_samples=200, seed=5)
    assert np.max(np.abs(prob.meta["features"])) <= 5.0


# ------------------------------------------------------------ sparse growth


def test_sparse_growth_dense_config_is_exact():
    # sparsity=1, rho=0 activates every coordinate at every step
    prob = make_sparse_growth(5, sparsity=1.0, rho=0.0)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5)
    xi = prob.sample_xi(rng, 1)
    np.testing.assert_array_equal(xi, np.ones(5))
    np.testing.assert_array_equal(prob.stoch_grad(x, xi), x)
    assert prob.loss(x) == 0.5 * float(x @ x)
    assert prob.known_L == 1.0


def test_sparse_growth_activation_probability_decays():
    prob = make_sparse_growth(2000, sparsity=1.0, rho=1.0)
    rng = np.random.default_rng(10)
    # expected activation fraction at step t is min(1, t^-rho)
    frac_t1 = prob.sample_xi(rng, 1).mean()
    frac_t100 = prob.sample_xi(rng, 100).mean()
    assert frac_t1 == 1.0
    np.testing.assert_allclose(frac_t100, 0.01, atol=0.01)


def test_sparse_growth_sparsity_scales_activation():
    prob = make_sparse_growth(4000, sparsity=0.25, rho=0.0)
    rng = np.random.default_rng(11)
    frac = np.mean([prob.sample_xi(rng, t).mean() for t in range(1, 20)])
    np.testing.assert_allclose(frac, 0.25, atol=0.02)


def test_sparse_growth_masked_loss_matches_masked_grad():
    prob = make_sparse_growth(6, sparsity=0.5, rho=0.3)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(6)
    xi = prob.sample_xi(rng, 5)
    fd = finite_diff_grad(prob, x, h=1e-6, xi=xi)
    np.testing.assert_allclose(fd, prob.stoch_grad(x, xi), atol=1e-8)


def test_sparse_growth_grad_bounded_by_box():
    prob = make_sparse_growth(3, sparsity=1.0, rho=0.5)
    assert prob.known_G_inf == prob.box


# ------------------------------------------------------------------- tanh net


def test_mlp_dimension():
    # 10->16->2 with biases: 160 + 16 + 32 + 2 = 210 parameters
    prob = make_mlp(task_seed=99)
    assert prob.dim == 210


def test_mlp_loss_positive_and_finite():
    prob = make_mlp(task_seed=99)
    rng = np.random.default_rng(13)
    x = 0.1 * rng.standard_normal(210)
    val = prob.loss(x)
    assert math.isfinite(val) and val > 0.0


def test_mlp_softmax_is_overflow_safe():
    prob = make_mlp(task_seed=99)
    rng = np.random.default_rng(14)
    x = 50.0 * rng.standard_normal(210)  # drives logits far past exp overflow
    assert math.isfinite(prob.loss(x))
    assert np.all(np.isfinite(prob.exact_grad(x)))


def test_mlp_gradient_vs_finite_diff():
    prob = make_mlp(task_seed=99)
    rng = np.random.default_rng(15)
    for _ in range(2):
        x = 0.2 * rng.standard_normal(210)
        fd = finite_diff_grad(prob, x, h=1e-6)
        g = prob.exact_grad(x)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5


def test_mlp_minibatch_average_recovers_full_gradient():
    prob = make_mlp(task_seed=99)
    rng = np.random.default_rng(16)
    x = 0.1 * rng.standard_normal(210)
    n = prob.meta["n_samples"]
    acc = np.zeros(210)
    for i in range(n):
        acc += prob.stoch_grad(x, np.array([i]))
    np.testing.assert_allclose(acc / n, prob.exact_grad(x), rtol=1e-10, atol=1e-12)


def test_mlp_stochastic_batches_have_declared_size():
    prob = make_mlp(task_seed=99)
    rng = np.random.default_rng(17)
    xi = prob.sample_xi(rng, 1)
    assert xi.shape == (prob.meta["batch_size"],)
    assert xi.min() >= 0 and xi.max() < prob.meta["n_samples"]


def _frozen_mlp_eval(theta, feats, labels, want_grad):
    """The MLP kernel as first written, one temporary per operation; the
    in-place kernel must reproduce it bit for bit."""
    i, j = 160, 176
    w1, b1 = theta[:i].reshape(10, 16), theta[i:j]
    w2, b2 = theta[j:j + 32].reshape(16, 2), theta[j + 32:]
    z1 = feats @ w1 + b1
    h = np.tanh(z1)
    logits = h @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    n = feats.shape[0]
    rows = np.arange(n)
    value = -float(log_p[rows, labels].mean())
    if not want_grad:
        return value, None
    delta = np.exp(log_p)
    delta[rows, labels] -= 1.0
    delta /= n
    g_w2 = h.T @ delta
    g_b2 = delta.sum(axis=0)
    dh = delta @ w2.T
    dz1 = dh * (1.0 - h * h)
    g_w1 = feats.T @ dz1
    g_b1 = dz1.sum(axis=0)
    return value, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


@pytest.mark.parametrize("scale", [0.1, 1.0, 50.0])
def test_mlp_kernel_matches_frozen_formula(scale):
    prob = make_mlp(task_seed=7)
    feats, labels = prob.meta["features"], prob.meta["labels"]
    rng = np.random.default_rng(18)
    for _ in range(40):
        x = scale * rng.standard_normal(prob.dim)
        xi = prob.sample_xi(rng, 1)
        want_f, want_g = _frozen_mlp_eval(x, feats, labels, True)
        assert prob.loss(x) == want_f
        assert prob.exact_grad(x).tobytes() == want_g.tobytes()
        want_f, want_g = _frozen_mlp_eval(x, feats[xi], labels[xi], True)
        assert prob.stoch_loss(x, xi) == want_f
        assert prob.stoch_grad(x, xi).tobytes() == want_g.tobytes()


def test_mlp_loss_after_exact_grad_matches_frozen_formula():
    # loss reuses the value exact_grad computed at the same bytes, and
    # only there: not at another point, nor after the point is mutated
    prob = make_mlp(task_seed=7)
    feats, labels = prob.meta["features"], prob.meta["labels"]
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = rng.standard_normal(prob.dim)
        want_f, want_g = _frozen_mlp_eval(x, feats, labels, True)
        assert prob.exact_grad(x).tobytes() == want_g.tobytes()
        assert prob.loss(x) == want_f
        assert prob.loss(x.copy()) == want_f
        y = rng.standard_normal(prob.dim)
        assert prob.loss(y) == _frozen_mlp_eval(y, feats, labels, False)[0]
        assert prob.loss(x) == want_f
        x[-1] += 0.5  # an output bias: the loss must move
        want_moved = _frozen_mlp_eval(x, feats, labels, False)[0]
        assert want_moved != want_f
        assert prob.loss(x) == want_moved


def _frozen_mlp_loss(z, feats, labels):
    """The frozen formula's loss, row by row on a block."""
    if z.ndim == 1:
        return _frozen_mlp_eval(z, feats, labels, False)[0]
    return np.array([_frozen_mlp_eval(row, feats, labels, False)[0]
                     for row in z])


def test_mlp_finite_diff_interleaved_with_exact_grad():
    prob = make_mlp(task_seed=7)
    feats, labels = prob.meta["features"], prob.meta["labels"]
    frozen = dataclasses.replace(
        prob, loss=lambda z: _frozen_mlp_loss(z, feats, labels))
    rng = np.random.default_rng(20)
    h = 1e-6
    for _ in range(2):
        x = 0.3 * rng.standard_normal(prob.dim)
        bump = np.zeros((16, prob.dim))
        bump[np.arange(16), np.arange(16)] = h
        prob.exact_grad(x + bump)  # the first block finite_diff_grad asks
        fd = finite_diff_grad(prob, x, h)
        assert fd.tobytes() == finite_diff_grad(frozen, x, h).tobytes()
        prob.exact_grad(x)
        fd = finite_diff_grad(prob, x, h)
        assert fd.tobytes() == finite_diff_grad(frozen, x, h).tobytes()
        assert prob.loss(x) == frozen.loss(x)


def test_mlp_label_noise_fraction():
    prob = make_mlp(task_seed=99)
    flipped = prob.meta["flipped_fraction"]
    np.testing.assert_allclose(flipped, 0.04, atol=0.02)


# ------------------------------------------------------------- finite diff


@pytest.mark.parametrize("factory", [
    lambda: make_quadratic(0),
    lambda: make_quadratic(3, condition_number=0.5),
    lambda: make_quadratic(3, noise=-0.1),
    lambda: make_rosenbrock(1),
    lambda: make_logistic(0, 40, seed=0),
    lambda: make_logistic(3, 1, seed=0),
    lambda: make_sparse_growth(0),
    lambda: make_sparse_growth(3, sparsity=0.0),
    lambda: make_sparse_growth(3, sparsity=1.5),
    lambda: make_sparse_growth(3, rho=-0.1),
])
def test_factories_reject_bad_arguments(factory):
    with pytest.raises(ValueError):
        factory()


def test_finite_diff_rejects_bad_step():
    prob = make_rosenbrock(2)
    with pytest.raises(ValueError):
        finite_diff_grad(prob, np.zeros(2), h=0.0)


def test_finite_diff_quadratic_near_exact():
    # central differences on a quadratic are exact up to roundoff
    prob = make_quadratic(3, condition_number=4.0, noise=0.0)
    x = np.array([0.3, -0.7, 1.1])
    fd = finite_diff_grad(prob, x, h=1e-5)
    np.testing.assert_allclose(fd, prob.exact_grad(x), rtol=1e-9, atol=1e-10)


def _lone_central_differences(f, x, h):
    """The central-difference loop, one probe point per call."""
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return out


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(7, condition_number=8.0, noise=0.1),
    lambda: make_quadratic(40, condition_number=8.0, noise=0.1),
    lambda: make_rosenbrock(6),
    lambda: make_logistic(5, 80, seed=1),
    lambda: make_sparse_growth(9, sparsity=0.5, rho=0.3),
    lambda: make_mlp(4),
], ids=["quadratic", "quadratic-40", "rosenbrock", "logistic",
        "sparse-growth", "mlp-210"])
def test_finite_diff_blocks_equal_lone_probes(make):
    # the probes go to the oracle in blocks of up to 16 rows; every entry
    # is bitwise the lone two-call difference, exact and at a fixed draw
    prob = make()
    rng = np.random.default_rng(21)
    for scale in (0.2, 3.0):
        x = scale * rng.standard_normal(prob.dim)
        x[0] = -0.0  # -0.0 + 0.0 is +0.0 on the rows that do not probe it
        xi = prob.sample_xi(rng, 4)
        want = _lone_central_differences(prob.loss, x, 1e-6)
        assert finite_diff_grad(prob, x, 1e-6).tobytes() == want.tobytes()
        want = _lone_central_differences(
            lambda z: prob.stoch_loss(z, xi), x, 1e-6)
        got = finite_diff_grad(prob, x, 1e-6, xi=xi)
        assert got.tobytes() == want.tobytes()


def test_finite_diff_memory_is_linear_in_dim():
    # blocks of 16 probe rows: about 0.5 MiB each at d = 4,000, where a
    # (d, d) identity would take 122 MiB
    prob = make_quadratic(4000, condition_number=10.0, noise=0.1)
    x = 0.1 * np.random.default_rng(22).standard_normal(prob.dim)
    tracemalloc.start()
    try:
        fd = finite_diff_grad(prob, x, h=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    np.testing.assert_allclose(fd, prob.exact_grad(x), rtol=1e-6, atol=1e-8)
