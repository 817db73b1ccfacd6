"""Unit tests for the convergence-bound machinery.

The frozen constants below were computed with standalone scalar arithmetic
before the module existed; they pin the algebra, not the implementation.
"""

import json
import math

import numpy as np
import pytest

from padambench.harness import RunSpec, Schedule, repeat_runs, run
from padambench.optim import PadamConfig
from padambench.problems import (
    make_logistic,
    make_quadratic,
    make_sparse_growth,
)
from padambench.theory import (
    BoundInputs,
    HypothesisError,
    bound_constants,
    bound_q0,
    bound_value,
    check_moment_bounds,
    check_smoothness_gap,
    check_z_identity,
    estimate_growth_s,
    optimal_alpha,
    report_to_dict,
    run_trajectory_checks,
    verify_bound,
)

REF = BoundInputs(
    g_inf=2.0, smoothness=3.0, delta_f=5.0, dim=4, steps=1000, alpha=0.01,
    beta1=0.9, beta2=0.999, p=0.125, vhat1_term=1.7, s=0.25, q=0.0,
)


def dense_padam_trace(steps=40, noise=0.1, seed=0, p=0.125, epsilon=1e-8,
                      lr=0.05, start=None, prob=None):
    if prob is None:
        prob = make_quadratic(3, condition_number=5.0, noise=noise)
    if start is not None:
        prob = prob.with_start(start)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=p, epsilon=epsilon)
    spec = RunSpec(
        problem=prob, optimizer="padam",
        opt_params={"beta1": cfg.beta1, "beta2": cfg.beta2, "p": cfg.p,
                    "epsilon": cfg.epsilon},
        schedule=Schedule("constant", lr), steps=steps, seed=seed,
        record_dense=True,
    )
    return prob, cfg, run(spec)


# ---------------------------------------------------------------- constants


def test_bound_constants_frozen():
    c = bound_constants(REF)
    np.testing.assert_allclose(c.gamma, 0.9002251407305545, rtol=1e-15)
    np.testing.assert_allclose(c.m1, 11.89207115002721, rtol=1e-15)
    np.testing.assert_allclose(c.m2, 96.86608382018504, rtol=1e-15)
    np.testing.assert_allclose(c.m3, 18540.191885611468, rtol=1e-15)


def test_bound_value_frozen():
    np.testing.assert_allclose(bound_value(REF), 265.3338033571122, rtol=1e-15)


def test_bound_value_q_one_drops_horizon_decay():
    # at q=1 the third term is m3 * alpha * d with no T dependence
    inp = REF.replace(q=1.0)
    c = bound_constants(inp)
    np.testing.assert_allclose(c.m3, 37080.383771222936, rtol=1e-15)
    np.testing.assert_allclose(bound_value(inp), 1484.7920222992009, rtol=1e-15)
    expected = c.m1 / (inp.steps * inp.alpha) + c.m2 * inp.dim / inp.steps \
        + c.m3 * inp.alpha * inp.dim
    np.testing.assert_allclose(bound_value(inp), expected, rtol=1e-15)


def test_bound_default_q_is_smallest_admissible():
    inp = REF.replace(p=0.3, q=None)
    assert bound_constants(inp).q == pytest.approx(0.2, abs=1e-15)
    inp_small_p = REF.replace(p=0.1, q=None)
    assert bound_constants(inp_small_p).q == 0.0


def test_bound_rejects_inadmissible_q():
    with pytest.raises(ValueError):
        bound_constants(REF.replace(p=0.3, q=0.1))  # q below 4p-1
    with pytest.raises(ValueError):
        bound_constants(REF.replace(q=1.2))


def test_bound_requires_contractive_momentum_ratio():
    # beta1 / beta2^(2p) >= 1 voids every statement downstream
    with pytest.raises(HypothesisError):
        bound_constants(REF.replace(beta1=0.95, beta2=0.9, p=0.5))


def test_corollary_matches_theorem_at_q_zero():
    rel = abs(bound_q0(REF) - bound_value(REF.replace(q=0.0))) / bound_value(REF)
    assert rel <= 1e-12


def test_corollary_needs_small_p():
    with pytest.raises(HypothesisError):
        bound_q0(REF.replace(p=0.3))


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        REF.replace(g_inf=0.0)
    with pytest.raises(ValueError):
        REF.replace(steps=1)
    with pytest.raises(ValueError):
        REF.replace(s=0.6)
    with pytest.raises(ValueError):
        REF.replace(alpha=-0.1)


# ------------------------------------------------------------ step size rule


def test_optimal_alpha_frozen():
    assert optimal_alpha(1, 1, 0.0) == 1.0
    assert optimal_alpha(1, 1, 0.5) == 1.0
    assert optimal_alpha(100, 10**4, 0.5) == 0.001
    assert optimal_alpha(100, 10**4, 0.5, scale=2.5) == 0.0025


def test_optimal_alpha_shrinks_with_growth_exponent():
    assert optimal_alpha(10, 10**4, 0.5) < optimal_alpha(10, 10**4, 0.0)


def test_optimal_alpha_validation():
    with pytest.raises(ValueError):
        optimal_alpha(0, 10, 0.0)
    with pytest.raises(ValueError):
        optimal_alpha(10, 1, 0.6)


# ---------------------------------------------------------- growth exponent


def test_estimate_growth_s_frozen_example():
    grads = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    est = estimate_growth_s(grads, g_inf=2.0)
    np.testing.assert_allclose(est.s, 0.25, rtol=1e-12)
    assert not est.degenerate


def test_estimate_growth_s_saturated_stream():
    grads = np.full((500, 3), 1.5)
    est = estimate_growth_s(grads, g_inf=1.5)
    np.testing.assert_allclose(est.s, 0.5, rtol=1e-12)
    np.testing.assert_allclose(est.slope, 0.5, atol=1e-9)


def test_estimate_growth_s_all_zero_is_degenerate():
    est = estimate_growth_s(np.zeros((100, 4)), g_inf=1.0)
    assert est.s == 0.0
    assert est.degenerate


def test_estimate_growth_s_clamped_to_admissible_range():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((200, 5))
    est = estimate_growth_s(grads, g_inf=None)
    assert 0.0 <= est.s <= 0.5


def test_estimate_growth_s_needs_two_steps():
    with pytest.raises(ValueError):
        estimate_growth_s(np.ones((1, 2)), g_inf=1.0)


# --------------------------------------------------------- trajectory checks


def test_trajectory_checks_pass_on_honest_trace():
    prob, cfg, trace = dense_padam_trace(steps=60)
    results = run_trajectory_checks(trace, prob, cfg)
    assert set(results) == {"z_identity", "z_step_bound", "smoothness_gap",
                            "moment_bounds", "update_energy"}
    for name, res in results.items():
        assert res.status == "pass", f"{name}: {res.detail}"


def test_z_identity_detects_tampered_iterates():
    prob, cfg, trace = dense_padam_trace(steps=40)
    trace.dense["x"][20] += 1e-3
    res = check_z_identity(trace, cfg)
    assert res.status == "fail"


def test_moment_bounds_fail_with_dishonest_sup():
    prob, cfg, trace = dense_padam_trace(steps=40)
    res = check_moment_bounds(trace, g_inf=1e-6)
    assert res.status == "fail"


def test_moment_bounds_inapplicable_outside_box():
    start = np.array([11.0, 0.0, 0.0])  # outside the certified region
    prob, cfg, trace = dense_padam_trace(steps=10, start=start)
    assert trace.box_exit == 1
    res = check_moment_bounds(trace, g_inf=prob.known_G_inf)
    assert res.status == "inapplicable"


def test_trajectory_checks_need_dense_channels():
    prob = make_quadratic(3, condition_number=5.0, noise=0.1)
    cfg = PadamConfig(p=0.125)
    spec = RunSpec(problem=prob, optimizer="padam",
                   opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.125,
                               "epsilon": 1e-8},
                   schedule=Schedule("constant", 0.05), steps=10, seed=0)
    trace = run(spec)
    with pytest.raises(ValueError):
        run_trajectory_checks(trace, prob, cfg)


@pytest.mark.parametrize("kwargs, dead_coords", [
    pytest.param({"seed": 4}, False, id="quadratic"),
    # p = 0 while some coordinates are still unrevealed, their v_hat 0
    pytest.param({"p": 0.0, "prob": make_sparse_growth(6, 0.1)}, True,
                 id="sparse-growth-p0"),
])
def test_trajectory_checks_epsilon_zero_trace(kwargs, dead_coords):
    prob, cfg, trace = dense_padam_trace(steps=50, epsilon=0.0, **kwargs)
    assert (trace.dense["vhat"] == 0.0).any() == dead_coords
    results = run_trajectory_checks(trace, prob, cfg)
    for name, res in results.items():
        assert res.status == "pass", f"{name}: {res.detail}"


def test_trajectory_checks_reject_foreign_optimizer():
    prob = make_quadratic(3, condition_number=5.0, noise=0.1)
    spec = RunSpec(problem=prob, optimizer="sgdm", opt_params={"mu": 0.9},
                   schedule=Schedule("constant", 0.01), steps=10, seed=0,
                   record_dense=True)
    trace = run(spec)
    with pytest.raises(ValueError):
        run_trajectory_checks(trace, prob, PadamConfig())


def _smoothness_gap_per_row(trace, problem, cfg, L):
    """check_smoothness_gap's margin as first written, one step at a time."""
    x, x_final = trace.dense["x"], trace.dense["x_final"]
    c = cfg.beta1 / (1.0 - cfg.beta1)
    full = np.vstack([x, x_final])
    z = full.copy()
    z[1:] += c * (full[1:] - full[:-1])
    worst = math.inf
    for t in range(x.shape[0]):
        gap = np.linalg.norm(problem.exact_grad(z[t])
                             - problem.exact_grad(x[t]))
        allowed = L * c * (np.linalg.norm(x[t] - x[t - 1]) if t > 0 else 0.0)
        worst = min(worst, (allowed - gap) / (1.0 + allowed))
    return worst


_CERTIFIED = {
    "quadratic": lambda d: make_quadratic(d, condition_number=10.0),
    "logistic": lambda d: make_logistic(d, 60, seed=0),
    "sparse-growth": lambda d: make_sparse_growth(d, sparsity=0.5, seed=1,
                                                  rho=0.5),
}


@pytest.mark.parametrize("problem", sorted(_CERTIFIED))
def test_smoothness_gap_matches_per_row_formula(problem):
    # every dim the suites check (3-10), with the certified L and with one
    # too small to hold, so failing margins are compared too
    cfg = PadamConfig()
    for dim in range(3, 11):
        prob = _CERTIFIED[problem](dim)
        spec = RunSpec(problem=prob, optimizer="padam", opt_params={},
                       schedule=Schedule("constant", 0.05), steps=60,
                       seed=dim, record_dense=True)
        for trace in repeat_runs(spec, 3):
            for L in (prob.known_L, 0.01 * prob.known_L):
                res = check_smoothness_gap(trace, prob, cfg, smoothness=L)
                want = _smoothness_gap_per_row(trace, prob, cfg, L)
                assert np.float64(res.margin).tobytes() == \
                    np.float64(want).tobytes(), (dim, L)


# ------------------------------------------------------------- verification


def test_verify_bound_small_quadratic():
    prob = make_quadratic(4, condition_number=5.0, noise=0.1)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.125, epsilon=1e-8)
    alpha = optimal_alpha(4, 200, 0.5)
    report = verify_bound(prob, cfg, alpha=alpha, steps=200, n_seeds=5, seed=0)
    assert report.applicable
    assert report.empirical_grad_norm_sq <= report.bound
    assert 0.0 < report.looseness < 1.0
    assert 0.0 <= report.fitted_s <= 0.5
    for name, res in report.checks.items():
        assert res.status == "pass", f"{name}: {res.detail}"
    # corollary applies at p=1/8 and must agree with the q=0 theorem value
    assert report.bound_small_p is not None


def test_verify_bound_reports_are_json_ready():
    prob = make_quadratic(3, condition_number=2.0, noise=0.05)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.25, epsilon=1e-8)
    report = verify_bound(prob, cfg, alpha=0.01, steps=100, n_seeds=3, seed=1)
    payload = report_to_dict(report)
    text = json.dumps(payload)
    back = json.loads(text)
    for key in ("m1", "m2", "m3", "bound", "empirical_grad_norm_sq",
                "fitted_s", "looseness", "applicable", "checks", "alpha",
                "steps", "seeds"):
        assert key in back, key
    assert back["applicable"] is True


def test_verify_bound_needs_certified_problem():
    from padambench.problems import make_mlp

    prob = make_mlp(task_seed=99)  # no certified constants
    with pytest.raises(ValueError):
        verify_bound(prob, PadamConfig(), alpha=0.01, steps=50, n_seeds=2)


def test_verify_bound_deterministic():
    prob = make_quadratic(3, condition_number=5.0, noise=0.1)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.125, epsilon=1e-8)
    r1 = verify_bound(prob, cfg, alpha=0.02, steps=80, n_seeds=3, seed=2)
    r2 = verify_bound(prob, cfg, alpha=0.02, steps=80, n_seeds=3, seed=2)
    assert r1.empirical_grad_norm_sq == r2.empirical_grad_norm_sq
    assert r1.bound == r2.bound


def test_verify_bound_zero_first_step_denominator():
    # with epsilon = 0 a masked first draw leaves some v_hat_1 coordinate
    # at 0: (v_hat_1 + eps)^-p is infinite on every replica, so the
    # expectation term is undefined and left out, not summed as inf
    report = verify_bound(make_sparse_growth(6, 0.5), PadamConfig(epsilon=0.0),
                          alpha=0.01, steps=50, n_seeds=4)
    assert not report.applicable
    zero = [n for n in report.notes if "zero first-step denominator" in n]
    assert zero == [f"replica {k}: zero first-step denominator, the "
                    "expectation term is undefined" for k in range(4)]
    assert report.inputs.vhat1_term == 0.0
