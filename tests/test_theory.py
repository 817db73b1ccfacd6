"""Unit tests for the convergence-bound machinery.

The frozen constants below were computed with standalone scalar arithmetic
before the module existed; they pin the algebra, not the implementation.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from padambench import harness
from padambench.harness import (
    RunSpec,
    Schedule,
    repeat_runs,
    run,
    select_output_indices,
)
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
    check_smoothness_gap,
    _one_window,
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
    with pytest.raises(HypothesisError, match="must be below 1"):
        bound_q0(REF.replace(beta1=0.95, beta2=0.9, p=0.25))


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        REF.replace(g_inf=0.0)
    with pytest.raises(ValueError):
        REF.replace(steps=1)
    with pytest.raises(ValueError):
        REF.replace(s=0.6)
    with pytest.raises(ValueError):
        REF.replace(alpha=-0.1)
    for bad in ({"smoothness": 0.0}, {"delta_f": -1.0}, {"dim": 0},
                {"beta1": 1.0}, {"beta2": 1.0}, {"p": 0.6},
                {"vhat1_term": math.inf}):
        with pytest.raises(ValueError):
            REF.replace(**bad)


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
    with pytest.raises(ValueError):
        optimal_alpha(10, 10, 0.0, scale=0.0)


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
    res = run_trajectory_checks(trace, prob, cfg)["z_identity"]
    assert res.status == "fail"


def test_moment_bounds_fail_with_dishonest_sup():
    prob, cfg, trace = dense_padam_trace(steps=40)
    dishonest = dataclasses.replace(prob, known_G_inf=1e-6)
    res = run_trajectory_checks(trace, dishonest, cfg)["moment_bounds"]
    assert res.status == "fail"


def test_moment_bounds_inapplicable_outside_box():
    start = np.array([11.0, 0.0, 0.0])  # outside the certified region
    prob, cfg, trace = dense_padam_trace(steps=10, start=start)
    assert trace.box_exit == 1
    res = run_trajectory_checks(trace, prob, cfg)["moment_bounds"]
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
    "sparse-growth": lambda d: make_sparse_growth(d, sparsity=0.5, rho=0.5),
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
                res = check_smoothness_gap(
                    trace, dataclasses.replace(prob, known_L=L), cfg)
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
    with pytest.raises(ValueError, match="at least one seed"):
        verify_bound(make_quadratic(3), PadamConfig(), alpha=0.01, steps=50,
                     n_seeds=0)


def _inf_beyond(threshold):
    """The d=4 quadratic whose stochastic gradient is ``inf`` wherever the
    draw's first coordinate exceeds ``threshold``: a replica stops at the
    first such draw, and every replica does at a threshold below -3."""
    prob = make_quadratic(4, 10.0, 0.1)

    def stoch_grad(x, xi):
        return np.where(xi[..., :1] > threshold, np.inf,
                        prob.stoch_grad(x, xi))

    return dataclasses.replace(prob, stoch_grad=stoch_grad)


def test_verify_bound_with_a_diverging_replica():
    report = verify_bound(_inf_beyond(2.5), PadamConfig(), alpha=0.01,
                          steps=50, n_seeds=6)
    assert not report.applicable
    assert [n for n in report.notes if "diverged" in n] == \
        ["replica 0 diverged"]
    # the other replicas still feed the checks, and they pass
    assert {r.status for r in report.checks.values()} == {"pass"}


def test_verify_bound_with_every_replica_diverging():
    with pytest.raises(HypothesisError, match="every replica diverged"):
        verify_bound(_inf_beyond(-10.0), PadamConfig(), alpha=0.01,
                     steps=50, n_seeds=6)


def test_trajectory_checks_on_a_diverged_trace():
    prob, cfg, trace = dense_padam_trace(steps=200, seed=2,
                                         prob=_inf_beyond(2.5))
    assert trace.diverged
    results = run_trajectory_checks(trace, prob, cfg)
    assert len(results) == 5
    for res in results.values():
        assert (res.status, res.detail) == ("inapplicable", "trace diverged")


def test_verify_bound_deterministic():
    prob = make_quadratic(3, condition_number=5.0, noise=0.1)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.125, epsilon=1e-8)
    r1 = verify_bound(prob, cfg, alpha=0.02, steps=80, n_seeds=3, seed=2)
    r2 = verify_bound(prob, cfg, alpha=0.02, steps=80, n_seeds=3, seed=2)
    assert r1.empirical_grad_norm_sq == r2.empirical_grad_norm_sq
    assert r1.bound == r2.bound


_RECORDED = {
    **_CERTIFIED,
    # noise that can beat the pull back, from the box's edge: some
    # replicas leave the box, and they still count in the left side
    "box-exit": lambda d: make_quadratic(d, 10.0, noise=8.0).with_start(
        np.r_[9.999, np.zeros(d - 1)]),
}


@pytest.mark.parametrize("p", [0.0, 0.125, 0.5])
@pytest.mark.parametrize("case", sorted(_RECORDED))
def test_verify_bound_reads_what_the_run_recorded(case, p, monkeypatch):
    # delta_f and the left side, recomputed with the oracles at the dense
    # iterates, are bitwise what verify_bound read from the trace columns
    prob, cfg = _RECORDED[case](6), PadamConfig(p=p)
    seed, n_seeds, steps, alpha = 3, 17, 40, 0.01
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 0)  # 17 cross a block of 16
    report = verify_bound(prob, cfg, alpha=alpha, steps=steps,
                          n_seeds=n_seeds, seed=seed)
    spec = RunSpec(problem=prob, optimizer="padam",
                   opt_params=dataclasses.asdict(cfg),
                   schedule=Schedule("constant", alpha), steps=steps,
                   seed=seed + 1, init_seed=seed, record_dense=True)
    traces = repeat_runs(spec, n_seeds)
    lhs = []
    for k, trace in enumerate(traces):
        assert not trace.diverged
        rng = np.random.default_rng(seed + 777_000 + k)
        t_out = select_output_indices(trace, None, rng, 1)[0]
        g = prob.exact_grad(trace.dense["x"][t_out - 1])
        lhs.append(float(g @ g))
    delta_f = max(prob.loss(traces[0].dense["x"][0]) - prob.known_f_star, 0.0)
    empirical = math.fsum(lhs) / n_seeds
    for got, want in ((report.inputs.delta_f, delta_f),
                      (report.empirical_grad_norm_sq, empirical),
                      (report.looseness, empirical / report.bound)):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    exits = sum(trace.box_exit is not None for trace in traces)
    assert (0 < exits < n_seeds) == (case == "box-exit"), exits
    assert report.applicable == (exits == 0)


def test_verify_bound_memory_scales_with_the_window():
    # the traces' columns and step numbers grow with T; what else
    # verify_bound holds at once must fit in a few window-sized arrays,
    # where dense histories took 4 * S * T * d floats
    seeds, steps, dim = 16, 10_000, 10
    prob = make_quadratic(dim, 10.0, 0.1)
    verify_bound(prob, PadamConfig(), alpha=0.01, steps=20, n_seeds=2)  # warm
    per_step = 8 * (len(harness._COLUMNS) + 1)  # bytes per replica-step
    window = 8 * seeds * (harness._WINDOW + 1) * dim
    tracemalloc.start()
    try:
        verify_bound(prob, PadamConfig(), alpha=optimal_alpha(dim, steps, 0.5),
                     steps=steps, n_seeds=seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_step * seeds * steps + 16 * window, peak


def test_update_energy_step_sums_match_the_pairwise_sum():
    # the fold sums the update energy step by step; np.sum over the whole
    # (T, d) history, as the dense check once did, agrees to 1e-13
    prob, cfg, trace = dense_padam_trace(steps=400)
    fold = _one_window(trace, cfg, prob)
    raw = trace.dense["vhat"] + cfg.epsilon
    scaled = raw ** -cfg.p
    for got, a in zip(fold.energy[:, 0], (trace.dense["m"], trace.dense["g"])):
        want = float(np.sum((trace.lr[0] * a * scaled) ** 2))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_update_energy_on_an_all_zero_gradient_stream():
    # started at the optimum without noise, every gradient is 0: both
    # energies and their budgets are 0, which the check passes as ratio 0
    prob, _, trace = dense_padam_trace(noise=0.0, start=np.zeros(3))
    assert not trace.dense["g"].any()
    res = run_trajectory_checks(trace, prob)["update_energy"]
    assert (res.status, res.margin) == ("pass", 1.0)
    assert res.detail == "momentum ratio 0.000e+00, gradient ratio 0.000e+00"


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
