"""Acceptance gate for the library.

Each test covers one release criterion, prints a single PASS/FAIL line with
its headline metric, and enforces the stated tolerance and time budget.
Criteria 8 and 9 are benchmark-quality targets on a pinned configuration;
the rest are hard numeric guarantees.
"""

import dataclasses
import math
import time

import numpy as np

from padambench.harness import (
    RunSpec,
    Schedule,
    mean_channel,
    read_trace_csv,
    repeat_runs,
    run,
    select_output_indices,
    write_trace_csv,
)
from padambench.optim import (
    PadamConfig,
    init_state,
    padam_step,
    amsgrad_step,
    sgd_momentum_step,
)
from padambench.problems import (
    finite_diff_grad,
    make_logistic,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    make_sparse_growth,
)
from padambench.theory import (
    bound_value,
    estimate_growth_s,
    optimal_alpha,
    run_trajectory_checks,
    verify_bound,
)


def report(tag, ok, detail, elapsed, budget):
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"[{tag}] {status} {detail} elapsed={elapsed:.2f}s budget={budget:g}s")
    assert ok, f"{tag}: {detail}"
    assert in_budget, f"{tag}: took {elapsed:.2f}s, budget {budget:g}s"


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def test_c01_p_half_reduces_to_amsgrad():
    # p=1/2 must reproduce the max-stabilized baseline step for step,
    # within 1e-12 relative error over 1000 steps.
    t0 = time.perf_counter()
    prob = make_rosenbrock(10)
    rng = np.random.default_rng(0)
    x_p = x_a = 0.1 * rng.standard_normal(10)
    st_p, st_a = init_state(10), init_state(10)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.5, epsilon=1e-8)
    worst = 0.0
    for _ in range(1000):
        g = prob.exact_grad(x_p)
        st_p, out_p = padam_step(st_p, x_p, g, 1e-3, cfg)
        st_a, out_a = amsgrad_step(st_a, x_a, prob.exact_grad(x_a), 1e-3,
                                   beta1=0.9, beta2=0.999, epsilon=1e-8)
        x_p, x_a = out_p.new_x, out_a.new_x
        worst = max(worst, rel_gap(x_p, x_a))
    report("criterion-01", worst <= 1e-12, f"max_rel_gap={worst:.3e}",
           time.perf_counter() - t0, 1.0)


def test_c02_p_zero_reduces_to_momentum_sgd():
    # p=0 with lr a equals heavy-ball momentum with mu=beta1, lr a*(1-beta1),
    # within 1e-12 relative error over 1e4 steps.
    t0 = time.perf_counter()
    prob = make_rosenbrock(10)
    rng = np.random.default_rng(1)
    x_p = x_s = 0.1 * rng.standard_normal(10)
    st_p, st_s = init_state(10), init_state(10)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.0, epsilon=1e-8)
    alpha = 1e-4
    worst = 0.0
    for _ in range(10_000):
        st_p, out_p = padam_step(st_p, x_p, prob.exact_grad(x_p), alpha, cfg)
        st_s, out_s = sgd_momentum_step(st_s, x_s, prob.exact_grad(x_s),
                                        alpha * (1.0 - 0.9), mu=0.9)
        x_p, x_s = out_p.new_x, out_s.new_x
        worst = max(worst, rel_gap(x_p, x_s))
    report("criterion-02", worst <= 1e-12, f"max_rel_gap={worst:.3e}",
           time.perf_counter() - t0, 1.0)


def test_c03_trajectory_inequalities_on_randomized_traces():
    # every per-step identity and inequality backing the convergence bound
    # must hold on 20 randomized runs that satisfy the preconditions
    t0 = time.perf_counter()
    master = np.random.default_rng(42)
    failures = []
    for k in range(20):
        kind = k % 3
        if kind == 0:
            prob = make_quadratic(int(master.integers(3, 9)),
                                  condition_number=float(master.uniform(1, 20)),
                                  noise=float(master.uniform(0.05, 0.5)))
        elif kind == 1:
            dim = int(master.integers(4, 11))
            sparsity = float(master.uniform(0.3, 1.0))
            master.integers(0, 100)  # unread: without it the later draws,
            # and so every case, would shift
            prob = make_sparse_growth(dim, sparsity=sparsity,
                                      rho=float(master.uniform(0.0, 1.0)))
        else:
            prob = make_logistic(int(master.integers(3, 7)),
                                 n_samples=int(master.integers(30, 81)),
                                 seed=int(master.integers(0, 100)))
        while True:
            beta1 = float(master.uniform(0.5, 0.95))
            beta2 = float(master.uniform(0.95, 0.9999))
            p = float(master.uniform(0.0, 0.5))
            if beta1 / beta2 ** (2 * p) < 0.995:
                break
        cfg = PadamConfig(beta1=beta1, beta2=beta2, p=p,
                          epsilon=0.0 if k % 4 == 0 else 1e-8)
        spec = RunSpec(
            problem=prob, optimizer="padam",
            opt_params={"beta1": cfg.beta1, "beta2": cfg.beta2, "p": cfg.p,
                        "epsilon": cfg.epsilon},
            schedule=Schedule("constant", float(master.uniform(0.005, 0.05))),
            steps=int(master.integers(150, 351)),
            seed=int(master.integers(0, 10_000)),
            record_dense=True,
        )
        trace = run(spec)
        for name, res in run_trajectory_checks(trace, prob, cfg).items():
            if res.status != "pass":
                failures.append(f"trace{k}:{name}:{res.status}:{res.detail}")
    report("criterion-03", not failures,
           f"traces=20 failures={failures or 'none'}",
           time.perf_counter() - t0, 30.0)


def test_c04_gradient_norm_bound_holds():
    # expected squared gradient norm at the randomized output must sit below
    # the certified bound on the clipped-noise quadratic, for 100 seeds at
    # each horizon; the small-p variant must agree with the q=0 bound
    t0 = time.perf_counter()
    prob = make_quadratic(10, condition_number=10.0, noise=0.1)
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.125, epsilon=1e-8)
    lines, ok = [], True
    for steps in (100, 1000, 10_000):
        alpha = optimal_alpha(10, steps, 0.5)
        rep = verify_bound(prob, cfg, alpha=alpha, steps=steps,
                           n_seeds=100, seed=0)
        ok = ok and rep.applicable and rep.empirical_grad_norm_sq <= rep.bound
        q0_direct = bound_value(rep.inputs.replace(q=0.0))
        ok = ok and rep.bound_small_p is not None
        ok = ok and abs(rep.bound_small_p - q0_direct) / q0_direct <= 1e-12
        lines.append(f"T={steps} looseness={rep.looseness:.3e}")
    report("criterion-04", ok, " ".join(lines), time.perf_counter() - t0, 120.0)


def test_c05_growth_exponent_estimation():
    # the growth-exponent estimator must land within 0.1 of the analytic
    # target for three activation regimes, probed at the box corner
    t0 = time.perf_counter()
    targets = [
        (1.0, 0.0, 0.5),   # always-active: exact 1/2
        (1.0, 0.5, 0.25),  # decaying activation: sqrt growth of the sum
        (0.25, 1.0, 0.0),  # sparse and decaying: logarithmic growth
    ]
    steps = 100_000
    details, ok = [], True
    for sparsity, rho, target in targets:
        prob = make_sparse_growth(10, sparsity=sparsity, rho=rho)
        corner = np.full(10, prob.box)
        rng = np.random.default_rng(7)
        grads = np.empty((steps, 10))
        for t in range(1, steps + 1):
            grads[t - 1] = prob.stoch_grad(corner, prob.sample_xi(rng, t))
        est = estimate_growth_s(grads, g_inf=prob.known_G_inf)
        ok = ok and abs(est.s - target) <= 0.1
        details.append(f"target={target} got={est.s:.3f}")
    report("criterion-05", ok, " ".join(details),
           time.perf_counter() - t0, 30.0)


def test_c06_output_selection_distribution():
    # a million output draws must match the lr-proportional law under both a
    # constant and a decaying schedule (chi-square GOF, p > 1e-3)
    from scipy.stats import chisquare

    t0 = time.perf_counter()
    prob = make_quadratic(3, condition_number=5.0, noise=0.1)
    details, ok = [], True
    for sched, steps in ((Schedule("constant", 0.05), 50),
                         (Schedule("inv_sqrt", 0.05), 64)):
        spec = RunSpec(problem=prob, optimizer="padam",
                       opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.125,
                                   "epsilon": 1e-8},
                       schedule=sched, steps=steps, seed=0, record_dense=True)
        trace = run(spec)
        idx = select_output_indices(trace, sched, np.random.default_rng(11),
                                    1_000_000)
        counts = np.bincount(idx, minlength=steps + 1)[2:]
        weights = trace.lr[:-1] / trace.lr[:-1].sum()
        pval = chisquare(counts, f_exp=weights * 1_000_000).pvalue
        ok = ok and pval > 1e-3
        details.append(f"{sched.kind}: p={pval:.4f}")
    report("criterion-06", ok, " ".join(details),
           time.perf_counter() - t0, 10.0)


def test_c07_analytic_gradients_match_finite_differences():
    # every problem's analytic gradient agrees with central differences to
    # 1e-5 relative error at 20 random points
    t0 = time.perf_counter()
    cases = [
        ("quadratic", make_quadratic(8, condition_number=10.0, noise=0.3), 1.0),
        ("rosenbrock", make_rosenbrock(10), 0.5),
        ("logistic", make_logistic(6, n_samples=60, seed=0), 0.5),
        ("sparse_growth", make_sparse_growth(7, sparsity=0.5, rho=0.5), 1.0),
        ("mlp", make_mlp(task_seed=99), 0.2),
    ]
    rng = np.random.default_rng(20)
    worst_by_problem, ok = [], True
    for name, prob, scale in cases:
        worst = 0.0
        for _ in range(20):
            x = scale * rng.standard_normal(prob.dim)
            fd = finite_diff_grad(prob, x, h=1e-6)
            g = prob.exact_grad(x)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
        ok = ok and worst <= 1e-5
        worst_by_problem.append(f"{name}={worst:.2e}")
    report("criterion-07", ok, " ".join(worst_by_problem),
           time.perf_counter() - t0, 10.0)


def test_c08_mlp_benchmark_ordering():
    # pinned two-blob classification run: the partially adaptive step at
    # p=1/8 must beat both fully adaptive baselines and stay within 10% of
    # tuned momentum SGD (mean final loss over 5 seeds, 2000 steps)
    t0 = time.perf_counter()
    prob = make_mlp(task_seed=99)
    settings = {
        "padam": ({"beta1": 0.9, "beta2": 0.999, "p": 0.125, "epsilon": 1e-8},
                  0.1),
        "adam": ({"beta1": 0.9, "beta2": 0.99, "epsilon": 1e-8}, 0.001),
        "amsgrad": ({"beta1": 0.9, "beta2": 0.99, "epsilon": 1e-8}, 0.001),
        "sgdm": ({"mu": 0.9}, 0.1),
    }
    final, initial = {}, []
    for name, (params, lr) in settings.items():
        spec = RunSpec(problem=prob, optimizer=name, opt_params=params,
                       schedule=Schedule("constant", lr), steps=2000, seed=0)
        traces = repeat_runs(spec, n_seeds=5)
        final[name] = float(np.mean([tr.loss[-1] for tr in traces]))
        initial.extend(tr.loss[0] for tr in traces)
    ok = final["padam"] <= min(final["adam"], final["amsgrad"])
    ok = ok and final["padam"] <= 1.10 * final["sgdm"]
    # guard against a vacuous ordering: every method must have cut the
    # starting loss by at least 30%
    ok = ok and max(final.values()) < 0.7 * float(np.mean(initial))
    detail = " ".join(f"{k}={v:.4f}" for k, v in final.items())
    report("criterion-08", ok, detail, time.perf_counter() - t0, 180.0)


def test_c09_horizon_scaling_of_gradient_norm():
    # on the always-active decaying-mask problem with the prescribed step
    # size, the best squared gradient norm must decay like T^c with
    # c in [-1.1, -0.4] across five horizons (8 seeds each)
    t0 = time.perf_counter()
    prob = make_sparse_growth(10, sparsity=1.0, rho=1.0)
    horizons = [100, 316, 1000, 3162, 10_000]
    ys = []
    for steps in horizons:
        alpha = optimal_alpha(10, steps, 0.0, scale=2.5)
        spec = RunSpec(problem=prob, optimizer="padam",
                       opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.125,
                                   "epsilon": 1e-8},
                       schedule=Schedule("constant", alpha), steps=steps,
                       seed=0)
        traces = repeat_runs(spec, n_seeds=8)
        ys.append(math.fsum(tr.grad_norm_sq.min() for tr in traces) / 8.0)
    slope = np.polyfit(np.log(horizons), np.log(ys), 1)[0]
    ok = -1.1 <= slope <= -0.4
    report("criterion-09", ok, f"slope={slope:.3f}",
           time.perf_counter() - t0, 180.0)


def test_c10_determinism_and_persistence(tmp_path):
    # identical specs give bitwise identical traces; CSV persistence is
    # lossless; replicas advanced as one block equal lone runs bitwise
    t0 = time.perf_counter()
    prob = make_quadratic(5, condition_number=8.0, noise=0.1)
    spec = RunSpec(problem=prob, optimizer="padam",
                   opt_params={"beta1": 0.9, "beta2": 0.999, "p": 0.125,
                               "epsilon": 1e-8},
                   schedule=Schedule("inv_sqrt", 0.05), steps=500, seed=7,
                   record_dense=True)
    a, b = run(spec), run(spec)
    bit_ok = all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("t", "loss", "grad_norm_sq", "lr", "eff_lr_min",
                  "eff_lr_max", "vhat_min", "vhat_max")
    ) and np.array_equal(a.dense["x"], b.dense["x"]) \
      and np.array_equal(a.dense["x_final"], b.dense["x_final"])

    path = tmp_path / "trace.csv"
    write_trace_csv(a, path)
    back = read_trace_csv(path)
    csv_ok = all(
        np.array_equal(getattr(a, f), getattr(back, f))
        for f in ("t", "loss", "grad_norm_sq", "lr", "eff_lr_min",
                  "eff_lr_max", "vhat_min", "vhat_max")
    )

    batched = repeat_runs(spec, n_seeds=6)
    serial = [run(dataclasses.replace(spec, seed=spec.seed + k))
              for k in range(6)]
    batch_ok = all(
        s.loss.tobytes() == b.loss.tobytes()
        and s.grad_norm_sq.tobytes() == b.grad_norm_sq.tobytes()
        and s.dense["x_final"].tobytes() == b.dense["x_final"].tobytes()
        for s, b in zip(serial, batched)
    )
    mean_channel(serial, "loss")  # aggregation path stays exercised
    ok = bit_ok and csv_ok and batch_ok
    report("criterion-10", ok,
           f"bitwise={bit_ok} csv={csv_ok} batched={batch_ok}",
           time.perf_counter() - t0, 60.0)
