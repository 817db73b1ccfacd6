"""Unit tests for the optimizer step rules.

Frozen numeric expectations were hand-unrolled with plain scalar arithmetic
(see the inline comments) before the library was written, so these tests are
independent of the implementation under test.
"""

import math
import re

import numpy as np
import pytest

from padambench import RunSpec, Schedule, make_quadratic, run
from padambench.optim import (
    DimensionError,
    NumericError,
    OptState,
    REGISTRY,
    PadamConfig,
    adagrad_step,
    adam_step,
    adamw_step,
    amsgrad_step,
    init_state,
    padam_step,
    sgd_momentum_step,
)


def test_init_state_zeroes():
    st = init_state(3)
    assert st.t == 0
    for arr in (st.m, st.v, st.v_hat):
        assert arr.shape == (3,)
        assert arr.dtype == np.float64
        assert np.all(arr == 0.0)


def test_init_state_large_dim():
    st = init_state(10**6)
    assert st.m.shape == (10**6,)
    assert not st.m.any()


def test_init_state_rejects_zero_dim():
    with pytest.raises(DimensionError):
        init_state(0)


def test_padam_first_step_closed_form():
    # d=1, g=1, b1=.9, b2=.999, p=.5, eps=0, lr=.1:
    # m=(1-b1), v=vhat=(1-b2), step = lr*(1-b1)/sqrt(1-b2) ~ 0.316228
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.5, epsilon=0.0)
    st, out = padam_step(init_state(1), np.array([2.0]), np.array([1.0]), 0.1, cfg)
    expected_step = (0.1 * (1.0 - 0.9)) / (1.0 - 0.999) ** 0.5
    assert out.new_x[0] == 2.0 - expected_step
    assert abs(expected_step - 0.316228) < 1e-6
    assert st.t == 1
    assert st.m[0] == 1.0 - 0.9
    assert st.v[0] == 1.0 - 0.999
    assert st.v_hat[0] == st.v[0]


def test_padam_two_steps_frozen():
    # Hand unroll at b1=.9, b2=.999, p=.25, eps=0, lr=.1, x0=1, g=1 then g=-2:
    #   step1: m=.1, v=vhat=.001, denom=.001**.25, x=0.94376586748096514
    #   step2: m=-.11, v=.0049990, vhat=.0049990, x=0.98513457009519689
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.25, epsilon=0.0)
    x = np.array([1.0])
    st = init_state(1)
    st, out = padam_step(st, x, np.array([1.0]), 0.1, cfg)
    np.testing.assert_array_equal(out.new_x, [0.94376586748096514])
    st, out = padam_step(st, out.new_x, np.array([-2.0]), 0.1, cfg)
    np.testing.assert_array_equal(st.m, [-0.10999999999999997])
    np.testing.assert_array_equal(st.v, [0.0049990000000000043])
    np.testing.assert_array_equal(st.v_hat, [0.0049990000000000043])
    np.testing.assert_array_equal(out.new_x, [0.98513457009519689])


def test_padam_zero_gradient_is_fixed_point():
    cfg = PadamConfig(epsilon=1e-8)
    x = np.array([1.0, -2.0])
    st, out = padam_step(init_state(2), x, np.zeros(2), 0.1, cfg)
    np.testing.assert_array_equal(out.new_x, x)


def test_padam_zero_over_zero_convention():
    # eps=0 and vhat=0 forces m=0 on the same coordinates; update is 0, not NaN.
    cfg = PadamConfig(p=0.3, epsilon=0.0)
    x = np.array([1.0, 2.0])
    st, out = padam_step(init_state(2), x, np.zeros(2), 0.1, cfg)
    np.testing.assert_array_equal(out.new_x, x)
    assert st.t == 1
    # with a zero denominator the effective lr is unbounded
    assert math.isinf(out.effective_lr_max)


def test_padam_zero_denominator_with_signal_raises():
    # Corrupted state: momentum without any second-moment mass is impossible
    # for real runs and must be reported, naming the coordinate.
    bad = OptState(m=np.array([1.0, 0.0]), v=np.zeros(2), v_hat=np.zeros(2), t=1)
    cfg = PadamConfig(p=0.3, epsilon=0.0)
    with pytest.raises(NumericError, match="coordinate 0"):
        padam_step(bad, np.zeros(2), np.zeros(2), 0.1, cfg)


@pytest.mark.parametrize("rule", ["padam", "amsgrad"])
def test_epsilon_zero_underflowing_gradient_raises(rule):
    # (1 - 0.999) * (1e-163)**2 underflows to 0, so v_hat stays 0 while the
    # momentum 0.1 * 1e-163 does not: a state this module produced raises
    cfg = PadamConfig(epsilon=0.0)

    def step(g):
        if rule == "padam":
            return padam_step(init_state(2), np.ones(2), np.array(g), 0.1, cfg)
        return amsgrad_step(init_state(2), np.ones(2), np.array(g), 0.1,
                            cfg.beta1, cfg.beta2, 0.0)

    with pytest.raises(NumericError, match="coordinate 0"):
        step([1e-163, 1.0])
    # at 1e-160 the product is subnormal, not zero, and the step goes on
    st, out = step([1e-160, 1.0])
    assert st.v_hat[0] > 0.0 and np.all(np.isfinite(out.new_x))


def test_block_zero_denominator_names_row_and_coordinate():
    # the lone step names the coordinate; a block names the row with it
    cfg = PadamConfig(epsilon=0.0)
    g = np.ones((3, 4))
    g[2, 1] = 1e-170
    block = OptState(m=np.zeros((3, 4)), v=np.zeros((3, 4)),
                     v_hat=np.zeros((3, 4)))
    with pytest.raises(NumericError) as lone:
        padam_step(init_state(4), np.ones(4), g[2], 0.1, cfg)
    assert str(lone.value).endswith("at coordinate 1")
    with pytest.raises(NumericError) as rows:
        padam_step(block, np.ones((3, 4)), g, 0.1, cfg)
    assert str(rows.value).endswith("at row 2, coordinate 1")


def test_numeric_error_rows_are_the_block_rows_at_fault():
    # the harness stops exactly these rows; a lone step has none to name
    cfg = PadamConfig(epsilon=0.0)
    g = np.ones((3, 4))
    g[0, 3] = g[2, 1] = g[2, 2] = 1e-170
    block = OptState(m=np.zeros((3, 4)), v=np.zeros((3, 4)),
                     v_hat=np.zeros((3, 4)))
    with pytest.raises(NumericError) as rows:
        padam_step(block, np.ones((3, 4)), g, 0.1, cfg)
    assert rows.value.rows == [0, 2]
    with pytest.raises(NumericError) as lone:
        padam_step(init_state(4), np.ones(4), g[2], 0.1, cfg)
    assert lone.value.rows == ()


BLOCK_RULES = {
    "padam": lambda s, x, g, lr: padam_step(s, x, g, lr,
                                            PadamConfig(p=0.3, epsilon=0.0)),
    "padam_p0": lambda s, x, g, lr: padam_step(s, x, g, lr,
                                               PadamConfig(p=0.0)),
    "amsgrad": lambda s, x, g, lr: amsgrad_step(s, x, g, lr, 0.9, 0.999, 0.0),
    "adam": lambda s, x, g, lr: adam_step(s, x, g, lr, 0.9, 0.999, 0.0),
    "adamw": lambda s, x, g, lr: adamw_step(s, x, g, lr, 0.9, 0.999, 1e-8,
                                            0.05),
    "sgdm": lambda s, x, g, lr: sgd_momentum_step(s, x, g, lr, 0.9),
    "adagrad": lambda s, x, g, lr: adagrad_step(s, x, g, lr, 0.0),
}


@pytest.mark.parametrize("lr", [0.0, 0.05])
@pytest.mark.parametrize("rule", sorted(BLOCK_RULES))
def test_block_step_equals_row_steps(rule, lr):
    # a (S, d) block is S independent iterates: every row of the result,
    # the effective-lr extrema included, is bitwise the row stepped alone;
    # row 1 keeps a dead coordinate (zero gradient under epsilon = 0)
    step = BLOCK_RULES[rule]
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 4))
    block = OptState(m=np.zeros((3, 4)), v=np.zeros((3, 4)),
                     v_hat=np.zeros((3, 4)))
    rows = [init_state(4) for _ in range(3)]
    for _ in range(4):
        g = rng.standard_normal((3, 4))
        g[1, 2] = 0.0
        block, out = step(block, x, g, lr)
        lo = np.broadcast_to(out.effective_lr_min, (3,))
        hi = np.broadcast_to(out.effective_lr_max, (3,))
        for j in range(3):
            rows[j], row_out = step(rows[j], x[j], g[j], lr)
            assert isinstance(row_out.effective_lr_min, float)
            assert isinstance(row_out.effective_lr_max, float)
            assert lo[j] == row_out.effective_lr_min
            assert hi[j] == row_out.effective_lr_max
            assert out.new_x[j].tobytes() == row_out.new_x.tobytes()
            for name in ("m", "v", "v_hat"):
                assert getattr(block, name)[j].tobytes() \
                    == getattr(rows[j], name).tobytes()
        x = out.new_x


def test_padam_dimension_mismatch():
    cfg = PadamConfig()
    with pytest.raises(DimensionError):
        padam_step(init_state(2), np.zeros(2), np.zeros(3), 0.1, cfg)
    with pytest.raises(DimensionError):
        padam_step(init_state(3), np.zeros(2), np.zeros(2), 0.1, cfg)


def test_padam_rejects_nonfinite_gradient():
    cfg = PadamConfig()
    with pytest.raises(NumericError):
        padam_step(init_state(2), np.zeros(2), np.array([1.0, np.nan]), 0.1, cfg)


def test_padam_rejects_negative_lr():
    with pytest.raises(ValueError, match="must be nonnegative"):
        padam_step(init_state(2), np.zeros(2), np.ones(2), -0.1,
                   PadamConfig())


def test_padam_config_validation():
    with pytest.raises(ValueError):
        PadamConfig(p=0.51)
    with pytest.raises(ValueError):
        PadamConfig(p=-0.01)
    with pytest.raises(ValueError):
        PadamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        PadamConfig(beta2=0.0)
    with pytest.raises(ValueError):
        PadamConfig(epsilon=-1e-9)
    # the image-classification default regime is accepted
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.125, epsilon=1e-8)
    assert cfg.gamma < 1.0


def test_padam_p_zero_denominator_is_exactly_one():
    cfg = PadamConfig(p=0.0, epsilon=0.123)  # epsilon irrelevant at p=0
    x = np.array([0.0, 0.0])
    g = np.array([3.0, -1.0])
    st, out = padam_step(init_state(2), x, g, 0.5, cfg)
    np.testing.assert_array_equal(out.new_x, -0.5 * st.m)
    assert out.effective_lr_min == out.effective_lr_max == 0.5


# optimizer -> its public step, given the parameters REGISTRY binds
PUBLIC_STEPS = {
    "padam": lambda s, x, g, lr, kw: padam_step(s, x, g, lr,
                                                PadamConfig(**kw)),
    "adam": lambda s, x, g, lr, kw: adam_step(s, x, g, lr, **kw),
    "amsgrad": lambda s, x, g, lr, kw: amsgrad_step(s, x, g, lr, **kw),
    "adamw": lambda s, x, g, lr, kw: adamw_step(s, x, g, lr, **kw),
    "sgdm": lambda s, x, g, lr, kw: sgd_momentum_step(s, x, g, lr, **kw),
    "adagrad": lambda s, x, g, lr, kw: adagrad_step(s, x, g, lr, **kw),
}


def test_padam_does_not_mutate_inputs():
    # every public step, from a state some steps have filled
    x = np.array([1.0, 2.0])
    g = np.array([0.5, -0.5])
    for name, step in PUBLIC_STEPS.items():
        kw = REGISTRY[name].defaults
        st0, _ = step(step(init_state(2), x, -g, 0.1, kw)[0], x, g, 0.1, kw)
        before = [a.tobytes() for a in (x, g, st0.m, st0.v, st0.v_hat)]
        st1, _ = step(st0, x, g, 0.1, kw)
        after = [a.tobytes() for a in (x, g, st0.m, st0.v, st0.v_hat)]
        assert after == before, name
        assert (st0.t, st1.t) == (2, 3)


def test_padam_accepts_float32_input():
    cfg = PadamConfig()
    st, out = padam_step(
        init_state(2), np.zeros(2, np.float32), np.ones(2, np.float32), 0.1, cfg
    )
    assert out.new_x.dtype == np.float64
    assert st.m.dtype == np.float64


def test_step_homogeneity_in_lr():
    # scaling lr by a power of two scales the update bitwise-exactly; probed
    # at x=0 where new_x equals the negated update with no additive rounding
    cfg = PadamConfig(p=0.25)
    rng = np.random.default_rng(3)
    st = init_state(4)
    x = np.zeros(4)
    for _ in range(5):
        g = rng.standard_normal(4)
        st1, out1 = padam_step(st, x, g, 0.01, cfg)
        _, out2 = padam_step(st, x, g, 0.04, cfg)
        np.testing.assert_array_equal(4.0 * out1.new_x, out2.new_x)
        assert out2.effective_lr_min == 4.0 * out1.effective_lr_min
        assert out2.effective_lr_max == 4.0 * out1.effective_lr_max
        st = st1


def test_amsgrad_two_steps_frozen():
    # b1=.9, b2=.99, eps=0, lr=.01, x0=.5, g=3 then g=-1 (hand unroll):
    #   m=.3, v=vhat=.09, x=.49
    #   m=.17, v=vhat=.0991, x=0.48459977202708671
    st = init_state(1)
    x = np.array([0.5])
    st, out = amsgrad_step(st, x, np.array([3.0]), 0.01, beta1=0.9, beta2=0.99, epsilon=0.0)
    np.testing.assert_array_equal(st.m, [0.29999999999999993])
    np.testing.assert_array_equal(out.new_x, [0.48999999999999999])
    st, out = amsgrad_step(st, out.new_x, np.array([-1.0]), 0.01, beta1=0.9, beta2=0.99, epsilon=0.0)
    np.testing.assert_array_equal(st.v_hat, [0.099100000000000091])
    np.testing.assert_array_equal(out.new_x, [0.48459977202708671])


def test_amsgrad_first_step_matches_padam_half():
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.5, epsilon=0.0)
    x = np.array([2.0])
    g = np.array([1.0])
    _, out_p = padam_step(init_state(1), x, g, 0.1, cfg)
    _, out_a = amsgrad_step(init_state(1), x, g, 0.1, beta1=0.9, beta2=0.999, epsilon=0.0)
    np.testing.assert_allclose(out_p.new_x, out_a.new_x, rtol=1e-15, atol=0)


def test_amsgrad_beta2_one_keeps_v_zero():
    # v never accumulates; denominator is sqrt(eps) forever
    st = init_state(1)
    x = np.array([0.0])
    for g in (1.0, -2.0):
        st, out = amsgrad_step(st, x, np.array([g]), 0.1, beta1=0.0, beta2=1.0, epsilon=1e-4)
        assert st.v[0] == 0.0
        np.testing.assert_array_equal(out.new_x, x - 0.1 * np.array([g]) / 1e-2)
        x = out.new_x


def test_vhat_monotone_under_random_gradients():
    cfg = PadamConfig(p=0.2)
    rng = np.random.default_rng(11)
    st = init_state(6)
    x = np.zeros(6)
    prev = st.v_hat
    for _ in range(200):
        st, out = padam_step(st, x, rng.standard_normal(6), 0.01, cfg)
        assert np.all(st.v_hat >= prev)
        assert np.all(st.v >= 0.0) and np.all(st.v_hat >= 0.0)
        prev = st.v_hat
        x = out.new_x


def test_moment_bounds_alternating_worst_case():
    # alternating +/-G gradients: v_t = G^2 (1 - b2^t) exactly, |m_t| <= G
    G = 2.0
    b1, b2 = 0.9, 0.99
    st = init_state(1)
    x = np.zeros(1)
    for t in range(1, 301):
        g = np.array([G if t % 2 == 0 else -G])
        st, out = amsgrad_step(st, x, g, 0.01, beta1=b1, beta2=b2, epsilon=1e-8)
        assert abs(st.m[0]) <= G * (1 + 1e-12)
        assert st.v_hat[0] <= G * G * (1 + 1e-12)
        x = out.new_x
    np.testing.assert_allclose(st.v[0], G * G * (1 - b2**300), rtol=1e-12)


def test_adam_first_step_frozen():
    # g=1, b1=.9, b2=.999, eps=1e-8, lr=.001; in float arithmetic
    # m=(1-.9)*1=0.09999999999999998, v=(1-.999)*1, x=-lr*m/sqrt(v+eps)
    st, out = adam_step(
        init_state(1), np.zeros(1), np.ones(1), 0.001, beta1=0.9, beta2=0.999, epsilon=1e-8
    )
    np.testing.assert_array_equal(out.new_x, [-0.003162261848898661])
    assert np.all(st.v_hat == 0.0)  # adam never touches the max accumulator


def test_adam_equals_amsgrad_on_monotone_v():
    # growing |g| keeps v nondecreasing, so the max accumulator is inert
    rng = np.random.default_rng(5)
    u = rng.standard_normal(3)
    st_a, st_b = init_state(3), init_state(3)
    xa = xb = np.zeros(3)
    for t in range(1, 40):
        g = t * u
        st_a, oa = adam_step(st_a, xa, g, 0.01, 0.9, 0.999, 1e-8)
        st_b, ob = amsgrad_step(st_b, xb, g, 0.01, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(oa.new_x, ob.new_x)
        xa, xb = oa.new_x, ob.new_x


def test_adam_effective_lr_grows_where_amsgrad_clips():
    # alternating large/small gradients let adam's v decay between spikes,
    # raising its effective lr; amsgrad's max accumulator forbids that
    st_a, st_b = init_state(1), init_state(1)
    x = np.zeros(1)
    adam_eff, ams_eff = [], []
    for t in range(10):
        g = np.array([10.0 if t % 2 == 0 else -0.1])
        st_a, oa = adam_step(st_a, x, g, 0.01, 0.9, 0.9, 1e-12)
        st_b, ob = amsgrad_step(st_b, x, g, 0.01, 0.9, 0.9, 1e-12)
        adam_eff.append(oa.effective_lr_max)
        ams_eff.append(ob.effective_lr_max)
    assert any(b > a * (1 + 1e-9) for a, b in zip(adam_eff, adam_eff[1:]))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ams_eff, ams_eff[1:]))


def test_sgd_momentum_frozen_two_steps():
    # mu=.9, lr=1, g=1 twice: x decreases by 1 then 1.9
    st = init_state(1)
    x = np.zeros(1)
    st, out = sgd_momentum_step(st, x, np.ones(1), 1.0, mu=0.9)
    assert out.new_x[0] == -1.0
    st, out = sgd_momentum_step(st, out.new_x, np.ones(1), 1.0, mu=0.9)
    assert out.new_x[0] == -1.0 - 1.9
    assert out.effective_lr_min == out.effective_lr_max == 1.0


def test_sgd_momentum_mu_zero_is_plain_sgd():
    g = np.array([3.0, -4.0])
    x = np.array([1.0, 1.0])
    _, out = sgd_momentum_step(init_state(2), x, g, 0.5, mu=0.0)
    np.testing.assert_array_equal(out.new_x, x - 0.5 * g)


def test_padam_p_zero_matches_rescaled_momentum():
    # lr=a at p=0 equals sgdm(mu=b1, lr=a*(1-b1)); quick 300-step version of
    # the full acceptance check
    cfg = PadamConfig(beta1=0.9, beta2=0.999, p=0.0, epsilon=1e-8)
    rng = np.random.default_rng(momentum_seed := 17)
    xp = xs = 0.1 * rng.standard_normal(5)
    sp, ss = init_state(5), init_state(5)
    alpha = 0.02
    for _ in range(300):
        g = rng.standard_normal(5)
        sp, op = padam_step(sp, xp, g, alpha, cfg)
        ss, os_ = sgd_momentum_step(ss, xs, g, alpha * (1.0 - 0.9), mu=0.9)
        xp, xs = op.new_x, os_.new_x
        rel = np.max(np.abs(xp - xs) / (1.0 + np.abs(xs)))
        assert rel <= 1e-12


def test_adagrad_frozen_steps():
    # lr=1, eps=0: t=1 g=2 -> v=4, x=-1; t=2 g=1 -> v=2.5, x=-1.4472135954999579
    st = init_state(1)
    x = np.zeros(1)
    st, out = adagrad_step(st, x, np.array([2.0]), 1.0, epsilon=0.0)
    assert st.v[0] == 4.0
    assert out.new_x[0] == -1.0
    st, out = adagrad_step(st, out.new_x, np.array([1.0]), 1.0, epsilon=0.0)
    assert st.v[0] == 2.5
    np.testing.assert_array_equal(out.new_x, [-1.4472135954999579])


def test_adagrad_constant_gradient_closed_form():
    # constant g=c keeps the running mean at c^2; step magnitude is lr/sqrt(t)
    st = init_state(1)
    x = np.zeros(1)
    for t in range(1, 6):
        st, out = adagrad_step(st, x, np.array([3.0]), 0.7, epsilon=0.0)
        assert st.v[0] == 9.0
        np.testing.assert_allclose(x[0] - out.new_x[0], 0.7 / math.sqrt(t), rtol=1e-15)
        x = out.new_x


def test_adagrad_zero_gradient_never_moves():
    st = init_state(2)
    x = np.array([1.0, 2.0])
    for _ in range(5):
        st, out = adagrad_step(st, x, np.zeros(2), 1.0, epsilon=1e-8)
        np.testing.assert_array_equal(out.new_x, x)
        x = out.new_x


def test_adamw_zero_decay_is_adam():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    g = rng.standard_normal(4)
    _, oa = adam_step(init_state(4), x, g, 0.01, 0.9, 0.999, 1e-8)
    _, ow = adamw_step(init_state(4), x, g, 0.01, 0.9, 0.999, 1e-8, weight_decay=0.0)
    np.testing.assert_array_equal(oa.new_x, ow.new_x)


def test_adamw_pure_decay():
    # g=0, m=0, wd=.1, lr=.1, x=1 -> 0.99 up to float evaluation order
    _, out = adamw_step(
        init_state(1), np.ones(1), np.zeros(1), 0.1, 0.9, 0.999, 1e-8, weight_decay=0.1
    )
    assert out.new_x[0] == 1.0 - 0.1 * 0.1 * 1.0


def test_adamw_decay_uses_prestep_x():
    # frozen hand unroll: x0=2, g=1, lr=.001, wd=.01 -> 1.9968177381511014
    _, out = adamw_step(
        init_state(1), np.array([2.0]), np.ones(1), 0.001, 0.9, 0.999, 1e-8, weight_decay=0.01
    )
    np.testing.assert_array_equal(out.new_x, [1.9968177381511014])
    # two-step unroll distinguishes pre-step from post-step decay
    st = init_state(1)
    x = np.array([2.0])
    for g in (1.0, 1.0):
        sa, oa = adam_step(st, x, np.array([g]), 0.001, 0.9, 0.999, 1e-8)
        st, ow = adamw_step(st, x, np.array([g]), 0.001, 0.9, 0.999, 1e-8, weight_decay=0.01)
        np.testing.assert_array_equal(ow.new_x, oa.new_x - 0.001 * 0.01 * x)
        x = ow.new_x


def test_zero_gradient_absorbing_from_rest():
    cfg = PadamConfig()
    st = init_state(3)
    x = np.array([1.0, -1.0, 0.5])
    for _ in range(50):
        st, out = padam_step(st, x, np.zeros(3), 0.1, cfg)
        np.testing.assert_array_equal(out.new_x, x)
        x = out.new_x


def test_effective_lr_bounds_basic():
    st = OptState(m=np.zeros(2), v=np.zeros(2), v_hat=np.array([0.04, 3e-8]), t=5)
    # a zero gradient leaves v_hat as it is
    _, out = padam_step(st, np.ones(2), np.zeros(2), 1.0,
                        PadamConfig(p=0.125, epsilon=0.0))
    lo, hi = out.effective_lr_min, out.effective_lr_max
    np.testing.assert_allclose(hi / lo, (0.04 / 3e-8) ** 0.125, rtol=1e-12)
    # representative vhat extremes give a ~0.55 spread of vhat^p itself
    np.testing.assert_allclose(0.04**0.125 - (3e-8) ** 0.125, 0.554, atol=5e-4)


@pytest.mark.parametrize("v_hat, p, epsilon, expected", [
    pytest.param([1.0, 2.0, 3.0], 0.0, 1e-8, 0.2, id="p0"),
    # a zero base at p = 0: 0.0**0.0 is 1, so the coordinate is not dead
    pytest.param([0.0, 2.0, 3.0], 0.0, 0.0, 0.2, id="p0-eps0-zero-vhat"),
    pytest.param([4.0, 4.0], 0.5, 0.0, 0.1, id="uniform"),
])
def test_effective_lr_bounds_p_zero_and_uniform(v_hat, p, epsilon, expected):
    v_hat = np.array(v_hat)
    st = OptState(m=np.zeros_like(v_hat), v=v_hat, v_hat=v_hat, t=1)
    # a step whose squared gradient stays below v_hat leaves it unchanged
    g = np.where(v_hat > 0.0, 0.5, 0.0)
    _, out = padam_step(st, np.ones_like(v_hat), g, 0.2,
                        PadamConfig(p=p, epsilon=epsilon))
    assert (out.effective_lr_min, out.effective_lr_max) == (expected, expected)
    assert np.isfinite(out.new_x).all()


# (optimizer, parameters over its defaults): epsilon = 0 makes dead
# coordinates, and a strict rule's stepper writes fresh arrays there
_BOUND_CASES = [(name, {}) for name in REGISTRY] + [
    (name, {"epsilon": 0.0}) for name in ("padam", "amsgrad", "adam",
                                          "adagrad")
] + [("padam", {"p": 0.5}), ("padam", {"p": 0.0, "epsilon": 0.0})]


@pytest.mark.parametrize("shape", [(5,), (3, 5)])
@pytest.mark.parametrize("name, params", _BOUND_CASES)
def test_bound_stepper_is_the_public_step_in_place(name, params, shape):
    # the stepper REGISTRY binds writes the moments over the state it is
    # given, bitwise what the public step returns in fresh arrays
    entry = REGISTRY[name]
    kw = {**entry.defaults, **params}
    step = entry.bind(kw)
    fresh = name in ("padam", "amsgrad") and kw["epsilon"] == 0.0
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape)
    mine = OptState(m=np.zeros(shape), v=np.zeros(shape),
                    v_hat=np.zeros(shape))
    want = mine
    for _ in range(4):
        g = rng.standard_normal(shape)
        g[..., 1] = 0.0
        want, want_out = PUBLIC_STEPS[name](want, x, g, 0.05, kw)
        given = (mine.m, mine.v, mine.v_hat)
        mine, out = step(mine, x, g, 0.05)
        assert mine.t == want.t
        for a, b, was in zip((mine.m, mine.v, mine.v_hat),
                             (want.m, want.v, want.v_hat), given):
            assert a.tobytes() == b.tobytes()
            assert (a is was) != fresh
        assert out.new_x.tobytes() == want_out.new_x.tobytes()
        assert out[1:] == want_out[1:]
        x = out.new_x


@pytest.mark.parametrize("name", ["padam", "amsgrad"])
def test_raising_bound_step_leaves_the_state_as_given(name):
    # the harness stops the rows named and steps the rest from this state
    entry = REGISTRY[name]
    step = entry.bind({**entry.defaults, "epsilon": 0.0})
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4))
    state = OptState(m=np.zeros((3, 4)), v=np.zeros((3, 4)),
                     v_hat=np.zeros((3, 4)))
    for _ in range(3):
        g = rng.standard_normal((3, 4))
        g[:, 1] = 0.0
        state, out = step(state, x, g, 0.1)
        x = out.new_x
    g = rng.standard_normal((3, 4))
    g[2, 1] = 1e-170
    before = [a.tobytes() for a in (state.m, state.v, state.v_hat)]
    with pytest.raises(NumericError) as err:
        step(state, x, g, 0.1)
    assert err.value.rows == [2]
    assert [a.tobytes() for a in (state.m, state.v, state.v_hat)] == before


# (optimizer, parameter, out-of-range value, message) for the parameters of
# every rule but padam, which checks its own: PadamConfig's message for the
# adaptive ones, the step rule's own for sgdm's momentum and adamw's decay
_BAD_ADAPTIVE = [
    (name, key, value, message)
    for name in ("adam", "amsgrad", "adamw", "adagrad")
    for key, value, message in (
        ("beta1", 1.5, "beta1 must be in [0, 1), got 1.5"),
        ("beta2", 1.5, "beta2 must be in (0, 1], got 1.5"),
        ("epsilon", -0.5, "epsilon must be nonnegative, got -0.5"))
    if key in REGISTRY[name].defaults
] + [
    ("sgdm", "mu", 1.5, "momentum must be in [0, 1), got 1.5"),
    ("adamw", "weight_decay", -1.0,
     "weight decay must be nonnegative, got -1.0"),
]


@pytest.mark.parametrize("name, key, value, message", _BAD_ADAPTIVE)
def test_adaptive_hyperparameters_checked_where_bound(name, key, value,
                                                      message):
    entry = REGISTRY[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        entry.bind({**entry.defaults, key: value})
    spec = RunSpec(problem=make_quadratic(3), optimizer=name,
                   opt_params={key: value},
                   schedule=Schedule("constant", 0.01), steps=5)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(spec)


@pytest.mark.parametrize("name", ["adam", "amsgrad", "adamw", "adagrad"])
def test_adaptive_hyperparameters_accept_their_range_ends(name):
    entry = REGISTRY[name]
    ends = {"beta1": 0.0, "beta2": 1.0, "epsilon": 0.0}
    entry.bind({**entry.defaults,
                **{k: v for k, v in ends.items() if k in entry.defaults}})
