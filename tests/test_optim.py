"""Optimizer specs, state, and single-step semantics."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from conftest import pure_step, zero_buffers
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from profit import optim
from profit.errors import DimensionMismatchError, NonFiniteError
from profit.optim import OptimizerSpec, adam, init_state, rmsprop, sgd, step


def vec(*values):
    return np.array(values, dtype=np.float64)


# ---------------------------------------------------------------- specs


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown optimizer kind"):
        OptimizerSpec("nesterov", 0.1)


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
def test_spec_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        OptimizerSpec("sgd", lr)


def test_spec_rejects_bad_decay():
    with pytest.raises(ValueError, match="decay"):
        OptimizerSpec("sgd", 0.1, decay=-0.1)


def test_spec_fields_are_kind_rate_and_decay():
    """The EMA constants and epsilon are module constants, not spec fields."""
    assert [f.name for f in dataclasses.fields(OptimizerSpec)] == ["kind", "learning_rate", "decay"]
    with pytest.raises(TypeError, match="rho"):
        rmsprop(1e-2, rho=0.5)
    with pytest.raises(TypeError, match="epsilon"):
        adam(1e-3, epsilon=1e-3)


def test_factories_set_community_standard_constants():
    assert (optim.RHO, optim.BETA1, optim.BETA2, optim.EPSILON) == (0.9, 0.9, 0.999, 1e-8)
    assert rmsprop(1e-2, decay=0.5) == OptimizerSpec("rmsprop", 1e-2, decay=0.5)
    assert adam(1e-3) == OptimizerSpec("adam", 1e-3)
    assert sgd(0.5).kind == "sgd"


def test_inverse_time_rate_schedule():
    spec = sgd(0.1)
    assert spec.rate_at(0) == 0.1
    assert spec.rate_at(1000) == 0.1
    annealed = OptimizerSpec("sgd", 0.1, decay=0.5)
    assert annealed.rate_at(0) == 0.1
    assert annealed.rate_at(1) == 0.1 / 1.5
    assert annealed.rate_at(4) == pytest.approx(0.1 / 3.0, rel=1e-15)


# ---------------------------------------------------------------- state


def test_init_state_sgd_has_no_buffers():
    s = init_state(sgd(0.1), 4)
    assert s.buffers == {} and s.t == 0 and s.n == 4
    assert [x.shape for x in s.scratch] == [(4,)]


def test_init_state_adam_two_zero_vectors():
    s = init_state(adam(0.1), 3)
    assert set(s.buffers) == {"m", "v"}
    assert np.array_equal(s.buffers["m"], np.zeros(3))
    assert np.array_equal(s.buffers["v"], np.zeros(3))
    assert s.t == 0
    assert [x.shape for x in s.scratch] == [(3,), (3,)]


def test_init_state_rmsprop_large_dimension():
    s = init_state(rmsprop(0.1), 252_501)
    assert set(s.buffers) == {"v"}
    assert s.buffers["v"].shape == (252_501,)
    assert not s.buffers["v"].any()
    assert [x.shape for x in s.scratch] == [(252_501,), (252_501,)]


def test_init_state_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        init_state(sgd(0.1), 0)


# ---------------------------------------------------------------- steps


def test_sgd_single_step_formula():
    theta, state = step(init_state(sgd(0.1), 1), vec(1.0), vec(0.5))
    assert theta == pytest.approx([0.95], abs=1e-15)
    assert state.t == 1


def test_sgd_zero_gradient_is_fixed_point():
    theta0 = vec(1.0, -2.0, 3.0)
    theta, _ = step(init_state(sgd(0.1), 3), theta0.copy(), np.zeros(3))
    assert np.array_equal(theta, theta0)


def test_sgd_linearity_in_gradient():
    rng = np.random.default_rng(5)
    theta0 = rng.standard_normal(8)
    g = rng.standard_normal(8)
    move1 = step(init_state(sgd(0.05), 8), theta0.copy(), g)[0] - theta0
    move3 = step(init_state(sgd(0.05), 8), theta0.copy(), 3.0 * g)[0] - theta0
    assert move1.any()
    assert np.allclose(move3, 3.0 * move1, rtol=1e-12, atol=0.0)


def test_rmsprop_single_step_oracle():
    """One update from zero state: v' = 0.1*4, theta' = -0.01*2/(sqrt(0.4)+1e-8)."""
    theta, state = step(init_state(rmsprop(0.01), 1), vec(0.0), vec(2.0))
    assert state.buffers["v"][0] == pytest.approx(0.3999999999999999, abs=0.0)
    assert theta[0] == pytest.approx(-0.031622776101683805, abs=0.0)
    assert state.t == 1


def test_rmsprop_zero_gradient_zero_state_is_fixed_point():
    theta0 = vec(0.5, -0.5)
    theta, _ = step(init_state(rmsprop(0.01), 2), theta0.copy(), np.zeros(2))
    assert np.array_equal(theta, theta0)


def test_adam_zero_gradient_zero_state_is_fixed_point():
    theta0 = vec(2.0)
    theta, _ = step(init_state(adam(0.01), 1), theta0.copy(), np.zeros(1))
    assert np.array_equal(theta, theta0)


def test_adam_first_step_is_signlike():
    # with zero accumulators the bias-corrected first update is
    # lr * g / (|g| + eps), i.e. almost exactly lr * sign(g)
    theta, state = step(init_state(adam(0.01), 2), vec(0.0, 0.0), vec(3.0, -0.25))
    assert theta == pytest.approx([-0.01, 0.01], rel=1e-6)
    assert state.t == 1


def test_adam_counter_strictly_increments():
    state = init_state(adam(0.01), 1)
    theta = vec(0.0)
    for expected_t in (1, 2, 3, 4):
        theta, state = step(state, theta, vec(1.0))
        assert state.t == expected_t


def test_adam_two_steps_match_reference_formula():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g1, g2 = vec(2.0), vec(-1.0)
    theta, state = step(init_state(adam(lr), 1), vec(0.1), g1)
    theta, state = step(state, theta, g2)

    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    ref = 0.1 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    ref = ref - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert theta[0] == pytest.approx(float(ref[0]), rel=1e-14)


def test_decayed_sgd_two_hand_steps():
    """theta0=1, g=2, lr0=0.1, decay=0.5 -> 0.8 then 0.8 - 0.2/1.5."""
    spec = OptimizerSpec("sgd", 0.1, decay=0.5)
    state = init_state(spec, 1)
    theta = vec(1.0)
    theta, state = step(state, theta, vec(2.0))
    assert theta[0] == pytest.approx(0.8, abs=0.0)
    theta, state = step(state, theta, vec(2.0))
    assert theta[0] == pytest.approx(0.6666666666666667, abs=0.0)


def test_decay_applies_to_rmsprop_too():
    plain = rmsprop(0.01)
    annealed = rmsprop(0.01, decay=1.0)
    g = vec(2.0)
    # first update (t=0) identical, second (t=1) uses half the rate
    th_p, st_p = step(init_state(plain, 1), vec(0.0), g)
    th_a, st_a = step(init_state(annealed, 1), vec(0.0), g)
    first_p, first_a = th_p[0], th_a[0]
    assert first_p == first_a
    step(st_p, th_p, g)
    step(st_a, th_a, g)
    assert th_a[0] - first_a == pytest.approx((th_p[0] - first_p) / 2.0, rel=1e-12)


# ------------------------------------------------------------- contracts


SPECS = (sgd(0.1), rmsprop(0.01), adam(0.001))


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_step_updates_theta_and_buffers_in_place(spec):
    """The same objects come back, overwritten; the gradient is only read."""
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(16)
    g = rng.standard_normal(16)
    state = init_state(spec, 16)
    step(state, theta, g)  # warm the buffers
    theta_before, g_before = theta.copy(), g.copy()
    buffers = dict(state.buffers)
    buffers_before = {k: v.copy() for k, v in buffers.items()}

    out_theta, out_state = step(state, theta, g)
    assert out_theta is theta and out_state is state
    assert state.t == 2
    assert not np.array_equal(theta, theta_before)
    assert state.buffers.keys() == buffers.keys()
    for k, v in state.buffers.items():
        assert v is buffers[k]
        assert not np.array_equal(v, buffers_before[k])
    assert g.tobytes() == g_before.tobytes()


def test_step_is_deterministic_on_copies_of_the_same_inputs():
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(16)
    g = rng.standard_normal(16)
    for spec in SPECS:
        state = init_state(spec, 16)
        step(state, theta.copy(), g)  # warm the buffers
        runs = [step(copy.deepcopy(state), theta.copy(), g.copy()) for _ in range(2)]
        (theta1, state1), (theta2, state2) = runs
        assert theta1.tobytes() == theta2.tobytes()
        assert state1.t == state2.t == 2
        for k in state.buffers:
            assert state1.buffers[k].tobytes() == state2.buffers[k].tobytes()


def sparse(n, entries):
    """An n-vector of +0.0 with ``entries`` ({index: value}) set."""
    x = np.zeros(n)
    for i, value in entries.items():
        x[i] = value
    return x


def test_step_rejects_nonfinite_gradient():
    """The check runs before any write: theta and the state are left as they
    were, also when the step gathers the few coordinates that can move."""
    for warm, bad_at, gathered in ((vec(1.0, 2.0), 1, False), (sparse(32, {3: 1.0}), 7, True)):
        n = len(warm)
        for spec in SPECS:
            for bad in (np.nan, np.inf, -np.inf):
                state = init_state(spec, n)
                theta = np.linspace(-0.5, 0.5, n)
                step(state, theta, warm)
                g = warm.copy()
                g[bad_at] = bad
                assert (optim._movable(state, g) is not None) == gathered
                theta_before = theta.copy()
                buffers_before = {k: v.copy() for k, v in state.buffers.items()}
                with pytest.raises(NonFiniteError, match="step: gradient contains NaN or Inf"):
                    step(state, theta, g)
                assert theta.tobytes() == theta_before.tobytes() and state.t == 1
                for k, v in state.buffers.items():
                    assert v.tobytes() == buffers_before[k].tobytes()


def test_step_accepts_a_finite_gradient_whose_square_sum_overflows():
    """<g, g> overflows to inf here, so the guard falls back to an entry scan."""
    g = vec(1e200, -1e200)
    theta, _ = step(init_state(sgd(1e-200), 2), vec(0.0, 0.0), g)
    assert theta.tobytes() == (vec(0.0, 0.0) - g * 1e-200).tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_negative_zero_weight_and_gradient_give_positive_zero(spec):
    """``-0.0 - (-0.0 * lr)`` is +0.0: a -0.0 gradient can move a -0.0 weight,
    so the step tells it from +0.0 by its bits, also among mostly zero
    gradients.  Adam's first moment holds -0.0 there too, as a negative
    moment that underflowed would; from +0.0 it would absorb the sign."""
    g = sparse(32, {0: -0.0, 9: 1.5})
    theta = sparse(32, {0: -0.0, 9: 0.25})
    state = init_state(spec, 32)
    buffers = zero_buffers(spec, 32)
    if spec.kind == "adam":
        state.buffers["m"][0] = buffers["m"][0] = -0.0
    assert optim._movable(state, g) is not None
    expected, _ = pure_step(spec, 0, buffers, theta, g)
    step(state, theta, g)
    assert theta.tobytes() == expected.tobytes()
    assert theta[0] == 0.0 and not np.signbit(theta[0])


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
@pytest.mark.parametrize(
    "g_dtype, theta_dtype", [(np.float32, np.float64), (np.float64, np.float32)]
)
def test_step_accepts_float32_gradients_and_weights(spec, g_dtype, theta_dtype):
    """float32 keeps its arithmetic (``g * lr`` rounds to float32): a mostly
    zero gradient moves each weight as the same coordinates do inside a
    gradient with no zeros, where every coordinate is stepped."""
    g = sparse(32, {2: 0.1, 11: -3.0}).astype(g_dtype)
    theta = np.linspace(-1.0, 1.0, 32).astype(theta_dtype)
    theta0 = theta.copy()
    padded_g = np.concatenate([g, np.full(96, 0.5, dtype=g_dtype)])
    padded = np.concatenate([theta, np.ones(96, dtype=theta_dtype)])
    step(init_state(spec, 32), theta, g)
    step(init_state(spec, 128), padded, padded_g)
    assert theta.tobytes() == padded[:32].tobytes()
    assert np.flatnonzero(theta != theta0).tolist() == [2, 11]


def test_step_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        step(init_state(sgd(0.1), 2), vec(0.0, 0.0), vec(1.0))
    with pytest.raises(DimensionMismatchError):
        step(init_state(sgd(0.1), 2), vec(0.0), vec(1.0, 1.0))


def test_kinds_tuple_is_the_public_contract():
    assert optim.KINDS == ("sgd", "rmsprop", "adam")


# ------------------------------------------------------- subnormal flush

TINY = np.finfo(np.float64).tiny


def flush_gradients(n_steps):
    """Per-step gradients over six coordinates: 0-1 always live, 2-3 die after
    the first step, 4-5 die after it too and revive at step 7,000."""
    rng = np.random.default_rng(11)
    for t in range(n_steps):
        g = rng.standard_normal(6)
        if t >= 1:
            g[2:4] = 0.0
            if t < 7000:
                g[4:6] = 0.0
        yield g


def replay_unflushed(spec, n_steps, theta):
    """The RMSProp formula written out, with no flush."""
    v = np.zeros_like(theta)
    for t, g in enumerate(flush_gradients(n_steps)):
        v = v * optim.RHO + g * (1.0 - optim.RHO) * g
        theta = theta - g * spec.rate_at(t) / (np.sqrt(v) + optim.EPSILON)
    return theta, v


def run_steps(spec, n_steps, theta):
    theta = theta.copy()
    state = init_state(spec, theta.shape[0])
    for g in flush_gradients(n_steps):
        step(state, theta, g)
    return theta, state.buffers["v"]


def is_subnormal(v):
    return (v != 0.0) & (np.abs(v) < TINY)


def test_rmsprop_flushes_subnormal_accumulators_without_moving_the_weights():
    """7,500 steps: dead coordinates would hold subnormal v, the flush keeps
    none, and the weights equal the unflushed formula bit for bit, also for
    the coordinates that revive after 7,000 steps."""
    spec = rmsprop(0.01)
    theta0 = np.linspace(-1.0, 1.0, 6)
    theta_ref, v_ref = replay_unflushed(spec, 7500, theta0)
    theta, v = run_steps(spec, 7500, theta0)
    assert is_subnormal(v_ref[2:4]).all()  # the case the flush exists for
    assert not is_subnormal(v).any()
    assert np.array_equal(v[2:4], [0.0, 0.0])
    np.testing.assert_array_equal(theta, theta_ref)
    np.testing.assert_array_equal(v[[0, 1, 4, 5]], v_ref[[0, 1, 4, 5]])


def test_rmsprop_flush_is_exact_at_the_constants():
    """A flushed v stays below 2**-969 / (1 - RHO) until a gradient merges it
    back; the square root of that bound must vanish beside EPSILON."""
    assert math.sqrt(2.0**-969 / (1.0 - optim.RHO)) + optim.EPSILON == optim.EPSILON


# ------------------------------------------- in place vs the formulas

# accumulator seeds reach RMSProp's flush at once: subnormal, tiny and normal
SEED_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, TINY, 1e-300, 1e-3, 1.0])
GRADIENT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e-160, -1e-150, 1e-145]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def optimizer_specs(draw):
    kind = draw(st.sampled_from(optim.KINDS))
    return OptimizerSpec(
        kind,
        draw(st.floats(1e-6, 1.0)),
        decay=draw(st.sampled_from([0.0, 1e-2, 0.5])),
    )


def draw_vector(data, n, values, mostly_zero):
    """n entries from ``values``; when ``mostly_zero``, all but fewer than n / 8 are +-0.0."""
    x = data.draw(arrays(np.float64, n, elements=values))
    if mostly_zero:
        zeros = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])))
        kept = list(data.draw(st.sets(st.integers(0, n - 1), max_size=(n - 1) // 8)))
        zeros[kept] = x[kept]
        x = zeros
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    spec=optimizer_specs(),
    n=st.integers(1, 24),
    n_steps=st.integers(1, 6),
    mostly_zero=st.booleans(),
    data=st.data(),
)
def test_step_equals_the_out_of_place_formulas(spec, n, n_steps, mostly_zero, data):
    """Every bit of theta and of the accumulators matches the formulas, step by
    step.  Mostly zero gradients and accumulators take the gathered step, and
    accumulators that outgrow the gathering share take the dense one."""
    theta = data.draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    state = init_state(spec, n)
    buffers = zero_buffers(spec, n)
    for k in buffers:
        buffers[k][:] = draw_vector(data, n, SEED_VALUES, mostly_zero)
        state.buffers[k][:] = buffers[k]
    ref = theta.copy()
    for t in range(n_steps):
        g = draw_vector(data, n, GRADIENT_VALUES, mostly_zero)
        g_before = g.copy()
        ref, buffers = pure_step(spec, t, buffers, ref, g)
        step(state, theta, g)
        assert theta.tobytes() == ref.tobytes()
        for k, v in buffers.items():
            assert state.buffers[k].tobytes() == v.tobytes()
        assert g.tobytes() == g_before.tobytes()
    assert state.t == n_steps


# ------------------------------------------- a tail slice vs zero padding


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    spec=optimizer_specs(),
    n_frozen=st.integers(1, 12),
    n_head=st.integers(1, 12),
    n_steps=st.integers(1, 6),
    data=st.data(),
)
def test_steps_on_a_tail_slice_equal_full_steps_with_a_zero_padded_gradient(
    spec, n_frozen, n_head, n_steps, data
):
    """Head-only training steps only the trailing block; the old path stepped
    every coordinate with the head gradient zero-padded.  From a fresh state
    the two give the same bytes: a frozen coordinate's accumulators start at
    0 and stay 0 under a zero gradient, so its update is exactly 0.  The
    fresh state is what makes this hold: a warmed Adam ``m`` keeps moving a
    frozen weight after its gradient turns zero."""
    n = n_frozen + n_head
    theta0 = data.draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    padded, sliced = theta0.copy(), theta0.copy()
    full_state, head_state = init_state(spec, n), init_state(spec, n_head)
    tail = sliced[n_frozen:]
    for _ in range(n_steps):
        g_head = data.draw(arrays(np.float64, n_head, elements=GRADIENT_VALUES))
        g = np.concatenate([np.zeros(n_frozen), g_head])
        step(full_state, padded, g)
        step(head_state, tail, g_head)
    assert sliced.tobytes() == padded.tobytes()
    assert sliced[:n_frozen].tobytes() == theta0[:n_frozen].tobytes()
    for k, v in full_state.buffers.items():
        assert head_state.buffers[k].tobytes() == v[n_frozen:].tobytes()
        assert not v[:n_frozen].any()
    assert head_state.t == full_state.t == n_steps

