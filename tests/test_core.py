"""Unit tests for the outer-step wrapper: gating, restoration, accounting."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import pure_step, zero_buffers

from profit import mlp, optim, toy
from profit.core import (
    ProfitConfig,
    ProfitStepTrace,
    profit_step,
    profit_workspace,
    run_plain_training,
    run_profit_training,
)
from profit.errors import BatchStreamExhaustedError, DimensionMismatchError, NonFiniteError
from profit.paramvec import EPS_DEGENERATE, dot, norm


def endless():
    return itertools.count()


def constant_gradient(c):
    return lambda theta, batch: c


def bowl_gradient(center):
    """Gradient of the unit quadratic 0.5 * ||theta - center||^2."""
    return lambda theta, batch: theta - center


def sgd_config(n_ref=1, lr_main=0.1, lr_ref=0.1, warmup=0):
    return ProfitConfig(
        n_ref=n_ref,
        main=optim.sgd(lr_main),
        reference=optim.sgd(lr_ref),
        warmup_steps=warmup,
    )


def make_states(config, n):
    return optim.init_state(config.main, n), optim.init_state(config.reference, n)


# ---------------------------------------------------------------- config


def test_config_rejects_zero_reference_steps():
    with pytest.raises(ValueError, match="n_ref"):
        sgd_config(n_ref=0)


def test_config_rejects_negative_warmup():
    with pytest.raises(ValueError, match="warmup"):
        sgd_config(warmup=-1)


def test_trace_csv_row_matches_header_order():
    trace = ProfitStepTrace(
        omega=-0.5, projected=True, degenerate=False,
        delta_norm=1.25, g_norm=2.5, batches_consumed=2,
    )
    assert ProfitStepTrace.CSV_HEADER == (
        "step,omega,projected,delta_norm,g_norm,batches_consumed,degenerate"
    )
    assert trace.csv_row(7) == "7,-0.5,1,1.25,2.5,2,0"


# ------------------------------------------------------------- the gate


def test_aligned_gradient_passes_through_untouched():
    """omega >= 0: the main update uses the raw displaced-point gradient."""
    theta0 = np.array([1.0, -2.0, 0.5])
    config = sgd_config(lr_main=0.05, lr_ref=0.1)
    main_state, ref_state = make_states(config, 3)

    g_ref = np.array([1.0, 0.0, 0.0])
    g_disp = np.array([-3.0, 1.0, 2.0])  # <delta, g> = 0.3 > 0
    feed = iter([g_ref, g_disp])
    theta = theta0.copy()
    theta_new, _, _, trace = profit_step(
        theta, config, main_state, ref_state, endless(),
        lambda theta, batch: next(feed),
    )

    delta = -0.1 * g_ref
    assert trace.omega == pytest.approx(dot(delta, g_disp))
    assert trace.omega > 0.0
    assert not trace.projected and not trace.degenerate
    assert theta_new is theta  # updated in place
    # bitwise: replicate the single main update from the restored weights
    expected = theta0 - g_disp * 0.05
    assert theta_new.tobytes() == expected.tobytes()
    assert g_disp.tobytes() == np.array([-3.0, 1.0, 2.0]).tobytes()


def test_opposed_gradient_is_orthogonally_rejected():
    """omega < 0: the component along the displacement is removed."""
    theta0 = np.zeros(3)
    config = sgd_config(lr_main=0.05, lr_ref=0.1)
    main_state, ref_state = make_states(config, 3)

    g_ref = np.array([1.0, 0.0, 0.0])
    g_disp = np.array([2.0, 1.0, -1.0])  # delta = (-0.1, 0, 0), omega = -0.2
    feed = iter([g_ref, g_disp])
    theta_new, _, _, trace = profit_step(
        theta0.copy(), config, main_state, ref_state, endless(),
        lambda theta, batch: next(feed),
    )

    delta = np.array([-0.1, 0.0, 0.0])
    projected = g_disp - (dot(g_disp, delta) / dot(delta, delta)) * delta
    assert trace.omega == pytest.approx(-0.2)
    assert trace.projected and not trace.degenerate
    assert abs(dot(projected, delta)) <= 1e-10 * norm(projected) * norm(delta)
    expected = theta0 - projected * 0.05
    assert not np.array_equal(projected, g_disp)
    assert theta_new.tobytes() == expected.tobytes()
    # the gradient handed to the wrapper is never written
    assert g_disp.tobytes() == np.array([2.0, 1.0, -1.0]).tobytes()


def test_vanishing_displacement_falls_back_to_raw_gradient():
    """omega < 0 but ||delta||^2 below threshold: gradient passes unprojected."""
    theta0 = np.zeros(3)
    config = sgd_config(lr_main=0.05, lr_ref=1e-15)
    main_state, ref_state = make_states(config, 3)

    g = np.ones(3)  # delta = -1e-15 * ones, omega = -3e-15 < 0, |delta|^2 = 3e-30
    theta_new, _, _, trace = profit_step(
        theta0.copy(), config, main_state, ref_state, endless(), constant_gradient(g),
    )
    assert trace.omega < 0.0
    assert trace.degenerate and not trace.projected
    expected = theta0 - g * 0.05
    assert theta_new.tobytes() == expected.tobytes()
    assert g.tobytes() == np.ones(3).tobytes()


def test_weights_are_restored_before_the_main_update():
    """A zero final gradient leaves the weights bit-identical to the start,
    even though the reference optimizer wandered away in between."""
    rng = np.random.default_rng(5)
    theta0 = rng.standard_normal(8)
    config = sgd_config(n_ref=3, lr_ref=0.5)
    main_state, ref_state = make_states(config, 8)

    calls = []

    def gradient(theta, batch):
        calls.append(theta.copy())
        if len(calls) <= 3:
            return np.ones(8)
        return np.zeros(8)

    theta = theta0.copy()
    theta_new, _, _, trace = profit_step(
        theta, config, main_state, ref_state, endless(), gradient,
    )
    assert trace.delta_norm > 1.0  # the reference really moved
    assert theta_new is theta
    assert theta_new.tobytes() == theta0.tobytes()
    # the exploration started at the saved weights; the displaced gradient did not
    assert calls[0].tobytes() == theta0.tobytes()
    assert not np.array_equal(calls[-1], theta0)


def test_sgd_reference_gate_fires_exactly_when_consecutive_gradients_agree():
    """With one SGD reference step, delta = -lr_ref * g_ref up to rounding, so
    sign(omega) = -sign(<g_ref, g>): the gate fires on agreement, not conflict.
    Pairs within 1e-6 of orthogonal are skipped, where rounding may decide."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 40))
        g_ref, g = rng.standard_normal(n), rng.standard_normal(n)
        cos = dot(g_ref, g) / (norm(g_ref) * norm(g))
        if abs(cos) < 1e-6:
            continue
        config = sgd_config(lr_ref=float(10.0 ** rng.uniform(-4, 0)))
        main_state, ref_state = make_states(config, n)
        feed = iter([g_ref, g])
        _, _, _, trace = profit_step(
            rng.standard_normal(n), config, main_state, ref_state, endless(),
            lambda theta, batch: next(feed),
        )
        assert np.sign(trace.omega) == -np.sign(cos)
        checked += 1
    assert checked > 450


# --------------------------------------------------- zero-update guarantee


@pytest.mark.parametrize("n", [1, 5])
def test_linear_loss_yields_no_update(n):
    """For a loss with constant gradient, 100 outer steps move nothing."""
    c = np.linspace(1.0, 2.0, n)
    theta0 = np.full(n, 0.75)
    config = ProfitConfig(n_ref=2, main=optim.sgd(0.05), reference=optim.sgd(0.01))
    theta, traces, _ = run_profit_training(
        theta0.copy(), config, 100, endless(), constant_gradient(c),
    )
    assert norm(theta - theta0) <= 1e-12
    assert all(t.projected for t in traces)


# ------------------------------------------------------- quadratic bowls


def test_shifted_bowl_main_update_protects_the_old_minimum():
    """Fine-tuning a bowl at b from the minimum of a bowl at a: every main
    update ends closer to a (in old-task loss) than the displaced point was."""
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    lr = 1e-3
    config = ProfitConfig(n_ref=1, main=optim.sgd(lr), reference=optim.sgd(lr))
    main_state, ref_state = make_states(config, 2)
    gradient = bowl_gradient(b)

    def old_loss(theta):
        return 0.5 * float(np.sum((theta - a) ** 2))

    theta = a.copy()
    for _ in range(20):
        theta_ref = theta.copy()
        disp = theta_ref - lr * gradient(theta_ref, None)  # replayed reference step
        theta, main_state, ref_state, _ = profit_step(
            theta, config, main_state, ref_state, endless(), gradient,
        )
        assert old_loss(theta) < old_loss(disp)


# ------------------------------------------------------- batch accounting


@pytest.mark.parametrize("n_ref", [1, 2, 5])
def test_each_outer_step_consumes_n_ref_plus_one_batches(n_ref):
    config = ProfitConfig(n_ref=n_ref, main=optim.sgd(0.01), reference=optim.sgd(0.01))
    consumed = []

    def counting_source():
        for i in itertools.count():
            consumed.append(i)
            yield i

    theta, traces, _ = run_profit_training(
        np.zeros(4), config, 100, counting_source(), constant_gradient(np.zeros(4)),
    )
    assert all(t.batches_consumed == n_ref + 1 for t in traces)
    assert len(traces) == 100
    assert len(consumed) == 100 * (n_ref + 1)


def test_exhausted_stream_is_a_hard_error():
    config = sgd_config(n_ref=1)
    main_state, ref_state = make_states(config, 2)
    one_batch = iter([0])
    with pytest.raises(BatchStreamExhaustedError, match=r"n_ref \+ 1 = 2"):
        profit_step(
            np.zeros(2), config, main_state, ref_state, one_batch,
            constant_gradient(np.ones(2)),
        )


def test_exhausted_stream_in_plain_training_names_a_plain_step():
    state = optim.init_state(optim.sgd(0.1), 2)
    with pytest.raises(BatchStreamExhaustedError, match="a plain training step requires 1 batch"):
        run_plain_training(np.zeros(2), state, 2, iter([0]), constant_gradient(np.ones(2)))


# --------------------------------------------------------- state handling


def test_reference_state_persists_and_counters_advance():
    config = ProfitConfig(n_ref=2, main=optim.sgd(0.05), reference=optim.rmsprop(0.01))
    main_state, ref_state = make_states(config, 3)
    theta = np.zeros(3)
    gradient = constant_gradient(np.array([1.0, -1.0, 2.0]))

    theta, main_state, ref_state, _ = profit_step(
        theta, config, main_state, ref_state, endless(), gradient,
    )
    v_after_one = ref_state.buffers["v"].copy()
    assert ref_state.t == 2 and main_state.t == 1
    assert v_after_one.any()

    theta, main_state, ref_state, _ = profit_step(
        theta, config, main_state, ref_state, endless(), gradient,
    )
    assert ref_state.t == 4 and main_state.t == 2
    # the accumulator kept growing from its step-1 value, not from zero
    assert np.all(ref_state.buffers["v"] > v_after_one)


def test_main_accumulators_survive_weight_restoration():
    """Restoration reverts weights only; the main optimizer's memory builds up."""
    config = ProfitConfig(n_ref=1, main=optim.rmsprop(0.01), reference=optim.sgd(0.01))
    main_state, ref_state = make_states(config, 2)
    theta = np.zeros(2)
    # reference sees (1, 0); the displaced gradient (-1, 1) gives omega > 0,
    # so the main optimizer ingests it raw and its accumulator must grow
    feed = itertools.cycle([np.array([1.0, 0.0]), np.array([-1.0, 1.0])])
    gradient = lambda theta, batch: next(feed)  # noqa: E731
    previous = np.zeros(2)
    for expected_t in (1, 2, 3):
        theta, main_state, ref_state, trace = profit_step(
            theta, config, main_state, ref_state, endless(), gradient,
        )
        assert trace.omega > 0.0
        assert main_state.t == expected_t
        assert np.all(main_state.buffers["v"] > previous)
        previous = main_state.buffers["v"].copy()


# ------------------------------------------------------------ full runs


def test_warmup_only_run_is_bit_identical_to_plain_training():
    rng = np.random.default_rng(11)
    theta0 = rng.standard_normal(6)
    center = rng.standard_normal(6)
    config = ProfitConfig(
        n_ref=1, main=optim.rmsprop(0.02), reference=optim.sgd(0.01), warmup_steps=5,
    )
    via_wrapper, traces, _ = run_profit_training(
        theta0.copy(), config, 0, endless(), bowl_gradient(center),
    )
    plain, _ = run_plain_training(
        theta0.copy(), optim.init_state(config.main, 6), 5, endless(),
        bowl_gradient(center),
    )
    assert traces == []
    assert np.array_equal(via_wrapper, plain)


def test_zero_steps_zero_warmup_returns_start_and_consumes_nothing():
    theta0 = np.array([1.0, 2.0])
    empty = iter([])
    theta, traces, metrics = run_profit_training(
        theta0, sgd_config(), 0, empty, constant_gradient(np.ones(2)),
    )
    assert np.array_equal(theta, theta0)
    assert traces == [] and metrics == []


def test_short_state_steps_only_the_trailing_coordinates():
    """A state over the last k coordinates: the body and theta0 keep every
    byte, the tail follows the same steps run on the tail alone, and the
    gradient function and the hooks see the full vector."""
    rng = np.random.default_rng(12)
    theta0 = rng.standard_normal(7)
    before = theta0.tobytes()
    center = rng.standard_normal(3)
    seen, metrics = [], []

    def tail_bowl(theta, batch):
        seen.append(theta.shape)
        return theta[-3:] - center

    spec = optim.rmsprop(0.05)
    theta, state = run_plain_training(
        theta0, optim.init_state(spec, 3), 6, endless(), tail_bowl,
        eval_hooks=((lambda step, th: {"n": th.shape[0]}),), eval_every=2, metrics=metrics,
    )
    tail, _ = run_plain_training(
        theta0[-3:], optim.init_state(spec, 3), 6, endless(), bowl_gradient(center),
    )
    assert theta0.tobytes() == before
    assert theta[:4].tobytes() == theta0[:4].tobytes()
    assert theta[4:].tobytes() == tail.tobytes()
    assert not np.array_equal(theta[4:], theta0[4:])
    assert state.t == 6
    assert seen == [(7,)] * 6
    assert [m["n"] for m in metrics] == [7, 7, 7]


def test_state_longer_than_theta_is_rejected_before_any_batch():
    batches = iter(range(5))
    with pytest.raises(DimensionMismatchError, match="covers 4 coordinates, theta has only 3"):
        run_plain_training(
            np.zeros(3), optim.init_state(optim.sgd(0.1), 4), 2, batches,
            constant_gradient(np.ones(4)),
        )
    assert next(batches) == 0  # the stream was not touched


@pytest.mark.parametrize(
    "warmup, n_steps, eval_every, expected",
    [
        (2, 3, 1, [1, 2, 3, 4, 5]),
        # the count restarts at the first PROFIT step
        (3, 7, 2, [2, 5, 7, 9]),
    ],
    ids=["warmup2-every1", "warmup3-every2"],
)
def test_metrics_cadence_spans_warmup_and_outer_steps(warmup, n_steps, eval_every, expected):
    seen = []

    def hook(step, theta):
        seen.append(step)
        return {"n": float(norm(theta))}

    config = ProfitConfig(
        n_ref=1, main=optim.sgd(0.01), reference=optim.sgd(0.01), warmup_steps=warmup,
    )
    _, _, metrics = run_profit_training(
        np.ones(3), config, n_steps, endless(),
        bowl_gradient(np.zeros(3)), eval_hooks=(hook,), eval_every=eval_every,
    )
    assert seen == expected
    assert [m["step"] for m in metrics] == expected
    assert all("n" in m for m in metrics)


def test_eval_every_zero_disables_metrics():
    _, _, metrics = run_profit_training(
        np.ones(2), sgd_config(warmup=2), 2, endless(),
        bowl_gradient(np.zeros(2)),
        eval_hooks=((lambda step, theta: {"x": 1.0}),), eval_every=0,
    )
    assert metrics == []


# ------------------------------------------------------------- bad input


def test_nonfinite_displaced_gradient_is_rejected():
    config = sgd_config()
    main_state, ref_state = make_states(config, 2)
    feed = iter([np.ones(2), np.array([np.nan, 0.0])])
    with pytest.raises(NonFiniteError, match="displaced"):
        profit_step(
            np.zeros(2), config, main_state, ref_state, endless(),
            lambda theta, batch: next(feed),
        )


def test_nonfinite_displacement_is_rejected():
    config = ProfitConfig(n_ref=1, main=optim.sgd(0.1), reference=optim.sgd(10.0))
    main_state, ref_state = make_states(config, 2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="displacement"):
        profit_step(
            np.zeros(2), config, main_state, ref_state, endless(),
            constant_gradient(np.full(2, 1.7e308)),
        )


# ------------------------------------------------------------ full width

# a short 500-wide pipeline: every step runs the production-size vectors
WIDE = replace(toy.ExperimentPlan(), baseline_steps=40, finetune_steps=12, seeds=(0,))


def formula_plain_run(spec, theta, n_steps, batches, gradient_fn):
    buffers = zero_buffers(spec, theta.shape[0])
    for t in range(n_steps):
        theta, buffers = pure_step(spec, t, buffers, theta, gradient_fn(theta, next(batches)))
    return theta


def formula_profit_run(config, theta, n_steps, batches, gradient_fn):
    """The outer step as out-of-place formulas, one fresh array per intermediate."""
    n = theta.shape[0]
    main_buffers, ref_buffers = zero_buffers(config.main, n), zero_buffers(config.reference, n)
    t_ref = 0
    traces = []
    for t in range(n_steps):
        cur = theta
        for _ in range(config.n_ref):
            g = gradient_fn(cur, next(batches))
            cur, ref_buffers = pure_step(config.reference, t_ref, ref_buffers, cur, g)
            t_ref += 1
        delta = cur - theta
        g = gradient_fn(cur, next(batches))
        omega = float(np.dot(delta, g))
        g_norm = float(np.linalg.norm(g))
        projected = degenerate = False
        if omega < 0.0:
            dd = float(np.dot(delta, delta))
            degenerate = dd < EPS_DEGENERATE
            projected = not degenerate
            if projected:
                g = g - (float(np.dot(g, delta)) / dd) * delta
        traces.append(
            ProfitStepTrace(
                omega, projected, degenerate, float(np.linalg.norm(delta)), g_norm,
                config.n_ref + 1,
            )
        )
        theta, main_buffers = pure_step(config.main, t, main_buffers, theta, g)
    return theta, traces


def zero_padded(head_gradient_fn, n):
    """The head gradient scattered into a zero vector of n entries: the old head path."""

    def gradient(theta, batch):
        g = np.zeros(n)
        head = head_gradient_fn(theta, batch)
        g[n - head.shape[0] :] = head
        return g

    return gradient


def wide_batches(domain, stream):
    return toy.batch_stream(domain, WIDE.batch_size, toy.make_rng(0, stream))


def test_full_width_pipeline_equals_the_out_of_place_formulas():
    """Baseline, full, head and PROFIT (n_ref 1 and 3) fine-tunes at 500 wide:
    weight bytes and every trace field equal the formulas run out of place."""
    base = toy.train_baseline(WIDE, 0)
    theta0 = mlp.flatten(mlp.init_model(WIDE.dims, toy.make_rng(0, toy.STREAM_INIT)))
    expected = formula_plain_run(
        WIDE.baseline, theta0, WIDE.baseline_steps,
        wide_batches(WIDE.original, toy.STREAM_BASELINE), toy.mlp_gradient_fn(WIDE.dims),
    )
    assert mlp.flatten(base).tobytes() == expected.tobytes()

    # the reference steps every coordinate; the head's gradient is zero-padded
    n = mlp.param_count(WIDE.dims)
    for strategy, gradient in (
        ("full", toy.mlp_gradient_fn(WIDE.dims)),
        ("head", zero_padded(toy.mlp_gradient_fn(WIDE.dims, head_only=True), n)),
    ):
        tuned, _ = toy.finetune_model(WIDE, base, strategy, 0)
        expected = formula_plain_run(
            WIDE.finetune, mlp.flatten(base), WIDE.finetune_steps,
            wide_batches(WIDE.new, toy.STREAM_FINETUNE), gradient,
        )
        assert mlp.flatten(tuned).tobytes() == expected.tobytes(), strategy

    for n_ref in (1, 3):
        plan = replace(WIDE, n_ref=n_ref)
        tuned, traces = toy.finetune_model(plan, base, "profit", 0)
        expected, expected_traces = formula_profit_run(
            plan.profit_config(), mlp.flatten(base), plan.finetune_steps,
            wide_batches(plan.new, toy.STREAM_FINETUNE), toy.mlp_gradient_fn(plan.dims),
        )
        assert mlp.flatten(tuned).tobytes() == expected.tobytes(), n_ref
        assert traces == expected_traces
        assert any(t.projected for t in traces)  # the projection ran at full width


def test_full_width_profit_step_allocates_under_two_parameter_vectors():
    """After one warm-up outer step, a 500-wide step's traced peak stays below
    two parameter vectors: the batch's activations, and no parameter copy."""
    plan = toy.ExperimentPlan()
    config = plan.profit_config()
    theta = mlp.flatten(mlp.init_model(plan.dims, toy.make_rng(0, toy.STREAM_INIT)))
    n = theta.shape[0]
    main_state, ref_state = make_states(config, n)
    workspace = profit_workspace(n)
    batches = wide_batches(plan.new, toy.STREAM_FINETUNE)
    gradient = toy.mlp_gradient_fn(plan.dims)
    args = (theta, config, main_state, ref_state, batches, gradient, workspace)
    profit_step(*args)  # warm-up
    tracemalloc.start()
    try:
        profit_step(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * theta.nbytes, f"peak {peak} bytes against {2 * theta.nbytes}"
