"""Network forward/backward correctness against hand and finite-difference oracles."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from profit import mlp, toy
from profit.errors import DimensionMismatchError, NonFiniteError
from profit.mlp import (
    LAYER_DIMS,
    Batch,
    MlpModel,
    backward,
    backward_head,
    flatten,
    forward,
    head_block_size,
    init_model,
    loss_mse,
    param_count,
    unflatten,
)

HAND_DIMS = (2, 2, 2, 1)


def hand_model() -> MlpModel:
    """Small fixed weights used for the pencil-and-paper forward value."""
    return MlpModel(
        weights=(
            np.array([[0.1, -0.2], [0.3, 0.4]]),
            np.array([[0.7, -0.1], [0.2, 0.6]]),
            np.array([[1.5], [-2.0]]),
        ),
        biases=(
            np.array([0.05, -0.05]),
            np.array([0.0, 0.1]),
            np.array([0.25]),
        ),
    )


# ---------------------------------------------------------------- shapes


def test_param_count_standard_architecture():
    assert param_count(LAYER_DIMS) == 252_501
    assert param_count((2, 2, 2, 1)) == (2 * 2 + 2) + (2 * 2 + 2) + (2 * 1 + 1)


def test_model_shape_validation():
    with pytest.raises(DimensionMismatchError):
        MlpModel(weights=(np.zeros((2, 3)),), biases=(np.zeros(2),))
    with pytest.raises(DimensionMismatchError):
        MlpModel(
            weights=(np.zeros((2, 3)), np.zeros((4, 1))),
            biases=(np.zeros(3), np.zeros(1)),
        )


def test_batch_validation():
    with pytest.raises(DimensionMismatchError):
        Batch(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(NonFiniteError):
        Batch(np.array([[np.nan, 0.0]]), np.zeros(1))


# ---------------------------------------------------------------- forward


def test_forward_zero_model_predicts_zero():
    model = unflatten(np.zeros(param_count((2, 4, 3, 1))), (2, 4, 3, 1))
    out = forward(model, np.array([[0.3, -0.7], [2.0, 2.0]]))
    assert np.array_equal(out, [0.0, 0.0])


def test_forward_duplicated_rows_identical_outputs():
    model = init_model((2, 5, 5, 1), np.random.default_rng(1))
    x = np.array([[0.2, 0.4], [0.2, 0.4], [1.0, -1.0]])
    out = forward(model, x)
    assert out[0] == out[1]


def test_forward_hand_oracle():
    # x = (1, 0.5): layer 1 gives (0.30, -0.05) -> rectified (0.30, 0);
    # layer 2 gives (0.21, 0.07); output 0.315 - 0.14 + 0.25 = 0.425
    out = forward(hand_model(), np.array([[1.0, 0.5]]))
    assert out[0] == pytest.approx(0.425, abs=1e-15)


def test_forward_rejects_nonfinite_and_wrong_width():
    model = hand_model()
    with pytest.raises(NonFiniteError):
        forward(model, np.array([[np.inf, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        forward(model, np.zeros((1, 3)))


def test_forward_output_affine_in_head_weights():
    """Scaling the last layer's weights and bias scales the output equally."""
    rng = np.random.default_rng(8)
    model = init_model((2, 6, 4, 1), rng)
    x = rng.standard_normal((5, 2))
    base = forward(model, x)
    doubled = MlpModel(
        weights=model.weights[:-1] + (2.0 * model.weights[-1],),
        biases=model.biases[:-1] + (2.0 * model.biases[-1],),
    )
    assert np.allclose(forward(doubled, x), 2.0 * base, rtol=1e-14, atol=0.0)


def one_call_chain(model, inputs):
    """The layers over all rows at once: one product per layer, then bias, then rectifier."""
    h = inputs
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        h = np.maximum(z, 0.0, out=z) if i < last else z
    return h[:, 0]


def short_baseline() -> MlpModel:
    plan = toy.ExperimentPlan(baseline_steps=30, finetune_steps=1, seeds=(0,))
    return toy.train_baseline(plan, 0)


# 2-32-32-1 is the golden plan, 2-8-8-1 and 2-6-5-1 the CLI's.  In blocks of
# 2,016 rows, widths 18-20, 199 and 255 lose the one-pass bits (a layer takes
# OpenBLAS's small-matrix kernel), 51 does in blocks of 512 rows and 100 in
# blocks of 256; at 5,040 rows, 11 and 14 cross that kernel's cutoff and must
# still agree.
GRID_DIMS = [(2, 32, 32, 1), (2, 8, 8, 1), (2, 6, 5, 1)] + [
    (2, w, w, 1) for w in (11, 14, 18, 19, 20, 51, 100, 199, 255)
]


@pytest.mark.parametrize(
    "make_model",
    [lambda: init_model(LAYER_DIMS, np.random.default_rng(0)), short_baseline]
    + [lambda dims=dims: init_model(dims, np.random.default_rng(2)) for dims in GRID_DIMS],
    ids=["500-wide-init", "500-wide-baseline"] + ["-".join(map(str, d)) for d in GRID_DIMS],
)
def test_forward_on_both_grids_equals_the_one_call_chain_bit_for_bit(make_model):
    """The grid goes through in blocks of 5,040 and 4,960 rows, with the bits of one pass."""
    model = make_model()
    for domain in (toy.ORIGINAL_DOMAIN, toy.NEW_DOMAIN):
        grid = toy.evaluation_grid(domain)
        expected = one_call_chain(model, grid)
        assert forward(model, grid).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 128, 5_040])
def test_forward_of_up_to_one_block_is_the_one_call_chain(rows):
    model = init_model(LAYER_DIMS, np.random.default_rng(4))
    x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 2))
    assert forward(model, x).tobytes() == one_call_chain(model, x).tobytes()


def forward_on(split: bool, monkeypatch, model, inputs) -> np.ndarray:
    """``forward`` with its two-thread layers forced on or off."""
    monkeypatch.setattr(mlp, "_two_cpus_one_blas_thread", lambda: split)
    return forward(model, inputs)


def worker_layer_calls(monkeypatch) -> list:
    """Wrap ``mlp._layer``; returns the growing list of rows it ran off the main thread."""
    calls, layer = [], mlp._layer

    def recorded(h, *args):
        if threading.current_thread() is not threading.main_thread():
            calls.append(len(h))
        layer(h, *args)

    monkeypatch.setattr(mlp, "_layer", recorded)
    return calls


@pytest.mark.parametrize(
    "make_model",
    [lambda: init_model(LAYER_DIMS, np.random.default_rng(0)), short_baseline],
    ids=["500-wide-init", "500-wide-baseline"],
)
def test_two_thread_forward_of_both_grids_equals_one_thread(make_model, monkeypatch):
    """Each block's three layers run as two row parts (2,520 + 2,520 and 2,472 +
    2,488 rows), with the bytes of the one-thread path."""
    model = make_model()
    worker_rows = worker_layer_calls(monkeypatch)
    for domain in (toy.ORIGINAL_DOMAIN, toy.NEW_DOMAIN):
        grid = toy.evaluation_grid(domain)
        expected = forward_on(False, monkeypatch, model, grid)
        worker_rows.clear()
        assert forward_on(True, monkeypatch, model, grid).tobytes() == expected.tobytes()
        assert worker_rows == [2_520] * 3 + [2_488] * 3


@pytest.mark.parametrize("rows", [5_041, 7_000, 20_000])
def test_two_thread_forward_equals_one_thread_on_other_row_counts(rows, monkeypatch):
    """Tail blocks of 1 and 1,960 rows: layers whose parts would fall to the
    small-matrix kernel stay one call, the rest split with unchanged bytes."""
    model = init_model(LAYER_DIMS, np.random.default_rng(5))
    x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 2))
    expected = forward_on(False, monkeypatch, model, x)
    assert forward_on(True, monkeypatch, model, x).tobytes() == expected.tobytes()


def test_an_error_in_the_worker_part_propagates_and_forward_still_works(monkeypatch):
    model = init_model(LAYER_DIMS, np.random.default_rng(6))
    grid = toy.evaluation_grid(toy.ORIGINAL_DOMAIN)
    expected = forward_on(True, monkeypatch, model, grid)
    layer = mlp._layer

    def failing_off_main(h, *args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker part failed")
        layer(h, *args)

    monkeypatch.setattr(mlp, "_layer", failing_off_main)
    with pytest.raises(RuntimeError, match="worker part failed"):
        forward(model, grid)
    monkeypatch.setattr(mlp, "_layer", layer)
    assert forward(model, grid).tobytes() == expected.tobytes()


def test_an_error_in_the_calling_part_waits_for_the_worker_part(monkeypatch):
    """The worker writes into the layer's output, so forward never returns or
    raises while the worker's part still runs."""
    model = init_model(LAYER_DIMS, np.random.default_rng(7))
    grid = toy.evaluation_grid(toy.ORIGINAL_DOMAIN)
    finished, layer = [], mlp._layer

    def slow_worker_failing_caller(h, *args):
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("calling part failed")
        time.sleep(0.2)
        layer(h, *args)
        finished.append(len(h))

    monkeypatch.setattr(mlp, "_layer", slow_worker_failing_caller)
    with pytest.raises(RuntimeError, match="calling part failed"):
        forward_on(True, monkeypatch, model, grid)
    assert finished == [2_520]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_child_forked_after_a_two_thread_forward_forwards_the_same_bits(
    tmp_path, monkeypatch
):
    """The worker thread does not survive a fork; the child makes its own."""
    model = init_model(LAYER_DIMS, np.random.default_rng(8))
    grid = toy.evaluation_grid(toy.NEW_DOMAIN)
    expected = forward_on(True, monkeypatch, model, grid)
    assert "profit-forward" in " ".join(t.name for t in threading.enumerate())
    path = tmp_path / "child.bin"
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        status = 1
        try:
            path.write_bytes(forward(model, grid).tobytes())
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in forward")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert path.read_bytes() == expected.tobytes()


# ---------------------------------------------------------------- loss


def test_loss_mse_examples():
    assert loss_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert loss_mse(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0
    assert loss_mse(np.array([2.0, 0.0]), np.array([0.0, 0.0])) == 2.0


def test_loss_mse_empty_batch_is_an_error():
    with pytest.raises(ValueError):
        loss_mse(np.array([]), np.array([]))


# ---------------------------------------------------------------- backward


def test_backward_zero_gradient_at_exact_fit():
    """With weights that reproduce the targets exactly, the gradient vanishes."""
    model = unflatten(np.zeros(param_count((2, 3, 1))), (2, 3, 1))
    batch = Batch(np.array([[0.5, -1.0], [2.0, 0.25]]), np.zeros(2))
    loss, g = backward(model, batch)
    assert loss == 0.0
    assert not g.any()


def test_backward_single_linear_layer_hand_oracle():
    # X = [[1,2],[-0.5,1]], W = (0.5,-0.25), b = 0.1, targets 0:
    # preds (0.1, -0.4), loss 0.085, dW = (0.3, -0.2), db = -0.3
    model = MlpModel(
        weights=(np.array([[0.5], [-0.25]]),),
        biases=(np.array([0.1]),),
    )
    batch = Batch(np.array([[1.0, 2.0], [-0.5, 1.0]]), np.zeros(2))
    loss, g = backward(model, batch)
    assert loss == pytest.approx(0.085, abs=1e-16)
    assert g == pytest.approx([0.3, -0.2, -0.3], abs=1e-15)


def test_backward_residual_doubling_scales_bias_gradient():
    """On a linear miniature, doubling every residual doubles the bias gradient."""
    model = MlpModel(weights=(np.array([[0.7], [0.2], [-0.4]]),), biases=(np.array([0.05]),))
    x = np.random.default_rng(4).standard_normal((6, 3))
    preds = forward(model, x)
    targets = preds - np.array([0.3, -0.1, 0.9, 0.2, -0.5, 0.4])
    targets_doubled = preds - 2.0 * (preds - targets)
    _, g1 = backward(model, Batch(x, targets))
    _, g2 = backward(model, Batch(x, targets_doubled))
    assert g2[-1] == pytest.approx(2.0 * g1[-1], rel=1e-15)
    assert np.allclose(g2, 2.0 * g1, rtol=1e-14, atol=0.0)


def rectifier_signs(model: MlpModel, x: np.ndarray) -> list:
    """Sign pattern of every hidden pre-activation (independent re-derivation)."""
    signs = []
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b
        signs.append(z > 0)
        h = np.maximum(z, 0.0)
    return signs


def test_backward_matches_central_finite_differences():
    """Max relative error <= 1e-5 over 20 random coordinates x 10 seeds.

    The loss surface is piecewise smooth: where a +-h bump flips a hidden
    unit's sign the central difference straddles a kink and stops estimating
    the derivative at theta, so those (rare) coordinates are excluded.
    """
    h = 1e-6
    worst = 0.0
    tested = skipped = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 3, 1)
        model = init_model(dims, rng)
        batch = Batch(rng.standard_normal((8, 2)), rng.standard_normal(8))
        theta = flatten(model)
        _, analytic = backward(model, batch)
        coords = rng.choice(theta.shape[0], size=20, replace=False)
        for k in coords:
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            model_up, model_down = unflatten(up, dims), unflatten(down, dims)
            patterns = zip(rectifier_signs(model_up, batch.inputs),
                           rectifier_signs(model_down, batch.inputs))
            if any(not np.array_equal(a, b) for a, b in patterns):
                skipped += 1
                continue
            loss_up = loss_mse(forward(model_up, batch.inputs), batch.targets)
            loss_down = loss_mse(forward(model_down, batch.inputs), batch.targets)
            fd = (loss_up - loss_down) / (2.0 * h)
            denom = max(abs(analytic[k]), abs(fd), 1e-10)
            worst = max(worst, abs(fd - analytic[k]) / denom)
            tested += 1
    assert worst <= 1e-5, f"finite-difference disagreement {worst:.3e}"
    assert skipped <= 0.1 * (tested + skipped), f"too many kink-straddling draws ({skipped})"


def test_backward_loss_equals_forward_loss():
    rng = np.random.default_rng(12)
    model = init_model((2, 4, 4, 1), rng)
    batch = Batch(rng.standard_normal((5, 2)), rng.standard_normal(5))
    loss, _ = backward(model, batch)
    assert loss == loss_mse(forward(model, batch.inputs), batch.targets)


def test_backward_overflow_names_the_layer():
    model = MlpModel(
        weights=(np.full((2, 2), 1e200), np.full((2, 1), 1e200)),
        biases=(np.zeros(2), np.zeros(1)),
    )
    batch = Batch(np.full((1, 2), 1e200), np.zeros(1))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 1"):
        backward(model, batch)


def test_backward_out_buffer_matches_fresh_allocation():
    rng = np.random.default_rng(21)
    model = init_model((2, 7, 3, 1), rng)
    batch = Batch(rng.standard_normal((9, 2)), rng.standard_normal(9))
    loss_a, g_a = backward(model, batch)
    buf = np.full(param_count(model.dims), np.e)
    loss_b, g_b = backward(model, batch, out=buf)
    assert loss_a == loss_b
    assert np.array_equal(g_a, g_b)
    assert g_b is buf
    with pytest.raises(DimensionMismatchError):
        backward(model, batch, out=np.zeros(3))


# ----------------------------------------------------------- head gradient


def test_backward_head_equals_the_last_block_of_backward():
    """Same loss, and the trailing head block of the full gradient bit for bit."""
    rng = np.random.default_rng(33)
    model = init_model((2, 6, 5, 1), rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal(4))
    loss_full, g_full = backward(model, batch)
    loss_head, g_head = backward_head(model, batch)
    assert head_block_size(model.dims) == 5 * 1 + 1
    assert loss_head == loss_full
    assert g_head.shape == (6,)
    assert g_head.tobytes() == g_full[-6:].tobytes()


def test_backward_head_single_layer_equals_full():
    model = MlpModel(weights=(np.array([[0.5], [-0.25]]),), biases=(np.array([0.1]),))
    batch = Batch(np.array([[1.0, 2.0], [-0.5, 1.0]]), np.zeros(2))
    assert np.array_equal(backward_head(model, batch)[1], backward(model, batch)[1])


def test_backward_head_writes_into_a_head_sized_out_and_rejects_a_parameter_sized_one():
    rng = np.random.default_rng(40)
    model = init_model((2, 4, 3, 1), rng)
    batch = Batch(rng.standard_normal((3, 2)), rng.standard_normal(3))
    head = head_block_size(model.dims)
    buf = np.full(head, 123.0)
    _, g = backward_head(model, batch, out=buf)
    assert g is buf
    assert g.tobytes() == backward(model, batch)[1][-head:].tobytes()
    with pytest.raises(DimensionMismatchError, match=rf"expected \({head},\)"):
        backward_head(model, batch, out=np.zeros(param_count(model.dims)))


# ------------------------------------------------------- flatten / unflatten


def test_flatten_unflatten_roundtrip_bitwise():
    rng = np.random.default_rng(2)
    model = init_model((2, 5, 4, 1), rng)
    again = unflatten(flatten(model), (2, 5, 4, 1))
    for w1, w2 in zip(model.weights, again.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(model.biases, again.biases):
        assert np.array_equal(b1, b2)


def test_vector_roundtrip_through_model_is_identity():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(param_count((2, 3, 3, 1)))
    assert np.array_equal(flatten(unflatten(v, (2, 3, 3, 1))), v)


def test_single_weight_perturbation_moves_single_coordinate():
    rng = np.random.default_rng(13)
    model = init_model((2, 3, 2, 1), rng)
    base = flatten(model)
    bumped = MlpModel(
        weights=(model.weights[0].copy(),) + model.weights[1:],
        biases=model.biases,
    )
    bumped.weights[0][1, 2] += 0.125
    diff = flatten(bumped) - base
    assert np.count_nonzero(diff) == 1
    # row-major layout inside the layer block
    assert diff[1 * 3 + 2] == pytest.approx(0.125, abs=0.0)


def test_unflatten_wrong_length_states_expected_count():
    with pytest.raises(DimensionMismatchError, match="252501"):
        unflatten(np.zeros(10), LAYER_DIMS)


def test_unflatten_returns_views_of_its_input():
    v = np.zeros(param_count((2, 3, 1)))
    model = unflatten(v, (2, 3, 1))
    assert all(np.shares_memory(a, v) for a in model.weights + model.biases)
    v[-1] = 2.5  # the final bias
    assert model.biases[-1][0] == 2.5


# ---------------------------------------------------------------- init


def test_init_model_symmetric_uniform_bounds_and_zero_biases():
    rng = np.random.default_rng(0)
    model = init_model((2, 500, 500, 1), rng)
    for w, (a, b) in zip(model.weights, ((2, 500), (500, 500), (500, 1))):
        bound = np.sqrt(6.0 / (a + b))
        assert np.abs(w).max() <= bound
        # a symmetric draw of this size lands in the outer half of the range
        assert np.abs(w).max() > bound * 0.5
    for bias in model.biases:
        assert not bias.any()


def test_init_model_deterministic_per_seed():
    a = init_model((2, 4, 1), np.random.default_rng(7))
    b = init_model((2, 4, 1), np.random.default_rng(7))
    c = init_model((2, 4, 1), np.random.default_rng(8))
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])
