"""Network forward/backward correctness against hand and finite-difference oracles."""

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

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


# 2-32-32-1 is the golden plan, 2-8-8-1 and 2-6-5-1 the CLI's; these three
# and 11, 14 and 51 forward a grid as one pass.  199 forwards it in 3 chunks,
# 255 in 5 and 1,000 in 19 chunks of 504-544 rows.  In blocks of 2,016 rows,
# widths 18-20, 199 and 255 lost the one-pass bits (a layer took OpenBLAS's
# small-matrix kernel), 51 did in blocks of 512 rows and 100 in blocks of 256.
GRID_DIMS = [(2, 32, 32, 1), (2, 8, 8, 1), (2, 6, 5, 1)] + [
    (2, w, w, 1) for w in (11, 14, 18, 19, 20, 51, 100, 199, 255, 1_000)
]


@pytest.mark.parametrize(
    "make_model",
    [lambda: init_model(LAYER_DIMS, np.random.default_rng(0)), short_baseline]
    + [lambda dims=dims: init_model(dims, np.random.default_rng(2)) for dims in GRID_DIMS],
    ids=["500-wide-init", "500-wide-baseline"] + ["-".join(map(str, d)) for d in GRID_DIMS],
)
def test_forward_on_both_grids_equals_the_one_call_chain_bit_for_bit(make_model):
    """At 500 wide the grid goes through in 9 chunks of 1,104-1,144 rows, with
    the bits of one pass."""
    model = make_model()
    for domain in (toy.ORIGINAL_DOMAIN, toy.NEW_DOMAIN):
        grid = toy.evaluation_grid(domain)
        expected = one_call_chain(model, grid)
        assert forward(model, grid).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 128, 1_008, 2_015])
def test_forward_too_short_for_two_chunks_is_the_one_call_chain(rows):
    """At 500 wide a chunk needs 42 tiles (1,008 rows): below 84 whole tiles
    the input is one pass."""
    model = init_model(LAYER_DIMS, np.random.default_rng(4))
    x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 2))
    assert mlp._chunk_edges(rows, model.weights) == [0, rows]
    assert forward(model, x).tobytes() == one_call_chain(model, x).tobytes()


def test_chunks_are_near_equal_runs_of_whole_tiles():
    """Each chunk keeps every matrix-matrix layer above the small-matrix cutoff;
    the one-column last layer (1,104 * 500 = 552,000) is exempt."""
    weights = init_model(LAYER_DIMS, np.random.default_rng(4)).weights
    edges = mlp._chunk_edges(10_000, weights)
    sizes = [b - a for a, b in zip(edges, edges[1:])]
    assert sizes == [1_104] * 4 + [1_128] + [1_104] * 3 + [1_144]
    assert all(a % mlp._TILE_ROWS == 0 for a in edges[:-1])
    assert mlp._chunk_edges(2_016, weights) == [0, 1_008, 2_016]
    assert mlp._chunk_edges(2_039, weights) == [0, 1_008, 2_039]
    wide = init_model((2, 1_000, 1_000, 1), np.random.default_rng(4)).weights
    assert min(np.diff(mlp._chunk_edges(10_000, wide))) * 2 * 1_000 > mlp._SMALL_PRODUCT


# a 500-wide grid's chunks on each thread, and each chunk's runs
CALLING_CHUNKS = [1_104] * 4 + [1_128]
WORKER_CHUNKS = [1_104, 1_104, 1_104, 1_144]
RUNS = {1_104: [360, 360, 384], 1_128: [360, 384, 384], 1_144: [360, 384, 400]}


def test_later_layers_run_over_near_equal_runs_of_at_most_16_tiles():
    """At 500 wide a chunk's later layers go through in runs of at most 16
    tiles, the partial tile in the last run; 2-32-32-1's second layer needs 41
    tiles (977 rows) per run, more than 16, so its chunks are one run, and
    2-64-64-64-1's needs 11, so 17-21 tiles are one run and 22 are two."""
    weights = init_model(LAYER_DIMS, np.random.default_rng(4)).weights
    for rows, runs in RUNS.items():
        assert np.diff(mlp._run_edges(rows, weights)).tolist() == runs
    assert mlp._run_edges(384, weights) == [0, 384]
    assert mlp._run_edges(407, weights) == [0, 407]
    assert mlp._run_edges(408, weights) == [0, 192, 408]
    assert mlp._run_edges(1, weights) == [0, 1]
    narrow = init_model((2, 32, 32, 1), np.random.default_rng(4)).weights
    assert mlp._run_edges(1_104, narrow) == [0, 1_104]
    assert mlp._run_edges(10_000, narrow) == [0, 10_000]
    deep = init_model((2, 64, 64, 64, 1), np.random.default_rng(4)).weights
    assert mlp._run_edges(21 * 24, deep) == [0, 504]
    assert mlp._run_edges(22 * 24, deep) == [0, 264, 528]
    runs = np.diff(mlp._run_edges(10_000, deep))
    assert max(runs) <= 16 * 24 + 23 and min(runs) * 64 * 64 > mlp._SMALL_PRODUCT


def forward_on(split: bool, monkeypatch, model, inputs) -> np.ndarray:
    """``forward`` with its two-thread chunks forced on or off."""
    monkeypatch.setattr(mlp, "_two_cpus_one_blas_thread", lambda: split)
    return forward(model, inputs)


def layer_calls(monkeypatch) -> list:
    """Wrap ``mlp._layer_chain``; returns the growing list of ``(on the main
    thread, first layer, rows, addresses of the layer buffers)`` of its calls."""
    calls, chain = [], mlp._layer_chain

    def recorded(h, model, zs, first=0):
        on_main = threading.current_thread() is threading.main_thread()
        addresses = tuple(z.__array_interface__["data"][0] for z in zs)
        calls.append((on_main, first, len(h), addresses))
        chain(h, model, zs, first)

    monkeypatch.setattr(mlp, "_layer_chain", recorded)
    return calls


def chain_calls(chunks) -> list:
    """``(first layer, rows)`` of each ``_layer_chain`` call over these 500-wide
    chunks: the first layer over each chunk, then the later layers over its runs."""
    return [call for rows in chunks for call in [(0, rows)] + [(1, r) for r in RUNS[rows]]]


def thread_calls(calls, on_main: bool) -> list:
    return [(first, rows) for main, first, rows, _ in calls if main == on_main]


def one_buffer_per_layer_and_thread(calls) -> bool:
    """Every call of one thread at one first layer wrote into the same buffers."""
    buffers = {}
    for main, first, _, addresses in calls:
        buffers.setdefault((main, first), set()).add(addresses)
    return all(len(seen) == 1 for seen in buffers.values())


@pytest.mark.parametrize(
    "make_model",
    [lambda: init_model(LAYER_DIMS, np.random.default_rng(0)), short_baseline],
    ids=["500-wide-init", "500-wide-baseline"],
)
def test_two_thread_forward_of_both_grids_equals_one_thread(make_model, monkeypatch):
    """The calling thread runs the first 5 chunks and the worker the last 4,
    each chunk's first layer whole and its later layers in runs, each thread
    reusing one buffer per layer, with the bytes of the one-thread path, which
    runs all 9 chunks through one buffer per layer."""
    model = make_model()
    calls = layer_calls(monkeypatch)
    for domain in (toy.ORIGINAL_DOMAIN, toy.NEW_DOMAIN):
        grid = toy.evaluation_grid(domain)
        calls.clear()
        expected = forward_on(False, monkeypatch, model, grid)
        assert thread_calls(calls, True) == chain_calls(CALLING_CHUNKS + WORKER_CHUNKS)
        assert thread_calls(calls, False) == []
        assert one_buffer_per_layer_and_thread(calls)
        calls.clear()
        assert forward_on(True, monkeypatch, model, grid).tobytes() == expected.tobytes()
        assert thread_calls(calls, True) == chain_calls(CALLING_CHUNKS)
        assert thread_calls(calls, False) == chain_calls(WORKER_CHUNKS)
        assert one_buffer_per_layer_and_thread(calls)


@pytest.mark.parametrize("rows", [5_040, 5_041, 5_064, 6_000, 7_000, 12_345, 20_000])
def test_two_thread_forward_equals_one_thread_on_other_row_counts(rows, monkeypatch):
    """Both paths give the one-pass bits, also where 5,040-row blocks left a
    tail of 1, 24 or 960 rows whose first or last layer took the small-matrix
    kernel (5,041, 5,064 and 6,000 rows)."""
    model = init_model(LAYER_DIMS, np.random.default_rng(5))
    x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 2))
    expected = one_call_chain(model, x).tobytes()
    assert forward_on(False, monkeypatch, model, x).tobytes() == expected
    assert forward_on(True, monkeypatch, model, x).tobytes() == expected


def failing_chain(monkeypatch, failing_part: str, finished: list) -> None:
    """Patch ``mlp._layer_chain`` to raise in the ``"worker"`` or ``"calling"``
    part; the worker's chunks, when they run, are slow, and each call records
    its ``(first layer, rows)``."""
    chain = mlp._layer_chain

    def patched(h, model, zs, first=0):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (failing_part == "calling"):
            raise RuntimeError(f"{failing_part} part failed")
        if not on_main and first == 0:
            time.sleep(0.1)
        chain(h, model, zs, first)
        finished.append((first, len(h)))

    monkeypatch.setattr(mlp, "_layer_chain", patched)


def test_an_error_in_the_worker_part_propagates_and_forward_still_works(monkeypatch):
    """The worker stops at its first chunk's error; the calling thread still
    runs its own 5 chunks, then raises the worker's error."""
    model = init_model(LAYER_DIMS, np.random.default_rng(6))
    grid = toy.evaluation_grid(toy.ORIGINAL_DOMAIN)
    expected = forward_on(True, monkeypatch, model, grid)
    chain = mlp._layer_chain
    finished = []
    failing_chain(monkeypatch, "worker", finished)
    with pytest.raises(RuntimeError, match="worker part failed"):
        forward(model, grid)
    assert finished == chain_calls(CALLING_CHUNKS)
    monkeypatch.setattr(mlp, "_layer_chain", chain)
    assert forward(model, grid).tobytes() == expected.tobytes()


def test_an_error_in_the_calling_part_waits_for_the_worker_part(monkeypatch):
    """The worker writes into the call's outputs, so forward never returns or
    raises while any of the worker's chunks or runs still runs."""
    model = init_model(LAYER_DIMS, np.random.default_rng(7))
    grid = toy.evaluation_grid(toy.ORIGINAL_DOMAIN)
    finished = []
    failing_chain(monkeypatch, "calling", finished)
    with pytest.raises(RuntimeError, match="calling part failed"):
        forward_on(True, monkeypatch, model, grid)
    assert finished == chain_calls(WORKER_CHUNKS)


@pytest.mark.parametrize("failing_part", [None, "worker", "calling"])
def test_no_thread_outlives_a_two_thread_forward(failing_part, monkeypatch):
    """The worker lives for one call: none is left after forward returns or raises."""
    model = init_model(LAYER_DIMS, np.random.default_rng(9))
    grid = toy.evaluation_grid(toy.NEW_DOMAIN)
    before = threading.active_count()
    calls = layer_calls(monkeypatch)
    if failing_part is None:
        forward_on(True, monkeypatch, model, grid)
        assert thread_calls(calls, False) == chain_calls(WORKER_CHUNKS)
    else:
        failing_chain(monkeypatch, failing_part, [])
        with pytest.raises(RuntimeError, match=f"{failing_part} part failed"):
            forward_on(True, monkeypatch, model, grid)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("profit-forward")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_child_forked_after_a_two_thread_forward_forwards_the_same_bits(
    tmp_path, monkeypatch
):
    """No worker thread crosses the fork; the child's forward starts its own."""
    model = init_model(LAYER_DIMS, np.random.default_rng(8))
    grid = toy.evaluation_grid(toy.NEW_DOMAIN)
    expected = forward_on(True, monkeypatch, model, grid)
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


KERNEL_CHECK = """
import json
import numpy as np
from profit import blas, mlp, toy

grids = {f"[{d.domain_low}, {d.domain_high}]": toy.evaluation_grid(d)
         for d in (toy.ORIGINAL_DOMAIN, toy.NEW_DOMAIN)}
mismatched = []
for dims in (mlp.LAYER_DIMS, (2, 32, 32, 1), (2, 64, 64, 64, 1), (2, 1)):
    model = mlp.init_model(dims, np.random.default_rng(0))
    inputs = dict(grids)
    if dims == mlp.LAYER_DIMS:
        inputs.update({f"{rows} rows": np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 2))
                       for rows in (5_041, 12_345, 20_000)})
    for name, x in inputs.items():
        expected = one_call_chain(model, x).tobytes()
        for split in (False, True):
            mlp._two_cpus_one_blas_thread = lambda: split
            if mlp.forward(model, x).tobytes() != expected:
                mismatched.append(f"{dims} on {name}, two threads {split}")
print(json.dumps({"core": blas.core_name(), "mismatched": mismatched}))
"""


@pytest.mark.parametrize(
    "kernel", [None, "Haswell", "Sandybridge"], ids=["default", "Haswell", "Sandybridge"]
)
def test_grid_forwards_equal_the_one_call_chain_on_each_kernel(kernel):
    """In a fresh process on the default kernel and with ``OPENBLAS_CORETYPE``
    forcing Haswell and Sandybridge, the forced kernel runs, and forwards on one
    and two threads give the one-call chain's bits: both grids through the
    500-wide, 2-32-32-1, 2-64-64-64-1 and single-layer models, and 5,041,
    12,345 and 20,000 rows through the 500-wide one."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(Path(mlp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import numpy as np\n" + inspect.getsource(one_call_chain) + KERNEL_CHECK
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, f"kernel {kernel or 'default'}: {proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    core = result["core"]
    assert core and core == (kernel or core), f"OPENBLAS_CORETYPE={kernel} ran kernel {core}"
    assert result["mismatched"] == [], f"kernel {core} changed the bits"


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


@pytest.mark.parametrize("gradient", [backward, backward_head])
def test_backward_clips_a_minus_inf_pre_activation_to_zero(gradient):
    """Every layer-1 pre-activation overflows to -inf.  The rectifier clips it to
    0, as it clips the large finite negatives of the same model with unit
    layer-1 weights, so both give the same loss and gradient bytes."""
    rng = np.random.default_rng(5)
    w2, w3, b2, b3 = (rng.standard_normal(s) for s in ((3, 3), (3, 1), 3, 1))
    batch = Batch(np.full((4, 2), -1e200), rng.standard_normal(4))
    overflowing, finite = (
        MlpModel((np.full((2, 3), scale), w2, w3), (np.zeros(3), b2, b3)) for scale in (1e200, 1.0)
    )
    with np.errstate(over="ignore"):
        loss, grad = gradient(overflowing, batch)
    expected_loss, expected_grad = gradient(finite, batch)
    assert loss == expected_loss
    assert grad.tobytes() == expected_grad.tobytes()


def test_forward_raises_on_a_non_finite_prediction():
    model = MlpModel(
        weights=(np.full((2, 4), 1e200), np.full((4, 4), 1e200), np.full((4, 1), 1e200)),
        biases=(np.zeros(4), np.zeros(4), np.zeros(1)),
    )
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^forward: non-finite"):
        forward(model, np.ones((3, 2)))


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
