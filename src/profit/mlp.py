"""A small fully-connected regression network with hand-derived gradients.

The standard architecture is [2, 500] -> [500, 500] -> [500, 1] with a
rectified-linear activation after the two hidden layers and a linear scalar
output (252,501 parameters).  The kink of the rectifier matters here: it
puts high-frequency structure within reach of gradient descent from small
initial weights, where smooth saturating activations leave the network stuck
in its nearly-linear regime on oscillatory targets.

Gradients are exact reverse-mode derivatives of the mean-squared-error loss,
written out for this fixed family; there is no general autodiff graph here.

Flat layout, used by ``flatten``/``unflatten`` and by everything downstream
that treats the model as one vector: layer 1 weights in row-major order,
layer 1 bias, layer 2 weights, layer 2 bias, ..., final bias.  The final
layer's weights and bias are the trailing ``head_block_size(dims)`` entries,
the block that head-only training works on alone.
"""

import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import DimensionMismatchError, NonFiniteError

LAYER_DIMS = (2, 500, 500, 1)


@dataclass(frozen=True)
class Batch:
    """A batch of input points with scalar regression targets."""

    inputs: np.ndarray   # (B, d_in)
    targets: np.ndarray  # (B,)

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.ndim != 1:
            raise DimensionMismatchError(
                f"batch shapes must be (B, d) and (B,), got {self.inputs.shape} "
                f"and {self.targets.shape}"
            )
        if len(self.inputs) != len(self.targets):
            raise DimensionMismatchError(
                f"batch has {len(self.inputs)} inputs but {len(self.targets)} targets"
            )
        if len(self.inputs) == 0:
            raise ValueError("batch must contain at least one example")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise NonFiniteError("batch contains NaN or Inf")


@dataclass(frozen=True)
class MlpModel:
    """Weights and biases per layer; weight matrices are (fan_in, fan_out)."""

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionMismatchError("weights and biases must pair up, one per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise DimensionMismatchError(
                    f"layer {i + 1}: weight shape {w.shape} does not match bias {b.shape}"
                )
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise DimensionMismatchError(
                    f"layer {i} output width {self.weights[i - 1].shape[1]} does not "
                    f"feed layer {i + 1} input width {w.shape[0]}"
                )

    @property
    def dims(self) -> tuple:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


def param_count(dims) -> int:
    """Total flat dimension for an architecture: sum of fan_in*fan_out + fan_out."""
    return sum(d_in * d_out + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def head_block_size(dims) -> int:
    """Flat length of the final layer's weights plus bias: the layout's trailing block."""
    return dims[-2] * dims[-1] + dims[-1]


def init_model(dims, rng: np.random.Generator) -> MlpModel:
    """Uniform init from ``rng``: +-sqrt(6 / (fan_in + fan_out)) per layer, zero biases."""
    weights = []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
    biases = tuple(np.zeros(b) for b in dims[1:])
    return MlpModel(tuple(weights), biases)


# Rows per block of ``forward``: 24 * 210, a whole number of OpenBLAS's
# SkylakeX 24-row tiles, and large enough that no width tried falls to its
# small-matrix kernel in a grid block where the whole grid does not.  Smaller
# blocks lost the one-pass bits: 2,016 rows at widths 17-20, 199, 206, 213,
# 220 and 255, and every power of two from 16 to 2,048 rows at 500 wide.
_BLOCK_ROWS = 5040
_TILE_ROWS = 24
# OpenBLAS's small-matrix kernel takes products of rows * fan_in * fan_out at
# or below this; a layer runs as two row parts only when both parts stay above.
_SMALL_PRODUCT = 10**6


def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (B, d_in) input array, as a (B,) vector.

    Rows go through in blocks of ``_BLOCK_ROWS``, so a 10,000-point grid
    (5,040 + 4,960 rows) holds half the activations of one pass.  A block's
    rows can differ from one whole-input pass only in its last partial 24-row
    tile, or in a layer that takes OpenBLAS's small-matrix kernel (rows *
    fan_in * fan_out <= 10**6) in the block but not in the whole input.
    Blocks start on tile edges, and on both grids every width tried (2-w-w-1
    for w in 1-79, 80-695 in steps of 7, 250, 256, 500, 512 and 1,000) gave
    the one-pass bits on OpenBLAS 0.3.31 (SkylakeX kernels, one thread).
    Inputs of up to 5,040 rows, every training batch among them, are one block.

    When this process may run on two CPUs and the BLAS runs one thread, a
    block's layer whose two parts both stay above that cutoff runs rows
    ``[:cut]`` on the calling thread and ``[cut:]`` on one worker thread, at
    the 24-row tile edge at or below the block's middle (2,520 of 5,040).
    Each part then sums its rows as the unsplit call does: every 24-row cut
    of 5,040- and 4,960-row products at 500 wide gave that call's bits on the
    same build.  ``backward`` never splits.
    """
    _check_inputs(model, inputs)
    out = np.empty(len(inputs))
    split = _two_cpus_one_blas_thread()
    last = len(model.weights) - 1
    for start in range(0, len(inputs), _BLOCK_ROWS):
        h = inputs[start : start + _BLOCK_ROWS]
        cut = len(h) // (2 * _TILE_ROWS) * _TILE_ROWS
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = np.empty((len(h), w.shape[1]))
            if split and cut * w.size > _SMALL_PRODUCT:
                _layer_in_two_parts(h, w, b, z, i < last, cut)
            else:
                _layer(h, w, b, z, i < last)
            h = z
        out[start : start + len(h)] = h[:, 0]
    return out


def _two_cpus_one_blas_thread() -> bool:
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(cpus) >= 2 and blas.thread_count() == 1


def _layer(h, w, b, z, rectify) -> None:
    """One dense layer into ``z``: product, bias, then the rectifier if asked."""
    np.matmul(h, w, out=z)
    z += b
    if rectify:
        np.maximum(z, 0.0, out=z)


def _layer_in_two_parts(h, w, b, z, rectify, cut) -> None:
    """``_layer`` with rows ``[cut:]`` on the worker thread; waits for both parts."""
    part = _worker.submit(_layer, h[cut:], w, b, z[cut:], rectify)
    try:
        _layer(h[:cut], w, b, z[:cut], rectify)
    finally:
        futures.wait((part,))  # the worker writes into z: never leave it running
    part.result()


def _new_worker() -> None:
    """A new executor for the second parts; its thread starts on first use.

    A forked child needs one: its copy of the parent's has no thread to run them.
    """
    global _worker
    _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="profit-forward")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _check_inputs(model: MlpModel, inputs: np.ndarray) -> None:
    if inputs.ndim != 2 or inputs.shape[1] != model.dims[0]:
        raise DimensionMismatchError(
            f"inputs shape {inputs.shape} does not match model input width {model.dims[0]}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteError("forward: inputs contain NaN or Inf")


def loss_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean of squared residuals."""
    if predictions.shape != targets.shape:
        raise DimensionMismatchError(
            f"loss_mse: {predictions.shape} predictions vs {targets.shape} targets"
        )
    if len(predictions) == 0:
        raise ValueError("loss_mse: empty batch")
    r = predictions - targets
    return float(np.dot(r, r) / len(r))


def backward(
    model: MlpModel, batch: Batch, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """MSE loss and its exact gradient with respect to the flat weights.

    ``out``, when given, must be a vector of length ``param_count(model.dims)``;
    the gradient is written into it and returned, which saves an allocation
    per step on hot training loops.

    Raises ``NonFiniteError`` naming the first layer whose pre-activation
    overflows, so a diverging run fails loudly instead of propagating NaNs.
    """
    return _backward(model, batch, out, 0, "backward")


def backward_head(
    model: MlpModel, batch: Batch, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Loss and the gradient of the final layer's weights and bias alone.

    The gradient has ``head_block_size(model.dims)`` entries and equals the
    trailing block of ``backward``'s gradient bit for bit (same loss, same
    products); the frozen layers get no gradient entries at all, and their
    backward matmuls are skipped.  ``out``, when given, must be a vector of
    that length; the gradient is written into it and returned.
    """
    return _backward(model, batch, out, len(model.weights) - 1, "backward_head")


def _backward(
    model: MlpModel, batch: Batch, out: np.ndarray | None, first_layer: int, who: str
) -> tuple[float, np.ndarray]:
    """Loss and the gradient of layers ``first_layer`` onward (0-based).

    That gradient is the trailing block of the flat layout from the layer's
    weights on, so every layer's entries are the same products whichever
    layer the pass stops at.  ``who`` names the caller in error messages.
    """
    _check_inputs(model, batch.inputs)
    n_layers = len(model.weights)

    # forward with cache
    acts = [batch.inputs]  # post-activation per layer, starting at the input
    h = batch.inputs
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        if not np.isfinite(z).all():
            raise NonFiniteError(f"{who}: non-finite pre-activation in layer {i + 1}")
        h = np.maximum(z, 0.0, out=z) if i < n_layers - 1 else z
        acts.append(h)

    preds = acts[-1][:, 0]
    batch_size = len(batch.targets)
    resid = preds - batch.targets
    loss = float(np.dot(resid, resid) / batch_size)

    n = param_count(model.dims[first_layer:])
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,):
        raise DimensionMismatchError(f"{who}: out has shape {out.shape}, expected ({n},)")

    # reverse pass: d(loss)/d(pred) = 2 r / B, output layer is linear;
    # each layer's weight and bias blocks are written straight into their
    # slots of the flat layout
    d = (2.0 / batch_size) * resid[:, None]
    end = n
    for i in range(n_layers - 1, first_layer - 1, -1):
        a_prev = acts[i]
        d_in, d_out = model.weights[i].shape
        b_start = end - d_out
        w_start = b_start - d_in * d_out
        np.matmul(a_prev.T, d, out=out[w_start:b_start].reshape(d_in, d_out))
        np.sum(d, axis=0, out=out[b_start:end])
        if i > first_layer:
            w = model.weights[i]
            # a one-wide layer's input gradient is an outer product; broadcasting
            # gives matmul's bits without its overhead for an inner dimension of 1
            d = d * w.T if d_out == 1 else d @ w.T
            d *= acts[i] > 0.0  # rectifier subgradient via the cached activation
        end = w_start

    return loss, out


def flatten(model: MlpModel) -> np.ndarray:
    """Model weights as one flat vector in the documented layout."""
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten(values: np.ndarray, dims) -> MlpModel:
    """Inverse of ``flatten`` for the given architecture.

    The model aliases ``values``: its layers are views into the vector, not
    copies, so the caller must keep ``values`` unchanged for as long as the
    model is in use.
    """
    expected = param_count(dims)
    if values.shape != (expected,):
        raise DimensionMismatchError(
            f"unflatten: expected a vector of length {expected} for dims {tuple(dims)}, "
            f"got shape {values.shape}"
        )
    weights, biases = [], []
    pos = 0
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(values[pos : pos + a * b].reshape(a, b))
        pos += a * b
        biases.append(values[pos : pos + b])
        pos += b
    return MlpModel(tuple(weights), tuple(biases))
