"""A small fully-connected regression network with hand-derived gradients.

The standard architecture is [2, 500] -> [500, 500] -> [500, 1] with a
rectified-linear activation after the two hidden layers and a linear scalar
output (252,501 parameters).  The kink of the rectifier matters here: it
puts high-frequency structure within reach of gradient descent from small
initial weights, where smooth saturating activations leave the network stuck
in its nearly-linear regime on oscillatory targets.

Gradients are exact reverse-mode derivatives of the mean-squared-error loss,
written out for this fixed family; there is no general autodiff graph here.
A layer (product, bias, then the rectifier on all but the last) is written
once, in ``_layer_chain``, which ``forward`` and ``backward`` both run;
``backward`` checks each layer's activations after the rectifier.

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


# ``forward``'s chunks, and the runs within them, are whole numbers of
# OpenBLAS's SkylakeX 24-row tiles, so their rows are tiled as in one
# whole-input product; only the last chunk's last run holds a partial tile.
_TILE_ROWS = 24
# OpenBLAS's small-matrix kernel takes products of rows * fan_in * fan_out at
# or below this, and sums their rows in another order.  Every chunk keeps each
# matrix-matrix layer (fan-out > 1) above it.  A one-column layer is exempt:
# numpy hands a one-column right operand to BLAS as a matrix-vector product,
# which has no small-matrix path, and every tile-aligned run of rows tried
# (24-1,992 rows from 54 starts, 500 wide) gave the whole input's bits.
_SMALL_PRODUCT = 10**6
# The layers after the first run over at most this many tiles at a time, so a
# thread holds one chunk-sized first-layer buffer and run-sized buffers for the
# rest.  Every product repacks its weight, so shorter runs cost time: on one
# thread a 500-wide grid forward took 85.3-86.1 ms in runs of 16 tiles and
# 87.0-87.5 ms in runs of 10, against 84.9-85.7 ms over whole chunks (medians
# of 15 interleaved calls).  Runs of 16 cut a score's traced peak from 18.6 to
# 12.6 MB.
_RUN_TILES = 16


def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (B, d_in) input array, as a (B,) vector.

    Rows go through in near-equal chunks of whole 24-row tiles, each the
    fewest tiles that keep every matrix-matrix layer's ``rows * fan_in *
    fan_out`` above the small-matrix cutoff (10**6), with the partial tile in
    the last chunk; an input too short for two chunks, or a model with no
    matrix-matrix layer, is one pass.  At 500 wide a chunk needs 42 tiles
    (1,008 rows), so a 10,000-point grid is 9 chunks of 1,104-1,144 rows and
    every training batch is one pass.  Each
    chunk's first layer runs over the whole chunk, and the later layers run
    over near-equal runs of at most 16 whole tiles, each keeping every later
    matrix-matrix layer above the cutoff (a chunk too short for two such runs
    is one run): at 500 wide a 1,104-row chunk is runs of 360, 360 and 384
    rows.  Each product then sums every row as one whole-input pass does.  On
    OpenBLAS 0.3.31 with one BLAS thread, with the chunks on one and on two
    threads, the one-pass bits held under the SkylakeX kernel on both grids
    at every width tried (2-w-w-1 for w in 1-79, 80-695 in steps of 7, 512
    and 1,000) and at 615 row counts from 1 to 20,998 at 500 wide, and under
    the Haswell and Sandybridge kernels on both grids at 22 widths from 6 to
    1,000 and at 21 row counts from 1 to 20,000.

    When this process may run on two CPUs and the BLAS runs one thread, the
    calling thread runs the first half of the chunks (rounded up) and one
    worker thread, living for this call alone, runs the rest; leaving the
    executor's ``with`` waits for the worker, also when the calling part
    raises.  So no thread outlives a call or crosses a fork, and none spins
    between products as OpenBLAS's own threads do.  Every product is a
    single-thread BLAS call over one thread's rows, so the bits stay those of
    one thread, whichever thread runs a chunk.  Each thread reuses one
    first-layer buffer, sized for its largest chunk, and one buffer per later
    layer, sized for its largest run, so a 500-wide grid holds about 12 MB of
    activations, not the 18 MB of whole chunks or the 80 MB of one pass.
    ``backward`` never chunks.

    Raises ``NonFiniteError`` when a prediction is not finite.
    """
    _check_inputs(model, inputs)
    edges = _chunk_edges(len(inputs), model.weights)
    out = np.empty(len(inputs))
    mine = len(edges) // 2  # the calling thread's chunks: ceil(k / 2) of k
    if len(edges) > 2 and _two_cpus_one_blas_thread():
        with futures.ThreadPoolExecutor(1, thread_name_prefix="profit-forward") as worker:
            rest = worker.submit(_run_chunks, model, inputs, edges[mine:], out)
            _run_chunks(model, inputs, edges[: mine + 1], out)
        rest.result()
    else:
        _run_chunks(model, inputs, edges, out)
    if not np.isfinite(out).all():
        raise NonFiniteError("forward: non-finite predictions")
    return out


def _chunk_edges(rows: int, weights) -> list:
    """Row edges of ``forward``'s chunks, from 0 to ``rows``: one chunk when no
    layer is matrix-matrix, since a matrix-vector product has no small-matrix
    path."""
    least = _least_tiles(weights)
    return _tile_edges(rows, max(1, rows // _TILE_ROWS // least) if least else 1)


def _run_edges(rows: int, weights) -> list:
    """Row edges, within one chunk, of the runs that the layers after the first
    go through: the fewest runs of at most ``_RUN_TILES`` tiles, or one run
    when such runs would leave a later matrix-matrix layer at or below the
    cutoff."""
    tiles = rows // _TILE_ROWS
    k = -(-tiles // _RUN_TILES)
    return _tile_edges(rows, k if 0 < k * _least_tiles(weights[1:]) <= tiles else 1)


def _least_tiles(weights) -> int:
    """The fewest whole tiles whose rows keep every matrix-matrix layer of
    ``weights`` above the cutoff; 0 when there is no such layer."""
    least = max((_SMALL_PRODUCT // w.size + 1 for w in weights if w.shape[1] > 1), default=0)
    return -(-least // _TILE_ROWS)


def _tile_edges(rows: int, k: int) -> list:
    """Edges of ``k`` near-equal runs of whole tiles, the partial tile in the last."""
    tiles = rows // _TILE_ROWS
    return [_TILE_ROWS * (i * tiles // k) for i in range(k)] + [rows]


def _run_chunks(model: MlpModel, inputs: np.ndarray, edges, out: np.ndarray) -> None:
    """Rows ``edges[j]:edges[j + 1]`` of ``inputs`` through the layer chain,
    chunk by chunk, into the same rows of ``out``: the first layer over the
    whole chunk, the later layers over its runs."""
    chunks = [(a, b, _run_edges(b - a, model.weights)) for a, b in zip(edges, edges[1:])]
    first = np.empty((max(b - a for a, b, _ in chunks), model.weights[0].shape[1]))
    most = max(b - a for _, _, runs in chunks for a, b in zip(runs, runs[1:]))
    later = [np.empty((most, w.shape[1])) for w in model.weights[1:]]
    for start, stop, runs in chunks:
        h = first[: stop - start]
        _layer_chain(inputs[start:stop], model, [h])
        for a, b in zip(runs, runs[1:]):
            zs = [h[a:b]] + [z[: b - a] for z in later]  # each layer's output rows
            _layer_chain(zs[0], model, zs[1:], 1)
            out[start + a : start + b] = zs[-1][:, 0]


def _two_cpus_one_blas_thread() -> bool:
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(cpus) >= 2 and blas.thread_count() == 1


def _layer_chain(h, model: MlpModel, zs, first: int = 0) -> None:
    """Rows ``h`` through layers ``first`` onward (0-based), one per ``zs``
    entry and each into it: product, bias, then the rectifier on all but the
    model's last layer."""
    last = len(model.weights) - 1
    for i, z in enumerate(zs, first):
        np.matmul(h, model.weights[i], out=z)
        z += model.biases[i]
        if i < last:
            np.maximum(z, 0.0, out=z)
        h = z


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

    Raises ``NonFiniteError`` naming the first layer whose activations are
    not finite after the rectifier, so a diverging run fails loudly instead
    of propagating NaNs.  A pre-activation of -inf is clipped to 0 and passes.
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

    # forward with cache: each layer's output after its rectifier, checked in
    # order.  The rectifier clips a -inf pre-activation to its exact value 0 and
    # keeps +inf and NaN, so a non-finite output is a non-finite pre-activation.
    zs = [np.empty((len(batch.inputs), w.shape[1])) for w in model.weights]
    _layer_chain(batch.inputs, model, zs)
    for i, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise NonFiniteError(f"{who}: non-finite pre-activation in layer {i + 1}")
    acts = [batch.inputs] + zs  # the input, then each layer's output

    batch_size = len(batch.targets)
    resid = zs[-1][:, 0] - batch.targets
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
    for i in range(len(zs) - 1, first_layer - 1, -1):
        d_in, d_out = model.weights[i].shape
        b_start = end - d_out
        w_start = b_start - d_in * d_out
        np.matmul(acts[i].T, d, out=out[w_start:b_start].reshape(d_in, d_out))
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
