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

from dataclasses import dataclass

import numpy as np

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

    @property
    def size(self) -> int:
        return len(self.targets)


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

    @property
    def n_params(self) -> int:
        return param_count(self.dims)


def param_count(dims) -> int:
    """Total flat dimension for an architecture: sum of fan_in*fan_out + fan_out."""
    return sum(d_in * d_out + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def head_block_size(dims=LAYER_DIMS) -> int:
    """Flat length of the final layer's weights plus bias: the layout's trailing block."""
    return dims[-2] * dims[-1] + dims[-1]


def zeros_model(dims=LAYER_DIMS) -> MlpModel:
    weights = tuple(np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:]))
    biases = tuple(np.zeros(b) for b in dims[1:])
    return MlpModel(weights, biases)


def init_model(dims=LAYER_DIMS, rng: np.random.Generator | None = None) -> MlpModel:
    """Symmetric uniform init, +-sqrt(6 / (fan_in + fan_out)) per layer, zero biases."""
    if rng is None:
        rng = np.random.default_rng(0)
    weights = []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
    biases = tuple(np.zeros(b) for b in dims[1:])
    return MlpModel(tuple(weights), biases)


def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (B, d_in) input array, as a (B,) vector."""
    _check_inputs(model, inputs)
    h = inputs
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        h = np.maximum(z, 0.0, out=z) if i < last else z
    return h[:, 0]


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

    ``out``, when given, must be a vector of length ``model.n_params``; the
    gradient is written into it and returned, which saves an allocation per
    step on hot training loops.

    Raises ``NonFiniteError`` naming the first layer whose pre-activation
    overflows, so a diverging run fails loudly instead of propagating NaNs.
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
            raise NonFiniteError(f"backward: non-finite pre-activation in layer {i + 1}")
        h = np.maximum(z, 0.0, out=z) if i < n_layers - 1 else z
        acts.append(h)

    preds = acts[-1][:, 0]
    batch_size = batch.size
    resid = preds - batch.targets
    loss = float(np.dot(resid, resid) / batch_size)

    if out is None:
        out = np.empty(model.n_params)
    elif out.shape != (model.n_params,):
        raise DimensionMismatchError(
            f"backward: out has shape {out.shape}, expected ({model.n_params},)"
        )

    # reverse pass: d(loss)/d(pred) = 2 r / B, output layer is linear;
    # each layer's weight and bias blocks are written straight into their
    # slots of the flat layout
    d = (2.0 / batch_size) * resid[:, None]
    end = model.n_params
    for i in range(n_layers - 1, -1, -1):
        a_prev = acts[i]
        d_in, d_out = model.weights[i].shape
        b_start = end - d_out
        w_start = b_start - d_in * d_out
        np.matmul(a_prev.T, d, out=out[w_start:b_start].reshape(d_in, d_out))
        np.sum(d, axis=0, out=out[b_start:end])
        if i > 0:
            w = model.weights[i]
            # a one-wide layer's input gradient is an outer product; broadcasting
            # gives matmul's bits without its overhead for an inner dimension of 1
            d = d * w.T if d_out == 1 else d @ w.T
            d *= acts[i] > 0.0  # rectifier subgradient via the cached activation
        end = w_start

    return loss, out


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
    _check_inputs(model, batch.inputs)
    n_layers = len(model.weights)
    h = batch.inputs
    last_hidden = h  # input feeds the head directly in a single-layer model
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        if not np.isfinite(z).all():
            raise NonFiniteError(f"backward_head: non-finite pre-activation in layer {i + 1}")
        h = np.maximum(z, 0.0, out=z) if i < n_layers - 1 else z
        if i == n_layers - 2:
            last_hidden = h
    preds = h[:, 0]
    resid = preds - batch.targets
    loss = float(np.dot(resid, resid) / batch.size)
    d = (2.0 / batch.size) * resid[:, None]
    head = head_block_size(model.dims)
    if out is None:
        out = np.empty(head)
    elif out.shape != (head,):
        raise DimensionMismatchError(
            f"backward_head: out has shape {out.shape}, expected ({head},)"
        )
    d_in, d_out = model.dims[-2], model.dims[-1]
    np.matmul(last_hidden.T, d, out=out[: d_in * d_out].reshape(d_in, d_out))
    np.sum(d, axis=0, out=out[d_in * d_out :])
    return loss, out


def flatten(model: MlpModel) -> np.ndarray:
    """Model weights as one flat vector in the documented layout."""
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten(values: np.ndarray, dims=LAYER_DIMS, copy: bool = True) -> MlpModel:
    """Inverse of ``flatten`` for the given architecture.

    With ``copy=False`` the layers are read-only views into ``values``, which
    avoids a full parameter copy per call on hot loops; the caller must keep
    ``values`` unchanged for as long as the model is in use.
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
        w = values[pos : pos + a * b].reshape(a, b)
        pos += a * b
        bias = values[pos : pos + b]
        pos += b
        weights.append(w.copy() if copy else w)
        biases.append(bias.copy() if copy else bias)
    return MlpModel(tuple(weights), tuple(biases))
