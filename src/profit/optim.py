"""First-order optimizers (SGD, RMSProp, Adam) behind one step interface.

``step`` works in place under an ownership contract: the caller owns
``theta`` and the state, and one call overwrites ``theta``, the state's
accumulators (``state.buffers``) and its counter ``t``.  The gradient ``g``
is only read, so it may be a buffer the caller reuses or shares.  The
temporaries of the update live in scratch vectors that ``init_state``
allocates once.  The operations run in the same order as the textbook
formulas, so every bit equals what the out-of-place expressions give;
identical ``(state, theta, g)`` inputs give identical bits.  A state belongs
to one training loop at a time.

A step first marks the coordinates whose gradient or accumulators have a
nonzero bit pattern.  When fewer than a quarter are marked (an eighth for
SGD), it gathers them into slices of the scratch vectors, runs the formulas
there and scatters the weights and accumulators back; otherwise it runs over
every coordinate.  Dead rectifier units make this the common case of a
fine-tune, where about 7% of the coordinates are marked.  The gathered step
is exact: with the gradient and accumulators all +0.0 every update is +0.0,
RMSProp's flush keeps a +0.0 average at +0.0, and ``w - (+0.0)`` is ``w``
for every weight.  A -0.0 gradient is not such a fixed point
(``-0.0 - (-0.0 * lr)`` is +0.0), so the test is on bits, not values.  The
finite-value guard reads the gathered gradient before anything is written,
which is equivalent because every entry left out is +0.0.  A step allocates
no float array of parameter size: the marks are n-byte masks, and a
gathered step adds an index array of 8 bytes per marked coordinate.

RMSProp stores squared-gradient averages below the smallest normal float
(``tiny``, about 2.2e-308) as zero.  A weight whose gradient stays exactly
zero (a dead rectifier unit) would otherwise decay its ``v`` entry into the
subnormal range within about 6,500 steps and keep it there for good
(``0.9 * 5e-324`` rounds back to ``5e-324``), and subnormal arithmetic
makes every later update about twice as slow.  At the fixed constants below
the flush leaves the weights bit-identical to the unflushed formula:

- an entry ``v < tiny`` cannot move its weight, because ``sqrt(v) < 1.5e-154``
  is below half an ulp of ``EPSILON``, so ``sqrt(v) + EPSILON == EPSILON``;
- a flushed entry merges back into the unflushed value at the first gradient
  with ``(1 - RHO) * g * g >= 2**-969`` (about 2e-292), since ``RHO * v`` is
  then below half an ulp of the sum.

Between a flush and that merge, nonzero gradients smaller than that keep
``v`` below ``2**-969 / (1 - RHO)``, whose square root (about 1e-145) is
still swamped by ``EPSILON``.  Such gradients (``|g|`` below about 1e-145)
can leave ``v`` apart from the unflushed value in its last bits, as any
reordering of the sum would, but never the weights.  Adam keeps its
subnormals: there a subnormal ``m`` can move a weight that sits at 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

KINDS = ("sgd", "rmsprop", "adam")

# the textbook constants: RMSProp's decay (Tieleman & Hinton, 2012) and
# Adam's moment decays (Kingma & Ba, 2015); EPSILON guards both denominators
RHO = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

_TINY = np.finfo(np.float64).tiny
# A step gathers the coordinates it can move when fewer than this share of
# them can.  Measured at n = 252,501: gathering pays below about 1/8 for SGD,
# whose dense step is three passes, and up to 1/4 for RMSProp and Adam.
_GATHER_SHARE = {"sgd": 0.125, "rmsprop": 0.25, "adam": 0.25}
# the accumulators each kind keeps in ``OptimizerState.buffers``
_ACCUMULATORS = {"sgd": (), "rmsprop": ("v",), "adam": ("m", "v")}


@dataclass(frozen=True)
class OptimizerSpec:
    """Algorithm choice plus its learning-rate schedule.

    ``learning_rate`` must be positive.  RMSProp and Adam run at the module
    constants ``RHO``, ``BETA1``, ``BETA2`` and ``EPSILON``.

    ``decay`` applies classic inverse-time annealing: the rate used at update
    t (0-indexed) is learning_rate / (1 + decay * t).  Zero keeps the rate
    constant.
    """

    kind: str
    learning_rate: float
    decay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not (np.isfinite(self.decay) and self.decay >= 0):
            raise ValueError(f"decay must be finite and >= 0, got {self.decay!r}")

    def rate_at(self, t: int) -> float:
        """Learning rate for 0-indexed update t under inverse-time annealing."""
        return self.learning_rate / (1.0 + self.decay * t)


def sgd(learning_rate: float) -> OptimizerSpec:
    return OptimizerSpec("sgd", learning_rate)


def rmsprop(learning_rate: float, decay: float = 0.0) -> OptimizerSpec:
    return OptimizerSpec("rmsprop", learning_rate, decay=decay)


def adam(learning_rate: float) -> OptimizerSpec:
    return OptimizerSpec("adam", learning_rate)


@dataclass
class OptimizerState:
    """Accumulator buffers aligned with an n-dimensional parameter vector.

    SGD keeps no buffers; RMSProp keeps the squared-gradient EMA ``v``;
    Adam keeps first/second moment EMAs ``m``/``v``.  ``t`` counts steps.
    ``scratch`` holds the update's temporaries (one vector for SGD, two for
    RMSProp and Adam); its contents carry nothing from one step to the next.
    """

    spec: OptimizerSpec
    n: int
    t: int = 0
    buffers: dict = field(default_factory=dict)
    scratch: tuple = field(default=(), repr=False, compare=False)


def init_state(spec: OptimizerSpec, n: int) -> OptimizerState:
    """Allocate zeroed buffers and the scratch vectors for ``spec`` over an n-dimensional vector."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    buffers = {name: np.zeros(n) for name in _ACCUMULATORS[spec.kind]}
    scratch = tuple(np.empty(n) for _ in range(1 if spec.kind == "sgd" else 2))
    return OptimizerState(spec=spec, n=n, t=0, buffers=buffers, scratch=scratch)


def step(
    state: OptimizerState, theta: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, OptimizerState]:
    """Apply one update to ``theta`` and ``state`` in place; ``g`` is only read.

    Returns ``(theta, state)``, the same objects, for chaining.  The checks
    run before anything is written, so a rejected gradient leaves both as
    they were.
    """
    if theta.shape != (state.n,) or g.shape != (state.n,):
        raise DimensionMismatchError(
            f"step: state dimension {state.n} vs theta {theta.shape} / gradient {g.shape}"
        )
    # float64 vectors only: gathered values must fit the scratch and keep their arithmetic
    idx = _movable(state, g) if g.dtype == theta.dtype == np.float64 else None
    if idx is None:
        _check_finite(g)
        _update(state.spec, state.t, theta, g, state.buffers, state.scratch)
    else:
        # k < n / 4 coordinates, so each scratch vector holds four k-slices
        k = len(idx)
        slots = iter([s[j * k : (j + 1) * k] for s in state.scratch for j in range(4)])

        def gather(x):
            return np.take(x, idx, out=next(slots), mode="clip")

        gs = gather(g)
        _check_finite(gs)  # every entry left out is +0.0
        ts = gather(theta)
        buffers = {name: gather(b) for name, b in state.buffers.items()}
        _update(state.spec, state.t, ts, gs, buffers, tuple(next(slots) for _ in state.scratch))
        theta[idx] = ts
        for name, b in state.buffers.items():
            b[idx] = buffers[name]
    state.t += 1
    return theta, state


def _movable(state: OptimizerState, g: np.ndarray) -> np.ndarray | None:
    """Indices of the coordinates ``step`` can move, or None when too many can to gather them.

    Marked are the coordinates whose gradient or an accumulator has a
    nonzero bit pattern; the others are fixed points of the update.
    """
    limit = _GATHER_SHARE[state.spec.kind] * state.n
    marked = np.zeros(state.n, dtype=bool)
    # accumulators first: a baseline's cover most coordinates, its gradient far fewer
    for x in (*state.buffers.values(), g):
        marked |= x.view(np.uint64) != 0
        if np.count_nonzero(marked) >= limit:
            return None
    return np.flatnonzero(marked)


def _check_finite(g: np.ndarray) -> None:
    # a sum of squares is finite only if every entry is; scan when it overflows
    with np.errstate(over="ignore"):
        sum_sq = np.dot(g, g)
    if not math.isfinite(sum_sq) and not np.isfinite(g).all():
        raise NonFiniteError("step: gradient contains NaN or Inf")


def _update(spec: OptimizerSpec, t: int, theta, g, buffers: dict, scratch: tuple) -> None:
    """Update ``t`` (0-indexed) of ``spec`` in place on aligned vectors of any one length."""
    lr = spec.rate_at(t)
    # one rounding per line, in the order of the formula in the comment above
    if spec.kind == "sgd":
        # theta - g * lr
        (update,) = scratch
        np.multiply(g, lr, out=update)
    elif spec.kind == "rmsprop":
        # v = RHO * v + (1 - RHO) * g * g, subnormal entries then zeroed
        # theta - lr * g / (sqrt(v) + EPSILON)
        c, update = scratch
        v = buffers["v"]
        np.multiply(g, 1.0 - RHO, out=c)
        c *= g
        v *= RHO
        v += c
        np.multiply(v, v >= _TINY, out=v)  # v >= 0, so a flushed entry is +0.0
        denom = np.sqrt(v, out=c)
        denom += EPSILON
        np.multiply(g, lr, out=update)
        update /= denom
    else:  # adam, bias-corrected
        # m = BETA1 * m + (1 - BETA1) * g;  v = BETA2 * v + (1 - BETA2) * g * g
        # theta - lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPSILON)
        update, denom = scratch
        m, v = buffers["m"], buffers["v"]
        t += 1
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=update)
        m += update
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=update)
        update *= g
        v += update
        np.divide(m, 1.0 - BETA1**t, out=update)
        update *= lr
        np.divide(v, 1.0 - BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update /= denom
    theta -= update
