"""The PROFIT optimizer wrapper: temporal gradient orthogonalization.

One outer step: save the weights, let a reference optimizer wander for
``n_ref`` fresh batches, measure the displacement ``delta``, take the
gradient at the displaced point on one more fresh batch, and gate it: when
the gradient opposes the displacement (``omega = <delta, g> < 0``) the
conflicting component is rejected.  The weights are then restored to the
saved state and the main optimizer takes the single real update.

The reference optimizer state persists across outer steps (it is
instantiated once), and the main optimizer's accumulators are never rolled
back when the weights are restored; only the weights revert.

Ownership: the training loops copy the starting weights once and then update
that copy in place (see ``optim.step``).  A plain loop steps the trailing
``state.n`` coordinates of its copy, as a view: every coordinate for full
training, only the final layer's block for head-only training, so frozen
coordinates cost no optimizer work.  The reference optimizer explores on a
two-vector workspace (explored point, displacement) allocated once per run,
so the saved weights are never copied and never leave ``theta``; after the
displaced gradient is taken, the explored point's vector holds the projected
gradient.  A gradient array returned by ``gradient_fn`` is only read.  Each
of <delta, delta>, <g, g> and <delta, g> is computed once, and the
finite-value guards read those sums, scanning the vector only when a sum is
not finite.
"""

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import BatchStreamExhaustedError, DimensionMismatchError, NonFiniteError
from .optim import OptimizerSpec, OptimizerState
from .paramvec import dot, norm, orthogonal_reject

# gradient_fn(theta, batch) -> flat gradient at theta on that batch
GradientFn = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ProfitConfig:
    """Hyperparameters of the wrapper.

    ``n_ref`` reference steps are taken per outer step, each on a fresh
    batch, so one outer step consumes ``n_ref + 1`` batches.  ``warmup_steps``
    plain main-optimizer steps run before any projection logic engages; use
    them when the fine-tuning distribution is far from the original one.
    """

    n_ref: int
    main: OptimizerSpec
    reference: OptimizerSpec
    warmup_steps: int = 0

    def __post_init__(self):
        if self.n_ref < 1:
            raise ValueError(f"n_ref must be >= 1, got {self.n_ref}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


@dataclass(frozen=True)
class ProfitStepTrace:
    """Observability record for one outer step.

    ``projected`` is true only when ``omega < 0`` and the displacement was
    usable; ``degenerate`` marks the near-zero-displacement fallback where
    the gradient passed through unprojected.
    """

    omega: float
    projected: bool
    degenerate: bool
    delta_norm: float
    g_norm: float
    batches_consumed: int

    CSV_HEADER = "step,omega,projected,delta_norm,g_norm,batches_consumed,degenerate"

    def csv_row(self, step: int) -> str:
        return (
            f"{step},{self.omega!r},{int(self.projected)},{self.delta_norm!r},"
            f"{self.g_norm!r},{self.batches_consumed},{int(self.degenerate)}"
        )


def _next_batch(batch_source: Iterator, needed: int):
    try:
        return next(batch_source)
    except StopIteration:
        plain = "a plain training step requires 1 batch"  # PROFIT steps need n_ref + 1 >= 2
        step = plain if needed == 1 else f"a PROFIT step requires n_ref + 1 = {needed} batches"
        raise BatchStreamExhaustedError(f"batch stream exhausted: {step}") from None


def profit_workspace(n: int) -> np.ndarray:
    """Scratch for ``profit_step`` over n parameters: rows are the explored point and the displacement."""
    return np.empty((2, n))


def profit_step(
    theta: np.ndarray,
    config: ProfitConfig,
    main_state: OptimizerState,
    ref_state: OptimizerState,
    batch_source: Iterator,
    gradient_fn: GradientFn,
    workspace: np.ndarray | None = None,
) -> tuple[np.ndarray, OptimizerState, OptimizerState, ProfitStepTrace]:
    """One outer step; consumes exactly ``n_ref + 1`` batches.

    Updates ``theta`` and both optimizer states in place and returns them
    with the step trace.  ``workspace`` comes from ``profit_workspace``; one
    is allocated for this call when it is omitted.
    """
    needed = config.n_ref + 1
    if workspace is None:
        workspace = profit_workspace(theta.shape[0])
    explored, delta = workspace

    # explore with the reference optimizer, away from the saved weights
    np.copyto(explored, theta)
    for _ in range(config.n_ref):
        batch = _next_batch(batch_source, needed)
        g = gradient_fn(explored, batch)
        optim.step(ref_state, explored, g)

    np.subtract(explored, theta, out=delta)
    dd = dot(delta, delta)
    # a sum of squares is finite only if every entry is; scan when it overflows
    if not math.isfinite(dd) and not np.isfinite(delta).all():
        raise NonFiniteError("profit_step: non-finite displacement after reference steps")

    batch = _next_batch(batch_source, needed)
    g = gradient_fn(explored, batch)
    g_norm = norm(g)
    if not math.isfinite(g_norm) and not np.isfinite(g).all():
        raise NonFiniteError("profit_step: non-finite gradient at the displaced point")

    omega = dot(delta, g)
    projected = False
    degenerate = False
    if omega < 0.0:
        # the explored point is spent; its vector takes the projected gradient
        g, degenerate = orthogonal_reject(g, delta, out=explored, dd=dd, gd=omega)
        projected = not degenerate

    # the saved weights are still in theta: take the single main update there
    optim.step(main_state, theta, g)
    trace = ProfitStepTrace(
        omega=omega,
        projected=projected,
        degenerate=degenerate,
        delta_norm=math.sqrt(dd),
        g_norm=g_norm,
        batches_consumed=needed,
    )
    return theta, main_state, ref_state, trace


def run_plain_training(
    theta: np.ndarray,
    state: OptimizerState,
    n_steps: int,
    batch_source: Iterator,
    gradient_fn: GradientFn,
    eval_hooks=(),
    eval_every: int = 0,
    metrics: list | None = None,
) -> tuple[np.ndarray, OptimizerState]:
    """Ordinary single-optimizer loop, one batch per step.

    Copies ``theta`` once on entry, then updates the copy and ``state`` in
    place; returns both.  The optimizer steps the trailing ``state.n``
    coordinates of the copy, a view, and ``gradient_fn`` (which sees the
    full vector, as do the hooks) returns a gradient of that length; the
    coordinates before them are never written.  Full training is the case
    ``state.n == len(theta)``; head-only training passes a head-sized state.
    Also serves as the warmup phase of PROFIT training, so a warmup-only run
    is bit-identical to plain fine-tuning on the same stream.
    """
    n = len(theta)
    if state.n > n:
        raise DimensionMismatchError(
            f"run_plain_training: optimizer state covers {state.n} coordinates, "
            f"theta has only {n}"
        )
    theta = np.array(theta, dtype=np.float64)
    trained = theta[n - state.n :]

    def update():
        optim.step(state, trained, gradient_fn(theta, _next_batch(batch_source, 1)))

    _train_loop(theta, update, n_steps, eval_hooks, eval_every, metrics, 0)
    return theta, state


def _train_loop(theta, update, n_steps, eval_hooks, eval_every, metrics, start) -> None:
    """Call ``update()``, an in-place update of ``theta``, ``n_steps`` times.

    Every ``eval_every`` calls (0: never) the hooks' entry on ``theta``,
    numbered from ``start``, is appended to ``metrics``.
    """
    for i in range(n_steps):
        update()
        if eval_every and (i + 1) % eval_every == 0 and metrics is not None:
            entry = {"step": start + i + 1}
            for hook in eval_hooks:
                entry.update(hook(entry["step"], theta))
            metrics.append(entry)


def run_profit_training(
    theta0: np.ndarray,
    config: ProfitConfig,
    n_steps: int,
    batch_source: Iterator,
    gradient_fn: GradientFn,
    eval_hooks=(),
    eval_every: int = 0,
) -> tuple[np.ndarray, list, list]:
    """Warmup (if configured) followed by ``n_steps`` PROFIT outer steps.

    ``n_steps`` counts main-optimizer updates; the extra reference batches
    are bookkept in the returned traces.  ``eval_hooks`` are callables
    ``(step, theta) -> dict`` merged into a metrics entry every
    ``eval_every`` main updates (0 disables), counted anew from the first
    PROFIT step (3 warmup steps, every 2: steps 2, 5, 7, 9, ...); the weights
    a hook sees are updated in place afterwards, so a hook that keeps them
    must copy them.  ``theta0`` itself is never written.  The starting
    weights are assumed to come from a converged model; that precondition
    cannot be checked here and violating it gives poor results.

    Returns ``(theta_final, traces, metrics)``.
    """
    n = theta0.shape[0]
    main_state = optim.init_state(config.main, n)
    ref_state = optim.init_state(config.reference, n)
    traces: list = []
    metrics: list = []

    theta, main_state = run_plain_training(
        theta0,
        main_state,
        config.warmup_steps,
        batch_source,
        gradient_fn,
        eval_hooks,
        eval_every,
        metrics,
    )

    workspace = profit_workspace(n)

    def update():
        *_, trace = profit_step(
            theta, config, main_state, ref_state, batch_source, gradient_fn, workspace
        )
        traces.append(trace)

    _train_loop(theta, update, n_steps, eval_hooks, eval_every, metrics, config.warmup_steps)
    return theta, traces, metrics
