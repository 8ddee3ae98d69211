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


def summarize_traces(traces) -> dict:
    """Why a run's gate fired, from its per-step traces.

    ``steps``, ``projected_frac`` and ``degenerate_steps`` count the traces.
    ``cos_p10``, ``cos_p50`` and ``cos_p90`` are the 10th, 50th and 90th
    percentiles (numpy's linear interpolation) of cos(delta, g) = ``omega /
    (delta_norm * g_norm)`` over the steps whose norm product is finite and
    positive; ``median_kept_share`` is the median, over those steps that were
    projected, of sqrt(max(0, 1 - cos**2)), the share of the gradient's norm
    that the projection keeps.  A statistic with no eligible step is ``None``.
    """
    omega = np.array([t.omega for t in traces], dtype=np.float64)
    scale = np.array([t.delta_norm * t.g_norm for t in traces], dtype=np.float64)
    projected = np.array([t.projected for t in traces], dtype=bool)
    eligible = np.isfinite(scale) & (scale > 0.0)
    cos = omega[eligible] / scale[eligible]
    kept = np.sqrt(np.maximum(0.0, 1.0 - cos[projected[eligible]] ** 2))
    p10, p50, p90 = np.percentile(cos, (10, 50, 90)).tolist() if len(cos) else (None,) * 3
    return {
        "steps": len(traces),
        "projected_frac": float(projected.mean()) if len(traces) else None,
        "degenerate_steps": sum(t.degenerate for t in traces),
        "cos_p10": p10,
        "cos_p50": p50,
        "cos_p90": p90,
        "median_kept_share": float(np.median(kept)) if len(kept) else None,
    }


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
    is allocated for this call when it is omitted, and any other shape or
    dtype is a ``DimensionMismatchError`` before a batch is drawn.
    """
    needed = config.n_ref + 1
    n = theta.shape[0]
    if workspace is None:
        workspace = profit_workspace(n)
    elif workspace.dtype != np.float64 or workspace.shape != (2, n):
        raise DimensionMismatchError(
            f"profit_step: workspace must be float64 of shape (2, {n}), "
            f"got {workspace.dtype} of shape {workspace.shape}"
        )
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


def _plain_update(theta: np.ndarray, state: OptimizerState, batch_source: Iterator, gradient_fn):
    """A plain step as an ``update()``: one batch, one ``state`` step of theta's trailing view."""
    trained = theta[len(theta) - state.n :]
    return lambda: optim.step(state, trained, gradient_fn(theta, _next_batch(batch_source, 1)))


def run_plain_training(
    theta: np.ndarray,
    state: OptimizerState,
    n_steps: int,
    batch_source: Iterator,
    gradient_fn: GradientFn,
    eval_hooks=(),
    eval_every: int = 0,
) -> tuple[np.ndarray, list]:
    """Ordinary single-optimizer loop, one batch per step.

    Copies ``theta`` once on entry, then updates the copy and ``state`` in
    place; returns ``(theta_final, metrics)``.  The optimizer steps the
    trailing ``state.n`` coordinates of the copy, a view, and ``gradient_fn``
    (which sees the full vector, as do the hooks) returns a gradient of that
    length; the coordinates before them are never written.  Full training is
    the case ``state.n == len(theta)``; head-only training passes a
    head-sized state.  The same step is the warmup phase of PROFIT training,
    so a warmup-only run is bit-identical to plain fine-tuning on the same
    stream.  Hooks run as in ``run_profit_training``.
    """
    n = len(theta)
    if state.n > n:
        raise DimensionMismatchError(
            f"run_plain_training: optimizer state covers {state.n} coordinates, "
            f"theta has only {n}"
        )
    theta = np.array(theta, dtype=np.float64)
    update = _plain_update(theta, state, batch_source, gradient_fn)
    return theta, _train_loop(theta, [(n_steps, update)], eval_hooks, eval_every)


def _train_loop(theta, phases, eval_hooks, eval_every) -> list:
    """Run ``phases``, ``(n_steps, update)`` pairs in order; ``update()`` writes ``theta`` in place.

    Every ``eval_every`` calls within a phase (0: never) the hooks' entry on
    ``theta``, numbered from the first phase's start, joins the returned metrics.
    """
    metrics = []
    done = 0
    for n_steps, update in phases:
        for i in range(1, n_steps + 1):
            update()
            if eval_every and i % eval_every == 0:
                entry = {"step": done + i}
                for hook in eval_hooks:
                    entry.update(hook(entry["step"], theta))
                metrics.append(entry)
        done += n_steps
    return metrics


def run_profit_training(
    theta0: np.ndarray,
    config: ProfitConfig,
    n_steps: int,
    batch_source: Iterator,
    gradient_fn: GradientFn,
    eval_hooks=(),
    eval_every: int = 0,
) -> tuple[np.ndarray, list, list]:
    """A plain warmup phase (if configured), then ``n_steps`` PROFIT outer steps.

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
    theta = np.array(theta0, dtype=np.float64)
    traces: list = []
    args = (theta, config, main_state, ref_state, batch_source, gradient_fn, profit_workspace(n))
    phases = [
        (config.warmup_steps, _plain_update(theta, main_state, batch_source, gradient_fn)),
        (n_steps, lambda: traces.append(profit_step(*args)[3])),
    ]
    return theta, traces, _train_loop(theta, phases, eval_hooks, eval_every)
