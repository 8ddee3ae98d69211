"""2D regression benchmark: fit sin(10*|x|) and fine-tune onto a shifted domain.

A baseline network is trained on points drawn from the original square
domain, then adapted to a new, mostly non-overlapping domain with one of
three strategies: full-model fine-tuning, head-only fine-tuning (last layer
only), or PROFIT.  Errors are measured against the noise-free target on a
fixed 100x100 evaluation grid per domain, so reported numbers carry no
evaluation sampling variance.

All randomness flows from integer seeds through Philox (counter-based,
splittable): stream 0 seeds model init, stream 1 the original-domain batch
stream, stream 2 the new-domain fine-tuning stream.
"""

import time
from collections.abc import Iterator, Sequence
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import mlp, optim
from .core import ProfitConfig, run_plain_training, run_profit_training
from .errors import NonFiniteError
from .mlp import LAYER_DIMS, Batch, MlpModel, backward, flatten, forward, head_block_size, unflatten

GRID_SIZE = 100
STRATEGIES = ("full", "head", "profit")

# derivation streams off a run seed
STREAM_INIT = 0
STREAM_BASELINE = 1
STREAM_FINETUNE = 2


def make_rng(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class ToyDataConfig:
    """Sampling domain for one data split.

    Input coordinates are drawn independently from U[domain_low, domain_high]
    per axis; targets get N(0, noise_std^2) noise added.
    """

    domain_low: float
    domain_high: float
    noise_std: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.domain_low) and np.isfinite(self.domain_high)):
            raise ValueError(
                f"domain bounds must be finite, got [{self.domain_low}, {self.domain_high}]"
            )
        if not (self.domain_low < self.domain_high):
            raise ValueError(
                f"domain_low must be < domain_high, got [{self.domain_low}, {self.domain_high}]"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


ORIGINAL_DOMAIN = ToyDataConfig(-1.0, 1.0)
NEW_DOMAIN = ToyDataConfig(0.8, 1.5)


def target_function(x) -> np.ndarray | float:
    """sin(10 * |x|) where |x| is the Euclidean norm over the last axis.

    Accepts a single point of shape (2,) or a stack of points (..., 2);
    radially symmetric and bounded in [-1, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteError("target_function: non-finite coordinates")
    r = np.sqrt(np.sum(x * x, axis=-1))
    out = np.sin(10.0 * r)
    return float(out) if out.ndim == 0 else out


def sample_batch(config: ToyDataConfig, rng: np.random.Generator, batch_size: int) -> Batch:
    """Draw one batch, advancing ``rng``.

    The noise stream is consumed even when ``noise_std == 0`` so the
    generator state after a batch does not depend on the noise setting.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    inputs = rng.uniform(config.domain_low, config.domain_high, size=(batch_size, 2))
    noise = rng.standard_normal(batch_size)
    targets = target_function(inputs) + config.noise_std * noise
    return Batch(inputs, targets)


def batch_stream(
    config: ToyDataConfig, batch_size: int, rng: np.random.Generator
) -> Iterator[Batch]:
    """Endless stream of freshly sampled batches, advancing ``rng``."""
    while True:
        yield sample_batch(config, rng, batch_size)


def evaluation_grid(config: ToyDataConfig) -> np.ndarray:
    """Deterministic GRID_SIZE x GRID_SIZE lattice covering the domain, as (N, 2)."""
    axis = np.linspace(config.domain_low, config.domain_high, GRID_SIZE)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([x1.ravel(), x2.ravel()])


def evaluate_error(model: MlpModel, config: ToyDataConfig) -> float:
    """MSE of the model against the noise-free target over the fixed grid."""
    pts = evaluation_grid(config)
    preds = forward(model, pts)
    return mlp.loss_mse(preds, target_function(pts))


def mlp_gradient_fn(dims, head_only: bool = False, loss_out: list | None = None):
    """gradient_fn over flat weights for the training loops.

    The callable takes the full flat weights.  It returns the gradient of
    every parameter, or with ``head_only`` only that of the final layer's
    block: ``head_block_size(dims)`` entries, which a loop applies to the
    trailing slice of the weights (see ``core.run_plain_training``).

    ``loss_out``, when given, is a single-element list updated with the most
    recent batch loss (cheap observability for metrics CSVs).

    The callable reuses one internal gradient buffer, so the array it returns
    is only valid until its next call.  The training loops consume each
    gradient before requesting another, which makes the reuse safe and saves
    a large allocation per step.
    """
    compute = mlp.backward_head if head_only else backward
    buffer = np.empty(head_block_size(dims) if head_only else mlp.param_count(dims))

    def gradient(theta: np.ndarray, batch: Batch) -> np.ndarray:
        model = unflatten(theta, dims)  # theta is not written during the call
        loss, g = compute(model, batch, out=buffer)
        if loss_out is not None:
            loss_out[0] = loss
        return g

    return gradient


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce the benchmark end to end.

    The baseline trains from scratch on the original domain; each strategy
    then fine-tunes that same baseline on the new domain.  The reference
    learning rate is ``finetune.learning_rate / lr_ratio``.
    """

    original: ToyDataConfig = ORIGINAL_DOMAIN
    new: ToyDataConfig = NEW_DOMAIN
    batch_size: int = 128
    # the baseline anneals its rate inverse-time; constant 1e-2 never settles
    # below the gradient-noise floor on this task (see README benchmark notes)
    baseline: optim.OptimizerSpec = field(default_factory=lambda: optim.rmsprop(1e-2, decay=1e-2))
    baseline_steps: int = 10000
    finetune: optim.OptimizerSpec = field(default_factory=lambda: optim.rmsprop(5e-4))
    finetune_steps: int = 1500
    n_ref: int = 1
    ref_kind: str = "sgd"
    lr_ratio: float = 100.0
    warmup_steps: int = 0
    strategies: tuple = STRATEGIES
    seeds: tuple = (0, 1, 2)
    dims: tuple = LAYER_DIMS

    def __post_init__(self):
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}, expected one of {STRATEGIES}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ValueError(f"dims must be at least 2 widths, each >= 1, got {self.dims}")
        if self.dims[0] != 2 or self.dims[-1] != 1:
            raise ValueError(f"dims must have input width 2 and output width 1, got {self.dims}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.baseline_steps < 0 or self.finetune_steps < 0:
            raise ValueError("step counts must be >= 0")
        if not (np.isfinite(self.lr_ratio) and self.lr_ratio > 0):
            raise ValueError(f"lr_ratio must be positive, got {self.lr_ratio}")
        reference_rate = self.finetune.learning_rate / self.lr_ratio
        if not 0.0 < reference_rate < np.inf:
            raise ValueError(
                f"reference rate = fine-tune rate / lr_ratio = {self.finetune.learning_rate!r}"
                f" / {self.lr_ratio!r} = {reference_rate!r}, which must be positive and finite"
            )
        self.profit_config()  # PROFIT settings that cannot run fail here, not mid-run

    def profit_config(self) -> ProfitConfig:
        reference = optim.OptimizerSpec(self.ref_kind, self.finetune.learning_rate / self.lr_ratio)
        return ProfitConfig(
            n_ref=self.n_ref,
            main=self.finetune,
            reference=reference,
            warmup_steps=self.warmup_steps,
        )


def train(plan, seed: int, strategy: str, theta0, eval_hooks=(), eval_every=0, loss_out=None):
    """Train the flat weights ``theta0`` (never written) with ``strategy`` for one seed.

    "baseline" steps ``plan.baseline`` on the original domain for
    ``baseline_steps``; "full", "head" (the final layer's block alone) and
    "profit" (``plan.profit_config()``) take ``finetune_steps`` main updates
    on the new domain.  Hooks work as in ``core.run_profit_training``,
    ``loss_out`` as in ``mlp_gradient_fn``.  Returns ``(theta, traces,
    metrics, stream_rng)``: traces are empty unless PROFIT ran, and the
    batch stream's generator is advanced past every batch drawn.
    """
    if strategy != "baseline" and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected baseline or one of {STRATEGIES}")
    baseline = strategy == "baseline"
    stream_rng = make_rng(seed, STREAM_BASELINE if baseline else STREAM_FINETUNE)
    stream = batch_stream(plan.original if baseline else plan.new, plan.batch_size, stream_rng)
    steps = plan.baseline_steps if baseline else plan.finetune_steps
    hooks = (eval_hooks, eval_every)
    if strategy == "profit":
        gradient = mlp_gradient_fn(plan.dims, loss_out=loss_out)
        theta, traces, metrics = run_profit_training(
            theta0, plan.profit_config(), steps, stream, gradient, *hooks
        )
        return theta, traces, metrics, stream_rng
    head_only = strategy == "head"
    n = head_block_size(plan.dims) if head_only else mlp.param_count(plan.dims)
    state = optim.init_state(plan.baseline if baseline else plan.finetune, n)
    gradient = mlp_gradient_fn(plan.dims, head_only=head_only, loss_out=loss_out)
    metrics: list = []
    theta, _ = run_plain_training(theta0, state, steps, stream, gradient, *hooks, metrics)
    return theta, [], metrics, stream_rng


def train_baseline(plan: ExperimentPlan, seed: int) -> MlpModel:
    """Train the from-scratch baseline on the original domain for one seed."""
    theta0 = flatten(mlp.init_model(plan.dims, make_rng(seed, STREAM_INIT)))
    theta, *_ = train(plan, seed, "baseline", theta0)
    # a copy: views would keep the run's vector on top of its freed buffers, which
    # the heap then cannot give back (perfbench's peak RSS rose 12% without it)
    return unflatten(theta.copy(), plan.dims)


def finetune_model(
    plan: ExperimentPlan, baseline_model: MlpModel, strategy: str, seed: int
) -> tuple[MlpModel, list]:
    """Fine-tune a baseline on the new domain; returns (model, profit traces).

    Traces are empty for the plain strategies.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    theta, traces, *_ = train(plan, seed, strategy, flatten(baseline_model))
    return unflatten(theta.copy(), plan.dims), traces  # a copy, as in train_baseline


@dataclass(frozen=True)
class ResultRow:
    strategy: str
    seed: int
    original_error: float
    new_error: float
    steps: int
    wall_time_s: float


def csv_text(header: str, rows) -> str:
    """CSV text: the ``header`` line, then one line per row of values.

    Strings and ints are written as they are, every other value as
    ``repr(float(v))``, the shortest text that parses back to the same float.
    """
    lines = [header]
    for row in rows:
        cells = (str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v)) for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class _CsvTable:
    """Dataclass rows, written as CSV under ``CSV_HEADER``: the row's fields in order."""

    rows: list

    def to_csv_text(self) -> str:
        return csv_text(self.CSV_HEADER, map(astuple, self.rows))


def _stats(vals) -> tuple[float, float]:
    """Mean and standard error of the values; the error of a single value is 0."""
    vals = np.array(vals)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(np.mean(vals)), stderr


@dataclass
class ResultsTable(_CsvTable):
    """Per-seed benchmark rows; CSV header strategy,seed,original_error,new_error,steps,wall_time_s."""

    CSV_HEADER = "strategy,seed,original_error,new_error,steps,wall_time_s"


def _result_row(plan: ExperimentPlan, strategy, seed, model, steps, wall) -> ResultRow:
    """A table row with the model's grid errors on both domains."""
    original, new = evaluate_error(model, plan.original), evaluate_error(model, plan.new)
    return ResultRow(strategy, seed, original, new, steps, wall)


def run_experiment(plan: ExperimentPlan, baselines: dict | None = None) -> ResultsTable:
    """Baseline plus every planned strategy, per seed.

    ``baselines`` may carry pre-trained models keyed by seed (their rows then
    report zero wall time); missing seeds are trained here.
    """
    rows = []
    for seed in plan.seeds:
        if baselines is not None and seed in baselines:
            base, base_wall = baselines[seed], 0.0
        else:
            t0 = time.perf_counter()
            base = train_baseline(plan, seed)
            base_wall = time.perf_counter() - t0
        rows.append(_result_row(plan, "baseline", seed, base, plan.baseline_steps, base_wall))
        for strategy in plan.strategies:
            t0 = time.perf_counter()
            tuned, _ = finetune_model(plan, base, strategy, seed)
            wall = time.perf_counter() - t0
            rows.append(_result_row(plan, strategy, seed, tuned, plan.finetune_steps, wall))
    return ResultsTable(rows)


SWEEP_AXES = {
    "n_ref": (1, 2, 5),
    "lr_ratio": (10.0, 100.0, 1000.0, 10000.0),
}


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    original_error: float
    original_stderr: float
    new_error: float
    new_stderr: float
    n_seeds: int
    steps: int
    batches_per_step: int


@dataclass
class SweepTable(_CsvTable):
    """One aggregated PROFIT row per swept value."""

    CSV_HEADER = (
        "axis,value,original_error,original_stderr,new_error,new_stderr,"
        "n_seeds,steps,batches_per_step"
    )


def _plan_with(plan: ExperimentPlan, axis: str, value) -> ExperimentPlan:
    if axis == "n_ref":
        return replace(plan, n_ref=int(value))
    return replace(plan, lr_ratio=float(value))


def run_ablation_sweep(
    plan: ExperimentPlan,
    axis: str,
    values: Sequence | None = None,
    baselines: dict | None = None,
) -> SweepTable:
    """Sweep ``n_ref`` or the main/reference learning-rate ratio, in this process.

    Baselines are trained once per seed and shared across all swept values;
    each row aggregates one value's PROFIT fine-tunes over the seeds.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {tuple(SWEEP_AXES)}")
    if values is None:
        values = SWEEP_AXES[axis]
    if baselines is None:
        baselines = {}
    for seed in plan.seeds:
        if seed not in baselines:
            baselines[seed] = train_baseline(plan, seed)

    rows = []
    for value in values:
        cell_plan = _plan_with(plan, axis, value)
        original_errors, new_errors, consumed = [], [], set()
        for seed in plan.seeds:
            tuned, traces = finetune_model(cell_plan, baselines[seed], "profit", seed)
            original_errors.append(evaluate_error(tuned, plan.original))
            new_errors.append(evaluate_error(tuned, plan.new))
            consumed.update(t.batches_consumed for t in traces)
        if len(consumed) > 1:
            raise RuntimeError(f"inconsistent batch accounting in traces: {sorted(consumed)}")
        orig, orig_se = _stats(original_errors)
        new, new_se = _stats(new_errors)
        rows.append(
            SweepRow(
                axis=axis,
                value=float(value),
                original_error=orig,
                original_stderr=orig_se,
                new_error=new,
                new_stderr=new_se,
                n_seeds=len(plan.seeds),
                steps=plan.finetune_steps,
                batches_per_step=consumed.pop() if consumed else cell_plan.n_ref + 1,
            )
        )
    return SweepTable(rows)
