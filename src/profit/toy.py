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
from dataclasses import dataclass, field, replace

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
    per axis; targets get N(0, noise_std^2) noise added.  ``n_points`` caps
    the total points a stream yields (None streams forever, fresh points
    every batch).
    """

    domain_low: float
    domain_high: float
    noise_std: float = 1.0
    seed: int = 0
    n_points: int | None = None

    def __post_init__(self):
        if not (self.domain_low < self.domain_high):
            raise ValueError(
                f"domain_low must be < domain_high, got [{self.domain_low}, {self.domain_high}]"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.n_points is not None and self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")


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
    config: ToyDataConfig, batch_size: int, rng: np.random.Generator | None = None
) -> Iterator[Batch]:
    """Endless (or ``n_points``-capped) stream of freshly sampled batches."""
    if rng is None:
        rng = make_rng(config.seed)
    remaining = config.n_points
    while True:
        if remaining is not None:
            if remaining < batch_size:
                return
            remaining -= batch_size
        yield sample_batch(config, rng, batch_size)


def evaluation_grid(config: ToyDataConfig, grid_size: int = GRID_SIZE) -> np.ndarray:
    """Deterministic grid_size x grid_size lattice covering the domain, as (N, 2)."""
    axis = np.linspace(config.domain_low, config.domain_high, grid_size)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([x1.ravel(), x2.ravel()])


def evaluate_error(model: MlpModel, config: ToyDataConfig, grid_size: int = GRID_SIZE) -> float:
    """MSE of the model against the noise-free target over the fixed grid."""
    pts = evaluation_grid(config, grid_size)
    preds = forward(model, pts)
    return mlp.loss_mse(preds, target_function(pts))


def mlp_gradient_fn(dims=LAYER_DIMS, head_only: bool = False, loss_out: list | None = None):
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
        model = unflatten(theta, dims, copy=False)  # theta is not written during the call
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
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.baseline_steps < 0 or self.finetune_steps < 0:
            raise ValueError("step counts must be >= 0")
        if not (np.isfinite(self.lr_ratio) and self.lr_ratio > 0):
            raise ValueError(f"lr_ratio must be positive, got {self.lr_ratio}")

    def profit_config(self) -> ProfitConfig:
        reference = optim.OptimizerSpec(self.ref_kind, self.finetune.learning_rate / self.lr_ratio)
        return ProfitConfig(
            n_ref=self.n_ref,
            main=self.finetune,
            reference=reference,
            warmup_steps=self.warmup_steps,
        )


def train_baseline(plan: ExperimentPlan, seed: int) -> MlpModel:
    """Train the from-scratch baseline on the original domain for one seed."""
    model = mlp.init_model(plan.dims, make_rng(seed, STREAM_INIT))
    stream = batch_stream(plan.original, plan.batch_size, make_rng(seed, STREAM_BASELINE))
    theta = flatten(model)
    state = optim.init_state(plan.baseline, theta.shape[0])
    theta, _ = run_plain_training(
        theta, state, plan.baseline_steps, stream, mlp_gradient_fn(plan.dims)
    )
    return unflatten(theta, plan.dims)


def plain_finetune_setup(
    plan: ExperimentPlan, strategy: str, loss_out: list | None = None
) -> tuple:
    """Gradient function and fresh main-optimizer state for "full" or "head".

    For "head" both cover only the final layer's trailing block, the
    coordinates ``run_plain_training`` then updates; for "full", every
    parameter.  ``loss_out`` works as in ``mlp_gradient_fn``.
    """
    head_only = strategy == "head"
    n = head_block_size(plan.dims) if head_only else mlp.param_count(plan.dims)
    gradient = mlp_gradient_fn(plan.dims, head_only=head_only, loss_out=loss_out)
    return gradient, optim.init_state(plan.finetune, n)


def finetune_model(
    plan: ExperimentPlan, baseline_model: MlpModel, strategy: str, seed: int
) -> tuple[MlpModel, list]:
    """Fine-tune a baseline on the new domain; returns (model, profit traces).

    Traces are empty for the plain strategies.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    stream = batch_stream(plan.new, plan.batch_size, make_rng(seed, STREAM_FINETUNE))
    theta0 = flatten(baseline_model)
    traces: list = []
    if strategy == "profit":
        theta, traces, _ = run_profit_training(
            theta0,
            plan.profit_config(),
            plan.finetune_steps,
            stream,
            mlp_gradient_fn(plan.dims),
        )
    else:
        gradient, state = plain_finetune_setup(plan, strategy)
        theta, _ = run_plain_training(theta0, state, plan.finetune_steps, stream, gradient)
    return unflatten(theta, plan.dims), traces


@dataclass(frozen=True)
class ResultRow:
    strategy: str
    seed: int
    original_error: float
    new_error: float
    steps: int
    wall_time_s: float


@dataclass
class ResultsTable:
    """Per-seed benchmark rows; CSV header strategy,seed,original_error,new_error,steps,wall_time_s."""

    rows: list

    CSV_HEADER = "strategy,seed,original_error,new_error,steps,wall_time_s"

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.strategy},{r.seed},{r.original_error!r},{r.new_error!r},"
                f"{r.steps},{r.wall_time_s!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "ResultsTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError("not a results CSV: bad header")
        rows = []
        for ln in lines[1:]:
            strategy, seed, orig, new, steps, wall = ln.split(",")
            rows.append(
                ResultRow(strategy, int(seed), float(orig), float(new), int(steps), float(wall))
            )
        return cls(rows)

    def strategy_rows(self, strategy: str) -> list:
        return [r for r in self.rows if r.strategy == strategy]

    def summary(self) -> dict:
        """Per-strategy mean, standard error, and best of both error columns."""
        out = {}
        for strategy in dict.fromkeys(r.strategy for r in self.rows):
            rows = self.strategy_rows(strategy)
            out[strategy] = {}
            for name, vals in (
                ("original", np.array([r.original_error for r in rows])),
                ("new", np.array([r.new_error for r in rows])),
            ):
                stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
                out[strategy][f"{name}_mean"] = float(np.mean(vals))
                out[strategy][f"{name}_stderr"] = stderr
                out[strategy][f"{name}_best"] = float(np.min(vals))
            out[strategy]["n_seeds"] = len(rows)
        return out


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
        rows.append(
            ResultRow(
                "baseline",
                seed,
                evaluate_error(base, plan.original),
                evaluate_error(base, plan.new),
                plan.baseline_steps,
                base_wall,
            )
        )
        for strategy in plan.strategies:
            t0 = time.perf_counter()
            tuned, _ = finetune_model(plan, base, strategy, seed)
            wall = time.perf_counter() - t0
            rows.append(
                ResultRow(
                    strategy,
                    seed,
                    evaluate_error(tuned, plan.original),
                    evaluate_error(tuned, plan.new),
                    plan.finetune_steps,
                    wall,
                )
            )
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
class SweepTable:
    """One aggregated PROFIT row per swept value."""

    rows: list

    CSV_HEADER = (
        "axis,value,original_error,original_stderr,new_error,new_stderr,"
        "n_seeds,steps,batches_per_step"
    )

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.axis},{r.value!r},{r.original_error!r},{r.original_stderr!r},"
                f"{r.new_error!r},{r.new_stderr!r},{r.n_seeds},{r.steps},{r.batches_per_step}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "SweepTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError("not a sweep CSV: bad header")
        rows = []
        for ln in lines[1:]:
            axis, value, orig, orig_se, new, new_se, n_seeds, steps, bps = ln.split(",")
            rows.append(
                SweepRow(
                    axis,
                    float(value),
                    float(orig),
                    float(orig_se),
                    float(new),
                    float(new_se),
                    int(n_seeds),
                    int(steps),
                    int(bps),
                )
            )
        return cls(rows)


def _plan_with(plan: ExperimentPlan, axis: str, value) -> ExperimentPlan:
    if axis == "n_ref":
        return replace(plan, n_ref=int(value))
    return replace(plan, lr_ratio=float(value))


def sweep_cell(plan: ExperimentPlan, axis: str, value, seed: int, baseline: MlpModel) -> dict:
    """One (value, seed) PROFIT run; isolated so cells can fan out to workers."""
    cell_plan = _plan_with(plan, axis, value)
    tuned, traces = finetune_model(cell_plan, baseline, "profit", seed)
    consumed = {t.batches_consumed for t in traces}
    if len(consumed) > 1:
        raise RuntimeError(f"inconsistent batch accounting in traces: {sorted(consumed)}")
    return {
        "original_error": evaluate_error(tuned, plan.original),
        "new_error": evaluate_error(tuned, plan.new),
        "batches_per_step": consumed.pop() if consumed else cell_plan.n_ref + 1,
    }


def run_ablation_sweep(
    plan: ExperimentPlan,
    axis: str,
    values: Sequence | None = None,
    baselines: dict | None = None,
    max_workers: int = 1,
) -> SweepTable:
    """Sweep ``n_ref`` or the main/reference learning-rate ratio.

    Baselines are trained once per seed and shared across all swept values.
    With ``max_workers > 1`` the (value, seed) cells run in a process pool;
    results are identical either way because every cell is seeded
    independently.
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

    cells = [(value, seed) for value in values for seed in plan.seeds]
    if max_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(sweep_cell, plan, axis, value, seed, baselines[seed])
                for value, seed in cells
            ]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = [sweep_cell(plan, axis, value, seed, baselines[seed]) for value, seed in cells]

    results = dict(zip(cells, outcomes))
    rows = []
    for value in values:
        orig = np.array([results[(value, s)]["original_error"] for s in plan.seeds])
        new = np.array([results[(value, s)]["new_error"] for s in plan.seeds])
        bps = {results[(value, s)]["batches_per_step"] for s in plan.seeds}
        k = len(plan.seeds)
        rows.append(
            SweepRow(
                axis=axis,
                value=float(value),
                original_error=float(np.mean(orig)),
                original_stderr=float(np.std(orig, ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                new_error=float(np.mean(new)),
                new_stderr=float(np.std(new, ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                n_seeds=k,
                steps=plan.finetune_steps,
                batches_per_step=bps.pop(),
            )
        )
    return SweepTable(rows)
