"""Command-line harness: train, fine-tune, evaluate, sweep.

Subcommands and their outputs (all under --out-dir):

    train-baseline  --config C [--seed N] [--out-dir D]
        baseline_seed{N}.pfit, baseline_metrics_seed{N}.csv
        (metrics header: step,train_loss,original_error)
    finetune        --config C --checkpoint P [--strategy S] [--seed N] [--out-dir D]
        {S}_seed{N}.pfit, {S}_metrics_seed{N}.csv, and for S=profit
        {S}_trace_seed{N}.csv (one row per main update)
        (metrics header: step,train_loss,original_error,new_error)
    evaluate        --checkpoint P [--config C] [--domain original|new] [--out-dir D]
        prints the grid error, writes grid_{domain}.csv (x1,x2,prediction,target)
    sweep           --config C --axis n_ref|lr_ratio [--out-dir D]
        sweep_{axis}.csv; PROFIT_THREADS caps worker processes (default 1,
        at most the CPU count)

``train_loss`` is the loss on the most recently consumed training batch at
the eval step.  ``train-baseline`` and ``finetune`` print the errors of the
last metrics row when it was taken at the final step (``baseline.steps``, or
``finetune.steps``, plus ``profit.warmup_steps`` for PROFIT): that hook saw
the weights that are saved.  Only otherwise, with no such row, are the grids
forwarded again.  Exit codes: 0 success, 1 usage or config error, 2 runtime,
checkpoint, or numeric error.  File writes go to a uniquely named temporary
file that is then renamed over the target.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import optim, toy
from .checkpoint import Checkpoint, load_checkpoint, rng_state_of, save_checkpoint, write_atomic
from .core import ProfitStepTrace, run_plain_training, run_profit_training
from .errors import ConfigError
from .mlp import flatten, forward, init_model, loss_mse, unflatten
from .runconfig import RunConfig, config_from_text, load_config
from .toy import (
    STRATEGIES,
    STREAM_BASELINE,
    STREAM_FINETUNE,
    STREAM_INIT,
    batch_stream,
    evaluate_error,
    evaluation_grid,
    make_rng,
    mlp_gradient_fn,
    plain_finetune_setup,
    run_ablation_sweep,
    target_function,
)

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out_dir if args.out_dir else cfg.values["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(args, plan) -> int:
    return args.seed if args.seed is not None else plan.seeds[0]


def _metrics_csv(metrics: list, columns: tuple) -> str:
    lines = [",".join(columns)]
    for entry in metrics:
        cells = []
        for col in columns:
            v = entry[col]
            cells.append(str(v) if isinstance(v, int) else repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _final_errors(metrics: list, final_step: int, theta, plan, domains: tuple) -> list:
    """Grid errors of the final weights ``theta`` on each of ``domains``.

    Reuses the last metrics entry when it was taken at ``final_step``, since
    its eval hook forwarded the grids at these same weights; otherwise
    forwards each grid now.
    """
    if metrics and metrics[-1]["step"] == final_step:
        return [metrics[-1][f"{domain}_error"] for domain in domains]
    model = unflatten(theta, plan.dims)
    return [evaluate_error(model, getattr(plan, domain)) for domain in domains]


def cmd_train_baseline(args) -> int:
    cfg = load_config(args.config)
    plan = cfg.plan
    seed = _seed(args, plan)
    out = _out_dir(args, cfg)

    model = init_model(plan.dims, make_rng(seed, STREAM_INIT))
    theta = flatten(model)
    state = optim.init_state(plan.baseline, theta.shape[0])
    stream_rng = make_rng(seed, STREAM_BASELINE)
    stream = batch_stream(plan.original, plan.batch_size, stream_rng)
    loss_cell = [math.nan]
    gradient = mlp_gradient_fn(plan.dims, loss_out=loss_cell)

    def hook(step, th):
        return {
            "train_loss": loss_cell[0],
            "original_error": evaluate_error(unflatten(th, plan.dims), plan.original),
        }

    metrics: list = []
    theta, state = run_plain_training(
        theta, state, plan.baseline_steps, stream, gradient,
        eval_hooks=(hook,), eval_every=cfg.values["eval_every"], metrics=metrics,
    )

    ckpt = Checkpoint(plan.dims, theta, rng_state_of(stream_rng), plan.baseline_steps, cfg.digest())
    ckpt_path = out / f"baseline_seed{seed}.pfit"
    save_checkpoint(ckpt_path, ckpt)
    write_atomic(
        out / f"baseline_metrics_seed{seed}.csv",
        _metrics_csv(metrics, ("step", "train_loss", "original_error")).encode(),
    )
    (err,) = _final_errors(metrics, plan.baseline_steps, theta, plan, ("original",))
    print(f"baseline seed={seed} steps={plan.baseline_steps} original_error={err!r}")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_finetune(args) -> int:
    cfg = load_config(args.config)
    plan = cfg.plan
    seed = _seed(args, plan)
    strategy = args.strategy if args.strategy else cfg.values["strategy"]
    out = _out_dir(args, cfg)

    ckpt = load_checkpoint(args.checkpoint)
    if tuple(ckpt.dims) != tuple(plan.dims):
        raise ConfigError(
            f"checkpoint architecture {tuple(ckpt.dims)} does not match configured dims "
            f"{tuple(plan.dims)}"
        )
    if strategy == "profit" and ckpt.step_count == 0:
        print(
            "warning: checkpoint has step_count=0 (untrained weights); this wrapper "
            "assumes a trained starting point, and fine-tuning from scratch is known "
            "to perform no better than random guessing",
            file=sys.stderr,
        )

    theta0 = ckpt.weights
    stream_rng = make_rng(seed, STREAM_FINETUNE)
    stream = batch_stream(plan.new, plan.batch_size, stream_rng)
    loss_cell = [math.nan]

    def hook(step, th):
        model = unflatten(th, plan.dims)
        return {
            "train_loss": loss_cell[0],
            "original_error": evaluate_error(model, plan.original),
            "new_error": evaluate_error(model, plan.new),
        }

    traces: list = []
    if strategy == "profit":
        gradient = mlp_gradient_fn(plan.dims, loss_out=loss_cell)
        theta, traces, metrics = run_profit_training(
            theta0, plan.profit_config(), plan.finetune_steps, stream, gradient,
            eval_hooks=(hook,), eval_every=cfg.values["eval_every"],
        )
    else:
        gradient, state = plain_finetune_setup(plan, strategy, loss_out=loss_cell)
        metrics = []
        theta, state = run_plain_training(
            theta0, state, plan.finetune_steps, stream, gradient,
            eval_hooks=(hook,), eval_every=cfg.values["eval_every"], metrics=metrics,
        )

    new_ckpt = Checkpoint(
        plan.dims, theta, rng_state_of(stream_rng),
        ckpt.step_count + plan.finetune_steps, cfg.digest(),
    )
    ckpt_path = out / f"{strategy}_seed{seed}.pfit"
    save_checkpoint(ckpt_path, new_ckpt)
    write_atomic(
        out / f"{strategy}_metrics_seed{seed}.csv",
        _metrics_csv(metrics, ("step", "train_loss", "original_error", "new_error")).encode(),
    )
    if strategy == "profit":
        trace_lines = [ProfitStepTrace.CSV_HEADER]
        trace_lines += [t.csv_row(i + 1) for i, t in enumerate(traces)]
        write_atomic(
            out / f"{strategy}_trace_seed{seed}.csv", ("\n".join(trace_lines) + "\n").encode()
        )

    final_step = plan.finetune_steps
    if strategy == "profit":
        final_step += plan.warmup_steps
    original_error, new_error = _final_errors(
        metrics, final_step, theta, plan, ("original", "new")
    )
    print(
        f"{strategy} seed={seed} steps={plan.finetune_steps} "
        f"original_error={original_error!r} new_error={new_error!r}"
    )
    print(f"wrote {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config) if args.config else config_from_text("")
    plan = cfg.plan
    ckpt = load_checkpoint(args.checkpoint)
    data_cfg = plan.original if args.domain == "original" else plan.new
    model = unflatten(ckpt.weights, tuple(ckpt.dims))
    # one forward of the grid serves both the printed error and the CSV;
    # the error is evaluate_error's arithmetic on the same predictions
    pts = evaluation_grid(data_cfg)
    preds = forward(model, pts)
    targets = target_function(pts)
    print(repr(loss_mse(preds, targets)))

    out = _out_dir(args, cfg)
    lines = ["x1,x2,prediction,target"]
    for (x1, x2), p, t in zip(pts, preds, targets):
        lines.append(f"{float(x1)!r},{float(x2)!r},{float(p)!r},{float(t)!r}")
    write_atomic(out / f"grid_{args.domain}.csv", ("\n".join(lines) + "\n").encode())
    return 0


def _worker_cap() -> int:
    """Sweep worker processes from ``PROFIT_THREADS``, at most ``os.cpu_count()``."""
    raw = os.environ.get("PROFIT_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"PROFIT_THREADS must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError(f"PROFIT_THREADS must be a positive integer, got {raw!r}")
    cpus = os.cpu_count()
    if cpus is not None and cap > cpus:
        print(
            f"warning: PROFIT_THREADS={cap} exceeds the {cpus} CPUs; using {cpus} workers",
            file=sys.stderr,
        )
        return cpus
    return cap


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    table = run_ablation_sweep(cfg.plan, args.axis, max_workers=_worker_cap())
    out = _out_dir(args, cfg)
    path = out / f"sweep_{args.axis}.csv"
    write_atomic(path, table.to_csv_text().encode())
    for row in table.rows:
        print(
            f"{row.axis}={row.value!r} original_error={row.original_error!r} "
            f"new_error={row.new_error!r}"
        )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="profit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-baseline", help="train the from-scratch baseline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the new domain")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="grid error of a checkpoint on one domain")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--domain", choices=("original", "new"), default="original")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="ablation sweep over n_ref or lr_ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=tuple(toy.SWEEP_AXES), required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
