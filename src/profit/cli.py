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
        sweep_{axis}.csv; every (value, seed) cell runs in this process

``train_loss`` is the loss on the most recently consumed training batch at
the eval step.  ``train-baseline`` and ``finetune`` print the errors of the
last metrics row when it was taken at the final step (``baseline.steps``, or
``finetune.steps``, plus ``profit.warmup_steps`` for PROFIT): that hook saw
the weights that are saved.  Only otherwise, with no such row, are the grids
forwarded again.  Exit codes: 0 success, 1 usage or config error, 2 runtime,
checkpoint, numeric or out-of-memory error.  Config errors include PROFIT
settings that cannot run (for any strategy), a domain whose squared norm
overflows, a sweep cell that cannot run (found before any training), a
negative ``--seed`` and a config file that cannot be read as text.  File
writes go to a uniquely named temporary file that is then renamed over the
target.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import toy
from .checkpoint import Checkpoint, load_checkpoint, rng_state_of, save_checkpoint, write_atomic
# the loops run inside toy.train; perfbench/tracing.py still patches them under these names
from .core import ProfitStepTrace, run_plain_training, run_profit_training
from .errors import ConfigError
from .mlp import flatten, forward, init_model, loss_mse, unflatten
from .runconfig import RunConfig, config_from_text, load_config
from .toy import (
    STRATEGIES,
    STREAM_INIT,
    csv_text,
    evaluate_error,
    evaluation_grid,
    make_rng,
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


def _seed_flag(text: str) -> int:
    """Type of ``--seed``: an integer >= 0, as the config's ``seeds`` are."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _seed(args, plan) -> int:
    return args.seed if args.seed is not None else plan.seeds[0]


def _grid_errors(theta, plan, domains: tuple) -> dict:
    """``{"<domain>_error": grid error}`` of the weights ``theta`` on each of ``domains``."""
    model = unflatten(theta, plan.dims)
    return {f"{domain}_error": evaluate_error(model, getattr(plan, domain)) for domain in domains}


def _final_errors(metrics: list, final_step: int, theta, plan, domains: tuple) -> list:
    """Grid errors of the final weights ``theta`` on each of ``domains``.

    Reuses the last metrics entry when it was taken at ``final_step``, since
    its eval hook forwarded the grids at these same weights; otherwise
    forwards each grid now.
    """
    if metrics and metrics[-1]["step"] == final_step:
        return [metrics[-1][f"{domain}_error"] for domain in domains]
    return list(_grid_errors(theta, plan, domains).values())


def _train_and_save(
    cfg: RunConfig, out: Path, seed: int, strategy: str, theta0, start_count: int
) -> int:
    """Train ``theta0``, write the checkpoint, metrics and trace, and print the report.

    ``strategy`` is as in ``toy.train`` and prefixes every file name.
    ``start_count`` is the step count of the starting weights; a total the
    checkpoint format cannot hold fails before training.
    """
    plan = cfg.plan
    baseline = strategy == "baseline"
    steps = plan.baseline_steps if baseline else plan.finetune_steps
    Checkpoint.check_step_count(start_count + steps)
    domains = ("original",) if baseline else ("original", "new")
    loss_cell = [math.nan]

    def hook(step, th):
        return {"train_loss": loss_cell[0], **_grid_errors(th, plan, domains)}

    theta, traces, metrics, stream_rng = toy.train(
        plan, seed, strategy, theta0, (hook,), cfg.values["eval_every"], loss_cell
    )
    final_step = steps + (plan.warmup_steps if strategy == "profit" else 0)

    ckpt = Checkpoint(plan.dims, theta, rng_state_of(stream_rng), start_count + steps, cfg.digest())
    ckpt_path = out / f"{strategy}_seed{seed}.pfit"
    save_checkpoint(ckpt_path, ckpt)
    columns = ("step", "train_loss") + tuple(f"{domain}_error" for domain in domains)
    write_atomic(
        out / f"{strategy}_metrics_seed{seed}.csv",
        csv_text(",".join(columns), ([entry[c] for c in columns] for entry in metrics)).encode(),
    )
    if strategy == "profit":
        # the flags go in as ints: csv_text would write a bool as True or False
        rows = [(i, t.omega, int(t.projected), t.delta_norm, t.g_norm, t.batches_consumed,
                 int(t.degenerate)) for i, t in enumerate(traces, start=1)]
        text = csv_text(ProfitStepTrace.CSV_HEADER, rows)
        write_atomic(out / f"profit_trace_seed{seed}.csv", text.encode())

    errors = _final_errors(metrics, final_step, theta, plan, domains)
    report = " ".join(f"{domain}_error={err!r}" for domain, err in zip(domains, errors))
    print(f"{strategy} seed={seed} steps={steps} {report}")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_train_baseline(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg.plan)
    out = _out_dir(args, cfg)
    theta = flatten(init_model(cfg.plan.dims, make_rng(seed, STREAM_INIT)))
    return _train_and_save(cfg, out, seed, "baseline", theta, 0)


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
    return _train_and_save(cfg, out, seed, strategy, ckpt.weights, ckpt.step_count)


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
    rows = zip(*pts.T.tolist(), preds.tolist(), targets.tolist())
    text = csv_text("x1,x2,prediction,target", rows)
    write_atomic(out / f"grid_{args.domain}.csv", text.encode())
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    table = run_ablation_sweep(cfg.plan, args.axis)
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
    p.add_argument("--seed", type=_seed_flag, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the new domain")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--seed", type=_seed_flag, default=None)
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
        # the finite-value guards report overflow as an error line of their
        # own; numpy's warnings would print source paths ahead of it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
