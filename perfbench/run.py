"""Fine-tuning benchmark for the ``profit`` package.

Three workloads, each a closed loop (one training or CLI step at a time)
run in its own process with BLAS pinned to one thread:

    profit_finetune  PROFIT fine-tunes from a short baseline trained in set-up
    plain_finetune   a full, then a head-only fine-tune from the same kind of baseline
    cli_pipeline     train-baseline, finetune, evaluate and an n_ref sweep via profit.cli.main

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload profit_finetune --seed 3 --seconds 20 --trace 0

A run sets up several times (a fresh interpreter importing ``profit``, then
the workload's baseline or config) and reports the median, repeats rounds of
the workload for ``--seconds``, and checks every round's outputs.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it alternates untraced and traced rounds, reports the per-layer
metrics and writes the spans to ``.perfbench/spans_<workload>_seed<n>.csv``.
The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("profit_finetune", "plain_finetune", "cli_pipeline")
# One BLAS thread: PROFIT's sign gate turns the last-bit differences between
# thread counts into different results, and the machine may be shared.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(args):
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("PROFIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import profit
    except ImportError as exc:
        print(f"perfbench: cannot import profit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(profit.__file__).resolve().parent != SRC / "profit":
        print(f"perfbench: imported profit from {profit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure

    return measure.main(args, SPEC)


def run_all(args):
    """Each workload in a fresh process; exits non-zero if any fails or is incorrect."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
