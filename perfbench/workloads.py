"""The benchmark's workloads: set-up, one timed round, and the output checks.

Every workload is a closed loop: ``measure.py`` repeats ``round``
until its time is up, then checks each round's outputs with ``check``.  The
workload seed goes only into the plan (``seeds``), from which the package
derives the model init and both batch streams.  Rounds of one run repeat the
same work, so their results must agree bit for bit.
"""

import hashlib
import io
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

from profit import checkpoint, cli, mlp, runconfig, toy
from profit.core import ProfitStepTrace

# Short runs at full width (2-500-500-1, batch 128) so every step goes
# through the same matmuls and 252,501-float vector passes as the
# full-scale experiment.
BASELINE_STEPS = 150
FINETUNE_STEPS = 60

# The CLI pipeline is smaller per command and evaluates often, so grid
# evaluation, checkpoint I/O and CSV formatting carry their real weight.
CLI_CONFIG = """\
baseline.steps = 20
finetune.steps = 6
eval_every = 6
seeds = {seed}
"""
SWEEP_N_REF = (1, 2, 5)


@dataclass
class Op:
    """One operation (fine-tune, training run or CLI command) and its failed checks."""

    label: str
    problems: list = field(default_factory=list)

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)


@dataclass
class Round:
    updates: int  # main-optimizer updates completed
    train_s: float  # wall time of the calls that train
    errors: dict  # strategy -> (original_error, new_error)
    outputs: dict = field(default_factory=dict)


def weights_digest(theta):
    return hashlib.sha256(theta.tobytes()).hexdigest()


def finite(*values):
    return all(math.isfinite(v) for v in values)


class FinetuneWorkload:
    """Fine-tunes of one strategy after another from a baseline trained in set-up."""

    def __init__(self, strategies, seed):
        self.strategies = strategies
        self.seed = seed
        self.plan = replace(
            toy.ExperimentPlan(),
            baseline_steps=BASELINE_STEPS,
            finetune_steps=FINETUNE_STEPS,
            strategies=strategies,
            seeds=(seed,),
        )

    def setup(self):
        self.baseline = toy.train_baseline(self.plan, self.seed)
        return weights_digest(mlp.flatten(self.baseline))

    def round(self):
        plan = self.plan
        errors, models, traces, train_s = {}, {}, {}, 0.0
        for strategy in self.strategies:
            t0 = time.perf_counter()
            model, traces[strategy] = toy.finetune_model(plan, self.baseline, strategy, self.seed)
            train_s += time.perf_counter() - t0
            models[strategy] = model
            errors[strategy] = (
                toy.evaluate_error(model, plan.original),
                toy.evaluate_error(model, plan.new),
            )
        outputs = {"models": models, "traces": traces}
        return Round(len(self.strategies) * plan.finetune_steps, train_s, errors, outputs)

    def check(self, rnd):
        ops = []
        for strategy, errors in rnd.errors.items():
            op = Op(f"{strategy} fine-tune")
            op.expect(finite(*errors), f"non-finite errors {errors}")
            if strategy == "profit":
                traces = rnd.outputs["traces"][strategy]
                op.expect(len(traces) == self.plan.finetune_steps, f"{len(traces)} step traces")
                bad = [t.batches_consumed for t in traces if t.batches_consumed != self.plan.n_ref + 1]
                op.expect(not bad, f"batches_consumed {sorted(set(bad))} != n_ref + 1")
            ops.append(op)
        return ops

    def fingerprint(self, rnd):
        models = rnd.outputs["models"]
        return {s: (weights_digest(mlp.flatten(models[s])), errs) for s, errs in rnd.errors.items()}

    def verify(self):
        return []


class CliPipeline:
    """``profit.cli.main`` runs train-baseline, finetune, evaluate and an n_ref sweep."""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.config = work_dir / "pipeline.cfg"
        self.out = work_dir / "out"

    def setup(self):
        text = CLI_CONFIG.format(seed=self.seed)
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(text)
        cfg = runconfig.load_config(self.config)
        self.plan, self.eval_every = cfg.plan, cfg.values["eval_every"]
        return hashlib.sha256(text.encode()).hexdigest()

    def _run(self, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "wall": time.perf_counter() - t0}

    def round(self):
        shutil.rmtree(self.out, ignore_errors=True)
        cfg, out, seed = str(self.config), str(self.out), self.seed
        runs = {
            "train-baseline": self._run("train-baseline", "--config", cfg, "--out-dir", out),
            "finetune": self._run(
                "finetune", "--config", cfg, "--checkpoint", f"{out}/baseline_seed{seed}.pfit",
                "--strategy", "profit", "--out-dir", out,
            ),
            "evaluate": self._run(
                "evaluate", "--checkpoint", f"{out}/profit_seed{seed}.pfit", "--config", cfg,
                "--domain", "new", "--out-dir", out,
            ),
            "sweep": self._run("sweep", "--config", cfg, "--axis", "n_ref", "--out-dir", out),
        }
        plan = self.plan
        updates = 2 * plan.baseline_steps + (1 + len(SWEEP_N_REF)) * plan.finetune_steps
        train_s = sum(runs[c]["wall"] for c in ("train-baseline", "finetune", "sweep"))
        printed = _fields(runs["finetune"]["stdout"])
        errors = {"profit": (_float(printed, "original_error"), _float(printed, "new_error"))}
        return Round(updates, train_s, errors, {"runs": runs})

    def check(self, rnd):
        plan, seed = self.plan, self.seed
        runs = rnd.outputs["runs"]
        written = sorted(self.out.iterdir()) if self.out.is_dir() else []
        files = rnd.outputs["files"] = {p.name: p.read_bytes() for p in written}
        ops = {}
        for command, run in runs.items():
            op = ops[command] = Op(f"cli {command}")
            op.expect(run["code"] == 0, f"exit code {run['code']}: {run['stderr'].strip()}")

        def table(op, name, header, n_rows):
            if name not in files:
                op.expect(False, f"{name} not written")
                return []
            lines = files[name].decode().splitlines()
            op.expect(lines[:1] == [header], f"{name}: header {lines[:1]}")
            op.expect(len(lines) == n_rows + 1, f"{name}: {len(lines) - 1} rows, expected {n_rows}")
            return [ln.split(",") for ln in lines[1:]]

        def all_finite(rows, op, name):
            op.expect(all(finite(*map(float, r)) for r in rows), f"{name}: non-finite values")

        op = ops["train-baseline"]
        op.expect(f"baseline_seed{seed}.pfit" in files, "baseline checkpoint not written")
        rows = table(op, f"baseline_metrics_seed{seed}.csv", "step,train_loss,original_error",
                     plan.baseline_steps // self.eval_every)
        all_finite(rows, op, "baseline metrics")
        op.expect(finite(_float(_fields(runs["train-baseline"]["stdout"]), "original_error")),
                  "baseline error not finite")

        op = ops["finetune"]
        op.expect(f"profit_seed{seed}.pfit" in files, "fine-tuned checkpoint not written")
        rows = table(op, f"profit_metrics_seed{seed}.csv", "step,train_loss,original_error,new_error",
                     plan.finetune_steps // self.eval_every)
        all_finite(rows, op, "fine-tune metrics")
        rows = table(op, f"profit_trace_seed{seed}.csv", ProfitStepTrace.CSV_HEADER, plan.finetune_steps)
        consumed = {r[5] for r in rows}
        op.expect(consumed == {str(plan.n_ref + 1)}, f"trace batches_consumed {sorted(consumed)}")
        op.expect(finite(*rnd.errors["profit"]), f"non-finite errors {rnd.errors['profit']}")

        op = ops["evaluate"]
        printed = runs["evaluate"]["stdout"].strip()
        op.expect(printed == repr(rnd.errors["profit"][1]),
                  f"printed error {printed} differs from finetune's new_error")
        grid_rows = table(op, "grid_new.csv", "x1,x2,prediction,target", toy.GRID_SIZE**2)
        all_finite(grid_rows, op, "grid")

        op = ops["sweep"]
        rows = table(op, "sweep_n_ref.csv", toy.SweepTable.CSV_HEADER, len(SWEEP_N_REF))
        all_finite([r[1:] for r in rows], op, "sweep")
        for r, n_ref in zip(rows, SWEEP_N_REF):
            op.expect(float(r[1]) == n_ref and int(r[8]) == n_ref + 1,
                      f"sweep row {r[1]}: batches_per_step {r[8]}")
        if rows:
            # the n_ref = 1 cell fine-tunes the same baseline the same way
            cell = (float(rows[0][2]), float(rows[0][4]))
            op.expect(cell == rnd.errors["profit"], f"sweep n_ref=1 errors {cell} != finetune's")
        return list(ops.values())

    def fingerprint(self, rnd):
        outputs = tuple(run["stdout"] for run in rnd.outputs["runs"].values())
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in rnd.outputs["files"].items()}
        return outputs, digests

    def verify(self):
        """The last round's checkpoints hold the weights the library computes for the same plan."""
        op = Op("checkpoint weights against the library pipeline")
        seed, plan = self.seed, self.plan
        baseline = toy.train_baseline(plan, seed)
        tuned, _ = toy.finetune_model(plan, baseline, "profit", seed)
        for name, model in ((f"baseline_seed{seed}.pfit", baseline), (f"profit_seed{seed}.pfit", tuned)):
            loaded = checkpoint.load_checkpoint(self.out / name)
            op.expect(loaded.weights.tobytes() == mlp.flatten(model).tobytes(),
                      f"{name}: weight bytes differ from the library's")
        return [op]


def _fields(stdout):
    first = stdout.splitlines()[0] if stdout else ""
    return dict(tok.split("=", 1) for tok in first.split() if "=" in tok)


def _float(fields, key):
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        return math.nan


def make(name, seed, work_dir):
    if name == "profit_finetune":
        return FinetuneWorkload(("profit",), seed)
    if name == "plain_finetune":
        return FinetuneWorkload(("full", "head"), seed)
    return CliPipeline(seed, work_dir)
