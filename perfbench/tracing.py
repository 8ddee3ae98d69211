"""Span tracing of the ``profit`` modules, patched in from outside the package.

Each wrapper replaces a function under the name its caller looks it up by
(a module attribute, or a name imported into another module), records one
span (name, start, end, parent) per call, and restores the original on
``uninstall``.  Spans stay in memory until the run writes them out.
"""

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from profit import cli, core, mlp, optim, toy

MODULES = ("toy", "mlp", "optim", "paramvec", "core", "checkpoint", "runconfig", "cli")
WORKLOADS = ("profit_finetune", "plain_finetune", "cli_pipeline")
ROUND = "bench.round"
SETUP = "bench.setup"


def _optim_step_name(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return f"optim.step.{state.spec.kind}"


def _rows(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["inputs"]).shape[0]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _step_trace(args, kwargs, result):
    return result[3]


# (module, attribute, span name or namer, note taken from the call)
# The attribute is where the caller looks the function up: ``toy`` calls
# ``backward`` and ``forward`` through names imported from ``mlp``, ``core``
# calls the ``paramvec`` functions through its own imports, and ``cli`` imports
# from ``toy``, ``mlp``, ``core``, ``checkpoint`` and ``runconfig``.  Helpers a
# module calls from inside itself stay unwrapped: their time is the caller's
# self time, in the same module.
# ``mlp.backward_head`` is read when ``toy.mlp_gradient_fn`` builds a gradient
# function, so the patch must be in place before a fine-tune starts.
SITES = (
    (toy, "sample_batch", "toy.sample_batch", None),
    (toy, "evaluate_error", "toy.evaluate_error", None),
    (cli, "evaluate_error", "toy.evaluate_error", None),
    (cli, "evaluation_grid", "toy.evaluation_grid", None),
    (cli, "target_function", "toy.target_function", None),
    (toy, "train_baseline", "toy.train_baseline", None),
    (toy, "finetune_model", "toy.finetune_model", None),
    (cli, "run_ablation_sweep", "toy.run_ablation_sweep", None),
    (toy, "backward", "mlp.backward", None),
    (mlp, "backward_head", "mlp.backward_head", None),
    (toy, "forward", "mlp.forward", _rows),
    (cli, "forward", "mlp.forward", _rows),
    (toy, "unflatten", "mlp.unflatten", None),
    (cli, "unflatten", "mlp.unflatten", None),
    (toy, "flatten", "mlp.flatten", None),
    (cli, "flatten", "mlp.flatten", None),
    (mlp, "init_model", "mlp.init_model", None),
    (cli, "init_model", "mlp.init_model", None),
    (optim, "step", _optim_step_name, None),
    (optim, "init_state", "optim.init_state", None),
    (core, "dot", "paramvec.dot", None),
    (core, "norm", "paramvec.norm", None),
    (core, "orthogonal_reject", "paramvec.orthogonal_reject", None),
    (core, "profit_step", "core.profit_step", _step_trace),
    (core, "run_plain_training", "core.run_plain_training", None),
    (toy, "run_plain_training", "core.run_plain_training", None),
    (cli, "run_plain_training", "core.run_plain_training", None),
    (toy, "run_profit_training", "core.run_profit_training", None),
    (cli, "run_profit_training", "core.run_profit_training", None),
    (cli, "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    (cli, "load_checkpoint", "checkpoint.load_checkpoint", None),
    (cli, "rng_state_of", "checkpoint.rng_state_of", None),
    (cli, "load_config", "runconfig.load_config", None),
    (cli, "cmd_train_baseline", "cli.train-baseline", None),
    (cli, "cmd_finetune", "cli.finetune", None),
    (cli, "cmd_evaluate", "cli.evaluate", None),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "main", "cli.main", None),
)

_ALL = set(WORKLOADS)
_PROFIT = {"profit_finetune", "cli_pipeline"}
_CLI = {"cli_pipeline"}

# Workloads on which each span must record calls; on every other workload it
# must record none.  A function that silently stops being traced (a caller
# that re-imports it under another name) fails this check instead of reading
# as a zero-cost layer.
PREDICTED_CALLS = {
    "toy.sample_batch": _ALL,
    "toy.evaluate_error": _ALL,
    "toy.evaluation_grid": _CLI,
    "toy.target_function": _CLI,
    "toy.train_baseline": _ALL,
    "toy.finetune_model": _ALL,
    "toy.run_ablation_sweep": _CLI,
    "mlp.backward": _ALL,
    "mlp.backward_head": {"plain_finetune"},
    "mlp.forward": _ALL,
    "mlp.unflatten": _ALL,
    "mlp.flatten": _ALL,
    "mlp.init_model": _ALL,
    "optim.step.sgd": _PROFIT,
    "optim.step.rmsprop": _ALL,
    "optim.step.adam": set(),
    "optim.init_state": _ALL,
    "paramvec.dot": _PROFIT,
    "paramvec.norm": _PROFIT,
    "paramvec.orthogonal_reject": _PROFIT,
    "core.profit_step": _PROFIT,
    "core.run_plain_training": _ALL,
    "core.run_profit_training": _PROFIT,
    "checkpoint.save_checkpoint": _CLI,
    "checkpoint.load_checkpoint": _CLI,
    "checkpoint.rng_state_of": _CLI,
    "runconfig.load_config": _CLI,
    "cli.train-baseline": _CLI,
    "cli.finetune": _CLI,
    "cli.evaluate": _CLI,
    "cli.sweep": _CLI,
    "cli.main": _CLI,
}


class Tracer:
    """Records spans while installed; ``spans`` rows are [name, start, end, parent, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self.missing = set()  # patch sites the package no longer has

    def install(self):
        for owner, attr, name, note in SITES:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx][4] = note(args, kwargs, result)
            return result

        return traced

    def write_csv(self, path):
        lines = ["name,start,end,parent"]
        lines += [f"{n},{s!r},{e!r},{p}" for n, s, e, p, _ in self.spans]
        path.write_text("\n".join(lines) + "\n")

    def calls_by_name(self):
        counts = defaultdict(int)
        for name, *_ in self.spans:
            counts[name] += 1
        return counts


def self_check(tracer, workload):
    """Problems with the patch sites: names called where a bypass is predicted, or silent."""
    counts = tracer.calls_by_name()
    problems = [f"{site}: patch site not found" for site in sorted(tracer.missing)]
    for name, runs_on in PREDICTED_CALLS.items():
        if workload in runs_on and counts[name] == 0:
            problems.append(f"{name}: no calls recorded, predicted to run on {workload}")
        elif workload not in runs_on and counts[name] > 0:
            problems.append(f"{name}: {counts[name]} calls recorded, predicted bypassed on {workload}")
    unknown = set(counts) - set(PREDICTED_CALLS) - {ROUND, SETUP}
    problems += [f"{name}: traced but missing from the prediction table" for name in sorted(unknown)]
    return problems


def layer_metrics(tracer, untraced_round_s):
    """Per-layer figures, per traced round except where a name says otherwise.

    ``<span>.ms`` is busy time (the span's own duration), ``<span>.self_ms``
    that minus its traced children, ``<module>.self_ms`` the sum of self times
    over the module's spans and ``<module>.share`` that over round wall time.
    """
    spans = tracer.spans
    n = len(spans)
    child_time = [0.0] * n
    root = list(range(n))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]

    rounds = [i for i in range(n) if spans[i][0] == ROUND]
    n_rounds = len(rounds)
    round_wall = sum(spans[i][2] - spans[i][1] for i in rounds)
    stat = defaultdict(float)
    for name in PREDICTED_CALLS:
        for key in ("calls", "ms", "self_ms"):
            stat[f"{name}.{key}"] = 0.0
    stat["mlp.forward.rows"] = stat["checkpoint.save_checkpoint.bytes"] = 0.0
    module_self = defaultdict(float)
    steps = []
    baseline_ms = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        if name == "toy.train_baseline":
            baseline_ms.append(dur * 1e3)
        if spans[root[i]][0] != ROUND or parent < 0:
            continue
        own = dur - child_time[i]
        stat[f"{name}.calls"] += 1
        stat[f"{name}.ms"] += dur * 1e3
        stat[f"{name}.self_ms"] += own * 1e3
        module_self[name.split(".", 1)[0]] += own
        if name == "mlp.forward":
            stat["mlp.forward.rows"] += note
        elif name == "checkpoint.save_checkpoint":
            stat["checkpoint.save_checkpoint.bytes"] += note
        elif name == "core.profit_step":
            steps.append(note)

    out = {key: value / n_rounds for key, value in stat.items()}
    out["toy.train_baseline.ms"] = sum(baseline_ms) / len(baseline_ms) if baseline_ms else 0.0
    for module in MODULES:
        out[f"{module}.self_ms"] = module_self[module] * 1e3 / n_rounds
        out[f"{module}.share"] = module_self[module] / round_wall
    untraced = round_wall - sum(module_self.values())
    out["trace.untraced_frac"] = untraced / round_wall
    traced_round_s = statistics.median(spans[i][2] - spans[i][1] for i in rounds)
    out["trace.overhead"] = traced_round_s / untraced_round_s
    out["trace.spans"] = sum(1 for i in range(n) if spans[root[i]][0] == ROUND) / n_rounds
    out["core.projected_frac"] = sum(t.projected for t in steps) / len(steps) if steps else 0.0
    out["core.degenerate_steps"] = sum(t.degenerate for t in steps) / n_rounds
    out["core.batches_per_update"] = (
        sum(t.batches_consumed for t in steps) / len(steps) if steps else 0.0
    )
    return out
