"""End-to-end command-line tests on a miniature configuration."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from profit import cli, toy
from profit.checkpoint import Checkpoint, load_checkpoint, rng_state_of, save_checkpoint
from profit.mlp import flatten, forward, init_model, param_count, unflatten
from profit.runconfig import load_config
from profit.toy import evaluate_error, evaluation_grid, make_rng

TINY_CFG = """\
dims = 2,8,8,1
batch_size = 8
baseline.steps = 40
finetune.steps = 12
eval_every = 5
seeds = 0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CFG)
    return path


def config_text(overrides: dict) -> str:
    """``TINY_CFG`` with each key in ``overrides`` set (replaced or appended)."""
    lines = [ln for ln in TINY_CFG.splitlines() if ln.split(" = ")[0] not in overrides]
    return "\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def count_grid_forwards(monkeypatch) -> list:
    """Patch both names the CLI forwards through; returns the growing list of grid rows."""
    rows = []

    def counted(model, inputs):
        if inputs.shape[0] == 100 * 100:
            rows.append(inputs.shape[0])
        return forward(model, inputs)

    monkeypatch.setattr(cli, "forward", counted)
    monkeypatch.setattr(toy, "forward", counted)  # the name evaluate_error calls
    return rows


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def baseline_args(cfg_path, out):
    return ("train-baseline", "--config", cfg_path, "--out-dir", out)


# ------------------------------------------------------------- baseline


def test_train_baseline_writes_checkpoint_and_metrics(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg_path, out)) == 0
    stdout = capsys.readouterr().out
    assert "baseline seed=0 steps=40 original_error=" in stdout
    assert f"wrote {out / 'baseline_seed0.pfit'}" in stdout

    ckpt = load_checkpoint(out / "baseline_seed0.pfit")
    assert tuple(ckpt.dims) == (2, 8, 8, 1)
    assert ckpt.step_count == 40
    assert len(ckpt.config_digest) == 64

    lines = (out / "baseline_metrics_seed0.csv").read_text().splitlines()
    assert lines[0] == "step,train_loss,original_error"
    assert len(lines) == 1 + 40 // 5
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [5, 10, 15, 20, 25, 30, 35, 40]


def test_zero_step_run_checkpoints_the_initial_weights(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(TINY_CFG.replace("baseline.steps = 40", "baseline.steps = 0"))
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg, out)) == 0
    ckpt = load_checkpoint(out / "baseline_seed0.pfit")
    fresh = flatten(init_model((2, 8, 8, 1), make_rng(0, 0)))
    assert np.array_equal(ckpt.weights, fresh)
    assert ckpt.step_count == 0
    assert (out / "baseline_metrics_seed0.csv").read_text() == "step,train_loss,original_error\n"


def test_identical_commands_write_identical_bytes(cfg_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*baseline_args(cfg_path, out_a)) == 0
    assert run_cli(*baseline_args(cfg_path, out_b)) == 0
    assert (out_a / "baseline_seed0.pfit").read_bytes() == (out_b / "baseline_seed0.pfit").read_bytes()
    assert (out_a / "baseline_metrics_seed0.csv").read_text() == (
        out_b / "baseline_metrics_seed0.csv"
    ).read_text()


def test_seed_flag_overrides_config(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg_path, out), "--seed", 5) == 0
    assert (out / "baseline_seed5.pfit").exists()


# ------------------------------------------------------------- finetune


@pytest.fixture()
def trained(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg_path, out)) == 0
    capsys.readouterr()
    return out / "baseline_seed0.pfit"


def finetune_args(cfg_path, ckpt, out, strategy):
    return (
        "finetune", "--config", cfg_path, "--checkpoint", ckpt,
        "--out-dir", out, "--strategy", strategy,
    )


def test_finetune_profit_writes_trace_metrics_and_checkpoint(cfg_path, trained, tmp_path, capsys):
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg_path, trained, out, "profit")) == 0
    stdout = capsys.readouterr().out
    assert "profit seed=0 steps=12 original_error=" in stdout and "new_error=" in stdout

    ckpt = load_checkpoint(out / "profit_seed0.pfit")
    assert ckpt.step_count == 40 + 12

    trace = (out / "profit_trace_seed0.csv").read_text().splitlines()
    assert trace[0] == "step,omega,projected,delta_norm,g_norm,batches_consumed,degenerate"
    assert len(trace) == 1 + 12
    assert all(ln.split(",")[5] == "2" for ln in trace[1:])  # n_ref + 1 batches per step
    assert [int(ln.split(",")[0]) for ln in trace[1:]] == list(range(1, 13))

    metrics = (out / "profit_metrics_seed0.csv").read_text().splitlines()
    assert metrics[0] == "step,train_loss,original_error,new_error"
    assert len(metrics) == 1 + 12 // 5


def test_profit_trace_writes_its_flags_as_zero_or_one(cfg_path, trained, tmp_path, capsys):
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg_path, trained, out, "profit")) == 0
    rows = [ln.split(",") for ln in (out / "profit_trace_seed0.csv").read_text().splitlines()[1:]]
    assert rows and all(r[2] in ("0", "1") and r[6] in ("0", "1") for r in rows)


def test_finetune_plain_strategies_have_no_trace(cfg_path, trained, tmp_path, capsys):
    out = tmp_path / "ft"
    for strategy in ("full", "head"):
        assert run_cli(*finetune_args(cfg_path, trained, out, strategy)) == 0
        assert (out / f"{strategy}_seed0.pfit").exists()
        assert not (out / f"{strategy}_trace_seed0.csv").exists()


def test_finetune_is_deterministic(cfg_path, trained, tmp_path, capsys):
    out_a, out_b = tmp_path / "fa", tmp_path / "fb"
    assert run_cli(*finetune_args(cfg_path, trained, out_a, "profit")) == 0
    assert run_cli(*finetune_args(cfg_path, trained, out_b, "profit")) == 0
    for name in ("profit_seed0.pfit", "profit_trace_seed0.csv", "profit_metrics_seed0.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_finetune_warns_on_untrained_start(cfg_path, tmp_path, capsys):
    blank = tmp_path / "blank.pfit"
    save_checkpoint(
        blank,
        Checkpoint((2, 8, 8, 1), np.zeros(param_count((2, 8, 8, 1))),
                   rng_state_of(make_rng(0)), 0, ""),
    )
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg_path, blank, out, "profit")) == 0
    err = capsys.readouterr().err
    assert "warning: checkpoint has step_count=0" in err
    assert "assumes a trained starting point" in err


def test_profit_checkpoint_counts_its_warmup_updates(tmp_path, trained, capsys):
    """PROFIT takes warmup_steps main updates before its finetune.steps: the
    checkpoint counts both, the printed ``steps=`` only the latter."""
    cfg = tmp_path / "warmup.cfg"
    cfg.write_text(config_text({"profit.warmup_steps": 3}))
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg, trained, out, "profit")) == 0
    assert "profit seed=0 steps=12 " in capsys.readouterr().out
    assert load_checkpoint(out / "profit_seed0.pfit").step_count == 40 + 3 + 12


def test_finetune_rejects_architecture_mismatch(cfg_path, tmp_path, capsys):
    other = tmp_path / "other.pfit"
    save_checkpoint(
        other,
        Checkpoint((2, 4, 4, 1), np.zeros(param_count((2, 4, 4, 1))),
                   rng_state_of(make_rng(0)), 10, ""),
    )
    code = run_cli(*finetune_args(cfg_path, other, tmp_path / "ft", "full"))
    assert code == 1
    assert "does not match configured dims" in capsys.readouterr().err


def test_finetune_past_the_largest_step_count_is_an_error_line(
    cfg_path, trained, tmp_path, capsys, monkeypatch
):
    """A checkpoint at step 2**64 - 1 loads, but 12 more steps overflow the format's
    u64: the error comes before any training."""
    trained_runs = []
    train = toy.train
    monkeypatch.setattr(toy, "train", lambda *a: trained_runs.append(a) or train(*a))
    ckpt = load_checkpoint(trained)
    last = tmp_path / "last.pfit"
    save_checkpoint(
        last, Checkpoint(ckpt.dims, ckpt.weights, ckpt.rng_state, 2**64 - 1, ckpt.config_digest)
    )
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg_path, last, out, "full")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step_count must be")
    assert not list(out.glob("*.pfit"))
    assert trained_runs == []



def test_profit_warmup_counts_toward_the_step_count_limit(tmp_path, trained, capsys, monkeypatch):
    """From 2**64 - 15, 12 fine-tuning steps fit the format's u64, but 3 warmup
    updates more do not: the error comes before any training."""
    trained_runs = []
    train = toy.train
    monkeypatch.setattr(toy, "train", lambda *a: trained_runs.append(a) or train(*a))
    ckpt = load_checkpoint(trained)
    late = tmp_path / "late.pfit"
    save_checkpoint(
        late, Checkpoint(ckpt.dims, ckpt.weights, ckpt.rng_state, 2**64 - 15, ckpt.config_digest)
    )
    cfg = tmp_path / "warmup.cfg"
    cfg.write_text(config_text({"profit.warmup_steps": 3}))
    out = tmp_path / "ft"
    assert run_cli(*finetune_args(cfg, late, out, "profit")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step_count must be")
    assert not list(out.glob("*.pfit"))
    assert trained_runs == []

# -------------------------------------------------------- final errors

# (command, strategy, config overrides, grid forwards in the eval hooks,
#  grid forwards after training); TINY_CFG trains 40 baseline and 12
#  fine-tuning steps with eval_every = 5
FINAL_ERROR_CASES = [
    ("train-baseline", None, {}, 8, 0),  # rows at 5..40
    ("train-baseline", None, {"baseline.steps": 42}, 8, 1),
    ("train-baseline", None, {"eval_every": 50}, 0, 1),  # no rows (eval_every must be >= 1)
    ("finetune", "profit", {"finetune.steps": 10}, 4, 0),  # rows at 5, 10
    ("finetune", "full", {"finetune.steps": 10}, 4, 0),
    ("finetune", "head", {"finetune.steps": 10}, 4, 0),
    ("finetune", "profit", {}, 4, 2),  # rows at 5, 10; final step 12
    ("finetune", "full", {}, 4, 2),
    ("finetune", "head", {}, 4, 2),
    ("finetune", "profit", {"profit.warmup_steps": 3, "finetune.steps": 10}, 4, 0),  # 8, 13
    ("finetune", "profit", {"profit.warmup_steps": 3}, 4, 2),  # rows at 8, 13; final 15
    ("finetune", "full", {"profit.warmup_steps": 3, "finetune.steps": 10}, 4, 0),
    ("finetune", "profit", {"finetune.steps": 0}, 0, 2),
    ("finetune", "profit", {"finetune.steps": 0, "profit.warmup_steps": 5}, 2, 0),
    ("finetune", "profit", {"finetune.steps": 0, "profit.warmup_steps": 7}, 2, 2),
    ("finetune", "profit", {"eval_every": 50}, 0, 2),
]


@pytest.mark.parametrize(
    "command, strategy, overrides, hook_forwards, final_forwards", FINAL_ERROR_CASES
)
def test_final_errors_reuse_the_last_hook_only_at_the_final_step(
    command, strategy, overrides, hook_forwards, final_forwards, trained, tmp_path, capsys,
    monkeypatch,
):
    """The grids are forwarded after training only when no metrics row was taken
    at the final step, and every output equals a run that always forwards them."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(config_text(overrides))
    out = tmp_path / "case"
    argv = [command, "--config", cfg, "--out-dir", out]
    if strategy is not None:
        argv += ["--checkpoint", trained, "--strategy", strategy]
    grid_rows = count_grid_forwards(monkeypatch)

    def outputs():
        grid_rows.clear()
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return captured.out, captured.err, files, len(grid_rows)

    reused = outputs()
    final_errors = cli._final_errors
    monkeypatch.setattr(cli, "_final_errors", lambda metrics, *rest: final_errors([], *rest))
    fresh = outputs()
    domains = ("original",) if command == "train-baseline" else ("original", "new")
    assert reused[3] == hook_forwards + final_forwards
    assert fresh[3] == hook_forwards + len(domains)
    assert reused[:3] == fresh[:3]

    # the printed errors are those of the saved weights
    saved = load_checkpoint(next(out.glob("*.pfit")))
    model = unflatten(saved.weights, tuple(saved.dims))
    plan = load_config(cfg).plan
    for domain in domains:
        assert f"{domain}_error={evaluate_error(model, getattr(plan, domain))!r}" in reused[0]


# ------------------------------------------------------------- evaluate


def test_evaluate_zero_checkpoint_prints_frozen_grid_error(tmp_path, capsys):
    blank = tmp_path / "blank.pfit"
    save_checkpoint(
        blank,
        Checkpoint((2, 3, 3, 1), np.zeros(param_count((2, 3, 3, 1))),
                   rng_state_of(make_rng(0)), 0, ""),
    )
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint", blank, "--out-dir", out) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert float(printed) == pytest.approx(0.48814119117337257, abs=1e-15)

    lines = (out / "grid_original.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,prediction,target"
    assert len(lines) == 1 + 100 * 100
    first = lines[1].split(",")
    assert [float(first[0]), float(first[1]), float(first[2])] == [-1.0, -1.0, 0.0]


def test_evaluate_new_domain_writes_its_own_grid(tmp_path, capsys):
    blank = tmp_path / "blank.pfit"
    save_checkpoint(
        blank,
        Checkpoint((2, 3, 3, 1), np.zeros(param_count((2, 3, 3, 1))),
                   rng_state_of(make_rng(0)), 0, ""),
    )
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint", blank, "--domain", "new", "--out-dir", out) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert float(printed) == pytest.approx(0.5058618407081682, abs=1e-15)
    rows = (out / "grid_new.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "0.8"


def test_evaluate_forwards_the_grid_once_and_prints_evaluate_error(
    cfg_path, trained, tmp_path, capsys, monkeypatch
):
    rows = count_grid_forwards(monkeypatch)
    out = tmp_path / "eval"
    args = ("evaluate", "--checkpoint", trained, "--config", cfg_path, "--domain", "new")
    assert run_cli(*args, "--out-dir", out) == 0
    assert rows == [100 * 100]
    ckpt = load_checkpoint(trained)
    model = unflatten(ckpt.weights, tuple(ckpt.dims))
    domain = load_config(cfg_path).plan.new
    assert capsys.readouterr().out == f"{evaluate_error(model, domain)!r}\n"
    lines = (out / "grid_new.csv").read_text().splitlines()[1:]
    expected = forward(model, evaluation_grid(domain)).tolist()
    assert [float(ln.split(",")[2]) for ln in lines] == expected


# ---------------------------------------------------------------- sweep


def test_sweep_writes_csv_and_reruns_bitwise(cfg_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert run_cli("sweep", "--config", cfg_path, "--axis", "n_ref", "--out-dir", out_a) == 0
    stdout = capsys.readouterr().out
    assert "n_ref=1.0 original_error=" in stdout
    text = (out_a / "sweep_n_ref.csv").read_text()
    assert text.splitlines()[0].startswith("axis,value,original_error")
    assert len(text.splitlines()) == 1 + 3  # one row per swept value

    assert run_cli("sweep", "--config", cfg_path, "--axis", "n_ref", "--out-dir", out_b) == 0
    assert (out_b / "sweep_n_ref.csv").read_text() == text


def test_sweep_ignores_profit_threads(cfg_path, tmp_path, capsys, monkeypatch):
    """The sweep has one path: the variable that once chose a process pool
    changes no byte, even at a value the pool rejected."""
    out = tmp_path / "sw"

    def sweep():
        assert run_cli("sweep", "--config", cfg_path, "--axis", "n_ref", "--out-dir", out) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, (out / "sweep_n_ref.csv").read_bytes()

    monkeypatch.delenv("PROFIT_THREADS", raising=False)
    without = sweep()
    monkeypatch.setenv("PROFIT_THREADS", "0")
    assert sweep() == without
    assert without[1] == ""


def test_sweep_with_a_cell_that_cannot_run_exits_one_before_training(
    tmp_path, capsys, monkeypatch
):
    """At ``lr_ratio = 10000`` a fine-tune rate of 1e-320 gives a reference rate
    that underflows to 0: the sweep fails before any baseline trains."""
    trained = []
    train_baseline = toy.train_baseline
    monkeypatch.setattr(toy, "train_baseline", lambda *a: trained.append(a) or train_baseline(*a))
    cfg = tmp_path / "tiny_rate.cfg"
    cfg.write_text(config_text({"finetune.lr": "1e-320"}))
    out = tmp_path / "sw"
    assert run_cli("sweep", "--config", cfg, "--axis", "lr_ratio", "--out-dir", out) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep cell lr_ratio = 10000.0 cannot run")
    assert captured.out == ""
    assert trained == []
    assert not out.exists()


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["finetune"], ["train-baseline"], ["sweep", "--config", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1


def test_bad_config_exits_one_without_partial_outputs(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("batchsize = 8\n")
    out = tmp_path / "out"
    code = run_cli(*baseline_args(cfg, out))
    assert code == 1
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()  # validation failed before anything was created


@pytest.mark.parametrize(
    "key, value",
    [
        ("dims", "2"),
        ("dims", "3,4,1"),
        ("dims", "2,-4,1"),
        ("dims", "2,4,2"),
        ("seeds", "-1"),
        ("seeds", "1,1"),
        ("original.domain_low", "-inf"),
    ],
)
def test_configs_the_run_cannot_use_exit_one(key, value, tmp_path, capsys):
    cfg = tmp_path / "unusable.cfg"
    cfg.write_text(config_text({key: value}))
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg, out)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    ("overrides", "names"),
    [
        ({"profit.n_ref": "0"}, ["n_ref"]),
        ({"profit.warmup_steps": "-1"}, ["warmup_steps"]),
        # the reference rate underflows to 0: the message names both settings and values
        (
            {"finetune.lr": "1e-20", "profit.lr_ratio": "1e308"},
            ["fine-tune rate", "lr_ratio", "1e-20", "1e+308"],
        ),
    ],
    ids=["n_ref", "warmup", "reference_rate"],
)
def test_profit_settings_that_cannot_run_exit_one(overrides, names, trained, tmp_path, capsys):
    cfg = tmp_path / "profit.cfg"
    cfg.write_text(config_text(overrides))
    out = tmp_path / "tuned"
    assert run_cli(*finetune_args(cfg, trained, out, "profit")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(name in lines[0] for name in names), lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-baseline", "finetune-full", "evaluate"])
def test_profit_settings_that_cannot_run_fail_every_command(command, trained, tmp_path, capsys):
    cfg = tmp_path / "profit.cfg"
    cfg.write_text(config_text({"profit.n_ref": "0"}))
    out = tmp_path / "run"
    argv = {
        "train-baseline": baseline_args(cfg, out),
        "finetune-full": finetune_args(cfg, trained, out, "full"),
        "evaluate": ("evaluate", "--config", cfg, "--checkpoint", trained, "--out-dir", out),
    }[command]
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-baseline", "finetune"])
def test_negative_seed_flag_exits_one(command, cfg_path, tmp_path, capsys):
    argv = [command, "--config", cfg_path, "--out-dir", tmp_path / "out", "--seed", "-1"]
    if command == "finetune":
        argv += ["--checkpoint", tmp_path / "x.pfit"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert errors == [f"profit {command}: error: argument --seed: must be >= 0, got -1"]
    assert not (tmp_path / "out").exists()


def test_seed_flag_accepts_zero_and_rejects_non_integers():
    assert cli._seed_flag("0") == 0
    assert cli._seed_flag("17") == 17
    for text in ("1.5", "abc", ""):
        with pytest.raises(argparse.ArgumentTypeError, match="expected an integer"):
            cli._seed_flag(text)


@pytest.mark.parametrize(
    "command, config",
    [("train-baseline", "bytes"), ("evaluate", "bytes"), ("train-baseline", "dir")],
)
def test_config_that_is_not_text_exits_one_naming_the_file(command, config, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if config == "bytes":
        cfg.write_bytes(b"dims = 2,4,1\n\xff\n")
    else:
        cfg.mkdir()
    argv = [command, "--config", cfg, "--out-dir", tmp_path / "out"]
    if command == "evaluate":
        argv += ["--checkpoint", tmp_path / "x.pfit"]
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot read config file {cfg} as text: ")
    assert not (tmp_path / "out").exists()


def test_out_of_memory_exits_two_with_one_error_line(cfg_path, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.42 PiB for an array")

    monkeypatch.setattr(toy, "train", exhausted)
    assert run_cli(*baseline_args(cfg_path, tmp_path / "out")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: Unable to allocate 1.42 PiB for an array"]


def test_missing_checkpoint_exits_two(cfg_path, tmp_path, capsys):
    code = run_cli(*finetune_args(cfg_path, tmp_path / "ghost.pfit", tmp_path / "o", "full"))
    assert code == 2
    assert "checkpoint not found" in capsys.readouterr().err


def test_invalid_strategy_flag_exits_one(cfg_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*finetune_args(cfg_path, tmp_path / "x.pfit", tmp_path / "o", "adapter"))
    assert exc.value.code == 1


@pytest.mark.parametrize("dims", [(2, 4, 3), (3, 4, 1)], ids=["two-outputs", "three-inputs"])
def test_evaluate_rejects_a_checkpoint_the_package_cannot_build(dims, tmp_path, capsys):
    path = tmp_path / "m.pfit"
    save_checkpoint(
        path, Checkpoint(dims, np.zeros(param_count(dims)), rng_state_of(make_rng(0)), 0, "")
    )
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint", path, "--out-dir", out) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: checkpoint dims {dims}")
    assert not out.exists()


def test_evaluate_of_an_overflowing_grid_is_an_error_line(tmp_path, capsys):
    dims = (2, 4, 4, 1)
    huge = tmp_path / "huge.pfit"
    save_checkpoint(
        huge, Checkpoint(dims, np.full(param_count(dims), 1e200), rng_state_of(make_rng(0)), 0, "")
    )
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint", huge, "--out-dir", out) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: forward: non-finite")
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_of_a_domain_whose_target_overflows_is_a_config_error(trained, tmp_path, capsys):
    """Past bounds of about 9.48e153 the squared norm of the domain's corner
    overflows and the target is NaN there: the config does not load."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config_text({"new.domain_low": "1e154", "new.domain_high": "2e154"}))
    out = tmp_path / "eval"
    argv = ("evaluate", "--config", cfg, "--checkpoint", trained, "--domain", "new")
    assert run_cli(*argv, "--out-dir", out) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: domain bound 2e+154 is too large")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key", ["original.noise_std", "new.noise_std"])
def test_a_noise_std_whose_64_deviations_overflow_is_a_config_error(key, tmp_path, capsys):
    """With 1e308 the noise overflows to inf and the first batch fails: the
    config does not load and nothing is trained; 1e300 still loads."""
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(config_text({key: "1e308"}))
    out = tmp_path / "out"
    assert run_cli(*baseline_args(cfg, out)) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: noise_std 1e+308 is too large")
    assert captured.out == ""
    assert not out.exists()
    cfg.write_text(config_text({key: "1e300"}))
    assert getattr(load_config(cfg).plan, key.split(".")[0]).noise_std == 1e300


def test_evaluate_on_a_digest_flipped_checkpoint_exits_two(trained, tmp_path, capsys):
    blob = bytearray(trained.read_bytes())
    blob[-1] ^= 0x80  # the digest's last hex character is no longer UTF-8
    flipped = tmp_path / "flipped.pfit"
    flipped.write_bytes(bytes(blob))
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint", flipped, "--out-dir", out) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: corrupt checkpoint")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, section",
    [
        (("train-baseline",), "baseline"),
        (("finetune", "--strategy", "profit"), "finetune"),
        (("finetune", "--strategy", "full"), "finetune"),
        (("finetune", "--strategy", "head"), "finetune"),
        (("sweep", "--axis", "n_ref"), "baseline"),
        (("sweep", "--axis", "n_ref"), "finetune"),
    ],
)
def test_non_finite_rates_exit_two_and_leave_no_output(argv, section, trained, tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(config_text({f"{section}.optimizer": "sgd", f"{section}.lr": "1e308"}))
    out = tmp_path / "failed"
    if argv[0] == "finetune":
        argv += ("--checkpoint", trained)
    with np.errstate(over="ignore"):
        code = run_cli(*argv, "--config", cfg, "--out-dir", out)
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "non-finite" in last
    assert not out.exists() or list(out.iterdir()) == []  # no .pfit, CSV or .tmp file


@pytest.mark.parametrize("argv", [("train-baseline",), ("finetune", "--strategy", "head")])
def test_numpy_warnings_stay_out_of_stderr(argv, trained, tmp_path):
    """Run as its own process, with numpy's default error handling: stderr
    holds the one ``error:`` line and no warning naming a source line."""
    section = "baseline" if argv[0] == "train-baseline" else "finetune"
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(config_text({f"{section}.optimizer": "sgd", f"{section}.lr": "1e308"}))
    if argv[0] == "finetune":
        argv += ("--checkpoint", str(trained))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "profit.cli", *argv, "--config", str(cfg),
         "--out-dir", str(tmp_path / "failed")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "non-finite" in lines[0]
