"""Benchmark-layer tests: data generation, strategies, tables, sweeps, goldens."""

import csv
import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from profit import toy
from profit.checkpoint import rng_state_of
from profit.core import ProfitStepTrace
from profit.errors import ConfigError, NonFiniteError
from profit.mlp import LAYER_DIMS, flatten, init_model, param_count, unflatten
from profit.toy import (
    NEW_DOMAIN,
    ORIGINAL_DOMAIN,
    STRATEGIES,
    ExperimentPlan,
    ResultRow,
    ResultsTable,
    SweepRow,
    SweepTable,
    ToyDataConfig,
    batch_stream,
    evaluate_error,
    evaluation_grid,
    finetune_model,
    head_block_size,
    make_rng,
    run_ablation_sweep,
    run_experiment,
    sample_batch,
    target_function,
)

from conftest import make_tiny_plan


def zero_wall(table: ResultsTable) -> ResultsTable:
    """Wall-clock is the one intentionally non-deterministic column."""
    return ResultsTable([dataclasses.replace(r, wall_time_s=0.0) for r in table.rows])


# ---------------------------------------------------------------- target


def test_target_spot_values():
    assert target_function(np.zeros(2)) == 0.0
    assert target_function(np.array([np.pi / 20.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert target_function(np.array([3.0, 4.0])) == pytest.approx(np.sin(50.0), abs=1e-12)


def test_target_radial_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(50, 2))
    vals = target_function(pts)
    assert np.array_equal(vals, target_function(-pts))
    assert np.array_equal(vals, target_function(pts[:, ::-1]))
    assert np.abs(vals).max() <= 1.0


def test_target_shapes_and_nonfinite():
    assert isinstance(target_function([0.1, 0.2]), float)
    assert target_function(np.zeros((4, 3, 2))).shape == (4, 3)
    with pytest.raises(NonFiniteError, match="non-finite coordinates"):
        target_function([np.nan, 0.0])
    # finite coordinates whose squared norm passes the largest float
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="non-finite norm"):
        target_function(np.array([[0.0, 0.0], [1e155, 0.0]]))


# ----------------------------------------------------------------- data


def test_domains_partially_overlap():
    assert ORIGINAL_DOMAIN.domain_low == -1.0 and ORIGINAL_DOMAIN.domain_high == 1.0
    assert NEW_DOMAIN.domain_low == 0.8 and NEW_DOMAIN.domain_high == 1.5
    # the new square sticks out beyond the original but shares a corner band
    assert NEW_DOMAIN.domain_low < ORIGINAL_DOMAIN.domain_high < NEW_DOMAIN.domain_high


def test_data_config_validation():
    with pytest.raises(ValueError, match="domain_low"):
        ToyDataConfig(1.0, 1.0)
    with pytest.raises(ValueError, match="noise_std"):
        ToyDataConfig(0.0, 1.0, noise_std=-0.1)
    # the squared norm of the domain's corner, 2 * m * m, overflows
    for low, high, m in [
        (1e154, 2e154, "2e+154"), (-1e154, 0.0, "1e+154"), (0.0, 9.5e153, "9.5e+153")
    ]:
        with pytest.raises(ValueError, match=re.escape(f"domain bound {m} is too large")):
            ToyDataConfig(low, high)


def test_data_config_accepts_the_largest_domain_with_a_finite_target():
    config = ToyDataConfig(-9.48e153, 9.48e153)
    corners = np.array([[config.domain_high, config.domain_high], [config.domain_low] * 2])
    assert np.isfinite(target_function(corners)).all()
    assert np.isfinite(sample_batch(config, make_rng(0), 64).targets).all()


def test_data_config_rejects_a_noise_std_whose_64_deviations_overflow():
    """``noise_std * noise`` must stay finite for every draw: 64 * 1e308 and
    64 * 2.81e306 overflow, while 2.8e306 and 1e300 load and sample."""
    for std in (1e308, 2.81e306):
        with pytest.raises(ValueError, match=re.escape(f"noise_std {std!r} is too large")):
            ToyDataConfig(-1.0, 1.0, noise_std=std)
    for std in (2.8e306, 1e300):
        config = ToyDataConfig(-1.0, 1.0, noise_std=std)
        assert np.isfinite(sample_batch(config, make_rng(0), 64).targets).all()


def test_sample_batch_statistics():
    """Seeded draw: inputs uniform over the square, unit gaussian noise."""
    n = 200_000
    config = ToyDataConfig(-1.0, 1.0, noise_std=1.0)
    batch = sample_batch(config, make_rng(2718), n)
    assert batch.inputs.shape == (n, 2)
    assert batch.inputs.min() >= -1.0 and batch.inputs.max() <= 1.0
    mid_se = 2.0 / np.sqrt(12.0 * n)  # SE of the mean of U[-1, 1]
    assert np.abs(batch.inputs.mean(axis=0)).max() <= 4.0 * mid_se
    residual = batch.targets - target_function(batch.inputs)
    assert abs(residual.mean()) <= 4.0 / np.sqrt(n)
    assert abs(residual.std() - 1.0) <= 0.01


def test_sample_batch_noise_stream_consumed_when_silent():
    """noise_std=0 must advance the generator exactly like noise_std=1."""
    noisy = sample_batch(ToyDataConfig(-1.0, 1.0, noise_std=1.0), make_rng(9), 16)
    rng = make_rng(9)
    clean = sample_batch(ToyDataConfig(-1.0, 1.0, noise_std=0.0), rng, 16)
    follow = rng.standard_normal()
    rng2 = make_rng(9)
    sample_batch(ToyDataConfig(-1.0, 1.0, noise_std=1.0), rng2, 16)
    assert np.array_equal(noisy.inputs, clean.inputs)
    assert np.array_equal(clean.targets, target_function(clean.inputs))
    assert follow == rng2.standard_normal()


def test_sample_batch_rejects_empty():
    with pytest.raises(ValueError, match="batch_size"):
        sample_batch(ORIGINAL_DOMAIN, make_rng(0), 0)


def test_batch_stream_endless_and_fresh():
    stream = batch_stream(ORIGINAL_DOMAIN, 8, make_rng(1))
    a, b, c = itertools.islice(stream, 3)
    assert not np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(b.inputs, c.inputs)


def test_make_rng_deterministic_with_separated_streams():
    assert make_rng(5).standard_normal() == make_rng(5).standard_normal()
    assert make_rng(0, 1).standard_normal() != make_rng(0, 2).standard_normal()
    assert make_rng(0, 1).standard_normal() != make_rng(1, 0).standard_normal()


# ----------------------------------------------------------------- grid


def test_evaluation_grid_shape_and_corners():
    grid = evaluation_grid(NEW_DOMAIN)
    assert grid.shape == (10_000, 2)
    assert np.array_equal(grid[0], [0.8, 0.8])
    assert np.array_equal(grid[99], [0.8, 1.5])
    assert np.array_equal(grid[9_900], [1.5, 0.8])
    assert np.array_equal(grid[9_999], [1.5, 1.5])


def test_zero_model_grid_errors_match_frozen_values():
    """MSE of the all-zero network is the grid mean of sin^2(10r)."""
    model = unflatten(np.zeros(param_count(LAYER_DIMS)), LAYER_DIMS)
    assert evaluate_error(model, ORIGINAL_DOMAIN) == pytest.approx(
        0.48814119117337257, abs=1e-15
    )
    assert evaluate_error(model, NEW_DOMAIN) == pytest.approx(0.5058618407081682, abs=1e-15)


def test_full_width_grid_error_peaks_at_one_chunk_buffer_per_thread():
    """One 500-wide grid score holds at most two threads' buffers, each one
    1,144-row chunk's first-layer activations and one 400-row run's later
    ones (about 12.6 MB traced), not whole chunks' (18.6 MB) or the whole
    grid's (80 MB)."""
    model = init_model(LAYER_DIMS, make_rng(0, 0))
    evaluate_error(model, ORIGINAL_DOMAIN)  # warm-up
    tracemalloc.start()
    try:
        evaluate_error(model, ORIGINAL_DOMAIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.5e6, f"peak {peak} bytes"


# ------------------------------------------------------------ head block


def test_head_block_size_standard_dims():
    assert head_block_size(LAYER_DIMS) == 501
    assert head_block_size((2, 3, 3, 1)) == 4


# ------------------------------------------------------------ plan wiring


def test_plan_validation():
    with pytest.raises(ValueError, match="strategy"):
        ExperimentPlan(strategies=("full", "frozen"))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentPlan(seeds=())
    with pytest.raises(ValueError, match=r"seeds must be distinct, got \[0\]"):
        ExperimentPlan(seeds=(0, 0))
    with pytest.raises(ValueError, match="batch_size"):
        ExperimentPlan(batch_size=0)
    with pytest.raises(ValueError, match="step counts"):
        ExperimentPlan(finetune_steps=-1)
    with pytest.raises(ValueError, match="lr_ratio"):
        ExperimentPlan(lr_ratio=0.0)


def test_plan_profit_config_derives_reference_rate():
    plan = make_tiny_plan(n_ref=4, lr_ratio=50.0, warmup_steps=3)
    config = plan.profit_config()
    assert config.n_ref == 4 and config.warmup_steps == 3
    assert config.main is plan.finetune
    assert config.reference.kind == "sgd"
    assert config.reference.learning_rate == plan.finetune.learning_rate / 50.0


def test_strategy_names_are_stable():
    assert STRATEGIES == ("full", "head", "profit")


# ------------------------------------------------------------- strategies


def test_head_strategy_touches_only_the_final_layer(tiny_plan, tiny_baselines):
    base = tiny_baselines[0]
    tuned, traces = finetune_model(tiny_plan, base, "head", 0)
    head = head_block_size(tiny_plan.dims)
    before, after = flatten(base), flatten(tuned)
    assert traces == []
    assert np.array_equal(before[:-head], after[:-head])
    assert not np.array_equal(before[-head:], after[-head:])


def test_full_strategy_moves_early_layers(tiny_plan, tiny_baselines):
    tuned, _ = finetune_model(tiny_plan, tiny_baselines[0], "full", 0)
    head = head_block_size(tiny_plan.dims)
    assert not np.array_equal(flatten(tiny_baselines[0])[:-head], flatten(tuned)[:-head])


def test_profit_strategy_returns_one_trace_per_step(tiny_plan, tiny_baselines):
    plan = make_tiny_plan(finetune_steps=25)
    tuned, traces = finetune_model(plan, tiny_baselines[0], "profit", 0)
    assert len(traces) == 25
    assert all(t.batches_consumed == plan.n_ref + 1 for t in traces)
    assert any(t.projected for t in traces)  # the gate does fire on this task


def test_zero_finetune_steps_returns_baseline_errors(tiny_plan, tiny_baselines):
    plan = make_tiny_plan(finetune_steps=0)
    base = tiny_baselines[1]
    for strategy in STRATEGIES:
        tuned, _ = finetune_model(plan, base, strategy, 1)
        assert evaluate_error(tuned, plan.original) == evaluate_error(base, plan.original)
        assert evaluate_error(tuned, plan.new) == evaluate_error(base, plan.new)


def test_unknown_strategy_rejected(tiny_plan, tiny_baselines):
    with pytest.raises(ValueError, match="unknown strategy"):
        finetune_model(tiny_plan, tiny_baselines[0], "adapter", 0)
    with pytest.raises(ValueError, match="unknown strategy"):
        toy.train(tiny_plan, 0, "adapter", flatten(tiny_baselines[0]))


def test_train_returns_the_stream_generator_past_every_batch(tiny_plan, tiny_baselines):
    plan = dataclasses.replace(tiny_plan, finetune_steps=5)
    _, traces, _, stream_rng = toy.train(plan, 1, "full", flatten(tiny_baselines[1]))
    expected = make_rng(1, toy.STREAM_FINETUNE)
    for _ in range(plan.finetune_steps):
        sample_batch(plan.new, expected, plan.batch_size)
    assert traces == []
    assert rng_state_of(stream_rng) == rng_state_of(expected)


# ----------------------------------------------------------------- tables


def sample_table() -> ResultsTable:
    return ResultsTable(
        [
            ResultRow("baseline", 0, np.pi / 64.0, 6.5, 1500, 1.25),
            ResultRow("full", 0, 0.9, 0.1, 200, 0.5),
            ResultRow("full", 1, 0.7, 0.3, 200, 0.5),
        ]
    )


def test_results_table_csv_roundtrip_is_exact():
    table = sample_table()
    header, *lines = table.to_csv_text().splitlines()
    assert header == ResultsTable.CSV_HEADER
    types = [f.type for f in dataclasses.fields(ResultRow)]
    for row, line in zip(table.rows, lines, strict=True):
        cells = [t(c) for t, c in zip(types, line.split(","), strict=True)]
        assert cells == list(dataclasses.astuple(row))


def test_sweep_table_csv_cells_parse_back_exact():
    table = SweepTable([
        SweepRow("lr_ratio", 0.1 + 0.2, np.pi / 64.0, 1e-17, 6.5, 0.0, 3, 200, 2),
        SweepRow("lr_ratio", 1e300, 0.9, 0.1, np.e, 0.25, 1, 7, 6),
    ])
    header, *lines = table.to_csv_text().splitlines()
    assert header == SweepTable.CSV_HEADER
    types = [f.type for f in dataclasses.fields(SweepRow)]
    for row, line in zip(table.rows, lines, strict=True):
        cells = [t(c) for t, c in zip(types, line.split(","), strict=True)]
        assert cells == list(dataclasses.astuple(row))


@pytest.mark.parametrize(
    ("table", "row"), [(ResultsTable, ResultRow), (SweepTable, SweepRow)],
    ids=["ResultsTable", "SweepTable"],
)
def test_table_header_lists_the_row_fields_in_order(table, row):
    assert table.CSV_HEADER == ",".join(f.name for f in dataclasses.fields(row))


# ------------------------------------------------------------ experiment


def test_experiment_repeats_bitwise_and_matches_golden(tiny_plan, tiny_baselines, golden_dir):
    first = run_experiment(tiny_plan, dict(tiny_baselines))
    second = run_experiment(tiny_plan, dict(tiny_baselines))
    assert zero_wall(first).to_csv_text() == zero_wall(second).to_csv_text()
    golden = (golden_dir / "tiny_table.csv").read_text()
    assert zero_wall(first).to_csv_text() == golden


def test_experiment_trains_missing_baselines_to_the_same_result(tiny_baselines):
    plan = make_tiny_plan(seeds=(2,), strategies=("head",))
    fresh = run_experiment(plan)
    cached = run_experiment(plan, {2: tiny_baselines[2]})
    assert zero_wall(fresh).to_csv_text() == zero_wall(cached).to_csv_text()
    assert cached.rows[0].wall_time_s == 0.0  # cached baseline reports no training time
    assert fresh.rows[0].wall_time_s > 0.0


def test_experiment_row_layout(tiny_plan, tiny_baselines):
    table = run_experiment(tiny_plan, dict(tiny_baselines))
    assert [r.strategy for r in table.rows] == ["baseline", *STRATEGIES] * len(tiny_plan.seeds)
    rows = {s: [r for r in table.rows if r.strategy == s] for s in ("baseline", *STRATEGIES)}
    assert [r.seed for r in rows["profit"]] == list(tiny_plan.seeds)
    assert all(r.steps == tiny_plan.baseline_steps for r in rows["baseline"])
    assert all(r.steps == tiny_plan.finetune_steps for r in rows["full"])


# ---------------------------------------------------------------- sweeps


def test_sweep_rejects_unknown_axis(tiny_plan, tiny_baselines):
    with pytest.raises(ValueError, match="unknown sweep axis"):
        run_ablation_sweep(tiny_plan, "momentum", baselines=dict(tiny_baselines))


def test_sweep_single_value_agrees_with_experiment(tiny_plan, tiny_baselines):
    table = run_experiment(tiny_plan, dict(tiny_baselines))
    sweep = run_ablation_sweep(
        tiny_plan, "n_ref", values=(tiny_plan.n_ref,), baselines=dict(tiny_baselines)
    )
    profit_orig = np.array([r.original_error for r in table.rows if r.strategy == "profit"])
    row = sweep.rows[0]
    assert row.axis == "n_ref" and row.value == float(tiny_plan.n_ref)
    assert row.original_error == pytest.approx(float(profit_orig.mean()), rel=1e-15)
    assert row.n_seeds == len(tiny_plan.seeds)
    assert row.batches_per_step == tiny_plan.n_ref + 1


def test_sweep_tables_match_goldens(tiny_plan, tiny_baselines, golden_dir):
    for axis, name in (("n_ref", "sweep_n_ref.csv"), ("lr_ratio", "sweep_lr_ratio.csv")):
        sweep = run_ablation_sweep(tiny_plan, axis, baselines=dict(tiny_baselines))
        assert sweep.to_csv_text() == (golden_dir / name).read_text()


def test_sweep_more_reference_steps_change_batch_accounting(golden_dir):
    with open(golden_dir / "sweep_n_ref.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["batches_per_step"]) for r in rows] == [2, 3, 6]
    assert [float(r["value"]) for r in rows] == [1.0, 2.0, 5.0]


def test_sweep_only_reads_the_baselines_it_is_given(tiny_baselines):
    plan = make_tiny_plan(baseline_steps=5, finetune_steps=2, seeds=(0, 1))
    empty, partial = {}, {1: tiny_baselines[1]}
    for given in (empty, partial):
        run_ablation_sweep(plan, "n_ref", values=(1,), baselines=given)
    assert empty == {}
    assert list(partial) == [1] and partial[1] is tiny_baselines[1]


def test_sweep_sets_the_field_its_axis_names(monkeypatch, tiny_baselines):
    """``SWEEP_AXES`` alone lists the axes: a new entry sweeps the plan field of
    its name, cast to the type of its defaults."""
    monkeypatch.setitem(toy.SWEEP_AXES, "warmup_steps", (0, 3))
    seen = []

    def fake_finetune(cell_plan, baseline, strategy, seed):
        seen.append((cell_plan.warmup_steps, cell_plan.lr_ratio, cell_plan.n_ref))
        return baseline, []

    monkeypatch.setattr(toy, "finetune_model", fake_finetune)
    plan = make_tiny_plan(seeds=(0,))
    table = run_ablation_sweep(plan, "warmup_steps", values=(3.0,), baselines=tiny_baselines)
    assert seen == [(3, plan.lr_ratio, plan.n_ref)] and type(seen[0][0]) is int
    assert [(r.axis, r.value) for r in table.rows] == [("warmup_steps", 3.0)]


@pytest.mark.parametrize("axis, values", [("n_ref", (1, 0)), ("lr_ratio", (10.0, -1.0))])
def test_sweep_rejects_a_cell_that_cannot_run_before_training(axis, values, monkeypatch):
    trained = []
    train_baseline = toy.train_baseline
    monkeypatch.setattr(toy, "train_baseline", lambda *a: trained.append(a) or train_baseline(*a))
    cannot_run = re.escape(f"sweep cell {axis} = {values[1]!r} cannot run")
    with pytest.raises(ConfigError, match=cannot_run):
        run_ablation_sweep(make_tiny_plan(seeds=(0,)), axis, values=values)
    assert trained == []


@pytest.mark.parametrize(
    "axis, value, ran",
    [("n_ref", 1.7, "int(1.7) is 1"), ("lr_ratio", 2**53 + 1, f"float({2**53 + 1}) is {2.0**53}")],
    ids=["n_ref", "lr_ratio"],
)
def test_sweep_rejects_a_value_its_axis_type_does_not_hold_exactly(axis, value, ran, monkeypatch):
    """n_ref = 1.7 would train with n_ref = 1 and write a row for 1.7."""
    trained = []
    monkeypatch.setattr(toy, "train_baseline", lambda *a: trained.append(a))
    cannot_run = re.escape(f"sweep cell {axis} = {value!r} cannot run: {ran}")
    with pytest.raises(ConfigError, match=cannot_run):
        run_ablation_sweep(make_tiny_plan(seeds=(0,)), axis, values=(value,))
    assert trained == []


@pytest.mark.parametrize("per_seed", [((2, 3), (2, 3)), ((2,), (3,))], ids=["within", "across"])
def test_sweep_rejects_inconsistent_batch_accounting(monkeypatch, per_seed):
    """Each row's ``batches_per_step`` is read from its traces, which must agree
    within a run and across seeds."""
    plan = make_tiny_plan(seeds=(0, 1))
    base = init_model(plan.dims, make_rng(0))

    def fake_finetune(cell_plan, baseline, strategy, seed):
        return baseline, [ProfitStepTrace(-1.0, True, False, 1.0, 1.0, n) for n in per_seed[seed]]

    monkeypatch.setattr(toy, "finetune_model", fake_finetune)
    with pytest.raises(RuntimeError, match=r"inconsistent batch accounting in traces: \[2, 3\]"):
        run_ablation_sweep(plan, "n_ref", values=(1,), baselines={0: base, 1: base})
