"""Release acceptance suite.

Every gate below prints exactly one ``[PASS]``/``[FAIL]`` line with the
measured quantity next to its bound, then asserts.  Checks that the current
defaults genuinely cannot meet are allowed to fail here; the README's
benchmark-results section explains each shortfall rather than widening the
bound to hide it.

The full-scale benchmark (the expensive part) runs once per session through a
module fixture; everything else completes in seconds.
"""

import hashlib
import itertools
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import profit
from profit import optim
from profit.checkpoint import Checkpoint, load_checkpoint, rng_state_of, save_checkpoint
from profit.core import ProfitConfig, profit_step, run_profit_training
from profit.mlp import (
    LAYER_DIMS,
    Batch,
    backward,
    flatten,
    forward,
    init_model,
    loss_mse,
    param_count,
    unflatten,
)
from profit.paramvec import EPS_DEGENERATE, dot, norm, orthogonal_reject, sq_norm
from profit.toy import (
    GRID_SIZE,
    ExperimentPlan,
    ResultsTable,
    make_rng,
    run_ablation_sweep,
    run_experiment,
)

from conftest import make_tiny_plan
from test_mlp import rectifier_signs
from test_toy import zero_wall

# full-scale CPU may be at most this multiple of the matmul work the plan
# cannot avoid, timed on this machine (see test_full_scale_runtime_budget)
RUNTIME_BUDGET_FACTOR = 2.0


def report(ok: bool, text: str, note: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text + (f" -- {note}" if note else "")


SHORTFALL = "see README, 'What reproduces and what does not'"


def run_python(code: str, *args: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's profit;
    ``env`` entries override the inherited environment.  Returns stdout."""
    src = str(Path(profit.__file__).resolve().parent.parent)
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=full_env, check=True, capture_output=True, text=True,
    ).stdout


# =====================================================================
# Zero net change on linear losses
# =====================================================================


def test_linear_losses_produce_zero_net_change():
    """100 outer steps against a constant gradient move the weights nowhere."""
    worst = 0.0
    cases = []
    for n, theta0 in (
        (1, make_rng(7).standard_normal(1)),
        (5, make_rng(7).standard_normal(5)),
        (252_501, flatten(init_model(LAYER_DIMS, make_rng(0, 0)))),
    ):
        probe_direction = make_rng(99).standard_normal(n)
        config = ProfitConfig(n_ref=1, main=optim.sgd(1e-3), reference=optim.sgd(1e-3))
        theta, traces, _ = run_profit_training(
            theta0.copy(), config, 100, itertools.count(),
            lambda th, batch: probe_direction,
        )
        drift = norm(theta - theta0)
        worst = max(worst, drift)
        cases.append(f"dim {n}: {drift:.2e}")
        assert all(t.projected for t in traces)
    report(
        worst <= 1e-12,
        f"linear-loss drift after 100 steps <= 1e-12 at dims 1/5/252501 "
        f"(measured {'; '.join(cases)})",
    )


# =====================================================================
# Quadratic protection of the old task
# =====================================================================


def test_quadratic_oracle_protects_old_loss_every_step():
    """Fine-tuning one bowl from another's minimum: each main update beats the
    displaced point on old-task loss, and the final old-task loss is far below
    plain gradient descent's."""
    rng = make_rng(42)
    n = 10
    a = rng.standard_normal(n)
    b = a + rng.standard_normal(n)
    lr = 1e-3
    config = ProfitConfig(n_ref=1, main=optim.sgd(lr), reference=optim.sgd(lr))
    main_state = optim.init_state(config.main, n)
    ref_state = optim.init_state(config.reference, n)

    def gradient(th, batch):
        return th - b

    def old_loss(th):
        return 0.5 * float(np.sum((th - a) ** 2))

    theta = a.copy()
    violations = 0
    for _ in range(200):
        displaced = theta - lr * gradient(theta, None)  # replayed reference step
        theta, main_state, ref_state, _ = profit_step(
            theta, config, main_state, ref_state, itertools.count(), gradient,
        )
        if not (old_loss(theta) < old_loss(displaced)):
            violations += 1

    plain = a.copy()
    for _ in range(200):
        plain = plain - lr * (plain - b)
    ratio = old_loss(theta) / old_loss(plain)

    report(
        violations == 0,
        f"old-task loss strictly below the displaced point's at every one of "
        f"200 steps (violations: {violations})",
    )
    report(
        ratio <= 0.25,
        f"final old-task loss under the wrapper <= 25% of plain descent's "
        f"(measured ratio {ratio:.2e})",
    )


# =====================================================================
# Projection algebra and the gate
# =====================================================================


def test_projection_algebra_randomized():
    """1000 seeded pairs, dims up to 10^4: orthogonality, idempotence,
    non-expansion."""
    rng = np.random.default_rng(20240817)
    worst_ortho = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10_001))
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        delta = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        projected, degenerate = orthogonal_reject(g, delta)
        assert not degenerate
        defect = abs(dot(projected, delta))
        bound = 1e-10 * norm(projected) * norm(delta)
        worst_ortho = max(worst_ortho, defect / max(bound, 1e-300))
        assert defect <= bound
        again, _ = orthogonal_reject(projected, delta)
        np.testing.assert_allclose(again, projected, rtol=0.0, atol=1e-12)
        assert norm(projected) <= norm(g) * (1.0 + 1e-12)
    report(
        True,
        f"projection orthogonality/idempotence/non-expansion over 1000 seeded "
        f"pairs (worst defect at {worst_ortho:.3f} of the allowed bound)",
    )


def test_projection_gate_fires_iff_opposed_and_nondegenerate():
    """Drive the live outer step with crafted displacements and gradients and
    check the gate decision recorded in its trace."""
    rng = np.random.default_rng(31)
    n = 64
    config = ProfitConfig(n_ref=1, main=optim.sgd(0.5), reference=optim.sgd(1.0))
    checked = 0
    for case in range(200):
        delta = rng.standard_normal(n)
        if case % 10 == 7:
            delta = delta * 1e-15  # below the degeneracy threshold
        g = rng.standard_normal(n)
        feed = iter([-delta, g])
        theta_new, _, _, trace = profit_step(
            np.zeros(n), config,
            optim.init_state(config.main, n), optim.init_state(config.reference, n),
            itertools.count(), lambda th, batch: next(feed),
        )
        omega = dot(delta, g)
        degenerate_delta = sq_norm(delta) < EPS_DEGENERATE
        assert trace.omega == omega
        assert trace.projected == (omega < 0.0 and not degenerate_delta)
        assert trace.degenerate == (omega < 0.0 and degenerate_delta)
        applied = -(theta_new / 0.5)  # the gradient the main update consumed
        if trace.projected:
            assert abs(dot(applied, delta)) <= 1e-10 * norm(applied) * norm(delta)
        else:
            np.testing.assert_array_equal(applied, g)
        checked += 1
    report(True, f"gate fires iff omega < 0 with usable displacement ({checked} crafted steps)")


# =====================================================================
# Gradient correctness
# =====================================================================


def test_gradients_match_finite_differences():
    """Central differences at 20 coordinates x 10 seeds, skipping the rare
    draws whose bump straddles a rectifier kink (no derivative to estimate)."""
    h = 1e-6
    worst, tested, skipped = 0.0, 0, 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 3, 1)
        model = init_model(dims, rng)
        batch = Batch(rng.standard_normal((8, 2)), rng.standard_normal(8))
        theta = flatten(model)
        _, analytic = backward(model, batch)
        for k in rng.choice(theta.shape[0], size=20, replace=False):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            model_up, model_down = unflatten(up, dims), unflatten(down, dims)
            patterns = zip(rectifier_signs(model_up, batch.inputs),
                           rectifier_signs(model_down, batch.inputs))
            if any(not np.array_equal(x, y) for x, y in patterns):
                skipped += 1
                continue
            fd = (
                loss_mse(forward(model_up, batch.inputs), batch.targets)
                - loss_mse(forward(model_down, batch.inputs), batch.targets)
            ) / (2.0 * h)
            denom = max(abs(analytic[k]), abs(fd), 1e-10)
            worst = max(worst, abs(fd - analytic[k]) / denom)
            tested += 1
    report(
        worst <= 1e-5 and skipped <= 0.1 * (tested + skipped),
        f"finite-difference agreement <= 1e-5 over {tested} coordinates "
        f"(worst {worst:.2e}; {skipped} kink-straddling draws excluded)",
    )


# =====================================================================
# Determinism and persistence
# =====================================================================


def test_repeated_runs_are_bitwise_identical(tiny_plan, tiny_baselines):
    """Identical configs give byte-identical results tables; the wall-clock
    column is the one machine-dependent field and is masked."""
    first = run_experiment(tiny_plan, dict(tiny_baselines))
    second = run_experiment(tiny_plan, dict(tiny_baselines))
    same = zero_wall(first).to_csv_text() == zero_wall(second).to_csv_text()
    report(same, "repeated experiment runs produce bitwise-identical results CSVs")


def test_checkpoints_are_bitwise_stable(tmp_path, tiny_plan, tiny_baselines):
    ckpt = Checkpoint(
        dims=tiny_plan.dims,
        weights=flatten(tiny_baselines[0]),
        rng_state=rng_state_of(make_rng(0, 1)),
        step_count=tiny_plan.baseline_steps,
        config_digest="",
    )
    a, b, c = tmp_path / "a.pfit", tmp_path / "b.pfit", tmp_path / "c.pfit"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    save_checkpoint(c, load_checkpoint(a))
    same_repeat = a.read_bytes() == b.read_bytes()
    same_roundtrip = a.read_bytes() == c.read_bytes()
    report(
        same_repeat and same_roundtrip,
        "checkpoint writes repeat bitwise and survive save->load->save unchanged",
    )


FULL_WIDTH_RUN = """
import sys
from profit.mlp import flatten
from profit.toy import ExperimentPlan, finetune_model, train_baseline

plan = ExperimentPlan(baseline_steps=300, finetune_steps=150, seeds=(0,))
tuned, _ = finetune_model(plan, train_baseline(plan, 0), "profit", 0)
with open(sys.argv[1], "wb") as out:
    out.write(flatten(tuned).tobytes())
"""


def test_full_width_weights_do_not_depend_on_blas_threads(tmp_path):
    """A 500-wide baseline and PROFIT fine-tune, run once with OpenBLAS told to
    use 1 thread and once 2, give the same weight bytes.  The tiny goldens
    cannot show this: their 32-wide matmuls are never split across threads."""
    weights = {}
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.bin"
        run_python(FULL_WIDTH_RUN, str(path), OPENBLAS_NUM_THREADS=threads)
        weights[threads] = path.read_bytes()
    digests = {k: hashlib.sha256(v).hexdigest()[:6] for k, v in weights.items()}
    report(
        weights["1"] == weights["2"],
        f"500-wide PROFIT fine-tune weights are byte-equal at OPENBLAS_NUM_THREADS=1 "
        f"and =2 (sha256 {digests['1']}... vs {digests['2']}...)",
    )


# =====================================================================
# Batch-cost accounting
# =====================================================================


@pytest.mark.parametrize("n_ref", [1, 2, 5])
def test_outer_step_batch_cost(n_ref):
    config = ProfitConfig(n_ref=n_ref, main=optim.sgd(0.01), reference=optim.sgd(0.01))
    drawn = []

    def source():
        for i in itertools.count():
            drawn.append(i)
            yield i

    center = np.ones(10)
    _, traces, _ = run_profit_training(
        np.zeros(10), config, 100, source(), lambda th, batch: th - center,
    )
    per_step_ok = all(t.batches_consumed == n_ref + 1 for t in traces)
    report(
        per_step_ok and len(drawn) == 100 * (n_ref + 1),
        f"n_ref={n_ref}: every one of 100 outer steps consumed n_ref + 1 = "
        f"{n_ref + 1} batches (stream drawn {len(drawn)} times)",
    )


# =====================================================================
# Reduced-scale substitutes for the out-of-scope large benchmarks
# =====================================================================


def test_ablation_sweeps_match_their_golden_baselines(tiny_plan, tiny_baselines, golden_dir):
    """The large-scale image/driving benchmarks cannot run here; their stand-in
    is the reduced-scale sweep whose first pinned run is frozen as a golden."""
    mismatches = []
    for axis, name in (("n_ref", "sweep_n_ref.csv"), ("lr_ratio", "sweep_lr_ratio.csv")):
        produced = run_ablation_sweep(tiny_plan, axis, baselines=dict(tiny_baselines))
        if produced.to_csv_text() != (golden_dir / name).read_text():
            mismatches.append(axis)
    report(
        not mismatches,
        "reduced-scale ablation sweeps reproduce their pinned golden CSVs "
        "bitwise (axes: n_ref, lr_ratio)",
        note=f"diverged: {mismatches}",
    )


def test_golden_experiment_table_regression(tiny_plan, tiny_baselines, golden_dir):
    table = run_experiment(tiny_plan, dict(tiny_baselines))
    same = zero_wall(table).to_csv_text() == (golden_dir / "tiny_table.csv").read_text()
    report(same, "reduced-scale experiment table reproduces its pinned golden CSV bitwise")


# =====================================================================
# Full-scale benchmark reproduction
# =====================================================================


PRODUCT_TIMER = """
import sys, time
import numpy as np

rows, inner, cols, samples, per_sample = map(int, sys.argv[1:])
rng = np.random.default_rng(0)
a, b = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
out = np.empty((rows, cols))
np.matmul(a, b, out=out)
for _ in range(samples):
    t0 = time.process_time()
    for _ in range(per_sample):
        np.matmul(a, b, out=out)
    print((time.process_time() - t0) / per_sample)
"""


def largest_layer(plan) -> tuple:
    return max(zip(plan.dims[:-1], plan.dims[1:]), key=lambda pair: pair[0] * pair[1])


def time_plan_product(plan, samples: int = 7, per_sample: int = 20) -> list:
    """CPU seconds of one batch-by-largest-layer float64 product on one BLAS
    thread, timed in a fresh interpreter; one figure per sample."""
    d_in, d_out = largest_layer(plan)
    shape = (plan.batch_size, d_in, d_out, samples, per_sample)
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"), "1")
    stdout = run_python(PRODUCT_TIMER, *map(str, shape), **one_thread)
    return [float(line) for line in stdout.split()]


def plan_products(plan) -> float:
    """Matmul work the plan cannot avoid, in units of its timed product.

    Multiply-adds per batch row: a forward pass is sum(d_in * d_out) over the
    layers; a full gradient adds the weight gradients (as much again) and the
    input gradients of every layer but the first; a head step adds only the
    head's weight gradient.  A PROFIT update takes n_ref + 1 full gradients.
    Each seed also evaluates the baseline and every strategy's model on both
    domains' grids.
    """
    layers = list(zip(plan.dims[:-1], plan.dims[1:]))
    forward = sum(a * b for a, b in layers)
    gradient = 2 * forward + sum(a * b for a, b in layers[1:])
    head = forward + layers[-1][0] * layers[-1][1]
    updates = {
        "full": plan.finetune_steps * gradient,
        "head": plan.finetune_steps * head,
        "profit": (plan.warmup_steps + plan.finetune_steps * (plan.n_ref + 1)) * gradient,
    }
    training = plan.baseline_steps * gradient + sum(updates[s] for s in plan.strategies)
    grids = 2 * GRID_SIZE**2 * (1 + len(plan.strategies)) * forward
    d_in, d_out = largest_layer(plan)
    per_seed = plan.batch_size * training + grids
    return len(plan.seeds) * per_seed / (plan.batch_size * d_in * d_out)


def cpu_seconds() -> float:
    """CPU of this process and of its waited-for children, so work moved into
    a process pool still counts."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@pytest.fixture(scope="module")
def product_timings():
    """Per-product CPU samples; ``full_scale`` adds them around its seeds."""
    return []


@pytest.fixture(scope="module")
def full_scale(product_timings):
    """Train and fine-tune at production scale once; every headline check
    reads from this table.  Seeds are independent, so the run goes one seed
    at a time, and the product is timed before, between and after them: the
    machine's speed drifts by several percent within minutes."""
    plan = ExperimentPlan()
    rows, cpu, wall = [], 0.0, 0.0
    product_timings.extend(time_plan_product(plan))
    for seed in plan.seeds:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        rows += run_experiment(replace(plan, seeds=(seed,))).rows
        cpu += cpu_seconds() - cpu0
        wall += time.perf_counter() - wall0
        product_timings.extend(time_plan_product(plan))
    return plan, ResultsTable(rows), cpu, wall


def seed_errors(table, strategy, column):
    return {r.seed: getattr(r, column) for r in table.rows if r.strategy == strategy}


def fmt(values: dict) -> str:
    return ", ".join(f"seed {s}: {v:.4f}" for s, v in sorted(values.items()))


def test_full_scale_table_is_complete(full_scale):
    plan, table, _, _ = full_scale
    print("full-scale benchmark table (3 seeds):")
    for line in table.to_csv_text().splitlines():
        print("   ", line)
    ok = len(table.rows) == 4 * len(plan.seeds) and all(
        np.isfinite([r.original_error, r.new_error]).all() for r in table.rows
    )
    report(ok, "full-scale run produced all 12 rows with finite errors")


def test_baseline_fits_the_original_domain(full_scale):
    _, table, _, _ = full_scale
    errs = seed_errors(table, "baseline", "original_error")
    mean = float(np.mean(list(errs.values())))
    report(mean <= 0.02, f"baseline mean original-domain error {mean:.4f} <= 0.02 ({fmt(errs)})")


def test_full_finetune_forgets_the_original_domain(full_scale):
    _, table, _, _ = full_scale
    errs = seed_errors(table, "full", "original_error")
    mean = float(np.mean(list(errs.values())))
    report(mean >= 0.3, f"full fine-tune mean original-domain error {mean:.4f} >= 0.3 ({fmt(errs)})")


def test_head_only_forgetting_sits_in_the_middle_band(full_scale):
    _, table, _, _ = full_scale
    errs = seed_errors(table, "head", "original_error")
    mean = float(np.mean(list(errs.values())))
    report(
        0.03 <= mean <= 0.3,
        f"head-only mean original-domain error {mean:.4f} within [0.03, 0.3] ({fmt(errs)})",
        note=SHORTFALL,
    )


def test_wrapper_limits_original_domain_forgetting(full_scale):
    _, table, _, _ = full_scale
    errs = seed_errors(table, "profit", "original_error")
    mean = float(np.mean(list(errs.values())))
    report(
        mean <= 0.10,
        f"wrapper mean original-domain error {mean:.4f} <= 0.10 ({fmt(errs)})",
        note=SHORTFALL,
    )


def test_wrapper_adapts_to_the_new_domain(full_scale):
    _, table, _, _ = full_scale
    errs = seed_errors(table, "profit", "new_error")
    mean = float(np.mean(list(errs.values())))
    report(
        mean <= 0.55,
        f"wrapper mean new-domain error {mean:.4f} <= 0.55 ({fmt(errs)})",
        note=SHORTFALL,
    )


def test_per_seed_forgetting_ordering(full_scale):
    """The strategy ordering on original-domain error, seed by seed."""
    _, table, _, _ = full_scale
    profit = seed_errors(table, "profit", "original_error")
    head = seed_errors(table, "head", "original_error")
    full = seed_errors(table, "full", "original_error")
    verdicts = {s: profit[s] < head[s] < full[s] for s in profit}
    detail = ", ".join(
        f"seed {s}: {profit[s]:.3f} < {head[s]:.3f} < {full[s]:.3f} is {v}"
        for s, v in sorted(verdicts.items())
    )
    report(
        all(verdicts.values()),
        f"per-seed ordering wrapper < head-only < full on original-domain error ({detail})",
        note=SHORTFALL,
    )


def test_per_seed_adaptation_gap(full_scale):
    """The wrapper's new-domain error may trail full fine-tuning by <= 0.05."""
    _, table, _, _ = full_scale
    profit = seed_errors(table, "profit", "new_error")
    full = seed_errors(table, "full", "new_error")
    verdicts = {s: profit[s] <= full[s] + 0.05 for s in profit}
    detail = ", ".join(
        f"seed {s}: {profit[s]:.3f} vs {full[s]:.3f}+0.05" for s in sorted(profit)
    )
    report(
        all(verdicts.values()),
        f"per-seed new-domain error within 0.05 of full fine-tuning ({detail})",
        note=SHORTFALL,
    )


def test_full_scale_runtime_budget(full_scale, product_timings):
    """At least half of the full-scale CPU goes to matmuls the method cannot
    avoid: the bound is the plan's product count times the median CPU of one
    such product on one BLAS thread of this machine, doubled.  A fixed number
    of seconds would measure the CPU model instead of the implementation."""
    plan, _, cpu, wall = full_scale
    products = plan_products(plan)
    per_product = statistics.median(product_timings)
    budget = RUNTIME_BUDGET_FACTOR * products * per_product
    d_in, d_out = largest_layer(plan)
    report(
        cpu <= budget,
        f"full-scale reproduction used {cpu:.1f}s CPU (wall {wall:.1f}s) <= "
        f"{RUNTIME_BUDGET_FACTOR:g} x {products:,.0f} products of "
        f"{plan.batch_size}x{d_in}x{d_out} x {per_product * 1e3:.3f}ms = {budget:.1f}s budget "
        f"(ratio {cpu / (products * per_product):.2f})",
    )
