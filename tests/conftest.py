"""Shared fixtures: a fast reduced-scale experiment plan, golden files, and
the optimizer update written out as plain out-of-place formulas.

The tiny plan keeps the full training dynamics (noisy batches, annealed
RMSProp baseline, every fine-tuning strategy) at a size where a whole
experiment takes well under a second, so determinism and regression checks
stay cheap.  The golden CSVs under tests/golden/ were produced by the first
pinned run of that plan and must never be regenerated casually: a diff there
means behavior changed.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from profit import toy

GOLDEN_DIR = Path(__file__).parent / "golden"


def make_tiny_plan(**overrides) -> toy.ExperimentPlan:
    """The reduced-scale plan behind the golden files."""
    base = dict(
        dims=(2, 32, 32, 1),
        batch_size=32,
        baseline_steps=1500,
        finetune_steps=200,
        seeds=(0, 1, 2),
    )
    base.update(overrides)
    return toy.ExperimentPlan(**base)


@pytest.fixture(scope="session")
def tiny_plan() -> toy.ExperimentPlan:
    return make_tiny_plan()


@pytest.fixture(scope="session")
def tiny_baselines(tiny_plan):
    """Baseline models for the tiny plan, trained once per session."""
    return {seed: toy.train_baseline(tiny_plan, seed) for seed in tiny_plan.seeds}


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


def pure_step(spec, t: int, buffers: dict, theta: np.ndarray, g: np.ndarray):
    """Update ``t`` (0-indexed) of ``spec`` as fresh arrays: ``(theta, buffers)``.

    The reference the in-place ``optim.step`` must equal bit for bit,
    including RMSProp's subnormal flush (see ``optim``).
    """
    lr = spec.rate_at(t)
    if spec.kind == "sgd":
        return theta - g * lr, {}
    if spec.kind == "rmsprop":
        v = buffers["v"] * spec.rho + g * (1.0 - spec.rho) * g
        if math.sqrt(2.0**-969 / (1.0 - spec.rho)) + spec.epsilon == spec.epsilon:
            v = np.where(v < np.finfo(np.float64).tiny, 0.0, v)
        return theta - g * lr / (np.sqrt(v) + spec.epsilon), {"v": v}
    m = spec.beta1 * buffers["m"] + (1.0 - spec.beta1) * g
    v = spec.beta2 * buffers["v"] + (1.0 - spec.beta2) * g * g
    m_hat = m / (1.0 - spec.beta1 ** (t + 1))
    v_hat = v / (1.0 - spec.beta2 ** (t + 1))
    return theta - lr * m_hat / (np.sqrt(v_hat) + spec.epsilon), {"m": m, "v": v}


def zero_buffers(spec, n: int) -> dict:
    """The accumulators ``pure_step`` starts from."""
    return {k: np.zeros(n) for k in {"sgd": (), "rmsprop": ("v",), "adam": ("m", "v")}[spec.kind]}
