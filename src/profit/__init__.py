"""Fine-tuning that protects old-task behavior via temporal gradient checks.

The core idea: take a few cheap probe steps with a reference optimizer,
measure the displacement Delta they produce, then test the fresh gradient
against Delta.  A negative inner product means the proposed update points
back toward forgetting the pre-trained solution, so the gradient is
projected onto the subspace orthogonal to Delta before the real optimizer
applies it from the restored starting weights.

Layout: ``paramvec`` (flat parameter-vector algebra), ``optim`` (SGD,
RMSProp, Adam on flat vectors), ``mlp`` (small dense network with hand-coded
reverse-mode gradients), ``core`` (the wrapper itself), ``toy`` (the 2D
sin(10|x|) regression benchmark), ``checkpoint``/``runconfig``/``cli``
(persistence and the command-line harness).

Importing the package pins numpy's BLAS to one thread (see ``blas``), so
results do not depend on the environment's thread setting.
"""

from .blas import pin_one_thread
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .core import (
    ProfitConfig,
    ProfitStepTrace,
    profit_step,
    profit_workspace,
    run_plain_training,
    run_profit_training,
)
from .errors import (
    BatchStreamExhaustedError,
    CheckpointError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
)
from .mlp import LAYER_DIMS, Batch, MlpModel, backward, flatten, forward, init_model, unflatten
from .optim import OptimizerSpec, OptimizerState, adam, init_state, rmsprop, sgd, step
from .paramvec import EPS_DEGENERATE, Rejection, orthogonal_reject
from .runconfig import RunConfig, config_from_text, load_config
from .toy import (
    NEW_DOMAIN,
    ORIGINAL_DOMAIN,
    STRATEGIES,
    ExperimentPlan,
    ResultsTable,
    SweepTable,
    ToyDataConfig,
    evaluate_error,
    finetune_model,
    run_ablation_sweep,
    run_experiment,
    target_function,
    train_baseline,
)

pin_one_thread()

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BatchStreamExhaustedError",
    "Checkpoint",
    "CheckpointError",
    "ConfigError",
    "DimensionMismatchError",
    "EPS_DEGENERATE",
    "ExperimentPlan",
    "LAYER_DIMS",
    "MlpModel",
    "NEW_DOMAIN",
    "NonFiniteError",
    "ORIGINAL_DOMAIN",
    "OptimizerSpec",
    "OptimizerState",
    "ProfitConfig",
    "ProfitStepTrace",
    "Rejection",
    "ResultsTable",
    "RunConfig",
    "STRATEGIES",
    "SweepTable",
    "ToyDataConfig",
    "adam",
    "backward",
    "config_from_text",
    "evaluate_error",
    "finetune_model",
    "flatten",
    "forward",
    "init_model",
    "init_state",
    "load_checkpoint",
    "load_config",
    "orthogonal_reject",
    "profit_step",
    "profit_workspace",
    "rmsprop",
    "run_ablation_sweep",
    "run_experiment",
    "run_plain_training",
    "run_profit_training",
    "save_checkpoint",
    "sgd",
    "step",
    "target_function",
    "train_baseline",
    "unflatten",
]
