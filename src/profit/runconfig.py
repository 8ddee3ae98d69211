"""Flat key-value run configuration: strict parsing, canonical echo, digest.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Unknown keys are rejected so a typo cannot silently fall back to a
default.  The canonical echo lists every key including defaulted ones, in
schema order, so two configs that behave identically echo identically; the
sha256 of that echo is the digest stamped into checkpoints.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

from . import optim
from .errors import ConfigError
from .toy import STRATEGIES, ExperimentPlan, ToyDataConfig


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_int_list(s: str) -> tuple:
    return tuple(_parse_int(tok.strip()) for tok in s.split(","))


def _parse_str_list(s: str) -> tuple:
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


def _parse_choice(*allowed: str):
    def parse(s: str) -> str:
        if s not in allowed:
            raise ConfigError(f"expected one of {allowed}, got {s!r}")
        return s

    return parse


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (parser, default)
SCHEMA = {
    "original.domain_low": (_parse_float, -1.0),
    "original.domain_high": (_parse_float, 1.0),
    "original.noise_std": (_parse_float, 1.0),
    "new.domain_low": (_parse_float, 0.8),
    "new.domain_high": (_parse_float, 1.5),
    "new.noise_std": (_parse_float, 1.0),
    "dims": (_parse_int_list, (2, 500, 500, 1)),
    "batch_size": (_parse_int, 128),
    "baseline.optimizer": (_parse_choice(*optim.KINDS), "rmsprop"),
    "baseline.lr": (_parse_float, 1e-2),
    "baseline.decay": (_parse_float, 1e-2),
    "baseline.steps": (_parse_int, 10000),
    "finetune.optimizer": (_parse_choice(*optim.KINDS), "rmsprop"),
    "finetune.lr": (_parse_float, 5e-4),
    "finetune.decay": (_parse_float, 0.0),
    "finetune.steps": (_parse_int, 1500),
    "profit.n_ref": (_parse_int, 1),
    "profit.ref_optimizer": (_parse_choice(*optim.KINDS), "sgd"),
    "profit.lr_ratio": (_parse_float, 100.0),
    "profit.warmup_steps": (_parse_int, 0),
    "strategy": (_parse_choice(*STRATEGIES), "profit"),
    "strategies": (_parse_str_list, STRATEGIES),
    "seeds": (_parse_int_list, (0, 1, 2)),
    "eval_every": (_parse_int, 100),
    "out_dir": (str, "runs"),
}


def parse_config_text(text: str) -> dict:
    """Parse and validate config text into a fully defaulted key->value dict."""
    values = dict()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)
    return values


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus the ExperimentPlan it denotes."""

    values: dict
    plan: ExperimentPlan

    def echo(self) -> str:
        """Canonical text with every key explicit, in schema order."""
        return "".join(f"{key} = {_fmt(self.values[key])}\n" for key in SCHEMA)

    def digest(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()


def _build_plan(v: dict) -> ExperimentPlan:
    def spec(kind: str, lr: float, decay: float) -> optim.OptimizerSpec:
        return optim.OptimizerSpec(kind, lr, decay=decay)

    original = ToyDataConfig(v["original.domain_low"], v["original.domain_high"], v["original.noise_std"])
    new = ToyDataConfig(v["new.domain_low"], v["new.domain_high"], v["new.noise_std"])
    return ExperimentPlan(
        original=original,
        new=new,
        batch_size=v["batch_size"],
        baseline=spec(v["baseline.optimizer"], v["baseline.lr"], v["baseline.decay"]),
        baseline_steps=v["baseline.steps"],
        finetune=spec(v["finetune.optimizer"], v["finetune.lr"], v["finetune.decay"]),
        finetune_steps=v["finetune.steps"],
        n_ref=v["profit.n_ref"],
        ref_kind=v["profit.ref_optimizer"],
        lr_ratio=v["profit.lr_ratio"],
        warmup_steps=v["profit.warmup_steps"],
        strategies=v["strategies"],
        seeds=v["seeds"],
        dims=v["dims"],
    )


def config_from_text(text: str) -> RunConfig:
    """Parse, default, and validate; any constructor complaint is a config error."""
    values = parse_config_text(text)
    if values["eval_every"] < 1:
        raise ConfigError(f"eval_every must be >= 1, got {values['eval_every']}")
    try:
        plan = _build_plan(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(values, plan)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (UnicodeDecodeError, IsADirectoryError) as exc:
        raise ConfigError(f"cannot read config file {path} as text: {exc}") from None
    return config_from_text(text)
