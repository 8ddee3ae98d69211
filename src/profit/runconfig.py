"""Flat key-value run configuration: strict parsing, canonical echo, digest.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Unknown keys are rejected so a typo cannot silently fall back to a
default.  A key that sets a plan field takes its default from
``ExperimentPlan()``.  The canonical echo lists every key including defaulted
ones, in schema order, so two configs that behave identically echo
identically; the sha256 of that echo is the digest stamped into checkpoints.
"""

import hashlib
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from . import optim
from .errors import ConfigError
from .toy import STRATEGIES, ExperimentPlan


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


_DEFAULT_PLAN = ExperimentPlan()


def _plan_key(parser, field: str) -> tuple:
    """A key that sets ``field`` of ``ExperimentPlan`` (``"name"``, or
    ``"name.attribute"`` of a nested value), defaulting to its value there."""
    return parser, reduce(getattr, field.split("."), _DEFAULT_PLAN), field


# key -> (parser, default, the ExperimentPlan field it sets); the CLI's own
# keys set no field
SCHEMA = {
    "original.domain_low": _plan_key(_parse_float, "original.domain_low"),
    "original.domain_high": _plan_key(_parse_float, "original.domain_high"),
    "original.noise_std": _plan_key(_parse_float, "original.noise_std"),
    "new.domain_low": _plan_key(_parse_float, "new.domain_low"),
    "new.domain_high": _plan_key(_parse_float, "new.domain_high"),
    "new.noise_std": _plan_key(_parse_float, "new.noise_std"),
    "dims": _plan_key(_parse_int_list, "dims"),
    "batch_size": _plan_key(_parse_int, "batch_size"),
    "baseline.optimizer": _plan_key(_parse_choice(*optim.KINDS), "baseline.kind"),
    "baseline.lr": _plan_key(_parse_float, "baseline.learning_rate"),
    "baseline.decay": _plan_key(_parse_float, "baseline.decay"),
    "baseline.steps": _plan_key(_parse_int, "baseline_steps"),
    "finetune.optimizer": _plan_key(_parse_choice(*optim.KINDS), "finetune.kind"),
    "finetune.lr": _plan_key(_parse_float, "finetune.learning_rate"),
    "finetune.decay": _plan_key(_parse_float, "finetune.decay"),
    "finetune.steps": _plan_key(_parse_int, "finetune_steps"),
    "profit.n_ref": _plan_key(_parse_int, "n_ref"),
    "profit.ref_optimizer": _plan_key(_parse_choice(*optim.KINDS), "ref_kind"),
    "profit.lr_ratio": _plan_key(_parse_float, "lr_ratio"),
    "profit.warmup_steps": _plan_key(_parse_int, "warmup_steps"),
    "strategy": (_parse_choice(*STRATEGIES), "profit", None),
    "strategies": _plan_key(_parse_str_list, "strategies"),
    "seeds": _plan_key(_parse_int_list, "seeds"),
    "eval_every": (_parse_int, 100, None),
    "out_dir": (str, "runs", None),
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
        try:
            values[key] = SCHEMA[key][0](val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    for key, (_, default, _) in SCHEMA.items():
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
    """The plan the values set, in one constructor call.  A nested value is
    built first from its attributes' keys, the rest at their class defaults."""
    fields, nested = {}, {}
    for key, (_, _, field) in SCHEMA.items():
        if field:
            name, _, attribute = field.partition(".")
            if attribute:
                nested.setdefault(name, {})[attribute] = v[key]
            else:
                fields[name] = v[key]
    for name, attributes in nested.items():
        fields[name] = type(getattr(_DEFAULT_PLAN, name))(**attributes)
    return ExperimentPlan(**fields)


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
