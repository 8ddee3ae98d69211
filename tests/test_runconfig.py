"""Config parsing: strictness, canonical echo, digest stability, plan wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profit import optim
from profit.errors import ConfigError
from profit.runconfig import SCHEMA, config_from_text, load_config, parse_config_text
from profit.toy import STRATEGIES


def test_empty_text_yields_all_defaults():
    values = parse_config_text("")
    assert values["batch_size"] == 128
    assert values["dims"] == (2, 500, 500, 1)
    assert values["baseline.lr"] == 1e-2
    assert values["baseline.decay"] == 1e-2
    assert values["finetune.decay"] == 0.0
    assert values["profit.lr_ratio"] == 100.0
    assert values["strategy"] == "profit"
    assert values["seeds"] == (0, 1, 2)
    assert set(values) == set(SCHEMA)


def test_comments_blanks_and_spacing_are_tolerated():
    text = "\n# a comment\n  batch_size =  64  # trailing note\n\nseeds = 5 , 7\n"
    values = parse_config_text(text)
    assert values["batch_size"] == 64
    assert values["seeds"] == (5, 7)


def test_unknown_key_names_the_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'batchsize'"):
        parse_config_text("# ok\nbatchsize = 4\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'batch_size'"):
        parse_config_text("batch_size = 4\n\nbatch_size = 8\n")


def test_missing_equals_sign_is_rejected():
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config_text("batch_size 4\n")


def test_bad_value_reports_line_key_and_token():
    with pytest.raises(ConfigError, match=r"line 1: batch_size: expected an integer, got 'four'"):
        parse_config_text("batch_size = four\n")
    with pytest.raises(ConfigError, match=r"finetune.lr: expected a number"):
        parse_config_text("finetune.lr = fast\n")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config_text("baseline.optimizer = newton\n")


def test_constructor_complaints_become_config_errors():
    with pytest.raises(ConfigError, match="domain_low must be < domain_high"):
        config_from_text("original.domain_low = 2.0\n")
    with pytest.raises(ConfigError, match="unknown strategy"):
        config_from_text("strategies = full,adapter\n")
    with pytest.raises(ConfigError, match="eval_every"):
        config_from_text("eval_every = 0\n")


def test_echo_is_canonical_and_reparses_to_itself():
    config = config_from_text("batch_size = 64\nseeds = 3\n# noise\n")
    echo = config.echo()
    assert "batch_size = 64\n" in echo
    assert "seeds = 3\n" in echo
    assert list(echo.splitlines())[0].startswith("original.domain_low = ")
    again = config_from_text(echo)
    assert again.values == config.values
    assert again.echo() == echo


def test_digest_tracks_behavior_not_formatting():
    spaced = config_from_text("batch_size    =    64\n# comment\n")
    plain = config_from_text("batch_size = 64\n")
    other = config_from_text("batch_size = 32\n")
    assert spaced.digest() == plain.digest()
    assert spaced.digest() != other.digest()
    assert len(plain.digest()) == 64 and int(plain.digest(), 16) >= 0


def test_defaulted_and_explicit_default_share_a_digest():
    assert config_from_text("").digest() == config_from_text("batch_size = 128\n").digest()


def test_plan_wiring_reaches_every_subsystem():
    config = config_from_text(
        "dims = 2,8,8,1\n"
        "batch_size = 16\n"
        "baseline.optimizer = adam\n"
        "baseline.lr = 0.003\n"
        "baseline.decay = 0.5\n"
        "baseline.steps = 12\n"
        "finetune.optimizer = sgd\n"
        "finetune.lr = 0.02\n"
        "finetune.steps = 7\n"
        "profit.n_ref = 3\n"
        "profit.lr_ratio = 10.0\n"
        "profit.warmup_steps = 2\n"
        "new.domain_low = 0.5\n"
        "seeds = 4\n"
        "strategies = profit\n"
    )
    plan = config.plan
    assert plan.dims == (2, 8, 8, 1) and plan.batch_size == 16
    assert plan.baseline.kind == "adam" and plan.baseline.learning_rate == 0.003
    assert plan.baseline.decay == 0.5 and plan.baseline_steps == 12
    assert plan.finetune.kind == "sgd" and plan.finetune_steps == 7
    assert plan.new.domain_low == 0.5
    assert plan.seeds == (4,) and plan.strategies == ("profit",)
    profit = plan.profit_config()
    assert profit.n_ref == 3 and profit.warmup_steps == 2
    assert profit.reference.learning_rate == pytest.approx(0.002)


def test_default_plan_matches_module_defaults():
    from profit.toy import ExperimentPlan

    assert config_from_text("").plan == ExperimentPlan()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_from_disk(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("finetune.steps = 3\n")
    assert load_config(path).plan.finetune_steps == 3


# values a key may plausibly take, plus text that no parser accepts
_VALUES = st.one_of(
    st.integers(-3, 600).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-3, 600), max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(optim.KINDS + STRATEGIES),
    st.text(max_size=12),
)
_KEY_LINES = st.dictionaries(st.sampled_from(tuple(SCHEMA)), _VALUES, max_size=6).map(
    lambda d: [f"{k} = {v}" for k, v in d.items()]
)
_CONFIG_TEXT = (
    st.tuples(_KEY_LINES, st.lists(st.text(max_size=30), max_size=2))
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .map("\n".join)
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_CONFIG_TEXT)
def test_config_text_fails_only_with_config_errors(text):
    try:
        config_from_text(text)
    except ConfigError:
        pass
