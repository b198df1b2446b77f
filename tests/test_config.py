"""Config parsing, environment overrides, and object construction."""

import dataclasses

import pytest

from prilora.config import (
    CONFIG_VERSION,
    DEFAULTS,
    FIELDS,
    apply_env_overrides,
    build_dims,
    build_plan,
    build_task,
    build_train_config,
    env_name,
    load_config,
    parse_config_text,
    resolved_text,
)
from prilora.errors import ConfigError
from prilora.model import ModelDims
from prilora.prune_engine import PruneConfig
from prilora.rank_plan import deberta_base_preset
from prilora.tasks import SyntheticTask
from prilora.train_harness import TrainConfig

MINIMAL = "config_version = 1\n"


def test_minimal_file_yields_all_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg == DEFAULTS
    assert cfg["prune.ratio"] == 0.5
    assert cfg["train.steps"] == 500


def test_comments_and_blank_lines_ignored():
    text = "\n".join([
        "# an experiment",
        "",
        "config_version = 1",
        "   # indented comment",
        "name = demo",
        "prune.ratio = 0.25",
    ])
    cfg = parse_config_text(text)
    assert cfg["name"] == "demo"
    assert cfg["prune.ratio"] == 0.25


def test_values_coerce_to_the_default_type():
    cfg = parse_config_text(
        "config_version = 1\n"
        "train.steps = 120\n"
        "train.lr = 1e-2\n"
        "train.ema_init_first_batch = true\n"
    )
    assert cfg["train.steps"] == 120 and isinstance(cfg["train.steps"], int)
    assert cfg["train.lr"] == 0.01
    assert cfg["train.ema_init_first_batch"] is True


@pytest.mark.parametrize("text,fragment", [
    ("config_version = 1\nplan.width = 3\n", "unknown config key"),
    ("config_version = 1\nname = a\nname = b\n", "duplicate config key"),
    ("name = a\n", "missing required key"),
    ("config_version = 2\n", "not\nsupported".replace("\n", " ")),
    ("config_version = 1\ntrain.steps = soon\n", "invalid literal"),
    ("config_version = 1\njust words\n", "expected 'key = value'"),
    ("config_version = 1\ntrain.ema_init_first_batch = maybe\n", "not a boolean"),
])
def test_malformed_configs_rejected(text, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
        parse_config_text(text)


def test_error_reports_file_and_line():
    with pytest.raises(ConfigError, match=r"exp\.cfg:3"):
        parse_config_text("config_version = 1\n\nbogus.key = 4\n", source="exp.cfg")


def test_env_name_mapping():
    assert env_name("prune.ratio") == "PRILORA_PRUNE__RATIO"
    assert env_name("name") == "PRILORA_NAME"


def test_env_overrides_apply_with_coercion():
    cfg = parse_config_text(MINIMAL)
    out = apply_env_overrides(cfg, {
        "PRILORA_PRUNE__RATIO": "0.75",
        "PRILORA_TRAIN__STEPS": "64",
        "PRILORA_UNRELATED": "ignored",
        "HOME": "/root",
    })
    assert out["prune.ratio"] == 0.75
    assert out["train.steps"] == 64
    assert cfg["prune.ratio"] == 0.5  # input mapping untouched


def test_env_override_bad_value_rejected():
    cfg = parse_config_text(MINIMAL)
    with pytest.raises(ConfigError):
        apply_env_overrides(cfg, {"PRILORA_TRAIN__STEPS": "many"})
    with pytest.raises(ConfigError):
        apply_env_overrides(cfg, {"PRILORA_CONFIG_VERSION": "3"})


def test_load_config_reads_file_and_env(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("config_version = 1\nname = filed\nseed = 9\n")
    cfg = load_config(path, {"PRILORA_SEED": "12"})
    assert cfg["name"] == "filed"
    assert cfg["seed"] == 12


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/exp.cfg", {})


def test_resolved_text_round_trips():
    cfg = parse_config_text(
        "config_version = 1\nprune.ratio = 0.25\ntrain.ema_init_first_batch = yes\n"
    )
    again = parse_config_text(resolved_text(cfg))
    assert again == cfg
    lines = resolved_text(cfg).splitlines()
    assert lines == sorted(lines)


# -- builders -----------------------------------------------------------------


def base(**overrides):
    cfg = dict(DEFAULTS)
    cfg.update(overrides)
    return cfg


def test_build_plan_linear_default():
    plan = build_plan(base(**{"model.layers": 12}))
    assert plan.ranks[0] == 2 and plan.ranks[-1] == 6
    assert plan.total == 48


@pytest.mark.parametrize("kind,expect", [
    ("uniform", (4, 4)),
    ("inverted", (6, 2)),
    ("concentrated", (0, 6)),  # stacks plan.last_rank on the final layer
])
def test_build_plan_kinds(kind, expect):
    plan = build_plan(base(**{"plan.kind": kind, "model.layers": 2}))
    assert plan.ranks == expect


def test_build_plan_preset_requires_matching_depth():
    plan = build_plan(base(**{"plan.kind": "preset", "model.layers": 12}))
    assert plan.ranks == deberta_base_preset().ranks
    with pytest.raises(ConfigError):
        build_plan(base(**{"plan.kind": "preset", "model.layers": 2}))


def test_build_plan_explicit():
    plan = build_plan(base(**{"plan.kind": "explicit", "plan.ranks": "3, 5, 7"}))
    assert plan.ranks == (3, 5, 7)
    with pytest.raises(ConfigError):
        build_plan(base(**{"plan.kind": "explicit", "plan.ranks": ""}))
    with pytest.raises(ConfigError):
        build_plan(base(**{"plan.kind": "explicit", "plan.ranks": "3, x"}))


def test_build_plan_unknown_kind():
    with pytest.raises(ConfigError):
        build_plan(base(**{"plan.kind": "pyramid"}))


def test_task_seed_sentinel_follows_run_seed():
    task = build_task(base(), run_seed=41)
    assert task.seed == 41
    pinned = build_task(base(**{"task.seed": 5}), run_seed=41)
    assert pinned.seed == 5


def test_build_dims_mirrors_task_geometry():
    task = build_task(base(**{"task.kind": "linear_probe", "task.vocab_size": 9,
                              "task.seq_len": 7}), run_seed=0)
    dims = build_dims(base(), task)
    assert dims.vocab_size == 9
    assert dims.seq_len == 7
    assert dims.num_outputs == 1
    clf = build_task(base(), run_seed=0)
    assert build_dims(base(), clf).num_outputs == 2


def test_build_train_config_threads_everything_through():
    cfg = base(**{
        "prune.strategy": "B_rows",
        "prune.ratio": 0.25,
        "train.optimizer": "sgd",
        "adapter.kinds": "wq, wv",
        "train.warmup_steps": 10,
    })
    plan = build_plan(cfg)
    tc = build_train_config(cfg, plan, seed=3)
    assert tc.prune.strategy == "B_rows"
    assert tc.prune.prune_ratio == 0.25
    assert tc.optimizer == "sgd"
    assert tc.adapt_kinds == ("wq", "wv")
    assert tc.seed == 3
    assert tc.plan is plan


def test_build_train_config_rejects_bad_values():
    cfg = base(**{"train.optimizer": "adagrad"})
    with pytest.raises(ConfigError):
        build_train_config(cfg, build_plan(cfg), seed=0)


def test_config_version_constant_matches_defaults():
    assert DEFAULTS["config_version"] == CONFIG_VERSION


# -- one source of defaults ----------------------------------------------------


def test_short_run_config_builds_with_default_warmup():
    cfg = parse_config_text("config_version = 1\ntrain.steps = 30\n")
    tc = build_train_config(cfg, build_plan(cfg), seed=0)
    assert tc.steps == 30
    assert tc.warmup_steps == 0


def test_unset_keys_take_the_dataclass_defaults():
    cfg = parse_config_text(MINIMAL)
    plan = build_plan(cfg)
    assert build_train_config(cfg, plan, seed=0) == TrainConfig(plan=plan, seed=0)
    task = build_task(cfg, run_seed=0)
    assert task == SyntheticTask(kind="token_majority", seed=0)
    assert build_dims(cfg, task) == ModelDims()


# fields set by something other than their own config key
SET_OTHERWISE = {
    TrainConfig: {"plan", "prune", "seed", "adapt_kinds"},  # plan.*, prune.*, seed, adapter.kinds
    PruneConfig: set(),
    ModelDims: {"vocab_size", "seq_len", "num_outputs"},  # follow the task
    SyntheticTask: {"kind", "seed"},  # task.kind has no field default; task.seed = -1 follows the run
}


@pytest.mark.parametrize("cls", list(SET_OTHERWISE), ids=lambda cls: cls.__name__)
def test_every_settable_field_has_a_config_key(cls):
    keyed = {name for owner, name in FIELDS.values() if owner is cls}
    assert keyed == {f.name for f in dataclasses.fields(cls)} - SET_OTHERWISE[cls]
