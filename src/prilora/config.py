"""Flat key=value experiment configs with explicit versioning.

Files look like::

    config_version = 1
    name = demo
    plan.kind = linear
    plan.first_rank = 2
    plan.last_rank = 6
    prune.ratio = 0.5

An unset key takes the default of the library dataclass field it sets
(``FIELDS``), so a config file and a library call that both omit a setting
run the same; keys with no field carry their own default. Unknown keys and
duplicates are errors, so a config never silently misspells a parameter.
After the file is read, any PRILORA_* environment variable overrides the
matching key (dots become double underscores: prune.ratio ->
PRILORA_PRUNE__RATIO).
"""

from __future__ import annotations

import os
from typing import Callable, Mapping

from .errors import ConfigError
from .model import ModelDims
from .prune_engine import PruneConfig
from .rank_plan import (
    RankPlan,
    concentrated_plan,
    deberta_base_preset,
    explicit_plan,
    inverted_plan,
    linear_plan,
    uniform_plan,
)
from .tasks import SyntheticTask
from .train_harness import TrainConfig

__all__ = [
    "CONFIG_VERSION",
    "ENV_PREFIX",
    "DEFAULTS",
    "FIELDS",
    "parse_config_text",
    "apply_env_overrides",
    "load_config",
    "resolved_text",
    "split_list",
    "build_plan",
    "build_task",
    "build_dims",
    "build_train_config",
]

CONFIG_VERSION = 1
ENV_PREFIX = "PRILORA_"

# Config key -> the (dataclass, field) it sets.
FIELDS: dict[str, tuple[type, str]] = {
    "task.vocab_size": (SyntheticTask, "vocab_size"),
    "task.seq_len": (SyntheticTask, "seq_len"),
    "task.train_count": (SyntheticTask, "train_count"),
    "task.eval_count": (SyntheticTask, "eval_count"),
    "model.layers": (ModelDims, "num_layers"),
    "model.d_model": (ModelDims, "d_model"),
    "model.heads": (ModelDims, "num_heads"),
    "model.d_ff": (ModelDims, "d_ff"),
    "prune.strategy": (PruneConfig, "strategy"),
    "prune.ratio": (PruneConfig, "prune_ratio"),
    "prune.interval": (PruneConfig, "interval_steps"),
    "train.steps": (TrainConfig, "steps"),
    "train.lr": (TrainConfig, "lr"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.optimizer": (TrainConfig, "optimizer"),
    "train.eval_interval": (TrainConfig, "eval_interval"),
    "train.schedule": (TrainConfig, "schedule"),
    "train.warmup_steps": (TrainConfig, "warmup_steps"),
    "train.ema_decay": (TrainConfig, "ema_decay"),
    "train.ema_init_first_batch": (TrainConfig, "ema_init_first_batch"),
    "adapter.std": (TrainConfig, "adapter_std"),
    "adapter.scale": (TrainConfig, "adapter_scale"),
}


# Key -> default, from the field's class attribute where the key has a field.
# The default's Python type decides how values are coerced; a seed of -1 on
# the task means "follow the run seed".
DEFAULTS: dict[str, object] = {
    "config_version": CONFIG_VERSION,
    "name": "run",
    "seed": 0,
    "task.kind": "token_majority",
    "task.seed": -1,
    "plan.kind": "linear",
    "plan.first_rank": 2,
    "plan.last_rank": 6,
    "plan.rank": 4,
    "plan.ranks": "",
    **{key: getattr(cls, name) for key, (cls, name) in FIELDS.items()},
    "adapter.kinds": ",".join(TrainConfig.adapt_kinds),
}


def _coerce(key: str, text: str) -> object:
    default = DEFAULTS[key]
    text = text.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse file contents into a fully defaulted, typed mapping."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, value)
    if "config_version" not in values:
        raise ConfigError(f"{source}: missing required key config_version")
    if values["config_version"] != CONFIG_VERSION:
        raise ConfigError(
            f"{source}: config_version {values['config_version']} is not "
            f"supported (this build reads version {CONFIG_VERSION})"
        )
    merged = dict(DEFAULTS)
    merged.update(values)
    return merged


def env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "__")


def apply_env_overrides(cfg: dict[str, object], env: Mapping[str, str] | None = None) -> dict[str, object]:
    env = os.environ if env is None else env
    out = dict(cfg)
    for key in DEFAULTS:
        name = env_name(key)
        if name in env:
            out[key] = _coerce(key, env[name])
    if out["config_version"] != CONFIG_VERSION:
        raise ConfigError(
            f"config_version {out['config_version']} is not supported "
            f"(this build reads version {CONFIG_VERSION})"
        )
    return out


def load_config(path, env: Mapping[str, str] | None = None) -> dict[str, object]:
    """Read, default, and environment-override a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config_text(text, source=str(path))
    return apply_env_overrides(cfg, env)


def resolved_text(cfg: Mapping[str, object]) -> str:
    """Canonical dump of a resolved config, one sorted key per line."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Object builders


def split_list(text, what: str, cast: Callable = str) -> list:
    """The comma-separated items of text, blanks skipped, each read with cast;
    a bad item raises ConfigError prefixed with what."""
    try:
        return [cast(piece.strip()) for piece in str(text).split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def build_plan(cfg: Mapping[str, object]) -> RankPlan:
    layers = int(cfg["model.layers"])
    kind = cfg["plan.kind"]
    if kind == "linear":
        return linear_plan(layers, int(cfg["plan.first_rank"]), int(cfg["plan.last_rank"]))
    if kind == "uniform":
        return uniform_plan(layers, int(cfg["plan.rank"]))
    if kind == "inverted":
        return inverted_plan(layers, int(cfg["plan.first_rank"]), int(cfg["plan.last_rank"]))
    if kind == "concentrated":
        return concentrated_plan(layers, int(cfg["plan.last_rank"]))
    if kind == "preset":
        preset = deberta_base_preset()
        if layers != preset.num_layers:
            raise ConfigError(
                f"the preset plan covers {preset.num_layers} layers; model.layers is {layers}"
            )
        return preset
    if kind == "explicit":
        ranks = split_list(cfg["plan.ranks"], "plan.ranks", int)
        if not ranks:
            raise ConfigError("plan.kind explicit requires plan.ranks")
        return explicit_plan(ranks)
    raise ConfigError(
        f"unknown plan.kind {kind!r}; choose from linear, uniform, inverted, "
        "concentrated, preset, explicit"
    )


def _kwargs(cfg: Mapping[str, object], cls: type) -> dict[str, object]:
    """cls's fields that config keys set, each read as its default's type."""
    return {
        name: type(DEFAULTS[key])(cfg[key]) for key, (owner, name) in FIELDS.items() if owner is cls
    }


def build_task(cfg: Mapping[str, object], run_seed: int) -> SyntheticTask:
    task_seed = int(cfg["task.seed"])
    return SyntheticTask(
        kind=str(cfg["task.kind"]),
        seed=run_seed if task_seed < 0 else task_seed,
        **_kwargs(cfg, SyntheticTask),
    )


def build_dims(cfg: Mapping[str, object], task: SyntheticTask) -> ModelDims:
    return ModelDims(
        vocab_size=task.vocab_size,
        seq_len=task.seq_len,
        num_outputs=task.num_outputs,
        **_kwargs(cfg, ModelDims),
    )


def build_train_config(cfg: Mapping[str, object], plan: RankPlan, seed: int) -> TrainConfig:
    return TrainConfig(
        plan=plan,
        prune=PruneConfig(**_kwargs(cfg, PruneConfig)),
        seed=seed,
        adapt_kinds=tuple(split_list(cfg["adapter.kinds"], "adapter.kinds")),
        **_kwargs(cfg, TrainConfig),
    )
