"""The training loop that ties adapters, norm tracking, and pruning together.

Each step runs in a fixed order: forward pass (collecting per-matrix input
norms when the prune strategy needs them), EMA update, backward pass over
adapters and head only, optimizer step, and then, on interval boundaries,
the prune event itself. Evaluation happens on a separate cadence and never
touches the EMA statistics or the random streams.

Runs are deterministic functions of the config: batch order, adapter init,
and prune randomness all come from child streams of the config seed, and a
checkpoint restores every one of them mid-run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, IO

import numpy as np

from . import checkpoint as checkpoint_mod
from . import numerics
from .adapter import nonzero_param_count, trainable_param_count
from .errors import ConfigError, NumericError, ParameterError, TrainingDiverged
from .model import MATRIX_KINDS, ModelDims, ToyModel, layer_shapes
from .numerics import Rng, Tensor
from .prune_engine import EmaState, PruneConfig, ema_update, prune_event, should_prune
from .rank_plan import RankPlan
from .tasks import TaskData

__all__ = [
    "TrainConfig",
    "EvalPoint",
    "RunRecord",
    "Sgd",
    "Adam",
    "make_optimizer",
    "lr_at",
    "build_model",
    "train",
    "evaluate",
    "steps_to_peak",
]

OPTIMIZERS = ("adam", "sgd")
SCHEDULES = ("linear", "constant")


@dataclass(frozen=True)
class TrainConfig:
    plan: RankPlan
    prune: PruneConfig = field(default_factory=PruneConfig)
    lr: float = 5e-3
    batch_size: int = 16
    steps: int = 500
    optimizer: str = "adam"
    seed: int = 0
    eval_interval: int = 50
    schedule: str = "linear"
    warmup_steps: int = 0
    adapter_std: float = 0.02
    adapter_scale: float = 1.0
    adapt_kinds: tuple[str, ...] = MATRIX_KINDS
    ema_decay: float = 0.9
    ema_init_first_batch: bool = False
    trajectory_coords: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"step count must be positive, got {self.steps}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval interval must be positive, got {self.eval_interval}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if not 0 <= self.warmup_steps < self.steps:
            raise ConfigError(
                f"warmup steps must lie in [0, steps), got {self.warmup_steps} of {self.steps}"
            )
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError(f"EMA decay must lie in (0, 1), got {self.ema_decay}")
        if self.trajectory_coords < 0:
            raise ConfigError("trajectory coordinate count must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class EvalPoint:
    step: int
    loss: float
    accuracy: float
    nonzero_params: int
    adapter_params: int
    prune_events: list[dict]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "EvalPoint":
        return cls(**json.loads(line))


@dataclass
class RunRecord:
    eval_points: list[EvalPoint]
    trajectory: list[dict]
    steps: int
    train_seconds: float
    final_checkpoint: bytes
    best_checkpoint: bytes
    best_step: int
    mid_checkpoint: bytes | None = None

    def _points(self) -> list[EvalPoint]:
        """The evaluation points; a record without any has no results to give."""
        if not self.eval_points:
            raise ParameterError("run record has no evaluation points")
        return self.eval_points

    @property
    def init_loss(self) -> float:
        return self._points()[0].loss

    @property
    def final_loss(self) -> float:
        return self._points()[-1].loss

    @property
    def final_accuracy(self) -> float:
        return self._points()[-1].accuracy

    @property
    def seconds_per_step(self) -> float:
        return self.train_seconds / self.steps


# ---------------------------------------------------------------------------
# Optimizers


class Sgd:
    """Plain gradient descent; stateless apart from the kind tag."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params

    def step(self, lr: float) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= lr * p.grad

    def state_dict(self) -> dict:
        return {"kind": "sgd", "t": 0, "slots": []}

    def load_state_dict(self, state: dict) -> None:
        if state["kind"] != "sgd":
            raise ConfigError(f"cannot load {state['kind']!r} state into sgd")


class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            p.data -= lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)

    def state_dict(self) -> dict:
        return {"kind": "adam", "t": self.t, "slots": ["m", "v"], "m": self.m, "v": self.v}

    def load_state_dict(self, state: dict) -> None:
        if state["kind"] != "adam":
            raise ConfigError(f"cannot load {state['kind']!r} state into adam")
        self.t = int(state["t"])
        for k in self.params:
            self.m[k] = np.array(state["m"][k], dtype=np.float64)
            self.v[k] = np.array(state["v"][k], dtype=np.float64)


def make_optimizer(kind: str, params: dict[str, Tensor]):
    if kind == "adam":
        return Adam(params)
    if kind == "sgd":
        return Sgd(params)
    raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {kind!r}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup, then either a linear ramp to zero or a flat rate."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    if cfg.schedule == "constant":
        return cfg.lr
    denom = max(1, cfg.steps - cfg.warmup_steps)
    return cfg.lr * max(0, cfg.steps - step + 1) / denom


# ---------------------------------------------------------------------------
# Model assembly and evaluation


def build_model(cfg: TrainConfig, dims: ModelDims) -> ToyModel:
    """Frozen base and adapters, all derived from the config seed."""
    return ToyModel.build(
        dims,
        cfg.plan,
        Rng(cfg.seed).child("model"),
        adapter_std=cfg.adapter_std,
        adapter_scale=cfg.adapter_scale,
        adapt_kinds=cfg.adapt_kinds,
    )


def _loss(logits: Tensor, targets: np.ndarray, is_regression: bool) -> Tensor:
    if is_regression:
        pred = logits.reshape(logits.shape[0])
        diff = pred - Tensor(np.asarray(targets, dtype=np.float64))
        return (diff * diff).mean()
    return numerics.softmax_cross_entropy(logits, targets)


def _accuracy(logits: np.ndarray, targets: np.ndarray, is_regression: bool) -> int:
    if is_regression:
        return int((np.abs(logits.reshape(-1) - targets) < 0.5).sum())
    return int((logits.argmax(axis=1) == targets).sum())


def evaluate(model: ToyModel, task: TaskData, batch_size: int = 64) -> dict:
    """Loss and accuracy over the held-out split; no side effects."""
    if task.eval_count < 1:
        raise ParameterError("evaluation split is empty")
    total_loss = 0.0
    hits = 0
    with numerics.no_grad():
        for lo in range(0, task.eval_count, batch_size):
            tokens = task.eval_tokens[lo : lo + batch_size]
            targets = task.eval_targets[lo : lo + batch_size]
            logits, _ = model.forward(tokens)
            total_loss += _loss(logits, targets, task.is_regression).item() * len(tokens)
            hits += _accuracy(logits.data, targets, task.is_regression)
    return {"loss": total_loss / task.eval_count, "accuracy": hits / task.eval_count}


def steps_to_peak(record: RunRecord) -> int:
    """Step of the best eval accuracy; earlier step wins a tie."""
    best = max(record._points(), key=lambda p: (p.accuracy, -p.step))
    return best.step


def _pick_coords(model: ToyModel, cfg: TrainConfig) -> list[tuple[str, str, int, int]]:
    """A few fixed A-matrix coordinates to trace through training."""
    if cfg.trajectory_coords == 0 or not model.adapters:
        return []
    rng = Rng(cfg.seed).child("trajectory")
    names = list(model.adapters)
    coords: list[tuple[str, str, int, int]] = []
    seen: set[tuple[str, int, int]] = set()
    guard = 0
    while len(coords) < cfg.trajectory_coords and guard < 100 * cfg.trajectory_coords + 100:
        guard += 1
        name = names[int(rng.integers(0, len(names)))]
        pair = model.adapters[name]
        i = int(rng.integers(0, pair.rank))
        j = int(rng.integers(0, pair.d2))
        if (name, i, j) in seen:
            continue
        seen.add((name, i, j))
        coords.append((f"{name}.A[{i},{j}]", name, i, j))
    return coords


# ---------------------------------------------------------------------------
# The loop


def train(
    model: ToyModel,
    task: TaskData,
    cfg: TrainConfig,
    *,
    metrics_path=None,
    trajectory_path=None,
    prune_observer: Callable[[int, ToyModel, list[dict]], None] | None = None,
    resume_from: bytes | None = None,
    checkpoint_at: int | None = None,
) -> RunRecord:
    """Run the step loop; returns the full record plus checkpoints.

    checkpoint_at captures an extra snapshot right after that step, for
    resuming under the same config. On a non-finite loss the loop aborts
    with the last evaluated state attached, so callers can inspect or
    restart from it.
    """
    if task.num_outputs != model.dims.num_outputs:
        raise ConfigError(
            f"task needs {task.num_outputs} outputs but the model head has "
            f"{model.dims.num_outputs}"
        )
    params = model.trainable()
    optimizer = make_optimizer(cfg.optimizer, params)
    strategy = cfg.prune.strategy
    active = cfg.prune.prune_ratio > 0 and strategy != "none"
    want_input = active and strategy == "prilora_A"
    want_latent = active and strategy in ("B_rows", "B_cols")
    ema_input: dict[str, EmaState] = {}
    ema_latent: dict[str, EmaState] = {}
    rngs = {"data": Rng(cfg.seed).child("data"), "prune": Rng(cfg.seed).child("prune")}
    adapter_params = trainable_param_count(model.plan, layer_shapes(model.dims, cfg.adapt_kinds))

    start_step = 0
    if resume_from is not None:
        start_step = checkpoint_mod.restore_state(
            resume_from, model, optimizer, ema_input, ema_latent, rngs
        )
        if start_step > cfg.steps:
            raise ConfigError(
                f"checkpoint is at step {start_step}, beyond the configured {cfg.steps}"
            )

    coords = _pick_coords(model, cfg)
    eval_points: list[EvalPoint] = []
    trajectory: list[dict] = []
    train_seconds = 0.0
    best_blob: bytes | None = None
    best_acc = -math.inf
    best_step = start_step
    last_good: bytes | None = None
    mid_blob: bytes | None = None

    metrics_fp: IO[str] | None = open(metrics_path, "w") if metrics_path else None
    traj_fp: IO[str] | None = open(trajectory_path, "w") if trajectory_path else None

    def observe(state: dict[str, EmaState], name: str, vec: np.ndarray) -> None:
        prev = state.get(name)
        if prev is None:
            if cfg.ema_init_first_batch:
                state[name] = EmaState(vec.copy(), decay=cfg.ema_decay)
                return
            prev = EmaState.zeros(vec.shape[0], decay=cfg.ema_decay)
        state[name] = ema_update(prev, vec)

    def snapshot(step: int) -> bytes:
        return checkpoint_mod.capture_state(
            model, optimizer, ema_input, ema_latent, step, rngs
        )

    def do_eval(step: int, events: list[dict]) -> None:
        nonlocal best_blob, best_acc, best_step, last_good
        metrics = evaluate(model, task)
        point = EvalPoint(
            step=step,
            loss=metrics["loss"],
            accuracy=metrics["accuracy"],
            nonzero_params=nonzero_param_count(model.adapters.values()),
            adapter_params=adapter_params,
            prune_events=events,
        )
        eval_points.append(point)
        if metrics_fp is not None:
            metrics_fp.write(point.to_json() + "\n")
            metrics_fp.flush()
        blob = snapshot(step)
        last_good = blob
        if point.accuracy > best_acc:
            best_acc, best_step, best_blob = point.accuracy, step, blob

    try:
        if start_step == 0:
            do_eval(0, [])
        pending_events: list[dict] = []
        for step in range(start_step + 1, cfg.steps + 1):
            t0 = time.perf_counter()
            idx = rngs["data"].integers(0, task.train_count, size=cfg.batch_size)
            tokens = task.train_tokens[idx]
            targets = task.train_targets[idx]
            try:
                logits, stats = model.forward(tokens, want_input, want_latent)
            except NumericError:
                # exploded activations surface in the norm statistics
                # before the loss itself goes non-finite
                raise TrainingDiverged(step, last_good) from None
            loss = _loss(logits, targets, task.is_regression)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(step, last_good)
            if stats is not None:
                for name, vec in stats["input"].items():
                    observe(ema_input, name, vec)
                for name, vec in stats["latent"].items():
                    observe(ema_latent, name, vec)
            for p in params.values():
                p.grad = None
            loss.backward()
            optimizer.step(lr_at(step, cfg))

            events: list[dict] = []
            if should_prune(step, cfg.prune):
                xbars = ema_input if strategy == "prilora_A" else ema_latent
                events = prune_event(model.adapters, cfg.prune, xbars, rngs["prune"], step)
                if prune_observer is not None:
                    prune_observer(step, model, events)
            train_seconds += time.perf_counter() - t0
            if checkpoint_at == step:
                mid_blob = snapshot(step)

            if coords:
                row = {
                    "step": step,
                    "loss": loss_val,
                    "prune_event": bool(events),
                    "values": {
                        label: float(model.adapters[name].A.data[i, j])
                        for label, name, i, j in coords
                    },
                }
                trajectory.append(row)
                if traj_fp is not None:
                    traj_fp.write(json.dumps(row, sort_keys=True) + "\n")
            pending_events.extend(events)
            if step % cfg.eval_interval == 0 or step == cfg.steps:
                do_eval(step, pending_events)
                pending_events = []
    finally:
        if metrics_fp is not None:
            metrics_fp.close()
        if traj_fp is not None:
            traj_fp.close()

    final_blob = snapshot(cfg.steps)
    if best_blob is None:
        best_blob = final_blob
        best_step = cfg.steps
    return RunRecord(
        eval_points=eval_points,
        trajectory=trajectory,
        steps=cfg.steps,
        train_seconds=train_seconds,
        final_checkpoint=final_blob,
        best_checkpoint=best_blob,
        best_step=best_step,
        mid_checkpoint=mid_blob,
    )
