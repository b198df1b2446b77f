"""The training loop that ties adapters, norm tracking, and pruning together.

Each step runs in a fixed order: forward pass (collecting the per-matrix
norms that prune_engine.tracked_norms names for the strategy), EMA update,
backward pass over adapters and head only, optimizer step, and then, on
interval boundaries, the prune event itself. The EMA is one ``{layer name:
vector}`` dict of views into one zeroed buffer sized by ``norm_widths``; a
second buffer of the same layout holds the step's observation. The forward
pass writes each matrix's per-feature sum of squares into its view of that
buffer, then one sqrt, one finiteness check and one in-place
``ema_update`` with ``TrainConfig.ema_decay`` move the EMA. Evaluation
happens on a separate cadence and never touches the EMA statistics or the
random streams.

Runs are deterministic functions of the config: batch order, adapter init,
and prune randomness all come from child streams of the config seed, and a
checkpoint saved under the same config restores every one of them mid-run,
along with the prune event records the next eval point is to list.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint as checkpoint_mod
from . import numerics
from .adapter import nonzero_param_count, trainable_param_count
from .errors import ConfigError, ParameterError, TrainingDiverged
from .model import MATRIX_KINDS, ModelDims, ToyModel, adapter_layout
from .numerics import Rng, Tensor
from .prune_engine import (
    PruneConfig, ema_update, norm_widths, prune_event, should_prune, tracked_norms
)
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
]

SCHEDULES = ("linear", "constant")
EVAL_BATCH = 64  # held-out sequences per evaluation forward pass


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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.adapter_std) and self.adapter_std > 0):
            raise ConfigError(f"adapter std must be positive and finite, got {self.adapter_std}")
        if not math.isfinite(self.adapter_scale):
            raise ConfigError(f"adapter scale must be finite, got {self.adapter_scale}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"step count must be positive, got {self.steps}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {tuple(OPTIMIZERS)}, got {self.optimizer!r}")
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not self.adapt_kinds or len(set(self.adapt_kinds)) != len(self.adapt_kinds):
            raise ConfigError(
                "adapter kinds must name at least one kind, each once; "
                f"got {list(self.adapt_kinds)}"
            )


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
        """The point a to_json line holds, loss and accuracy read as floats;
        ValueError, TypeError or OverflowError otherwise."""
        p = cls(**json.loads(line))
        if not (all(type(n) is int for n in (p.step, p.nonzero_params, p.adapter_params))
                and all(type(x) in (int, float) for x in (p.loss, p.accuracy))
                and type(p.prune_events) is list and all(type(e) is dict for e in p.prune_events)):
            raise TypeError(f"a field of {line.strip()!r} has the wrong type")
        p.loss, p.accuracy = float(p.loss), float(p.accuracy)
        return p


@dataclass
class RunRecord:
    eval_points: list[EvalPoint]
    steps: int
    train_seconds: float
    final_checkpoint: bytes
    best_checkpoint: bytes
    best_step: int
    mid_checkpoint: bytes | None = None
    start_step: int = 0  # the step a resumed run started from

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
        """Seconds per step over the steps this run timed, after any resume."""
        return self.train_seconds / max(1, self.steps - self.start_step)


# ---------------------------------------------------------------------------
# Optimizers


class Sgd:
    """Plain gradient descent; it keeps no state of its own."""

    def __init__(self, params: dict[str, Tensor]):
        self.params, self.slots = params, {}

    def step(self, lr: float, t: int) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= lr * p.grad


def _views(buf: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """{name: view of buf with shapes[name]}, consecutive in the dict's order."""
    views, at = {}, 0
    for name, shape in shapes.items():
        views[name] = buf[at : at + math.prod(shape)].reshape(shape)
        at += math.prod(shape)
    return views


class Adam:
    """Adam over one flat buffer per moment; ``slots`` holds each
    parameter's view into the ``m`` and ``v`` buffers. The step count that
    bias correction reads is the run's own step, passed to ``step``."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        shapes = {k: p.data.shape for k, p in params.items()}
        size = sum(p.data.size for p in params.values())
        # m, v, and the gathered grads, which the update then overwrites
        self._m, self._v, self._g = (np.zeros(size) for _ in range(3))
        self.slots = {"m": _views(self._m, shapes), "v": _views(self._v, shapes)}
        self._update = _views(self._g, shapes)

    def step(self, lr: float, t: int) -> None:
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        grads = [p.grad if p.grad is not None else np.zeros(p.data.shape) for p in self.params.values()]
        g = np.concatenate(grads, axis=None, out=self._g) if grads else self._g
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        np.divide(lr * (m / c1), np.sqrt(v / c2) + self.eps, out=g)
        for k, p in self.params.items():
            p.data -= self._update[k]


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


def make_optimizer(kind: str, params: dict[str, Tensor]):
    if kind not in OPTIMIZERS:
        raise ConfigError(f"optimizer must be one of {tuple(OPTIMIZERS)}, got {kind!r}")
    return OPTIMIZERS[kind](params)


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


def evaluate(model: ToyModel, task: TaskData) -> dict:
    """Loss and accuracy over the held-out split; no side effects."""
    if task.eval_count < 1:
        raise ParameterError("evaluation split is empty")
    total_loss = 0.0
    hits = 0
    with numerics.no_grad():
        for lo in range(0, task.eval_count, EVAL_BATCH):
            tokens = task.eval_tokens[lo : lo + EVAL_BATCH]
            targets = task.eval_targets[lo : lo + EVAL_BATCH]
            logits = model.forward(tokens)
            total_loss += _loss(logits, targets, task.is_regression).item() * len(tokens)
            hits += _accuracy(logits.data, targets, task.is_regression)
    return {"loss": total_loss / task.eval_count, "accuracy": hits / task.eval_count}


# ---------------------------------------------------------------------------
# The loop


def _keep_heap() -> bool:
    """On glibc, keep freed heap memory in the process: raise the trim
    threshold to 64 MB and the mmap threshold to 32 MB, so the arrays each
    training step frees are reused by the next instead of being returned to
    the kernel and faulted back in. Elsewhere nothing is called. Returns
    whether both settings took; they last for the process."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # glibc's M_TRIM_THRESHOLD is -1 and its M_MMAP_THRESHOLD -3
    return mallopt(-1, 64 << 20) == 1 and mallopt(-3, 32 << 20) == 1


def train(
    model: ToyModel,
    task: TaskData,
    cfg: TrainConfig,
    *,
    metrics_path=None,
    resume_from: bytes | None = None,
    checkpoint_at: int | None = None,
) -> RunRecord:
    """Run the step loop; returns the full record plus checkpoints.

    checkpoint_at captures an extra snapshot right after that step, which
    must be one this call runs, for resuming under the same config and task; a
    resume_from checkpoint saved under any other TrainConfig, ModelDims or
    task data, or corrupted, raises FormatError. On a non-finite loss the loop
    aborts with the last good state attached, so callers can inspect or
    restart from it: the last eval point's checkpoint, or resume_from before
    a resumed run's first, which a resume at cfg.steps returns as final and
    best. The model is checked against cfg: an adapter whose shape, rank or
    scale is not what cfg.plan and cfg.adapt_kinds lay out over its dims at
    cfg.adapter_scale, or a missing or extra one, raises ConfigError, since
    adapter_params and the checkpoint header read cfg.

    Each call first keeps freed heap memory in the process (_keep_heap), so
    every caller trains under one allocator policy; no result depends on it.
    """
    _keep_heap()
    if task.num_outputs != model.dims.num_outputs:
        raise ConfigError(
            f"task needs {task.num_outputs} outputs but the model head has "
            f"{model.dims.num_outputs}"
        )
    layout = adapter_layout(model.dims, cfg.plan, cfg.adapt_kinds)
    if ({name: (*shape, cfg.adapter_scale) for name, shape in layout.items()}
            != {name: (p.d1, p.d2, p.rank, p.scale) for name, p in model.adapters.items()}):
        raise ConfigError(
            f"the model's adapters {sorted(model.adapters)} are not the ones plan "
            f"{list(cfg.plan.ranks)} and adapt_kinds {cfg.adapt_kinds} lay out at scale "
            f"{cfg.adapter_scale}, so adapter_params and the checkpoint would misreport them"
        )
    params = model.trainable()
    optimizer = make_optimizer(cfg.optimizer, params)
    norms = tracked_norms(cfg.prune)
    widths = norm_widths(model.adapters, cfg.prune)
    # every layer's x̄, in adapter order, and this step's observation of it:
    # forward writes each sum of squares into obs, one sqrt makes it the norms
    ema, obs = np.zeros(sum(widths.values())), np.zeros(sum(widths.values()))
    xbars = _views(ema, {name: (width,) for name, width in widths.items()})
    sumsq = _views(obs, {name: (width,) for name, width in widths.items()})
    rngs = {"data": Rng(cfg.seed).child("data"), "prune": Rng(cfg.seed).child("prune")}
    adapter_params = trainable_param_count(layout)
    task_digest = numerics.fingerprint(
        [task.train_tokens, task.train_targets, task.eval_tokens, task.eval_targets]
    )

    start_step = 0
    pending_events: list[dict] = []  # prune event records the next eval point lists
    if resume_from is not None:
        start_step, pending_events = checkpoint_mod.restore_state(
            resume_from, model, optimizer, xbars, cfg, rngs, task_digest
        )
    if checkpoint_at is not None and not start_step < checkpoint_at <= cfg.steps:
        raise ParameterError(
            f"checkpoint_at must lie in [{start_step + 1}, {cfg.steps}], got {checkpoint_at}"
        )

    # each eval point's snapshot becomes the final checkpoint and the last
    # good state a divergence carries; a resumed run starts from its own
    record = RunRecord(eval_points=[], steps=cfg.steps, train_seconds=0.0,
                       final_checkpoint=resume_from, best_checkpoint=resume_from,
                       best_step=start_step, start_step=start_step)
    best_acc = -math.inf

    with open(metrics_path, "w") if metrics_path else contextlib.nullcontext() as metrics_fp:
        def snapshot(step: int) -> bytes:
            return checkpoint_mod.capture_state(
                model, optimizer, xbars, cfg, step, rngs, task_digest, pending_events
            )

        def do_eval(step: int) -> None:
            nonlocal best_acc, pending_events
            metrics = evaluate(model, task)
            point = EvalPoint(
                step=step,
                loss=metrics["loss"],
                accuracy=metrics["accuracy"],
                nonzero_params=nonzero_param_count(model.adapters.values()),
                adapter_params=adapter_params,
                prune_events=pending_events,
            )
            pending_events = []
            record.eval_points.append(point)
            if metrics_fp is not None:
                metrics_fp.write(point.to_json() + "\n")
                metrics_fp.flush()
            record.final_checkpoint = snapshot(step)
            if point.accuracy > best_acc:
                best_acc, record.best_step = point.accuracy, step
                record.best_checkpoint = record.final_checkpoint

        if start_step == 0:
            do_eval(0)
        for step in range(start_step + 1, cfg.steps + 1):
            t0 = time.perf_counter()
            idx = rngs["data"].integers(0, task.train_count, size=cfg.batch_size)
            tokens = task.train_tokens[idx]
            targets = task.train_targets[idx]
            logits = model.forward(tokens, norms, sumsq)
            if xbars:
                np.sqrt(obs, out=obs)
                if not np.isfinite(obs).all():
                    # exploded activations surface in the norm statistics
                    # before the loss itself goes non-finite
                    raise TrainingDiverged(step, record.final_checkpoint)
                # the first observation starts the EMA (decay 0 keeps every
                # bit of it: 0 * 0 + 1 * obs), or steps it from zeros
                first = step == 1 and cfg.ema_init_first_batch
                ema_update(ema, obs, 0.0 if first else cfg.ema_decay)
            loss = _loss(logits, targets, task.is_regression)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(step, record.final_checkpoint)
            for p in params.values():
                p.grad = None
            loss.backward()
            optimizer.step(lr_at(step, cfg), step)

            if should_prune(step, cfg.prune):
                pending_events += prune_event(model.adapters, cfg.prune, xbars, rngs["prune"], step)
            record.train_seconds += time.perf_counter() - t0

            evaluated = step % cfg.eval_interval == 0 or step == cfg.steps
            if evaluated:
                do_eval(step)
            if checkpoint_at == step:
                # after this step's events and any eval point that lists them,
                # which is the state an eval point here has just captured
                record.mid_checkpoint = record.final_checkpoint if evaluated else snapshot(step)
    return record
