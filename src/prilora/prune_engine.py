"""Importance-driven pruning of adapter weights on a fixed step cadence.

Each adapted layer tracks an exponential moving average of its input's
per-feature L2 norms. At every prune event the engine scores each entry of
the A factor as |A_ij| times the tracked norm of column j, then zeroes the
lowest-scoring n entries of every row, where n is set by the prune ratio.
Zeroed entries stay trainable: gradients and optimizer state are untouched,
so a weight that matters later can grow back.

The ablation strategies (random column choice, pruning B by rows or by
columns) live here too, sharing the same mask machinery, and so does the
per-event dispatch: ``prune_event`` prunes every adapter under the configured
strategy and returns one event record per adapter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adapter import AdapterPair
from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .numerics import Rng, Tensor

__all__ = [
    "EmaState",
    "PruneMask",
    "PruneConfig",
    "STRATEGIES",
    "batch_input_norm",
    "ema_update",
    "importance",
    "build_mask",
    "apply_mask",
    "should_prune",
    "ablation_prune",
    "prune_event",
]

STRATEGIES = ("prilora_A", "random_A_cols", "B_rows", "B_cols", "none")


def _as_matrix(value) -> np.ndarray:
    arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EmaState:
    """Running per-feature input magnitude for one adapted layer."""

    xbar: np.ndarray
    decay: float = 0.9

    def __post_init__(self) -> None:
        arr = np.asarray(self.xbar, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"EMA state must be a vector, got shape {arr.shape}")
        if (arr < 0).any():
            raise ParameterError("EMA state entries must be nonnegative")
        if not 0.0 < self.decay < 1.0:
            raise ParameterError(f"decay must lie in (0, 1), got {self.decay}")
        object.__setattr__(self, "xbar", arr)

    @property
    def update_weight(self) -> float:
        return 1.0 - self.decay

    @classmethod
    def zeros(cls, width: int, decay: float = 0.9) -> "EmaState":
        return cls(np.zeros(width), decay=decay)


@dataclass(frozen=True)
class PruneMask:
    """Which entries the last event zeroed: 1 = pruned.

    Standard masks zero the same count in every row; the column-wise
    ablation zeroes the same count in every column instead. One of the two
    must hold.
    """

    M: np.ndarray
    event_step: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.M)
        if arr.ndim != 2:
            raise ShapeError(f"mask must be a matrix, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ParameterError("mask entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        row_counts = arr.sum(axis=1)
        col_counts = arr.sum(axis=0)
        rows_uniform = arr.shape[0] == 0 or (row_counts == row_counts[0]).all()
        cols_uniform = arr.shape[1] == 0 or (col_counts == col_counts[0]).all()
        if not (rows_uniform or cols_uniform):
            raise ParameterError("mask must zero a uniform count per row or per column")
        object.__setattr__(self, "M", arr)

    @property
    def n_per_row(self) -> int:
        counts = self.M.sum(axis=1)
        if self.M.shape[0] == 0:
            return 0
        if not (counts == counts[0]).all():
            raise ParameterError("mask is column-uniform, not row-uniform")
        return int(counts[0])

    @property
    def zeros_written(self) -> int:
        return int(self.M.sum())


@dataclass(frozen=True)
class PruneConfig:
    """What to prune, how much of it, and how often."""

    prune_ratio: float = 0.5
    interval_steps: int = 40
    strategy: str = "prilora_A"

    def __post_init__(self) -> None:
        if not 0.0 <= self.prune_ratio <= 1.0:
            raise ConfigError(f"prune ratio must lie in [0, 1], got {self.prune_ratio}")
        if not isinstance(self.interval_steps, int) or self.interval_steps < 1:
            raise ConfigError(
                f"prune interval must be a positive integer, got {self.interval_steps!r}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown prune strategy {self.strategy!r}; choose from {STRATEGIES}"
            )


def batch_input_norm(X) -> np.ndarray:
    """Per-feature L2 norm of a batch: sqrt of summed squares over batch and
    position axes. 2-D input is treated as a single-sequence batch."""
    arr = X.data if isinstance(X, Tensor) else np.asarray(X, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ShapeError(f"expected (batch, position, feature) input, got shape {arr.shape}")
    # single fused pass; runs once per adapted matrix per step, so it must
    # not rescan or copy the full activation tensor
    out = np.sqrt(np.einsum("bnd,bnd->d", arr, arr))
    if not np.isfinite(out).all():
        # any nan or inf in the input survives the sum of squares
        raise NumericError("batch input contains non-finite values")
    return out


def ema_update(state: EmaState, x: np.ndarray) -> EmaState:
    """One decay step: xbar' = decay * xbar + (1 - decay) * x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != state.xbar.shape:
        raise ShapeError(
            f"observation length {x.shape} does not match EMA state {state.xbar.shape}"
        )
    if (x < 0).any():
        raise ParameterError("EMA observations must be nonnegative")
    # the checks above already guarantee the EmaState invariants, and this
    # runs once per adapted matrix per training step, so skip the constructor
    out = object.__new__(EmaState)
    object.__setattr__(out, "xbar", state.decay * state.xbar + state.update_weight * x)
    object.__setattr__(out, "decay", state.decay)
    return out


def importance(A, xbar: np.ndarray) -> np.ndarray:
    """Score matrix S_ij = |A_ij| * xbar_j; larger means keep."""
    mat = _as_matrix(A)
    xbar = np.asarray(xbar, dtype=np.float64)
    if xbar.ndim != 1 or xbar.shape[0] != mat.shape[1]:
        raise ShapeError(
            f"norm vector of length {xbar.shape} does not match matrix width {mat.shape[1]}"
        )
    return np.abs(mat) * xbar[None, :]


def build_mask(S, prune_ratio: float, event_step: int = 0) -> PruneMask:
    """Mark the n lowest-scoring entries of each row, n = floor(ratio * width).

    Ties resolve toward the lower column index, so masks are deterministic
    functions of the scores alone.
    """
    scores = _as_matrix(S)
    if not 0.0 <= prune_ratio <= 1.0:
        raise ConfigError(f"prune ratio must lie in [0, 1], got {prune_ratio}")
    rows, width = scores.shape
    n = math.floor(prune_ratio * width)
    mask = np.zeros((rows, width), dtype=np.uint8)
    if n > 0:
        # Stable sort keeps equal scores in column order: lower index first.
        order = np.argsort(scores, axis=1, kind="stable")
        np.put_along_axis(mask, order[:, :n], 1, axis=1)
    return PruneMask(mask, event_step=event_step)


def apply_mask(A, mask: PruneMask) -> np.ndarray:
    """Zero the marked entries; everything else passes through unchanged."""
    mat = _as_matrix(A)
    if mask.M.shape != mat.shape:
        raise ShapeError(f"mask shape {mask.M.shape} does not match matrix {mat.shape}")
    return np.where(mask.M == 1, 0.0, mat)


def should_prune(step: int, cfg: PruneConfig) -> bool:
    """True on every interval boundary from the first one onward."""
    if cfg.strategy == "none" or cfg.prune_ratio == 0.0:
        return False
    return step >= 1 and step % cfg.interval_steps == 0


def ablation_prune(
    adapter: AdapterPair,
    xbar_for_target: np.ndarray,
    cfg: PruneConfig,
    rng: Rng | None = None,
    event_step: int = 0,
) -> PruneMask:
    """Run one of the control strategies in place of the standard A pruning.

    random_A_cols ignores importance and zeroes uniformly chosen columns per
    A row. B_rows and B_cols score B with the tracked norm of its own input
    (the rank-dimensional latent) and zero per-row or per-column lowest
    entries. The adapter's target factor is modified in place; the returned
    mask records exactly what was zeroed.
    """
    if cfg.strategy == "random_A_cols":
        if rng is None:
            raise ParameterError("random_A_cols pruning needs a random stream")
        r, d2 = adapter.A.data.shape
        n = math.floor(cfg.prune_ratio * d2)
        mask = np.zeros((r, d2), dtype=np.uint8)
        for i in range(r):
            mask[i, rng.permutation(d2)[:n]] = 1
        target, pm = adapter.A, PruneMask(mask, event_step=event_step)
    elif cfg.strategy in ("B_rows", "B_cols"):
        target, S = adapter.B, importance(adapter.B.data, xbar_for_target)
        if cfg.strategy == "B_rows":
            pm = build_mask(S, cfg.prune_ratio, event_step=event_step)
        else:
            pm = PruneMask(build_mask(S.T, cfg.prune_ratio).M.T, event_step=event_step)
    else:
        raise ConfigError(
            f"strategy {cfg.strategy!r} is not an ablation pruner; "
            "expected random_A_cols, B_rows, or B_cols"
        )
    target.data[...] = apply_mask(target.data, pm)
    return pm


def prune_event(
    adapters: Mapping[str, AdapterPair],
    cfg: PruneConfig,
    xbars: Mapping[str, EmaState],
    rng: Rng | None,
    step: int,
) -> list[dict]:
    """Prune every adapter once under cfg.strategy; one event record each.

    xbars holds each layer's tracked norms of the pruned factor's input: the
    layer input for prilora_A, the latent for B_rows and B_cols; random_A_cols
    draws from rng instead.
    """
    events: list[dict] = []
    for name, pair in adapters.items():
        if cfg.strategy == "prilora_A":
            scores = importance(pair.A.data, xbars[name].xbar)
            mask = build_mask(scores, cfg.prune_ratio, event_step=step)
            pair.A.data[...] = apply_mask(pair.A.data, mask)
        else:
            xbar = None if cfg.strategy == "random_A_cols" else xbars[name].xbar
            mask = ablation_prune(pair, xbar, cfg, rng, event_step=step)
        events.append(
            {
                "step": step,
                "layer": name,
                "strategy": cfg.strategy,
                "ratio": cfg.prune_ratio,
                "zeros_written": mask.zeros_written,
            }
        )
    return events
