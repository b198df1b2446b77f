"""Importance-driven pruning of adapter weights on a fixed step cadence.

Each adapted layer tracks an exponential moving average of its input's
per-feature L2 norms: a plain nonnegative vector, kept by the caller in one
``{layer name: vector}`` dict and stepped by ``ema_update`` with the run's
decay (``TrainConfig.ema_decay``, its one home). At every prune event the
engine scores each entry of the A factor as |A_ij| times the tracked norm of
column j, then zeroes the lowest-scoring n entries of every row, where n is
set by the prune ratio. Zeroed entries stay trainable: gradients and
optimizer state are untouched, so a weight that matters later can grow back.

The ablation strategies (random column choice, pruning B by rows or by
columns) live here too, sharing the same mask machinery, and so does what a
strategy decides: ``tracked_norms`` names the norms a run must track for it,
``norm_widths`` their width in each layer, and ``prune_event`` prunes every
adapter under it and returns one event record per adapter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adapter import AdapterPair, nonzero_param_count
from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .numerics import Rng, Tensor, ones

__all__ = [
    "PruneMask",
    "PruneConfig",
    "STRATEGIES",
    "batch_sum_squares",
    "batch_input_norm",
    "ema_update",
    "importance",
    "build_mask",
    "apply_mask",
    "should_prune",
    "tracked_norms",
    "norm_widths",
    "ablation_prune",
    "prune_event",
]

STRATEGIES = ("prilora_A", "random_A_cols", "B_rows", "B_cols", "none")

# the norms each importance-scored strategy ranks its pruned factor's entries by
_NORM_SOURCE = {"prilora_A": "input", "B_rows": "latent", "B_cols": "latent"}


def _as_matrix(value) -> np.ndarray:
    arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PruneMask:
    """Which entries the last event zeroed: 1 = pruned.

    Standard masks zero the same count in every row; the column-wise
    ablation zeroes the same count in every column instead. One of the two
    must hold.
    """

    M: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.M)
        if arr.ndim != 2:
            raise ShapeError(f"mask must be a matrix, got shape {arr.shape}")
        if not ((arr == 0) | (arr == 1)).all():
            raise ParameterError("mask entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        row_counts = arr.sum(axis=1)
        col_counts = arr.sum(axis=0)
        rows_uniform = arr.shape[0] == 0 or (row_counts == row_counts[0]).all()
        cols_uniform = arr.shape[1] == 0 or (col_counts == col_counts[0]).all()
        if not (rows_uniform or cols_uniform):
            raise ParameterError("mask must zero a uniform count per row or per column")
        object.__setattr__(self, "M", arr)

    @classmethod
    def _unchecked(cls, M: np.ndarray) -> "PruneMask":
        """Wrap a uint8 0/1 mask its maker built uniform per row, without
        __post_init__'s checks, which cost more than building it."""
        mask = object.__new__(cls)
        object.__setattr__(mask, "M", M)
        return mask

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


def batch_sum_squares(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-feature sum of squares over every axis but the last, written to
    out when given; the column sums run as one GEMV. Its square root is
    batch_input_norm, without the checks."""
    arr = arr.reshape(-1, arr.shape[-1])
    return np.matmul(ones(arr.shape[0]), arr * arr, out=out)


def batch_input_norm(X) -> np.ndarray:
    """Per-feature L2 norm of a batch: sqrt of summed squares over batch and
    position axes. 2-D input is treated as a single-sequence batch."""
    arr = X.data if isinstance(X, Tensor) else np.asarray(X, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"expected (batch, position, feature) input, got shape {arr.shape}")
    out = np.sqrt(batch_sum_squares(arr))
    if not np.isfinite(out).all():
        # any nan or inf in the input survives the sum of squares
        raise NumericError("batch input contains non-finite values")
    return out


def ema_update(xbar: np.ndarray, x: np.ndarray, decay: float) -> np.ndarray:
    """One decay step in place, xbar <- decay * xbar + (1 - decay) * x, with
    the products and sum of that expression; returns xbar."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != xbar.shape:
        raise ShapeError(f"observation length {x.shape} does not match EMA state {xbar.shape}")
    if (x < 0).any():
        raise ParameterError("EMA observations must be nonnegative")
    step = (1.0 - decay) * x  # before xbar is written, as x may be xbar
    xbar *= decay
    xbar += step
    return xbar


def importance(A, xbar: np.ndarray) -> np.ndarray:
    """Score matrix S_ij = |A_ij| * xbar_j; larger means keep."""
    mat = _as_matrix(A)
    xbar = np.asarray(xbar, dtype=np.float64)
    if xbar.ndim != 1 or xbar.shape[0] != mat.shape[1]:
        raise ShapeError(
            f"norm vector of length {xbar.shape} does not match matrix width {mat.shape[1]}"
        )
    return np.abs(mat) * xbar[None, :]


def build_mask(S, prune_ratio: float) -> PruneMask:
    """Mark the n lowest-scoring entries of each row, n = floor(ratio * width).

    Ties resolve toward the lower column index, so masks are deterministic
    functions of the scores alone.
    """
    scores = _as_matrix(S)
    if not 0.0 <= prune_ratio <= 1.0:
        raise ConfigError(f"prune ratio must lie in [0, 1], got {prune_ratio}")
    rows, width = scores.shape
    n = math.floor(prune_ratio * width)
    mask = np.zeros(rows * width, dtype=np.uint8)
    if n > 0:
        # Stable sort keeps equal scores in column order: lower index first.
        flat = np.argsort(scores, axis=1, kind="stable")[:, :n]
        flat += np.arange(0, rows * width, width)[:, None]  # row offsets into mask
        mask[flat] = 1
    return PruneMask._unchecked(mask.reshape(rows, width))


def apply_mask(A, mask: PruneMask) -> np.ndarray:
    """Zero the marked entries; everything else passes through unchanged."""
    mat = _as_matrix(A)
    if mask.M.shape != mat.shape:
        raise ShapeError(f"mask shape {mask.M.shape} does not match matrix {mat.shape}")
    return np.where(mask.M == 1, 0.0, mat)


def _inactive(cfg: PruneConfig) -> bool:
    return cfg.strategy == "none" or cfg.prune_ratio == 0.0


def should_prune(step: int, cfg: PruneConfig) -> bool:
    """True on every interval boundary from the first one onward."""
    if _inactive(cfg):
        return False
    return step >= 1 and step % cfg.interval_steps == 0


def tracked_norms(cfg: PruneConfig) -> str | None:
    """The norms a run under cfg tracks for its prune events: "input" (each
    adapted layer's input, for prilora_A), "latent" (the latent entering B, for
    B_rows and B_cols), or None when no event reads one."""
    if _inactive(cfg):
        return None
    return _NORM_SOURCE.get(cfg.strategy)


def norm_widths(adapters: Mapping[str, AdapterPair], cfg: PruneConfig) -> dict[str, int]:
    """{layer name: width} of the norms a run under cfg tracks (tracked_norms):
    each layer's input width d2 for input norms, its rank for latent norms;
    {} when no event reads one."""
    norms = tracked_norms(cfg)
    if norms is None:
        return {}
    return {name: pair.d2 if norms == "input" else pair.rank for name, pair in adapters.items()}


def ablation_prune(
    adapter: AdapterPair,
    xbar_for_target: np.ndarray,
    cfg: PruneConfig,
    rng: Rng | None = None,
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
        target, pm = adapter.A, PruneMask(mask)
    elif cfg.strategy in ("B_rows", "B_cols"):
        target, S = adapter.B, importance(adapter.B.data, xbar_for_target)
        if cfg.strategy == "B_rows":
            pm = build_mask(S, cfg.prune_ratio)
        else:
            pm = PruneMask(build_mask(S.T, cfg.prune_ratio).M.T)
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
    xbars: Mapping[str, np.ndarray],
    rng: Rng | None,
    step: int,
) -> list[dict]:
    """Prune every adapter once under cfg.strategy; one event record each.

    xbars holds each layer's EMA of the norms its strategy scores with (see
    tracked_norms); random_A_cols draws from rng instead. Each record also
    counts, right after its mask lands, the adapter's live A and B entries
    (nonzero) and the fewest exact zeros in any row of the pruned factor
    (min_row_zeros).
    """
    events: list[dict] = []
    for name, pair in adapters.items():
        xbar = xbars[name] if cfg.strategy in _NORM_SOURCE else None
        if cfg.strategy == "prilora_A":
            mask = build_mask(importance(pair.A.data, xbar), cfg.prune_ratio)
            pair.A.data[...] = apply_mask(pair.A.data, mask)
        else:
            mask = ablation_prune(pair, xbar, cfg, rng)
        pruned = pair.B.data if cfg.strategy in ("B_rows", "B_cols") else pair.A.data
        events.append(
            {
                "step": step,
                "layer": name,
                "strategy": cfg.strategy,
                "ratio": cfg.prune_ratio,
                "zeros_written": mask.zeros_written,
                "min_row_zeros": int((pruned == 0).sum(axis=1).min()),
                "nonzero": nonzero_param_count([pair]),
            }
        )
    return events
