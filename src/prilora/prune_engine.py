"""Importance-driven pruning of adapter weights on a fixed step cadence.

Each adapted layer tracks an exponential moving average of its input's
per-feature L2 norms: a plain nonnegative vector, kept by the caller in one
``{layer name: vector}`` dict and stepped by ``ema_update`` with the run's
decay (``TrainConfig.ema_decay``, its one home). The model's forward sums the
squares (``numerics.batch_sum_squares``, or layer norm's own);
``batch_input_norm`` is the checked square root of one. At every prune event
the engine scores each entry of the A factor as |A_ij| times the tracked norm
of column j, then zeroes the lowest-scoring n entries of every row, where n
is set by the prune ratio. Zeroed entries stay trainable: gradients and
optimizer state are untouched, so a weight that matters later can grow back.
A mask is a plain uint8 array of the pruned factor's shape, 1 = pruned.

The ablation strategies (random column choice, pruning B by rows or by
columns) each change one part of that rule, so each strategy is one row of
one table, ``_TARGETS``, and every strategy decision reads it:
``tracked_norms`` names the norms a run must track, ``norm_widths`` their
width in each layer, and ``ablation_prune``, the one pruning path, prunes an
adapter under any strategy; ``prune_event`` calls it for every adapter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import numerics
from .adapter import AdapterPair, nonzero_param_count
from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .numerics import Rng, Tensor

__all__ = [
    "PruneConfig",
    "STRATEGIES",
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

# {strategy: (the factor it prunes, the norms it scores with or None for a
# random choice, whether it prunes per column)}; "none" prunes nothing
_TARGETS = {
    "prilora_A": ("A", "input", False),
    "random_A_cols": ("A", None, False),
    "B_rows": ("B", "latent", False),
    "B_cols": ("B", "latent", True),
}
STRATEGIES = (*_TARGETS, "none")


def _as_matrix(value) -> np.ndarray:
    arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    return arr


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
    if arr.ndim not in (2, 3):
        raise ShapeError(f"expected (batch, position, feature) input, got shape {arr.shape}")
    out = np.sqrt(numerics.batch_sum_squares(arr))
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


def build_mask(S, prune_ratio: float) -> np.ndarray:
    """Mark the n lowest-scoring entries of each row, n = floor(ratio * width),
    in a uint8 array of S's shape: 1 = pruned.

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
    return mask.reshape(rows, width)


def apply_mask(A, mask: np.ndarray) -> np.ndarray:
    """Zero the entries the mask marks 1; everything else passes through unchanged."""
    mat = _as_matrix(A)
    if mask.shape != mat.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match matrix {mat.shape}")
    return np.where(mask == 1, 0.0, mat)


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
    return _TARGETS[cfg.strategy][1]


def norm_widths(adapters: Mapping[str, AdapterPair], cfg: PruneConfig) -> dict[str, int]:
    """{layer name: width} of the norms a run under cfg tracks (tracked_norms),
    {} when no event reads one. An entry F_ij scores |F_ij| * xbar_j, so the
    width is the pruned factor's column count: d2 for A, the rank for B."""
    if tracked_norms(cfg) is None:
        return {}
    factor = _TARGETS[cfg.strategy][0]
    return {name: getattr(pair, factor).data.shape[1] for name, pair in adapters.items()}


def ablation_prune(
    adapter: AdapterPair,
    xbar_for_target: np.ndarray | None,
    cfg: PruneConfig,
    rng: Rng | None = None,
) -> np.ndarray:
    """Prune one adapter in place under cfg.strategy; "none" has no _TARGETS
    row and raises ConfigError. This is the one pruning path, and perfbench's
    tracer wraps it by this name. A strategy scores its factor with its
    tracked norms (the layer input's for A, the latent's for B) and zeroes
    the lowest scores per row, or per column for B_cols; random_A_cols
    zeroes uniformly chosen columns per A row, drawn from rng. Returns the
    mask of exactly what was zeroed.
    """
    if cfg.strategy not in _TARGETS:
        raise ConfigError(
            f"strategy {cfg.strategy!r} prunes nothing; expected one of {tuple(_TARGETS)}"
        )
    factor, norms, per_column = _TARGETS[cfg.strategy]
    target = getattr(adapter, factor).data
    if norms is None:
        if rng is None:
            raise ParameterError("random_A_cols pruning needs a random stream")
        rows, width = target.shape
        n = math.floor(cfg.prune_ratio * width)
        mask = np.zeros(target.shape, dtype=np.uint8)
        for i in range(rows):
            mask[i, rng.permutation(width)[:n]] = 1
    elif per_column:
        mask = build_mask(importance(target, xbar_for_target).T, cfg.prune_ratio).T
    else:
        mask = build_mask(importance(target, xbar_for_target), cfg.prune_ratio)
    target[...] = apply_mask(target, mask)
    return mask


def prune_event(
    adapters: Mapping[str, AdapterPair],
    cfg: PruneConfig,
    xbars: Mapping[str, np.ndarray],
    rng: Rng | None,
    step: int,
) -> list[dict]:
    """Prune every adapter once under cfg.strategy; one event record each.

    xbars holds each layer's EMA of the norms its strategy scores with (see
    tracked_norms); random_A_cols draws from rng instead. Each record counts
    the entries its mask zeroed (zeros_written) and, right after the mask
    lands, the adapter's live A and B entries (nonzero) and the fewest exact
    zeros in any row of the pruned factor (min_row_zeros).
    """
    events: list[dict] = []
    for name, pair in adapters.items():
        mask = ablation_prune(pair, xbars.get(name), cfg, rng)
        pruned = getattr(pair, _TARGETS[cfg.strategy][0]).data
        events.append(
            {
                "step": step,
                "layer": name,
                "strategy": cfg.strategy,
                "ratio": cfg.prune_ratio,
                "zeros_written": int(mask.sum()),
                "min_row_zeros": int((pruned == 0).sum(axis=1).min()),
                "nonzero": nonzero_param_count([pair]),
            }
        )
    return events
