"""Low-rank adapter pairs over frozen weight matrices.

Each adapted matrix W0 (d1 x d2), a plain frozen Tensor, gets a pair of
small trainable factors: A (r x d2), drawn from a Gaussian, and B (d1 x r),
initialized to zero, so the adapted forward pass starts out exactly equal to
the frozen one; the rank r is read from their shapes. One tape node,
``numerics.adapted_linear``, folds the pair into the merged weight
W0 + scale * B @ A and applies that in one product; ``merge`` forms the same
weight for inference, so on 2-D input the two agree bit for bit. Only A and
B carry gradients: the node yields dx, dA and dB and never one for the
frozen weight, which never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import numerics
from .errors import ParameterError, RankError, ShapeError
from .numerics import Rng, Tensor

__all__ = [
    "AdapterPair",
    "init_adapter",
    "forward",
    "merge",
    "trainable_param_count",
    "nonzero_param_count",
]


@dataclass
class AdapterPair:
    """The trainable low-rank factors attached to one frozen matrix.

    A has shape (rank, d2) and B has shape (d1, rank); the effective weight
    delta is scale * B @ A. frozen_ref names the matrix this pair augments,
    for checkpointing and reporting.
    """

    A: Tensor
    B: Tensor
    scale: float
    frozen_ref: str

    def __post_init__(self) -> None:
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ShapeError(
                f"adapter factors must be 2-D, got A {self.A.shape}, B {self.B.shape}"
            )
        if self.B.shape[1] != self.rank:
            raise RankError(f"factor ranks differ: A {self.A.shape}, B {self.B.shape}")
        if self.rank > min(self.d1, self.d2):
            raise RankError(f"rank {self.rank} exceeds min({self.d1}, {self.d2})")
        self.A.requires_grad = True
        self.B.requires_grad = True

    @property
    def rank(self) -> int:
        return self.A.shape[0]

    @property
    def d1(self) -> int:
        return self.B.shape[0]

    @property
    def d2(self) -> int:
        return self.A.shape[1]


def init_adapter(
    d1: int,
    d2: int,
    r: int,
    rng: Rng,
    std: float = 0.02,
    scale: float = 1.0,
    frozen_ref: str = "",
) -> AdapterPair:
    """Fresh pair: A ~ N(0, std^2), B = 0, so the initial delta is zero."""
    if r < 1:
        raise RankError(f"adapter rank must be >= 1, got {r}")
    if std <= 0:
        raise ParameterError(f"init std must be positive, got {std}")
    A = Tensor(rng.normal((r, d2), std=std))
    B = Tensor(np.zeros((d1, r)))
    return AdapterPair(A=A, B=B, scale=float(scale), frozen_ref=frozen_ref)


def _check_fit(W0: Tensor, adapter: AdapterPair | None) -> None:
    if W0.ndim != 2:
        raise ShapeError(f"frozen weight must be 2-D, got shape {W0.shape}")
    if adapter is not None and (adapter.d1, adapter.d2) != W0.shape:
        raise ShapeError(f"adapter ({adapter.d1}, {adapter.d2}) does not fit layer {W0.shape}")


def forward(W0: Tensor, adapter: AdapterPair | None, x: Tensor) -> Tensor:
    """Adapted linear map: x @ (W0 + scale * B @ A)^T.

    W0 is the frozen (d1, d2) weight; x carries features on the trailing
    axis (width d2); output width is d1. Passing adapter=None gives the
    frozen layer alone.
    """
    _check_fit(W0, adapter)
    if adapter is None:
        return numerics.matmul(x, W0.transpose())
    return numerics.adapted_linear(x, W0, adapter.A, adapter.B, adapter.scale)


def merge(W0: Tensor, adapter: AdapterPair) -> Tensor:
    """Fold the pair into a single frozen dense weight: W0 + scale * B @ A."""
    _check_fit(W0, adapter)
    return Tensor(numerics.merged_weight(W0, adapter.A, adapter.B, adapter.scale))


def trainable_param_count(layout: Mapping[str, tuple[int, int, int]]) -> int:
    """Total adapter parameters of a model.adapter_layout: the sum of
    r * (d1 + d2) over its pairs. Pruned-to-zero entries still count; the
    budget is about allocated capacity, not momentary sparsity."""
    return sum(r * (d1 + d2) for d1, d2, r in layout.values())


def nonzero_param_count(adapters: Iterable[AdapterPair]) -> int:
    """Entries of A and B that are not exactly zero, summed over all pairs."""
    total = 0
    for pair in adapters:
        total += int(np.count_nonzero(pair.A.data))
        total += int(np.count_nonzero(pair.B.data))
    return total
