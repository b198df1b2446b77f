"""Low-rank adapter pairs over frozen weight matrices.

Each adapted matrix W0 (d1 x d2) gets a pair of small trainable factors:
A (r x d2), drawn from a Gaussian, and B (d1 x r), initialized to zero, so
the adapted forward pass starts out exactly equal to the frozen one. One
tape node, ``numerics.adapted_linear``, folds the pair into the merged
weight W0 + scale * B @ A and applies that in one product; ``merge`` forms
the same weight for inference, so on 2-D input the two agree bit for bit.
Only A and B carry gradients: the node yields dx, dA and dB and never one
for the frozen weight, which never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import numerics
from .errors import ParameterError, RankError, ShapeError
from .numerics import Rng, Tensor

__all__ = [
    "FrozenLinear",
    "AdapterPair",
    "init_adapter",
    "forward",
    "merge",
    "trainable_param_count",
    "nonzero_param_count",
]


@dataclass
class FrozenLinear:
    """A dense weight that training must never touch."""

    W0: Tensor

    def __post_init__(self) -> None:
        if self.W0.ndim != 2:
            raise ShapeError(f"frozen weight must be 2-D, got shape {self.W0.shape}")
        self.W0.requires_grad = False

    @property
    def out_features(self) -> int:
        return self.W0.shape[0]

    @property
    def in_features(self) -> int:
        return self.W0.shape[1]


@dataclass
class AdapterPair:
    """The trainable low-rank factors attached to one frozen matrix.

    A has shape (rank, d2) and B has shape (d1, rank); the effective weight
    delta is scale * B @ A. frozen_ref names the matrix this pair augments,
    for checkpointing and reporting.
    """

    A: Tensor
    B: Tensor
    rank: int
    scale: float
    frozen_ref: str

    def __post_init__(self) -> None:
        if self.A.ndim != 2 or self.B.ndim != 2:
            raise ShapeError(
                f"adapter factors must be 2-D, got A {self.A.shape}, B {self.B.shape}"
            )
        r_a, d2 = self.A.shape
        d1, r_b = self.B.shape
        if r_a != self.rank or r_b != self.rank:
            raise RankError(
                f"declared rank {self.rank} does not match factor shapes "
                f"A {self.A.shape}, B {self.B.shape}"
            )
        if self.rank > min(d1, d2):
            raise RankError(f"rank {self.rank} exceeds min({d1}, {d2})")
        self.A.requires_grad = True
        self.B.requires_grad = True

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
    A = numerics.gaussian(rng, (r, d2), mean=0.0, std=std)
    B = Tensor(np.zeros((d1, r)))
    return AdapterPair(A=A, B=B, rank=r, scale=float(scale), frozen_ref=frozen_ref)


def forward(layer: FrozenLinear, adapter: AdapterPair | None, x: Tensor) -> Tensor:
    """Adapted linear map: x @ (W0 + scale * B @ A)^T.

    x carries features on the trailing axis (width d2); output width is d1.
    Passing adapter=None gives the frozen layer alone.
    """
    if x.shape[-1] != layer.in_features:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match layer width {layer.in_features}"
        )
    if adapter is None:
        return numerics.matmul(x, layer.W0.transpose())
    if adapter.d2 != layer.in_features or adapter.d1 != layer.out_features:
        raise ShapeError(
            f"adapter ({adapter.d1}, {adapter.d2}) does not fit layer "
            f"({layer.out_features}, {layer.in_features})"
        )
    return numerics.adapted_linear(x, layer.W0, adapter.A, adapter.B, adapter.scale)


def merge(layer: FrozenLinear, adapter: AdapterPair) -> FrozenLinear:
    """Fold the pair into a single dense weight: W0 + scale * B @ A."""
    if adapter.d2 != layer.in_features or adapter.d1 != layer.out_features:
        raise ShapeError(
            f"adapter ({adapter.d1}, {adapter.d2}) does not fit layer "
            f"({layer.out_features}, {layer.in_features})"
        )
    return FrozenLinear(
        W0=Tensor(numerics.merged_weight(layer.W0, adapter.A, adapter.B, adapter.scale))
    )


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
