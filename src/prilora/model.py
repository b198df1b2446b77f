"""A small frozen transformer encoder classifier with low-rank adapters.

The base network (embeddings, positions, and per-block attention and FFN
matrices) is initialized once from a seed and never trained; each block maps
a matrix kind to its frozen weight, a plain Tensor. Each block's
matrices of the adapted kinds receive an adapter pair at the rank the plan
assigns to that block; a plan rank of zero leaves the block unadapted, and
``adapter_layout`` is the one place that decides this. The only other
trainable parameters are the zero-initialized classifier head, so an
untrained model always predicts uniform logits.

Blocks are pre-norm: x + Attn(LN(x)), then x + FFN(LN(x)). Attn projects
LN(x) through wq, wk and wv, runs the multi-head attention core as one tape
node (``numerics.attention``: head split, scaled q·kᵀ, softmax, ·v, head
merge) and projects the merged heads through wo. Sequence output is
mean-pooled, normalized, and mapped to logits by the head, all in one tape
node (``numerics.pooled_head``). When a run tracks input norms, the layer
norms that feed wq/wk/wv and w1 hand over their output's sum of squares,
taken from the squares their variance formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import numerics, prune_engine
from .adapter import AdapterPair, forward as adapter_forward, init_adapter
from .errors import ConfigError, ParameterError, RankError, ShapeError
from .numerics import Rng, Tensor
from .rank_plan import RankPlan

__all__ = ["ModelDims", "ToyModel", "MATRIX_KINDS", "matrix_shape", "adapter_layout"]

# The adapted matrices inside one block, in forward-pass order.
MATRIX_KINDS = ("wq", "wk", "wv", "wo", "w1", "w2")


@dataclass(frozen=True)
class ModelDims:
    num_layers: int = 2
    d_model: int = 32
    num_heads: int = 2
    d_ff: int = 64
    vocab_size: int = 16
    seq_len: int = 16
    num_outputs: int = 2

    def __post_init__(self) -> None:
        for field in ("num_layers", "d_model", "num_heads", "d_ff", "vocab_size", "seq_len", "num_outputs"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive, got {getattr(self, field)}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by num_heads {self.num_heads}"
            )


def matrix_shape(kind: str, dims: ModelDims) -> tuple[int, int]:
    """(output width, input width) of one block matrix."""
    if kind in ("wq", "wk", "wv", "wo"):
        return (dims.d_model, dims.d_model)
    if kind == "w1":
        return (dims.d_ff, dims.d_model)
    if kind == "w2":
        return (dims.d_model, dims.d_ff)
    raise ConfigError(f"unknown matrix kind {kind!r}; choose from {MATRIX_KINDS}")


def adapter_layout(
    dims: ModelDims, plan: RankPlan, kinds=MATRIX_KINDS
) -> dict[str, tuple[int, int, int]]:
    """{name: (d1, d2, rank)} of every matrix that carries an adapter pair,
    layer by layer and in kinds' order within a layer; a layer of plan rank
    0 carries none. Building, validating and budget accounting all read it."""
    if plan.num_layers != dims.num_layers:
        raise ConfigError(
            f"plan covers {plan.num_layers} layers but the model has {dims.num_layers}"
        )
    shapes = {kind: matrix_shape(kind, dims) for kind in kinds}
    layout: dict[str, tuple[int, int, int]] = {}
    for i, r in enumerate(plan.ranks):
        for kind, (d1, d2) in shapes.items():
            if r > min(d1, d2):
                raise RankError(f"layer {i} rank {r} exceeds min({d1}, {d2}) for {kind}")
            if r > 0:
                layout[f"blocks.{i}.{kind}"] = (d1, d2, r)
    return layout


@dataclass(eq=False)
class ToyModel:
    dims: ModelDims
    plan: RankPlan
    embed: np.ndarray
    pos: np.ndarray
    blocks: list[dict[str, Tensor]]
    adapters: dict[str, AdapterPair]
    head_w: Tensor
    head_b: Tensor

    @classmethod
    def build(
        cls,
        dims: ModelDims,
        plan: RankPlan,
        rng: Rng,
        adapter_std: float = 0.02,
        adapter_scale: float = 1.0,
        adapt_kinds=MATRIX_KINDS,
    ) -> "ToyModel":
        """Seed the frozen base, attach adapters where adapter_layout says to."""
        layout = adapter_layout(dims, plan, adapt_kinds)
        embed = rng.child("base/embed").normal((dims.vocab_size, dims.d_model))
        pos = rng.child("base/pos").normal((dims.seq_len, dims.d_model))
        blocks: list[dict[str, Tensor]] = []
        for i in range(dims.num_layers):
            block: dict[str, Tensor] = {}
            for kind in MATRIX_KINDS:
                d1, d2 = matrix_shape(kind, dims)
                w = rng.child(f"base/block{i}/{kind}").normal((d1, d2), std=d2**-0.5)
                block[kind] = Tensor(w)  # frozen: requires_grad stays False
            blocks.append(block)
        adapters = {
            name: init_adapter(
                d1,
                d2,
                r,
                rng.child(f"adapter/{name}"),
                std=adapter_std,
                scale=adapter_scale,
                frozen_ref=name,
            )
            for name, (d1, d2, r) in layout.items()
        }
        head_w = Tensor(np.zeros((dims.num_outputs, dims.d_model)), requires_grad=True)
        head_b = Tensor(np.zeros(dims.num_outputs), requires_grad=True)
        return cls(dims, plan, embed, pos, blocks, adapters, head_w, head_b)

    def _apply(
        self,
        i: int,
        kinds: tuple[str, ...],
        x: Tensor,
        norms: str | None,
        sumsq: Mapping[str, np.ndarray] | None,
        normalize: bool = False,
    ) -> list[Tensor]:
        """Block i's matrices of the given kinds, each applied to x, the input
        they share, layer-normed first when normalize says so; each adapted
        one's sum of squares of the given source goes to its sumsq vector."""
        names = [f"blocks.{i}.{kind}" for kind in kinds]
        adapted = [name for name in names if name in self.adapters]
        sums = [sumsq[name] for name in adapted] if norms == "input" else []
        if normalize:
            x = numerics.layernorm(x, sumsq=sums[0] if sums else None)
        elif sums:
            prune_engine.batch_sum_squares(x.data, out=sums[0])
        for out in sums[1:]:
            out[...] = sums[0]  # wq, wk and wv read one activation: one sum, shared
        if norms == "latent":
            x2 = x.data.reshape(-1, x.shape[-1])
            for name in adapted:
                # the latent entering B; recomputed outside the gradient tape
                prune_engine.batch_sum_squares(x2 @ self.adapters[name].A.data.T, out=sumsq[name])
        block = self.blocks[i]
        return [
            adapter_forward(block[kind], self.adapters.get(name), x)
            for kind, name in zip(kinds, names)
        ]

    def forward(
        self,
        tokens: np.ndarray,
        norms: str | None = None,
        sumsq: Mapping[str, np.ndarray] | None = None,
    ) -> Tensor:
        """Logits for a token batch. For the source norms names as
        prune_engine.tracked_norms does (None: none), each adapted matrix's
        per-feature sum of squares of that source over batch and position, the
        square of its batch_input_norm, overwrites its vector in sumsq, which
        holds one per layer prune_engine.norm_widths names."""
        tokens = np.asarray(tokens)
        if tokens.size == 0:
            raise ShapeError(f"token batch is empty, got shape {tokens.shape}")
        if tokens.dtype.kind not in "iu":
            raise ParameterError(f"token ids must be integers, got dtype {tokens.dtype}")
        tokens = tokens.astype(np.int64, copy=False)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (batch, position), got shape {tokens.shape}")
        n = tokens.shape[1]
        if n > self.dims.seq_len:
            raise ShapeError(f"sequence length {n} exceeds model maximum {self.dims.seq_len}")
        if tokens.min() < 0 or tokens.max() >= self.dims.vocab_size:
            raise ParameterError(f"token ids must lie in [0, {self.dims.vocab_size})")

        # No name outlives its consumer, so without a tape each activation is
        # freed once used; under one, the closures save what backward reads.
        x = Tensor(self.embed[tokens] + self.pos[:n])
        for i in range(len(self.blocks)):
            x = x + self._attention(i, x, norms, sumsq)
            x = x + self._feed_forward(i, x, norms, sumsq)
        return numerics.pooled_head(x, self.head_w, self.head_b)

    def _attention(
        self, i: int, x: Tensor, norms: str | None, sumsq: Mapping[str, np.ndarray] | None
    ) -> Tensor:
        """Block i's attention branch: wo over the heads of wq, wk and wv of LN(x)."""
        ctx = numerics.attention(
            *self._apply(i, ("wq", "wk", "wv"), x, norms, sumsq, normalize=True),
            self.dims.num_heads,
        )
        return self._apply(i, ("wo",), ctx, norms, sumsq)[0]

    def _feed_forward(
        self, i: int, x: Tensor, norms: str | None, sumsq: Mapping[str, np.ndarray] | None
    ) -> Tensor:
        """Block i's feed-forward branch: w2 over the ReLU of w1 of LN(x)."""
        hidden = numerics.relu(self._apply(i, ("w1",), x, norms, sumsq, normalize=True)[0])
        return self._apply(i, ("w2",), hidden, norms, sumsq)[0]

    def trainable(self) -> dict[str, Tensor]:
        """Every tensor the optimizer may touch, in a stable order."""
        out: dict[str, Tensor] = {}
        for name, pair in self.adapters.items():
            out[f"{name}.A"] = pair.A
            out[f"{name}.B"] = pair.B
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def base_arrays(self) -> list[np.ndarray]:
        arrays = [self.embed, self.pos]
        for block in self.blocks:
            for kind in MATRIX_KINDS:
                arrays.append(block[kind].data)
        return arrays

    def base_hash(self) -> str:
        """Digest of every frozen array; training must never change it."""
        return numerics.fingerprint(self.base_arrays())
