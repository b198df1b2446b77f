"""Seeded synthetic sequence tasks small enough to train in seconds.

Three generators, all over integer token sequences of fixed length:

- token_majority: two marker tokens compete; the label says which occurs
  more often. The winning count always leads by at least two, so the task
  is cleanly learnable from token identity alone.
- parity_markers: the label is the parity of how many times a single marker
  token appears (zero to three occurrences).
- linear_probe: a regression target, the mean of a fixed random per-token
  weight over the sequence, standardized over the generated pool.

Sequences are deduplicated before splitting, so train and eval never share
an example, and the whole dataset is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .errors import ConfigError, ParameterError
from .numerics import Rng

__all__ = ["SyntheticTask", "TaskData", "TASK_KINDS"]

TASK_KINDS = ("token_majority", "parity_markers", "linear_probe")


@dataclass(frozen=True)
class TaskData:
    """Materialized splits; targets are class indices or regression values."""

    kind: str
    train_tokens: np.ndarray
    train_targets: np.ndarray
    eval_tokens: np.ndarray
    eval_targets: np.ndarray
    num_outputs: int
    is_regression: bool

    @property
    def train_count(self) -> int:
        return self.train_tokens.shape[0]

    @property
    def eval_count(self) -> int:
        return self.eval_tokens.shape[0]


def _power_up_to(base: int, exp: int, cap: int) -> int:
    """min(base**exp, cap) for base >= 2, without building a power longer
    than cap: base**exp >= 2**exp > cap once exp reaches cap's bit length."""
    return cap if exp >= cap.bit_length() else min(base**exp, cap)


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    vocab_size: int = 16
    seq_len: int = 16
    train_count: int = 2000
    eval_count: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}")
        if self.vocab_size < 4:
            raise ConfigError(f"vocab size must be >= 4, got {self.vocab_size}")
        if self.seq_len < 4:
            raise ConfigError(f"sequence length must be >= 4, got {self.seq_len}")
        if self.train_count < 1 or self.eval_count < 1:
            raise ConfigError("train and eval counts must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"task seed must be an unsigned 64-bit integer, got {self.seed}")
        total = self.train_count + self.eval_count
        if total > _power_up_to(self.vocab_size, self.seq_len, total):
            raise ConfigError(
                f"{self.train_count} + {self.eval_count} distinct sequences do not fit in "
                f"{self.vocab_size}**{self.seq_len} sequences of vocab size {self.vocab_size} "
                f"and length {self.seq_len}"
            )
        if self.kind == "linear_probe":
            return  # unlabelled: any sequence of the vocab may appear
        # labels alternate from 0, so label 0 takes the odd one out
        for label, need in ((0, (total + 1) // 2), (1, total // 2)):
            space = 0
            for term in self._label_space_terms(label, need):
                space += term
                if space >= need:  # stop early: the full sum can be huge
                    break
            else:
                raise ConfigError(
                    f"{self.kind} yields only {space} distinct sequences with label {label} "
                    f"at vocab size {self.vocab_size} and length {self.seq_len}; "
                    f"{self.train_count} + {self.eval_count} need {need}"
                )

    @property
    def num_outputs(self) -> int:
        """The model head's width: one regression value, or two class logits."""
        return 1 if self.kind == "linear_probe" else 2

    def _label_space_terms(self, label: int, cap: int) -> Iterator[int]:
        """The distinct sequences _sample can yield with this label, counted
        per marker count: the terms sum to the whole label space, except that
        a term of cap or more may read as any number from cap up."""
        n, v = self.seq_len, self.vocab_size
        if self.kind == "token_majority":
            for win in range(2, n // 2 + 1):
                for lose in range(win - 1):
                    fill = _power_up_to(v - 2, n - win - lose, cap)
                    yield comb(n, win) * comb(n - win, lose) * fill
        else:  # parity_markers
            for count in (label, label + 2):
                yield comb(n, count) * _power_up_to(v - 1, n - count, cap)

    def build(self) -> TaskData:
        """Generate both splits deterministically from the seed."""
        rng = Rng(self.seed).child(f"task/{self.kind}")
        # linear_probe's weight table: one draw per build, from its own stream
        weights = self._probe_weights() if self.kind == "linear_probe" else None
        total = self.train_count + self.eval_count
        tokens = np.empty((total, self.seq_len), dtype=np.int64)
        raw_targets: list[float] = []
        seen: set[bytes] = set()
        made = 0
        attempts = 0
        limit = 200 * total + 1000
        while made < total:
            attempts += 1
            if attempts > limit:
                raise ParameterError(
                    f"could not generate {total} distinct sequences; "
                    "the task space is too small for the requested counts"
                )
            row, target = self._sample(rng, made, weights)
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
            tokens[made] = row
            raw_targets.append(target)
            made += 1

        if self.kind == "linear_probe":
            targets = np.asarray(raw_targets, dtype=np.float64)
            spread = targets.std()
            if spread > 0:
                targets = (targets - targets.mean()) / spread
        else:
            targets = np.asarray(raw_targets, dtype=np.int64)

        split = self.train_count
        return TaskData(
            kind=self.kind,
            train_tokens=tokens[:split],
            train_targets=targets[:split],
            eval_tokens=tokens[split:],
            eval_targets=targets[split:],
            num_outputs=self.num_outputs,
            is_regression=self.kind == "linear_probe",
        )

    def _sample(self, rng: Rng, index: int, weights: np.ndarray | None) -> tuple[np.ndarray, float]:
        """One sequence and its target: for a classification kind, its label,
        which alternates with index; for linear_probe, the mean of its tokens'
        entries in weights, the per-token weight table."""
        n, v = self.seq_len, self.vocab_size
        if weights is not None:  # linear_probe
            row = rng.integers(0, v, size=n)
            return row, float(weights[row].mean())
        if self.kind == "token_majority":
            # Markers 0 and 1; the label alternates so both splits stay balanced.
            label = index % 2
            win = int(rng.integers(2, n // 2 + 1))
            lose = int(rng.integers(0, win - 1))
            row = rng.integers(2, v, size=n)
            slots = rng.permutation(n)
            row[slots[:win]] = label
            row[slots[win : win + lose]] = 1 - label
            return row, float(label)
        # parity_markers: marker 0 appears 0..3 times; label is the count's parity.
        label = index % 2
        count = int(rng.integers(0, 2)) * 2 + label
        row = rng.integers(1, v, size=n)
        slots = rng.permutation(n)
        row[slots[:count]] = 0
        return row, float(label)

    def _probe_weights(self) -> np.ndarray:
        return Rng(self.seed).child("probe").normal((self.vocab_size,))
