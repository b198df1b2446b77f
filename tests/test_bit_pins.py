"""Bit pins for every training path, not only the golden's.

Each row of ``ROWS`` is one path through training (prune strategy, task kind,
optimizer, rank plan, adapted kinds, schedule, EMA start, resume), run for 40
steps at ablation-grid size: 2 layers, d_model 16, seq 8. The ``wide`` row is
the benchmark's ``wide`` shape instead: 4 layers, d_model 128, seq 32, batch
32, 8 steps, pruning off. A row pins
``repr`` of the final eval loss and a ``numerics.fingerprint`` of the trained
parameters, the EMA and the optimizer slots. Those arrays are read back from
the final checkpoint by ``restore_state`` into a fresh model, so a change of
checkpoint header or format moves no pin. Like the golden, the pins assume
this numpy and its BLAS.

``tests/golden/bit_pins.json`` holds the table. Nothing writes it: run this
file as a script (``PYTHONPATH=src python tests/test_bit_pins.py``) to print
the current table as JSON, and a change that moves a row carries the new
table as a reviewed diff.
"""

import json
import sys
from pathlib import Path

import numpy as np

from prilora import numerics
from prilora.checkpoint import restore_state
from prilora.config import DEFAULTS, build_dims, build_plan, build_task, build_train_config
from prilora.numerics import Rng
from prilora.prune_engine import norm_widths
from prilora.train_harness import build_model, make_optimizer, train

GOLDEN = Path(__file__).parent / "golden" / "bit_pins.json"
SEED = 17
RESUME_AT = 25

BASE = {
    **DEFAULTS,
    "task.vocab_size": 8,
    "task.seq_len": 8,
    "task.train_count": 160,
    "task.eval_count": 48,
    "model.layers": 2,
    "model.d_model": 16,
    "model.heads": 2,
    "model.d_ff": 32,
    "plan.first_rank": 2,
    "plan.last_rank": 4,
    "prune.interval": 10,
    "train.steps": 40,
    "train.eval_interval": 20,
    "train.batch_size": 8,
}

# {row: config keys it sets over BASE}; "resume" reruns "prilora_A" from
# its step-25 checkpoint, so the two rows must pin the same bits, and "wide"
# is perfbench's wide workload at full scale
ROWS = {
    "prilora_A": {"task.kind": "token_majority", "prune.strategy": "prilora_A"},
    "random_A_cols": {"task.kind": "parity_markers", "prune.strategy": "random_A_cols"},
    "B_rows": {"task.kind": "linear_probe", "prune.strategy": "B_rows"},
    "B_cols_sgd": {"prune.strategy": "B_cols", "train.optimizer": "sgd", "train.lr": 0.05},
    "rank_0_layer": {"plan.kind": "explicit", "plan.ranks": "0,4"},
    "adapt_wq_w2": {"adapter.kinds": "wq,w2", "train.schedule": "constant"},
    "ema_first_batch": {"train.ema_init_first_batch": True, "train.warmup_steps": 10},
    "none": {"task.kind": "linear_probe", "prune.strategy": "none"},
    "resume": {"task.kind": "token_majority", "prune.strategy": "prilora_A"},
    "wide": {
        "task.kind": "token_majority", "task.vocab_size": 32, "task.seq_len": 32,
        "task.train_count": 512, "task.eval_count": 128, "model.layers": 4,
        "model.d_model": 128, "model.heads": 4, "model.d_ff": 256, "plan.first_rank": 4,
        "plan.last_rank": 16, "prune.strategy": "none", "train.steps": 8,
        "train.batch_size": 32, "train.eval_interval": 4,
    },
}


def _read_back(blob: bytes, task, tcfg, dims) -> str:
    """Fingerprint of the parameters, EMA and optimizer slots that blob
    restores into a fresh model."""
    model = build_model(tcfg, dims)
    params = model.trainable()
    optimizer = make_optimizer(tcfg.optimizer, params)
    xbars = {name: np.zeros(w) for name, w in norm_widths(model.adapters, tcfg.prune).items()}
    rngs = {"data": Rng(0), "prune": Rng(0)}
    digest = numerics.fingerprint(
        [task.train_tokens, task.train_targets, task.eval_tokens, task.eval_targets]
    )
    restore_state(blob, model, optimizer, xbars, tcfg, rngs, digest)
    arrays = [t.data for t in params.values()]
    arrays += [xbars[name] for name in sorted(xbars)]
    arrays += [views[p] for views in optimizer.slots.values() for p in params]
    return numerics.fingerprint(arrays)


def pin(row: str) -> dict:
    """{"final_loss": repr, "fingerprint": hex} of one row's run."""
    cfg = {**BASE, **ROWS[row]}
    spec = build_task(cfg, SEED)
    task, dims = spec.build(), build_dims(cfg, spec)
    tcfg = build_train_config(cfg, build_plan(cfg), SEED)
    if row == "resume":
        first = train(build_model(tcfg, dims), task, tcfg, checkpoint_at=RESUME_AT)
        record = train(build_model(tcfg, dims), task, tcfg, resume_from=first.mid_checkpoint)
        assert record.start_step == RESUME_AT
    else:
        record = train(build_model(tcfg, dims), task, tcfg)
    return {
        "final_loss": repr(record.final_loss),
        "fingerprint": _read_back(record.final_checkpoint, task, tcfg, dims),
    }


def table() -> dict:
    return {row: pin(row) for row in ROWS}


def test_every_path_keeps_its_pinned_bits():
    got = table()
    assert got["resume"] == got["prilora_A"]
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=2)
    sys.stdout.write("\n")
