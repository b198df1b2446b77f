"""Release acceptance suite: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get a single pass or fail
line per criterion. The numbered order groups related guarantees: budget
accounting (1-2), pruning math oracles (3-4), behaviour of a full training
run (5-11), and the ablation grid (12). The slower criteria share one
500-step reference run through the module fixture; its configuration and
expected results live in golden/learning_sanity.json so the committed
numbers are visible in review.
"""

import gc
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from prilora import adapter
from prilora.cli import ABLATION_VARIANTS, main
from prilora.config import build_plan, parse_config_text
from prilora.model import ModelDims, adapter_layout
from prilora.numerics import Rng, Tensor, grad_check, softmax_cross_entropy
from prilora.prune_engine import (
    PruneConfig,
    apply_mask,
    build_mask,
    ema_update,
    importance,
)
from prilora.rank_plan import deberta_base_preset, linear_plan, uniform_plan
from prilora.tasks import SyntheticTask
from prilora.train_harness import Sgd, TrainConfig, build_model, train

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "learning_sanity.json").read_text()
)


def golden_train_config(strategy: str | None = None, eval_interval: int | None = None):
    g = GOLDEN["train"]
    p = GOLDEN["prune"]
    return TrainConfig(
        plan=linear_plan(
            GOLDEN["dims"]["num_layers"],
            GOLDEN["plan"]["first_rank"],
            GOLDEN["plan"]["last_rank"],
        ),
        prune=PruneConfig(p["ratio"], p["interval"], strategy or p["strategy"]),
        lr=g["lr"],
        batch_size=g["batch_size"],
        steps=g["steps"],
        optimizer=g["optimizer"],
        seed=GOLDEN["seed"],
        eval_interval=eval_interval or g["eval_interval"],
        schedule=g["schedule"],
        warmup_steps=g["warmup_steps"],
    )


@pytest.fixture(scope="module")
def reference_run():
    """The committed 500-step pruned run, shared by criteria 5, 7, 9, 10, 11."""
    dims = ModelDims(**GOLDEN["dims"])
    task = SyntheticTask(**GOLDEN["task"]).build()
    cfg = golden_train_config()
    model = build_model(cfg, dims)
    hash_before = model.base_hash()
    record = train(model, task, cfg)
    return SimpleNamespace(
        dims=dims,
        task=task,
        cfg=cfg,
        model=model,
        record=record,
        hash_before=hash_before,
        trainable=adapter.trainable_param_count(adapter_layout(dims, cfg.plan)),
    )


def test_criterion_01_rank_budget_parity():
    """Increasing ranks spend exactly the budget a uniform plan would."""
    preset = deberta_base_preset()
    assert preset.total == 96 == 12 * 8

    dims = ModelDims(12, 768, 12, 3072, 128, 64, 2)

    def budget(plan):
        return adapter.trainable_param_count(adapter_layout(dims, plan))

    uniform = budget(uniform_plan(12, 8))
    assert budget(linear_plan(12, 4, 12)) == uniform
    assert budget(preset) == uniform


def test_criterion_02_preset_rank_sequence():
    # the committed table, not a rounding of the 4..12 line: largest-remainder
    # rounding would give (..., 5, 6, ..., 11, 11, ...) at the same budget
    assert deberta_base_preset().ranks == (4, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 12)
    assert deberta_base_preset().total == linear_plan(12, 4, 12).total


def test_criterion_03_ema_matches_closed_form():
    """100 sequential updates agree with the direct weighted sum to 1e-12."""
    width, k, decay = 7, 100, 0.9
    rng = Rng(301)
    xs = [rng.child(f"x{t}").uniform(0.0, 3.0, size=width) for t in range(k)]

    xbar = np.zeros(width)
    for x in xs:
        xbar = ema_update(xbar, x, decay)

    # independent route: expand the recurrence and add the terms with fsum
    expect = np.array(
        [
            math.fsum((1.0 - decay) * decay ** (k - 1 - t) * xs[t][j] for t in range(k))
            for j in range(width)
        ]
    )
    assert np.max(np.abs(xbar - expect)) < 1e-12


def test_criterion_04_importance_and_mask_hand_cases():
    scores = importance(np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([2.0, 1.0]))
    assert np.array_equal(scores, [[2.0, 2.0], [1.0, 0.0]])

    mask = build_mask(np.array([[0.9, 0.1, 0.5, 0.3]]), 0.5)
    assert mask.tolist() == [[0, 1, 0, 1]]

    # the mask only depends on within-row score order, so scaling the whole
    # input average by any positive constant must not move a single zero
    rng = Rng(42)
    for i in range(100):
        A = rng.child(f"A{i}").normal((5, 9))
        xbar = rng.child(f"x{i}").uniform(0.0, 4.0, size=9)
        c = float(rng.child(f"c{i}").uniform(1e-3, 1e3))
        base = build_mask(importance(A, xbar), 0.5)
        scaled = build_mask(importance(A, c * xbar), 0.5)
        assert np.array_equal(base, scaled), f"instance {i}, factor {c}"


def test_criterion_05_sparsity_after_every_prune_event(reference_run):
    """Ratio 0.5 leaves floor(d2/2) zeros per A row at each event."""
    run = reference_run
    interval = run.cfg.prune.interval_steps
    expected_steps = list(range(interval, run.cfg.steps + 1, interval))
    # each record counts its adapter right after the mask lands, before any
    # optimizer step can overwrite the zeros
    by_step: dict[int, list[dict]] = {}
    for point in run.record.eval_points:
        for event in point.prune_events:
            by_step.setdefault(event["step"], []).append(event)
    assert list(by_step) == expected_steps
    assert len(by_step) == 12

    for step, events in by_step.items():
        assert [e["layer"] for e in events] == list(run.model.adapters)
        for e in events:
            width = run.model.adapters[e["layer"]].d2
            assert e["min_row_zeros"] >= width // 2, f"step {step}, {e['layer']}"
        # with these layer shapes half-empty A matrices cap the live share
        # of the whole adapter budget at three quarters
        assert sum(e["nonzero"] for e in events) <= 0.75 * run.trainable


def test_criterion_06_pruned_weights_regrow():
    """A zeroed coordinate with gradient flows back off zero in one step."""
    rng = Rng(606)
    pair = adapter.init_adapter(6, 8, 3, rng.child("pair"), std=0.5)
    pair.B.data[...] = rng.child("B").normal((6, 3), std=0.5)
    mask = build_mask(importance(pair.A.data, np.ones(8)), 0.5)
    pair.A.data[...] = apply_mask(pair.A.data, mask)

    layer = adapter.FrozenLinear(Tensor(rng.child("W0").normal((6, 8), std=0.3)))
    x = Tensor(rng.child("x").normal((4, 8)))
    mix = Tensor(rng.child("mix").normal((4, 6)))
    loss = (adapter.forward(layer, pair, x) * mix).sum()
    loss.backward()

    pruned = [(i, j) for i, j in np.argwhere(mask == 1)]
    live = [(i, j) for i, j in pruned if pair.A.grad[i, j] != 0.0]
    assert live, "constructed loss must reach the masked coordinates"
    assert all(pair.A.data[i, j] == 0.0 for i, j in pruned)

    Sgd({"A": pair.A, "B": pair.B}).step(0.1)
    for i, j in live:
        assert pair.A.data[i, j] != 0.0


def test_criterion_07_merge_matches_adapter_forward(reference_run):
    """Folding B @ A into the base weight reproduces the two-track forward."""
    model = reference_run.model
    worst = 0.0
    for name, pair in model.adapters.items():
        _, block_index, kind = name.split(".")
        layer = model.blocks[int(block_index)][kind]
        merged = adapter.merge(layer, pair)
        x = Tensor(Rng(700).child(name).normal((100, pair.d2)))
        split = adapter.forward(layer, pair, x).data
        folded = adapter.forward(merged, None, x).data
        worst = max(worst, float(np.max(np.abs(split - folded))))
    assert worst < 1e-12


def test_criterion_08_adapter_gradients_match_finite_differences():
    """Backprop through the full two-layer model, checked coordinate by
    coordinate against central differences on every adapter parameter."""
    dims = ModelDims(2, 32, 2, 64, 16, 8, 2)
    cfg = TrainConfig(plan=linear_plan(2, 2, 6), prune=PruneConfig(0.5, 40, "prilora_A"), seed=23)
    model = build_model(cfg, dims)

    # fresh adapters have B = 0 and a zero head, which would make most of
    # the gradients trivially zero; perturb them so every path carries signal
    rng = Rng(404)
    model.head_w.data[...] = rng.child("hw").normal(model.head_w.shape, std=0.2)
    model.head_b.data[...] = rng.child("hb").normal(model.head_b.shape, std=0.1)
    for name, pair in model.adapters.items():
        pair.B.data[...] = rng.child(f"B/{name}").normal(pair.B.shape, std=0.1)

    tokens = rng.child("tok").integers(0, 16, size=(4, 8))
    labels = np.array([0, 1, 0, 1])
    params = []
    for pair in model.adapters.values():
        params.extend([pair.A, pair.B])
    assert sum(p.data.size for p in params) == 3584

    def loss():
        logits = model.forward(tokens)
        return softmax_cross_entropy(logits, labels)

    assert grad_check(loss, params, eps=1e-4) < 1e-5


def test_criterion_09_frozen_base_unchanged(reference_run):
    assert reference_run.model.base_hash() == reference_run.hash_before
    # pinned so that silent base-initialization drift also fails here
    assert reference_run.hash_before == GOLDEN["expected"]["base_hash"]


def test_criterion_10_learning_sanity_golden_seed(reference_run):
    """The committed seed cuts eval loss by at least 80% inside 500 steps."""
    record = reference_run.record
    expected = GOLDEN["expected"]
    reduction = (record.init_loss - record.final_loss) / record.init_loss
    assert reduction >= 0.80
    assert math.isclose(record.init_loss, expected["init_loss"], rel_tol=1e-9)
    assert math.isclose(record.final_loss, expected["final_loss"], rel_tol=1e-9)
    assert math.isclose(reduction, expected["loss_reduction"], rel_tol=1e-9)
    assert record.final_accuracy == expected["final_accuracy"]


def test_golden_final_loss_is_bitwise(reference_run):
    """Refactors of the tape keep every bit of the committed final loss."""
    assert reference_run.record.final_loss == GOLDEN["expected"]["final_loss"]


@pytest.mark.timing
def test_criterion_11_pruning_overhead_parity(reference_run):
    """Pruning every 40 steps stays within 5% of the no-pruning wall clock."""
    task = reference_run.task
    dims = reference_run.dims

    def seconds_per_step(strategy: str) -> float:
        cfg = golden_train_config(strategy=strategy, eval_interval=GOLDEN["train"]["steps"])
        model = build_model(cfg, dims)
        return train(model, task, cfg).seconds_per_step

    # single runs jitter by several percent here, far more than the effect
    # under test, so compare each arm's fastest run out of four, interleaved
    # in mirrored order and with the collector quiet during the timed part
    seconds_per_step("prilora_A")
    seconds_per_step("none")
    times: dict[str, list[float]] = {"prilora_A": [], "none": []}
    gc.collect()
    gc.disable()
    try:
        for strategy in ("prilora_A", "none", "none", "prilora_A",
                         "none", "prilora_A", "prilora_A", "none"):
            times[strategy].append(seconds_per_step(strategy))
    finally:
        gc.enable()
    ratio = min(times["prilora_A"]) / min(times["none"])
    assert ratio <= 1.05, f"per-step ratio {ratio:.4f} from {times}"


GRID_CFG = """\
config_version = 1
name = grid
task.vocab_size = 8
task.seq_len = 8
task.train_count = 120
task.eval_count = 32
model.layers = 2
model.d_model = 16
model.heads = 2
model.d_ff = 32
plan.first_rank = 2
plan.last_rank = 4
prune.interval = 4
train.steps = 12
train.eval_interval = 6
train.warmup_steps = 0
train.batch_size = 8
"""

# variant name -> (plan.kind, prune.strategy, resolved per-layer ranks)
GRID_EXPECTED = {
    "full": ("linear", "prilora_A", (2, 4)),
    "fixed": ("uniform", "prilora_A", (3, 3)),
    "inverted": ("inverted", "prilora_A", (4, 2)),
    "concentrated": ("concentrated", "prilora_A", (0, 9)),
    "no_pruning": ("linear", "none", (2, 4)),
    "prune_B_rows": ("linear", "B_rows", (2, 4)),
    "prune_B_cols": ("linear", "B_cols", (2, 4)),
    "random_A_cols": ("linear", "random_A_cols", (2, 4)),
}


def test_criterion_12_ablation_grid_structure(tmp_path):
    """One ablate call emits exactly the eight variants, each configured right."""
    assert ABLATION_VARIANTS == tuple(GRID_EXPECTED)

    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(GRID_CFG, encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0

    grid_dir = out / "grid" / "ablate"
    rows = (grid_dir / "ablate.tsv").read_text().splitlines()
    assert len(rows) == 1 + len(ABLATION_VARIANTS)

    for variant, (kind, strategy, ranks) in GRID_EXPECTED.items():
        resolved = parse_config_text((grid_dir / variant / "config.resolved").read_text())
        assert resolved["plan.kind"] == kind, variant
        assert resolved["prune.strategy"] == strategy, variant
        assert build_plan(resolved).ranks == ranks, variant
        run = json.loads((grid_dir / variant / "run.json").read_text())
        assert run["status"] == "complete", variant
