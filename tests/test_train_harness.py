"""Training loop behavior: determinism, freezing, pruning cadence, resume."""

import dataclasses
import math

import numpy as np
import pytest

from prilora.errors import ConfigError, ParameterError, TrainingDiverged
from prilora.model import MATRIX_KINDS, ModelDims, ToyModel
from prilora.numerics import Rng, Tensor
from prilora.prune_engine import PruneConfig
from prilora.rank_plan import concentrated_plan, linear_plan, uniform_plan
from prilora.tasks import SyntheticTask, TaskData
from prilora.train_harness import (
    Adam,
    EvalPoint,
    RunRecord,
    Sgd,
    TrainConfig,
    build_model,
    evaluate,
    lr_at,
    make_optimizer,
    steps_to_peak,
    train,
)

DIMS = ModelDims(num_layers=2, d_model=16, num_heads=2, d_ff=32,
                 vocab_size=8, seq_len=8, num_outputs=2)


def small_cfg(**kw):
    base = dict(
        plan=linear_plan(2, 2, 4),
        prune=PruneConfig(0.5, 5, "prilora_A"),
        lr=5e-3,
        batch_size=8,
        steps=20,
        optimizer="adam",
        seed=11,
        eval_interval=10,
        schedule="constant",
        warmup_steps=0,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def task():
    return SyntheticTask("token_majority", vocab_size=8, seq_len=8,
                         train_count=200, eval_count=64, seed=5).build()


# -- model assembly ----------------------------------------------------------


def test_uniform_plan_attaches_adapter_to_every_matrix():
    cfg = small_cfg(plan=uniform_plan(2, 8))
    model = build_model(cfg, DIMS)
    assert len(model.adapters) == 12
    for i in range(2):
        for kind in MATRIX_KINDS:
            pair = model.adapters[f"blocks.{i}.{kind}"]
            assert pair.rank == 8
    # rank plan rows map onto blocks by index
    assert model.adapters["blocks.0.w1"].A.shape == (8, 16)
    assert model.adapters["blocks.0.w1"].B.shape == (32, 8)


def test_concentrated_plan_skips_rank_zero_blocks():
    cfg = small_cfg(plan=concentrated_plan(2, 12))
    model = build_model(cfg, DIMS)
    assert set(model.adapters) == {f"blocks.1.{k}" for k in MATRIX_KINDS}


def test_adapt_kinds_subset_limits_attachment():
    cfg = small_cfg(adapt_kinds=("wq", "wv"))
    model = build_model(cfg, DIMS)
    assert set(model.adapters) == {
        "blocks.0.wq", "blocks.0.wv", "blocks.1.wq", "blocks.1.wv"
    }


def test_plan_depth_mismatch_rejected():
    cfg = small_cfg(plan=linear_plan(3, 2, 4))
    with pytest.raises(ConfigError):
        build_model(cfg, DIMS)


def test_unknown_adapt_kind_rejected():
    cfg = small_cfg(adapt_kinds=("wq", "wz"))
    with pytest.raises(ConfigError):
        build_model(cfg, DIMS)


def test_same_seed_builds_identical_models(task):
    a = build_model(small_cfg(), DIMS)
    b = build_model(small_cfg(), DIMS)
    assert a.base_hash() == b.base_hash()
    for name in a.adapters:
        assert np.array_equal(a.adapters[name].A.data, b.adapters[name].A.data)
    assert evaluate(a, task) == evaluate(b, task)


def test_untrained_classifier_sits_at_chance(task):
    # B and the head start at zero, so every logit is zero: loss is exactly
    # ln 2 and argmax ties resolve to class 0 on a balanced eval split.
    model = build_model(small_cfg(), DIMS)
    metrics = evaluate(model, task)
    assert metrics["loss"] == pytest.approx(math.log(2.0), abs=1e-15)
    assert metrics["accuracy"] == 0.5


def test_evaluate_has_no_side_effects(task):
    model = build_model(small_cfg(), DIMS)
    before = model.base_hash()
    first = evaluate(model, task)
    second = evaluate(model, task)
    assert first == second
    assert model.base_hash() == before


def test_gradients_flow_to_adapters_and_head_only(task):
    model = build_model(small_cfg(), DIMS)
    rng = Rng(99)
    model.head_w.data[...] = rng.child("hw").normal(model.head_w.shape, std=0.1)
    for pair in model.adapters.values():
        pair.B.data[...] = rng.child("b").normal(pair.B.shape, std=0.1)

    from prilora.train_harness import _loss

    logits, _ = model.forward(task.train_tokens[:8])
    loss = _loss(logits, task.train_targets[:8], task.is_regression)
    loss.backward()

    for name, t in model.trainable().items():
        assert t.grad is not None, name
        assert np.abs(t.grad).max() > 0, name
    for block in model.blocks:
        for kind in MATRIX_KINDS:
            assert block[kind].W0.grad is None


# -- schedules and optimizers -------------------------------------------------


def test_warmup_ramps_linearly_to_full_rate():
    cfg = small_cfg(steps=100, warmup_steps=10, schedule="constant", lr=1.0)
    assert lr_at(1, cfg) == pytest.approx(0.1)
    assert lr_at(5, cfg) == pytest.approx(0.5)
    assert lr_at(10, cfg) == pytest.approx(1.0)
    assert lr_at(60, cfg) == 1.0


def test_linear_schedule_decays_to_near_zero():
    cfg = small_cfg(steps=100, warmup_steps=10, schedule="linear", lr=1.0)
    post = [lr_at(s, cfg) for s in range(11, 101)]
    assert all(a > b for a, b in zip(post, post[1:]))
    assert post[-1] == pytest.approx(1.0 / 90)
    assert min(post) > 0


def test_sgd_and_adam_minimize_a_quadratic():
    for kind, steps in (("sgd", 100), ("adam", 300)):
        x = Tensor(np.array([0.0, 5.0]), requires_grad=True)
        opt = make_optimizer(kind, {"x": x})
        for _ in range(steps):
            x.grad = None
            loss = ((x - 3.0) * (x - 3.0)).sum()
            loss.backward()
            opt.step(0.1)
        assert np.abs(x.data - 3.0).max() < 1e-2, kind


def test_adam_state_round_trip_preserves_moments():
    def make():
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        return x, Adam({"x": x})

    x1, opt1 = make()
    for _ in range(5):
        x1.grad = None
        ((x1 * x1).sum()).backward()
        opt1.step(0.05)
    state = opt1.state_dict()

    x2, opt2 = make()
    x2.data[...] = x1.data
    opt2.load_state_dict(state)
    assert opt2.t == 5

    # both copies must now evolve identically
    for _ in range(3):
        for x, opt in ((x1, opt1), (x2, opt2)):
            x.grad = None
            ((x * x).sum()).backward()
            opt.step(0.05)
    assert np.array_equal(x1.data, x2.data)


def test_optimizer_state_kind_mismatch_rejected():
    x = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ConfigError):
        Sgd({"x": x}).load_state_dict({"kind": "adam"})
    with pytest.raises(ConfigError):
        Adam({"x": x}).load_state_dict({"kind": "sgd"})
    with pytest.raises(ConfigError):
        make_optimizer("lion", {"x": x})


# -- config validation --------------------------------------------------------


@pytest.mark.parametrize("kw", [
    dict(lr=0.0),
    dict(batch_size=0),
    dict(steps=0),
    dict(optimizer="rmsprop"),
    dict(eval_interval=0),
    dict(schedule="cosine"),
    dict(warmup_steps=20),
    dict(ema_decay=1.0),
    dict(trajectory_coords=-1),
    dict(seed=-1),
])
def test_train_config_validation(kw):
    with pytest.raises(ConfigError):
        small_cfg(**kw)


def test_task_output_width_must_match_head():
    probe = SyntheticTask("linear_probe", vocab_size=8, seq_len=8,
                          train_count=50, eval_count=20, seed=1).build()
    cfg = small_cfg()
    model = build_model(cfg, DIMS)
    with pytest.raises(ConfigError):
        train(model, probe, cfg)


# -- the loop ------------------------------------------------------------------


def test_training_is_bitwise_deterministic(task):
    cfg = small_cfg()
    records = []
    for _ in range(2):
        record = train(build_model(cfg, DIMS), task, cfg)
        records.append(record)
    a, b = records
    assert a.final_checkpoint == b.final_checkpoint
    assert [p.to_json() for p in a.eval_points] == [p.to_json() for p in b.eval_points]


def test_ratio_zero_and_strategy_none_run_identically(task):
    inert = small_cfg(prune=PruneConfig(0.0, 5, "prilora_A"))
    off = small_cfg(prune=PruneConfig(0.5, 5, "none"))
    rec_inert = train(build_model(inert, DIMS), task, inert)
    rec_off = train(build_model(off, DIMS), task, off)
    assert rec_inert.final_checkpoint == rec_off.final_checkpoint
    for p in rec_inert.eval_points + rec_off.eval_points:
        assert p.prune_events == []


def test_base_weights_never_move(task):
    cfg = small_cfg()
    model = build_model(cfg, DIMS)
    before = model.base_hash()
    train(model, task, cfg)
    assert model.base_hash() == before


def test_losses_are_finite_and_nonnegative(task):
    record = train(build_model(small_cfg(), DIMS), task, small_cfg())
    for p in record.eval_points:
        assert math.isfinite(p.loss) and p.loss >= 0
        assert 0.0 <= p.accuracy <= 1.0


def test_prune_events_land_on_the_interval(task):
    cfg = small_cfg(steps=12, eval_interval=6, prune=PruneConfig(0.5, 5, "prilora_A"))
    record = train(build_model(cfg, DIMS), task, cfg)
    by_step = {p.step: p for p in record.eval_points}
    assert sorted(by_step) == [0, 6, 12]
    assert {e["step"] for e in by_step[6].prune_events} == {5}
    assert {e["step"] for e in by_step[12].prune_events} == {10}
    for event in by_step[6].prune_events:
        assert event["strategy"] == "prilora_A"
        assert event["ratio"] == 0.5
        assert event["zeros_written"] > 0
    # one event per adapted matrix
    assert len(by_step[6].prune_events) == 12


def test_pruning_writes_zeros_into_a(task):
    cfg = small_cfg(steps=5, eval_interval=5, prune=PruneConfig(0.5, 5, "prilora_A"))
    model = build_model(cfg, DIMS)
    train(model, task, cfg)
    for pair in model.adapters.values():
        zeros_per_row = (pair.A.data == 0).sum(axis=1)
        assert (zeros_per_row >= pair.d2 // 2).all()


@pytest.mark.parametrize("strategy", ["prilora_A", "random_A_cols", "B_rows", "B_cols"])
def test_b_row_ablation_prunes_b(task, strategy):
    """Every strategy runs through train() and zeroes its own factor only."""
    ratio = 0.5
    cfg = small_cfg(steps=5, eval_interval=5, prune=PruneConfig(ratio, 5, strategy))
    model = build_model(cfg, DIMS)
    seen = []

    def observer(step, model, events):
        for event in events:
            pair = model.adapters[event["layer"]]
            seen.append((event, pair.A.data == 0, pair.B.data == 0))

    train(model, task, cfg, prune_observer=observer)
    assert [event["layer"] for event, _, _ in seen] == list(model.adapters)
    for event, a_zero, b_zero in seen:
        pair = model.adapters[event["layer"]]
        assert (event["step"], event["strategy"], event["ratio"]) == (5, strategy, ratio)
        if strategy in ("prilora_A", "random_A_cols"):
            per_row = math.floor(ratio * pair.d2)
            assert event["zeros_written"] == pair.rank * per_row
            assert (a_zero.sum(axis=1) == per_row).all() and not b_zero.any()
        elif strategy == "B_rows":
            per_row = math.floor(ratio * pair.rank)
            assert event["zeros_written"] == pair.d1 * per_row
            assert (b_zero.sum(axis=1) == per_row).all() and not a_zero.any()
        else:
            per_col = math.floor(ratio * pair.d1)
            assert event["zeros_written"] == pair.rank * per_col
            assert (b_zero.sum(axis=0) == per_col).all() and not a_zero.any()


def test_prune_observer_sees_each_event(task):
    seen = []
    cfg = small_cfg(steps=10, prune=PruneConfig(0.5, 5, "prilora_A"))
    train(build_model(cfg, DIMS), task, cfg,
          prune_observer=lambda step, model, events: seen.append((step, len(events))))
    assert seen == [(5, 12), (10, 12)]


def test_trajectory_traces_every_step(task):
    cfg = small_cfg(steps=15, trajectory_coords=3, prune=PruneConfig(0.5, 5, "prilora_A"))
    record = train(build_model(cfg, DIMS), task, cfg)
    assert [row["step"] for row in record.trajectory] == list(range(1, 16))
    flagged = [row["step"] for row in record.trajectory if row["prune_event"]]
    assert flagged == [5, 10, 15]
    labels = set(record.trajectory[0]["values"])
    assert len(labels) == 3
    for row in record.trajectory:
        assert set(row["values"]) == labels


def test_ema_seed_flag_changes_the_run(task):
    cold = small_cfg(steps=6, ema_init_first_batch=False)
    warm = small_cfg(steps=6, ema_init_first_batch=True)
    rec_cold = train(build_model(cold, DIMS), task, cold)
    rec_warm = train(build_model(warm, DIMS), task, warm)
    assert rec_cold.final_checkpoint != rec_warm.final_checkpoint


def test_divergence_raises_with_recovery_state():
    probe = SyntheticTask("linear_probe", vocab_size=8, seq_len=8,
                          train_count=50, eval_count=20, seed=1).build()
    dims = dataclasses.replace(DIMS, num_outputs=1)
    cfg = small_cfg(optimizer="sgd", lr=1e20, steps=50)
    model = build_model(cfg, dims)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(model, probe, cfg)
    assert exc.value.step >= 1
    assert isinstance(exc.value.last_good_checkpoint, bytes)


def test_resume_from_midpoint_is_bitwise(task):
    cfg = small_cfg(steps=20, schedule="linear", warmup_steps=4,
                    prune=PruneConfig(0.5, 5, "prilora_A"))
    full = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=10)
    assert full.mid_checkpoint is not None

    resumed = train(build_model(cfg, DIMS), task, cfg, resume_from=full.mid_checkpoint)
    assert resumed.final_checkpoint == full.final_checkpoint
    # resumed record carries only the back half of the eval history
    assert [p.step for p in resumed.eval_points] == [20]
    assert resumed.eval_points[-1].to_json() == full.eval_points[-1].to_json()


def test_resume_beyond_configured_steps_rejected(task):
    cfg = small_cfg(steps=20)
    full = train(build_model(cfg, DIMS), task, cfg)
    shorter = dataclasses.replace(cfg, steps=10)
    with pytest.raises(ConfigError):
        train(build_model(shorter, DIMS), task, shorter, resume_from=full.final_checkpoint)


def test_micro_task_is_memorized():
    # eight fixed sequences used for both splits: the model can and should
    # drive eval accuracy to 1.0 inside a couple hundred steps
    rng = Rng(77)
    tokens = rng.integers(2, 8, size=(8, 8))
    labels = np.array([0, 1] * 4, dtype=np.int64)
    for i, label in enumerate(labels):
        tokens[i, :3] = label
    data = TaskData("micro", tokens, labels, tokens.copy(), labels.copy(),
                    num_outputs=2, is_regression=False)
    cfg = small_cfg(steps=200, eval_interval=50, batch_size=8,
                    prune=PruneConfig(0.0, 40, "none"))
    record = train(build_model(cfg, DIMS), data, cfg)
    assert max(p.accuracy for p in record.eval_points) == 1.0


# -- records -------------------------------------------------------------------


def test_eval_point_json_round_trip():
    point = EvalPoint(step=40, loss=0.25, accuracy=0.875, nonzero_params=96,
                      adapter_params=128,
                      prune_events=[{"step": 40, "layer": "blocks.0.wq",
                                     "strategy": "prilora_A", "ratio": 0.5,
                                     "zeros_written": 8}])
    again = EvalPoint.from_json(point.to_json())
    assert again == point


def test_steps_to_peak_prefers_the_earliest_tie():
    points = [
        EvalPoint(10, 0.5, 0.90, 0, 0, []),
        EvalPoint(20, 0.4, 0.95, 0, 0, []),
        EvalPoint(30, 0.4, 0.95, 0, 0, []),
        EvalPoint(40, 0.5, 0.93, 0, 0, []),
    ]
    record = RunRecord(points, [], 40, 1.0, b"", b"", 20)
    assert steps_to_peak(record) == 20


def test_steps_to_peak_requires_history():
    record = RunRecord([], [], 10, 1.0, b"", b"", 0)
    with pytest.raises(ParameterError):
        steps_to_peak(record)


def test_record_summary_properties(task):
    cfg = small_cfg()
    record = train(build_model(cfg, DIMS), task, cfg)
    assert record.init_loss == record.eval_points[0].loss
    assert record.final_loss == record.eval_points[-1].loss
    assert record.final_accuracy == record.eval_points[-1].accuracy
    assert record.seconds_per_step == pytest.approx(record.train_seconds / 20)
    assert record.best_checkpoint
    assert any(p.step == record.best_step for p in record.eval_points)
