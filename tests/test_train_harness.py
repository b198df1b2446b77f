"""Training loop behavior: determinism, freezing, pruning cadence, resume."""

import copy
import dataclasses
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from prilora import checkpoint as checkpoint_mod
from prilora import model as model_mod
from prilora import prune_engine
from prilora.adapter import init_adapter
from prilora.checkpoint import capture_state
from prilora.errors import ConfigError, FormatError, ParameterError, ShapeError, TrainingDiverged
from prilora.model import MATRIX_KINDS, ModelDims, ToyModel
from prilora.numerics import Rng, Tensor, fingerprint, grad_check
from prilora.prune_engine import STRATEGIES, PruneConfig, norm_widths, tracked_norms
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
    _loss,
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


def without_config(blob):
    """A checkpoint's header without its config record, and its tensor
    payload; the digest, which covers the record, is left out."""
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    del header["config"]
    return header, blob[16 + head_len : -32]


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


def test_golden_training_step_makes_25_tape_nodes():
    """Per block: LN (block 0 reads the embeddings, which need no grad), wq,
    wk, wv, the attention core, wo, add, LN, w1, ReLU, w2, add; then the
    pooled head and the loss."""
    golden = json.loads((Path(__file__).parent / "golden" / "learning_sanity.json").read_text())
    g = golden["train"]
    cfg = small_cfg(plan=linear_plan(golden["dims"]["num_layers"], golden["plan"]["first_rank"],
                                     golden["plan"]["last_rank"]),
                    seed=golden["seed"], batch_size=g["batch_size"])
    task = SyntheticTask(**golden["task"]).build()
    model = build_model(cfg, ModelDims(**golden["dims"]))
    widths = norm_widths(model.adapters, cfg.prune)
    sumsq = {name: np.empty(width) for name, width in widths.items()}
    logits = model.forward(task.train_tokens[: cfg.batch_size], "input", sumsq)
    loss = _loss(logits, task.train_targets[: cfg.batch_size], task.is_regression)
    nodes, seen, stack = 0, set(), [loss._node]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward is not None
            stack.extend(t._prev)
    assert nodes == 25


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

    logits = model.forward(task.train_tokens[:8])
    loss = _loss(logits, task.train_targets[:8], task.is_regression)
    loss.backward()

    for name, t in model.trainable().items():
        assert t.grad is not None, name
        assert np.abs(t.grad).max() > 0, name
    for block in model.blocks:
        for kind in MATRIX_KINDS:
            assert block[kind].W0.grad is None


def test_one_output_regression_head_gradients_match_finite_differences():
    # linear_probe's one-output head under the squared-error loss, which
    # reshapes the pooled head's (batch, 1) logits
    dims = dataclasses.replace(DIMS, num_outputs=1)
    task = SyntheticTask("linear_probe", vocab_size=8, seq_len=8, train_count=40,
                         eval_count=8, seed=5).build()
    assert task.is_regression and task.num_outputs == 1
    model = build_model(small_cfg(), dims)
    rng = Rng(130)
    model.head_w.data[...] = rng.child("hw").normal(model.head_w.shape, std=0.3)
    model.head_b.data[...] = rng.child("hb").normal(model.head_b.shape, std=0.1)
    pair = model.adapters["blocks.1.w2"]
    pair.B.data[...] = rng.child("B").normal(pair.B.shape, std=0.1)
    tokens, targets = task.train_tokens[:4], task.train_targets[:4]

    def loss():
        logits = model.forward(tokens)
        assert logits.shape == (4, 1)
        return _loss(logits, targets, True)

    # criterion 8's tolerance
    assert grad_check(loss, [model.head_w, model.head_b, pair.A, pair.B], eps=1e-4) < 1e-5


def wide_step():
    """The benchmark's wide shape on one batch: the model, and a function
    that clears its leaf gradients and returns the step's loss."""
    dims = ModelDims(num_layers=4, d_model=128, num_heads=4, d_ff=256,
                     vocab_size=32, seq_len=32, num_outputs=2)
    model = ToyModel.build(dims, linear_plan(4, 4, 16), Rng(17))
    rng = Rng(3)
    tokens, targets = rng.integers(0, 32, size=(32, 32)), rng.integers(0, 2, size=32)
    params = model.trainable().values()

    def forward():
        for p in params:
            p.grad = None
        logits = model.forward(tokens)
        return _loss(logits, targets, False)

    return model, forward


@pytest.mark.memory
def test_backward_frees_the_step_as_it_goes():
    # one step at the benchmark's wide shape, traced: the tape keeps only
    # what backward reads, backward releases each node's saved arrays once
    # used, so its peak stays near what forward left, and all that outlives
    # it is the leaves' gradients (0.55 MB here)
    _, forward = wide_step()
    forward().backward()  # anything made once per process is made here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = forward()
        forward_mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held_mb, peak_mb = (after - before) / 2**20, (peak - before) / 2**20
    assert held_mb < 1.0, f"{held_mb:.2f} MB held after backward"
    # 39.0 MB after forward and a 43.2 MB peak in backward; a tape that held
    # every activation left 63.0 MB and peaked at 68.0 MB, and holding the
    # whole graph to the end peaked at 121.7 MB
    assert forward_mb < 45.0, f"{forward_mb:.1f} MB left by forward"
    assert peak_mb < 1.15 * forward_mb, f"peak {peak_mb:.1f} MB after a {forward_mb:.1f} MB forward"


def test_leaf_gradients_of_a_wide_step_are_c_order():
    model, forward = wide_step()
    forward().backward()
    for name, p in model.trainable().items():
        assert p.grad.flags.c_contiguous, name


NORM_SOURCE = {"prilora_A": "input", "random_A_cols": None, "B_rows": "latent",
               "B_cols": "latent", "none": None}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forward_collects_the_norms_the_strategy_tracks(task, strategy, monkeypatch):
    prune = PruneConfig(0.5, 5, strategy)
    norms = tracked_norms(prune)
    assert norms == NORM_SOURCE[strategy]
    assert tracked_norms(dataclasses.replace(prune, prune_ratio=0.0)) is None
    # block 0 has rank 0, so only block 1 is adapted
    model = build_model(small_cfg(plan=concentrated_plan(2, 12), prune=prune), DIMS)
    inputs = {}  # each adapted matrix's input activation
    real = model_mod.adapter_forward

    def recording(layer, pair, x):
        if pair is not None:
            inputs[pair.frozen_ref] = x.data
        return real(layer, pair, x)

    monkeypatch.setattr(model_mod, "adapter_forward", recording)
    sums = {name: np.empty(width) for name, width in norm_widths(model.adapters, prune).items()}
    model.forward(task.train_tokens[:8], norms, sums)
    if norms is None:
        assert sums == {}
        return
    assert set(sums) == set(model.adapters)
    for name, vec in sums.items():
        pair = model.adapters[name]
        source = inputs[name] if norms == "input" else inputs[name] @ pair.A.data.T
        assert vec.shape == ((pair.d2,) if norms == "input" else (pair.rank,)), name
        np.testing.assert_allclose(np.sqrt(vec), prune_engine.batch_input_norm(source),
                                   rtol=1e-12, atol=0, err_msg=name)
    if norms == "input":
        # wq, wk and wv read one activation: one norm, shared
        assert (sums["blocks.1.wq"].tobytes() == sums["blocks.1.wk"].tobytes()
                == sums["blocks.1.wv"].tobytes())
    # a caller's vectors are overwritten in place
    held = {name: np.full(vec.shape, np.nan) for name, vec in sums.items()}
    vectors = dict(held)
    model.forward(task.train_tokens[:8], norms, held)
    for name, vec in sums.items():
        assert held[name] is vectors[name], name
        assert held[name].tobytes() == vec.tobytes(), name


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


def test_adam_flat_step_matches_the_per_parameter_closed_form():
    rng = Rng(7)
    shapes = {"a": (3, 4), "sometimes_idle": (2,), "c": (5, 1)}
    params = {k: Tensor(rng.child(k).normal(shape), requires_grad=True) for k, shape in shapes.items()}
    opt = Adam(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    for t in range(1, 7):
        lr = 0.01 * t
        for k, p in params.items():
            idle = k == "sometimes_idle" and t % 2 == 0
            p.grad = None if idle else rng.child(f"g{t}/{k}").normal(p.shape)
        opt.step(lr)
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for k, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            want[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            assert p.data.tobytes() == want[k].tobytes(), (t, k)
            state = opt.state_dict()
            assert state["m"][k].tobytes() == m[k].tobytes(), (t, k)
            assert state["v"][k].tobytes() == v[k].tobytes(), (t, k)
    assert np.abs(m["sometimes_idle"]).min() > 0  # idle steps moved it all the same


@pytest.mark.parametrize("slot, name, bad", [
    ("m", "x", np.ones(1)),
    ("v", "y", np.ones(4)),
    ("v", "x", np.ones((3, 1))),
    ("m", "y", np.ones(())),
])
def test_adam_refuses_slots_of_another_shape(slot, name, bad):
    params = {"x": Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True),
              "y": Tensor(np.ones((2, 2)), requires_grad=True)}
    opt = Adam(params)
    for p in params.values():
        p.grad = p.data * 0.5
    opt.step(0.1)
    before = {s: {k: arr.copy() for k, arr in opt.state_dict()[s].items()} for s in ("m", "v")}
    state = {"kind": "adam", "t": 9, "slots": ["m", "v"],
             "m": {k: np.full(p.shape, 2.0) for k, p in params.items()},
             "v": {k: np.full(p.shape, 3.0) for k, p in params.items()}}
    state[slot][name] = bad
    with pytest.raises(ShapeError):
        opt.load_state_dict(state)
    # refused before any write
    assert opt.t == 1
    for s, arrays in before.items():
        for k, arr in arrays.items():
            assert np.array_equal(opt.state_dict()[s][k], arr)


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
    dict(seed=-1),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(adapter_std=float("nan")),
    dict(adapter_std=0.0),
    dict(adapter_scale=float("nan")),
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


@pytest.mark.parametrize("change", ["kinds", "rank"])
def test_train_refuses_adapters_its_config_does_not_lay_out(task, change):
    # adapter_params counts the layout cfg gives: on wq alone under the
    # default kinds it would report 1344 entries for the 192 it trains
    cfg = small_cfg(steps=2)
    if change == "kinds":
        model = build_model(dataclasses.replace(cfg, adapt_kinds=("wq",)), DIMS)
    else:
        model = build_model(cfg, DIMS)
        model.adapters["blocks.0.wq"] = init_adapter(16, 16, 3, Rng(1), frozen_ref="blocks.0.wq")
    with pytest.raises(ConfigError, match="adapter_params"):
        train(model, task, cfg)


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
    # each checkpoint records its own prune settings; everything else must match
    assert without_config(rec_inert.final_checkpoint) == without_config(rec_off.final_checkpoint)
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
    prune = PruneConfig(ratio, 5, strategy)
    cfg = small_cfg(steps=5, eval_interval=5, prune=prune)
    model = build_model(cfg, DIMS)
    events = train(model, task, cfg).eval_points[-1].prune_events
    assert [event["layer"] for event in events] == list(model.adapters)
    for event in events:
        pair = model.adapters[event["layer"]]
        assert (event["step"], event["strategy"], event["ratio"]) == (5, strategy, ratio)
        if strategy in ("prilora_A", "random_A_cols"):
            assert event["zeros_written"] == pair.rank * math.floor(ratio * pair.d2)
        elif strategy == "B_rows":
            assert event["zeros_written"] == pair.d1 * math.floor(ratio * pair.rank)
        else:
            assert event["zeros_written"] == pair.rank * math.floor(ratio * pair.d1)

    # the masks themselves, on adapters nothing has trained since
    before, adapters, _ = fresh_event(prune)
    for name, pair in adapters.items():
        a_zero, b_zero = pair.A.data == 0, pair.B.data == 0
        if strategy in ("prilora_A", "random_A_cols"):
            assert (a_zero.sum(axis=1) == math.floor(ratio * pair.d2)).all()
            assert np.array_equal(pair.B.data, before[name].B.data)
        else:
            assert np.array_equal(pair.A.data, before[name].A.data)
            if strategy == "B_rows":
                assert (b_zero.sum(axis=1) == math.floor(ratio * pair.rank)).all()
            else:
                assert (b_zero.sum(axis=0) == math.floor(ratio * pair.d1)).all()


def fresh_event(prune):
    """One prune event at step 5 on fresh adapters whose B is nonzero noise
    but for one exact zero; returns copies from before, the adapters, and
    the event records."""
    adapters = build_model(small_cfg(prune=prune), DIMS).adapters
    for i, pair in enumerate(adapters.values()):
        pair.B.data[...] = Rng(i).normal(pair.B.shape)
        pair.B.data[0, 0] = 0.0
    before = {name: copy.deepcopy(pair) for name, pair in adapters.items()}
    xbars = {name: np.ones(width) for name, width in norm_widths(adapters, prune).items()}
    events = prune_engine.prune_event(adapters, prune, xbars, Rng(5).child("prune"), 5)
    return before, adapters, events


@pytest.mark.parametrize("strategy", ["prilora_A", "random_A_cols", "B_rows", "B_cols"])
def test_event_records_count_what_the_mask_left(strategy):
    """nonzero and min_row_zeros describe each adapter right after its mask,
    exact zeros it held before included."""
    _, adapters, events = fresh_event(PruneConfig(0.5, 5, strategy))
    for event in events:
        pair = adapters[event["layer"]]
        assert event["nonzero"] == np.count_nonzero(pair.A.data) + np.count_nonzero(pair.B.data)
        assert event["nonzero"] < pair.A.data.size + pair.B.data.size
        pruned = pair.B.data if strategy.startswith("B_") else pair.A.data
        assert event["min_row_zeros"] == (pruned == 0).sum(axis=1).min()
        if strategy == "B_rows":
            assert event["min_row_zeros"] == math.floor(0.5 * pair.rank)
        elif strategy != "B_cols":  # column masks leave row counts uneven
            assert event["min_row_zeros"] == math.floor(0.5 * pair.d2)


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


def test_each_checkpoint_is_captured_once(task, monkeypatch):
    # one capture per eval point plus the mid checkpoint: the last step always
    # evaluates, so its capture is the final checkpoint
    blobs = []

    def counting(*args):
        blobs.append(capture_state(*args))
        return blobs[-1]

    monkeypatch.setattr(checkpoint_mod, "capture_state", counting)
    cfg = small_cfg(steps=20, eval_interval=5)
    full = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=7)
    assert [p.step for p in full.eval_points] == [0, 5, 10, 15, 20]
    assert len(blobs) == 6
    assert full.final_checkpoint is blobs[-1] and full.mid_checkpoint is blobs[2]
    # a resume at the last step runs no step and evaluates nowhere, so the
    # final checkpoint is its one capture
    blobs.clear()
    again = train(build_model(cfg, DIMS), task, cfg, resume_from=full.final_checkpoint)
    assert len(blobs) == 1 and again.final_checkpoint == full.final_checkpoint


def test_resumed_event_records_equal_the_uninterrupted_runs(task):
    # the checkpoint at step 8 carries the step-6 event, which no eval point
    # has listed yet, so the resumed run's point 10 lists steps 6 and 9, as
    # the uninterrupted run's does
    cfg = small_cfg(steps=20, eval_interval=5, prune=PruneConfig(0.5, 3, "prilora_A"))
    full = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=8)
    resumed = train(build_model(cfg, DIMS), task, cfg, resume_from=full.mid_checkpoint)

    def events(record):
        return [e for p in record.eval_points for e in p.prune_events]

    assert events(resumed) == [e for e in events(full) if e["step"] > 5]
    assert sorted({e["step"] for e in resumed.eval_points[0].prune_events}) == [6, 9]
    assert sorted({e["step"] for e in events(resumed)}) == [6, 9, 12, 15, 18]
    assert ([p.to_json() for p in resumed.eval_points]
            == [p.to_json() for p in full.eval_points if p.step > 8])
    # a checkpoint at an eval step carries none: that point listed them
    at_eval = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=10)
    again = train(build_model(cfg, DIMS), task, cfg, resume_from=at_eval.mid_checkpoint)
    assert [p.to_json() for p in again.eval_points] == [p.to_json() for p in full.eval_points
                                                        if p.step > 10]


def test_checkpoint_at_a_step_the_call_does_not_run_refused(task, tmp_path):
    cfg = small_cfg(steps=20)
    mid = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=10).mid_checkpoint
    metrics = tmp_path / "metrics.jsonl"
    for at, resume, first in ((0, None, 1), (21, None, 1), (10, mid, 11), (3, mid, 11)):
        with pytest.raises(ParameterError, match=rf"must lie in \[{first}, 20\], got {at}$"):
            train(build_model(cfg, DIMS), task, cfg, metrics_path=metrics,
                  resume_from=resume, checkpoint_at=at)
        assert not metrics.exists()
    assert train(build_model(cfg, DIMS), task, cfg, resume_from=mid,
                 checkpoint_at=11).mid_checkpoint is not None


def test_resume_under_another_task_refused(task):
    cfg = small_cfg()
    mid = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=10).mid_checkpoint
    other = SyntheticTask("token_majority", vocab_size=8, seq_len=8,
                          train_count=200, eval_count=64, seed=6).build()
    model = build_model(cfg, DIMS)
    before = {name: t.data.copy() for name, t in model.trainable().items()}
    with pytest.raises(FormatError, match="saved with task = "):
        train(model, other, cfg, resume_from=mid)
    for name, t in model.trainable().items():
        assert np.array_equal(t.data, before[name]), name
    # the task the checkpoint was saved under still resumes it
    assert train(build_model(cfg, DIMS), task, cfg, resume_from=mid).start_step == 10


# (config that wrote the checkpoint, config that resumes it)
MISMATCHED_RESUMES = {
    "B_rows_under_prilora_A": (dict(prune=PruneConfig(0.5, 5, "B_rows")),
                               dict(prune=PruneConfig(0.5, 5, "prilora_A"))),
    "B_rows_under_none": (dict(prune=PruneConfig(0.5, 5, "B_rows")),
                          dict(prune=PruneConfig(0.5, 5, "none"))),
    "decay_0.9_under_0.5": (dict(ema_decay=0.9), dict(ema_decay=0.5)),
    "decay_0.5_under_0.9": (dict(ema_decay=0.5), dict(ema_decay=0.9)),
    # a mid-run checkpoint without the input-norm EMA that prilora_A reads
    "none_under_prilora_A": (dict(prune=PruneConfig(0.5, 5, "none")),
                             dict(prune=PruneConfig(0.5, 5, "prilora_A"))),
    "random_A_cols_under_prilora_A": (dict(prune=PruneConfig(0.5, 5, "random_A_cols")),
                                      dict(prune=PruneConfig(0.5, 5, "prilora_A"))),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_RESUMES))
def test_resume_under_other_norms_or_decay_refused(task, case):
    saved, resumed = MISMATCHED_RESUMES[case]
    cfg = small_cfg(**saved)
    mid = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=10).mid_checkpoint
    other = small_cfg(**resumed)
    model = build_model(other, DIMS)
    before = {name: t.data.copy() for name, t in model.trainable().items()}
    with pytest.raises(FormatError):
        train(model, task, other, resume_from=mid)
    for name, t in model.trainable().items():
        assert np.array_equal(t.data, before[name]), name


@pytest.mark.parametrize("strategy", ["none", "random_A_cols"])
def test_step_zero_checkpoint_under_another_strategy_refused(task, strategy):
    # even before any norm is observed, a checkpoint resumes only the run it records
    saved = small_cfg(prune=PruneConfig(0.5, 5, strategy))
    model = build_model(saved, DIMS)
    optimizer = make_optimizer(saved.optimizer, model.trainable())
    rngs = {"data": Rng(saved.seed).child("data"), "prune": Rng(saved.seed).child("prune")}
    assert norm_widths(model.adapters, saved.prune) == {}
    digest = fingerprint([task.train_tokens, task.train_targets, task.eval_tokens, task.eval_targets])
    blob = capture_state(model, optimizer, {}, saved, 0, rngs, digest)
    cfg = small_cfg()
    with pytest.raises(FormatError, match="train.prune.strategy"):
        train(build_model(cfg, DIMS), task, cfg, resume_from=blob)


def test_resume_beyond_configured_steps_rejected(task):
    cfg = small_cfg(steps=20)
    full = train(build_model(cfg, DIMS), task, cfg)
    shorter = dataclasses.replace(cfg, steps=10)
    with pytest.raises(FormatError, match="train.steps"):
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
    record = RunRecord(points, 40, 1.0, b"", b"", 20)
    assert steps_to_peak(record) == 20


def test_steps_to_peak_requires_history():
    record = RunRecord([], 10, 1.0, b"", b"", 0)
    with pytest.raises(ParameterError):
        steps_to_peak(record)


def test_seconds_per_step_counts_only_the_steps_a_resume_ran(task):
    cfg = small_cfg(steps=4, eval_interval=2)
    full = train(build_model(cfg, DIMS), task, cfg, checkpoint_at=2)
    resumed = train(build_model(cfg, DIMS), task, cfg, resume_from=full.mid_checkpoint)
    assert (full.start_step, resumed.start_step) == (0, 2)
    assert full.seconds_per_step == full.train_seconds / 4
    assert resumed.seconds_per_step == resumed.train_seconds / 2
    # a resume at the last step times nothing
    assert RunRecord([], 4, 0.0, b"", b"", 4, start_step=4).seconds_per_step == 0.0


def test_record_summary_properties(task):
    cfg = small_cfg()
    record = train(build_model(cfg, DIMS), task, cfg)
    assert record.init_loss == record.eval_points[0].loss
    assert record.final_loss == record.eval_points[-1].loss
    assert record.final_accuracy == record.eval_points[-1].accuracy
    assert record.seconds_per_step == pytest.approx(record.train_seconds / 20)
    assert record.best_checkpoint
    assert any(p.step == record.best_step for p in record.eval_points)
