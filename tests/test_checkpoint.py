"""Checkpoint container: bitwise round trips and malformed-input rejection."""

import dataclasses
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora.checkpoint import FORMAT_VERSION, MAGIC, capture_state, restore_state
from prilora.errors import FormatError
from prilora.model import ModelDims, ToyModel
from prilora.numerics import Rng, read_tensor, tensor_to_bytes
from prilora.prune_engine import PruneConfig, norm_widths
from prilora.rank_plan import linear_plan, uniform_plan
from prilora.train_harness import TrainConfig, make_optimizer

DIMS = ModelDims(num_layers=2, d_model=16, num_heads=2, d_ff=32,
                 vocab_size=8, seq_len=8, num_outputs=2)
CFG = TrainConfig(plan=linear_plan(2, 2, 4), steps=20)  # prilora_A: input norms
LATENT_CFG = dataclasses.replace(CFG, prune=PruneConfig(strategy="B_rows"))
CFGS = {"input": CFG, "latent": LATENT_CFG}
TASK = "7a5c" * 16  # stands in for the task-data fingerprint train() records
# a prune event record, as prune_event makes them, not yet listed by an eval point
EVENTS = [{"layer": "blocks.0.wq", "min_row_zeros": 8, "nonzero": 40, "ratio": 0.5,
           "step": 3, "strategy": "prilora_A", "zeros_written": 16}]


def fresh(cfg=CFG, seed=3):
    model = ToyModel.build(DIMS, cfg.plan, Rng(seed).child("model"))
    optimizer = make_optimizer("adam", model.trainable())
    return model, optimizer


def moments_untouched(optimizer):
    """Whether every optimizer slot still holds the zeros it was built with."""
    return not any(view.any() for views in optimizer.slots.values() for view in views.values())


def zero_xbars(model, cfg=CFG):
    return {name: np.zeros(w) for name, w in norm_widths(model.adapters, cfg.prune).items()}


def populated_state(seed=3, cfg=CFG):
    """A model with distinctive values in every saved slot; the EMA holds a
    vector for each layer norm_widths names under cfg."""
    model, optimizer = fresh(cfg, seed=seed)
    rng = Rng(1000 + seed)
    model.head_w.data[...] = rng.child("hw").normal(model.head_w.shape)
    for name, pair in model.adapters.items():
        pair.B.data[...] = rng.child(f"b/{name}").normal(pair.B.shape)
    # take real optimizer steps so the moment buffers are nonzero
    for step in range(1, 4):
        for t in model.trainable().values():
            t.grad = rng.child("g").normal(t.shape)
        optimizer.step(1e-3, step)
    xbars = {
        name: np.abs(rng.child(f"e/{name}").normal((w,)))
        for name, w in norm_widths(model.adapters, cfg.prune).items()
    }
    rngs = {"data": Rng(7).child("data"), "prune": Rng(7).child("prune")}
    rngs["data"].integers(0, 100, size=13)  # advance the stream position
    return model, optimizer, xbars, rngs


def make_blob(step=0, cfg=CFG):
    model, optimizer, xbars, rngs = populated_state(cfg=cfg)
    return capture_state(model, optimizer, xbars, cfg, step, rngs, TASK, EVENTS)


def test_blob_leads_with_magic_and_version():
    blob = make_blob()
    assert blob[:4] == MAGIC
    assert struct.unpack_from("<I", blob, 4)[0] == FORMAT_VERSION == 5
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()


def test_save_load_save_is_bitwise():
    for cfg in CFGS.values():
        model, optimizer, xbars, rngs = populated_state(cfg=cfg)
        blob = capture_state(model, optimizer, xbars, cfg, 17, rngs, TASK, EVENTS)

        model2, optimizer2 = fresh(cfg)
        xbars2 = zero_xbars(model2, cfg)
        rngs2 = {"data": Rng(7).child("data"), "prune": Rng(7).child("prune")}
        step, events = restore_state(blob, model2, optimizer2, xbars2, cfg, rngs2, TASK)
        assert (step, events) == (17, EVENTS)
        assert capture_state(model2, optimizer2, xbars2, cfg, 17, rngs2, TASK, events) == blob


def test_header_layout_matches_the_committed_golden():
    # headers hold names, ranks, the run's config fields, integer rng states
    # and the tensor order, no computed floats (the digest sits outside the
    # header), so they are the same on every platform; a change to the
    # format has to update the golden file on purpose
    golden = json.loads((Path(__file__).parent / "golden" / "checkpoint_headers.json").read_text())
    for norms, cfg in CFGS.items():
        assert split_blob(make_blob(step=5, cfg=cfg))[0] == golden[norms], norms


def test_restore_rehydrates_every_slot():
    model, optimizer, xbars, rngs = populated_state()
    blob = capture_state(model, optimizer, xbars, CFG, 5, rngs, TASK)

    model2, optimizer2 = fresh(seed=4)  # different init, same layout
    xbars2 = zero_xbars(model2)
    held = dict(xbars2)
    rngs2 = {"data": Rng(9).child("data")}
    restore_state(blob, model2, optimizer2, xbars2, CFG, rngs2, TASK)

    for name, t in model.trainable().items():
        assert np.array_equal(t.data, model2.trainable()[name].data), name
    for slot, views in optimizer.slots.items():
        for k, view in views.items():
            assert np.array_equal(view, optimizer2.slots[slot][k]), (slot, k)
    assert set(xbars2) == set(xbars)
    for name in xbars:
        assert np.array_equal(xbars2[name], xbars[name])
        assert xbars2[name] is held[name]  # written in place
    # the restored stream continues exactly where the saved one paused
    assert np.array_equal(rngs["data"].integers(0, 1000, size=8),
                          rngs2["data"].integers(0, 1000, size=8))


def test_restore_does_not_rebind_tensors():
    blob = make_blob(step=5)
    model2, optimizer2 = fresh()
    held = model2.adapters["blocks.0.wq"].A
    restore_state(blob, model2, optimizer2, zero_xbars(model2), CFG, {}, TASK)
    assert model2.adapters["blocks.0.wq"].A is held


def test_restore_refuses_xbars_of_another_layout():
    # the saved EMA vectors must fit the live ones, as the parameters must
    blob = make_blob(step=5)
    model2, optimizer2 = fresh()
    for xbars in ({}, {**zero_xbars(model2), "blocks.0.wq": np.zeros(3)}):
        with pytest.raises(FormatError, match="ema/"):
            restore_state(blob, model2, optimizer2, xbars, CFG, {}, TASK)
        assert moments_untouched(optimizer2)


def test_bad_magic_rejected():
    blob = make_blob()
    with pytest.raises(FormatError, match="bad magic"):
        restore_state(b"XXXX" + blob[4:], *fresh(), {}, CFG, {}, TASK)


def test_unknown_version_rejected():
    # format 2 files carry no task digest, format 3 files no pending prune
    # event records and format 4 files restate the optimizer and adapters
    # beside their tensors, so they are refused like format 1
    for version in (1, 2, 3, 4):
        blob = bytearray(make_blob())
        struct.pack_into("<I", blob, 4, version)
        with pytest.raises(FormatError, match=f"unsupported checkpoint format version {version}"):
            restore_state(bytes(blob), *fresh(), {}, CFG, {}, TASK)


def test_truncated_payload_rejected():
    blob = make_blob()
    with pytest.raises(FormatError, match="digest"):
        restore_state(blob[:-9], *fresh(), {}, CFG, {}, TASK)
    with pytest.raises(FormatError):
        restore_state(blob[:10], *fresh(), {}, CFG, {}, TASK)
    # behind a valid digest, a cut payload reaches the tensor reader and a
    # header length beyond the file the header check
    with pytest.raises(FormatError, match="checkpoint tensor"):
        restore_state(sign(blob[:-32][:-9]), *fresh(), {}, CFG, {}, TASK)
    with pytest.raises(FormatError, match="truncated inside header"):
        restore_state(sign(blob[:8] + struct.pack("<Q", len(blob)) + blob[16:-32]),
                      *fresh(), {}, CFG, {}, TASK)


def test_trailing_bytes_rejected():
    blob = make_blob()
    with pytest.raises(FormatError, match="digest"):
        restore_state(blob + b"\x00", *fresh(), {}, CFG, {}, TASK)
    with pytest.raises(FormatError, match="trailing bytes"):
        restore_state(sign(blob[:-32] + b"\x00"), *fresh(), {}, CFG, {}, TASK)


def test_corrupt_header_rejected():
    blob = bytearray(make_blob()[:-32])
    blob[16] = 0xFF  # header starts right after the fixed prefix
    with pytest.raises(FormatError, match="unreadable checkpoint header"):
        restore_state(sign(bytes(blob)), *fresh(), {}, CFG, {}, TASK)


def test_plan_mismatch_rejected():
    blob = make_blob()
    other_cfg = dataclasses.replace(CFG, plan=uniform_plan(2, 3))
    other, optimizer = fresh(other_cfg)
    with pytest.raises(FormatError, match="train.plan.ranks"):
        restore_state(blob, other, optimizer, zero_xbars(other), other_cfg, {}, TASK)


def test_adapter_set_mismatch_rejected():
    # the tensor names are the adapter layout; the refusal lists a few of
    # the 56 that differ (in each of 2 blocks, wk, wo, w1 and w2 lose A, B,
    # the m and v of each, and an EMA vector), then counts the rest
    blob = make_blob()
    other = ToyModel.build(DIMS, CFG.plan, Rng(3).child("model"), adapt_kinds=("wq", "wv"))
    with pytest.raises(FormatError, match=r"tensors differ from the run's: "
                       r"ema/blocks\.0\.w1, ema/blocks\.0\.w2, ema/blocks\.0\.wk and 53 more$"):
        restore_state(blob, other, make_optimizer("adam", other.trainable()),
                      zero_xbars(other), CFG, {}, TASK)


def test_optimizer_kind_mismatch_rejected():
    # an sgd optimizer holds no slots, so the saved opt/ tensors differ
    blob = make_blob(step=0)
    model2, _ = fresh()
    with pytest.raises(FormatError, match="tensors differ from the run's: opt/m/"):
        restore_state(blob, model2, make_optimizer("sgd", model2.trainable()),
                      zero_xbars(model2), CFG, {}, TASK)


# -- malformed headers: rejected before any live object changes ----------------


def sign(body):
    """body closed by its digest, as capture_state closes a checkpoint."""
    return body + hashlib.sha256(body).digest()


def split_blob(blob):
    """The header of a blob and its tensors, by name, in payload order."""
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    fp = io.BytesIO(blob[16 + head_len : -32])
    return header, {name: read_tensor(fp).data for name in header["tensors"]}


def with_header(blob, header, tensors=None):
    """blob behind another header (an object, or its raw bytes), signed again
    so the digest holds; the payload is the original unless given."""
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    if tensors is None:
        payload = blob[16 + head_len : -32]
    else:
        payload = b"".join(tensor_to_bytes(arr) for arr in tensors.values())
    return sign(blob[:8] + struct.pack("<Q", len(head)) + head + payload)


def restore_into_other_model(blob, cfg=CFG):
    """Restore into a model built from another seed, so any write would show.

    Returns the model's trainable tensors before and after, and the error."""
    model, optimizer = fresh(cfg, seed=4)
    xbars = zero_xbars(model, cfg)
    rngs = {"data": Rng(9).child("data"), "prune": Rng(9).child("prune")}
    before = {k: t.data.copy() for k, t in model.trainable().items()}
    error = None
    try:
        restore_state(blob, model, optimizer, xbars, cfg, rngs, TASK)
    except FormatError as exc:
        error = exc
        assert moments_untouched(optimizer)
        assert all(not xbar.any() for xbar in xbars.values())
        assert all(rngs[tag].get_state() == Rng(9).child(tag).get_state() for tag in rngs)
    after = {k: t.data for k, t in model.trainable().items()}
    return before, after, error


def assert_rejected_untouched(blob, cfg=CFG):
    before, after, error = restore_into_other_model(blob, cfg)
    assert error is not None, "malformed checkpoint was accepted"
    for name in before:
        assert np.array_equal(before[name], after[name]), name


BLOB = make_blob(step=5)
HEADER, TENSORS = split_blob(BLOB)
LATENT_BLOB = make_blob(step=5, cfg=LATENT_CFG)
WQ_XBAR = TENSORS["ema/blocks.0.wq"]  # width d2 = 16; the rank is 2
READ_FIELDS = ("step", "config", "rng", "events", "tensors")


def with_tensors(tensors, blob=BLOB):
    header = split_blob(blob)[0]
    return with_header(blob, dict(header, tensors=list(tensors)), tensors)


def edited(**fields):
    return with_header(BLOB, dict(HEADER, **fields))


def with_train(**fields):
    """BLOB recording other values of these TrainConfig fields."""
    config = HEADER["config"]
    return edited(config=dict(config, train=dict(config["train"], **fields)))


def with_ema(name, xbar, blob=BLOB):
    """blob holding xbar as the EMA vector for name, added if new."""
    return with_tensors({**split_blob(blob)[1], f"ema/{name}": xbar}, blob)


def with_rng(tag, **fields):
    """BLOB whose saved stream tag has these fields edited."""
    return edited(rng=dict(HEADER["rng"], **{tag: dict(HEADER["rng"][tag], **fields)}))


def without(prefix, **fields):
    """BLOB without the tensors whose names start with prefix; fields edit its header."""
    kept = {k: v for k, v in TENSORS.items() if not k.startswith(prefix)}
    return with_header(BLOB, dict(HEADER, **fields, tensors=list(kept)), kept)


MALFORMED = {
    "only_tensors_listed": lambda: with_header(BLOB, {"tensors": []}, {}),
    "tensors_not_a_list": lambda: with_header(BLOB, {"tensors": 5}),
    "tensor_name_a_list": lambda: edited(tensors=[[1]] + HEADER["tensors"][1:]),
    "header_not_an_object": lambda: with_header(BLOB, [HEADER]),
    "header_not_json": lambda: with_header(BLOB, b'{"step": 5,'),
    "header_nested_too_deep": lambda: with_header(BLOB, b"[" * 100_000 + b"]" * 100_000),
    "ema_input_tensors_missing": lambda: without("ema/"),
    "ema_input_entry_dropped": lambda: without("ema/blocks.0.w1"),
    "ema_input_width_cut": lambda: with_ema("blocks.0.wq", WQ_XBAR[:3]),
    "ema_input_for_a_missing_layer": lambda: with_ema("blocks.9.wq", WQ_XBAR),
    "ema_latent_at_input_width": lambda: with_ema("blocks.0.wq", WQ_XBAR, LATENT_BLOB),
    "ema_nan": lambda: with_ema("blocks.0.wq", np.full_like(WQ_XBAR, np.nan)),
    "ema_inf": lambda: with_ema("blocks.0.wq", np.full_like(WQ_XBAR, np.inf)),
    "ema_negative": lambda: with_ema("blocks.0.wq", -WQ_XBAR),
    "extra_tensor": lambda: with_tensors({**TENSORS, "param/extra": WQ_XBAR}),
    # the first tensor listed again, with another payload that must not win
    "tensor_listed_twice": lambda: with_header(
        BLOB, dict(HEADER, tensors=HEADER["tensors"] + HEADER["tensors"][:1]),
        dict(enumerate([*TENSORS.values(), TENSORS[HEADER["tensors"][0]] + 7.0])),
    ),
    "step_a_string": lambda: edited(step="5"),
    "step_negative": lambda: edited(step=-1),
    "step_beyond_recorded_steps": lambda: edited(step=CFG.steps + 1),
    "decay_out_of_range": lambda: with_train(ema_decay=1.5),
    "decay_a_string": lambda: with_train(ema_decay="x"),
    "config_field_dropped": lambda: edited(config=dict(
        HEADER["config"], dims={k: v for k, v in HEADER["config"]["dims"].items() if k != "d_ff"}
    )),
    "config_field_added": lambda: with_train(momentum=0.9),
    "config_field_added_as_null": lambda: with_train(momentum=None),
    "optimizer_slot_dropped": lambda: without("opt/v/"),
    "optimizer_slot_of_another_shape": lambda: with_tensors(
        {**TENSORS, "opt/m/blocks.0.wq.A": TENSORS["opt/m/blocks.0.wq.A"].T}
    ),
    "rng_state_incomplete": lambda: edited(rng=dict(HEADER["rng"], data={"seed": 0})),
    "rng_counter_negative": lambda: edited(
        rng=dict(HEADER["rng"], prune=dict(HEADER["rng"]["prune"], counter=[-1, 0, 0, 0]))
    ),
    "rng_buffer_pos_negative": lambda: edited(
        rng=dict(HEADER["rng"], data=dict(HEADER["rng"]["data"], buffer_pos=-1))
    ),
    "rng_counter_of_one_word": lambda: with_rng("prune", counter=[0]),
    "rng_key_of_three_words": lambda: with_rng("prune", key=HEADER["rng"]["prune"]["key"] + [0]),
    "rng_buffer_of_five_words": lambda: with_rng("prune", buffer=[0] * 5),
    "rng_seed_a_float": lambda: with_rng("prune", seed=2.7),
    "rng_seed_negative": lambda: with_rng("prune", seed=-3),
    "rng_buffer_pos_a_float": lambda: with_rng("prune", buffer_pos=1.0),
    "rng_uinteger_a_bool": lambda: with_rng("prune", uinteger=True),
    "config_field_added_as_empty_mapping": lambda: with_train(extra={}),
    "rng_empty": lambda: edited(rng={}),
    "events_not_a_list": lambda: edited(events={"step": 3}),
    "event_not_an_object": lambda: edited(events=[3]),
    "rng_missing_prune": lambda: edited(rng={"data": HEADER["rng"]["data"]}),
}
# the cases built on LATENT_BLOB restore under its config
MALFORMED_CFG = {"ema_latent_at_input_width": LATENT_CFG}


@pytest.mark.parametrize("field", READ_FIELDS)
def test_header_without_a_read_field_rejected(field):
    assert_rejected_untouched(with_header(BLOB, {k: v for k, v in HEADER.items() if k != field}))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_rejected_before_any_write(case):
    assert_rejected_untouched(MALFORMED[case](), MALFORMED_CFG.get(case, CFG))


def test_header_holds_only_what_restore_reads():
    assert set(HEADER) == set(READ_FIELDS)


def test_real_header_round_trips_through_the_helpers():
    # guards the fixtures above: an unedited rebuild restores
    for blob, cfg in ((BLOB, CFG), (LATENT_BLOB, LATENT_CFG)):
        header, tensors = split_blob(blob)
        _, after, error = restore_into_other_model(with_header(blob, header, tensors), cfg)
        assert error is None
        for name in after:
            assert np.array_equal(after[name], tensors[f"param/{name}"]), name


# one other valid value for every field of the run's record
OTHER_VALUES = {
    "train": {
        "plan": uniform_plan(2, 3),
        "prune": PruneConfig(0.25, 40, "prilora_A"),
        "lr": 1e-2,
        "batch_size": 8,
        "steps": 30,
        "optimizer": "sgd",
        "seed": 1,
        "eval_interval": 10,
        "schedule": "constant",
        "warmup_steps": 2,
        "adapter_std": 0.03,
        "adapter_scale": 2.0,
        "adapt_kinds": ("wq", "wv"),
        "ema_decay": 0.5,
        "ema_init_first_batch": True,
    },
    "dims": {
        "num_layers": 3,
        "d_model": 32,
        "num_heads": 4,
        "d_ff": 64,
        "vocab_size": 12,
        "seq_len": 10,
        "num_outputs": 3,
    },
}
RECORD_FIELDS = [("train", f.name) for f in dataclasses.fields(TrainConfig)] + [
    ("dims", f.name) for f in dataclasses.fields(ModelDims)
]


@pytest.mark.parametrize("part,name", RECORD_FIELDS, ids=[f"{p}.{n}" for p, n in RECORD_FIELDS])
def test_resume_under_another_value_of_any_recorded_field_refused(part, name):
    # the record is checked before the model's layout, so the model only
    # needs to report the other dims
    model, optimizer = fresh(seed=4)
    cfg = CFG
    if part == "train":
        cfg = dataclasses.replace(CFG, **{name: OTHER_VALUES[part][name]})
    else:
        model.dims = dataclasses.replace(DIMS, **{name: OTHER_VALUES[part][name]})
    before = {k: t.data.copy() for k, t in model.trainable().items()}
    with pytest.raises(FormatError, match=rf"saved with {part}\.{name}\b"):
        restore_state(BLOB, model, optimizer, zero_xbars(model), cfg, {}, TASK)
    assert moments_untouched(optimizer)
    for k, t in model.trainable().items():
        assert np.array_equal(t.data, before[k]), k


def test_resume_under_another_task_refused():
    model, optimizer = fresh(seed=4)
    before = {k: t.data.copy() for k, t in model.trainable().items()}
    with pytest.raises(FormatError, match=rf"saved with task = '{TASK}', this run has '0+'"):
        restore_state(BLOB, model, optimizer, zero_xbars(model), CFG, {}, "0" * 64)
    assert moments_untouched(optimizer)
    for k, t in model.trainable().items():
        assert np.array_equal(t.data, before[k]), k


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(BLOB) - 1))
def test_fuzz_truncated_blob_rejected_untouched(cut):
    assert_rejected_untouched(BLOB[:cut])


@settings(max_examples=200, deadline=None)
@given(bit=st.integers(min_value=0, max_value=8 * len(BLOB) - 1))
def test_fuzz_single_bit_flip_rejected_untouched(bit):
    blob = bytearray(BLOB)
    blob[bit // 8] ^= 1 << (bit % 8)
    assert_rejected_untouched(bytes(blob))


@settings(max_examples=150, deadline=None)
@given(header=JSON)
def test_fuzz_arbitrary_json_header_rejected_untouched(header):
    assert_rejected_untouched(with_header(BLOB, header))


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(READ_FIELDS), value=JSON)
def test_fuzz_one_header_field_replaced(field, value):
    # some replacements are still valid (another step count, say); the rest
    # must raise FormatError with the model untouched
    before, after, error = restore_into_other_model(edited(**{field: value}))
    if error is not None:
        for name in before:
            assert np.array_equal(before[name], after[name]), name
