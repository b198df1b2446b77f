"""Checkpoint container: bitwise round trips and malformed-input rejection."""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora.checkpoint import FORMAT_VERSION, MAGIC, capture_state, restore_state
from prilora.errors import FormatError
from prilora.model import ModelDims, ToyModel
from prilora.numerics import Rng, read_tensor, tensor_to_bytes
from prilora.prune_engine import EmaState
from prilora.rank_plan import linear_plan, uniform_plan
from prilora.train_harness import make_optimizer

DIMS = ModelDims(num_layers=2, d_model=16, num_heads=2, d_ff=32,
                 vocab_size=8, seq_len=8, num_outputs=2)


def fresh(plan=None, seed=3):
    plan = plan or linear_plan(2, 2, 4)
    model = ToyModel.build(DIMS, plan, Rng(seed).child("model"))
    optimizer = make_optimizer("adam", model.trainable())
    return model, optimizer


def populated_state(seed=3):
    """A model with distinctive values in every saved slot."""
    model, optimizer = fresh(seed=seed)
    rng = Rng(1000 + seed)
    model.head_w.data[...] = rng.child("hw").normal(model.head_w.shape)
    for name, pair in model.adapters.items():
        pair.B.data[...] = rng.child(f"b/{name}").normal(pair.B.shape)
    # take real optimizer steps so the moment buffers are nonzero
    for _ in range(3):
        for t in model.trainable().values():
            t.grad = rng.child("g").normal(t.shape)
        optimizer.step(1e-3)
    ema_input = {
        name: EmaState(np.abs(rng.child(f"e/{name}").normal((pair.d2,))))
        for name, pair in model.adapters.items()
    }
    ema_latent = {}
    rngs = {"data": Rng(7).child("data"), "prune": Rng(7).child("prune")}
    rngs["data"].integers(0, 100, size=13)  # advance the stream position
    return model, optimizer, ema_input, ema_latent, rngs


def make_blob(step=0):
    model, optimizer, ema_i, ema_l, rngs = populated_state()
    return capture_state(model, optimizer, ema_i, ema_l, step, rngs)


def test_blob_leads_with_magic_and_version():
    blob = make_blob()
    assert blob[:4] == MAGIC
    assert struct.unpack_from("<I", blob, 4)[0] == FORMAT_VERSION


def test_save_load_save_is_bitwise():
    model, optimizer, ema_i, ema_l, rngs = populated_state()
    blob = capture_state(model, optimizer, ema_i, ema_l, 17, rngs)

    model2, optimizer2 = fresh()
    ema_i2: dict = {}
    ema_l2: dict = {}
    rngs2 = {"data": Rng(7).child("data"), "prune": Rng(7).child("prune")}
    step = restore_state(blob, model2, optimizer2, ema_i2, ema_l2, rngs2)
    assert step == 17
    assert capture_state(model2, optimizer2, ema_i2, ema_l2, 17, rngs2) == blob


def test_restore_rehydrates_every_slot():
    model, optimizer, ema_i, ema_l, rngs = populated_state()
    blob = capture_state(model, optimizer, ema_i, ema_l, 5, rngs)

    model2, optimizer2 = fresh(seed=4)  # different init, same layout
    ema_i2: dict = {}
    rngs2 = {"data": Rng(9).child("data")}
    restore_state(blob, model2, optimizer2, ema_i2, {}, rngs2)

    for name, t in model.trainable().items():
        assert np.array_equal(t.data, model2.trainable()[name].data), name
    assert optimizer2.t == optimizer.t
    for k in optimizer.m:
        assert np.array_equal(optimizer.m[k], optimizer2.m[k])
        assert np.array_equal(optimizer.v[k], optimizer2.v[k])
    assert set(ema_i2) == set(ema_i)
    for name in ema_i:
        assert np.array_equal(ema_i2[name].xbar, ema_i[name].xbar)
        assert ema_i2[name].decay == ema_i[name].decay
    # the restored stream continues exactly where the saved one paused
    assert np.array_equal(rngs["data"].integers(0, 1000, size=8),
                          rngs2["data"].integers(0, 1000, size=8))


def test_restore_does_not_rebind_tensors():
    model, optimizer, ema_i, ema_l, rngs = populated_state()
    blob = capture_state(model, optimizer, ema_i, ema_l, 5, rngs)
    model2, optimizer2 = fresh()
    held = model2.adapters["blocks.0.wq"].A
    restore_state(blob, model2, optimizer2, {}, {}, {})
    assert model2.adapters["blocks.0.wq"].A is held


def test_bad_magic_rejected():
    blob = make_blob()
    with pytest.raises(FormatError):
        restore_state(b"XXXX" + blob[4:], *fresh(), {}, {}, {})


def test_unknown_version_rejected():
    blob = bytearray(make_blob())
    struct.pack_into("<I", blob, 4, 99)
    with pytest.raises(FormatError):
        restore_state(bytes(blob), *fresh(), {}, {}, {})


def test_truncated_payload_rejected():
    blob = make_blob()
    with pytest.raises(FormatError):
        restore_state(blob[:-9], *fresh(), {}, {}, {})
    with pytest.raises(FormatError):
        restore_state(blob[:10], *fresh(), {}, {}, {})


def test_trailing_bytes_rejected():
    blob = make_blob()
    with pytest.raises(FormatError):
        restore_state(blob + b"\x00", *fresh(), {}, {}, {})


def test_corrupt_header_rejected():
    blob = bytearray(make_blob())
    blob[16] = 0xFF  # header starts right after the fixed prefix
    with pytest.raises(FormatError):
        restore_state(bytes(blob), *fresh(), {}, {}, {})


def test_plan_mismatch_rejected():
    blob = make_blob()
    other = ToyModel.build(DIMS, uniform_plan(2, 3), Rng(3).child("model"))
    with pytest.raises(FormatError):
        restore_state(blob, other, make_optimizer("adam", other.trainable()), {}, {}, {})


def test_adapter_set_mismatch_rejected():
    blob = make_blob()
    other = ToyModel.build(DIMS, linear_plan(2, 2, 4), Rng(3).child("model"),
                           adapt_kinds=("wq", "wv"))
    with pytest.raises(FormatError):
        restore_state(blob, other, make_optimizer("adam", other.trainable()), {}, {}, {})


def test_optimizer_kind_mismatch_rejected():
    model, optimizer, ema_i, ema_l, rngs = populated_state()
    blob = capture_state(model, optimizer, ema_i, ema_l, 0, rngs)
    model2, _ = fresh()
    from prilora.errors import ConfigError

    with pytest.raises(ConfigError):
        restore_state(blob, model2, make_optimizer("sgd", model2.trainable()), {}, {}, {})


# -- malformed headers: rejected before any live object changes ----------------


def split_blob(blob):
    """The header of a blob and its tensors, by name, in payload order."""
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    fp = io.BytesIO(blob[16 + head_len :])
    return header, {name: read_tensor(fp).data for name in header["tensors"]}


def with_header(blob, header, tensors=None):
    """blob behind another header; the payload is the original unless given."""
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    head = json.dumps(header).encode("utf-8")
    if tensors is None:
        payload = blob[16 + head_len :]
    else:
        payload = b"".join(tensor_to_bytes(arr) for arr in tensors.values())
    return blob[:8] + struct.pack("<Q", len(head)) + head + payload


def restore_into_other_model(blob):
    """Restore into a model built from another seed, so any write would show.

    Returns the model's trainable tensors before and after, and the error."""
    model, optimizer = fresh(seed=4)
    ema_i = {"blocks.0.wq": EmaState.zeros(16)}
    rngs = {"data": Rng(9).child("data"), "prune": Rng(9).child("prune")}
    before = {k: t.data.copy() for k, t in model.trainable().items()}
    error = None
    try:
        restore_state(blob, model, optimizer, ema_i, {}, rngs)
    except FormatError as exc:
        error = exc
        assert list(ema_i) == ["blocks.0.wq"] and optimizer.t == 0
        assert rngs["data"].get_state() == Rng(9).child("data").get_state()
    after = {k: t.data for k, t in model.trainable().items()}
    return before, after, error


def assert_rejected_untouched(blob):
    before, after, error = restore_into_other_model(blob)
    assert error is not None, "malformed checkpoint was accepted"
    for name in before:
        assert np.array_equal(before[name], after[name]), name


BLOB = make_blob(step=5)
HEADER, TENSORS = split_blob(BLOB)
READ_FIELDS = ("step", "plan", "adapters", "ema_input", "ema_latent", "optimizer", "rng", "tensors")


def without_ema_input_tensors():
    kept = {k: v for k, v in TENSORS.items() if not k.startswith("ema_input/")}
    return with_header(BLOB, dict(HEADER, tensors=list(kept)), kept)


def edited(**fields):
    return with_header(BLOB, dict(HEADER, **fields))


MALFORMED = {
    "only_tensors_listed": lambda: with_header(BLOB, {"tensors": []}, {}),
    "tensors_not_a_list": lambda: with_header(BLOB, {"tensors": 5}),
    "header_not_an_object": lambda: with_header(BLOB, [HEADER]),
    "ema_input_tensors_missing": without_ema_input_tensors,
    "step_a_string": lambda: edited(step="5"),
    "step_negative": lambda: edited(step=-1),
    "decay_out_of_range": lambda: edited(ema_input=[dict(e, decay=1.5) for e in HEADER["ema_input"]]),
    "decay_a_string": lambda: edited(ema_input=[dict(e, decay="x") for e in HEADER["ema_input"]]),
    "adapter_name_a_list": lambda: edited(adapters=[dict(a, name=[1]) for a in HEADER["adapters"]]),
    "optimizer_slot_dropped": lambda: edited(optimizer=dict(HEADER["optimizer"], slots=["m"])),
    "optimizer_step_a_float": lambda: edited(optimizer=dict(HEADER["optimizer"], t=3.5)),
    "rng_state_incomplete": lambda: edited(rng=dict(HEADER["rng"], data={"seed": 0})),
    "rng_counter_negative": lambda: edited(
        rng=dict(HEADER["rng"], prune=dict(HEADER["rng"]["prune"], counter=[-1, 0, 0, 0]))
    ),
    "rng_buffer_pos_negative": lambda: edited(
        rng=dict(HEADER["rng"], data=dict(HEADER["rng"]["data"], buffer_pos=-1))
    ),
}


@pytest.mark.parametrize("field", READ_FIELDS)
def test_header_without_a_read_field_rejected(field):
    assert_rejected_untouched(with_header(BLOB, {k: v for k, v in HEADER.items() if k != field}))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_rejected_before_any_write(case):
    assert_rejected_untouched(MALFORMED[case]())


def test_real_header_round_trips_through_the_helpers():
    # guards the fixtures above: an unedited rebuild restores
    _, after, error = restore_into_other_model(with_header(BLOB, HEADER, TENSORS))
    assert error is None
    for name in after:
        assert np.array_equal(after[name], TENSORS[f"param/{name}"]), name


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(BLOB) - 1))
def test_fuzz_truncated_blob_rejected_untouched(cut):
    assert_rejected_untouched(BLOB[:cut])


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
