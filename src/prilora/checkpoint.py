"""Deterministic binary checkpoints for mid-training state.

A checkpoint holds everything needed to continue a run bit-for-bit: every
adapter factor, the classifier head, the EMA vector of each layer
``prune_engine.norm_widths`` names (saved as ``ema/<layer>``), optimizer
slots, random-stream positions, the step counter, and the records of the
prune events since the last evaluation point, which that run's next point
lists. It also records every
field of the run's ``TrainConfig`` and ``ModelDims`` and a digest of its task
data; a resume under any other value of one is refused, naming the field.

Layout: magic, format version, a canonical JSON header (sorted keys, no
whitespace), the tensor payloads in the exact order the header lists, and
the SHA-256 of every byte before it. Because every piece is ordered
deterministically, save -> load -> save reproduces identical bytes; a
corrupted or truncated file fails the digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np

from .errors import FormatError, ShapeError
from .numerics import Rng, read_tensor, tensor_to_bytes

MAGIC = b"PRLC"
FORMAT_VERSION = 4
DIGEST_BYTES = 32  # the SHA-256 that ends the file

__all__ = ["MAGIC", "FORMAT_VERSION", "capture_state", "restore_state"]


def _record(cfg, model, task: str) -> dict:
    """The run as the header records it: its config, dims, task digest and
    adapter ranks."""
    return {
        "config": {"train": asdict(cfg), "dims": asdict(model.dims), "task": task},
        "adapters": [{"name": name, "rank": pair.rank} for name, pair in model.adapters.items()],
    }


def capture_state(
    model,
    optimizer,
    xbars: Mapping[str, np.ndarray],
    cfg,
    step: int,
    rngs: Mapping[str, Rng],
    task: str,
    events: Sequence[dict] = (),
) -> bytes:
    """The run's state as checkpoint bytes; cfg is the TrainConfig it runs
    under, xbars its EMA vector for each layer norm_widths names, task the
    fingerprint of its task data and events the prune event records its next
    evaluation point is to list."""
    params = model.trainable()
    opt_state = optimizer.state_dict()

    tensors = [(f"param/{pname}", t.data) for pname, t in params.items()]
    tensors += [(f"ema/{name}", xbars[name]) for name in sorted(xbars)]
    for slot in opt_state["slots"]:
        tensors += [(f"opt/{slot}/{pname}", opt_state[slot][pname]) for pname in params]

    header = {
        **_record(cfg, model, task),
        "step": int(step),
        "optimizer": {"kind": opt_state["kind"], "t": opt_state["t"], "slots": list(opt_state["slots"])},
        "rng": {tag: rngs[tag].get_state() for tag in sorted(rngs)},
        "events": list(events),
        "tensors": [name for name, _ in tensors],
    }
    head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray(MAGIC)
    out += struct.pack("<IQ", FORMAT_VERSION, len(head_bytes))
    out += head_bytes
    for _, arr in tensors:
        out += tensor_to_bytes(arr)
    out += hashlib.sha256(out).digest()
    return bytes(out)


def _fields(obj, **types) -> dict:
    """obj, which must be a mapping holding a value of each given type (no bools)."""
    if not isinstance(obj, dict):
        raise FormatError("checkpoint header: expected an object")
    for key, kind in types.items():
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            raise FormatError(f"checkpoint header: field {key!r} is missing or malformed")
    return obj


def _flat(obj, prefix: str = "") -> dict:
    """{dotted path: value} for every leaf of nested mappings."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out: dict = {}
    for key, value in obj.items():
        out.update(_flat(value, f"{prefix}.{key}" if prefix else key))
    return out


def _parse(blob: bytes, model, xbars, cfg, task: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a checkpoint, checked against the live run: the
    magic, version and digest, the type of each header field restore_state
    reads, the recorded config against cfg, the model's dims and task field
    by field, the adapter layout, and exactly the tensors the run reads,
    each at its live shape, with finite, nonnegative EMA vectors."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise FormatError("not a checkpoint: bad magic")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {version}")
    body = blob[:-DIGEST_BYTES]
    if len(blob) < 16 + DIGEST_BYTES or hashlib.sha256(body).digest() != blob[-DIGEST_BYTES:]:
        raise FormatError("checkpoint digest mismatch: the file is truncated or corrupted")
    (head_len,) = struct.unpack_from("<Q", body, 8)
    head_end = 16 + head_len
    if len(body) < head_end:
        raise FormatError("checkpoint truncated inside header")
    try:
        header = json.loads(body[16:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from None
    _fields(header, step=int, config=dict, adapters=list, optimizer=dict, rng=dict,
            events=list, tensors=list)
    if not all(isinstance(event, dict) for event in header["events"]):
        raise FormatError("checkpoint header: every prune event record must be an object")
    opt = _fields(header["optimizer"], kind=str, t=int, slots=list)
    if not all(isinstance(name, str) for name in opt["slots"] + header["tensors"]):
        raise FormatError("checkpoint header: slot and tensor lists must hold names")

    live = json.loads(json.dumps(_record(cfg, model, task)))  # tuples as lists, as saved
    saved, live_config = _flat(header["config"]), _flat(live["config"])
    for key in sorted(saved.keys() | live_config.keys()):
        if saved.get(key, ...) != live_config.get(key, ...):  # JSON holds no Ellipsis
            raise FormatError(
                f"checkpoint was saved with {key} = {saved.get(key, 'unset')!r}, "
                f"this run has {live_config.get(key, 'unset')!r}"
            )
    if not 0 <= header["step"] <= cfg.steps or opt["t"] < 0:
        raise FormatError(f"checkpoint step {header['step']} (optimizer step {opt['t']}) "
                          f"lies outside the run's [0, {cfg.steps}]")
    if header["adapters"] != live["adapters"]:
        raise FormatError("checkpoint adapter names and ranks do not match the model's")

    fp = io.BytesIO(body[head_end:])
    arrays: dict[str, np.ndarray] = {}
    for name in header["tensors"]:
        try:
            arrays[name] = read_tensor(fp).data
        except ShapeError as exc:
            raise FormatError(f"checkpoint tensor {name}: {exc}") from None
    if fp.read(1):
        raise FormatError("trailing bytes after checkpoint payload")

    params = model.trainable()
    needed = {f"param/{pname}": t.shape for pname, t in params.items()}
    needed.update({f"opt/{slot}/{p}": t.shape for slot in opt["slots"] for p, t in params.items()})
    needed.update({f"ema/{name}": xbar.shape for name, xbar in xbars.items()})
    if set(arrays) != set(needed):
        differ = sorted(set(arrays) ^ set(needed))
        raise FormatError(f"checkpoint tensors differ from the run's: {differ}")
    for key, shape in needed.items():
        if arrays[key].shape != shape:
            raise FormatError(f"tensor {key}: saved shape {arrays[key].shape} != live {shape}")
    for name in xbars:
        ema = arrays[f"ema/{name}"]
        if not (np.isfinite(ema).all() and (ema >= 0).all()):
            raise FormatError(f"checkpoint ema/{name}: EMA entries must be finite and nonnegative")
    return header, arrays


def restore_state(
    blob: bytes,
    model,
    optimizer,
    xbars: Mapping[str, np.ndarray],
    cfg,
    rngs: Mapping[str, Rng],
    task: str,
) -> tuple[int, list[dict]]:
    """Load a checkpoint into live objects; returns the stored step and the
    prune event records it carries.

    The model must already be built with the same plan and adapter layout,
    and xbars must hold its EMA vector for each layer norm_widths names;
    tensors and EMA vectors are written in place, so optimizer bindings and
    views stay valid. A checkpoint saved under another TrainConfig than cfg,
    another ModelDims than the model's or another task digest than task, a
    corrupted one, or one that lacks a random stream the run needs, is
    refused. Every check runs before the first write, so a rejected
    checkpoint leaves the live objects as they were.
    """
    header, arrays = _parse(blob, model, xbars, cfg, task)
    params = model.trainable()

    saved_rng = {tag: header["rng"].get(tag, {}) for tag in rngs}  # a missing one fails below
    for tag, state in saved_rng.items():
        try:
            Rng(0).set_state(state)  # a scratch stream, so a bad state fails before any write
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"checkpoint rng state {tag!r}: {exc!r}") from None
    opt_meta, live_opt = header["optimizer"], optimizer.state_dict()
    if opt_meta["kind"] == live_opt["kind"] and opt_meta["slots"] != live_opt["slots"]:
        raise FormatError(f"optimizer slots {opt_meta['slots']} != live {live_opt['slots']}")

    # writes start here; the optimizer goes first because it refuses a state
    # of another kind before touching anything
    loaded = {"kind": opt_meta["kind"], "t": opt_meta["t"], "slots": list(opt_meta["slots"])}
    for slot in opt_meta["slots"]:
        loaded[slot] = {pname: arrays[f"opt/{slot}/{pname}"] for pname in params}
    optimizer.load_state_dict(loaded)
    for pname, t in params.items():
        t.data[...] = arrays[f"param/{pname}"]
    for name, xbar in xbars.items():
        xbar[...] = arrays[f"ema/{name}"]
    for tag, state in saved_rng.items():
        rngs[tag].set_state(state)
    return header["step"], header["events"]
