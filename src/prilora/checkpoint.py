"""Deterministic binary checkpoints for mid-training state.

A checkpoint holds everything needed to continue a run bit-for-bit: every
adapter factor, the classifier head, the EMA vector of each layer
``prune_engine.norm_widths`` names (saved as ``ema/<layer>``), the
optimizer's slots (``opt/<slot>/<param>``), random-stream positions, the
step counter, which is also the optimizer's, and the records of the prune
events since the last evaluation point, which that run's next point lists.
It also records every field of the run's ``TrainConfig`` and ``ModelDims``
and a digest of its task data; a resume under any other value of one is
refused, naming the field. The tensor names and shapes are the adapter
layout and the optimizer kind: a run that reads other tensors is refused.

Layout: magic, format version, a canonical JSON header (``config``,
``step``, ``rng``, ``events`` and ``tensors``; sorted keys, no whitespace),
the tensor payloads in the exact order the header lists, and the SHA-256 of
every byte before it. Because every piece is ordered
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
FORMAT_VERSION = 5
DIGEST_BYTES = 32  # the SHA-256 that ends the file
_SHOWN = 3  # differing tensor names a refusal lists before it counts the rest

__all__ = ["MAGIC", "FORMAT_VERSION", "capture_state", "restore_state"]


def _config(cfg, model, task: str) -> dict:
    """The run as the header records it: its config, dims and task digest."""
    return {"train": asdict(cfg), "dims": asdict(model.dims), "task": task}


def _tensors(model, optimizer, xbars: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """{name: live array} of every tensor a checkpoint of this run holds, in
    payload order."""
    params = model.trainable()
    tensors = {f"param/{pname}": t.data for pname, t in params.items()}
    tensors.update({f"ema/{name}": xbars[name] for name in sorted(xbars)})
    tensors.update({f"opt/{slot}/{pname}": views[pname]
                    for slot, views in optimizer.slots.items() for pname in params})
    return tensors


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
    tensors = _tensors(model, optimizer, xbars)
    header = {
        "config": _config(cfg, model, task),
        "step": int(step),
        "rng": {tag: rngs[tag].get_state() for tag in sorted(rngs)},
        "events": list(events),
        "tensors": list(tensors),
    }
    head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray(MAGIC)
    out += struct.pack("<IQ", FORMAT_VERSION, len(head_bytes))
    out += head_bytes
    for arr in tensors.values():
        out += tensor_to_bytes(arr)
    out += hashlib.sha256(out).digest()
    return bytes(out)


def _flat(obj, prefix: str = "") -> dict:
    """{dotted path: value} for every leaf of nested mappings; an empty
    mapping is a leaf, so a field holding one is a field."""
    if not isinstance(obj, dict) or not obj:
        return {prefix: obj}
    out: dict = {}
    for key, value in obj.items():
        out.update(_flat(value, f"{prefix}.{key}" if prefix else key))
    return out


def _parse(blob: bytes, live: Mapping[str, np.ndarray], config: dict) -> tuple[dict, dict]:
    """Header and tensors of a checkpoint, checked against the live run: the
    magic, version and digest, the type of each header field restore_state
    reads, the recorded config against the run's field by field, and exactly
    the run's tensors, each listed once and at its live shape, with finite,
    nonnegative EMA vectors."""
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
    if not isinstance(header, dict):
        raise FormatError("checkpoint header: expected an object")
    for key, kind in (("step", int), ("config", dict), ("rng", dict), ("events", list),
                      ("tensors", list)):
        if not isinstance(header.get(key), kind) or isinstance(header.get(key), bool):
            raise FormatError(f"checkpoint header: field {key!r} is missing or malformed")
    if not all(isinstance(event, dict) for event in header["events"]):
        raise FormatError("checkpoint header: every prune event record must be an object")
    if not all(isinstance(name, str) for name in header["tensors"]):
        raise FormatError("checkpoint header: the tensor list must hold names")

    saved = _flat(header["config"])
    live_config = _flat(json.loads(json.dumps(config)))  # tuples as lists, as saved
    for key in sorted(saved.keys() | live_config.keys()):
        if saved.get(key, ...) != live_config.get(key, ...):  # JSON holds no Ellipsis
            raise FormatError(
                f"checkpoint was saved with {key} = {saved.get(key, 'unset')!r}, "
                f"this run has {live_config.get(key, 'unset')!r}"
            )
    steps = config["train"]["steps"]
    if not 0 <= header["step"] <= steps:
        raise FormatError(f"checkpoint step {header['step']} lies outside the run's [0, {steps}]")

    fp = io.BytesIO(body[head_end:])
    arrays: dict[str, np.ndarray] = {}
    for name in header["tensors"]:
        try:
            arrays[name] = read_tensor(fp).data
        except ShapeError as exc:
            raise FormatError(f"checkpoint tensor {name}: {exc}") from None
    if fp.read(1):
        raise FormatError("trailing bytes after checkpoint payload")
    if len(arrays) != len(header["tensors"]):
        raise FormatError("checkpoint header lists a tensor name twice")

    if set(arrays) != set(live):
        differ = sorted(set(arrays) ^ set(live))
        more = f" and {len(differ) - _SHOWN} more" if len(differ) > _SHOWN else ""
        raise FormatError(f"checkpoint tensors differ from the run's: "
                          f"{', '.join(differ[:_SHOWN])}{more}")
    for key, arr in live.items():
        got = arrays[key]
        if got.shape != arr.shape:
            raise FormatError(f"tensor {key}: saved shape {got.shape} != live {arr.shape}")
        if key.startswith("ema/") and not (np.isfinite(got).all() and (got >= 0).all()):
            raise FormatError(f"checkpoint {key}: EMA entries must be finite and nonnegative")
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

    xbars must hold the run's EMA vector for each layer norm_widths names;
    tensors, optimizer slots and EMA vectors are written in place, so
    bindings and views stay valid. A checkpoint saved under another
    TrainConfig than cfg, another ModelDims than the model's or another task
    digest than task, one whose tensors differ from the run's by name or
    shape (another adapter layout or optimizer kind), a corrupted one, or
    one that lacks a random stream the run needs, is refused. Every check
    runs before the first write, so a rejected checkpoint leaves the live
    objects as they were.
    """
    live = _tensors(model, optimizer, xbars)
    header, arrays = _parse(blob, live, _config(cfg, model, task))

    saved_rng = {tag: header["rng"].get(tag, {}) for tag in rngs}  # a missing one fails below
    for tag, state in saved_rng.items():
        try:
            Rng(0).set_state(state)  # a scratch stream, so a bad state fails before any write
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"checkpoint rng state {tag!r}: {exc!r}") from None

    # writes start here
    for key, arr in live.items():
        arr[...] = arrays[key]
    for tag, state in saved_rng.items():
        rngs[tag].set_state(state)
    return header["step"], header["events"]
