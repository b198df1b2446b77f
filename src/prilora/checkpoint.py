"""Deterministic binary checkpoints for mid-training state.

A checkpoint holds everything needed to continue a run bit-for-bit: the
rank plan, every adapter factor, the classifier head, per-layer EMA norm
states, optimizer slots, random-stream positions, and the step counter.

Layout: magic, format version, a canonical JSON header (sorted keys, no
whitespace), then tensor payloads in the exact order the header lists.
Because every piece is ordered deterministically, save -> load -> save
reproduces identical bytes.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Mapping

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
from .numerics import Rng, read_tensor, tensor_to_bytes
from .prune_engine import EmaState

MAGIC = b"PRLC"
FORMAT_VERSION = 1

__all__ = ["MAGIC", "FORMAT_VERSION", "capture_state", "restore_state"]


def capture_state(
    model,
    optimizer,
    ema_input: Mapping[str, EmaState],
    ema_latent: Mapping[str, EmaState],
    step: int,
    rngs: Mapping[str, Rng],
) -> bytes:
    params = model.trainable()
    opt_state = optimizer.state_dict()

    emas = {"ema_input": ema_input, "ema_latent": ema_latent}
    tensors: list[tuple[str, np.ndarray]] = []
    for pname, t in params.items():
        tensors.append((f"param/{pname}", t.data))
    for group, states in emas.items():
        for name in sorted(states):
            tensors.append((f"{group}/{name}", states[name].xbar))
    for slot in opt_state["slots"]:
        for pname in params:
            tensors.append((f"opt/{slot}/{pname}", opt_state[slot][pname]))

    header = {
        "format_version": FORMAT_VERSION,
        "step": int(step),
        "plan": {
            "ranks": list(model.plan.ranks),
            "budget_avg": model.plan.budget_avg,
        },
        "adapters": [
            {
                "name": name,
                "rank": pair.rank,
                "scale": pair.scale,
                "frozen_ref": pair.frozen_ref,
            }
            for name, pair in model.adapters.items()
        ],
        "optimizer": {"kind": opt_state["kind"], "t": opt_state["t"], "slots": list(opt_state["slots"])},
        "rng": {tag: rngs[tag].get_state() for tag in sorted(rngs)},
        "tensors": [name for name, _ in tensors],
    }
    for group, states in emas.items():
        header[group] = [{"name": name, "decay": states[name].decay} for name in sorted(states)]
    head_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<Q", len(head_bytes))
    out += head_bytes
    for _, arr in tensors:
        out += tensor_to_bytes(arr)
    return bytes(out)


def _fields(obj, **types) -> dict:
    """obj, which must be a mapping holding a value of each given type (no bools)."""
    if not isinstance(obj, dict):
        raise FormatError("checkpoint header: expected an object")
    for key, kind in types.items():
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            raise FormatError(f"checkpoint header: field {key!r} is missing or malformed")
    return obj


def _parse(blob: bytes, model) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a checkpoint, checked against the live model: the
    type of each header field restore_state reads, the plan and adapter layout,
    and every tensor it reads (parameter and optimizer ones at live shapes)."""
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError("not a checkpoint: bad magic")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {version}")
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    head_end = 16 + head_len
    if len(blob) < head_end:
        raise FormatError("checkpoint truncated inside header")
    try:
        header = json.loads(blob[16:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from None
    _fields(header, step=int, plan=dict, adapters=list, ema_input=list, ema_latent=list,
            optimizer=dict, rng=dict, tensors=list)
    _fields(header["plan"], ranks=list)
    opt = _fields(header["optimizer"], kind=str, t=int, slots=list)
    for entry in header["adapters"]:
        _fields(entry, name=str, rank=int)
    for entry in header["ema_input"] + header["ema_latent"]:
        _fields(entry, name=str, decay=(int, float))
    if min(header["step"], opt["t"]) < 0:
        raise FormatError("checkpoint header: negative step count")
    if not all(isinstance(name, str) for name in opt["slots"] + header["tensors"]):
        raise FormatError("checkpoint header: slot and tensor lists must hold names")

    if list(model.plan.ranks) != header["plan"]["ranks"]:
        raise FormatError(
            f"checkpoint plan {header['plan']['ranks']} does not match model "
            f"plan {list(model.plan.ranks)}"
        )
    saved_adapters = {entry["name"]: entry for entry in header["adapters"]}
    if set(saved_adapters) != set(model.adapters):
        raise FormatError("checkpoint adapter set does not match the model")
    for name, pair in model.adapters.items():
        if saved_adapters[name]["rank"] != pair.rank:
            raise FormatError(f"adapter {name}: rank mismatch")

    fp = io.BytesIO(blob[head_end:])
    arrays: dict[str, np.ndarray] = {}
    for name in header["tensors"]:
        try:
            arrays[name] = read_tensor(fp).data
        except ShapeError as exc:
            raise FormatError(f"checkpoint tensor {name}: {exc}") from None
    if fp.read(1):
        raise FormatError("trailing bytes after checkpoint payload")

    # every tensor restore_state reads, at its live shape (EMA widths unpinned)
    params = model.trainable()
    needed = {f"param/{pname}": t.shape for pname, t in params.items()}
    needed.update({f"opt/{slot}/{p}": t.shape for slot in opt["slots"] for p, t in params.items()})
    needed.update({f"{g}/{e['name']}": None for g in ("ema_input", "ema_latent") for e in header[g]})
    for key, shape in needed.items():
        if key not in arrays:
            raise FormatError(f"checkpoint is missing tensor {key}")
        if shape not in (None, arrays[key].shape):
            raise FormatError(f"tensor {key}: saved shape {arrays[key].shape} != live {shape}")
    return header, arrays


def restore_state(
    blob: bytes,
    model,
    optimizer,
    ema_input: dict[str, EmaState],
    ema_latent: dict[str, EmaState],
    rngs: Mapping[str, Rng],
) -> int:
    """Load a checkpoint into live objects; returns the stored step.

    The model must already be built with the same plan and adapter layout;
    tensors are written in place so optimizer bindings stay valid. Every
    check runs before the first write, so a rejected checkpoint leaves the
    live objects as they were.
    """
    header, arrays = _parse(blob, model)
    params = model.trainable()

    live_emas = {"ema_input": ema_input, "ema_latent": ema_latent}
    emas: dict[str, dict[str, EmaState]] = {group: {} for group in live_emas}
    for group, states in emas.items():
        for entry in header[group]:
            key = f"{group}/{entry['name']}"
            try:
                states[entry["name"]] = EmaState(arrays[key], decay=entry["decay"])
            except (ShapeError, ParameterError) as exc:
                raise FormatError(f"checkpoint {key}: {exc}") from None
    saved_rng = {tag: state for tag, state in header["rng"].items() if tag in rngs}
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
    for group, live in live_emas.items():
        live.clear()
        live.update(emas[group])
    for tag, state in saved_rng.items():
        rngs[tag].set_state(state)
    return header["step"]
