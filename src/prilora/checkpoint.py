"""Deterministic binary checkpoints for mid-training state.

A checkpoint holds everything needed to continue a run bit-for-bit: the
rank plan, every adapter factor, the classifier head, per-layer EMA norm
vectors, optimizer slots, random-stream positions, and the step counter.

The EMA vectors are saved under the norms the run tracks
(``prune_engine.tracked_norms``): ``ema_input`` for input norms,
``ema_latent`` for latent norms; the other group stays empty, and each entry
records the run's decay. A resume whose config tracks other norms or uses
another decay is refused.

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

from .errors import FormatError, ShapeError
from .numerics import Rng, read_tensor, tensor_to_bytes

MAGIC = b"PRLC"
FORMAT_VERSION = 1
EMA_GROUPS = {"input": "ema_input", "latent": "ema_latent"}

__all__ = ["MAGIC", "FORMAT_VERSION", "capture_state", "restore_state"]


def capture_state(
    model,
    optimizer,
    xbars: Mapping[str, np.ndarray],
    norms: str | None,
    decay: float,
    step: int,
    rngs: Mapping[str, Rng],
) -> bytes:
    """The run's state as checkpoint bytes; xbars holds its EMA of the norms
    it tracks (norms, as tracked_norms names them), each stepped with decay."""
    params = model.trainable()
    opt_state = optimizer.state_dict()

    emas = {group: xbars if source == norms else {} for source, group in EMA_GROUPS.items()}
    tensors: list[tuple[str, np.ndarray]] = []
    for pname, t in params.items():
        tensors.append((f"param/{pname}", t.data))
    for group, states in emas.items():
        for name in sorted(states):
            tensors.append((f"{group}/{name}", states[name]))
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
        header[group] = [{"name": name, "decay": decay} for name in sorted(states)]
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


def _parse(
    blob: bytes, model, norms: str | None, decay: float
) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a checkpoint, checked against the live run: the
    type of each header field restore_state reads, the plan and adapter layout,
    and every tensor it reads at its live shape. An EMA entry must name a live
    adapter, hold its input width (or its rank for the latent) in finite,
    nonnegative values, sit in the group of the norms the run tracks and carry
    the run's decay; past step 0 (or with any entry) every adapter needs one."""
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

    params = model.trainable()
    needed = {f"param/{pname}": t.shape for pname, t in params.items()}
    needed.update({f"opt/{slot}/{p}": t.shape for slot in opt["slots"] for p, t in params.items()})
    emas = {
        f"{group}/{entry['name']}": (source, entry)
        for source, group in EMA_GROUPS.items()
        for entry in header[group]
    }
    for key, (source, entry) in emas.items():
        pair = model.adapters.get(entry["name"])
        if pair is None:
            raise FormatError(f"checkpoint {key}: no such adapter")
        needed[key] = (pair.d2 if source == "input" else pair.rank,)
    for key, shape in needed.items():
        if key not in arrays:
            raise FormatError(f"checkpoint is missing tensor {key}")
        if arrays[key].shape != shape:
            raise FormatError(f"tensor {key}: saved shape {arrays[key].shape} != live {shape}")
    for key, (source, entry) in emas.items():
        if not (np.isfinite(arrays[key]).all() and (arrays[key] >= 0).all()):
            raise FormatError(f"checkpoint {key}: EMA entries must be finite and nonnegative")
        if source != norms:
            raise FormatError(f"checkpoint {key}: this run tracks {norms or 'no'} norms")
        if entry["decay"] != decay:
            raise FormatError(f"checkpoint {key}: decay {entry['decay']} != the run's {decay}")
    if norms is not None and (header["step"] > 0 or emas) and len(emas) != len(model.adapters):
        raise FormatError(f"checkpoint holds {len(emas)} EMA entries for {len(model.adapters)} adapters")
    return header, arrays


def restore_state(
    blob: bytes,
    model,
    optimizer,
    xbars: dict[str, np.ndarray],
    norms: str | None,
    decay: float,
    rngs: Mapping[str, Rng],
) -> int:
    """Load a checkpoint into live objects; returns the stored step.

    The model must already be built with the same plan and adapter layout;
    tensors are written in place so optimizer bindings stay valid. xbars
    receives the saved EMA vectors; a checkpoint that tracks other norms than
    norms, another decay than decay, or lacks an EMA entry or random stream
    the run needs, is refused. Every check runs before the first write, so a
    rejected checkpoint leaves the live objects as they were.
    """
    header, arrays = _parse(blob, model, norms, decay)
    params = model.trainable()

    # _parse refused any entry outside the run's group, so this is that group
    saved_xbars = {
        entry["name"]: arrays[f"{group}/{entry['name']}"]
        for group in EMA_GROUPS.values()
        for entry in header[group]
    }
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
    xbars.clear()
    xbars.update(saved_xbars)
    for tag, state in saved_rng.items():
        rngs[tag].set_state(state)
    return header["step"]
