"""Dense fp64 tensors with reverse-mode gradients, counter-based randomness,
and a bit-exact serialization format.

The differentiable op set is closed-world: exactly what the training stack
composes (affine maps via matmul/add, ReLU, softmax and softmax
cross-entropy, layer normalization, elementwise arithmetic, reductions, and
shape moves). Everything is float64 in row-major order, which keeps gradient
checks tight and serialized payloads byte-identical across runs.

Raw array storage and the matrix product itself are delegated to numpy; the
tape, the gradient rules, the random stream discipline, and the wire format
are owned here. The wire format has one parser, ``read_tensor``, which reads
from a stream; ``tensor_from_bytes`` runs it over an in-memory buffer.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

__all__ = [
    "Tensor",
    "Rng",
    "no_grad",
    "matmul",
    "add",
    "mul",
    "relu",
    "softmax",
    "layernorm",
    "softmax_cross_entropy",
    "gaussian",
    "grad_check",
    "tensor_to_bytes",
    "tensor_from_bytes",
    "write_tensor",
    "read_tensor",
    "fingerprint",
]

_grad_enabled: bool = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """A float64 array plus the reverse-mode bookkeeping to reach it.

    Leaf tensors are created directly; interior nodes are created by the op
    functions below, each of which records a backward closure that routes the
    incoming gradient to its parents. ``backward()`` on a scalar replays the
    closures in reverse topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            raise ParameterError("backward() on a tensor outside any gradient graph")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; every overload routes to the module-level op.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        return _swapaxes(self, axis1, axis2)

    def transpose(self) -> "Tensor":
        """Swap the last two axes (matrix transpose for 2-D tensors)."""
        if self.ndim < 2:
            raise ShapeError(f"transpose needs at least 2 axes, got shape {self.shape}")
        return _swapaxes(self, -1, -2)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)

    def relu(self) -> "Tensor":
        return relu(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes do not broadcast: {a.shape} + {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes do not broadcast: {a.shape} * {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with leading batch axes broadcast numpy-style."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D or higher operands: {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions do not broadcast: {a.shape} @ {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(data, (a, b), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * (a.data > 0.0))

    return _make(data, (a,), backward)


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}") from None

    def backward(g: np.ndarray) -> None:
        _accum(a, g.reshape(a.data.shape))

    return _make(data, (a,), backward)


def _swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    data = np.swapaxes(a.data, axis1, axis2)

    def backward(g: np.ndarray) -> None:
        _accum(a, np.swapaxes(g, axis1, axis2))

    return _make(data, (a,), backward)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    return tuple(ax % ndim for ax in axes)


def _reduce(a: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    if mean:
        data = a.data.mean(axis=axis, keepdims=keepdims)
    else:
        data = a.data.sum(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else int(np.prod([a.data.shape[ax] for ax in _normalize_axes(axis, a.data.ndim)]))

    def backward(g: np.ndarray) -> None:
        grad = g
        if not keepdims and axis is not None:
            axes = _normalize_axes(axis, a.data.ndim)
            shape = tuple(1 if i in axes else s for i, s in enumerate(a.data.shape))
            grad = grad.reshape(shape)
        grad = np.broadcast_to(grad, a.data.shape)
        _accum(a, grad / count if mean else np.array(grad, copy=True))

    return _make(data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, (g - inner) * data)

    return _make(data, (a,), backward)


def layernorm(a, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance. No affine part."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * istd

    def backward(g: np.ndarray) -> None:
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        _accum(a, istd * (g - gm - xhat * gx))

    return _make(xhat, (a,), backward)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy between row-wise softmax(logits) and integer labels."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects 2-D logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits rows {logits.shape}"
        )
    if labels.dtype.kind not in "iu":
        raise ParameterError("labels must be integers")
    m, c = logits.shape
    labels = labels.astype(np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ParameterError(f"labels must lie in [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(m)
    data = np.asarray(-logp[rows, labels].mean())

    def backward(g: np.ndarray) -> None:
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        _accum(logits, float(g) * p / m)

    return _make(data, (logits,), backward)


# ---------------------------------------------------------------------------
# Randomness


class Rng:
    """Deterministic random stream on a counter-based generator (Philox).

    The same seed and the same call sequence produce the same values on any
    platform; the full stream position is exposed for checkpointing. Derived
    streams (``child``) are keyed by hashing the parent seed with a tag, so
    independent consumers never share a stream.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self._bitgen = np.random.Philox(key=seed)
        self._gen = np.random.Generator(self._bitgen)

    def child(self, tag: str) -> "Rng":
        digest = hashlib.blake2s(f"{self.seed}/{tag}".encode("utf-8")).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise ParameterError(f"std must be nonnegative, got {std}")
        if std == 0:
            return np.full(shape, float(mean), dtype=np.float64)
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def get_state(self) -> dict:
        raw = self._bitgen.state
        return {
            "seed": self.seed,
            "counter": [int(v) for v in raw["state"]["counter"]],
            "key": [int(v) for v in raw["state"]["key"]],
            "buffer": [int(v) for v in raw["buffer"]],
            "buffer_pos": int(raw["buffer_pos"]),
            "has_uint32": int(raw["has_uint32"]),
            "uinteger": int(raw["uinteger"]),
        }

    def set_state(self, state: dict) -> None:
        # Philox indexes its four-word buffer with this and does not check it
        if not 0 <= int(state["buffer_pos"]) <= 4:
            raise ParameterError(f"buffer position must lie in [0, 4], got {state['buffer_pos']}")
        self.seed = int(state["seed"])
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(state["counter"], dtype=np.uint64),
                "key": np.array(state["key"], dtype=np.uint64),
            },
            "buffer": np.array(state["buffer"], dtype=np.uint64),
            "buffer_pos": int(state["buffer_pos"]),
            "has_uint32": int(state["has_uint32"]),
            "uinteger": int(state["uinteger"]),
        }


def gaussian(rng: Rng, shape, mean: float = 0.0, std: float = 1.0) -> Tensor:
    """I.i.d. normal samples as a constant tensor; reproducible per seed."""
    return Tensor(rng.normal(shape, mean, std))


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic scalar-valued closure over ``params``.
    Returns the max over all parameter entries of
    ``|analytic - central| / max(|central|, 1e-8)``.
    """
    if not 0.0 < eps <= 1e-3:
        raise ParameterError(f"eps must lie in (0, 1e-3], got {eps}")
    params = list(params)
    for p in params:
        p.grad = None
    out = f()
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: function value is not finite")
    if out.requires_grad:
        out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    def probe() -> float:
        with no_grad():
            value = f().item()
        if not math.isfinite(value):
            raise NumericError("grad_check: perturbed function value is not finite")
        return value

    worst = 0.0
    for p, g in zip(params, analytic):
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = probe()
            p.data[idx] = orig - eps
            f_minus = probe()
            p.data[idx] = orig
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(g[idx] - central) / max(abs(central), 1e-8)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Serialization: little-endian fp64 payload behind a shape header.
# Layout: u32 ndim, then ndim x u64 extents, then row-major f64 data.


def tensor_to_bytes(t: Tensor | np.ndarray) -> bytes:
    arr = _as_array(t.data if isinstance(t, Tensor) else t)
    if arr.ndim:
        # ascontiguousarray would silently promote 0-d to 1-d
        arr = np.ascontiguousarray(arr)
    header = struct.pack("<I", arr.ndim)
    header += b"".join(struct.pack("<Q", extent) for extent in arr.shape)
    return header + arr.astype("<f8").tobytes(order="C")


def tensor_from_bytes(buf: bytes | memoryview) -> Tensor:
    fp = io.BytesIO(buf)
    t = read_tensor(fp)
    extra = len(fp.read())
    if extra:
        raise ShapeError(f"trailing bytes after tensor payload: {extra}")
    return t


def write_tensor(fp: BinaryIO, t: Tensor | np.ndarray) -> None:
    fp.write(tensor_to_bytes(t))


def read_tensor(fp: BinaryIO) -> Tensor:
    head = fp.read(4)
    if len(head) < 4:
        raise ShapeError("tensor payload truncated before shape header")
    (ndim,) = struct.unpack("<I", head)
    shape_bytes = fp.read(8 * ndim)
    if len(shape_bytes) < 8 * ndim:
        raise ShapeError("tensor payload truncated inside shape header")
    shape = struct.unpack(f"<{ndim}Q" if ndim else "", shape_bytes)
    count = math.prod(shape)
    if max((count, *shape)) >= 2**60:
        raise ShapeError(f"tensor shape {shape} lies past the index range")
    payload = fp.read(8 * count)
    if len(payload) < 8 * count:
        raise ShapeError("tensor payload truncated inside data section")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Tensor(data.reshape(shape))


def fingerprint(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the concatenated row-major bytes of ``arrays``."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(tensor_to_bytes(arr))
    return h.hexdigest()
