"""Dense fp64 tensors with reverse-mode gradients, counter-based randomness,
and a bit-exact serialization format.

The differentiable op set is closed-world: exactly what the training stack
composes (matmul/add and adapted_linear for affine maps, multi-head attention,
ReLU, softmax and its cross-entropy, layer norm, the pooled classifier head,
elementwise arithmetic, reductions, shape moves), none forming a gradient for
a frozen parent.
Everything is float64, row-major, which keeps gradient checks tight and
serialized payloads byte-identical.

Raw array storage and the matrix product itself are delegated to numpy; the
tape, the gradient rules, the random stream discipline, and the wire format
are owned here. The wire format has one parser, ``read_tensor``, which reads
from a stream.

At the training stack's small shapes numpy's cost per call and per short
reduction dominates, not FLOPs: adapted_linear folds its leading axes and
its adapter pair into one 2-D GEMM by the merged weight W0 + scale·B·A, and
layer norm and softmax sum their short rows as GEMVs against one cached ones
vector per length (softmax takes its row max from a transposed copy, which
is exact).

The tape links gradient nodes, not tensors. A node keeps the gradient,
``requires_grad``, the op's backward closure and its parents' nodes; the
tensor keeps the data and its node. Each op's closure saves only arrays its
backward reads and re-forms the rest from them (adapted_linear keeps its
input and re-forms its latent, relu keeps its output and re-forms its mask,
attention keeps q, k, v and its score rows' max and sum and re-forms its
probabilities, add and the shape moves keep nothing but shapes), so an
activation no closure saved is freed as soon as the forward drops its last
name. A first gradient that an op made fresh and C-ordered becomes the
node's gradient as it is; any other is copied to C order. So a node's
gradient is an array nothing else holds, and a closure owns the gradient it
is handed: relu, layer norm and softmax write theirs in place, and attention
reads its own in head order, with no copy.

``backward()`` uses up its graph: one backward per graph. As the reverse walk
leaves an interior node it drops that node's gradient, its closure (and with
it every array the op saved) and its parent links, so a step's saved
activations are freed as they are used, not when the step ends. Leaves keep
their gradients; a later backward that reaches a released node raises
``ParameterError``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
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
    "adapted_linear",
    "merged_weight",
    "attention",
    "add",
    "mul",
    "relu",
    "softmax",
    "layernorm",
    "pooled_head",
    "softmax_cross_entropy",
    "grad_check",
    "tensor_to_bytes",
    "read_tensor",
    "fingerprint",
    "batch_sum_squares",
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


class _Node:
    """What backward() needs of one tensor: its gradient, whether it wants
    one, the closure that routes that gradient to the parents, and the
    parents' nodes. A node holds no array of the forward."""

    __slots__ = ("grad", "requires_grad", "_backward", "_prev")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple[_Node, ...] = ()

    def take_grad(self) -> np.ndarray | None:
        """The gradient, taken off the node: whoever receives it holds the
        only reference."""
        g, self.grad = self.grad, None
        return g


def _on_node(name: str, doc: str) -> property:
    """A Tensor property that reads and writes its node's attribute name."""

    def set_(t: "Tensor", value) -> None:
        setattr(t._node, name, value)

    return property(operator.attrgetter(f"_node.{name}"), set_, doc=doc)


class Tensor:
    """A float64 array and the node that carries it on the gradient tape.

    Leaf tensors are created directly; interior ones by the op functions
    below. Each op saves what its backward reads, and only that: arrays of
    the forward where the gradient formula needs them, shapes otherwise. The
    closure it records, and the parent links, live on the node, so the tape
    keeps an interior tensor's data alive only where a closure saved it;
    the rest is freed once the forward drops its last name. ``backward()``
    on a scalar replays the closures in reverse topological order, releasing
    the graph as it goes. ``grad`` and ``requires_grad`` are the node's.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self._node = _Node(bool(requires_grad))

    grad = _on_node("grad", "The accumulated gradient; a leaf keeps it after backward().")
    requires_grad = _on_node("requires_grad", "Whether backward() routes a gradient here.")
    _backward = _on_node(
        "_backward", "The backward closure of the op that made this tensor, if any; a timing "
        "wrapper may rebind it.")

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
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        One backward per graph: an interior node's ``grad`` is taken off the
        node and handed to its closure, which owns it and may consume it in
        place; once the closure has run, the closure and the parent links are
        dropped, so interior gradients and saved activations are freed during
        the walk. Leaves keep their gradients. A later backward that reaches
        a released node with a gradient raises ``ParameterError``."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        root = self._node
        if not root.requires_grad:
            raise ParameterError("backward() on a tensor outside any gradient graph")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.take_grad())  # the closure holds g's only reference
            # what the closure saved and the parent links go now
            node._backward, node._prev = _released, ()

    # Operator sugar; every overload routes to the module-level op.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _released(g: np.ndarray) -> None:
    raise ParameterError("graph already released by an earlier backward()")


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[_Node, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        node = out._node
        node.requires_grad = True
        node._prev = parents
        node._backward = backward
    return out


def _accum(node: _Node, g: np.ndarray, fresh: bool) -> None:
    """Add g into node's gradient. A first gradient is adopted when the op
    says g is fresh: a C-contiguous array that nothing else reads or writes.
    Any other first gradient is copied to C order, since g's strides would
    change how later products sum; so is a 0-d one, which a ufunc returns as
    a numpy scalar."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g if fresh and g.ndim else np.array(g, copy=True, order="C")
    else:
        node.grad += g


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
    (an, a_shape), (bn, b_shape) = (a._node, a.shape), (b._node, b.shape)

    def backward(g: np.ndarray) -> None:
        if an.requires_grad:
            _accum(an, _unbroadcast(g, a_shape), True)
        if bn.requires_grad:
            # g itself goes to one parent only: two would share one array
            gb = _unbroadcast(g, b_shape)
            _accum(bn, gb, gb is not g or not an.requires_grad)

    return _make(data, (an, bn), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes do not broadcast: {a.shape} * {b.shape}") from None

    ad, bd, an, bn = a.data, b.data, a._node, b._node

    def backward(g: np.ndarray) -> None:
        if an.requires_grad:
            _accum(an, _unbroadcast(g * bd, ad.shape), True)
        if bn.requires_grad:
            _accum(bn, _unbroadcast(g * ad, bd.shape), True)

    return _make(data, (an, bn), backward)


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

    ad, bd, an, bn = a.data, b.data, a._node, b._node

    def backward(g: np.ndarray) -> None:
        if an.requires_grad:
            _accum(an, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape), True)
        if bn.requires_grad:
            _accum(bn, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape), True)

    return _make(data, (an, bn), backward)


def _scaled(a: np.ndarray, scale: float) -> np.ndarray:
    """a *= scale in place, skipped at scale 1; returns a."""
    if scale != 1.0:
        a *= scale
    return a


def merged_weight(W0: Tensor, A: Tensor, B: Tensor, scale: float) -> np.ndarray:
    """W0 + scale * B @ A as a new array: the one merge formula, which
    adapted_linear and adapter.merge both apply."""
    w = _scaled(B.data @ A.data, scale)
    w += W0.data
    return w


def adapted_linear(x, W0: Tensor, A: Tensor, B: Tensor, scale: float) -> Tensor:
    """x @ (W0 + scale * B @ A)^T as one tape node; W0 gets no gradient.

    The leading axes of x fold into one, and the pair folds into the frozen
    weight first (d1·r·d2 multiply-adds), so the forward is one 2-D GEMM over
    x, as is dx in backward.
    The node keeps only x (for dA) and re-forms the rest in backward: the
    merged weight from the live W0, A and B, the latent x @ A^T (rows x
    rank) for dB, formed as (latent^T @ g)^T, which OpenBLAS runs faster
    than g^T @ latent, and g @ B for dA; dA and dB take their scale last, at
    the factors' own shapes. Every multiply by scale is skipped at scale 1."""
    x = _as_tensor(x)
    x_shape, xn, an, bn = x.shape, x._node, A._node, B._node
    # exact shapes, x of 2-D or more: W0 would otherwise broadcast against B @ A
    a, b = A.data.shape, B.data.shape
    if len(x_shape) < 2 or not (len(a) == len(b) == 2 and b[1] == a[0]
                                and W0.data.shape == (b[0], a[1]) and x_shape[-1] == a[1]):
        raise ShapeError(f"adapted_linear: x {x_shape}, W0 {W0.shape}, A {A.shape} and B "
                         f"{B.shape} do not fit")
    x2 = x.data.reshape(-1, x_shape[-1])
    data = x2 @ merged_weight(W0, A, B, scale).T
    d_out = data.shape[1]

    def backward(g: np.ndarray) -> None:
        g = g.reshape(-1, d_out)
        if xn.requires_grad:
            _accum(xn, (g @ merged_weight(W0, A, B, scale)).reshape(x_shape), True)
        if bn.requires_grad:
            latent = x2 @ A.data.T
            _accum(bn, _scaled((latent.T @ g).T, scale), False)
        if an.requires_grad:
            _accum(an, _scaled((g @ B.data).T @ x2, scale), True)

    return _make(data.reshape(*x_shape[:-1], d_out), (xn, an, bn), backward)


def relu(a) -> Tensor:
    """max(a, 0); backward forms its mask from this output, > 0 exactly where
    a is (NaN included), so the node keeps no array its consumer does not."""
    a = _as_tensor(a)
    an = a._node
    data = np.maximum(a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        g *= data > 0.0  # in place; the bool mask casts to the same 0.0 and 1.0 factors
        _accum(an, g, True)

    return _make(data, (an,), backward)


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}") from None

    a_shape, an = a.shape, a._node

    def backward(g: np.ndarray) -> None:
        _accum(an, g.reshape(a_shape), True)  # a view of g, which only this walk holds

    return _make(data, (an,), backward)


def _swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    data = np.swapaxes(a.data, axis1, axis2)
    an = a._node

    def backward(g: np.ndarray) -> None:
        _accum(an, np.swapaxes(g, axis1, axis2), False)

    return _make(data, (an,), backward)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    return tuple(ax % ndim for ax in axes)


def _reduce(a: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    if mean:
        data = a.data.mean(axis=axis, keepdims=keepdims)
    else:
        data = a.data.sum(axis=axis, keepdims=keepdims)
    a_shape, an = a.shape, a._node
    count = a.data.size if axis is None else int(np.prod([a_shape[ax] for ax in _normalize_axes(axis, a.ndim)]))

    def backward(g: np.ndarray) -> None:
        grad = g
        if not keepdims and axis is not None:
            axes = _normalize_axes(axis, len(a_shape))
            shape = tuple(1 if i in axes else s for i, s in enumerate(a_shape))
            grad = grad.reshape(shape)
        grad = np.broadcast_to(grad, a_shape)
        _accum(an, grad / count if mean else grad, False)

    return _make(data, (an,), backward)


# Row reductions of a 2-D array. numpy reduces a short last axis several
# times slower per element than a long one, so a sum runs as a GEMV and a max
# over a transposed copy; max is exact, so _row_max has the bits of .max(-1).


@functools.cache
def ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, made once per length: the GEMV operand of
    every row and column sum."""
    v = np.ones(n)
    v.flags.writeable = False
    return v


def _row_sums(a2: np.ndarray) -> np.ndarray:
    return a2 @ ones(a2.shape[-1])


def _row_max(a2: np.ndarray) -> np.ndarray:
    return a2.T.copy().max(axis=0)


def batch_sum_squares(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-feature sum of squares over every axis but the last, written to
    out when given; the column sums run as one GEMV."""
    arr = arr.reshape(-1, arr.shape[-1])
    return np.matmul(ones(arr.shape[0]), arr * arr, out=out)


def _softmax_rows(s: np.ndarray, stats=None) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis of the C-ordered s, in place, with the row
    reductions above: subtract each row's max, exponentiate, divide by the
    row's sum. Returns (max, sum); handed them back as stats with the same
    scores, it re-forms the same bits without reducing."""
    s2 = s.reshape(-1, s.shape[-1])
    row_max, row_sum = stats or (_row_max(s2), None)
    s2 -= row_max[:, None]
    np.exp(s2, out=s2)
    if row_sum is None:
        row_sum = _row_sums(s2)
    s2 /= row_sum[:, None]
    return row_max, row_sum


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gradient at softmax's input, given g at its output p, written
    into g."""
    n = p.shape[-1]
    inner = _row_sums((g * p).reshape(-1, n)).reshape(*p.shape[:-1], 1)
    g -= inner
    g *= p
    return g


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    data = a.data.copy()
    _softmax_rows(data)
    an = a._node

    def backward(g: np.ndarray) -> None:
        _accum(an, _softmax_backward(g, data), True)

    return _make(data, (an,), backward)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node: q, k and v
    are (batch, position, width); each head's softmax(q kᵀ / √dh) v, heads
    merged back to (batch, position, width).

    The numpy calls and their order are the reshape/swapaxes/matmul/mul/
    softmax composition's, so the two agree bit for bit. The node keeps q,
    k and v and each score row's max and sum (batch·heads·position floats
    each), not the (batch, heads, position, position) probabilities:
    backward re-forms them by the same calls on the same operands, so they
    keep their bits (FlashAttention's trade, Dao et al. 2022), and a training
    step holds one layer's scores at a time. The output and dq, dk and dv
    are each written straight into the merged layout."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs equal 3-D q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    b, n, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    split, scale = (b, n, heads, d // heads), (d // heads) ** -0.5
    qh, kh, vh = (np.swapaxes(t.data.reshape(split), 1, 2) for t in (q, k, v))

    def probs(stats=None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        p = qh @ np.swapaxes(kh, -1, -2)
        p *= scale
        return p, _softmax_rows(p, stats)

    def merged_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty((b, n, d))
        np.matmul(x, y, out=np.swapaxes(out.reshape(split), 1, 2))
        return out

    p, stats = probs()
    data = merged_matmul(p, vh)
    qn, kn, vn = q._node, k._node, v._node

    def backward(g: np.ndarray) -> None:
        gh = np.swapaxes(g.reshape(split), 1, 2)
        p, _ = probs(stats)
        if qn.requires_grad or kn.requires_grad:
            gs = _softmax_backward(gh @ np.swapaxes(vh, -1, -2), p)
            gs *= scale
            if qn.requires_grad:
                _accum(qn, merged_matmul(gs, kh), True)
            if kn.requires_grad:
                _accum(kn, merged_matmul(np.swapaxes(gs, -1, -2), qh), True)
            del gs
        if vn.requires_grad:
            _accum(vn, merged_matmul(np.swapaxes(p, -1, -2), gh), True)

    return _make(data, (qn, kn, vn), backward)


_LAYERNORM_EPS = 1e-5  # the variance floor of layernorm and pooled_head


def _layernorm_rows(a2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of a2 normalized: (xhat, istd, sq), sq the centred rows'
    squares that the variance summed."""
    n = a2.shape[-1]
    xhat = a2 - (_row_sums(a2) / n)[:, None]
    sq = xhat * xhat
    istd = 1.0 / np.sqrt(_row_sums(sq) / n + _LAYERNORM_EPS)
    xhat *= istd[:, None]
    return xhat, istd, sq


def _layernorm_rows_backward(g2: np.ndarray, xhat: np.ndarray, istd: np.ndarray) -> np.ndarray:
    """The gradient at _layernorm_rows' input, given g2 at xhat, written
    into g2."""
    n = g2.shape[-1]
    gm = _row_sums(g2) / n
    t = g2 * xhat
    gx = _row_sums(t) / n
    np.multiply(xhat, gx[:, None], out=t)
    g2 -= gm[:, None]
    g2 -= t
    g2 *= istd[:, None]
    return g2


def layernorm(a, sumsq: np.ndarray | None = None) -> Tensor:
    """Normalize the last axis to zero mean, unit variance. No affine part.

    Row sums run as GEMVs over the input folded to 2-D. Given sumsq, a
    vector as wide as the last axis, it also writes there the output's sum
    of squares over every other axis, istd²ᵀ·(c∘c) from the centred input c
    the variance already squared; the squares are not kept for backward."""
    a = _as_tensor(a)
    a_shape, an = a.shape, a._node
    n = a_shape[-1]
    xhat, istd, sq = _layernorm_rows(a.data.reshape(-1, n))
    if sumsq is not None:
        try:
            np.matmul(istd * istd, sq, out=sumsq)
        except ValueError:
            raise ShapeError(f"layernorm: sumsq of shape {sumsq.shape} for input {a_shape}, "
                             f"not ({n},)") from None

    def backward(g: np.ndarray) -> None:
        _accum(an, _layernorm_rows_backward(g.reshape(-1, n), xhat, istd).reshape(a_shape), True)

    return _make(xhat.reshape(a_shape), (an,), backward)


def pooled_head(x, W: Tensor, b: Tensor) -> Tensor:
    """The classifier tail as one tape node: x (batch, position, width)
    mean-pooled over positions, layer-normed, then @ W^T + b.

    The numpy calls and their order are those of the mean/layernorm/
    transpose/matmul/add composition, so the two agree bit for bit."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.ndim != 3 or W.ndim != 2 or W.shape[1] != x.shape[-1] or b.shape != W.shape[:1]:
        raise ShapeError(f"pooled_head: x {x.shape}, W {W.shape} and b {b.shape} do not fit")
    x_shape, xn, wn, bn = x.shape, x._node, W._node, b._node
    n = x_shape[1]
    xhat, istd, _ = _layernorm_rows(x.data.mean(axis=1))
    data = xhat @ W.data.T + b.data

    def backward(g: np.ndarray) -> None:
        if bn.requires_grad:
            _accum(bn, g.sum(axis=0), True)
        if wn.requires_grad:
            _accum(wn, g.T @ xhat, True)
        if xn.requires_grad:
            g_pool = _layernorm_rows_backward(g @ W.data, xhat, istd)
            _accum(xn, np.broadcast_to((g_pool / n)[:, None, :], x_shape), False)

    return _make(data, (xn, wn, bn), backward)


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
    ln = logits._node

    def backward(g: np.ndarray) -> None:
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        _accum(ln, float(g) * p / m, True)

    return _make(data, (ln,), backward)


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
        """Move to a get_state() position. A field that is not its count of
        plain ints in range raises ParameterError before the stream changes;
        Philox itself does not check buffer_pos, the index into its buffer."""
        for name, count, bound in (("seed", 1, 2**64), ("counter", 4, 2**64), ("key", 2, 2**64),
                                   ("buffer", 4, 2**64), ("buffer_pos", 1, 5),
                                   ("has_uint32", 1, 2), ("uinteger", 1, 2**32)):
            words = state[name] if count > 1 else [state[name]]
            if not (type(words) is list and len(words) == count
                    and all(type(w) is int and 0 <= w < bound for w in words)):
                raise ParameterError(f"rng state {name} must be {count} int(s) in [0, {bound})")
        self.seed = state["seed"]
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(state["counter"], dtype=np.uint64),
                "key": np.array(state["key"], dtype=np.uint64),
            },
            "buffer": np.array(state["buffer"], dtype=np.uint64),
            "buffer_pos": state["buffer_pos"],
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }


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
