"""Tensor ops, gradients, random streams, and the serialization format."""

import io
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora import numerics
from prilora.errors import NumericError, ParameterError, ShapeError
from prilora.numerics import (
    Rng,
    Tensor,
    grad_check,
    no_grad,
    read_tensor,
    tensor_to_bytes,
)


def rand(shape, seed=0):
    return Rng(seed).child(f"t/{shape}").normal(shape)


# ---------------------------------------------------------------------------
# Forward values against numpy


def test_add_mul_forward_match_numpy():
    a, b = rand((3, 4), 1), rand((3, 4), 2)
    assert np.array_equal((Tensor(a) + Tensor(b)).data, a + b)
    assert np.array_equal((Tensor(a) * Tensor(b)).data, a * b)
    assert np.array_equal((Tensor(a) - Tensor(b)).data, a - b)
    assert np.array_equal((-Tensor(a)).data, -a)
    assert np.array_equal((2.0 * Tensor(a)).data, 2.0 * a)


def test_matmul_matches_triple_loop_oracle():
    a, b = rand((4, 3), 3), rand((3, 5), 4)
    out = numerics.matmul(Tensor(a), Tensor(b)).data
    oracle = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for k in range(3):
                oracle[i, j] += a[i, k] * b[k, j]
    assert np.abs(out - oracle).max() < 1e-12


def test_matmul_batched():
    a, b = rand((2, 4, 3), 5), rand((2, 3, 5), 6)
    out = numerics.matmul(Tensor(a), Tensor(b)).data
    assert np.array_equal(out, a @ b)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        numerics.matmul(Tensor(rand((3, 4))), Tensor(rand((5, 2))))
    with pytest.raises(ShapeError):
        numerics.matmul(Tensor(rand((3,))), Tensor(rand((3, 2))))


def test_softmax_rows_normalized():
    s = numerics.softmax(Tensor(rand((6, 5)))).data
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12
    assert (s > 0).all()


def test_softmax_shift_invariant():
    x = rand((4, 7))
    a = numerics.softmax(Tensor(x)).data
    b = numerics.softmax(Tensor(x + 1000.0)).data
    assert np.abs(a - b).max() < 1e-12


def test_layernorm_statistics():
    y = numerics.layernorm(Tensor(rand((3, 5, 8)))).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-12
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4


def test_cross_entropy_matches_manual():
    logits = rand((5, 3), 7)
    labels = np.array([0, 2, 1, 1, 0])
    out = numerics.softmax_cross_entropy(Tensor(logits), labels).item()
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    manual = -np.log(p[np.arange(5), labels]).mean()
    assert abs(out - manual) < 1e-12


def test_cross_entropy_validation():
    logits = Tensor(rand((4, 3)))
    with pytest.raises(ShapeError):
        numerics.softmax_cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ParameterError):
        numerics.softmax_cross_entropy(logits, np.array([0.5, 1.0, 0.0, 2.0]))
    with pytest.raises(ParameterError):
        numerics.softmax_cross_entropy(logits, np.array([0, 1, 3, 0]))


def test_reductions_match_numpy():
    x = rand((2, 3, 4), 8)
    assert abs(Tensor(x).sum().item() - x.sum()) < 1e-12
    assert abs(Tensor(x).mean().item() - x.mean()) < 1e-12
    assert np.abs(Tensor(x).sum(axis=1).data - x.sum(axis=1)).max() < 1e-12
    assert np.abs(Tensor(x).mean(axis=(0, 2), keepdims=True).data - x.mean(axis=(0, 2), keepdims=True)).max() < 1e-12


# ---------------------------------------------------------------------------
# Backward pass


def test_gradients_on_composite_expression():
    a = Tensor(rand((3, 4), 10), requires_grad=True)
    b = Tensor(rand((4, 5), 11), requires_grad=True)
    c = Tensor(rand((5,), 12), requires_grad=True)

    def f():
        h = numerics.relu(numerics.matmul(a, b) + c)
        return (h * h).mean()

    assert grad_check(f, [a, b, c]) < 1e-7


def test_gradients_through_attention_style_ops():
    q = Tensor(rand((2, 3, 4), 13), requires_grad=True)
    k = Tensor(rand((2, 3, 4), 14), requires_grad=True)
    # fixed projection keeps the scalar sensitive to every coordinate;
    # summing a layernorm row directly gives 0 and central differences see noise
    w = Tensor(rand((2, 9), 15))

    def f():
        scores = numerics.matmul(q, k.swapaxes(-1, -2))
        attn = numerics.softmax(scores)
        return (numerics.layernorm(attn.reshape(2, 9)) * w).sum(axis=1).mean()

    assert grad_check(f, [q, k]) < 1e-6


def test_gradient_of_cross_entropy_is_softmax_minus_onehot():
    logits = Tensor(rand((6, 4), 15), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 1, 2])
    loss = numerics.softmax_cross_entropy(logits, labels)
    loss.backward()
    p = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    assert np.abs(logits.grad - p / 6).max() < 1e-12


def test_broadcast_backward_sums_over_expanded_axes():
    bias = Tensor(np.ones(4), requires_grad=True)
    out = Tensor(rand((5, 4))) + bias
    out.sum().backward()
    assert np.array_equal(bias.grad, np.full(4, 5.0))


def test_grad_accumulates_across_uses():
    a = Tensor(np.array([3.0]), requires_grad=True)
    (a * a).sum().backward()
    assert np.allclose(a.grad, [6.0])


def test_no_gradient_is_routed_to_a_frozen_parent(monkeypatch):
    # matmul, mul and add skip the gradient product of a parent that needs
    # none, rather than computing it for _accum to drop
    routed = []
    accum = numerics._accum
    monkeypatch.setattr(numerics, "_accum",
                        lambda t, g, fresh: (routed.append(t), accum(t, g, fresh)))
    w = Tensor(rand((4, 3), 30), requires_grad=True)
    x = Tensor(rand((2, 5, 4), 31))
    m = Tensor(rand((3, 3), 32))
    c = Tensor(rand((3,), 33))
    # a frozen parent on each side of each op: matmul left then right, mul
    # right (c) then left (0.5), add left then right
    h = numerics.matmul(numerics.matmul(x, w), m)
    out = 0.5 * numerics.add(c, numerics.mul(h, c)) + c
    out.sum().backward()
    assert routed and all(t.requires_grad for t in routed)
    assert any(t is w._node for t in routed)


def formula_adapter(x, W0, A, B, scale):
    """The adapted map's numpy formula as a tape node: with W = W0 +
    scale·(B @ A) and x folded to 2-D, forward x @ Wᵀ, and backward dx =
    g @ W, dB = scale·((x @ Aᵀ)ᵀ @ g)ᵀ, dA = scale·((g @ B)ᵀ @ x)."""
    x2 = x.data.reshape(-1, x.shape[-1])
    W = W0.data + scale * (B.data @ A.data)

    def backward(g):
        g = g.reshape(-1, W.shape[0])
        numerics._accum(x._node, (g @ W).reshape(x.shape), False)
        numerics._accum(B._node, scale * ((x2 @ A.data.T).T @ g).T, False)
        numerics._accum(A._node, scale * ((g @ B.data).T @ x2), False)

    nodes = (x._node, A._node, B._node)
    return numerics._make((x2 @ W.T).reshape(*x.shape[:-1], W.shape[0]), nodes, backward)


def composed_attention(q, k, v, heads):
    """The attention core as separate tape ops: head split, q·kᵀ, scale,
    softmax, ·v, head merge."""
    b, n, d = q.shape
    dh = d // heads
    q, k, v = (t.reshape(b, n, heads, dh).swapaxes(1, 2) for t in (q, k, v))
    attn = numerics.softmax(numerics.matmul(q, k.swapaxes(-1, -2)) * (dh**-0.5))
    return numerics.matmul(attn, v).swapaxes(1, 2).reshape(b, n, d)


def attention_over_three_adapters(linear, core=composed_attention, seed=50, scale=0.75):
    """wq/wk/wv read one shared 3-D input, as in a model block, and feed an
    attention core with 2 heads; returns the three outputs, the core's, the
    loss and every gradient."""
    rng = Rng(seed)
    d, dff, r = 8, 8, 3
    x = Tensor(rng.child("x").normal((2, 5, d)), requires_grad=True)
    h = numerics.layernorm(x)  # an interior node, like a block's LN output
    outs, factors = [], []
    for kind in ("wq", "wk", "wv"):
        W0 = Tensor(rng.child(f"{kind}/W0").normal((dff, d)))
        A = Tensor(rng.child(f"{kind}/A").normal((r, d)), requires_grad=True)
        B = Tensor(rng.child(f"{kind}/B").normal((dff, r)), requires_grad=True)
        outs.append(linear(h, W0, A, B, scale))
        factors += [A, B]
    out = core(*outs, 2)
    # q, k and v each feed only the core, as in the model; the reverse walk's
    # order into the shared input then hangs on the core's parent order
    loss = (out * out).mean()
    loss.backward()
    return [t.data for t in (*outs, out, loss)] + [x.grad] + [t.grad for t in factors]


def test_adapted_linear_matches_the_composition_bitwise():
    # at scale 1 the node skips every multiply by scale, which changes no bit
    for scale in (1.0, 0.75):
        fused = attention_over_three_adapters(numerics.adapted_linear, scale=scale)
        reference = attention_over_three_adapters(formula_adapter, scale=scale)
        assert len(fused) == len(reference) == 12
        for got, want in zip(fused, reference):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_adapted_linear_gradients_match_finite_differences():
    rng = Rng(60)
    x = Tensor(rng.child("x").normal((2, 4, 6)), requires_grad=True)
    W0 = Tensor(rng.child("W0").normal((5, 6)))
    A = Tensor(rng.child("A").normal((2, 6)), requires_grad=True)
    B = Tensor(rng.child("B").normal((5, 2)), requires_grad=True)
    w = Tensor(rng.child("w").normal((2, 4, 5)))

    def f():
        h = numerics.adapted_linear(x, W0, A, B, 1.5)
        return (h * h * w).mean()

    # criterion 8's tolerance
    assert grad_check(f, [x, A, B], eps=1e-4) < 1e-5
    assert W0.grad is None


def test_adapted_linear_rejects_vector_input():
    A, B = Tensor(rand((2, 4), 61), requires_grad=True), Tensor(rand((3, 2), 62), requires_grad=True)
    with pytest.raises(ShapeError):
        numerics.adapted_linear(Tensor(rand((4,), 63)), Tensor(rand((3, 4), 64)), A, B, 1.0)


@pytest.mark.parametrize("x_shape, a_shape, b_shape", [
    ((2, 3, 5), (2, 4), (3, 2)),  # x wider than W0
    ((2, 3, 4), (2, 5), (3, 2)),  # A wider than W0
    ((2, 3, 4), (2, 4), (3, 1)),  # B narrower than A's rank
    ((2, 3, 4), (2, 4), (2, 2)),  # B with fewer rows than W0
])
def test_adapted_linear_refuses_mismatched_shapes(x_shape, a_shape, b_shape):
    x, A, B = (Tensor(rand(shape, 65 + i)) for i, shape in enumerate((x_shape, a_shape, b_shape)))
    with pytest.raises(ShapeError, match=r"adapted_linear: x \(2, 3, \d\), W0 \(3, 4\)"):
        numerics.adapted_linear(x, Tensor(rand((3, 4), 64)), A, B, 1.0)


@pytest.mark.parametrize("w0_shape", [(1, 4), (4,)])
def test_adapted_linear_refuses_a_frozen_weight_that_would_broadcast(w0_shape):
    # W0 + B @ A would broadcast to (5, 4) and return a (2, 3, 5) output
    x, A, B = Tensor(rand((2, 3, 4), 67)), Tensor(rand((2, 4), 68)), Tensor(rand((5, 2), 69))
    with pytest.raises(ShapeError, match=re.escape(f"W0 {w0_shape}, A (2, 4) and B (5, 2)")):
        numerics.adapted_linear(x, Tensor(rand(w0_shape, 64)), A, B, 1.0)


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
def test_layernorm_refuses_a_sumsq_of_the_wrong_shape(shape):
    with pytest.raises(ShapeError, match=r"sumsq of shape"):
        numerics.layernorm(Tensor(rand((2, 3, 4), 66)), sumsq=np.empty(shape))


def test_attention_matches_the_composition_bitwise():
    fused = attention_over_three_adapters(numerics.adapted_linear, numerics.attention)
    reference = attention_over_three_adapters(numerics.adapted_linear)
    assert len(fused) == len(reference) == 12
    for got, want in zip(fused, reference):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frozen", ["q", "k", "v"])
def test_attention_routes_no_gradient_to_a_frozen_input(frozen):
    def run(core):
        qkv = {
            name: Tensor(rand((2, 3, 4), 80 + i), requires_grad=name != frozen)
            for i, name in enumerate("qkv")
        }
        (core(*qkv.values(), 2) * Tensor(rand((2, 3, 4), 84))).sum().backward()
        return qkv

    fused, reference = run(numerics.attention), run(composed_attention)
    assert fused[frozen].grad is None
    for name in "qkv":
        if name != frozen:
            assert fused[name].grad.tobytes() == reference[name].grad.tobytes()


def test_attention_gradients_match_finite_differences():
    rng = Rng(90)
    q, k, v = (Tensor(rng.child(name).normal((2, 3, 4)), requires_grad=True) for name in "qkv")
    w = Tensor(rng.child("w").normal((2, 3, 4)))

    def f():
        return (numerics.attention(q, k, v, 2) * w).sum()

    # criterion 8's tolerance
    assert grad_check(f, [q, k, v], eps=1e-4) < 1e-5


def test_attention_shape_errors():
    t = Tensor(rand((2, 3, 4), 91))
    with pytest.raises(ShapeError):
        numerics.attention(Tensor(rand((3, 4), 92)), Tensor(rand((3, 4), 93)), Tensor(rand((3, 4), 94)), 2)
    with pytest.raises(ShapeError):
        numerics.attention(t, Tensor(rand((2, 5, 4), 95)), t, 2)
    with pytest.raises(ShapeError):
        numerics.attention(t, t, Tensor(rand((2, 3, 6), 96)), 2)
    for heads in (3, 0):
        with pytest.raises(ShapeError):
            numerics.attention(t, t, t, heads)


def test_layernorm_matches_the_gemv_row_sum_formula_bitwise():
    for shape in ((16, 32), (4, 16, 32)):
        a, w = Tensor(rand(shape, 97), requires_grad=True), rand(shape, 98)
        n, ones = shape[-1], np.ones(shape[-1])
        a2, w2 = a.data.reshape(-1, n), w.reshape(-1, n)
        c = a2 - (a2 @ ones / n)[:, None]
        istd = 1.0 / np.sqrt((c * c) @ ones / n + 1e-5)
        xhat = c * istd[:, None]
        sumsq = np.empty(n)
        out = numerics.layernorm(a, sumsq=sumsq)
        (out * Tensor(w)).sum().backward()
        gm, gx = (w2 @ ones / n)[:, None], ((w2 * xhat) @ ones / n)[:, None]
        assert out.data.tobytes() == xhat.reshape(shape).tobytes()
        assert a.grad.tobytes() == (istd[:, None] * (w2 - gm - xhat * gx)).reshape(shape).tobytes()
        # the output's sum of squares over rows, from the variance's squares
        assert sumsq.tobytes() == ((istd * istd) @ (c * c)).tobytes()
        np.testing.assert_allclose(sumsq, (xhat * xhat).sum(axis=0), rtol=1e-12, atol=0)
    x = Tensor(rand((2, 3, 5), 99), requires_grad=True)
    w = Tensor(rand((2, 3, 5), 100))
    # criterion 8's tolerance
    assert grad_check(lambda: (numerics.layernorm(x) * w).sum(), [x], eps=1e-4) < 1e-5


def composed_head(x, W, b):
    """The classifier tail as separate tape ops: mean-pool, layer norm, head
    transpose, matmul, bias add."""
    return numerics.matmul(numerics.layernorm(x.mean(axis=1)), W.transpose()) + b


def head_over_a_shared_input(head, outputs):
    """A pooled head over an interior 3-D node, under a loss that weights
    every logit; returns the logits, the loss and every gradient."""
    rng = Rng(110 + outputs)
    x = Tensor(rng.child("x").normal((3, 5, 8)), requires_grad=True)
    W = Tensor(rng.child("W").normal((outputs, 8)), requires_grad=True)
    b = Tensor(rng.child("b").normal((outputs,)), requires_grad=True)
    logits = head(numerics.relu(x), W, b)
    loss = (logits * logits * Tensor(rng.child("w").normal((3, outputs)))).mean()
    loss.backward()
    return [logits.data, loss.data, x.grad, W.grad, b.grad]


@pytest.mark.parametrize("outputs", [2, 1])
def test_pooled_head_matches_the_composition_bitwise(outputs):
    fused = head_over_a_shared_input(numerics.pooled_head, outputs)
    reference = head_over_a_shared_input(composed_head, outputs)
    for got, want in zip(fused, reference):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("outputs", [3, 1])
def test_pooled_head_gradients_match_finite_differences(outputs):
    rng = Rng(120)
    x = Tensor(rng.child("x").normal((2, 4, 6)), requires_grad=True)
    W = Tensor(rng.child("W").normal((outputs, 6)), requires_grad=True)
    b = Tensor(rng.child("b").normal((outputs,)), requires_grad=True)
    w = Tensor(rng.child("w").normal((2, outputs)))

    def f():
        h = numerics.pooled_head(x, W, b)
        return (h * h * w).mean()

    # criterion 8's tolerance
    assert grad_check(f, [x, W, b], eps=1e-4) < 1e-5


def test_pooled_head_shape_errors():
    x, W, b = Tensor(rand((2, 4, 6), 121)), Tensor(rand((3, 6), 122)), Tensor(rand((3,), 123))
    for args in ((Tensor(rand((4, 6), 124)), W, b), (x, Tensor(rand((3, 5), 125)), b),
                 (x, W, Tensor(rand((2,), 126)))):
        with pytest.raises(ShapeError):
            numerics.pooled_head(*args)


def test_softmax_row_max_equals_numpy_max_bitwise():
    a = rand((16, 2, 16, 16), 101).reshape(-1, 16)
    a[3, 5] = a[3, 6] = a[3].max() + 1.0  # a tie
    a[7, :] = -np.inf
    a[8, 2] = np.inf
    assert numerics._row_max(a).tobytes() == a.max(-1).tobytes()
    p = numerics.softmax(Tensor(a[:3])).data
    e = np.exp(a[:3] - a[:3].max(-1, keepdims=True))
    assert p.tobytes() == (e / (e @ np.ones(16))[:, None]).tobytes()


def test_backward_requires_scalar():
    a = Tensor(rand((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (a * 2).backward()


def test_backward_outside_graph_rejected():
    with pytest.raises(ParameterError):
        Tensor(rand((1,))).sum().backward()


def graph_nodes(out):
    """Every tape node reachable from out's through parent links, out's included."""
    nodes, stack = {}, [out._node]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._prev)
    return list(nodes.values())


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    w = Tensor(rand((4, 3), 40), requires_grad=True)
    b = Tensor(rand((3,), 41), requires_grad=True)
    x = Tensor(rand((2, 5, 4), 42))
    h = numerics.relu(numerics.matmul(x, w) + b)  # used twice below
    logits = numerics.layernorm(h.mean(axis=1)) + (h * h).sum(axis=1)
    loss = numerics.softmax_cross_entropy(logits, np.array([0, 2]))
    nodes = graph_nodes(loss)
    interior = [t for t in nodes if t._prev]
    assert len(interior) == 9  # matmul, add, relu, mean, layernorm, mul, sum, add, loss
    loss.backward()
    assert all(t.grad is None and t._prev == () for t in interior)
    assert w.grad.shape == w.shape and b.grad.shape == b.shape
    assert x.grad is None  # a frozen leaf gets none


def test_a_released_graph_refuses_another_backward():
    a = Tensor(rand((3,), 43), requires_grad=True)
    h = a * a
    loss = h.sum()
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(ParameterError, match="graph already released"):
        loss.backward()
    # a new graph over a released interior node reaches it with a gradient
    with pytest.raises(ParameterError, match="graph already released"):
        (h * 3.0).sum().backward()
    assert np.array_equal(a.grad, first)


def test_an_output_no_closure_saves_dies_with_its_last_name():
    # the add's output feeds only a layernorm, which keeps its own xhat and
    # istd: once the caller drops it, nothing holds its data
    grads = []
    for hold in (False, True):
        w = Tensor(rand((4, 8), 60), requires_grad=True)
        h = numerics.add(Tensor(rand((4, 8), 61)), w)
        data = weakref.ref(h.data)
        loss = (numerics.layernorm(h) * Tensor(rand((4, 8), 62))).sum()
        if not hold:
            del h
            assert data() is None
        loss.backward()
        grads.append(w.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_an_output_a_closure_saves_lives_until_backward():
    # attention keeps q's heads, views of q's data, for k's gradient
    grads = []
    for hold in (False, True):
        w = Tensor(rand((2, 3, 4), 63), requires_grad=True)
        q, k, v = (numerics.add(Tensor(rand((2, 3, 4), seed)), w) for seed in (64, 65, 66))
        data = weakref.ref(q.data)
        loss = (numerics.attention(q, k, v, 2) * Tensor(rand((2, 3, 4), 67))).sum()
        if not hold:
            del q
            assert data() is not None
        loss.backward()
        assert (data() is None) != hold
        grads.append(w.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_strided_first_gradient_is_copied_to_c_order():
    # dB and the head's dW are transposed products; each leaf keeps a C-order
    # copy, which owns its memory, and dA and db are C-order products already
    x = Tensor(rand((2, 3, 8), 70))
    A = Tensor(rand((2, 8), 71), requires_grad=True)
    B = Tensor(rand((5, 2), 72), requires_grad=True)
    W = Tensor(rand((3, 5), 73), requires_grad=True)
    b = Tensor(rand((3,), 74), requires_grad=True)
    h = numerics.adapted_linear(x, Tensor(rand((5, 8), 75)), A, B, 0.5)
    (numerics.pooled_head(h, W, b) * Tensor(rand((2, 3), 76))).sum().backward()
    for t in (A, B, W, b):
        assert t.grad.flags.c_contiguous and t.grad.base is None


def test_relu_gradient_is_g_times_the_input_mask():
    # the same products as a float mask of the input, signed zeros included
    x = Tensor(rand((4, 6), 80), requires_grad=True)
    x.data[0, :3] = 0.0  # ties take no gradient
    g = rand((4, 6), 81)
    (numerics.relu(x) * Tensor(g)).sum().backward()
    assert x.grad.tobytes() == (g * (x.data > 0.0).astype(np.float64)).tobytes()


def test_relu_mask_is_the_input_mask_at_zeros_infinities_and_nan():
    # backward reads the mask off relu's output; it must be a > 0 bit for bit
    # wherever max(a, 0) could differ from a
    tiny, sub = np.finfo(np.float64).tiny, np.nextafter(0.0, 1.0)
    a = np.array([-0.0, 0.0, tiny, -tiny, sub, -sub, np.inf, -np.inf, np.nan, -np.nan])
    x = Tensor(a.copy(), requires_grad=True)
    (numerics.relu(x) * Tensor(np.ones_like(a))).sum().backward()
    assert x.grad.tobytes() == (a > 0.0).astype(np.float64).tobytes()


def test_add_gives_its_two_parents_separate_gradients():
    a, b = (Tensor(rand((3, 4), seed), requires_grad=True) for seed in (77, 78))
    (numerics.add(a, b) * Tensor(rand((3, 4), 79))).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    kept = b.grad.copy()
    a.grad += 1.0
    assert np.array_equal(b.grad, kept)


def test_closures_that_consume_their_gradient_in_place_keep_the_bits():
    # each closure owns the gradient it is handed and may write into it: one
    # interior activation feeds relu, layernorm, both operands of add and all
    # three of attention's inputs, and every leaf gradient keeps the bytes
    # pinned from a tape whose closures wrote only into fresh arrays
    rng = Rng(41)
    x = Tensor(rng.child("x").normal((2, 5, 8)), requires_grad=True)
    w = Tensor(rng.child("w").normal((8, 8), std=0.5), requires_grad=True)
    hw = Tensor(rng.child("hw").normal((3, 8), std=0.5), requires_grad=True)
    hb = Tensor(rng.child("hb").normal((3,), std=0.1), requires_grad=True)
    h = numerics.matmul(x, w)
    mixed = numerics.add(numerics.add(numerics.relu(h), numerics.layernorm(h)),
                         numerics.add(numerics.add(h, h), numerics.attention(h, h, h, 2)))
    logits = numerics.pooled_head(mixed, hw, hb)
    numerics.softmax_cross_entropy(logits, np.array([0, 2])).backward()
    assert numerics.fingerprint([x.grad, w.grad, hw.grad, hb.grad]) == (
        "00e0b912103cbfbb71f2fa9d86e2d8f1fea8b319d9f2ac064977c800a9344a35")


def test_no_grad_blocks_graph_construction():
    a = Tensor(rand((2, 2)), requires_grad=True)
    with no_grad():
        out = (a * a).sum()
    assert not out.requires_grad
    out2 = (a * a).sum()
    assert out2.requires_grad


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_confirms_known_analytic_gradient():
    x = Tensor(rand((3, 3), 20), requires_grad=True)
    # x^2 has zero truncation error under central differences; only
    # subtraction rounding remains, a little above 1e-9 on some entries
    assert grad_check(lambda: (x * x).sum(), [x]) < 1e-8


def test_grad_check_eps_validation():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ParameterError):
        grad_check(lambda: (x * x).sum(), [x], eps=0.0)
    with pytest.raises(ParameterError):
        grad_check(lambda: (x * x).sum(), [x], eps=1e-2)


def test_grad_check_rejects_non_scalar_and_non_finite():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ShapeError):
        grad_check(lambda: x * x, [x])
    y = Tensor(np.array([np.inf]), requires_grad=True)
    with pytest.raises(NumericError):
        grad_check(lambda: (y * y).sum(), [y])


# ---------------------------------------------------------------------------
# Random streams


def test_rng_reproducible_and_children_independent():
    a = Rng(42).normal((100,))
    b = Rng(42).normal((100,))
    assert np.array_equal(a, b)
    c1 = Rng(42).child("one").normal((100,))
    c2 = Rng(42).child("two").normal((100,))
    assert not np.array_equal(c1, c2)
    assert not np.array_equal(a, c1)
    assert np.array_equal(Rng(42).child("one").normal((100,)), c1)


def test_rng_state_round_trip_resumes_stream():
    rng = Rng(9)
    rng.normal((17,))
    state = rng.get_state()
    ahead = rng.normal((23,))
    rng2 = Rng(0)
    rng2.set_state(state)
    assert np.array_equal(rng2.normal((23,)), ahead)


def test_rng_seed_validation():
    with pytest.raises(ParameterError):
        Rng(-1)
    with pytest.raises(ParameterError):
        Rng(2**64)
    Rng(2**64 - 1)


def test_gaussian_std_zero_and_negative():
    draws = Rng(1).normal((4, 4), mean=2.5, std=0.0)
    assert np.array_equal(draws, np.full((4, 4), 2.5))
    with pytest.raises(ParameterError):
        Rng(1).normal((2,), std=-1.0)


def test_integers_and_permutation_ranges():
    rng = Rng(3)
    draws = rng.integers(2, 9, size=1000)
    assert draws.min() >= 2 and draws.max() <= 8
    perm = rng.permutation(10)
    assert sorted(perm.tolist()) == list(range(10))


# ---------------------------------------------------------------------------
# Serialization


def test_tensor_bytes_round_trip_exact():
    for shape in [(), (5,), (3, 4), (2, 3, 4)]:
        arr = rand(shape, seed=31) if shape else np.float64(1.75)
        blob = tensor_to_bytes(Tensor(np.asarray(arr)))
        back = read_tensor(io.BytesIO(blob))
        assert back.data.shape == np.asarray(arr).shape
        assert np.array_equal(back.data, np.asarray(arr))


def test_tensor_bytes_layout():
    blob = tensor_to_bytes(Tensor(np.array([[1.0, 2.0]])))
    # u32 ndim, two u64 extents, two f64 values, little-endian throughout.
    assert blob[:4] == (2).to_bytes(4, "little")
    assert blob[4:12] == (1).to_bytes(8, "little")
    assert blob[12:20] == (2).to_bytes(8, "little")
    assert len(blob) == 4 + 16 + 16


def test_tensor_bytes_truncation_and_trailing_errors():
    blob = tensor_to_bytes(Tensor(rand((3, 2))))
    with pytest.raises(ShapeError):
        read_tensor(io.BytesIO(blob[:-1]))
    with pytest.raises(ShapeError):
        read_tensor(io.BytesIO(blob[:3]))
    # shapes whose element count or extent no index can hold
    for shape in [(2**32, 2**32), (2**63,), (0, 2**64 - 1)]:
        head = len(shape).to_bytes(4, "little")
        head += b"".join(extent.to_bytes(8, "little") for extent in shape)
        with pytest.raises(ShapeError):
            read_tensor(io.BytesIO(head + bytes(64)))


def test_stream_read_write_multiple():
    arrays = [rand((2, 2), 1), rand((5,), 2), rand((1, 3, 2), 3)]
    buf = io.BytesIO()
    for arr in arrays:
        buf.write(tensor_to_bytes(Tensor(arr)))
    buf.seek(0)
    for arr in arrays:
        assert np.array_equal(read_tensor(buf).data, arr)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=40,
    )
)
def test_serialization_round_trip_property(values):
    arr = np.asarray(values, dtype=np.float64)
    assert np.array_equal(read_tensor(io.BytesIO(tensor_to_bytes(Tensor(arr)))).data, arr)


def test_fingerprint_sensitive_to_any_change():
    a, b = rand((4, 4), 50), rand((3,), 51)
    base = numerics.fingerprint([a, b])
    assert base == numerics.fingerprint([a.copy(), b.copy()])
    tweaked = a.copy()
    tweaked[2, 2] = np.nextafter(tweaked[2, 2], 1.0)
    assert numerics.fingerprint([tweaked, b]) != base
    assert numerics.fingerprint([b, a]) != base
