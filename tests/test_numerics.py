"""Tensor ops, gradients, random streams, and the serialization format."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora import numerics
from prilora.errors import NumericError, ParameterError, ShapeError
from prilora.numerics import (
    Rng,
    Tensor,
    gaussian,
    grad_check,
    no_grad,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
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


def test_backward_requires_scalar():
    a = Tensor(rand((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (a * 2).backward()


def test_backward_outside_graph_rejected():
    with pytest.raises(ParameterError):
        Tensor(rand((1,))).sum().backward()


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
    t = gaussian(Rng(1), (4, 4), mean=2.5, std=0.0)
    assert np.array_equal(t.data, np.full((4, 4), 2.5))
    with pytest.raises(ParameterError):
        gaussian(Rng(1), (2,), std=-1.0)


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
        back = tensor_from_bytes(blob)
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
        tensor_from_bytes(blob[:-1])
    with pytest.raises(ShapeError):
        tensor_from_bytes(blob + b"\x00")
    with pytest.raises(ShapeError):
        tensor_from_bytes(blob[:3])
    # shapes whose element count or extent no index can hold
    for shape in [(2**32, 2**32), (2**63,), (0, 2**64 - 1)]:
        head = len(shape).to_bytes(4, "little")
        head += b"".join(extent.to_bytes(8, "little") for extent in shape)
        with pytest.raises(ShapeError):
            tensor_from_bytes(head + bytes(64))


def test_stream_read_write_multiple():
    arrays = [rand((2, 2), 1), rand((5,), 2), rand((1, 3, 2), 3)]
    buf = io.BytesIO()
    for arr in arrays:
        write_tensor(buf, Tensor(arr))
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
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(Tensor(arr))).data, arr)


def test_fingerprint_sensitive_to_any_change():
    a, b = rand((4, 4), 50), rand((3,), 51)
    base = numerics.fingerprint([a, b])
    assert base == numerics.fingerprint([a.copy(), b.copy()])
    tweaked = a.copy()
    tweaked[2, 2] = np.nextafter(tweaked[2, 2], 1.0)
    assert numerics.fingerprint([tweaked, b]) != base
    assert numerics.fingerprint([b, a]) != base
