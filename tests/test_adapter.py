"""Adapter pairs: init, forward, merge-back, and parameter accounting."""

import numpy as np
import pytest

from prilora.adapter import (
    AdapterPair,
    forward,
    init_adapter,
    merge,
    nonzero_param_count,
    trainable_param_count,
)
from prilora.errors import ConfigError, ParameterError, RankError, ShapeError
from prilora.model import ModelDims, adapter_layout
from prilora.numerics import Rng, Tensor, grad_check
from prilora.prune_engine import build_mask, apply_mask
from prilora.rank_plan import explicit_plan, linear_plan, uniform_plan


def make_layer(d1, d2, seed=0):
    return Tensor(Rng(seed).child("w").normal((d1, d2)))


def randomized_pair(d1, d2, r, seed=1):
    pair = init_adapter(d1, d2, r, Rng(seed).child("a"))
    pair.B.data[...] = Rng(seed).child("b").normal((d1, r))
    return pair


# ---------------------------------------------------------------------------
# Initialization


def test_init_starts_at_exact_zero_update():
    layer = make_layer(6, 9)
    pair = init_adapter(6, 9, 3, Rng(2))
    x = Tensor(Rng(3).normal((4, 9)))
    adapted = forward(layer, pair, x)
    frozen = forward(layer, None, x)
    assert np.array_equal(adapted.data, frozen.data)
    assert np.count_nonzero(pair.B.data) == 0


def test_init_deterministic_per_seed():
    a1 = init_adapter(5, 7, 2, Rng(11)).A.data
    a2 = init_adapter(5, 7, 2, Rng(11)).A.data
    a3 = init_adapter(5, 7, 2, Rng(12)).A.data
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_init_std_statistical():
    pair = init_adapter(4, 2500, 1, Rng(5), std=0.02)
    sample_std = pair.A.data.std()
    assert abs(sample_std - 0.02) < 0.002


def test_init_validation():
    with pytest.raises(RankError):
        init_adapter(4, 8, 5, Rng(0))
    with pytest.raises(RankError):
        init_adapter(4, 8, 0, Rng(0))
    with pytest.raises(ParameterError):
        init_adapter(4, 8, 2, Rng(0), std=0.0)


def test_adapter_pair_shape_validation():
    A = Tensor(np.zeros((2, 5)))
    B = Tensor(np.zeros((4, 3)))
    with pytest.raises(RankError):
        AdapterPair(A=A, B=B, scale=1.0, frozen_ref="x")
    with pytest.raises(RankError, match="exceeds"):
        AdapterPair(A=Tensor(np.zeros((3, 2))), B=Tensor(np.zeros((4, 3))), scale=1.0, frozen_ref="x")
    assert AdapterPair(A=A, B=Tensor(np.zeros((4, 2))), scale=1.0, frozen_ref="x").rank == 2


# ---------------------------------------------------------------------------
# Forward


def test_forward_identity_composition():
    # W0 = 0 and identity-padded factors pass through the rank subspace.
    d, r = 4, 2
    layer = Tensor(np.zeros((d, d)))
    A = np.zeros((r, d))
    A[:, :r] = np.eye(r)
    B = np.zeros((d, r))
    B[:r, :] = np.eye(r)
    pair = AdapterPair(Tensor(A), Tensor(B), scale=1.0, frozen_ref="w")
    x = Tensor(Rng(7).normal((3, d)))
    h = forward(layer, pair, x).data
    assert np.array_equal(h[:, :r], x.data[:, :r])
    assert np.array_equal(h[:, r:], np.zeros((3, d - r)))


def test_forward_shape_errors():
    layer = make_layer(5, 8)
    pair = init_adapter(5, 8, 2, Rng(1))
    with pytest.raises(ShapeError):
        forward(layer, pair, Tensor(Rng(2).normal((3, 7))))
    wrong = init_adapter(5, 7, 2, Rng(1))
    with pytest.raises(ShapeError):
        forward(layer, wrong, Tensor(Rng(2).normal((3, 8))))


@pytest.mark.parametrize("shape", [(2, 8, 8), (8,)])
def test_forward_and_merge_refuse_a_weight_that_is_not_2d(shape):
    # a (2, 8, 8) weight would otherwise run as a batched matmul
    weight = Tensor(np.zeros(shape))
    pair = init_adapter(8, 8, 2, Rng(1))
    x = Tensor(Rng(2).normal((3, 8)))
    with pytest.raises(ShapeError, match="2-D"):
        forward(weight, None, x)
    with pytest.raises(ShapeError, match="2-D"):
        forward(weight, pair, x)
    with pytest.raises(ShapeError, match="2-D"):
        merge(weight, pair)


def test_forward_supports_batched_sequences():
    layer = make_layer(5, 8)
    pair = randomized_pair(5, 8, 3)
    x = Rng(4).normal((2, 6, 8))
    out = forward(layer, pair, Tensor(x)).data
    expected = x @ layer.data.T + pair.scale * (x @ pair.A.data.T) @ pair.B.data.T
    assert np.abs(out - expected).max() < 1e-12


def test_forward_is_one_tape_node_over_x_a_and_b():
    layer = make_layer(5, 8)
    pair = randomized_pair(5, 8, 3)
    x = Tensor(Rng(5).normal((2, 4, 8)), requires_grad=True)
    out = forward(layer, pair, x)
    assert len(out._node._prev) == 3
    assert all(got is want._node for got, want in zip(out._node._prev, (x, pair.A, pair.B)))


def test_gradients_flow_to_adapter_only():
    layer = make_layer(5, 8)
    pair = randomized_pair(5, 8, 3)
    x = Tensor(Rng(6).normal((4, 8)))
    out = forward(layer, pair, x)
    (out * out).mean().backward()
    assert pair.A.grad is not None and np.abs(pair.A.grad).max() > 0
    assert pair.B.grad is not None and np.abs(pair.B.grad).max() > 0
    assert layer.grad is None


def test_gradient_correctness_through_forward():
    layer = make_layer(6, 9)
    pair = randomized_pair(6, 9, 3, seed=8)
    x = Tensor(Rng(9).normal((4, 9)))

    def f():
        h = forward(layer, pair, x)
        return (h * h).mean()

    assert grad_check(f, [pair.A, pair.B]) < 1e-5


# ---------------------------------------------------------------------------
# Merge


def test_merge_with_zero_b_is_w0():
    layer = make_layer(5, 8)
    pair = init_adapter(5, 8, 2, Rng(1))
    merged = merge(layer, pair)
    assert np.array_equal(merged.data, layer.data)


def test_merge_rank_one_ones_outer_product():
    layer = Tensor(np.zeros((3, 4)))
    pair = AdapterPair(Tensor(np.ones((1, 4))), Tensor(np.ones((3, 1))), scale=1.0, frozen_ref="w")
    assert np.array_equal(merge(layer, pair).data, np.ones((3, 4)))


def test_merge_equivalence_over_random_inputs():
    layer = make_layer(7, 11, seed=13)
    pair = randomized_pair(7, 11, 4, seed=14)
    merged = merge(layer, pair)
    rng = Rng(15)
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.normal((3, 11)))
        dev = np.abs(forward(layer, pair, x).data - forward(merged, None, x).data).max()
        worst = max(worst, dev)
    assert worst < 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.75])
def test_merge_back_is_exact(scale):
    # the adapted forward multiplies by the merged weight itself, so folding
    # the pair in first changes no bit of a 2-D input's output
    layer = make_layer(7, 11, seed=16)
    pair = randomized_pair(7, 11, 4, seed=17)
    pair.scale = scale
    x = Tensor(Rng(18).normal((5, 11)))
    assert forward(merge(layer, pair), None, x).data.tobytes() == forward(layer, pair, x).data.tobytes()


def test_merge_scale_is_applied():
    layer = Tensor(np.zeros((3, 3)))
    pair = AdapterPair(Tensor(np.ones((1, 3))), Tensor(np.ones((3, 1))), scale=0.25, frozen_ref="w")
    assert np.array_equal(merge(layer, pair).data, np.full((3, 3), 0.25))


# ---------------------------------------------------------------------------
# Parameter accounting


def dims_of(layers, d_model, d_ff):
    return ModelDims(num_layers=layers, d_model=d_model, num_heads=2, d_ff=d_ff)


def test_trainable_param_count_single_matrix():
    layout = adapter_layout(dims_of(1, 6, 4), explicit_plan([2]), ("w1",))
    assert layout == {"blocks.0.w1": (4, 6, 2)}
    assert trainable_param_count(layout) == 20


def test_budget_parity_linear_vs_uniform():
    # per layer: four (64, 64) matrices, then (128, 64) and (64, 128)
    dims = dims_of(12, 64, 128)
    linear = trainable_param_count(adapter_layout(dims, linear_plan(12, 4, 12)))
    uniform = trainable_param_count(adapter_layout(dims, uniform_plan(12, 8)))
    assert linear == uniform


def test_trainable_param_count_rank_cap():
    plan = explicit_plan([0, 0, 24])
    with pytest.raises(RankError, match=r"exceeds min\(8, 8\)"):
        adapter_layout(dims_of(3, 8, 8), plan, ("wq",))


def test_trainable_param_count_layer_mismatch():
    with pytest.raises(ConfigError):
        adapter_layout(dims_of(1, 4, 4), uniform_plan(2, 2), ("wq",))


def test_zero_rank_layers_cost_nothing():
    layout = adapter_layout(dims_of(2, 8, 8), explicit_plan([0, 3]), ("wq",))
    assert list(layout) == ["blocks.1.wq"]
    assert trainable_param_count(layout) == 3 * 16


def test_nonzero_param_count_fresh_and_pruned():
    pairs = [randomized_pair(6, 8, 2, seed=21), randomized_pair(4, 10, 3, seed=22)]
    fresh = [init_adapter(6, 8, 2, Rng(23)), init_adapter(4, 10, 3, Rng(24))]
    # Zero-initialized B: only A entries count.
    assert nonzero_param_count(fresh) == 2 * 8 + 3 * 10

    full_mask = build_mask(np.abs(pairs[0].A.data), 1.0)
    pairs[0].A.data[...] = apply_mask(pairs[0].A.data, full_mask)
    assert np.count_nonzero(pairs[0].A.data) == 0

    half_mask = build_mask(np.abs(pairs[1].A.data), 0.5)
    pairs[1].A.data[...] = apply_mask(pairs[1].A.data, half_mask)
    per_row_nonzero = np.count_nonzero(pairs[1].A.data, axis=1)
    assert (per_row_nonzero <= 10 - 5).all()
    expected = (
        np.count_nonzero(pairs[1].A.data)
        + np.count_nonzero(pairs[0].B.data)
        + np.count_nonzero(pairs[1].B.data)
    )
    assert nonzero_param_count(pairs) == expected
