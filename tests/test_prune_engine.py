"""Norm tracking, importance scores, masks, cadence, and every pruning strategy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora.adapter import init_adapter
from prilora.errors import ConfigError, NumericError, ParameterError, ShapeError
from prilora.numerics import Rng
from prilora.prune_engine import (
    PruneConfig,
    ablation_prune,
    apply_mask,
    batch_input_norm,
    build_mask,
    ema_update,
    importance,
    prune_event,
    should_prune,
)


# ---------------------------------------------------------------------------
# batch_input_norm


def test_batch_input_norm_zeros():
    assert np.array_equal(batch_input_norm(np.zeros((2, 3, 4))), np.zeros(4))


def test_batch_input_norm_three_four_five():
    X = np.array([[[3.0, 0.0], [4.0, 0.0]]])
    assert np.array_equal(batch_input_norm(X), np.array([5.0, 0.0]))


def test_batch_input_norm_matches_flatten_oracle():
    X = Rng(1).normal((4, 7, 9))
    oracle = np.linalg.norm(X.reshape(-1, 9), axis=0)
    assert np.abs(batch_input_norm(X) - oracle).max() < 1e-12


def test_batch_input_norm_two_dim_is_single_batch():
    X = Rng(2).normal((5, 6))
    assert np.array_equal(batch_input_norm(X), batch_input_norm(X[None]))


def test_batch_input_norm_validation():
    with pytest.raises(ShapeError):
        batch_input_norm(np.zeros((2, 2, 2, 2)))
    with pytest.raises(NumericError):
        batch_input_norm(np.array([[np.nan, 1.0]]))


# ---------------------------------------------------------------------------
# EMA


def test_ema_update_arithmetic():
    xbar = ema_update(np.array([1.0, 2.0]), np.array([2.0, 2.0]), 0.9)
    assert np.abs(xbar - np.array([1.1, 2.0])).max() < 1e-15


def test_ema_fixed_point():
    xbar = np.array([3.0, 0.5, 7.0])
    assert np.abs(ema_update(xbar.copy(), xbar, 0.9) - xbar).max() < 1e-15
    # the observation may be the state itself
    assert np.abs(ema_update(xbar, xbar, 0.9) - np.array([3.0, 0.5, 7.0])).max() < 1e-15


def test_ema_matches_closed_form_recurrence():
    rng = Rng(3)
    observations = [np.abs(rng.normal((6,))) for _ in range(100)]
    xbar = np.zeros(6)
    for x in observations:
        xbar = ema_update(xbar, x, 0.9)
    k = len(observations)
    oracle = sum(0.1 * (0.9 ** (k - t - 1)) * observations[t] for t in range(k))
    assert np.abs(xbar - oracle).max() < 1e-12


def test_ema_validation():
    # a negative or non-finite saved state is refused by the checkpoint parser
    # and a decay outside (0, 1) by TrainConfig; the update checks observations
    xbar = np.array([1.0])
    with pytest.raises(ShapeError):
        ema_update(xbar, np.array([1.0, 2.0]), 0.9)
    with pytest.raises(ParameterError):
        ema_update(xbar, np.array([-0.1]), 0.9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=3, max_size=3),
        min_size=1,
        max_size=30,
    )
)
def test_ema_stays_in_observed_bounds(rows):
    xbar = np.zeros(3)
    for row in rows:
        xbar = ema_update(xbar, np.asarray(row), 0.9)
        assert (xbar >= 0.0).all()
        assert (xbar <= 50.0 + 1e-9).all()


# ---------------------------------------------------------------------------
# Importance and masks


def test_importance_hand_case():
    A = np.array([[1.0, -2.0], [0.5, 0.0]])
    S = importance(A, np.array([2.0, 1.0]))
    assert np.array_equal(S, np.array([[2.0, 2.0], [1.0, 0.0]]))


def test_importance_zero_norms_give_zero_scores():
    S = importance(Rng(5).normal((3, 4)), np.zeros(4))
    assert np.array_equal(S, np.zeros((3, 4)))
    assert (importance(Rng(6).normal((3, 4)), np.abs(Rng(7).normal(4))) >= 0).all()


def test_importance_shape_validation():
    with pytest.raises(ShapeError):
        importance(np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ShapeError):
        importance(np.zeros(3), np.zeros(3))


def test_build_mask_hand_case():
    mask = build_mask(np.array([[0.9, 0.1, 0.5, 0.3]]), 0.5)
    assert np.array_equal(mask, np.array([[0, 1, 0, 1]], dtype=np.uint8))
    assert np.array_equal(mask.sum(axis=1), [2])


def test_build_mask_extreme_ratios():
    S = np.abs(Rng(8).normal((3, 6))) + 0.1
    assert build_mask(S, 0.0).sum() == 0
    assert build_mask(S, 1.0).sum() == 18


def test_build_mask_tie_breaks_toward_lower_column():
    mask = build_mask(np.array([[0.5, 0.2, 0.2, 0.9]]), 0.25)
    assert np.array_equal(mask, np.array([[0, 1, 0, 0]], dtype=np.uint8))
    flat = build_mask(np.ones((2, 4)), 0.5)
    assert np.array_equal(flat, np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.uint8))


def test_build_mask_invariant_under_positive_scaling():
    rng = Rng(9)
    for _ in range(100):
        S = np.abs(rng.normal((4, 10)))
        c = float(rng.uniform(1e-6, 1e6))
        assert np.array_equal(build_mask(S, 0.5), build_mask(c * S, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 6),
    width=st.integers(0, 12),
    ratio=st.sampled_from([0.0, 0.1, 0.5, 0.75, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_build_mask_matches_the_sort_oracle_and_passes_the_mask_checks(rows, width, ratio, seed):
    # coarse integer scores, so ties are common
    S = Rng(seed).integers(0, 4, size=(rows, width)).astype(np.float64)
    n = int(np.floor(ratio * width))
    oracle = np.zeros((rows, width), dtype=np.uint8)
    np.put_along_axis(oracle, np.argsort(S, axis=1, kind="stable")[:, :n], 1, axis=1)
    mask = build_mask(S, ratio)
    assert mask.dtype == np.uint8 and mask.flags.c_contiguous
    assert mask.tobytes() == oracle.tobytes() and mask.shape == oracle.shape
    assert int(mask.sum()) == rows * n


def test_build_mask_ratio_validation():
    with pytest.raises(ConfigError):
        build_mask(np.ones((2, 2)), 1.5)


def test_apply_mask_identity_and_total():
    A = Rng(10).normal((3, 5))
    untouched = apply_mask(A, np.zeros((3, 5), dtype=np.uint8))
    assert np.array_equal(untouched, A)
    wiped = apply_mask(A, np.ones((3, 5), dtype=np.uint8))
    assert np.array_equal(wiped, np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        apply_mask(A, np.zeros((2, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Cadence


def test_should_prune_interval_boundaries():
    cfg = PruneConfig(0.5, 40, "prilora_A")
    assert should_prune(40, cfg)
    assert not should_prune(39, cfg)
    assert should_prune(80, cfg)
    assert not should_prune(0, cfg)


def test_should_prune_disabled_paths():
    assert not should_prune(40, PruneConfig(0.5, 40, "none"))
    assert not should_prune(40, PruneConfig(0.0, 40, "prilora_A"))


def test_should_prune_fires_floor_of_total_over_interval():
    cfg = PruneConfig(0.5, 40, "prilora_A")
    for total in (39, 40, 79, 80, 500, 513):
        fired = sum(1 for step in range(1, total + 1) if should_prune(step, cfg))
        assert fired == total // 40


def test_prune_config_validation():
    with pytest.raises(ConfigError):
        PruneConfig(prune_ratio=1.5)
    with pytest.raises(ConfigError):
        PruneConfig(interval_steps=0)
    with pytest.raises(ConfigError):
        PruneConfig(strategy="unknown")


# ---------------------------------------------------------------------------
# ablation_prune under each strategy


def test_random_a_cols_zeroes_exact_count_per_row():
    pair = init_adapter(6, 10, 4, Rng(11))
    cfg = PruneConfig(0.5, 40, "random_A_cols")
    mask = ablation_prune(pair, None, cfg, Rng(12))
    assert mask.shape == (4, 10)
    assert (mask.sum(axis=1) == 5).all()
    assert ((pair.A.data == 0).sum(axis=1) >= 5).all()

    again = init_adapter(6, 10, 4, Rng(11))
    mask2 = ablation_prune(again, None, cfg, Rng(12))
    assert np.array_equal(mask, mask2)


def test_random_a_cols_requires_rng():
    pair = init_adapter(4, 6, 2, Rng(13))
    with pytest.raises(ParameterError):
        ablation_prune(pair, None, PruneConfig(0.5, 40, "random_A_cols"), None)


def test_b_rows_prunes_half_of_rank_eight():
    pair = init_adapter(10, 12, 8, Rng(14))
    pair.B.data[...] = Rng(15).normal((10, 8))
    xbar = np.abs(Rng(16).normal((8,)))
    mask = ablation_prune(pair, xbar, PruneConfig(0.5, 40, "B_rows"), None)
    assert mask.shape == (10, 8)
    assert (mask.sum(axis=1) == 4).all()
    assert ((pair.B.data == 0).sum(axis=1) >= 4).all()


def test_b_cols_full_ratio_clears_b():
    pair = init_adapter(5, 9, 3, Rng(17))
    pair.B.data[...] = Rng(18).normal((5, 3))
    xbar = np.abs(Rng(19).normal((3,)))
    mask = ablation_prune(pair, xbar, PruneConfig(1.0, 40, "B_cols"), None)
    assert np.count_nonzero(pair.B.data) == 0
    assert (mask.sum(axis=0) == 5).all()


def test_b_cols_keeps_highest_scores_per_column():
    pair = init_adapter(4, 6, 2, Rng(20))
    pair.B.data[...] = np.array([[1.0, 8.0], [2.0, 7.0], [3.0, 6.0], [4.0, 5.0]])
    xbar = np.array([1.0, 1.0])
    ablation_prune(pair, xbar, PruneConfig(0.5, 40, "B_cols"), None)
    # Per column the two smallest magnitudes go to zero.
    assert np.array_equal(
        pair.B.data, np.array([[0.0, 8.0], [0.0, 7.0], [3.0, 0.0], [4.0, 0.0]])
    )


def test_ablation_prune_under_prilora_a_zeroes_exactly_the_importance_mask():
    pair = init_adapter(5, 9, 3, Rng(21))
    xbar = np.abs(Rng(22).normal((9,)))
    A, B = pair.A.data.copy(), pair.B.data.copy()
    mask = ablation_prune(pair, xbar, PruneConfig(0.5, 40, "prilora_A"), None)
    assert np.array_equal(mask, build_mask(importance(A, xbar), 0.5))
    assert np.array_equal(pair.A.data, np.where(mask == 1, 0.0, A))
    assert np.array_equal(pair.B.data, B)


def test_pruning_under_none_is_a_config_error():
    # "none" prunes nothing, so it has no row in the strategy table; asking
    # it to prune must still be the package's typed error
    pair = init_adapter(4, 6, 2, Rng(21))
    cfg = PruneConfig(0.5, 40, "none")
    with pytest.raises(ConfigError):
        ablation_prune(pair, None, cfg, Rng(0))
    with pytest.raises(ConfigError):
        prune_event({"blocks.0.wq": pair}, cfg, {}, Rng(0), 40)


# ---------------------------------------------------------------------------
# Regrowth


def test_masked_coordinate_regrows_after_one_sgd_step():
    # Loss (A[0,0] - 1)^2 has gradient -2 at A[0,0] = 0: one step moves it off zero.
    pair = init_adapter(3, 4, 2, Rng(22))
    mask = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    pair.A.data[...] = apply_mask(pair.A.data, mask)
    assert pair.A.data[0, 0] == 0.0

    target = np.zeros((2, 4))
    target[0, 0] = 1.0
    diff = pair.A - target
    loss = (diff * diff).sum()
    loss.backward()
    pair.A.data -= 0.1 * pair.A.grad
    assert pair.A.data[0, 0] != 0.0
