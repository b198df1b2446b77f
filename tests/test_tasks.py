"""Synthetic task generators: determinism, split hygiene, label structure."""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora.errors import ConfigError, ParameterError
from prilora.numerics import fingerprint
from prilora.tasks import TASK_KINDS, SyntheticTask

GOLDEN_TASK = json.loads(
    (Path(__file__).parent / "golden" / "learning_sanity.json").read_text()
)["task"]


def build(kind, **kw):
    defaults = dict(vocab_size=12, seq_len=10, train_count=120, eval_count=40, seed=7)
    defaults.update(kw)
    return SyntheticTask(kind, **defaults).build()


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_same_seed_reproduces_every_array(kind):
    a = build(kind)
    b = build(kind)
    assert np.array_equal(a.train_tokens, b.train_tokens)
    assert np.array_equal(a.train_targets, b.train_targets)
    assert np.array_equal(a.eval_tokens, b.eval_tokens)
    assert np.array_equal(a.eval_targets, b.eval_targets)


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_different_seeds_give_different_data(kind):
    a = build(kind, seed=1)
    b = build(kind, seed=2)
    assert not np.array_equal(a.train_tokens, b.train_tokens)


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_train_and_eval_share_no_sequence(kind):
    data = build(kind)
    train = {row.tobytes() for row in data.train_tokens}
    eval_ = {row.tobytes() for row in data.eval_tokens}
    assert not train & eval_
    # dedupe also applies within each split
    assert len(train) == data.train_count
    assert len(eval_) == data.eval_count


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_tokens_are_int64_inside_vocab(kind):
    data = build(kind)
    for tokens in (data.train_tokens, data.eval_tokens):
        assert tokens.dtype == np.int64
        assert tokens.min() >= 0
        assert tokens.max() < 12
        assert tokens.shape[1] == 10


def test_counts_match_request():
    data = build("token_majority", train_count=33, eval_count=9)
    assert data.train_count == 33
    assert data.eval_count == 9


def test_majority_label_names_the_more_frequent_marker():
    data = build("token_majority")
    for tokens, targets in ((data.train_tokens, data.train_targets),
                            (data.eval_tokens, data.eval_targets)):
        zeros = (tokens == 0).sum(axis=1)
        ones = (tokens == 1).sum(axis=1)
        winner = (ones > zeros).astype(np.int64)
        assert np.array_equal(winner, targets)
        # the winning marker always leads by at least two occurrences
        assert np.abs(zeros - ones).min() >= 2


def test_majority_labels_are_balanced_when_counts_are_even():
    data = build("token_majority", train_count=100, eval_count=50)
    assert data.train_targets.sum() == 50
    assert data.eval_targets.sum() == 25


def test_parity_label_is_marker_count_mod_two():
    data = build("parity_markers")
    for tokens, targets in ((data.train_tokens, data.train_targets),
                            (data.eval_tokens, data.eval_targets)):
        counts = (tokens == 0).sum(axis=1)
        assert counts.min() >= 0 and counts.max() <= 3
        assert np.array_equal(counts % 2, targets)


def test_classification_targets_are_two_way_int64():
    for kind in ("token_majority", "parity_markers"):
        data = build(kind)
        assert data.num_outputs == 2
        assert not data.is_regression
        assert data.train_targets.dtype == np.int64
        assert set(np.unique(data.train_targets)) <= {0, 1}


def test_probe_targets_are_standardized_over_the_pool():
    data = build("linear_probe")
    assert data.is_regression
    assert data.num_outputs == 1
    pooled = np.concatenate([data.train_targets, data.eval_targets])
    assert abs(pooled.mean()) < 1e-12
    assert abs(pooled.std() - 1.0) < 1e-12
    assert data.train_targets.dtype == np.float64


def test_probe_target_is_linear_in_token_identity():
    # Two sequences differing in one token must differ by the weight gap / seq_len.
    task = SyntheticTask("linear_probe", vocab_size=8, seq_len=6,
                         train_count=200, eval_count=50, seed=3)
    data = task.build()
    pooled_tokens = np.concatenate([data.train_tokens, data.eval_tokens])
    pooled_raw = np.concatenate([data.train_targets, data.eval_targets])
    # reconstruct the affine map target = (raw - m) / s from two pooled points
    w = task._probe_weights()
    raw = w[pooled_tokens].mean(axis=1)
    s = raw.std()
    expected = (raw - raw.mean()) / s
    assert np.abs(expected - pooled_raw).max() < 1e-12


def test_probe_build_draws_its_weight_table_once(monkeypatch):
    draws = []
    table = SyntheticTask._probe_weights

    def counted(self):
        draws.append(1)
        return table(self)

    monkeypatch.setattr(SyntheticTask, "_probe_weights", counted)
    SyntheticTask("linear_probe", vocab_size=8, seq_len=6,
                  train_count=200, eval_count=50, seed=3).build()
    assert len(draws) == 1


def test_probe_build_keeps_its_arrays_bit_for_bit():
    # pinned from the build that drew the weight table once per sequence
    data = SyntheticTask("linear_probe", vocab_size=8, seq_len=6,
                         train_count=200, eval_count=50, seed=3).build()
    arrays = [data.train_tokens, data.train_targets, data.eval_tokens, data.eval_targets]
    assert fingerprint(arrays) == "afba8aebd2ae13fe8cd264e05028f1e52977a3dae6c1c8b118d7408be7b7841b"


@pytest.mark.parametrize("kw", [
    dict(vocab_size=3),
    dict(seq_len=3),
    dict(train_count=0),
    dict(eval_count=0),
])
def test_bad_dimensions_rejected(kw):
    with pytest.raises(ConfigError):
        build("token_majority", **kw)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        SyntheticTask("sorting")


def test_counts_beyond_the_sequence_space_are_a_config_error():
    # 4**4 = 256 sequences exist; refused before any data is built
    with pytest.raises(ConfigError, match=r"300 \+ 10 distinct sequences do not fit in 4\*\*4"):
        SyntheticTask("token_majority", vocab_size=4, seq_len=4, train_count=300, eval_count=10)
    # a probe may use any of them
    SyntheticTask("linear_probe", vocab_size=4, seq_len=4, train_count=246, eval_count=10)


def test_exhausting_a_tiny_task_space_raises():
    # seq_len 4 and vocab 4 admit only 24 distinct rows per majority label
    with pytest.raises(ConfigError, match="only 24 distinct sequences with label 0"):
        build("token_majority", vocab_size=4, seq_len=4,
              train_count=100, eval_count=50)


def test_a_sampler_that_finds_no_new_sequence_gives_up(monkeypatch):
    # the space check passes; the attempt limit still ends a stuck search
    monkeypatch.setattr(SyntheticTask, "_sample",
                        lambda self, rng, index, weights: (np.zeros(4, np.int64), 0.0))
    with pytest.raises(ParameterError, match="could not generate 3 distinct sequences"):
        build("token_majority", vocab_size=4, seq_len=4, train_count=2, eval_count=1)


@pytest.mark.parametrize("kind, label, count, fits", [
    # the majority pair in 5 slots, 2 filler tokens a slot: C(5,2)·2**3 a label
    ("token_majority", 0, 80, 160),
    # one or three zeros, 3 filler tokens a slot: 5·3**4 + 10·3**2 with label 1
    ("parity_markers", 1, 495, 991),
])
def test_each_label_space_is_counted_exactly(kind, label, count, fits):
    # labels alternate from 0: label 0 takes ceil(total / 2), label 1 the rest
    with pytest.raises(ConfigError, match=f"only {count} distinct sequences with label {label}"):
        SyntheticTask(kind, vocab_size=4, seq_len=5, train_count=fits, eval_count=1)
    # the largest total that fits builds, and uses up that label's space
    data = SyntheticTask(kind, vocab_size=4, seq_len=5, train_count=fits - 1, eval_count=1).build()
    targets = np.concatenate([data.train_targets, data.eval_targets])
    assert (targets == label).sum() == count


@pytest.mark.parametrize("kind", TASK_KINDS)
@pytest.mark.parametrize("seq_len", [10**8, 10**20])
def test_space_checks_of_a_huge_sequence_length_return_at_once(kind, seq_len):
    # the checks bound vocab_size**seq_len and each label-space term by the
    # count they must reach, never building the power itself: at 10**8 the
    # powers took more than 30 s, and at 10**20 they raised MemoryError
    start = time.perf_counter()
    SyntheticTask(kind, seq_len=seq_len)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("task", [
    GOLDEN_TASK,  # the golden run and the ablation grid
    dict(kind="token_majority", vocab_size=32, seq_len=32, train_count=512, eval_count=128),  # wide
])
def test_benchmarked_task_configs_pass_the_space_check(task):
    SyntheticTask(**task)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_majority_margin_holds_for_any_seed(seed):
    data = SyntheticTask("token_majority", vocab_size=10, seq_len=8,
                         train_count=40, eval_count=10, seed=seed).build()
    tokens = np.concatenate([data.train_tokens, data.eval_tokens])
    zeros = (tokens == 0).sum(axis=1)
    ones = (tokens == 1).sum(axis=1)
    assert np.abs(zeros - ones).min() >= 2
