"""Rank schedules: exact budgets, largest-remainder rounding, presets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prilora.errors import BudgetError, RankError
from prilora.rank_plan import (
    DEBERTA_BASE_RANKS,
    RankPlan,
    concentrated_plan,
    deberta_base_preset,
    explicit_plan,
    inverted_plan,
    linear_plan,
    uniform_plan,
)


def oracle_linear(num_layers: int, first: int, last: int) -> list[int]:
    """Independent largest-remainder rounding over exact rationals."""
    if num_layers == 1:
        return [first]
    ideal = [
        Fraction(first) + Fraction(i * (last - first), num_layers - 1)
        for i in range(num_layers)
    ]
    floors = [v.numerator // v.denominator for v in ideal]
    target = Fraction(num_layers * (first + last), 2)
    assert target.denominator == 1
    leftover = int(target) - sum(floors)
    by_frac = sorted(range(num_layers), key=lambda i: (-(ideal[i] - floors[i]), i))
    out = list(floors)
    for i in by_frac[:leftover]:
        out[i] += 1
    return out


def test_twelve_layer_linear_distribution():
    plan = linear_plan(12, 4, 12)
    assert plan.ranks == (4, 5, 5, 6, 7, 8, 8, 9, 10, 11, 11, 12)
    assert plan.total == 96
    assert plan.budget_avg == 8


def test_linear_matches_oracle_over_many_shapes():
    cases = [
        (12, 4, 12), (2, 2, 6), (4, 2, 6), (6, 1, 5), (5, 2, 10),
        (8, 3, 9), (3, 4, 4), (7, 2, 12), (10, 1, 12), (9, 5, 11),
    ]
    for L, rs, rf in cases:
        if (L * (rs + rf)) % 2 != 0:
            continue
        assert list(linear_plan(L, rs, rf).ranks) == oracle_linear(L, rs, rf)


@settings(max_examples=200, deadline=None)
@given(
    num_layers=st.integers(min_value=1, max_value=40),
    first=st.integers(min_value=1, max_value=32),
    spread=st.integers(min_value=0, max_value=32),
)
def test_linear_plan_properties(num_layers, first, spread):
    last = first + spread
    if num_layers == 1 and first != last:
        return
    if (num_layers * (first + last)) % 2 != 0:
        with pytest.raises(BudgetError):
            linear_plan(num_layers, first, last)
        return
    plan = linear_plan(num_layers, first, last)
    # Exact budget, endpoints intact, never decreasing.
    assert plan.total == num_layers * (first + last) // 2
    assert plan.ranks[0] == first
    assert plan.ranks[-1] == last
    assert all(a <= b for a, b in zip(plan.ranks, plan.ranks[1:]))
    assert list(plan.ranks) == oracle_linear(num_layers, first, last)


def test_linear_plan_over_many_layers_keeps_the_budget():
    # integer remainders, no rationals: 100000 layers plan in well under a second
    plan = linear_plan(100000, 2, 6)
    assert plan.total == 400000 and plan.budget_avg == 4
    assert plan.ranks[0] == 2 and plan.ranks[-1] == 6
    assert all(a <= b for a, b in zip(plan.ranks, plan.ranks[1:]))


def test_linear_plan_validation():
    with pytest.raises(BudgetError):
        linear_plan(3, 4, 5)  # total 13.5
    with pytest.raises(RankError):
        linear_plan(4, 6, 4)
    with pytest.raises(RankError):
        linear_plan(4, 0, 4)
    with pytest.raises(RankError):
        linear_plan(0, 2, 4)
    with pytest.raises(RankError):
        linear_plan(1, 2, 4)
    assert linear_plan(1, 3, 3).ranks == (3,)


def test_uniform_plan():
    plan = uniform_plan(12, 8)
    assert plan.ranks == (8,) * 12
    assert plan.total == linear_plan(12, 4, 12).total
    assert plan.budget_avg == 8
    with pytest.raises(RankError):
        uniform_plan(3, 0)


def test_inverted_plan_is_reversed_linear():
    base = linear_plan(12, 4, 12)
    inv = inverted_plan(12, 4, 12)
    assert inv.ranks == tuple(reversed(base.ranks))
    assert inv.total == base.total
    assert inv.budget_avg == base.budget_avg


def test_concentrated_plan():
    plan = concentrated_plan(4, 12)
    assert plan.ranks == (0, 0, 0, 12)
    assert plan.budget_avg == 3
    assert concentrated_plan(5, 12).budget_avg is None
    with pytest.raises(RankError):
        concentrated_plan(4, 0)


def test_explicit_plan_and_validation():
    plan = explicit_plan([1, 2, 3])
    assert plan.ranks == (1, 2, 3)
    assert plan.budget_avg == 2
    assert explicit_plan([1, 2, 4]).budget_avg is None  # 7 ranks over 3 layers
    with pytest.raises(RankError):
        explicit_plan([])
    with pytest.raises(RankError):
        explicit_plan([0, 0])
    with pytest.raises(RankError):
        explicit_plan([2, -1, 3])
    # A zero rank is allowed as long as something is adapted.
    assert explicit_plan([0, 4]).ranks == (0, 4)


def test_preset_fidelity():
    preset = deberta_base_preset()
    assert preset.ranks == (4, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 12)
    assert preset.ranks == DEBERTA_BASE_RANKS
    assert preset.total == 96
    assert preset.budget_avg == 8
    assert preset.num_layers == 12


def test_rank_plan_rejects_non_integers():
    with pytest.raises(RankError):
        RankPlan((2.0, 3.0))  # type: ignore[arg-type]
    with pytest.raises(RankError):
        RankPlan((True, False))  # type: ignore[arg-type]
