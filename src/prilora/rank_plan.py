"""Per-layer adapter rank schedules under an exact parameter budget.

A schedule assigns one integer rank to each transformer layer; every adapted
weight matrix inside a layer uses that layer's rank. The central constructor
distributes ranks linearly from a small first-layer value to a large
last-layer value while keeping the total identical to what a uniform
schedule at the midpoint average would spend, so schedules are comparable
at equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, RankError

__all__ = [
    "RankPlan",
    "linear_plan",
    "uniform_plan",
    "inverted_plan",
    "concentrated_plan",
    "explicit_plan",
    "deberta_base_preset",
    "DEBERTA_BASE_RANKS",
]

# Hand-assigned schedule for a 12-layer encoder: rises from 4 to 12 and
# spends exactly the same total as a uniform schedule of rank 8.
DEBERTA_BASE_RANKS: tuple[int, ...] = (4, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 12)


@dataclass(frozen=True)
class RankPlan:
    """An immutable rank-per-layer assignment.

    ranks: one nonnegative rank per layer; rank 0 means the layer gets no
           adapter at all.
    """

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise RankError("a rank plan needs at least one layer")
        for i, r in enumerate(self.ranks):
            if not isinstance(r, int) or isinstance(r, bool):
                raise RankError(f"rank for layer {i} must be an integer, got {r!r}")
            if r < 0:
                raise RankError(f"rank for layer {i} must be nonnegative, got {r}")
        if all(r == 0 for r in self.ranks):
            raise RankError("a rank plan must assign a positive rank somewhere")

    @property
    def num_layers(self) -> int:
        return len(self.ranks)

    @property
    def total(self) -> int:
        return sum(self.ranks)

    @property
    def budget_avg(self) -> int | None:
        """The uniform per-layer rank that spends this plan's total, when
        that average is a whole number; None otherwise."""
        avg, rest = divmod(self.total, self.num_layers)
        return None if rest else avg


def _check_layer_count(num_layers: int) -> None:
    if not isinstance(num_layers, int) or isinstance(num_layers, bool) or num_layers < 1:
        raise RankError(f"layer count must be a positive integer, got {num_layers!r}")


def linear_plan(num_layers: int, first_rank: int, last_rank: int) -> RankPlan:
    """Ranks rising linearly from ``first_rank`` to ``last_rank``.

    The ideal values first + i*(last-first)/(L-1) are usually fractional, so
    they are rounded by largest remainder: floor everything, then hand out
    the leftover units to the largest fractional parts, earliest layer first
    on ties. That keeps the total at exactly L*(first+last)/2 (which must be
    an integer) and keeps the sequence non-decreasing.
    """
    _check_layer_count(num_layers)
    if first_rank < 1 or last_rank < 1:
        raise RankError(f"endpoint ranks must be >= 1, got {first_rank} and {last_rank}")
    if last_rank < first_rank:
        raise RankError(
            f"last rank {last_rank} must not be below first rank {first_rank}"
        )
    twice_budget = num_layers * (first_rank + last_rank)
    if twice_budget % 2:
        raise BudgetError(
            f"{num_layers} layers from rank {first_rank} to {last_rank} give a "
            f"fractional total {twice_budget}/2; adjust the endpoints"
        )
    if num_layers == 1:
        if first_rank != last_rank:
            raise RankError("a single layer needs equal first and last ranks")
        return RankPlan((first_rank,))

    # layer i's ideal rank is first + (q + rem/(L-1)) for q, rem = divmod(i·span, L-1)
    span, steps = last_rank - first_rank, num_layers - 1
    parts = [divmod(i * span, steps) for i in range(num_layers)]
    ranks = [first_rank + q for q, _ in parts]
    leftover = twice_budget // 2 - sum(ranks)
    # Largest remainder wins a unit; ties go to the earlier layer.
    order = sorted(range(num_layers), key=lambda i: (-parts[i][1], i))
    for i in order[:leftover]:
        ranks[i] += 1
    return RankPlan(tuple(ranks))


def uniform_plan(num_layers: int, rank: int) -> RankPlan:
    """The same rank everywhere; the equal-cost baseline."""
    _check_layer_count(num_layers)
    if rank < 1:
        raise RankError(f"uniform rank must be >= 1, got {rank}")
    return RankPlan((rank,) * num_layers)


def inverted_plan(num_layers: int, first_rank: int, last_rank: int) -> RankPlan:
    """The linear schedule reversed: large ranks early, small ranks late."""
    return RankPlan(tuple(reversed(linear_plan(num_layers, first_rank, last_rank).ranks)))


def concentrated_plan(num_layers: int, last_rank: int) -> RankPlan:
    """The whole budget on the final layer; earlier layers get no adapter."""
    _check_layer_count(num_layers)
    if last_rank < 1:
        raise RankError(f"concentrated rank must be >= 1, got {last_rank}")
    return RankPlan((0,) * (num_layers - 1) + (last_rank,))


def explicit_plan(ranks) -> RankPlan:
    """Wrap a hand-written rank list, validating it like any other plan."""
    return RankPlan(tuple(int(r) for r in ranks))


def deberta_base_preset() -> RankPlan:
    """The shipped 12-layer schedule (total 96, average 8)."""
    return RankPlan(DEBERTA_BASE_RANKS)
