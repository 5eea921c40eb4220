"""Budget-constrained selection of the highest-scoring tests."""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence


def check_budget(fraction: float) -> None:
    """Reject a budget, the fraction of the suite retained, outside (0, 1] with ``ValueError``."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"budget fraction must be in (0, 1], got {fraction}")


def budget_count(n_tests: int, budget: float) -> int:
    """Number of tests retained: round-half-up(n * budget), once ``check_budget`` takes the budget.

    Clamped so a non-empty suite always keeps at least one test and never
    more than it has.
    """
    check_budget(budget)
    if n_tests < 0:
        raise ValueError(f"test count must be non-negative, got {n_tests}")
    count = math.floor(n_tests * budget + 0.5)
    return max(min(1, n_tests), min(n_tests, count))


def format_horizon(half_life_days: float | None) -> str:
    """A half-life as outputs spell it: ``static`` for static mode, else ``:g``."""
    return "static" if half_life_days is None else f"{half_life_days:g}"


def config_fingerprint(
    metric: str,
    half_life_days: float | None,
    operator: str,
    budget_fraction: float,
    as_of: int,
) -> str:
    return (
        f"metric={metric};horizon={format_horizon(half_life_days)};aggregate={operator};"
        f"budget={budget_fraction:g};as_of={as_of}"
    )


class MinimizationResult(NamedTuple):
    """Deterministic split of a suite into selected and excluded tests.

    Both lists are ordered by (score descending, test id ascending); the
    selected list is the leading prefix of that total order.
    """

    selected: tuple[str, ...]
    excluded: tuple[str, ...]
    scores: dict[str, float]
    config_fingerprint: str = ""


def rank(scores: Mapping[str, float]) -> list[str]:
    """Test ids by score descending, ties broken on test id ascending.

    This total order makes the output reproducible across runs and
    platforms; a budget keeps its leading prefix.
    """
    # Sorting by id, then stably by score alone, orders by (-score, test id).
    return sorted(sorted(scores), key=scores.__getitem__, reverse=True)


def cut_ranking(
    ranked: Sequence[str],
    scores: Mapping[str, float],
    budget: float,
    fingerprint: str,
) -> MinimizationResult:
    """Split tests in ``rank`` order at the budget, keeping each test's score."""
    keep = budget_count(len(ranked), budget)
    return MinimizationResult(
        selected=tuple(ranked[:keep]),
        excluded=tuple(ranked[keep:]),
        scores={test_id: scores[test_id] for test_id in ranked},
        config_fingerprint=fingerprint,
    )


def check_result_invariants(result: MinimizationResult, budget: float) -> None:
    """Assert the selection contract; the CLI checks every ``minimize`` result."""
    n_tests = len(result.selected) + len(result.excluded)
    if len(result.selected) != budget_count(n_tests, budget):
        raise AssertionError("selected count does not match the budget rule")
    if set(result.selected) & set(result.excluded):
        raise AssertionError("selected and excluded overlap")
    if result.selected and result.excluded:
        boundary_in = result.selected[-1]
        boundary_out = result.excluded[0]
        score_in = result.scores[boundary_in]
        score_out = result.scores[boundary_out]
        if score_in < score_out:
            raise AssertionError("excluded test outscores a selected test")
        if score_in == score_out and boundary_in > boundary_out:
            raise AssertionError("tie crossed against lexicographic order")
