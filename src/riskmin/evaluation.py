"""Fault-preservation evaluation over per-version minimization outcomes.

A version label names the tests that reveal the version's fault and the
evaluation instant. Accuracy is the fraction of those tests retained;
the fault detection rate over many versions is the fraction of versions
keeping at least one of them. ``evaluate_grid`` takes these measurements
over metric, horizon, operator, and budget (a single run is the 1x1x1x1
grid), sharing each version's decay pass across horizons and metrics, each
dependency signature's risks across its tests and operators, and each
ranking across budgets;
``sweep_rows`` summarises each cell over the versions.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .change_history import ClassHistory
from .errors import LabelError
from .minimizer import Budget, MinimizationResult, budget_count, config_fingerprint, cut_ranking, rank
from .risk_aggregation import OPERATORS, check_operator, positive_multisets, score_multisets
from .temporal_risk import METRICS, risk_tables_by_instant


@dataclass(frozen=True)
class VersionLabel:
    version_id: str
    as_of: int
    fault_revealing_tests: frozenset[str]


@dataclass(frozen=True)
class VersionOutcome:
    version_id: str
    accuracy: float
    detected: bool
    wall_time: float
    config_fingerprint: str


def accuracy(selected: set[str], label: VersionLabel) -> float:
    """Fraction of the version's fault-revealing tests that were retained."""
    if not label.fault_revealing_tests:
        raise LabelError(f"version {label.version_id!r} has no fault-revealing tests")
    fault_tests = label.fault_revealing_tests
    return len(selected & fault_tests) / len(fault_tests)


def fdr(outcomes: Sequence[VersionOutcome]) -> float:
    """Fraction of versions whose minimized suite kept at least one fault test."""
    if not outcomes:
        raise ValueError("fdr() requires at least one outcome")
    return sum(1 for o in outcomes if o.detected) / len(outcomes)


def minimize_suite(
    histories: Mapping[str, ClassHistory],
    dep_map: Mapping[str, list[str]],
    *,
    metric: str,
    half_life_days: float | None,
    operator: str,
    budget: Budget,
    as_of: int,
) -> MinimizationResult:
    """The tests of ``dep_map`` (from ``build_dependency_map``) scored at ``as_of`` by the
    1x1x1x1 grid's one scoring pass, and that ranking cut at the budget."""
    grid = SweepGrid((metric,), (half_life_days,), (operator,), (budget.fraction,))
    ((_, _, scores, ranked, _),) = _scoring_passes(histories, dep_map, (as_of,), grid)
    fingerprint = config_fingerprint(metric, half_life_days, operator, budget.fraction, as_of)
    return cut_ranking(ranked, scores, budget, fingerprint)


CANONICAL_HORIZONS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
CANONICAL_BUDGETS = (0.25, 0.50, 0.75)


@dataclass(frozen=True)
class SweepGrid:
    """Configuration grid: metrics x horizons x operators, per budget.

    ``None`` in ``horizons`` stands for static mode.
    """

    metrics: tuple[str, ...] = METRICS
    horizons: tuple[float | None, ...] = CANONICAL_HORIZONS
    operators: tuple[str, ...] = OPERATORS
    budgets: tuple[float, ...] = CANONICAL_BUDGETS


class SweepRow(NamedTuple):
    """One ``sweep.csv`` row; the field names, in order, are the file's header."""

    metric: str
    horizon_days: float | None
    operator: str
    budget: float
    mean_accuracy: float
    fdr: float
    min_acc: float
    q1_acc: float
    median_acc: float
    q3_acc: float
    max_acc: float
    mean_time_s: float


def describe(values: Sequence[float]) -> tuple[float, float, float, float, float, float]:
    """(min, Q1, mean, median, Q3, max); quartiles use inclusive interpolation."""
    if not values:
        raise ValueError("describe() requires at least one value")
    ordered = sorted(values)
    med = statistics.median(ordered)
    if len(ordered) == 1:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return (ordered[0], q1, statistics.fmean(ordered), med, q3, ordered[-1])


GridKey = tuple[str, float | None, str, float]  # metric, horizon, operator, budget
GridCell = tuple[GridKey, list[VersionOutcome]]


def evaluate_grid(
    histories: Mapping[str, ClassHistory],
    dep_map: Mapping[str, list[str]],
    labels: Sequence[VersionLabel],
    grid: SweepGrid,
    base_seconds: float = 0.0,
) -> list[GridCell]:
    """Minimize every labelled version under every grid cell and measure fault preservation.

    Cells come back in grid order, each with one outcome per label in label
    order. Work is shared wherever cells agree: each event's weight is
    derived once for every version; per version one decay pass over each
    class's history serves every horizon and metric; per
    (horizon, metric) each distinct dependency signature gets one sorted
    positive-risk multiset; per operator each signature is scored once and
    the tests are ranked once, and every budget keeps a prefix of that
    ranking. Scores and selections equal, bit for bit, those of the cell
    run alone: ``decayed_risks`` at the label's ``as_of``, then
    ``score_multisets(positive_multisets(...))`` and
    ``cut_ranking(rank(scores), ...)``. A cell's ``wall_time``
    is ``base_seconds`` (ingestion and dependency analysis, measured by the
    caller) plus the measured cost of the work it used: its metric's share
    of its horizon's share of the version's decay pass (which includes the
    version's equal share of deriving the weights), its metric's
    multisets, its scoring pass and ranking, and its own selection.
    Every axis is checked before any version is scored, with or without labels.
    """
    for operator in grid.operators:
        check_operator(operator)
    budgets = [Budget(fraction) for fraction in grid.budgets]
    keys = itertools.product(grid.metrics, grid.horizons, grid.operators, grid.budgets)
    cells: list[GridCell] = [(key, []) for key in keys]
    passes = _scoring_passes(histories, dep_map, [label.as_of for label in labels], grid)
    for first_cell, v, _, ranked, shared_seconds in passes:
        label = labels[v]
        budget_cells = cells[first_cell : first_cell + len(budgets)]
        for ((metric, horizon, operator, fraction), outcomes), budget in zip(budget_cells, budgets):
            t0 = time.perf_counter()
            fingerprint = config_fingerprint(metric, horizon, operator, fraction, label.as_of)
            keep = budget_count(len(ranked), budget)
            acc = accuracy(set(ranked[:keep]), label)
            seconds = base_seconds + shared_seconds + (time.perf_counter() - t0)
            outcomes.append(VersionOutcome(label.version_id, acc, acc > 0, seconds, fingerprint))
    return cells


def _scoring_passes(
    histories: Mapping[str, ClassHistory],
    dep_map: Mapping[str, list[str]],
    as_ofs: Sequence[int],
    grid: SweepGrid,
) -> Iterator[tuple[int, int, dict[str, float], list[str], float]]:
    """Every (instant, metric, horizon, operator) scoring pass of the grid, horizon-outer.

    Yields the grid index of the pass's first cell (its first budget), the
    index of the evaluation instant in ``as_ofs``, every test's score, the
    tests in ``rank`` order, and the seconds of the shared work the pass used.
    Only the classes that some dependency signature reaches are folded: a
    class's fold does not depend on any other's, so the risks that are read
    are the same, bit for bit.
    """
    n_horizons, n_operators, n_budgets = len(grid.horizons), len(grid.operators), len(grid.budgets)
    by_signature: dict[tuple[str, ...], list[str]] = {}
    for test_id, deps in dep_map.items():
        by_signature.setdefault(tuple(deps), []).append(test_id)
    signature_of = [
        (test_id, k) for k, test_ids in enumerate(by_signature.values()) for test_id in test_ids
    ]
    t0 = time.perf_counter()
    reached = {class_id for signature in by_signature for class_id in signature}
    histories = {class_id: history for class_id, history in histories.items() if class_id in reached}
    del reached  # this generator lives through the whole grid
    by_instant = risk_tables_by_instant(histories, grid.metrics, grid.horizons, as_ofs)
    weights_seconds = (time.perf_counter() - t0) / max(len(as_ofs), 1)  # derived once, shared by every instant
    for v in range(len(as_ofs)):
        t0 = time.perf_counter()
        tables = next(by_instant)
        decay_seconds = (weights_seconds + time.perf_counter() - t0) / max(n_horizons, 1)
        for h in range(n_horizons):
            risks, tables[h] = tables[h], {}  # so that a horizon's table is freed once its multisets are built
            for m, metric in enumerate(grid.metrics):
                t0 = time.perf_counter()
                multisets = positive_multisets(by_signature, risks[metric])
                metric_seconds = decay_seconds / len(grid.metrics) + (time.perf_counter() - t0)
                for o, operator in enumerate(grid.operators):
                    t0 = time.perf_counter()
                    signature_scores = score_multisets(multisets, operator)
                    scores = {test_id: signature_scores[k] for test_id, k in signature_of}
                    ranked = rank(scores)
                    seconds = metric_seconds + (time.perf_counter() - t0)
                    first_cell = ((m * n_horizons + h) * n_operators + o) * n_budgets
                    yield first_cell, v, scores, ranked, seconds
                del multisets  # so that only one metric's multisets are ever alive


def sweep_rows(cells: Iterable[GridCell]) -> list[SweepRow]:
    """One row per cell, aggregating accuracy, detection, and time across its versions.

    Rows keep the order of ``cells``; a cell holding no outcomes yields no row.
    """
    rows: list[SweepRow] = []
    for (metric, horizon, operator, fraction), outcomes in cells:
        if not outcomes:
            continue
        lo, q1, mean, med, q3, hi = describe([o.accuracy for o in outcomes])
        mean_time = statistics.fmean([o.wall_time for o in outcomes])
        rows.append(SweepRow(metric, horizon, operator, fraction, mean, fdr(outcomes), lo, q1, med, q3, hi, mean_time))
    return rows
