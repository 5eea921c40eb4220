"""Fault-preservation evaluation of minimized suites over labelled versions.

A version label names the tests that reveal the version's fault and the
evaluation instant. Accuracy is the fraction of those tests retained, and a
version is detected when its accuracy is above zero; the fault detection
rate over many versions is the fraction detected. ``evaluate_grid`` takes
these measurements over metric, horizon, operator, and budget (a single run
is the 1x1x1x1 grid) and keeps them as columns: per cell, one accuracy and
one seconds double per version, in label order. It shares each version's
decay pass across horizons and metrics, each dependency signature's risks
across its tests and operators, and each ranking across budgets. With
``jobs`` above 1 it cuts a project's (version, horizon) units into
contiguous shares, scores every share but the first in a forked child
process, and merges the cells by grid index, so they equal those of one
share; ``sweep_rows`` summarises each cell over the versions.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .change_history import ClassHistory
from .errors import LabelError
from .minimizer import Budget, MinimizationResult, budget_count, config_fingerprint, cut_ranking, rank
from .risk_aggregation import OPERATORS, check_operator, positive_multisets, score_multisets
from .temporal_risk import METRICS, risk_folder


@dataclass(frozen=True)
class VersionLabel:
    version_id: str
    as_of: int
    fault_revealing_tests: frozenset[str]


def accuracy(selected: set[str], label: VersionLabel) -> float:
    """Fraction of the version's fault-revealing tests that were retained."""
    if not label.fault_revealing_tests:
        raise LabelError(f"version {label.version_id!r} has no fault-revealing tests")
    fault_tests = label.fault_revealing_tests
    return len(selected & fault_tests) / len(fault_tests)


def fdr(accuracies: Sequence[float]) -> float:
    """Fraction of versions whose minimized suite kept at least one fault test, from their accuracies."""
    if not accuracies:
        raise ValueError("fdr() requires at least one accuracy")
    return sum(1 for acc in accuracies if acc > 0) / len(accuracies)


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
    ((_, _, scores, ranked, _),) = _scoring_passes(_prepare(histories, dep_map, grid, 1), (as_of,), grid, range(1))
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
GridCell = tuple[GridKey, array, array]  # key, accuracies, seconds: array('d') columns in label order


def evaluate_grid(
    histories: Mapping[str, ClassHistory],
    dep_map: Mapping[str, list[str]],
    labels: Sequence[VersionLabel],
    grid: SweepGrid,
    base_seconds: float = 0.0,
    jobs: int = 1,
) -> list[GridCell]:
    """Minimize every labelled version under every grid cell and measure fault preservation.

    Cells come back in grid order, each as ``(key, accuracies, seconds)``:
    two ``array('d')`` columns holding one value per label, in label order;
    a label's version is detected when its accuracy is above zero. Work is
    shared wherever cells agree: each class's columns (see ``risk_folder``)
    are derived once for every version; per version and share one pass over
    the classes serves every horizon of the share and every metric; per
    (horizon, metric) each distinct dependency signature gets one sorted
    positive-risk multiset; per operator each signature is scored once and
    the tests are ranked once, and every budget keeps a prefix of that
    ranking. Scores and selections equal, bit for bit, those of the
    cell run alone: ``risk_folder`` of its metric and horizon at the
    label's ``as_of``, then ``score_multisets(positive_multisets(...))`` and
    ``cut_ranking(rank(scores), ...)``. A cell's seconds for a label
    are ``base_seconds`` (ingestion and dependency analysis, measured by the
    caller) plus the measured cost of the work it used: its equal share of
    deriving the columns, its metric's share of its horizon's share of its
    decay pass, its metric's multisets, its scoring pass and ranking, and
    its own selection. Every axis is checked before any version is scored,
    with or without labels.

    The (version, horizon) units, version-major, are cut into
    ``min(jobs, units, cpus)`` contiguous shares, where ``cpus`` counts the
    CPUs this process may run on (one share where ``os.fork`` does not
    exist). The columns, the signatures and the reached classes are
    derived here, once; then every share but the first is scored in a
    forked child process, which charges its own measured time, and the
    first in this one. The cells are filled by grid index, so
    they equal those of ``jobs=1`` apart from the seconds.
    """
    for operator in grid.operators:
        check_operator(operator)
    budgets = [Budget(fraction) for fraction in grid.budgets]
    prepared = _prepare(histories, dep_map, grid, len(labels))
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    shares = _shares(len(labels) * len(grid.horizons), jobs, cpus)
    work = lambda units: _score_share(prepared, labels, grid, budgets, base_seconds, units)  # noqa: E731
    keys = itertools.product(grid.metrics, grid.horizons, grid.operators, grid.budgets)
    zeros = array("d", [0.0]) * len(labels)
    cells: list[GridCell] = [(key, array("d", zeros), array("d", zeros)) for key in keys]
    if len(shares) == 1:
        results = [work(shares[0])]
    else:
        from .workers import run_shares  # so that a command that does not fork does not load it

        results = run_shares(work, shares)
    for first_cell, v, measured in itertools.chain.from_iterable(results):
        for (_, accuracies, seconds), (acc, secs) in zip(cells[first_cell : first_cell + len(budgets)], measured):
            accuracies[v], seconds[v] = acc, secs
    return cells


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where ``os`` reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(units: int, jobs: int, cpus: int) -> list[range]:
    """``range(units)`` cut into ``min(jobs, units, cpus)`` contiguous shares (at least one), in order.

    Share sizes differ by at most one. At most ``units`` shares, so a huge
    ``jobs`` costs nothing.
    """
    n = max(1, min(jobs, units, cpus))
    return [range(units * k // n, units * (k + 1) // n) for k in range(n)]


_Measured = list[tuple[int, int, list[tuple[float, float]]]]


def _score_share(
    prepared: tuple,
    labels: Sequence[VersionLabel],
    grid: SweepGrid,
    budgets: Sequence[Budget],
    base_seconds: float,
    units: range,
) -> _Measured:
    """(first cell, label index, (accuracy, seconds) per budget) of every scoring pass of ``units``.

    ``prepared`` is as returned by ``_prepare``.
    """
    measured: _Measured = []
    as_ofs = [label.as_of for label in labels]
    for first_cell, v, _, ranked, shared_seconds in _scoring_passes(prepared, as_ofs, grid, units):
        label = labels[v]
        per_budget = []
        for budget in budgets:
            t0 = time.perf_counter()
            acc = accuracy(set(ranked[: budget_count(len(ranked), budget)]), label)
            per_budget.append((acc, base_seconds + shared_seconds + (time.perf_counter() - t0)))
        measured.append((first_cell, v, per_budget))
    return measured


def _prepare(
    histories: Mapping[str, ClassHistory], dep_map: Mapping[str, list[str]], grid: SweepGrid, n_instants: int
) -> tuple:
    """What every share of one project's grid reads; derived once, before any child is forked.

    That is ``by_signature`` (each dependency signature of ``dep_map`` and
    its tests, in ``dep_map`` order), ``signature_of`` (each test id with
    the index of its signature), ``fold`` (``risk_folder`` of the grid's
    metrics and horizons over the classes some signature reaches) and
    ``columns_seconds`` (the time taken to derive the fold's columns, per
    instant). Only the reached classes are folded: a class's fold does not
    depend on any other's, so the risks that are read are the same, bit for
    bit. Checks the grid's metrics and horizons.
    """
    by_signature: dict[tuple[str, ...], list[str]] = {}
    for test_id, deps in dep_map.items():
        by_signature.setdefault(tuple(deps), []).append(test_id)
    signature_of = [
        (test_id, k) for k, test_ids in enumerate(by_signature.values()) for test_id in test_ids
    ]
    t0 = time.perf_counter()
    reached = {class_id for signature in by_signature for class_id in signature}
    histories = {class_id: history for class_id, history in histories.items() if class_id in reached}
    fold = risk_folder(histories, grid.metrics, grid.horizons)
    return by_signature, signature_of, fold, (time.perf_counter() - t0) / max(n_instants, 1)


def _scoring_passes(
    prepared: tuple,
    as_ofs: Sequence[int],
    grid: SweepGrid,
    units: range,
) -> Iterator[tuple[int, int, dict[str, float], list[str], float]]:
    """Every (metric, operator) scoring pass of the (instant, horizon) units ``units``, in unit order.

    Unit ``u`` is the instant ``as_ofs[u // len(grid.horizons)]`` at the
    horizon ``u % len(grid.horizons)``. Per instant, one decay pass folds
    the run of its horizons that ``units`` holds. Yields the grid index of
    the pass's first cell (its first budget), the index of the evaluation
    instant in ``as_ofs``, every test's score, the tests in ``rank`` order,
    and the seconds of the shared work the pass used.
    """
    n_horizons, n_operators, n_budgets = len(grid.horizons), len(grid.operators), len(grid.budgets)
    by_signature, signature_of, fold, columns_seconds = prepared
    if not units:  # also the only case of a grid without horizons
        return
    for v in range(units.start // n_horizons, (units.stop - 1) // n_horizons + 1):
        first = max(units.start - v * n_horizons, 0)
        last = min(units.stop - v * n_horizons, n_horizons)
        t0 = time.perf_counter()
        tables = fold(as_ofs[v], slice(first, last))
        decay_seconds = columns_seconds / n_horizons + (time.perf_counter() - t0) / (last - first)
        for h in range(first, last):
            # so that a horizon's table is freed once its multisets are built
            risks, tables[h - first] = tables[h - first], {}
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

    Rows keep the order of ``cells``; a cell holding no versions yields no row.
    """
    rows: list[SweepRow] = []
    for (metric, horizon, operator, fraction), accuracies, seconds in cells:
        if not accuracies:
            continue
        lo, q1, mean, med, q3, hi = describe(accuracies)
        mean_time = statistics.fmean(seconds)
        rows.append(SweepRow(metric, horizon, operator, fraction, mean, fdr(accuracies), lo, q1, med, q3, hi, mean_time))
    return rows
