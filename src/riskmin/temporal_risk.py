"""Time-decayed risk scoring for production classes.

A class's risk is the sum of its modification-event weights, each damped
by an exponential factor of the event's age. The damping is parameterized
by a half-life: an event's influence halves every ``half_life_days`` days.
Static mode (no half-life) weights all history uniformly, which reproduces
plain change-count / change-churn aggregation.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping, Sequence

from .change_history import ClassHistory

SECONDS_PER_DAY = 86_400.0

METRIC_FREQUENCY = "frequency"
METRIC_EXTENT = "extent"
METRICS = (METRIC_FREQUENCY, METRIC_EXTENT)


def alpha_from_half_life(half_life_days: float) -> float:
    """Decay rate per day for a given half-life: ln(2) / T.

    A half-life so small (subnormal) that the rate overflows to infinity is
    rejected: an infinite rate times an age of 0 would give a NaN risk.
    """
    if not half_life_days > 0:
        raise ValueError(f"half-life must be positive, got {half_life_days}")
    alpha = math.log(2.0) / half_life_days
    if not math.isfinite(alpha):
        raise ValueError(f"half-life {half_life_days} is too small: its decay rate is not finite")
    return alpha


def _checked_alphas(metrics: Iterable[str], half_lives: Iterable[float | None]) -> list[float]:
    """Each half-life's decay rate per day (0.0 in static mode), once the arguments are checked.

    Rejects an unknown metric, and, through ``alpha_from_half_life``, a
    half-life that is not positive or whose rate is not finite.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return [0.0 if half_life is None else alpha_from_half_life(half_life) for half_life in half_lives]


def decayed_risks(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_life_days: float | None,
    reference_time: int,
) -> dict[str, dict[str, float]]:
    """``risk_tables_by_instant`` at one instant and one horizon: metric -> class id -> risk."""
    return next(risk_tables_by_instant(histories, metrics, (half_life_days,), (reference_time,)))[0]


_TIMESTAMP = operator.itemgetter(1)  # of a ChangeEvent


def risk_tables_by_instant(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_lives: Sequence[float | None],
    as_ofs: Sequence[int],
) -> Iterator[list[dict[str, dict[str, float]]]]:
    """The risk tables at each of ``as_ofs``, in order: per half-life, metric -> class id -> risk.

    A class's risk is the sum, over its events not after the instant, of the
    event's weight (1 under frequency, ``log1p(churn)`` under extent) times
    ``exp(-alpha * age)``, with the event's age in (fractional) days and
    ``alpha`` the half-life's decay rate (0 in static mode).

    The arguments are checked, and each event's extent weight is derived,
    when the function is called; the tables of each instant are computed
    when they are asked for. A history is in time order, so the in-scope
    events of each class are a prefix, found by bisection. Per class and
    instant, their ages are computed once, then folded under every horizon;
    the metrics share each decay factor. Each fold is a sequential ``+=`` in
    the history's chronological order: never the builtin ``sum``, whose
    float summation is compensated since Python 3.12.
    """
    alphas = _checked_alphas(metrics, half_lives)
    # class id -> the extent weight of each of its events; empty without extent
    weights: dict[str, array[float]] = {}
    if METRIC_EXTENT in metrics:
        log1p = math.log1p
        for class_id, history in histories.items():
            # From a list, so that each column is allocated once, at its size: grown
            # from an iterator, the columns fragment the heap and raise peak RSS.
            weights[class_id] = array(  # event.churn, inlined
                "d", [log1p(event.added + event.deleted + event.modified) for event in history.events]
            )
    return (_tables_at(histories, metrics, alphas, as_of, weights) for as_of in as_ofs)


def _tables_at(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    alphas: Sequence[float],
    as_of: int,
    weights: Mapping[str, array[float]],
) -> list[dict[str, dict[str, float]]]:
    """The tables of one instant; ``weights`` as built by ``risk_tables_by_instant``."""
    tables: list[dict[str, dict[str, float]]] = [{metric: {} for metric in metrics} for _ in alphas]
    if not metrics:
        return tables
    folds = [
        (-alpha, table.get(METRIC_FREQUENCY), table.get(METRIC_EXTENT))
        for alpha, table in zip(alphas, tables)
    ]
    # Local names, and plain loops: on CPython 3.10-3.13 a loop of float `+=` is
    # faster than functools.reduce(operator.add, map(math.exp, ...)) for these lengths.
    exp = math.exp
    for class_id, history in histories.items():
        events = history.events
        in_scope = events[: bisect_right(events, as_of, key=_TIMESTAMP)]
        ages = [(as_of - event.timestamp) / SECONDS_PER_DAY for event in in_scope]
        for rate, frequency_table, extent_table in folds:
            frequency = 0.0
            if extent_table is None:
                for age in ages:
                    frequency += exp(rate * age)
            else:
                extent_total = 0.0
                for age, weight in zip(ages, weights[class_id]):  # zip stops with the in-scope ages
                    decay = exp(rate * age)
                    frequency += decay
                    extent_total += weight * decay
                extent_table[class_id] = extent_total
            if frequency_table is not None:
                frequency_table[class_id] = frequency
    return tables
