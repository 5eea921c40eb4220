"""Time-decayed risk scoring for production classes.

A class's risk is the sum of its modification-event weights, each damped
by an exponential factor of the event's age. The damping is parameterized
by a half-life: an event's influence halves every ``half_life_days`` days.
Static mode (no half-life) weights all history uniformly, which reproduces
plain change-count / change-churn aggregation.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Callable, Mapping, Sequence

from .change_history import _TIMESTAMP, ClassHistory

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


def risk_folder(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_lives: Sequence[float | None],
) -> Callable[[int, slice], list[dict[str, dict[str, float]]]]:
    """``fold(as_of, horizons=slice(None))``: the risk tables at ``as_of`` of the half-lives
    ``half_lives[horizons]``, in order, each metric -> class id -> risk.

    A class's risk is the sum, over its events not after the instant, of the
    event's weight (1 under frequency, ``log1p(churn)`` under extent) times
    ``exp(-alpha * age)``, with the event's age in (fractional) days and
    ``alpha`` the half-life's decay rate (0 in static mode).

    An unknown metric, and a half-life that ``alpha_from_half_life``
    rejects, raise ``ValueError`` when this is called, and each event's
    extent weight is derived then; each call of ``fold`` is one decay pass.
    A history is in time order, so the in-scope events of each class are a
    prefix, found by bisection. Per class, their ages are computed once,
    then folded under every half-life of the slice; the metrics share each
    decay factor. Each fold is a sequential ``+=`` in the history's
    chronological order: never the builtin ``sum``, whose float summation is
    compensated since Python 3.12. A half-life's table does not depend on
    the others folded with it, so the tables of a slice equal, bit for bit,
    those of the whole.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    alphas = [0.0 if half_life is None else alpha_from_half_life(half_life) for half_life in half_lives]
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

    def fold(as_of: int, horizons: slice = slice(None)) -> list[dict[str, dict[str, float]]]:
        sliced = alphas[horizons]
        tables: list[dict[str, dict[str, float]]] = [{metric: {} for metric in metrics} for _ in sliced]
        if not metrics:
            return tables
        folds = [
            (-alpha, table.get(METRIC_FREQUENCY), table.get(METRIC_EXTENT))
            for alpha, table in zip(sliced, tables)
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

    return fold
