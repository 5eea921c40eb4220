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
from itertools import accumulate
from typing import Callable, Mapping, Sequence

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
    ``alpha`` the half-life's decay rate (0 in static mode, and for an
    infinite half-life).

    An unknown metric, and a half-life that ``alpha_from_half_life``
    rejects, raise ``ValueError`` when this is called. The fold reads each
    history's own columns: its timestamps and, under extent, its weights
    (which a history computes when they are first read) if some half-life
    decays. The one column derived here, once per class, is the running
    sums of the weights, under extent if some half-life's rate is 0. A history is in time order, so the in-scope events of each
    class are a prefix, found by one bisection of its timestamps. At rate
    0 every decay factor is ``exp(-0.0 * age) == 1.0``, so the risk is
    read off the prefix: its length under frequency, its last running sum
    under extent. Under the other half-lives, each call of ``fold``
    computes the prefix's ages once and folds them under each; the metrics
    share each decay factor. Each fold
    and each running sum is a sequential ``+`` in the history's
    chronological order: never the builtin ``sum``, whose float summation
    is compensated since Python 3.12. A half-life's table does not depend
    on the others folded with it, so the tables of a slice equal, bit for
    bit, those of the whole.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    alphas = [0.0 if half_life is None else alpha_from_half_life(half_life) for half_life in half_lives]
    extent = METRIC_EXTENT in metrics
    weighted = extent and any(alphas)  # some extent fold decays
    summed = extent and not all(alphas)  # some extent fold is static
    # (class id, event timestamps, weights or None, running sums or None), per class
    columns: list[tuple[str, array[int], array[float] | None, array[float] | None]] = [
        (
            class_id,
            history.timestamps,
            history.weights if weighted else None,
            # From a list, so that the array is allocated once, at its size.
            array("d", list(accumulate(history.weights))) if summed else None,
        )
        for class_id, history in histories.items()
    ]

    def fold(as_of: int, horizons: slice = slice(None)) -> list[dict[str, dict[str, float]]]:
        sliced = alphas[horizons]
        tables: list[dict[str, dict[str, float]]] = [{metric: {} for metric in metrics} for _ in sliced]
        if not metrics:
            return tables
        static = [
            (table.get(METRIC_FREQUENCY), table.get(METRIC_EXTENT)) for alpha, table in zip(sliced, tables) if not alpha
        ]
        decayed = [
            (-alpha, table.get(METRIC_FREQUENCY), table.get(METRIC_EXTENT))
            for alpha, table in zip(sliced, tables)
            if alpha
        ]
        # Local names, and plain loops: on CPython 3.10-3.13 a loop of float `+=` is
        # faster than functools.reduce(operator.add, map(math.exp, ...)) for these lengths.
        exp = math.exp
        for class_id, timestamps, weights, running in columns:
            k = bisect_right(timestamps, as_of)
            # A rate of 0: the sum of k terms 1.0 is exact, and 0.0 + w == w starts the running sum.
            for frequency_table, extent_table in static:
                if frequency_table is not None:
                    frequency_table[class_id] = float(k)
                if extent_table is not None:
                    extent_table[class_id] = running[k - 1] if k else 0.0
            if not decayed:
                continue
            ages = [(as_of - timestamp) / SECONDS_PER_DAY for timestamp in timestamps[:k]]
            for rate, frequency_table, extent_table in decayed:
                frequency = 0.0
                if extent_table is None:
                    for age in ages:
                        frequency += exp(rate * age)
                else:
                    extent_total = 0.0
                    for age, weight in zip(ages, weights):  # zip stops with the in-scope ages
                        decay = exp(rate * age)
                        frequency += decay
                        extent_total += weight * decay
                    extent_table[class_id] = extent_total
                if frequency_table is not None:
                    frequency_table[class_id] = frequency
        return tables

    return fold
