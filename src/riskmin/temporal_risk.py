"""Time-decayed risk scoring for production classes.

A class's risk is the sum of its modification-event weights, each damped
by an exponential factor of the event's age. The damping is parameterized
by a half-life: an event's influence halves every ``half_life_days`` days.
Static mode (no half-life) weights all history uniformly, which reproduces
plain change-count / change-churn aggregation.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping, Sequence

from .change_history import ChangeEvent, ClassHistory

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


def event_age_days(event: ChangeEvent, reference_time: int) -> float:
    """Elapsed days (fractional) from the event to the reference time.

    Negative for events after the reference time; callers filter those.
    """
    return (reference_time - event.timestamp) / SECONDS_PER_DAY


def event_weight(event: ChangeEvent, metric: str) -> float:
    """Per-event weight: 1 under frequency, ln(1 + churn) under extent."""
    if metric == METRIC_FREQUENCY:
        return 1.0
    if metric == METRIC_EXTENT:
        return math.log1p(event.churn)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def class_risk(
    history: ClassHistory, metric: str, half_life_days: float | None, reference_time: int
) -> float:
    """Sum of decayed event weights over the in-scope history.

    ``half_life_days=None`` selects static mode (decay factor 1 for every
    event). Events newer than the reference time are excluded so that scores
    for a past evaluation point never see the future. Summation runs in the
    history's chronological order to keep results bit-deterministic.
    """
    (alpha,) = _checked_alphas((metric,), (half_life_days,))
    rate = -alpha
    score = 0.0
    for event in history.events:
        age = event_age_days(event, reference_time)
        if age < 0:
            continue
        score += event_weight(event, metric) * math.exp(rate * age)
    return score


def risk_table(
    histories: Mapping[str, ClassHistory], metric: str, half_life_days: float | None, reference_time: int
) -> dict[str, float]:
    """Score every class in the map; classes not present are implicitly 0."""
    _checked_alphas((metric,), (half_life_days,))  # so that an empty map rejects them too
    return {
        class_id: class_risk(history, metric, half_life_days, reference_time)
        for class_id, history in histories.items()
    }


def decayed_risks(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_life_days: float | None,
    reference_time: int,
) -> dict[str, dict[str, float]]:
    """Every class's risk score under each metric at one horizon.

    ``decayed_risks(h, metrics, t, ref)[m][c]`` equals
    ``risk_table(h, m, t, ref)[c]`` bit for bit; the metrics
    share each event's decay factor instead of recomputing it.
    """
    return decayed_risk_tables(histories, metrics, (half_life_days,), reference_time)[0]


def decayed_risk_tables(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_lives: Sequence[float | None],
    reference_time: int,
) -> list[dict[str, dict[str, float]]]:
    """``decayed_risks`` at each of ``half_lives``, from one pass over each history.

    The one-instant case of ``risk_tables_by_instant``.
    """
    return next(risk_tables_by_instant(histories, metrics, half_lives, (reference_time,)))


_TIMESTAMP = operator.itemgetter(1)  # of a ChangeEvent


def risk_tables_by_instant(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    half_lives: Sequence[float | None],
    as_ofs: Sequence[int],
) -> Iterator[list[dict[str, dict[str, float]]]]:
    """``decayed_risk_tables(histories, metrics, half_lives, as_of)`` for each of ``as_ofs``, in order.

    The arguments are checked, and the work shared by every instant is done,
    when the function is called; the tables of each instant are computed
    when they are asked for. Per class and instant, the ages of the in-scope
    events (and, under extent, their weights) are computed once, then
    folded under every horizon; the metrics share each decay factor. Each
    fold is a sequential ``+=`` in the history's chronological order, as in
    ``class_risk``: never the builtin ``sum``, whose float summation is
    compensated since Python 3.12. An event is in scope if its (integer)
    timestamp is not after the instant, that is if its ``event_age_days`` is
    not negative.

    Over more than one instant, the work shared by every instant is done
    once per class whose timestamps never decrease (every ``consolidate``
    output): its in-scope events are a prefix, found by bisection, and under
    extent its ``log1p(churn)`` weights are derived once. A one-instant call
    keeps no such columns and filters each history, as every call does the
    histories whose timestamps decrease.
    """
    alphas = _checked_alphas(metrics, half_lives)
    # class id -> the weights of its events (None without extent), for each history in time order
    ordered: dict[str, Sequence[float] | None] = {}
    if metrics and len(as_ofs) > 1:
        from array import array  # here, so that a one-instant command never maps its extension module

        extent = METRIC_EXTENT in metrics
        for class_id, history in histories.items():
            timestamps = list(map(_TIMESTAMP, history.events))
            if all(map(operator.le, timestamps, itertools.islice(timestamps, 1, None))):
                ordered[class_id] = (  # event.churn, inlined
                    array("d", [math.log1p(event.added + event.deleted + event.modified) for event in history.events])
                    if extent
                    else None
                )
    return (_tables_at(histories, metrics, alphas, as_of, ordered) for as_of in as_ofs)


def _tables_at(
    histories: Mapping[str, ClassHistory],
    metrics: Sequence[str],
    alphas: Sequence[float],
    as_of: int,
    ordered: Mapping[str, Sequence[float] | None],
) -> list[dict[str, dict[str, float]]]:
    """The tables of one instant; ``ordered`` as built by ``risk_tables_by_instant``."""
    tables: list[dict[str, dict[str, float]]] = [{metric: {} for metric in metrics} for _ in alphas]
    if not metrics:
        return tables
    folds = [
        (-alpha, table.get(METRIC_FREQUENCY), table.get(METRIC_EXTENT))
        for alpha, table in zip(alphas, tables)
    ]
    extent = METRIC_EXTENT in metrics
    # Local names, and plain loops: on CPython 3.10-3.13 a loop of float `+=` is
    # faster than functools.reduce(operator.add, map(math.exp, ...)) for these lengths.
    exp, log1p = math.exp, math.log1p
    for class_id, history in histories.items():
        events = history.events
        if class_id in ordered:  # zip stops with the ages, at the end of the prefix's weights
            in_scope = events[: bisect_right(events, as_of, key=_TIMESTAMP)]
            weights = ordered[class_id]
        else:
            in_scope = [event for event in events if event.timestamp <= as_of]
            if extent:  # event.churn, inlined
                weights = [log1p(event.added + event.deleted + event.modified) for event in in_scope]
        ages = [(as_of - event.timestamp) / SECONDS_PER_DAY for event in in_scope]
        for rate, frequency_table, extent_table in folds:
            frequency = 0.0
            if extent_table is None:
                for age in ages:
                    frequency += exp(rate * age)
            else:
                extent_total = 0.0
                for age, weight in zip(ages, weights):
                    decay = exp(rate * age)
                    frequency += decay
                    extent_total += weight * decay
                extent_table[class_id] = extent_total
            if frequency_table is not None:
                frequency_table[class_id] = frequency
    return tables
