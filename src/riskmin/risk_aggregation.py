"""Collapse the class risks a test reaches into a single test score."""

from __future__ import annotations

from math import exp, fsum, log
from typing import Iterable, Mapping, Sequence

OP_AVG = "avg"
OP_GMEAN = "gmean"
OP_HMEAN = "hmean"
OP_MEDIAN = "median"
OPERATORS = (OP_AVG, OP_GMEAN, OP_HMEAN, OP_MEDIAN)


def aggregate(values: Iterable[float], op: str) -> float:
    """Apply one of the four supported operators to positive values.

    Values are sorted before reduction so the result is bit-identical under
    permutation. The geometric mean is computed in log space to avoid
    underflow when many tiny decayed risks multiply.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("aggregate() requires a non-empty multiset")
    if ordered[0] <= 0:
        raise ValueError("aggregate() requires strictly positive values")
    return _reduce_sorted(ordered, op)


def _reduce_sorted(ordered: list[float], op: str) -> float:
    """The operator formulas, on a non-empty, ascending list of positive values.

    ``avg`` is what ``statistics.fmean`` computes, ``median`` what
    ``statistics.median`` computes, without sorting the list again.
    """
    n = len(ordered)
    if op == OP_AVG:
        return fsum(ordered) / n
    if op == OP_GMEAN:
        return exp(fsum(map(log, ordered)) / n)
    if op == OP_HMEAN:
        # A sequential loop, not the builtin sum: since Python 3.12 that compensates float sums.
        reciprocals = 0.0
        for value in ordered:
            reciprocals += 1.0 / value
        return n / reciprocals
    if op == OP_MEDIAN:
        middle = n // 2
        return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")


def score_test(deps: Iterable[str], risks: Mapping[str, float], op: str) -> float:
    """Score one test from the risks of its dependency classes.

    Classes absent from the risk table contribute 0, and zero-risk values
    are dropped before aggregating: they only arise from history-less
    classes and would collapse the geometric and harmonic means. A test
    whose multiset ends up empty scores 0.
    """
    values = []
    for class_id in deps:
        risk = risks.get(class_id)
        if risk is not None and risk > 0:
            values.append(risk)
    if not values:
        return 0.0
    return aggregate(values, op)


def positive_multisets(
    signatures: Iterable[Sequence[str]], risks: Mapping[str, float]
) -> list[list[float]]:
    """The sorted values ``score_test`` would aggregate, once per dependency signature.

    ``risks`` maps class ids to risk scores; as in ``score_test``, absent
    classes and risks that are not positive (zero, negative, NaN) are left out.
    """
    positive = {class_id: risk for class_id, risk in risks.items() if risk > 0}.get
    return [sorted(filter(None, map(positive, deps))) for deps in signatures]


def score_multisets(multisets: Iterable[list[float]], op: str) -> list[float]:
    """``score_test``'s score of each ``positive_multisets`` entry: 0 for an empty one."""
    return [_reduce_sorted(values, op) if values else 0.0 for values in multisets]
