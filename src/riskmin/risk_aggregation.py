"""Collapse the class risks a test reaches into a single test score."""

from __future__ import annotations

from math import exp, fsum, inf, log
from typing import Iterable, Mapping, Sequence

OP_AVG = "avg"
OP_GMEAN = "gmean"
OP_HMEAN = "hmean"
OP_MEDIAN = "median"
OPERATORS = (OP_AVG, OP_GMEAN, OP_HMEAN, OP_MEDIAN)


def positive_multisets(
    signatures: Iterable[Sequence[str]], risks: Mapping[str, float]
) -> list[list[float]]:
    """The ascending multiset of positive class risks of each dependency signature.

    ``risks`` maps class ids to risk scores. Absent classes and risks that
    are not positive (zero, negative, NaN) are left out: they only arise
    from history-less classes and would collapse the geometric and harmonic
    means.
    """
    positive = {class_id: risk for class_id, risk in risks.items() if risk > 0}.get
    return [sorted(filter(None, map(positive, deps))) for deps in signatures]


def check_operator(op: str) -> None:
    """Reject an operator that is not one of ``OPERATORS`` with ``ValueError``."""
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")


def score_multisets(multisets: Iterable[list[float]], op: str) -> list[float]:
    """Each ``positive_multisets`` entry reduced by the operator ``op``: 0 for an empty one.

    An entry is sorted, so the result does not depend on the order of a
    test's dependencies. ``avg`` is what ``statistics.fmean`` computes,
    ``median`` what ``statistics.median`` computes; the geometric mean is
    computed in log space, so that many tiny decayed risks do not underflow.
    """
    check_operator(op)
    return [_reduce_sorted(values, op) if values else 0.0 for values in multisets]


def _reduce_sorted(ordered: list[float], op: str) -> float:
    """The operator formulas, on a non-empty, ascending list of positive values."""
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
        if reciprocals != inf:
            return n / reciprocals
        # A value below about 1e-308 overflows the sum; scaled by the smallest value, no term exceeds 1.
        smallest = ordered[0]
        return smallest * (n / fsum(smallest / value for value in ordered))
    middle = n // 2  # OP_MEDIAN, the last of the operators score_multisets accepts
    return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2
