"""Nonparametric comparison machinery for paired per-version results.

Implements the signed-rank test (exact null distribution for small
samples, tie-corrected normal approximation otherwise), the exact 2x2
independence test with cross-product odds ratio, a rank-dominance effect
size, and Bonferroni adjustment.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

EXACT_WILCOXON_MAX_N = 10  # exact null distribution up to this many effective pairs
FISHER_RELATIVE_SLACK = 1e-7  # tolerance when comparing table probabilities


class DegenerateSampleError(ValueError):
    """All paired differences are zero; the signed-rank test is undefined."""


class WilcoxonResult(NamedTuple):
    statistic: float
    p_two_sided: float
    n_effective: int


class FisherResult(NamedTuple):
    p_two_sided: float
    odds_ratio: float


class ContingencyTable2x2(NamedTuple):
    a: int
    b: int
    c: int
    d: int


def _midranks(magnitudes: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = sorted(range(len(magnitudes)), key=lambda i: magnitudes[i])
    ranks = [0.0] * len(magnitudes)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1  # positions are 0-based
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _exact_signed_rank_p(double_ranks: list[int], w2_min: int) -> float:
    """P(min(W+, W-) <= observed) under random signs, by convolution.

    Works on doubled ranks so midranks stay integral; the W+ distribution
    is built as a polynomial over all 2^n sign assignments.
    """
    total2 = sum(double_ranks)
    counts = {0: 1}
    for rank2 in double_ranks:
        updated: dict[int, int] = {}
        for value, count in counts.items():
            updated[value] = updated.get(value, 0) + count
            updated[value + rank2] = updated.get(value + rank2, 0) + count
        counts = updated
    if w2_min >= total2 - w2_min:
        return 1.0
    favorable = sum(
        count
        for value, count in counts.items()
        if value <= w2_min or value >= total2 - w2_min
    )
    return favorable / 2 ** len(double_ranks)


def _approx_signed_rank_p(w: float, magnitudes: Sequence[float]) -> float:
    """Normal approximation with tie-corrected variance and continuity correction."""
    n = len(magnitudes)
    mean = n * (n + 1) / 4.0
    tie_counts: dict[float, int] = {}
    for m in magnitudes:
        tie_counts[m] = tie_counts.get(m, 0) + 1
    tie_correction = sum(t**3 - t for t in tie_counts.values())
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_correction / 48.0
    z = (w - mean + 0.5) / math.sqrt(variance)
    return min(1.0, 2.0 * _normal_cdf(z))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Two-sided signed-rank test over paired observations.

    Zero differences are dropped (classic treatment); tied magnitudes get
    midranks. The statistic is min(W+, W-). Up to 10 effective pairs the
    p-value comes from the exact null distribution over sign assignments;
    beyond that, from the normal approximation with tie-corrected variance
    and a continuity correction.
    """
    diffs = [a - b for a, b in pairs]
    nonzero = [d for d in diffs if d != 0.0]
    if not nonzero:
        raise DegenerateSampleError("degenerate sample: all paired differences are zero")
    n = len(nonzero)
    ranks = _midranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    w = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        p = _exact_signed_rank_p([round(2 * r) for r in ranks], round(2 * w))
    else:
        p = _approx_signed_rank_p(w, [abs(d) for d in nonzero])
    return WilcoxonResult(statistic=w, p_two_sided=p, n_effective=n)


def fisher_exact_2x2(table: ContingencyTable2x2 | tuple[int, int, int, int]) -> FisherResult:
    """Exact two-sided 2x2 independence test and cross-product odds ratio.

    The p-value sums the probabilities of all tables with the observed
    margins that are no more probable than the observed one (with a small
    relative slack so floating-point rounding cannot misclassify ties).
    The odds ratio is (a*d)/(b*c): +inf when only b*c is zero, NaN when
    both products vanish.
    """
    a, b, c, d = table
    if min(a, b, c, d) < 0:
        raise ValueError("contingency table cells must be non-negative")
    n = a + b + c + d
    if n == 0:
        raise ValueError("contingency table must have at least one observation")

    row1, row2, col1 = a + b, c + d, a + c
    ad, bc = a * d, b * c
    if bc == 0:
        odds_ratio = math.inf if ad > 0 else math.nan
    else:
        odds_ratio = ad / bc

    if row1 == 0 or row2 == 0 or col1 == 0 or col1 == n:
        return FisherResult(p_two_sided=1.0, odds_ratio=odds_ratio)

    denominator = math.comb(n, col1)

    def pmf(k: int) -> float:
        return math.comb(row1, k) * math.comb(row2, col1 - k) / denominator

    observed = pmf(a)
    threshold = observed * (1.0 + FISHER_RELATIVE_SLACK)
    k_lo, k_hi = max(0, col1 - row2), min(row1, col1)
    p = 0.0  # a sequential sum, not the builtin one, which compensates float sums since Python 3.12
    for k in range(k_lo, k_hi + 1):
        probability = pmf(k)
        if probability <= threshold:
            p += probability
    return FisherResult(p_two_sided=min(1.0, p), odds_ratio=odds_ratio)


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Rank-dominance effect size in [-1, 1].

    (#pairs with a_i > b_j minus #pairs with a_i < b_j) over all |a|*|b|
    cross pairs, counted via binary search on the sorted second sample.
    """
    if not a or not b:
        raise ValueError("cliffs_delta() requires two non-empty samples")
    sorted_b = sorted(b)
    greater = 0
    less = 0
    for x in a:
        greater += bisect_left(sorted_b, x)
        less += len(sorted_b) - bisect_right(sorted_b, x)
    return (greater - less) / (len(a) * len(b))


def bonferroni(p_values: Sequence[float], m: int) -> list[float]:
    """Multiply each p-value by the comparison count m, clamped at 1."""
    if not p_values:
        raise ValueError("bonferroni() requires at least one p-value")
    if m < len(p_values):
        raise ValueError(f"m={m} is smaller than the number of p-values ({len(p_values)})")
    return [min(1.0, p * m) for p in p_values]
