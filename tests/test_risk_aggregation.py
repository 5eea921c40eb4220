import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin.risk_aggregation import OPERATORS, positive_multisets, score_multisets

from oracles import naive_aggregate


def _sequential_sum(values):
    """Left-to-right float addition: the builtin ``sum`` before Python 3.12 compensated it."""
    total = 0.0
    for value in values:
        total += value
    return total


def _multiset_score(values, op):
    """One multiset's score, as the commands compute it."""
    return score_multisets([sorted(values)], op)[0]


def _test_score(deps, risks, op):
    """One test's score from the risks of its dependency classes, as the commands compute it."""
    (score,) = score_multisets(positive_multisets([deps], risks), op)
    return score


class TestAggregate:
    def test_gmean_of_4_and_9(self):
        assert _multiset_score([4.0, 9.0], "gmean") == pytest.approx(6.0, rel=1e-12)

    def test_hmean_identity_on_constant_input(self):
        assert _multiset_score([1.0, 1.0], "hmean") == 1.0

    def test_hmean_adds_reciprocals_sequentially_in_ascending_order(self):
        # 1/2 + 1/5 + 1/10 is 0.7999999999999999 added in that order; math.fsum gives 0.8 (hmean 3.75).
        assert _multiset_score([10.0, 2.0, 5.0], "hmean") == 3 / _sequential_sum([0.5, 0.2, 0.1]) == 3.7500000000000004

    @pytest.mark.parametrize("values", [[1e-310], [5e-324, 10.0], [1e-308] * 3])
    def test_hmean_of_risks_whose_reciprocals_overflow_is_exact_and_positive(self, values):
        exact = len(values) / sum(1 / Fraction(value) for value in values)
        score = _multiset_score(values, "hmean")
        assert score > 0
        assert abs(Fraction(score) - exact) <= exact * Fraction(1, 10**12)

    def test_median_even_count_averages_middle_pair(self):
        assert _multiset_score([1.0, 3.0], "median") == 2.0

    def test_avg(self):
        assert _multiset_score([1.0, 2.0, 4.0], "avg") == pytest.approx(7 / 3, rel=1e-12)

    def test_empty_multiset_scores_zero(self):
        for op in OPERATORS:
            assert score_multisets([[], [2.0], []], op) == [0.0, 2.0, 0.0]

    def test_unknown_operator_rejected(self):
        for multisets in ([[1.0]], [[]], [[], []], []):  # also with nothing to reduce
            with pytest.raises(ValueError, match="unknown operator 'sum'"):
                score_multisets(multisets, "sum")

    def test_matches_textbook_formulas_on_random_multisets(self):
        rng = random.Random(41)
        for _ in range(200):
            values = [rng.uniform(1e-6, 1e6) for _ in range(rng.randint(1, 12))]
            for op in OPERATORS:
                assert _multiset_score(values, op) == pytest.approx(
                    naive_aggregate(values, op), rel=1e-9
                )

    def test_am_gm_hm_ordering(self):
        rng = random.Random(43)
        for _ in range(300):
            values = [rng.uniform(0.01, 100.0) for _ in range(rng.randint(2, 10))]
            hm = _multiset_score(values, "hmean")
            gm = _multiset_score(values, "gmean")
            am = _multiset_score(values, "avg")
            assert hm <= gm * (1 + 1e-12) and gm <= am * (1 + 1e-12)

    def test_am_gm_hm_equal_iff_constant(self):
        constant = [3.7] * 5
        assert _multiset_score(constant, "hmean") == pytest.approx(
            _multiset_score(constant, "avg"), rel=1e-12
        )
        spread = [1.0, 2.0]
        assert _multiset_score(spread, "hmean") < _multiset_score(spread, "gmean") < _multiset_score(spread, "avg")

    def test_positive_homogeneity(self):
        rng = random.Random(47)
        for _ in range(100):
            values = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(1, 8))]
            c = rng.choice([1e-6, 0.5, 3.0, 1e6])
            for op in OPERATORS:
                scaled = _multiset_score([c * v for v in values], op)
                assert scaled == pytest.approx(c * _multiset_score(values, op), rel=1e-12)

    def test_permutation_invariance_is_bitwise(self):
        rng = random.Random(53)
        risks = {f"C{i}": rng.uniform(0.1, 10.0) for i in range(9)}
        for op in OPERATORS:
            reference = _test_score(sorted(risks), risks, op)
            for _ in range(20):
                shuffled = list(risks)
                rng.shuffle(shuffled)
                assert _test_score(shuffled, risks, op) == reference

    def test_median_odd_count_returns_a_member(self):
        rng = random.Random(59)
        for _ in range(50):
            values = [rng.uniform(0.1, 10.0) for _ in range(rng.choice([1, 3, 5, 7]))]
            assert _multiset_score(values, "median") in values


class TestScoreTest:
    def test_gmean_of_two_dependencies(self):
        assert _test_score(["A", "B"], {"A": 2.0, "B": 8.0}, "gmean") == pytest.approx(4.0, rel=1e-12)

    def test_no_dependencies_scores_zero(self):
        assert _test_score([], {}, "avg") == 0.0

    def test_zero_risk_dependency_is_excluded_from_the_multiset(self):
        assert _test_score(["A", "B"], {"A": 2.0}, "avg") == 2.0

    def test_all_dependencies_zero_scores_zero(self):
        assert _test_score(["A"], {"A": 0.0}, "hmean") == 0.0

    def test_zero_exclusion_keeps_gmean_and_hmean_positive(self):
        risks = {"A": 4.0, "B": 9.0}
        with_gap = _test_score(["A", "B", "Ghost"], risks, "gmean")
        without_gap = _test_score(["A", "B"], risks, "gmean")
        assert with_gap == without_gap > 0

    def test_score_is_never_negative(self):
        rng = random.Random(61)
        for _ in range(100):
            risks = {f"C{i}": rng.choice([0.0, rng.uniform(0, 5)]) for i in range(6)}
            deps = rng.sample(sorted(risks), k=rng.randint(0, 6))
            for op in OPERATORS:
                assert _test_score(deps, risks, op) >= 0.0


_positive_values = st.lists(
    st.one_of(
        st.floats(min_value=5e-324, max_value=1.7e308),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=10**6),
    ),
    min_size=1,
    max_size=30,
)


def _value_or_error(compute):
    try:
        return repr(compute())
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestOperatorsAgainstLiteralFormulas:
    @settings(max_examples=300, deadline=None)
    @given(_positive_values, st.sampled_from(OPERATORS))
    def test_aggregate_equals_the_literal_formula_bit_for_bit(self, values, op):
        # The formulas as they were first written: the operators must keep
        # reproducing them bit for bit on every Python version.
        expected = _value_or_error(lambda: naive_aggregate(values, op))
        assert _value_or_error(lambda: _multiset_score(values, op)) == expected


_CLASSES = [f"C{i}" for i in range(6)]
_odd_risk = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.nan, -math.inf, math.inf, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-9, max_value=1e9),
)


class TestPositiveMultisetsAgainstTheOldComprehension:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(_CLASSES), _odd_risk),
        st.lists(st.lists(st.sampled_from(_CLASSES + ["Ghost"]), max_size=8), max_size=6),
    )
    def test_absent_zero_negative_and_nan_risks_are_dropped_alike(self, risks, signatures):
        expected = [
            sorted([risk for risk in map(risks.get, deps) if risk is not None and risk > 0])
            for deps in signatures
        ]
        assert positive_multisets(signatures, risks) == expected
