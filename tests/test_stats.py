import math
import random

import pytest

from riskmin.stats import (
    ContingencyTable2x2,
    DegenerateSampleError,
    bonferroni,
    cliffs_delta,
    fisher_exact_2x2,
    wilcoxon_signed_rank,
)

from oracles import enum_fisher, enum_wilcoxon, naive_cliffs_delta


def _pairs(diffs):
    return [(d, 0.0) for d in diffs]


class TestWilcoxonSignedRank:
    def test_all_positive_small_sample_exact(self):
        result = wilcoxon_signed_rank(_pairs([1.0, 2.0, 3.0]))
        assert result.statistic == 0.0  # W- side
        assert result.p_two_sided == 0.25
        assert result.n_effective == 3

    def test_tied_magnitudes_get_midranks(self):
        result = wilcoxon_signed_rank(_pairs([1.0, -1.0]))
        assert result.statistic == 1.5  # W+ == W- == 1.5
        assert result.p_two_sided == 1.0

    def test_all_zero_differences_is_degenerate(self):
        with pytest.raises(DegenerateSampleError, match="degenerate sample"):
            wilcoxon_signed_rank(_pairs([0.0, 0.0, 0.0]))

    def test_zero_differences_are_dropped(self):
        with_zeros = wilcoxon_signed_rank(_pairs([0.0, 1.0, 2.0, 0.0, 3.0]))
        without = wilcoxon_signed_rank(_pairs([1.0, 2.0, 3.0]))
        assert with_zeros == without
        assert with_zeros.n_effective == 3

    def test_exact_branch_matches_enumeration_bit_for_bit(self):
        rng = random.Random(83)
        for _ in range(150):
            n = rng.randint(1, 10)
            diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([0.5, 1.0]) for _ in range(n)]
            result = wilcoxon_signed_rank(_pairs(diffs))
            wp, wm, p_expected = enum_wilcoxon(diffs)
            assert result.statistic == min(wp, wm)
            assert result.p_two_sided == p_expected

    def test_approximation_close_to_exact_at_branch_switch(self):
        # continuous-valued diffs with an occasional tied magnitude; fully
        # tie-saturated samples push the normal approximation past 0.05
        from riskmin.stats import _approx_signed_rank_p

        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(10, 12)
            diffs = [round(rng.uniform(-1, 1), 2) or 0.005 for _ in range(n)]
            wp, wm, exact = enum_wilcoxon(diffs)
            approx = _approx_signed_rank_p(min(wp, wm), [abs(d) for d in diffs if d != 0])
            assert abs(approx - exact) < 0.05

    def test_p_in_unit_interval(self):
        rng = random.Random(97)
        for _ in range(100):
            n = rng.randint(1, 30)
            diffs = [rng.uniform(-1, 1) for _ in range(n)]
            if all(d == 0 for d in diffs):
                continue
            p = wilcoxon_signed_rank(_pairs(diffs)).p_two_sided
            assert 0.0 < p <= 1.0


class TestFisherExact:
    def test_known_table(self):
        result = fisher_exact_2x2(ContingencyTable2x2(1, 9, 11, 3))
        assert result.p_two_sided == pytest.approx(0.0027594561852200836, abs=1e-10)

    def test_perfect_symmetry(self):
        result = fisher_exact_2x2((5, 5, 5, 5))
        assert result.p_two_sided == 1.0
        assert result.odds_ratio == 1.0

    def test_p_value_sums_table_probabilities_sequentially(self):
        # (2, 1, 1, 4) has margins 3, 5 and 3 of 8; the tables k = 0, 2, 3 are no more
        # probable than the observed one. Added in that order they give
        # 0.46428571428571425; math.fsum gives 0.4642857142857143.
        total = 0.0
        for k in (0, 2, 3):
            total += math.comb(3, k) * math.comb(5, 3 - k) / math.comb(8, 3)
        assert fisher_exact_2x2((2, 1, 1, 4)).p_two_sided == total == 0.46428571428571425

    def test_infinite_odds_ratio(self):
        result = fisher_exact_2x2((3, 0, 0, 3))
        assert result.odds_ratio == math.inf

    def test_zero_over_zero_odds_ratio_is_nan(self):
        result = fisher_exact_2x2((2, 0, 3, 0))
        assert math.isnan(result.odds_ratio)
        assert result.p_two_sided == 1.0

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2((1, -1, 0, 2))

    def test_all_zero_table_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2((0, 0, 0, 0))

    def test_matches_rational_enumeration_for_small_margins(self):
        rng = random.Random(101)
        for _ in range(300):
            a, b, c, d = (rng.randint(0, 8) for _ in range(4))
            if a + b + c + d == 0:
                continue
            got = fisher_exact_2x2((a, b, c, d)).p_two_sided
            assert got == pytest.approx(enum_fisher(a, b, c, d), abs=1e-10)
            assert 0.0 < got <= 1.0

    def test_transpose_has_equal_p(self):
        rng = random.Random(103)
        for _ in range(100):
            a, b, c, d = (rng.randint(0, 12) for _ in range(4))
            if a + b + c + d == 0:
                continue
            p = fisher_exact_2x2((a, b, c, d)).p_two_sided
            p_t = fisher_exact_2x2((a, c, b, d)).p_two_sided
            assert p == pytest.approx(p_t, rel=1e-9)

    def test_odds_ratio_is_cross_product(self):
        result = fisher_exact_2x2((212, 93, 98, 228))
        assert result.odds_ratio == pytest.approx((212 * 228) / (93 * 98), rel=1e-12)


class TestCliffsDelta:
    def test_complete_dominance(self):
        assert cliffs_delta([1.0, 2.0], [3.0, 4.0]) == -1.0

    def test_identical_samples(self):
        assert cliffs_delta([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_element_crossing(self):
        assert cliffs_delta([1.0, 2.0, 3.0], [2.0]) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            cliffs_delta([], [1.0])

    def test_antisymmetry(self):
        rng = random.Random(107)
        for _ in range(50):
            a = [rng.uniform(0, 1) for _ in range(rng.randint(1, 15))]
            b = [rng.uniform(0, 1) for _ in range(rng.randint(1, 15))]
            assert cliffs_delta(a, b) == pytest.approx(-cliffs_delta(b, a), abs=1e-15)

    def test_matches_pairwise_count_oracle(self):
        rng = random.Random(109)
        for _ in range(100):
            a = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(rng.randint(1, 20))]
            b = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(rng.randint(1, 20))]
            assert cliffs_delta(a, b) == naive_cliffs_delta(a, b)

    def test_range(self):
        rng = random.Random(113)
        for _ in range(50):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(1, 10))]
            b = [rng.gauss(0, 1) for _ in range(rng.randint(1, 10))]
            assert -1.0 <= cliffs_delta(a, b) <= 1.0


class TestBonferroni:
    def test_scales_and_keeps_order(self):
        assert bonferroni([0.01, 0.2], 3) == [0.03, pytest.approx(0.6)]

    def test_clamps_at_one(self):
        assert bonferroni([0.5], 3) == [1.0]

    def test_identity_when_m_is_one(self):
        assert bonferroni([0.004], 1) == [0.004]

    def test_m_smaller_than_count_rejected(self):
        with pytest.raises(ValueError):
            bonferroni([0.01, 0.02, 0.03], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bonferroni([], 1)
