import math
import random

import pytest

from riskmin.evaluation import minimize_suite
from riskmin.minimizer import (
    MinimizationResult,
    budget_count,
    check_budget,
    check_result_invariants,
    config_fingerprint,
    cut_ranking,
    rank,
)

from oracles import naive_select


class TestBudget:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.01, math.nan])
    def test_fraction_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^budget fraction must be in \(0, 1\], got {bad}$"):
            check_budget(bad)

    def test_full_budget_allowed(self):
        check_budget(1.0)

    def test_every_taker_of_a_budget_rejects_one_out_of_range(self):
        scores = {"a": 1.0, "b": 2.0}
        takers = [
            lambda: budget_count(2, 1.5),
            lambda: cut_ranking(rank(scores), scores, 1.5, ""),
            lambda: check_result_invariants(cut_ranking(rank(scores), scores, 0.5, ""), 1.5),
            lambda: minimize_suite(
                {}, {"t.T#a": []}, metric="extent", half_life_days=None, operator="avg", budget=1.5, as_of=0
            ),
        ]
        for take in takers:
            with pytest.raises(ValueError, match=r"^budget fraction must be in \(0, 1\], got 1\.5$"):
                take()


class TestBudgetCount:
    def test_exact_fraction(self):
        assert budget_count(4, 0.5) == 2

    def test_round_half_up(self):
        assert budget_count(5, 0.5) == 3

    def test_empty_suite(self):
        assert budget_count(0, 0.25) == 0

    def test_floor_of_one_for_non_empty_suites(self):
        assert budget_count(3, 0.01) == 1

    def test_never_exceeds_suite_size(self):
        assert budget_count(3, 1.0) == 3

    def test_negative_suite_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            budget_count(-1, 0.5)

    def test_rule_table(self):
        # round-half-up(n * f), clamped to [min(1, n), n]
        table = [
            (4, 0.25, 1),
            (5, 0.25, 1),
            (6, 0.25, 2),
            (7, 0.25, 2),
            (4, 0.75, 3),
            (5, 0.75, 4),
            (10, 0.55, 6),
            (1, 0.25, 1),
        ]
        for n, fraction, expected in table:
            assert budget_count(n, fraction) == expected

    def test_monotone_in_fraction(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(0, 50)
            f1 = rng.uniform(0.01, 1.0)
            f2 = rng.uniform(f1, 1.0)
            assert budget_count(n, f1) <= budget_count(n, f2)


class TestSelect:
    """A selection is ``cut_ranking`` of the ``rank`` order at the budget."""

    def test_top_half_by_score(self):
        scores = {"t1": 3.0, "t2": 1.0, "t3": 2.0, "t4": 0.0}
        result = cut_ranking(rank(scores), scores, 0.5, "")
        assert result.selected == ("t1", "t3")
        assert result.excluded == ("t2", "t4")

    def test_all_tied_takes_lexicographically_first(self):
        scores = {"b": 1.0, "a": 1.0, "d": 1.0, "c": 1.0}
        assert cut_ranking(rank(scores), scores, 0.25, "").selected == ("a",)

    def test_full_budget_selects_everything(self):
        scores = {"t1": 1.0, "t2": 2.0}
        result = cut_ranking(rank(scores), scores, 1.0, "")
        assert set(result.selected) == {"t1", "t2"}
        assert result.excluded == ()

    def test_empty_scores(self):
        result = cut_ranking(rank({}), {}, 0.5, "")
        assert result.selected == () and result.excluded == ()

    def test_matches_sort_oracle_on_random_scores(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(1, 30)
            scores = {
                f"t{i:02d}": rng.choice([0.0, rng.uniform(0, 10)]) for i in range(n)
            }
            fraction = rng.choice([0.25, 0.5, 0.75, 1.0])
            expected_sel, expected_exc = naive_select(scores, fraction)
            result = cut_ranking(rank(scores), scores, fraction, "")
            assert list(result.selected) == expected_sel
            assert list(result.excluded) == expected_exc

    def test_dominance_invariant(self):
        rng = random.Random(73)
        for _ in range(50):
            scores = {f"t{i}": rng.uniform(0, 5) for i in range(rng.randint(1, 20))}
            result = cut_ranking(rank(scores), scores, rng.choice([0.25, 0.5, 0.75]), "")
            for kept in result.selected:
                for dropped in result.excluded:
                    assert scores[kept] > scores[dropped] or (
                        scores[kept] == scores[dropped] and kept < dropped
                    )

    def test_nested_budgets(self):
        rng = random.Random(79)
        for _ in range(50):
            scores = {f"t{i}": rng.uniform(0, 5) for i in range(rng.randint(1, 25))}
            ranked = rank(scores)
            s25 = set(cut_ranking(ranked, scores, 0.25, "").selected)
            s50 = set(cut_ranking(ranked, scores, 0.50, "").selected)
            s75 = set(cut_ranking(ranked, scores, 0.75, "").selected)
            assert s25 <= s50 <= s75

    def test_partition_covers_all_tests(self):
        scores = {"a": 1.0, "b": 2.0, "c": 3.0}
        result = cut_ranking(rank(scores), scores, 0.5, "")
        assert set(result.selected) | set(result.excluded) == set(scores)
        assert not set(result.selected) & set(result.excluded)

    def test_check_result_invariants_accepts_valid_results(self):
        scores = {"a": 1.0, "b": 2.0, "c": 3.0}
        check_result_invariants(cut_ranking(rank(scores), scores, 0.5, ""), 0.5)

    def test_check_result_invariants_rejects_corrupt_results(self):
        broken = MinimizationResult(
            selected=("a",), excluded=("b",), scores={"a": 1.0, "b": 2.0},
        )
        with pytest.raises(AssertionError):
            check_result_invariants(broken, 0.5)

    @pytest.mark.parametrize(
        "selected, excluded, scores, message",
        [
            (("a",), ("b", "c"), {"a": 3.0, "b": 2.0, "c": 1.0}, "selected count does not match the budget rule"),
            (("a",), ("a",), {"a": 1.0}, "selected and excluded overlap"),
            (("b",), ("a",), {"a": 1.0, "b": 1.0}, "tie crossed against lexicographic order"),
        ],
        ids=["wrong-count", "overlap", "tie-crossed"],
    )
    def test_check_result_invariants_names_each_broken_rule(self, selected, excluded, scores, message):
        broken = MinimizationResult(selected=selected, excluded=excluded, scores=scores)
        with pytest.raises(AssertionError, match=message):
            check_result_invariants(broken, 0.5)


class TestConfigFingerprint:
    def test_contains_every_dimension(self):
        fp = config_fingerprint("extent", 32.0, "gmean", 0.5, 1234)
        assert fp == "metric=extent;horizon=32;aggregate=gmean;budget=0.5;as_of=1234"

    def test_static_horizon_spelled_out(self):
        assert "horizon=static" in config_fingerprint("frequency", None, "avg", 0.25, 1)
