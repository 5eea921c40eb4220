import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin.change_history import ChangeEvent, ClassHistory
from riskmin.dependency_graph import CallGraph, MethodRef, build_dependency_map
from riskmin.errors import LabelError
from riskmin.evaluation import (
    SweepGrid,
    _scoring_passes,
    VersionLabel,
    VersionOutcome,
    accuracy,
    describe,
    evaluate_grid,
    fdr,
    minimize_suite,
    sweep_rows,
)
from riskmin.minimizer import Budget

from microproject import AS_OF, random_micro_project
from oracles import exact_risk_table, naive_score, naive_select

DAY = 86_400
REF = AS_OF


def _label(faults, version_id="v1", as_of=REF):
    return VersionLabel(
        version_id=version_id, as_of=as_of, fault_revealing_tests=frozenset(faults)
    )


def _outcome(version_id, acc):
    return VersionOutcome(
        version_id=version_id, accuracy=acc, detected=acc > 0, wall_time=0.0,
        config_fingerprint="",
    )


class TestAccuracy:
    def test_half_retained(self):
        label = _label({"a", "b", "c", "d"})
        assert accuracy({"a", "b", "x"}, label) == 0.5

    def test_full_retention(self):
        label = _label({"a", "b"})
        assert accuracy({"a", "b", "c"}, label) == 1.0

    def test_nothing_retained(self):
        label = _label({"a"})
        assert accuracy({"x"}, label) == 0.0

    def test_empty_fault_set_is_a_label_error(self):
        with pytest.raises(LabelError):
            accuracy({"a"}, _label(set()))


class TestFdr:
    def test_two_of_three(self):
        outcomes = [_outcome("v1", 1.0), _outcome("v2", 0.0), _outcome("v3", 0.5)]
        assert fdr(outcomes) == pytest.approx(2 / 3)

    def test_all_detected(self):
        assert fdr([_outcome("v1", 0.2), _outcome("v2", 1.0)]) == 1.0

    def test_none_detected(self):
        assert fdr([_outcome("v1", 0.0)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fdr([])

    def test_fdr_dominates_mean_accuracy(self):
        outcomes = [_outcome(f"v{i}", a) for i, a in enumerate([0.0, 0.1, 0.5, 1.0, 0.9])]
        mean_acc = sum(o.accuracy for o in outcomes) / len(outcomes)
        assert fdr(outcomes) == sum(math.ceil(o.accuracy) for o in outcomes) / len(outcomes)
        assert fdr(outcomes) >= mean_acc


def _micro_fixture():
    """Three production classes, four tests; the fault test ranks second.

    Static frequency risks are the event counts: A=10, B=4, C=1. With the
    averaging operator the scores come out t1=10, t2=7, t3=4, t4=1.
    """
    def history(class_id, count):
        return ClassHistory(
            class_id=class_id,
            events=tuple(
                ChangeEvent(
                    path=f"src/{class_id}.java", timestamp=REF - i * DAY, added=1,
                    deleted=0, modified=0, commit_id=f"{class_id}-{i}",
                )
                for i in reversed(range(count))
            ),
        )

    histories = {
        "app.A": history("app.A", 10),
        "app.B": history("app.B", 4),
        "app.C": history("app.C", 1),
    }
    graph = CallGraph()
    edges = [
        ("app.T1Test#t1", "app.A#m"),
        ("app.T2Test#t2", "app.A#m"),
        ("app.T2Test#t2", "app.B#m"),
        ("app.T3Test#t3", "app.B#m"),
        ("app.T4Test#t4", "app.C#m"),
    ]
    for caller, callee in edges:
        graph.add_edge(MethodRef(*caller.split("#")), MethodRef(*callee.split("#")))
    entries = frozenset(
        MethodRef(*t.split("#"))
        for t in ("app.T1Test#t1", "app.T2Test#t2", "app.T3Test#t3", "app.T4Test#t4")
    )
    return histories, graph, entries


def _single_cell_outcome(label, *, metric, half_life_days, operator, budget, base_seconds=0.0):
    """The micro fixture's outcome for one label under the 1x1x1x1 grid."""
    histories, graph, entries = _micro_fixture()
    grid = SweepGrid(metrics=(metric,), horizons=(half_life_days,), operators=(operator,),
                     budgets=(budget,))
    dep_map = build_dependency_map(graph, entries)
    ((_, (outcome,)),) = evaluate_grid(histories, dep_map, [label], grid, base_seconds)
    return outcome


class TestRunVersion:
    """One labelled version through a single-cell grid."""

    def test_fault_test_selected_at_half_budget(self):
        outcome = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.5,
        )
        assert outcome.accuracy == 1.0
        assert outcome.detected is True

    def test_fault_test_ranked_second_missed_at_quarter_budget(self):
        outcome = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.25,
        )
        assert outcome.accuracy == 0.0
        assert outcome.detected is False

    def test_static_and_huge_half_life_select_identically(self):
        histories, graph, entries = _micro_fixture()
        kwargs = dict(operator="avg", budget=Budget(0.5), as_of=REF)
        static = minimize_suite(histories, graph, entries,
                                metric="extent", half_life_days=None, **kwargs)
        limit = minimize_suite(histories, graph, entries,
                               metric="extent", half_life_days=1e9, **kwargs)
        assert static.selected == limit.selected

    def test_detected_iff_positive_accuracy(self):
        for budget in (0.25, 0.5, 0.75, 1.0):
            outcome = _single_cell_outcome(
                _label({"app.T4Test#t4"}),
                metric="frequency", half_life_days=32.0, operator="gmean", budget=budget,
            )
            assert outcome.detected == (outcome.accuracy > 0)

    def test_deterministic_apart_from_wall_time(self):
        runs = [
            _single_cell_outcome(
                _label({"app.T2Test#t2"}),
                metric="extent", half_life_days=16.0, operator="gmean", budget=0.5,
            )
            for _ in range(2)
        ]
        first, second = runs
        assert (first.version_id, first.accuracy, first.detected, first.config_fingerprint) == (
            second.version_id, second.accuracy, second.detected, second.config_fingerprint
        )

    def test_extra_seconds_are_added_to_wall_time(self):
        outcome = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.5,
            base_seconds=100.0,
        )
        assert outcome.wall_time > 100.0


class TestDescribe:
    def test_single_value_degenerates(self):
        lo, q1, mean, median, q3, hi = describe([0.7])
        assert lo == q1 == mean == median == q3 == hi == 0.7

    def test_known_quartiles(self):
        lo, q1, mean, median, q3, hi = describe([0.0, 0.25, 0.5, 0.75, 1.0])
        assert (lo, q1, median, q3, hi) == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert mean == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])


def _project_version(seed, version_id):
    """(project, histories, dependency map, label) of one random micro project."""
    project = random_micro_project(seed)
    histories, graph, entries, test_filter = project.library_inputs()
    label = VersionLabel(
        version_id=version_id,
        as_of=project.as_of,
        fault_revealing_tests=frozenset(project.fault_tests),
    )
    return project, histories, build_dependency_map(graph, entries, test_filter), label


class TestRunSweep:
    """Grids evaluated by ``evaluate_grid`` and summarised by ``sweep_rows``."""

    def test_single_cell_matches_minimize_suite(self):
        grid = SweepGrid(metrics=("extent",), horizons=(32.0,), operators=("gmean",),
                         budgets=(0.5,))
        pooled, expected = [], []
        for seed, version_id in ((5, "v1"), (6, "v2")):
            project, histories, dep_map, label = _project_version(seed, version_id)
            ((key, outcomes),) = evaluate_grid(histories, dep_map, [label], grid)
            pooled.extend(outcomes)
            histories, graph, entries, test_filter = project.library_inputs()
            result = minimize_suite(
                histories, graph, entries,
                metric="extent", half_life_days=32.0, operator="gmean",
                budget=Budget(0.5), as_of=label.as_of, test_class_filter=test_filter,
            )
            expected.append(accuracy(set(result.selected), label))
        (row,) = sweep_rows([(key, pooled)])
        assert row.mean_accuracy == pytest.approx(sum(expected) / len(expected))
        assert row.fdr == sum(1 for a in expected if a > 0) / len(expected)

    def test_every_cell_matches_minimize_suite(self):
        project, histories, dep_map, label = _project_version(14, "v1")
        earlier = VersionLabel("v2", label.as_of - 40 * DAY, label.fault_revealing_tests)
        grid = SweepGrid(metrics=("frequency", "extent"), horizons=(4.0, None),
                         operators=("avg", "hmean"), budgets=(0.25, 0.5, 0.25))
        cells = evaluate_grid(histories, dep_map, [label, earlier], grid)
        assert [key for key, _ in cells] == [
            (m, h, o, b) for m in grid.metrics for h in grid.horizons
            for o in grid.operators for b in grid.budgets
        ]
        for (metric, horizon, operator, fraction), outcomes in cells:
            assert [o.version_id for o in outcomes] == ["v1", "v2"]
            for version, outcome in zip((label, earlier), outcomes):
                result = minimize_suite(
                    histories, None, (), metric=metric, half_life_days=horizon,
                    operator=operator, budget=Budget(fraction), as_of=version.as_of,
                    dep_map=dep_map,
                )
                assert outcome.accuracy == accuracy(set(result.selected), version)
                assert outcome.config_fingerprint == result.config_fingerprint

    def test_canonical_grid_has_eighty_cells_per_budget(self):
        grid = SweepGrid()
        assert len(grid.metrics) * len(grid.horizons) * len(grid.operators) == 80
        _, histories, dep_map, label = _project_version(7, "v1")
        rows = sweep_rows(evaluate_grid(histories, dep_map, [label], grid))
        assert len(rows) == 80 * 3
        keys = {(r.metric, r.horizon_days, r.operator, r.budget) for r in rows}
        assert len(keys) == len(rows)
        for row in rows:
            assert 0.0 <= row.mean_accuracy <= 1.0
            assert 0.0 <= row.fdr <= 1.0

    def test_single_version_stats_degenerate(self):
        _, histories, dep_map, label = _project_version(8, "v1")
        grid = SweepGrid(metrics=("frequency",), horizons=(None,), operators=("avg",),
                         budgets=(0.75,))
        (row,) = sweep_rows(evaluate_grid(histories, dep_map, [label], grid))
        assert row.min_acc == row.mean_accuracy == row.max_acc == row.median_acc

    def test_unknown_operator_is_rejected_when_no_test_has_a_risk(self):
        grid = SweepGrid(metrics=("frequency",), horizons=(None,), operators=("bogus",), budgets=(0.5,))
        with pytest.raises(ValueError, match="unknown operator 'bogus'"):
            evaluate_grid({}, {"app.T1Test#t1": []}, [_label({"app.T1Test#t1"})], grid)

    def test_empty_dataset_yields_no_rows(self):
        _, histories, dep_map, _ = _project_version(9, "v1")
        assert sweep_rows(evaluate_grid(histories, dep_map, [], SweepGrid())) == []

    @pytest.mark.parametrize("seed", [3, 11])
    def test_labels_in_any_order_of_their_instants_equal_one_label_grids(self, seed):
        """One decay generator over every instant gives each version what a grid of its own gives."""
        _, histories, dep_map, label = _project_version(seed, "v0")
        days = [0, -40, 5, -400, -40, -3, -1_000, 0, 2]  # out of order, repeated, before and after the events
        random.Random(seed).shuffle(days)
        labels = [
            VersionLabel(f"v{k}", label.as_of + d * DAY, label.fault_revealing_tests) for k, d in enumerate(days)
        ]
        grid = SweepGrid(metrics=("frequency", "extent"), horizons=(None, 1.0, 32.0),
                         operators=("avg", "gmean"), budgets=(0.25, 0.5))
        untimed = lambda outcome: dataclasses.replace(outcome, wall_time=0.0)  # noqa: E731
        cells = evaluate_grid(histories, dep_map, labels, grid)
        for v, one in enumerate(labels):
            alone = evaluate_grid(histories, dep_map, [one], grid)
            assert [key for key, _ in alone] == [key for key, _ in cells]
            for (_, outcomes), (_, (expected,)) in zip(cells, alone):
                assert untimed(outcomes[v]) == untimed(expected)


_CLASSES = ("app.A", "app.B", "app.C", "app.D", "app.E")


@st.composite
def _scoring_projects(draw):
    """A small project: histories for some classes (others have none), tests
    drawn from a few signatures so that several share one, and two labels.

    Day offsets below zero place events after the label's ``as_of``; all
    events of a class may lie there, and zero line counts give a zero
    extent, so zero-risk classes occur; identical histories give ties.
    """
    histories = {}
    for c, class_id in enumerate(draw(st.lists(st.sampled_from(_CLASSES), unique=True))):
        rows = draw(st.lists(
            st.tuples(st.integers(-30, 400), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=5,
        ))
        events = sorted(
            (
                ChangeEvent(path=f"src/{class_id}.java", timestamp=REF - days * DAY, added=add,
                            deleted=dele, modified=mod, commit_id=f"c{c}-{i}")
                for i, (days, add, dele, mod) in enumerate(rows)
            ),
            key=lambda e: (e.timestamp, e.commit_id),
        )
        histories[class_id] = ClassHistory(class_id=class_id, events=tuple(events))
    signatures = draw(st.lists(
        st.lists(st.sampled_from(_CLASSES), unique=True).map(sorted), min_size=1, max_size=4,
    ))
    dep_map = {
        f"app.T{i}Test#t": list(signatures[k])
        for i, k in enumerate(draw(st.lists(st.integers(0, len(signatures) - 1), min_size=1, max_size=8)))
    }
    labels = [
        VersionLabel(f"v{k}", REF - draw(st.integers(0, 60)) * DAY,
                     frozenset(draw(st.lists(st.sampled_from(sorted(dep_map)), min_size=1))))
        for k in range(2)
    ]
    return histories, dep_map, labels


class TestSharedScoringPath:
    """The grid's shared passes against the one-configuration path, bit for bit."""

    GRID = SweepGrid(metrics=("frequency", "extent"), horizons=(None, 2.0, 64.0),
                     operators=("avg", "gmean", "hmean", "median"), budgets=(0.5, 0.25, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(_scoring_projects())
    def test_scores_and_ranking_match_the_score_and_sort_oracles(self, project):
        histories, dep_map, labels = project
        grid = self.GRID
        keys = list(itertools.product(grid.metrics, grid.horizons, grid.operators, grid.budgets))
        cells = evaluate_grid(histories, dep_map, labels, grid)
        passes = 0
        as_ofs = [label.as_of for label in labels]
        for first_cell, v, scores, ranked, _ in _scoring_passes(histories, dep_map, as_ofs, grid):
            label = labels[v]
            passes += 1
            metric, horizon, operator, _ = keys[first_cell]
            table = exact_risk_table(histories, metric, horizon, label.as_of)
            expected = {test_id: naive_score(deps, table, operator) for test_id, deps in dep_map.items()}
            assert scores == expected
            whole, _ = naive_select(expected, 1.0)
            assert ranked == whole
            for b, fraction in enumerate(grid.budgets):
                (key, outcomes) = cells[first_cell + b]
                assert key == (metric, horizon, operator, fraction)
                (outcome,) = [o for o in outcomes if o.version_id == label.version_id]
                chosen, dropped = naive_select(expected, fraction)
                assert outcome.accuracy == accuracy(set(chosen), label)
                result = minimize_suite(
                    histories, None, (), metric=metric, half_life_days=horizon, operator=operator,
                    budget=Budget(fraction), as_of=label.as_of, dep_map=dep_map,
                )
                assert (list(result.selected), list(result.excluded)) == (chosen, dropped)
                assert list(result.scores.items()) == [(test_id, expected[test_id]) for test_id in whole]
        assert passes == len(labels) * len(grid.metrics) * len(grid.horizons) * len(grid.operators)
