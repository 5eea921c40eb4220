import errno
import itertools
import json
import logging
import marshal
import math
import os
import random
import signal
import statistics
import struct
import threading
import time
import types
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin import cli, evaluation, workers
from riskmin.change_history import ChangeEvent
from riskmin.dependency_graph import CallGraph, MethodRef, build_dependency_map
from riskmin.errors import LabelError
from riskmin.evaluation import (
    SweepGrid,
    _prepare,
    _scoring_passes,
    VersionLabel,
    accuracy,
    describe,
    evaluate_grid,
    fdr,
    minimize_suite,
    sweep_rows,
)
from riskmin.minimizer import config_fingerprint
from riskmin.workers import _forkable_cpus, _shares, _usable_cpus, run_in_order, run_shares

from microproject import AS_OF, random_micro_project
from oracles import class_history, exact_risk_table, naive_score, naive_select

DAY = 86_400
REF = AS_OF


def _label(faults, version_id="v1", as_of=REF):
    return VersionLabel(
        version_id=version_id, as_of=as_of, fault_revealing_tests=frozenset(faults)
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
        assert fdr([1.0, 0.0, 0.5]) == pytest.approx(2 / 3)

    def test_all_detected(self):
        assert fdr([0.2, 1.0]) == 1.0

    def test_none_detected(self):
        assert fdr([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fdr([])

    def test_fdr_dominates_mean_accuracy(self):
        accuracies = [0.0, 0.1, 0.5, 1.0, 0.9]
        mean_acc = sum(accuracies) / len(accuracies)
        assert fdr(accuracies) == sum(math.ceil(a) for a in accuracies) / len(accuracies)
        assert fdr(accuracies) >= mean_acc


def _micro_fixture():
    """Three production classes, four tests; the fault test ranks second.

    Static frequency risks are the event counts: A=10, B=4, C=1. With the
    averaging operator the scores come out t1=10, t2=7, t3=4, t4=1.
    """
    def history(class_id, count):
        return class_history(
            class_id,
            (
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
    """The micro fixture's (accuracy, seconds) for one label under the 1x1x1x1 grid."""
    histories, graph, entries = _micro_fixture()
    grid = SweepGrid(metrics=(metric,), horizons=(half_life_days,), operators=(operator,),
                     budgets=(budget,))
    dep_map = build_dependency_map(graph, entries)
    ((_, (acc,), (seconds,)),) = evaluate_grid(histories, dep_map, [label], grid, base_seconds)
    return acc, seconds


class TestRunVersion:
    """One labelled version through a single-cell grid."""

    def test_fault_test_selected_at_half_budget(self):
        acc, _ = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.5,
        )
        assert acc == 1.0
        assert fdr([acc]) == 1.0

    def test_fault_test_ranked_second_missed_at_quarter_budget(self):
        acc, _ = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.25,
        )
        assert acc == 0.0
        assert fdr([acc]) == 0.0

    def test_static_and_huge_half_life_select_identically(self):
        histories, graph, entries = _micro_fixture()
        dep_map = build_dependency_map(graph, entries)
        kwargs = dict(operator="avg", budget=0.5, as_of=REF)
        static = minimize_suite(histories, dep_map,
                                metric="extent", half_life_days=None, **kwargs)
        limit = minimize_suite(histories, dep_map,
                               metric="extent", half_life_days=1e9, **kwargs)
        assert static.selected == limit.selected

    def test_detected_iff_positive_accuracy(self):
        for budget in (0.25, 0.5, 0.75, 1.0):
            acc, _ = _single_cell_outcome(
                _label({"app.T4Test#t4"}),
                metric="frequency", half_life_days=32.0, operator="gmean", budget=budget,
            )
            assert fdr([acc]) == (1.0 if acc > 0 else 0.0)

    def test_deterministic_apart_from_wall_time(self):
        runs = [
            _single_cell_outcome(
                _label({"app.T2Test#t2"}),
                metric="extent", half_life_days=16.0, operator="gmean", budget=0.5,
            )
            for _ in range(2)
        ]
        (first, _), (second, _) = runs
        assert first == second

    def test_hmean_keeps_a_test_whose_only_risk_is_subnormal(self):
        # One event 1,050 half-lives before as_of: a frequency risk of 2**-1050, about 8.29e-317.
        event = ChangeEvent("src/p/C.java", REF - 1050 * DAY, 1, 0, 0, "c1")
        histories = {"p.C": class_history("p.C", (event,))}
        dep_map = {"t.T#a": [], "t.T#b": ["p.C"]}
        for operator in ("hmean", "avg"):
            result = minimize_suite(histories, dep_map, metric="frequency", half_life_days=1.0,
                                    operator=operator, budget=0.5, as_of=REF)
            assert result.selected == ("t.T#b",)
            assert result.scores["t.T#b"] == 2.0**-1050

    def test_extra_seconds_are_added_to_wall_time(self):
        _, seconds = _single_cell_outcome(
            _label({"app.T2Test#t2"}),
            metric="frequency", half_life_days=None, operator="avg", budget=0.5,
            base_seconds=100.0,
        )
        assert seconds > 100.0


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(elements, min_size=1, max_size=60)
            for elements in (
                st.floats(0.0, 1.0),  # accuracies
                st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]),  # accuracies with ties
                st.floats(-1e300, 1e300, allow_nan=False),
            )
        )
    )
    def test_figures_are_bit_for_bit_those_of_statistics(self, values):
        """The summaries of ``summary.json`` and ``sweep.csv``, pinned to the ``statistics`` functions they
        were first computed with; ``struct`` tells -0.0 from 0.0."""
        ordered = sorted(values)
        median = statistics.median(ordered)
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive") if len(values) > 1 else (median,) * 3
        lo, mean, hi = ordered[0], statistics.fmean(ordered), ordered[-1]
        assert _bits(describe(values)) == _bits((lo, q1, mean, median, q3, hi))
        (row,) = sweep_rows([(("extent", 32.0, "avg", 0.5), array("d", values), array("d", values))])
        figures = (row.mean_accuracy, row.min_acc, row.q1_acc, row.median_acc, row.q3_acc, row.max_acc, row.mean_time_s)
        assert _bits(figures) == _bits((mean, lo, q1, median, q3, hi, statistics.fmean(values)))


def _bits(values):
    return [struct.pack("d", value) for value in values]


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
        pooled_accuracies, pooled_seconds, expected = array("d"), array("d"), []
        for seed, version_id in ((5, "v1"), (6, "v2")):
            project, histories, dep_map, label = _project_version(seed, version_id)
            ((key, accuracies, seconds),) = evaluate_grid(histories, dep_map, [label], grid)
            pooled_accuracies.extend(accuracies)
            pooled_seconds.extend(seconds)
            histories, graph, entries, test_filter = project.library_inputs()
            result = minimize_suite(
                histories, build_dependency_map(graph, entries, test_filter),
                metric="extent", half_life_days=32.0, operator="gmean",
                budget=0.5, as_of=label.as_of,
            )
            expected.append(accuracy(set(result.selected), label))
        (row,) = sweep_rows([(key, pooled_accuracies, pooled_seconds)])
        assert row.mean_accuracy == pytest.approx(sum(expected) / len(expected))
        assert row.fdr == sum(1 for a in expected if a > 0) / len(expected)

    def test_every_cell_matches_minimize_suite(self):
        project, histories, dep_map, label = _project_version(14, "v1")
        earlier = VersionLabel("v2", label.as_of - 40 * DAY, label.fault_revealing_tests)
        grid = SweepGrid(metrics=("frequency", "extent"), horizons=(4.0, None),
                         operators=("avg", "hmean"), budgets=(0.25, 0.5, 0.25))
        cells = evaluate_grid(histories, dep_map, [label, earlier], grid)
        assert [key for key, _, _ in cells] == [
            (m, h, o, b) for m in grid.metrics for h in grid.horizons
            for o in grid.operators for b in grid.budgets
        ]
        for (metric, horizon, operator, fraction), accuracies, seconds in cells:
            assert len(accuracies) == len(seconds) == 2
            for version, acc in zip((label, earlier), accuracies):
                result = minimize_suite(
                    histories, dep_map, metric=metric, half_life_days=horizon,
                    operator=operator, budget=fraction, as_of=version.as_of,
                )
                assert acc == accuracy(set(result.selected), version)
                assert config_fingerprint(metric, horizon, operator, fraction, version.as_of) == (
                    result.config_fingerprint
                )

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

    @pytest.mark.parametrize(
        "grid, message",
        [
            (SweepGrid(operators=("bogus",), budgets=(2.0,)), "unknown operator 'bogus'"),
            (SweepGrid(budgets=(0.5, 2.0)), r"budget fraction must be in \(0, 1\], got 2.0"),
        ],
        ids=["operator", "budget"],
    )
    def test_every_axis_is_checked_before_any_label_is_scored(self, grid, message):
        with pytest.raises(ValueError, match=message):
            evaluate_grid({}, {"a#b": []}, [], grid)

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
        cells = evaluate_grid(histories, dep_map, labels, grid)
        for v, one in enumerate(labels):
            alone = evaluate_grid(histories, dep_map, [one], grid)
            assert [key for key, _, _ in alone] == [key for key, _, _ in cells]
            for (_, accuracies, _), (_, (expected,), _) in zip(cells, alone):
                assert accuracies[v] == expected


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
        histories[class_id] = class_history(class_id, events)
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
        prepared = _prepare(histories, dep_map, grid)
        units = range(len(as_ofs) * len(grid.horizons))
        for first_cell, v, scores, ranked, _ in _scoring_passes(prepared, as_ofs, grid, units):
            label = labels[v]
            passes += 1
            metric, horizon, operator, _ = keys[first_cell]
            table = exact_risk_table(histories, metric, horizon, label.as_of)
            expected = {test_id: naive_score(deps, table, operator) for test_id, deps in dep_map.items()}
            assert scores == expected
            whole, _ = naive_select(expected, 1.0)
            assert ranked == whole
            for b, fraction in enumerate(grid.budgets):
                (key, accuracies, _) = cells[first_cell + b]
                assert key == (metric, horizon, operator, fraction)
                chosen, dropped = naive_select(expected, fraction)
                assert accuracies[v] == accuracy(set(chosen), label)
                result = minimize_suite(
                    histories, dep_map, metric=metric, half_life_days=horizon, operator=operator,
                    budget=fraction, as_of=label.as_of,
                )
                assert (list(result.selected), list(result.excluded)) == (chosen, dropped)
                assert list(result.scores.items()) == [(test_id, expected[test_id]) for test_id in whole]
        assert passes == len(labels) * len(grid.metrics) * len(grid.horizons) * len(grid.operators)


def _untimed(cells):
    """Each cell's key and its accuracies, without the seconds."""
    return [(key, accuracies) for key, accuracies, _ in cells]


def _assert_no_child_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShares:
    """The split of a project's (version, horizon) units into contiguous shares; no process is started."""

    @pytest.mark.parametrize(
        "units, jobs, cpus, expected",
        [
            (30, 2, 2, [range(0, 15), range(15, 30)]),
            (30, 10**18, 2, [range(0, 15), range(15, 30)]),
            (3, 10**18, 10**18, [range(0, 1), range(1, 2), range(2, 3)]),
            (7, 3, 64, [range(0, 2), range(2, 4), range(4, 7)]),
            (7, 3, 1, [range(0, 7)]),
            (5, 1, 64, [range(0, 5)]),
            (0, 10**6, 4, [range(0, 0)]),
        ],
    )
    def test_known_splits(self, units, jobs, cpus, expected):
        assert _shares(units, jobs, cpus) == expected

    @settings(max_examples=200)
    @given(st.integers(0, 5_000), st.integers(1, 10**30), st.integers(1, 10**30))
    def test_shares_cover_the_units_in_order_and_are_capped(self, units, jobs, cpus):
        shares = _shares(units, jobs, cpus)
        assert len(shares) == max(1, min(jobs, units, cpus))
        assert [u for share in shares for u in share] == list(range(units))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_without_an_affinity_mask_the_cpu_count_is_used(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _usable_cpus() == expected

    def test_while_another_thread_runs_one_cpu_is_forkable(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _forkable_cpus() == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _forkable_cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _forkable_cpus() == 2


class TestForkedShares:
    """``jobs`` above 1 scores the shares in forked children; the cells equal those of ``jobs=1``."""

    GRID = TestSharedScoringPath.GRID

    @settings(max_examples=6, deadline=None)
    @given(_scoring_projects())
    def test_every_jobs_value_gives_the_cells_of_one_share(self, project):
        histories, dep_map, labels = project
        units = len(labels) * len(self.GRID.horizons)
        expected = _untimed(evaluate_grid(histories, dep_map, labels, self.GRID, jobs=1))
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1, 2, 3}, create=True), mock.patch.object(
            os, "fork", wraps=os.fork
        ) as fork, mock.patch.object(workers.logger, "warning", side_effect=AssertionError("a share was lost")):
            for jobs in range(1, 5):
                assert _untimed(evaluate_grid(histories, dep_map, labels, self.GRID, jobs=jobs)) == expected
        assert fork.call_count == sum(min(jobs, units, 4) - 1 for jobs in range(1, 5))
        _assert_no_child_process_left()

    def test_without_fork_one_share_is_scored(self, monkeypatch):
        _, histories, dep_map, label = _project_version(4, "v0")
        expected = _untimed(evaluate_grid(histories, dep_map, [label], self.GRID))
        monkeypatch.delattr(os, "fork")
        assert _untimed(evaluate_grid(histories, dep_map, [label], self.GRID, jobs=4)) == expected

    def test_one_job_goes_through_run_shares_and_forks_nothing(self, monkeypatch):
        _, histories, dep_map, label = _project_version(4, "v0")
        run, fork = mock.Mock(wraps=run_shares), mock.Mock(wraps=os.fork)
        monkeypatch.setattr(evaluation, "run_shares", run)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        evaluate_grid(histories, dep_map, [label], self.GRID, jobs=1)
        assert run.call_count == 1 and run.call_args.args[1:] == (len(self.GRID.horizons), 1)
        assert fork.call_count == 0


class TestWorkerLifecycle:
    """A share that a child does not deliver is scored in the parent; no child outlives ``evaluate_grid``."""

    GRID = SweepGrid(metrics=("frequency", "extent"), horizons=(None, 4.0, 32.0),
                     operators=("avg", "gmean"), budgets=(0.25, 0.5))

    def _inputs(self):
        _, histories, dep_map, label = _project_version(3, "v0")
        labels = [
            VersionLabel(f"v{k}", label.as_of - days * DAY, label.fault_revealing_tests)
            for k, days in enumerate((0, 30, 200))
        ]
        return histories, dep_map, labels

    @pytest.mark.parametrize(
        "failure", [RuntimeError, KeyboardInterrupt, SystemExit, "killed", "short payload", "no fork"]
    )
    def test_a_share_a_child_does_not_deliver_is_scored_in_the_parent(self, monkeypatch, caplog, failure):
        histories, dep_map, labels = self._inputs()
        expected = _untimed(evaluate_grid(histories, dep_map, labels, self.GRID))
        parent, score_share = os.getpid(), evaluation._score_share

        def failing_in_children(*args):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif failure != "short payload":
                    raise failure("in a child")
            return score_share(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(evaluation, "_score_share", failing_in_children)
        if failure == "short payload":  # the child writes all but the last byte and exits 0
            monkeypatch.setattr(
                workers, "marshal", types.SimpleNamespace(dumps=lambda value: marshal.dumps(value)[:-1],
                                                             loads=marshal.loads)
            )
        if failure == "no fork":  # as at a limit on the number of processes
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "no process")))
        with caplog.at_level(logging.WARNING, logger="riskmin.workers"):
            cells = evaluate_grid(histories, dep_map, labels, self.GRID, jobs=3)
        assert _untimed(cells) == expected
        warnings = [record.getMessage() for record in caplog.records if record.name == "riskmin.workers"]
        assert warnings == ["a worker process delivered nothing; its share of 3 units is scored here"] * 2
        _assert_no_child_process_left()

    def test_a_share_without_a_pipe_is_worked_here(self, monkeypatch, caplog):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=OSError(errno.EMFILE, "too many open files")))
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        with caplog.at_level(logging.WARNING, logger="riskmin.workers"):
            assert run_shares(lambda share: [u * u for u in share], 6, 2) == [[0, 1, 4], [9, 16, 25]]
        assert [record.getMessage() for record in caplog.records] == [
            "a worker process delivered nothing; its share of 3 units is scored here"
        ]
        assert fork.call_count == 0

    def test_a_child_reaped_before_its_kill_is_passed_over(self, monkeypatch):
        parent, kill, kills = os.getpid(), os.kill, []

        def work(share):
            if os.getpid() == parent:
                raise RuntimeError("in the parent")
            return list(share)

        def reaped_before_the_kill(pid, sig):  # the child ends and is reaped just before the kill
            kill(pid, sig)
            os.waitpid(pid, 0)
            kills.append(pid)
            raise ProcessLookupError(errno.ESRCH, "no such process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "kill", reaped_before_the_kill)
        with pytest.raises(RuntimeError, match="in the parent"):
            run_shares(work, 4, 2)
        assert len(kills) == 1
        _assert_no_child_process_left()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_every_cell_of_every_label_is_charged_the_extra_seconds(self, monkeypatch, jobs):
        histories, dep_map, labels = self._inputs()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cells = evaluate_grid(histories, dep_map, labels, self.GRID, base_seconds=100.0, jobs=jobs)
        assert len(cells) == 2 * 3 * 2 * 2
        for _, _, seconds in cells:
            assert len(seconds) == len(labels) == 3
            assert all(math.isfinite(s) and s > 100.0 for s in seconds)

    @pytest.mark.parametrize("faults", [(), (1, 2)], ids=["none", "second-and-last"])
    def test_forked_tasks_show_the_results_records_and_error_of_tasks_run_in_turn(self, monkeypatch, caplog, faults):
        """Three tasks, two of them in children: each logs, and those in ``faults`` then raise a ``ValueError``."""
        log = logging.getLogger("riskmin.tasks")

        def task(k):
            def work():
                log.warning("task %d", k)
                if k in faults:
                    raise ValueError(f"task {k}")
                return [k]

            return work, f"task {k} is run"

        seen = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            with caplog.at_level(logging.WARNING):
                try:
                    seen.append(run_in_order([task(k) for k in range(3)]))
                except ValueError as exc:
                    seen.append(str(exc))
            seen.append([(record.name, record.getMessage()) for record in caplog.records])
            caplog.clear()
        serial, forked = seen[:2], seen[2:]
        assert forked == serial
        if faults:
            assert serial == ["task 1", [("riskmin.tasks", "task 0"), ("riskmin.tasks", "task 1")]]
        else:
            assert serial == [[[0], [1], [2]], [("riskmin.tasks", f"task {k}") for k in range(3)]]
        _assert_no_child_process_left()

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_a_failure_in_the_parents_share_kills_and_reaps_every_child(self, monkeypatch, failure):
        histories, dep_map, labels = self._inputs()
        parent = os.getpid()

        def failing_in_the_parent(*args):
            if os.getpid() == parent:
                raise failure("in the parent")
            time.sleep(60)  # a child still at work when the parent fails; only SIGKILL ends it in time
            return []

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(evaluation, "_score_share", failing_in_the_parent)
        started = time.monotonic()
        with pytest.raises(failure, match="in the parent"):
            evaluate_grid(histories, dep_map, labels, self.GRID, jobs=3)
        assert time.monotonic() - started < 30
        _assert_no_child_process_left()


def _write_library_project(directory):
    """The files README's *Library use* reads, and a manifest naming them.

    Class A changes most, then B, then C; tests reach A, A and B, B, and C.
    """
    events = [
        {"path": f"src/main/java/app/{name}.java", "ts": REF - i * DAY, "add": 4, "del": 1, "commit": f"{name}{i}"}
        for name, count in (("A", 6), ("B", 3), ("C", 1))
        for i in range(count)
    ]
    (directory / "changes.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    edges = [("T1Test:test1", "A"), ("T2Test:test2", "A"), ("T2Test:test2", "B"),
             ("T3Test:test3", "B"), ("T4Test:test4", "C")]
    (directory / "callgraph.txt").write_text(
        "".join(f"M:app.{test} (M)app.{callee}:m\n" for test, callee in edges), encoding="utf-8"
    )
    manifest = {
        "project_id": "library",
        "change_log_path": "changes.jsonl",
        "callgraph_path": "callgraph.txt",
        "entry_selector": {"pattern": {"class_suffix": "Test", "method_prefix": "test"}},
        "source_roots": ["src/main/java"],
    }
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_readme_library_use_runs_and_selects_and_scores_what_the_commands_do(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    _write_library_project(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    selected = namespace["result"].selected
    assert selected == ("app.T1Test#test1", "app.T2Test#test2")
    assert capsys.readouterr().out == f"{selected}\napp.A\n"
    assert cli.main(
        ["minimize", "manifest.json", "--metric", "extent", "--horizon", "32", "--aggregate", "gmean",
         "--budget", "0.5", "--as-of", "1700000000", "--output", "out"]
    ) == 0
    assert (tmp_path / "out" / "selected.txt").read_text(encoding="utf-8").splitlines() == list(selected)
    assert cli.main(
        ["score", "manifest.json", "--metric", "extent", "--horizon", "32", "--as-of", "1700000000", "--output", "out"]
    ) == 0
    rows = (tmp_path / "out" / "risks.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows == [f"{class_id},{namespace['risks'][class_id]}" for class_id in sorted(namespace["risks"])]
