"""Outside-in trace of riskmin's layers, installed by rebinding functions.

Every public function of every ``riskmin`` module is replaced, at every
module attribute that binds it, by a wrapper that times the call. The CLI
and the pipeline look these functions up as module globals when they run,
so the wrappers see every call without a change to the program. Outputs are
unaffected: a wrapper returns exactly what the function returned.

Times are thread CPU seconds (``time.thread_time``), so a thread waiting for
the interpreter lock or for a pool is not charged for the wait; span start
and end are wall-clock ``perf_counter`` readings. A call's self time is its
time minus that of the traced calls made directly inside it.

Three kinds of function:

* span functions (the layer boundaries) record one span per call, kept in
  memory with name, start, end and parent, and written out at the end;
  ``evaluation._sweep_one_version`` is one of them although it is private,
  because it is the root of each sweep pool thread: the pool looks it up as
  a module global when it calls it, and its own work (the per-cell loop and
  score comprehensions) belongs to the ``evaluation`` layer;
* hot functions (``score_test``, ``aggregate``, ``reachable_classes``, and
  any public function not known here) record count and summed time only,
  because they run thousands of times per command;
* per-event helpers listed in ``NOT_REBOUND`` are left alone: wrapping them
  would multiply the overhead, and their time shows as their caller's self
  time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SPAN_FUNCTIONS = frozenset(
    {
        "cli.main",
        "cli.build_parser",
        "cli.entry_point",
        "cli.load_manifest",
        "cli.load_project_inputs",
        "cli.load_labels",
        "cli.cmd_score",
        "cli.cmd_minimize",
        "cli.cmd_evaluate",
        "cli.cmd_sweep",
        "cli.cmd_compare",
        "change_history.parse_change_log",
        "change_history.parse_git_numstat",
        "change_history.consolidate",
        "dependency_graph.parse_callgraph_edges",
        "dependency_graph.test_entry_points",
        "dependency_graph.entry_class_filter",
        "dependency_graph.build_dependency_map",
        "temporal_risk.risk_table",
        "minimizer.budget_count",
        "minimizer.config_fingerprint",
        "minimizer.select",
        "minimizer.check_result_invariants",
        "evaluation.accuracy",
        "evaluation.fdr",
        "evaluation.score_tests",
        "evaluation.minimize_suite",
        "evaluation.run_version",
        "evaluation.describe",
        "evaluation.run_sweep",
        "evaluation._sweep_one_version",
        "stats.wilcoxon_signed_rank",
        "stats.fisher_exact_2x2",
        "stats.cliffs_delta",
        "stats.bonferroni",
    }
)

NOT_REBOUND = frozenset(
    {
        "change_history.path_to_class",
        "dependency_graph.parse_test_id",
        "temporal_risk.alpha_from_half_life",
        "temporal_risk.event_age_days",
        "temporal_risk.event_weight",
        "temporal_risk.class_risk",
    }
)


def _count_parse(counts, result):
    counts["events"] += len(result)
    counts["renames"] += sum(1 for event in result if event.renamed_from)
    counts["parses"] += 1


def _count_consolidate(counts, result):
    counts["classes"] += len(result)
    counts["kept"] += sum(len(history.events) for history in result.values())
    counts["consolidations"] += 1


def _count_graph(counts, result):
    counts["nodes"] += len(result.nodes())
    counts["edges"] += result.edge_count
    counts["graphs"] += 1


def _count_entries(counts, result):
    counts["entries"] += len(result)
    counts["entry_sets"] += 1


def _count_depmap(counts, result):
    counts["depmap_entries"] += len(result)
    counts["depmap_reach"] += sum(len(deps) for deps in result.values())
    counts["depmap_distinct"] += len({tuple(deps) for deps in result.values()})


def _count_risk_table(counts, result):
    counts["risk_classes"] += len(result)
    counts["risk_positive"] += sum(1 for risk in result.values() if risk.score > 0)


def _count_score(counts, result):
    if result.score == 0:
        counts["zero_scores"] += 1


def _count_select(counts, result):
    if result.selected and result.excluded:
        if result.scores[result.selected[-1]] == result.scores[result.excluded[0]]:
            counts["boundary_ties"] += 1


def _count_project(counts, result):
    counts.entry_ids = {entry.test_id for entry in result.entries}


def _count_labels(counts, result):
    counts["versions"] += len(result)
    entry_ids = getattr(counts, "entry_ids", set())
    counts["fault_tests_missing"] += sum(
        1 for label in result for test_id in label.fault_revealing_tests if test_id not in entry_ids
    )


# Counts taken from return values at the layer boundaries.
OBSERVERS = {
    "change_history.parse_change_log": _count_parse,
    "change_history.parse_git_numstat": _count_parse,
    "change_history.consolidate": _count_consolidate,
    "dependency_graph.parse_callgraph_edges": _count_graph,
    "dependency_graph.test_entry_points": _count_entries,
    "dependency_graph.build_dependency_map": _count_depmap,
    "temporal_risk.risk_table": _count_risk_table,
    "risk_aggregation.score_test": _count_score,
    "minimizer.select": _count_select,
    "cli.load_project_inputs": _count_project,
    "cli.load_labels": _count_labels,
}


class _Counts(defaultdict):
    """Per-thread counters; ``entry_ids`` carries the last loaded entry set."""

    def __init__(self):
        super().__init__(float)
        self.entry_ids: set[str] = set()


class Tracer:
    """Rebinds riskmin's public functions while installed; collects spans and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.observer_errors: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._per_thread: list[tuple[dict, _Counts]] = []
        self._main_stack: list | None = None
        self._bindings: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.counts
        except AttributeError:
            local.stack, local.stats, local.counts = [], defaultdict(lambda: [0, 0.0, 0.0]), _Counts()
            self._per_thread.append((local.stats, local.counts))
            return local.stack, local.stats, local.counts

    def _observe(self, name, observer, counts, result) -> None:
        try:
            observer(counts, result)
        except (AttributeError, TypeError, KeyError) as exc:
            self.observer_errors[name] = repr(exc)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool):
        observer = OBSERVERS.get(name)
        tracer = self
        thread_time = time.thread_time
        perf_counter = time.perf_counter

        if span:

            def wrapper(*args, **kwargs):
                stack, stats, counts = tracer._state()
                if stack:
                    parent = stack[-1][0]
                else:
                    # A pool thread's first call belongs to the span that is
                    # open on the installing thread, if any.
                    main = tracer._main_stack
                    parent = main[-1][0] if main else -1
                frame = [next(tracer._ids), 0.0]
                stack.append(frame)
                start = perf_counter()
                cpu0 = thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cpu = thread_time() - cpu0
                    end = perf_counter()
                    stack.pop()
                    if stack:
                        stack[-1][1] += cpu
                    entry = stats[name]
                    entry[0] += 1
                    entry[1] += cpu
                    entry[2] += cpu - frame[1]
                    tracer.spans.append(
                        (frame[0], name, start, end, parent, threading.get_ident(), cpu, cpu - frame[1])
                    )
                if observer is not None:
                    tracer._observe(name, observer, counts, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                stack, stats, counts = tracer._state()
                frame = [None, 0.0]
                stack.append(frame)
                cpu0 = thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cpu = thread_time() - cpu0
                    stack.pop()
                    if stack:
                        stack[-1][1] += cpu
                    entry = stats[name]
                    entry[0] += 1
                    entry[1] += cpu
                    entry[2] += cpu - frame[1]
                if observer is not None:
                    tracer._observe(name, observer, counts, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Rebind every public riskmin function, and the private span
        functions, at every attribute that binds it."""
        modules = [
            module
            for module_name, module in sorted(sys.modules.items())
            if module is not None and (module_name == "riskmin" or module_name.startswith("riskmin."))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("riskmin."):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                private = attr.startswith("_") or value.__name__.startswith("_")
                if name in NOT_REBOUND or (private and name not in SPAN_FUNCTIONS):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name, name in SPAN_FUNCTIONS)
                self._bindings.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        self._main_stack = self._state()[0]

    def remove(self) -> None:
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Merged per-function [calls, cpu_s, self_cpu_s] and merged counts."""
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: dict[str, float] = defaultdict(float)
        for thread_stats, thread_counts in self._per_thread:
            for name, (calls, total, own) in list(thread_stats.items()):
                merged = stats[name]
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for key, value in list(thread_counts.items()):
                counts[key] += value
        return dict(stats), dict(counts)

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "cpu_s", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(stats: dict[str, list], counts: dict[str, float], sequences: int) -> dict[str, float]:
    """Per-layer metrics for one command sequence, from merged totals."""

    def calls(*names):
        return sum(stats.get(name, (0, 0.0, 0.0))[0] for name in names) / sequences

    def inclusive(*names):
        return sum(stats.get(name, (0, 0.0, 0.0))[1] for name in names) / sequences

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / sequences

    def layer_self(layer):
        return sum(entry[2] for name, entry in stats.items() if name.split(".")[0] == layer) / sequences

    def ratio(numerator, denominator):
        return counts.get(numerator, 0.0) / counts[denominator] if counts.get(denominator) else 0.0

    return {
        "cli.load_s": inclusive("cli.load_manifest", "cli.load_project_inputs", "cli.load_labels"),
        "cli.self_s": layer_self("cli"),
        "cli.commands": calls("cli.main"),
        "change_history.parse_s": inclusive("change_history.parse_change_log", "change_history.parse_git_numstat"),
        "change_history.consolidate_s": inclusive("change_history.consolidate"),
        "change_history.events": ratio("events", "parses"),
        "change_history.renames": ratio("renames", "parses"),
        "change_history.classes": ratio("classes", "consolidations"),
        "change_history.kept_ratio": ratio("kept", "events"),
        "dependency_graph.parse_s": inclusive("dependency_graph.parse_callgraph_edges"),
        "dependency_graph.entries_s": inclusive("dependency_graph.test_entry_points", "dependency_graph.entry_class_filter"),
        "dependency_graph.nodes": ratio("nodes", "graphs"),
        "dependency_graph.edges": ratio("edges", "graphs"),
        "dependency_graph.entries": ratio("entries", "entry_sets"),
        "dependency_graph.depmap_s": inclusive("dependency_graph.build_dependency_map"),
        "dependency_graph.depmap_calls": calls("dependency_graph.build_dependency_map"),
        "dependency_graph.reach_calls": calls("dependency_graph.reachable_classes"),
        "dependency_graph.mean_reach": ratio("depmap_reach", "depmap_entries"),
        "temporal_risk.risk_table_s": inclusive("temporal_risk.risk_table"),
        "temporal_risk.risk_table_calls": calls("temporal_risk.risk_table"),
        "temporal_risk.positive_ratio": ratio("risk_positive", "risk_classes"),
        "risk_aggregation.score_s": own("risk_aggregation.score_test"),
        "risk_aggregation.aggregate_s": inclusive("risk_aggregation.aggregate"),
        "risk_aggregation.score_calls": calls("risk_aggregation.score_test"),
        "risk_aggregation.zero_score_tests": counts.get("zero_scores", 0.0) / sequences,
        "risk_aggregation.distinct_dep_sets_ratio": ratio("depmap_distinct", "depmap_entries"),
        "minimizer.select_s": inclusive("minimizer.select"),
        "minimizer.select_calls": calls("minimizer.select"),
        "minimizer.boundary_ties": counts.get("boundary_ties", 0.0) / sequences,
        "evaluation.self_s": layer_self("evaluation"),
        "evaluation.versions": counts.get("versions", 0.0) / sequences,
        "evaluation.fault_tests_missing": counts.get("fault_tests_missing", 0.0) / sequences,
        "stats.compare_s": layer_self("stats"),
    }
