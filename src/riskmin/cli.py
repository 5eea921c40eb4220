"""Command-line pipeline: ingest, score, minimize, evaluate, sweep, compare.

Runs are driven by a project manifest (one JSON file naming the change
log, call graph, entry-point selector, and source roots) so large batch
invocations stay reproducible. All outputs are deterministic byte-for-byte
for identical inputs and flags, except wall-clock time, which is isolated
to designated columns/keys.

Exit codes: 0 success, 1 usage, 2 missing input, 3 parse error,
4 label error, 5 alignment error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .change_history import (
    SourceRootConfig,
    consolidate,
    parse_change_log,
    parse_git_numstat,
)
from .dependency_graph import (
    FORMAT_CALLGRAPH_TEXT,
    GRAPH_FORMATS,
    CallGraph,
    MethodRef,
    build_dependency_map,
    entry_class_filter,
    parse_callgraph_edges,
    test_entry_points,
)
from .errors import AlignmentError, LabelError, ParseError
from .evaluation import (
    CANONICAL_BUDGETS,
    CANONICAL_HORIZONS,
    GridCell,
    SweepGrid,
    VersionLabel,
    VersionOutcome,
    describe,
    evaluate_grid,
    fdr,
    minimize_suite,
    sweep_rows,
)
from .minimizer import Budget, check_result_invariants
from .risk_aggregation import OPERATORS, OP_GMEAN
from .temporal_risk import METRICS, METRIC_EXTENT, RiskConfig, risk_table

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING_INPUT = 2
EXIT_PARSE = 3
EXIT_LABEL = 4
EXIT_ALIGNMENT = 5

SELF_CHECK_ENV = "RISKMIN_SELF_CHECK"

CHANGE_LOG_FORMATS = ("jsonl", "numstat")

JOBS_HELP = "accepted for compatibility; versions are evaluated serially"

OUTCOME_COLUMNS = ("version_id", "accuracy", "detected", "wall_time_s")
SWEEP_COLUMNS = (
    "metric",
    "horizon_days",
    "operator",
    "budget",
    "mean_accuracy",
    "fdr",
    "min_acc",
    "q1_acc",
    "median_acc",
    "q3_acc",
    "max_acc",
    "mean_time_s",
)


def _self_check_enabled() -> bool:
    return os.environ.get(SELF_CHECK_ENV) == "1"


# ---------------------------------------------------------------------------
# Manifest and input loading


@dataclass
class RunManifest:
    project_id: str
    change_log_path: Path
    change_log_format: str
    callgraph_path: Path
    callgraph_format: str
    entry_selector: dict
    source_roots: list[str]
    extensions: list[str]
    exclude_classes: list[str]
    labels_path: Path | None
    output_dir: Path | None


def load_manifest(path: Path) -> RunManifest:
    """Read a project manifest; relative paths resolve against its directory."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed manifest JSON: {exc}", path=str(path))
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object", path=str(path))
    base = Path(path).parent
    for key in ("project_id", "change_log_path", "callgraph_path", "entry_selector", "source_roots"):
        if key not in raw:
            raise ParseError(f"manifest missing required key '{key}'", path=str(path))
    change_log_format = raw.get("change_log_format", "jsonl")
    if change_log_format not in CHANGE_LOG_FORMATS:
        raise ParseError(
            f"unknown change_log_format {change_log_format!r}", path=str(path)
        )
    callgraph_format = raw.get("callgraph_format", FORMAT_CALLGRAPH_TEXT)
    if callgraph_format not in GRAPH_FORMATS:
        raise ParseError(f"unknown callgraph_format {callgraph_format!r}", path=str(path))
    _check_entry_selector(raw["entry_selector"], path)
    for key in ("change_log_path", "callgraph_path", "labels_path", "output_dir"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ParseError(f"manifest key '{key}' must be a path string", path=str(path))
    for key in ("source_roots", "extensions", "exclude_classes"):
        value = raw.get(key, [])
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise ParseError(f"manifest key '{key}' must be a list of strings", path=str(path))
    if not raw["source_roots"]:
        raise ParseError("manifest key 'source_roots' must name at least one root", path=str(path))
    return RunManifest(
        project_id=str(raw["project_id"]),
        change_log_path=base / raw["change_log_path"],
        change_log_format=change_log_format,
        callgraph_path=base / raw["callgraph_path"],
        callgraph_format=callgraph_format,
        entry_selector=raw["entry_selector"],
        source_roots=list(raw["source_roots"]),
        extensions=list(raw.get("extensions", [".java"])),
        exclude_classes=list(raw.get("exclude_classes", [])),
        labels_path=(base / raw["labels_path"]) if raw.get("labels_path") else None,
        output_dir=Path(raw["output_dir"]) if raw.get("output_dir") else None,
    )


def _check_entry_selector(selector: object, path: Path) -> None:
    """``explicit`` (a list of test id strings) wins over ``pattern`` (an object of strings)."""
    if not isinstance(selector, dict):
        raise ParseError("manifest key 'entry_selector' must be a JSON object", path=str(path))
    if "explicit" in selector:
        explicit = selector["explicit"]
        if not isinstance(explicit, list) or not all(isinstance(item, str) for item in explicit):
            raise ParseError(
                "manifest key 'entry_selector.explicit' must be a list of strings", path=str(path)
            )
    elif "pattern" in selector:
        pattern = selector["pattern"]
        if not isinstance(pattern, dict):
            raise ParseError(
                "manifest key 'entry_selector.pattern' must be a JSON object", path=str(path)
            )
        for key in ("class_suffix", "class_prefix", "method_prefix"):
            if not isinstance(pattern.get(key, ""), str):
                raise ParseError(
                    f"manifest key 'entry_selector.pattern.{key}' must be a string", path=str(path)
                )
    else:
        raise ParseError(
            "manifest key 'entry_selector' needs an 'explicit' or a 'pattern' key", path=str(path)
        )


@dataclass
class ProjectInputs:
    histories: dict
    graph: CallGraph
    entries: frozenset[MethodRef]
    test_class_filter: set[str]
    ingest_seconds: float


def load_project_inputs(manifest: RunManifest) -> ProjectInputs:
    started = time.perf_counter()
    with open(manifest.change_log_path, "r", encoding="utf-8") as handle:
        if manifest.change_log_format == "numstat":
            events = parse_git_numstat(handle)
        else:
            events = parse_change_log(handle)
    source_cfg = SourceRootConfig(
        roots=tuple(manifest.source_roots), extensions=tuple(manifest.extensions)
    )
    histories = consolidate(events, source_cfg)
    with open(manifest.callgraph_path, "r", encoding="utf-8") as handle:
        graph = parse_callgraph_edges(handle, manifest.callgraph_format)
    entries = frozenset(test_entry_points(graph, manifest.entry_selector))
    test_filter = entry_class_filter(entries, manifest.exclude_classes)
    return ProjectInputs(
        histories=histories,
        graph=graph,
        entries=entries,
        test_class_filter=test_filter,
        ingest_seconds=time.perf_counter() - started,
    )


def load_labels(path: Path | None, project_id: str) -> list[VersionLabel]:
    """Read one label object or an array of them; every version needs one."""
    if path is None:
        raise LabelError(f"project {project_id!r} has no labels_path in its manifest")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise LabelError(f"label file not found: {path}")
    except json.JSONDecodeError as exc:
        raise LabelError(f"malformed label JSON in {path}: {exc}")
    records = raw if isinstance(raw, list) else [raw]
    labels: dict[str, VersionLabel] = {}
    for position, record in enumerate(records, start=1):
        if not isinstance(record, dict):
            raise LabelError(f"label record {position} in {path} is not a JSON object")
        for key in ("version_id", "as_of", "fault_revealing_tests"):
            if key not in record:
                raise LabelError(f"label in {path} missing required key '{key}'")
        fault_list = record["fault_revealing_tests"]
        if not isinstance(fault_list, list) or not all(isinstance(t, str) for t in fault_list):
            raise LabelError(
                f"version {record['version_id']!r} in {path}: "
                "fault_revealing_tests must be a list of test id strings"
            )
        fault_tests = frozenset(fault_list)
        if not fault_tests:
            raise LabelError(
                f"version {record['version_id']!r} has no fault-revealing tests"
            )
        as_of = record["as_of"]
        if not isinstance(as_of, int) or isinstance(as_of, bool):
            raise LabelError(f"version {record['version_id']!r} in {path}: as_of must be an integer")
        version_id = str(record["version_id"])
        if version_id in labels:
            raise LabelError(f"version {version_id!r} is labelled more than once in {path}")
        labels[version_id] = VersionLabel(
            version_id=version_id, as_of=as_of, fault_revealing_tests=fault_tests
        )
    return list(labels.values())


# ---------------------------------------------------------------------------
# Output helpers


def _write_text(directory: Path, name: str, content: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(content, encoding="utf-8")
    return target


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_float(value: float):
    """Keep JSON strictly parseable: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


def _format_horizon(horizon: float | None) -> str:
    return "static" if horizon is None else f"{horizon:g}"


# ---------------------------------------------------------------------------
# Commands


def cmd_score(args: argparse.Namespace) -> int:
    manifest = load_manifest(Path(args.manifest))
    inputs = load_project_inputs(manifest)
    cfg = RiskConfig(metric=args.metric, half_life_days=args.horizon, reference_time=args.as_of)
    table = risk_table(inputs.histories, cfg)
    if _self_check_enabled():
        for risk in table.values():
            if not (math.isfinite(risk.score) and risk.score >= 0):
                raise AssertionError(f"invalid risk score for {risk.class_id}")
    rows = [(class_id, str(table[class_id].score)) for class_id in sorted(table)]
    text = _csv_text(("class_id", "risk"), rows)
    if args.output:
        _write_text(Path(args.output), "risks.csv", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    manifest = load_manifest(Path(args.manifest))
    inputs = load_project_inputs(manifest)
    budget = Budget(args.budget)
    result = minimize_suite(
        inputs.histories,
        inputs.graph,
        inputs.entries,
        metric=args.metric,
        half_life_days=args.horizon,
        operator=args.aggregate,
        budget=budget,
        as_of=args.as_of,
        test_class_filter=inputs.test_class_filter,
    )
    if _self_check_enabled():
        check_result_invariants(result, budget)
    out_dir = Path(args.output or manifest.output_dir or ".")
    selected_text = "".join(test_id + "\n" for test_id in result.selected)
    _write_text(out_dir, "selected.txt", selected_text)
    _write_text(out_dir, "result.json", _json_text(result.to_json_dict()))
    return EXIT_OK


def _evaluate_manifests(
    args: argparse.Namespace, grid: SweepGrid
) -> tuple[list[GridCell], dict[str, list[VersionOutcome]]]:
    """The grid's cells pooled over every manifest's labelled versions, and each project's outcomes.

    Each project builds its dependency map once; that cost and the project's
    ingestion time are charged to every one of its outcomes. A project with
    no labelled versions adds nothing, so both are empty if none has any.
    A version id may occur only once in the pool.
    """
    pooled: list[GridCell] = []
    by_project: dict[str, list[VersionOutcome]] = {}
    version_ids: set[str] = set()
    for manifest_path in args.manifests:
        manifest = load_manifest(Path(manifest_path))
        inputs = load_project_inputs(manifest)
        labels = load_labels(manifest.labels_path, manifest.project_id)
        for label in labels:
            if label.version_id in version_ids:
                raise LabelError(
                    f"version {label.version_id!r} of {manifest_path} "
                    "is already labelled by an earlier manifest"
                )
            version_ids.add(label.version_id)
        if not labels:
            continue
        dep_started = time.perf_counter()
        dep_map = build_dependency_map(inputs.graph, inputs.entries, inputs.test_class_filter)
        base_seconds = inputs.ingest_seconds + (time.perf_counter() - dep_started)
        unreachable = set().union(*(label.fault_revealing_tests for label in labels)) - dep_map.keys()
        if unreachable:
            logger.warning(
                "project %r: %d fault-revealing test id(s) are not entry points and always count as missed",
                manifest.project_id,
                len(unreachable),
            )
        cells = evaluate_grid(inputs.histories, dep_map, labels, grid, base_seconds)
        by_project.setdefault(manifest.project_id, []).extend(o for _, group in cells for o in group)
        # Every project's cells follow the grid order, so they pool position by position.
        pooled = cells if not pooled else [
            (key, pool + group) for (key, pool), (_, group) in zip(pooled, cells)
        ]
    return pooled, by_project


def _stats_block(values: Sequence[float]) -> dict:
    lo, q1, mean, median, q3, hi = describe(values)
    return {"min": lo, "q1": q1, "mean": mean, "median": median, "q3": q3, "max": hi}


def cmd_evaluate(args: argparse.Namespace) -> int:
    grid = SweepGrid(
        metrics=(args.metric,),
        horizons=(args.horizon,),
        operators=(args.aggregate,),
        budgets=(args.budget,),
    )
    pooled, by_project = _evaluate_manifests(args, grid)
    if not pooled:
        raise LabelError("no labeled versions to evaluate")
    ((_, outcomes),) = pooled
    rows = [
        (o.version_id, str(o.accuracy), "true" if o.detected else "false", str(o.wall_time))
        for o in outcomes
    ]
    accuracies = [o.accuracy for o in outcomes]
    summary = {
        "config_fingerprint": outcomes[0].config_fingerprint,
        "n_versions": len(outcomes),
        "mean_accuracy": sum(accuracies) / len(accuracies),
        "fdr": fdr(outcomes),
        "accuracy_stats": _stats_block(accuracies),
        "per_project": {
            project_id: {
                "n_versions": len(group),
                "mean_accuracy": sum(o.accuracy for o in group) / len(group),
                "fdr": fdr(group),
            }
            for project_id, group in sorted(by_project.items())
        },
        "project_stats": {
            "accuracy": _stats_block(
                [sum(o.accuracy for o in g) / len(g) for g in by_project.values()]
            ),
            "fdr": _stats_block([fdr(g) for g in by_project.values()]),
        },
        "mean_wall_time_s": sum(o.wall_time for o in outcomes) / len(outcomes),
    }
    out_dir = Path(args.output or ".")
    _write_text(out_dir, "outcomes.csv", _csv_text(OUTCOME_COLUMNS, rows))
    _write_text(out_dir, "summary.json", _json_text(summary))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid(
        metrics=tuple(args.metrics),
        horizons=tuple(args.horizons),
        operators=tuple(args.operators),
        budgets=tuple(args.budgets),
    )
    pooled, _ = _evaluate_manifests(args, grid)
    if not pooled:
        raise LabelError("no labeled versions to sweep")
    rows = sweep_rows(pooled)
    csv_rows = [
        (
            row.metric,
            _format_horizon(row.horizon_days),
            row.operator,
            f"{row.budget:g}",
            str(row.mean_accuracy),
            str(row.fdr),
            str(row.min_acc),
            str(row.q1_acc),
            str(row.median_acc),
            str(row.q3_acc),
            str(row.max_acc),
            str(row.mean_time_s),
        )
        for row in rows
    ]
    text = _csv_text(SWEEP_COLUMNS, csv_rows)
    if args.output:
        _write_text(Path(args.output), "sweep.csv", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_outcomes_csv(path: Path) -> dict[str, tuple[float, bool]]:
    outcomes: dict[str, tuple[float, bool]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(OUTCOME_COLUMNS[:3]) <= set(reader.fieldnames):
            raise ParseError(
                f"expected columns {','.join(OUTCOME_COLUMNS[:3])}", path=str(path)
            )
        for lineno, record in enumerate(reader, start=2):
            try:
                acc = float(record["accuracy"])
                detected = record["detected"].strip().lower() in ("true", "1")
            except (TypeError, ValueError, AttributeError):
                raise ParseError(f"malformed outcome row at line {lineno}", path=str(path), line=lineno)
            if record["version_id"] in outcomes:
                raise ParseError(
                    f"repeated version_id {record['version_id']!r} at line {lineno}",
                    path=str(path),
                    line=lineno,
                )
            outcomes[record["version_id"]] = (acc, detected)
    return outcomes


def cmd_compare(args: argparse.Namespace) -> int:
    from . import stats

    outcomes_a = _read_outcomes_csv(Path(args.outcomes_a))
    outcomes_b = _read_outcomes_csv(Path(args.outcomes_b))
    ids_a, ids_b = set(outcomes_a), set(outcomes_b)
    if ids_a != ids_b:
        raise AlignmentError(missing_in_a=ids_b - ids_a, missing_in_b=ids_a - ids_b)
    version_ids = sorted(ids_a)
    acc_a = [outcomes_a[v][0] for v in version_ids]
    acc_b = [outcomes_b[v][0] for v in version_ids]
    det_a = [outcomes_a[v][1] for v in version_ids]
    det_b = [outcomes_b[v][1] for v in version_ids]

    try:
        wilcoxon = stats.wilcoxon_signed_rank(list(zip(acc_a, acc_b)))
        wilcoxon_block = {
            "status": "ok",
            "statistic": wilcoxon.statistic,
            "p_two_sided": wilcoxon.p_two_sided,
            "n_effective": wilcoxon.n_effective,
        }
        wilcoxon_p: float | None = wilcoxon.p_two_sided
    except stats.DegenerateSampleError as exc:
        wilcoxon_block = {"status": str(exc), "statistic": None, "p_two_sided": None, "n_effective": 0}
        wilcoxon_p = None

    table = stats.ContingencyTable2x2(
        a=sum(det_a), b=len(det_a) - sum(det_a), c=sum(det_b), d=len(det_b) - sum(det_b)
    )
    fisher = stats.fisher_exact_2x2(table)
    delta = stats.cliffs_delta(acc_a, acc_b)

    m = args.bonferroni_m
    adjusted: dict[str, object] = {"m": m}
    if wilcoxon_p is not None:
        adjusted["wilcoxon_p_adjusted"] = stats.bonferroni([wilcoxon_p], m)[0]
    adjusted["fisher_p_adjusted"] = stats.bonferroni([fisher.p_two_sided], m)[0]

    report = {
        "n_versions": len(version_ids),
        "wilcoxon": wilcoxon_block,
        "fisher": {
            "p_two_sided": fisher.p_two_sided,
            "odds_ratio": _json_float(fisher.odds_ratio),
            "table": {"a": table.a, "b": table.b, "c": table.c, "d": table.d},
        },
        "cliffs_delta": delta,
        "bonferroni": adjusted,
    }
    text = _json_text(report)
    if args.output:
        _write_text(Path(args.output), "comparison.json", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _horizon_arg(value: str) -> float | None:
    if value == "static":
        return None
    try:
        days = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of days or 'static', got {value!r}")
    if not days > 0:
        raise argparse.ArgumentTypeError(f"horizon must be positive, got {value}")
    return days


def _budget_arg(value: str) -> float:
    try:
        fraction = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a fraction, got {value!r}")
    if not 0.0 < fraction <= 1.0:
        raise argparse.ArgumentTypeError(f"budget must be in (0, 1], got {value}")
    return fraction


def _jobs_arg(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return jobs


def _comma_list(parse_item, valid=None):
    def convert(value: str) -> list:
        items = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            item = parse_item(part)
            if valid is not None and item not in valid:
                raise argparse.ArgumentTypeError(f"unknown value {part!r}")
            items.append(item)
        if not items:
            raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
        return items

    return convert


def _add_config_flags(parser: argparse.ArgumentParser, *, with_as_of: bool) -> None:
    parser.add_argument("--metric", choices=METRICS, default=METRIC_EXTENT)
    parser.add_argument(
        "--horizon",
        type=_horizon_arg,
        default=32.0,
        metavar="DAYS|static",
        help="half-life in days, or 'static' for uniform history weighting (default: 32)",
    )
    if with_as_of:
        parser.add_argument(
            "--as-of",
            dest="as_of",
            type=int,
            required=True,
            metavar="EPOCH",
            help="evaluation time as Unix seconds; later events are ignored",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riskmin",
        description="Minimize test suites by time-decayed change-history risk.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    score = commands.add_parser("score", parents=[], help="emit the per-class risk table as CSV")
    score.add_argument("manifest")
    _add_config_flags(score, with_as_of=True)
    score.add_argument("--output", default=None, metavar="DIR")
    score.set_defaults(func=cmd_score)

    minimize = commands.add_parser("minimize", help="select the highest-risk tests under a budget")
    minimize.add_argument("manifest")
    _add_config_flags(minimize, with_as_of=True)
    minimize.add_argument("--aggregate", choices=OPERATORS, default=OP_GMEAN)
    minimize.add_argument("--budget", type=_budget_arg, default=0.5, metavar="FRACTION")
    minimize.add_argument("--output", default=None, metavar="DIR")
    minimize.set_defaults(func=cmd_minimize)

    evaluate = commands.add_parser("evaluate", help="measure fault preservation over labeled versions")
    evaluate.add_argument("manifests", nargs="+")
    _add_config_flags(evaluate, with_as_of=False)
    evaluate.add_argument("--aggregate", choices=OPERATORS, default=OP_GMEAN)
    evaluate.add_argument("--budget", type=_budget_arg, default=0.5, metavar="FRACTION")
    evaluate.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N", help=JOBS_HELP)
    evaluate.add_argument("--output", default=None, metavar="DIR")
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = commands.add_parser("sweep", help="evaluate a configuration grid, one CSV row per cell")
    sweep.add_argument("manifests", nargs="+")
    sweep.add_argument(
        "--metrics",
        type=_comma_list(str, valid=METRICS),
        default=list(METRICS),
        metavar="LIST",
    )
    sweep.add_argument(
        "--horizons",
        type=_comma_list(_horizon_arg),
        default=list(CANONICAL_HORIZONS),
        metavar="LIST",
        help="comma-separated half-lives in days; 'static' is allowed as an entry",
    )
    sweep.add_argument(
        "--operators",
        type=_comma_list(str, valid=OPERATORS),
        default=list(OPERATORS),
        metavar="LIST",
    )
    sweep.add_argument(
        "--budgets",
        type=_comma_list(_budget_arg),
        default=list(CANONICAL_BUDGETS),
        metavar="LIST",
    )
    sweep.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N", help=JOBS_HELP)
    sweep.add_argument("--output", default=None, metavar="DIR")
    sweep.set_defaults(func=cmd_sweep)

    compare = commands.add_parser("compare", help="statistically compare two outcome files")
    compare.add_argument("outcomes_a")
    compare.add_argument("outcomes_b")
    compare.add_argument(
        "--bonferroni-m",
        dest="bonferroni_m",
        type=int,
        default=1,
        metavar="M",
        help="number of comparisons the reported p-values are adjusted for",
    )
    compare.add_argument("--output", default=None, metavar="DIR")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or str(exc)
        print(f"riskmin: error: missing input: {missing}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ParseError as exc:
        print(f"riskmin: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LabelError as exc:
        print(f"riskmin: error: {exc}", file=sys.stderr)
        return EXIT_LABEL
    except AlignmentError as exc:
        print(f"riskmin: error: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except ValueError as exc:
        print(f"riskmin: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
