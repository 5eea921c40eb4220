"""Command-line pipeline: ingest, score, minimize, evaluate, sweep, compare.

Runs are driven by a project manifest (one JSON file naming the change
log, call graph, entry-point selector, and source roots) so large batch
invocations stay reproducible. All outputs are deterministic byte-for-byte
for identical inputs and flags, except wall-clock time, which is isolated
to designated columns/keys.

Exit codes: 0 success, 1 usage or an unwritable output (stdout included, help too),
2 missing or unreadable input, 3 parse error, 4 label error, 5 alignment
error, 130 interrupted (SIGINT). Only ``main`` decides the exit code, and it
takes each error's code from one table, ``EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import gc
import io
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from . import stats
from .change_history import (
    MAX_INTEGER,
    SourceRootConfig,
    consolidate,
    parse_change_log,
    parse_git_numstat,
)
from .dependency_graph import (
    FORMAT_CALLGRAPH_TEXT,
    GRAPH_FORMATS,
    MethodRef,
    build_dependency_map,
    entry_class_filter,
    parse_callgraph_edges,
    parse_test_id,
    test_entry_points,
)
from .errors import UNEXPECTED_BOM, AlignmentError, InputError, LabelError, ParseError
from .evaluation import (
    CANONICAL_BUDGETS,
    CANONICAL_HORIZONS,
    GridCell,
    SweepGrid,
    SweepRow,
    VersionLabel,
    describe,
    evaluate_grid,
    fdr,
    minimize_suite,
    sweep_rows,
)
from .minimizer import Budget, check_result_invariants, config_fingerprint, format_horizon
from .risk_aggregation import OPERATORS, OP_GMEAN
from .temporal_risk import METRICS, METRIC_EXTENT, alpha_from_half_life, risk_folder
from .workers import run_in_order

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that the signal ended
# The exit code of each error a command may raise, the first type that matches: ParseError,
# LabelError and AlignmentError are ValueErrors, and any other ValueError is a usage error.
EXIT_CODES = ((InputError, 2), (ParseError, 3), (LabelError, 4), (AlignmentError, 5), (ValueError, EXIT_USAGE))

CHANGE_LOG_FORMATS = ("jsonl", "numstat")

OUTCOME_COLUMNS = ("version_id", "accuracy", "detected", "wall_time_s")


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


def _open_input(path: Path) -> IO[str]:
    """Open an input file as UTF-8 text; one that cannot be opened raises ``InputError`` naming it."""
    try:
        return open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(path, exc) from None


_Parsed = TypeVar("_Parsed")


def _parse_input(path: Path, parse: Callable[[IO[str]], _Parsed]) -> _Parsed:
    """``parse`` of an input file, whose ``ParseError`` or ``LabelError`` then names the file.

    This is the one place where a file that is not UTF-8 becomes an error. A
    text stream decodes ahead of the line it gives, so when ``parse`` lets a
    ``UnicodeDecodeError`` through, the file's bytes are parsed once more as
    ``_decoded_lines``: a fault of ``parse`` on an earlier line is reported,
    and otherwise the first line that does not decode. A read that fails once
    the file is open raises ``InputError`` naming it, as a failed open does.
    """
    with _open_input(path) as handle:
        try:
            try:
                return parse(handle)
            except UnicodeDecodeError:
                if not handle.seekable():  # a pipe: the lines it gave cannot be read again
                    raise ParseError("invalid UTF-8") from None
                handle.buffer.seek(0)
                return parse(_decoded_lines(handle.buffer.read()))
        except ParseError as exc:
            raise ParseError(str(exc), line=exc.line, path=str(path)) from None
        except LabelError as exc:
            raise LabelError(f"{path}: {exc}") from None
        except OSError as exc:
            raise InputError(path, exc) from None


def _decoded_lines(data: bytes) -> Iterator[str]:
    """Each line of ``data``, with its ending (LF, CRLF or CR), decoded as UTF-8.

    The first line that does not decode raises ``ParseError`` with its number.
    """
    for lineno, line in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"invalid UTF-8 at line {lineno}", line=lineno) from None


def _read_json(handle: IO[str], error: type[ValueError], what: str):
    """The JSON value in an open file; JSON that cannot be read raises ``error`` saying it is ``what``."""
    try:
        return json.load(handle)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what} JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, or nesting too deep
        raise error(f"unreadable {what} JSON: {exc}") from None


def load_manifest(path: Path) -> RunManifest:
    """Read a project manifest; relative paths resolve against its directory."""
    return _parse_input(path, lambda handle: _read_manifest(handle, Path(path).parent))


def _read_manifest(handle: IO[str], base: Path) -> RunManifest:
    """The manifest in an open file, its relative paths resolved against ``base``."""
    raw = _read_json(handle, ParseError, "manifest")
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object")
    for key in ("project_id", "change_log_path", "callgraph_path", "entry_selector", "source_roots"):
        if key not in raw:
            raise ParseError(f"manifest missing required key '{key}'")
    if not isinstance(raw["project_id"], str):
        raise ParseError("manifest key 'project_id' must be a string")
    for key, default, known in (
        ("change_log_format", "jsonl", CHANGE_LOG_FORMATS),
        ("callgraph_format", FORMAT_CALLGRAPH_TEXT, GRAPH_FORMATS),
    ):
        raw.setdefault(key, default)
        if raw[key] not in known:
            raise ParseError(f"manifest key '{key}' must be one of {', '.join(known)}, got {raw[key]!r}")
    _check_entry_selector(raw["entry_selector"])
    for key in ("change_log_path", "callgraph_path", "labels_path"):
        value = raw.get(key)
        if not isinstance(value, str) and not (value is None and key == "labels_path"):
            raise ParseError(f"manifest key '{key}' must be a path string")
    raw.setdefault("extensions", [".java"])
    for key in ("source_roots", "extensions", "exclude_classes"):
        value = raw.get(key, [])
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise ParseError(f"manifest key '{key}' must be a list of strings")
    if not raw["source_roots"]:
        raise ParseError("manifest key 'source_roots' must name at least one root")
    if not raw["extensions"]:  # no path would name a class, so every score would be zero
        raise ParseError("manifest key 'extensions' must name at least one extension")
    if "" in raw["extensions"]:  # every path would end in it, and its class id would be empty
        raise ParseError("manifest key 'extensions' must not hold an empty string")
    return RunManifest(
        project_id=raw["project_id"],
        change_log_path=base / raw["change_log_path"],
        change_log_format=raw["change_log_format"],
        callgraph_path=base / raw["callgraph_path"],
        callgraph_format=raw["callgraph_format"],
        entry_selector=raw["entry_selector"],
        source_roots=list(raw["source_roots"]),
        extensions=list(raw["extensions"]),
        exclude_classes=list(raw.get("exclude_classes", [])),
        labels_path=(base / raw["labels_path"]) if raw.get("labels_path") else None,
    )


def _check_entry_selector(selector: object) -> None:
    """``explicit`` (a list of test id strings) wins over ``pattern`` (an object of strings)."""
    if not isinstance(selector, dict):
        raise ParseError("manifest key 'entry_selector' must be a JSON object")
    if "explicit" in selector:
        explicit = selector["explicit"]
        if not isinstance(explicit, list) or not all(isinstance(item, str) for item in explicit):
            raise ParseError("manifest key 'entry_selector.explicit' must be a list of strings")
        for test_id in explicit:
            try:
                parse_test_id(test_id)
            except ParseError as exc:
                raise ParseError(f"manifest key 'entry_selector.explicit': {exc}") from None
    elif "pattern" in selector:
        pattern = selector["pattern"]
        if not isinstance(pattern, dict):
            raise ParseError("manifest key 'entry_selector.pattern' must be a JSON object")
        for key in ("class_suffix", "class_prefix", "method_prefix"):
            if not isinstance(pattern.get(key, ""), str):
                raise ParseError(f"manifest key 'entry_selector.pattern.{key}' must be a string")
    else:
        raise ParseError("manifest key 'entry_selector' needs an 'explicit' or a 'pattern' key")


@dataclass
class ProjectInputs:
    histories: dict
    entries: frozenset[MethodRef]
    dep_map: dict[str, list[str]]
    seconds: float


def load_project_inputs(manifest: RunManifest) -> ProjectInputs:
    """The project's class histories, entry points and dependency map, and the wall seconds taken to build them.

    This is the one place a command builds the dependency map. Ingest has
    two halves, run by ``workers.run_in_order`` as if one after the other:
    the call graph's (``_dependencies``: parse, entry points, dependency
    map, then the graph is freed) and the change log's (``_histories``).
    Where ``os.fork`` exists and this single-threaded process may run on two
    CPUs, a forked child runs the call graph's half while this process runs
    the change log's, and the child sends back the map and the entry points;
    elsewhere both run here in turn. Either way the graph and the change log
    are never alive together in one process, an unreadable or malformed call
    graph is reported before any fault of the change log, and the warnings
    come in the same order. The change log is parsed into per-path columns
    (a ``ChangeLog``), which ``consolidate`` frees group by group as it
    builds the histories' columns; no record is made per event.
    """
    started = time.perf_counter()
    (dep_map, entry_fields), histories = run_in_order(
        [
            (functools.partial(_dependencies, manifest), "the dependency map is built"),
            (functools.partial(_histories, manifest), "the change log is read"),
        ]
    )
    entries = frozenset(MethodRef._make(fields) for fields in entry_fields)
    return ProjectInputs(histories, entries, dep_map, time.perf_counter() - started)


def _dependencies(manifest: RunManifest) -> tuple[dict[str, list[str]], list[tuple[str, str, str]]]:
    """The dependency map and the entry points, as sorted plain tuples that ``marshal`` writes."""
    graph = _parse_input(
        manifest.callgraph_path, lambda handle: parse_callgraph_edges(handle, manifest.callgraph_format)
    )
    entries = test_entry_points(graph, manifest.entry_selector)
    dep_map = build_dependency_map(graph, entries, entry_class_filter(entries, manifest.exclude_classes))
    return dep_map, [tuple(entry) for entry in sorted(entries)]


def _histories(manifest: RunManifest) -> dict:
    """The class histories of the change log."""
    parse_events = parse_git_numstat if manifest.change_log_format == "numstat" else parse_change_log
    log = _parse_input(manifest.change_log_path, parse_events)
    source_cfg = SourceRootConfig(
        roots=tuple(manifest.source_roots), extensions=tuple(manifest.extensions)
    )
    return consolidate(log, source_cfg)


def load_labels(path: Path | None, project_id: str) -> list[VersionLabel]:
    """Read one label object or an array of them; every version needs one."""
    if path is None:
        raise LabelError(f"project {project_id!r} has no labels_path in its manifest")
    try:
        return _parse_input(path, _read_labels)
    except InputError as exc:
        if not exc.missing:
            raise
        raise LabelError(f"label file not found: {path}") from None


def _read_labels(handle: IO[str]) -> list[VersionLabel]:
    """The version labels in an open file; each fault is a ``LabelError`` without the file's name."""
    raw = _read_json(handle, LabelError, "label")
    records = raw if isinstance(raw, list) else [raw]
    labels: dict[str, VersionLabel] = {}
    for position, record in enumerate(records, start=1):
        if not isinstance(record, dict):
            raise LabelError(f"label record {position} is not a JSON object")
        for key in ("version_id", "as_of", "fault_revealing_tests"):
            if key not in record:
                raise LabelError(f"label record {position} missing required key '{key}'")
        version_id = record["version_id"]
        if not isinstance(version_id, str):
            raise LabelError(f"label record {position}: version_id must be a string")
        fault_list = record["fault_revealing_tests"]
        if not isinstance(fault_list, list) or not all(isinstance(t, str) for t in fault_list):
            raise LabelError(
                f"version {version_id!r}: fault_revealing_tests must be a list of test id strings"
            )
        fault_tests = frozenset(fault_list)
        if not fault_tests:
            raise LabelError(f"version {version_id!r} has no fault-revealing tests")
        as_of = record["as_of"]
        if not isinstance(as_of, int) or isinstance(as_of, bool):
            raise LabelError(f"version {version_id!r}: as_of must be an integer")
        if abs(as_of) > MAX_INTEGER:
            raise LabelError(f"version {version_id!r}: as_of exceeds {MAX_INTEGER} in magnitude")
        if version_id in labels:
            raise LabelError(f"version {version_id!r} is labelled more than once")
        labels[version_id] = VersionLabel(
            version_id=version_id, as_of=as_of, fault_revealing_tests=fault_tests
        )
    return list(labels.values())


# ---------------------------------------------------------------------------
# Output helpers


def _write_text(output: str | None, files: dict[str, str]) -> None:
    """Write each text of ``files`` (name -> text) to the file of that name in the directory ``output``,
    made if absent; without one, the texts to stdout, in order. Either way the bytes are UTF-8.

    Each file is first written under a temporary name in ``output``, and all
    of them are moved into place with ``os.replace`` once the last one is
    written. Until then the files of an earlier run stay as they were: on any
    error, ``KeyboardInterrupt`` included, the temporary files are removed.
    An output that cannot be written raises ``ValueError`` (a usage error) naming it.
    """
    staged: list[tuple[Path, Path]] = []  # (temporary, target), each temporary written and closed
    target: Path | str = "<stdout>"
    try:
        if not output:
            text = "".join(files.values())
            sys.stdout.flush()
            stream = getattr(sys.stdout, "buffer", None)
            if stream is None:  # a text stream without a byte layer, such as a StringIO
                sys.stdout.write(text)
            else:  # UTF-8 whatever encoding the locale gives the text layer, as in the files
                stream.write(text.encode())
                stream.flush()
            return
        for name, text in files.items():
            target = Path(output) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            staged.append((_written_beside(target, text), target))
        for _, target in staged:  # a directory in a target's place fails os.replace: fail before the first one
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        while staged:
            temporary, target = staged[0]
            os.replace(temporary, target)
            del staged[0]
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if not output:  # so that the interpreter's flush at exit writes what is left to the null device
            with contextlib.suppress(OSError, ValueError):  # a stdout without a file descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write output: {target} ({getattr(exc, 'strerror', None) or exc})") from None
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                temporary.unlink()


def _written_beside(target: Path, text: str) -> Path:
    """A new file in ``target``'s directory, under a hidden name no file there had, holding
    ``text`` in UTF-8, with the permissions ``open`` gives a new file. It is removed if the
    write fails or is interrupted."""
    while True:
        temporary = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            handle = open(temporary, "x", encoding="utf-8")
        except FileExistsError:
            continue
        try:
            with handle:
                handle.write(text)
        except BaseException:
            with contextlib.suppress(OSError):
                temporary.unlink()
            raise
        return temporary


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


# ---------------------------------------------------------------------------
# Commands


def cmd_score(args: argparse.Namespace) -> None:
    manifest = load_manifest(Path(args.manifest))
    inputs = load_project_inputs(manifest)
    table = risk_folder(inputs.histories, (args.metric,), (args.horizon,))(args.as_of)[0][args.metric]
    for class_id, risk in table.items():
        if not (math.isfinite(risk) and risk >= 0):
            raise AssertionError(f"invalid risk score for {class_id}")
    rows = [(class_id, str(table[class_id])) for class_id in sorted(table)]
    _write_text(args.output, {"risks.csv": _csv_text(("class_id", "risk"), rows)})


def cmd_minimize(args: argparse.Namespace) -> None:
    manifest = load_manifest(Path(args.manifest))
    inputs = load_project_inputs(manifest)
    budget = Budget(args.budget)
    result = minimize_suite(
        inputs.histories,
        inputs.dep_map,
        metric=args.metric,
        half_life_days=args.horizon,
        operator=args.aggregate,
        budget=budget,
        as_of=args.as_of,
    )
    check_result_invariants(result, budget)
    out_dir = args.output or "."
    _write_text(out_dir, {
        "selected.txt": "".join(test_id + "\n" for test_id in result.selected),
        "result.json": _json_text(result.to_json_dict()),
    })


def _evaluate_manifests(
    args: argparse.Namespace, grid: SweepGrid
) -> tuple[list[GridCell], list[VersionLabel], list[str]]:
    """The grid's cells pooled over every manifest's labelled versions, the pooled labels, and each one's project id.

    Versions pool in manifest order, then label order: per version, a label,
    a project id and, in each cell, one accuracy and one seconds double.
    Each project's ``ProjectInputs.seconds`` (the wall time of its ingest)
    is charged to every one of its versions. A project with no
    labelled versions adds nothing; a pool with none at all is a
    ``LabelError``, as is a version id that occurs twice in the pool. Each
    project's inputs and cells are freed before the next manifest is
    loaded, so a pooled run holds one project's inputs at a time.
    """
    pooled: list[GridCell] = []
    pooled_labels: list[VersionLabel] = []
    project_ids: list[str] = []
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
        unreachable = set().union(*(label.fault_revealing_tests for label in labels)) - inputs.dep_map.keys()
        if unreachable:
            logger.warning(
                "project %r: %d fault-revealing test id(s) are not entry points and always count as missed",
                manifest.project_id,
                len(unreachable),
            )
        if labels:
            cells = evaluate_grid(inputs.histories, inputs.dep_map, labels, grid, inputs.seconds, args.jobs)
            # Every project's cells follow the grid order, so they pool position by position.
            for (_, accuracies, seconds), (_, more_accuracies, more_seconds) in zip(pooled, cells):
                accuracies.extend(more_accuracies)
                seconds.extend(more_seconds)
            pooled = pooled or cells
            pooled_labels.extend(labels)
            project_ids.extend([manifest.project_id] * len(labels))
            del cells
        del manifest, inputs, labels
    if not pooled:
        raise LabelError(f"no labeled versions to {args.command}")
    return pooled, pooled_labels, project_ids


def _mean(values: Sequence[float]) -> float:
    """Sequential sum over the count, alike on every Python version.

    Not the builtin ``sum``, whose float summation is compensated since Python 3.12.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _stats_block(values: Sequence[float]) -> dict:
    lo, q1, mean, median, q3, hi = describe(values)
    return {"min": lo, "q1": q1, "mean": mean, "median": median, "q3": q3, "max": hi}


def cmd_evaluate(args: argparse.Namespace) -> None:
    grid = SweepGrid(
        metrics=(args.metric,),
        horizons=(args.horizon,),
        operators=(args.aggregate,),
        budgets=(args.budget,),
    )
    ((key, accuracies, seconds),), labels, project_ids = _evaluate_manifests(args, grid)
    rows = [
        (label.version_id, str(acc), "true" if acc > 0 else "false", str(secs))
        for label, acc, secs in zip(labels, accuracies, seconds)
    ]
    by_project: dict[str, list[float]] = {}
    for project_id, acc in zip(project_ids, accuracies):
        by_project.setdefault(project_id, []).append(acc)
    summary = {
        "config_fingerprint": config_fingerprint(*key, labels[0].as_of),
        "n_versions": len(accuracies),
        "mean_accuracy": _mean(accuracies),
        "fdr": fdr(accuracies),
        "accuracy_stats": _stats_block(accuracies),
        "per_project": {
            project_id: {"n_versions": len(group), "mean_accuracy": _mean(group), "fdr": fdr(group)}
            for project_id, group in sorted(by_project.items())
        },
        "project_stats": {
            "accuracy": _stats_block([_mean(group) for group in by_project.values()]),
            "fdr": _stats_block([fdr(group) for group in by_project.values()]),
        },
        "mean_wall_time_s": _mean(seconds),
    }
    out_dir = args.output or "."
    _write_text(out_dir, {"outcomes.csv": _csv_text(OUTCOME_COLUMNS, rows), "summary.json": _json_text(summary)})


def cmd_sweep(args: argparse.Namespace) -> None:
    grid = SweepGrid(
        metrics=tuple(args.metrics),
        horizons=tuple(args.horizons),
        operators=tuple(args.operators),
        budgets=tuple(args.budgets),
    )
    pooled, _, _ = _evaluate_manifests(args, grid)
    csv_rows = [
        (metric, format_horizon(horizon), operator, f"{budget:g}", *map(str, values))
        for metric, horizon, operator, budget, *values in sweep_rows(pooled)
    ]
    _write_text(args.output, {"sweep.csv": _csv_text(SweepRow._fields, csv_rows)})


_DETECTED_VALUES = {"true": True, "1": True, "false": False, "0": False}


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each CSV record of ``lines``, numbered by the line it ends on.

    A line that the csv module rejects (such as a field past its size limit)
    raises ``ParseError`` at its number.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        line = reader.line_num
        raise ParseError(f"malformed CSV at line {line}: {exc}", line=line) from None


def _read_outcomes_csv(lines: Iterable[str]) -> dict[str, tuple[float, bool]]:
    """Each version's (accuracy, detected) from the lines of an outcomes file.

    An accuracy is a finite number in [0, 1]; ``detected`` is ``true``,
    ``false``, ``1`` or ``0`` after stripping and case-folding. Any other value,
    a short row or a repeated version id raises ``ParseError`` with its line,
    and so does a file without a single outcome row, without a line. A
    header without the columns names a leading byte-order mark, at line 1,
    and one that names one of them twice names that column, at line 1.
    """
    outcomes: dict[str, tuple[float, bool]] = {}
    rows = _csv_rows(lines)
    _, header = next(rows, (1, []))
    if not set(OUTCOME_COLUMNS[:3]) <= set(header):
        if header and header[0][:1] == "\ufeff":
            raise ParseError(f"{UNEXPECTED_BOM} at line 1", line=1)
        raise ParseError(f"expected columns {','.join(OUTCOME_COLUMNS[:3])}")
    for column in OUTCOME_COLUMNS[:3]:
        if header.count(column) > 1:  # a row's record would hold its last value only
            raise ParseError(f"repeated column {column!r} at line 1", line=1)
    for lineno, row in rows:
        if not row:
            continue  # a blank line
        record = dict(zip(header, row))
        version_id, acc_text, detected_text = (record.get(column) for column in OUTCOME_COLUMNS[:3])
        try:
            acc = float(acc_text)
        except (TypeError, ValueError):  # a short row, or not a number
            acc = math.nan
        if None in (version_id, acc_text, detected_text):
            problem = "malformed outcome row"
        elif not 0.0 <= acc <= 1.0:
            problem = f"accuracy {acc_text[:40]!r} is not a number in [0, 1]"
        elif detected_text.strip().lower() not in _DETECTED_VALUES:
            problem = f"detected {detected_text[:40]!r} is not true, false, 1 or 0"
        elif version_id in outcomes:
            problem = f"repeated version_id {version_id!r}"
        else:
            outcomes[version_id] = (acc, _DETECTED_VALUES[detected_text.strip().lower()])
            continue
        raise ParseError(f"{problem} at line {lineno}", line=lineno)
    if not outcomes:  # nothing to compare; a quote left open at the header also swallows every row
        raise ParseError("no outcome rows")
    return outcomes


def cmd_compare(args: argparse.Namespace) -> None:
    outcomes_a = _parse_input(Path(args.outcomes_a), _read_outcomes_csv)
    outcomes_b = _parse_input(Path(args.outcomes_b), _read_outcomes_csv)
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
    _write_text(args.output, {"comparison.json": _json_text(report)})


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2, and whose help on stdout
    is written by ``_write_text``, so that an unwritable stdout is an output error (exit 1)."""

    def print_help(self, file=None):
        if file is None:
            _write_text(None, {"help": self.format_help()})
        else:
            super().print_help(file)

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
        raise argparse.ArgumentTypeError(f"expected a number of days or 'static', got {value[:40]!r}")
    try:
        alpha_from_half_life(days)  # rejects a non-positive half-life, or one too small for a finite rate
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return days


def _whole_number_arg(low: int, high: float = math.inf) -> Callable[[str], int]:
    """A converter of a whole number from ``low`` to ``high``."""
    bounds = f"at least {low}" if high == math.inf else f"from {low} to {high}"

    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {value[:40]!r}")
        if not low <= number <= high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value[:40]}")
        return number

    return convert


def _budget_arg(value: str) -> float:
    """The fraction ``value`` spells, if ``Budget`` takes it."""
    try:
        return Budget(float(value)).fraction
    except ValueError:  # not a number, or a fraction that ``Budget`` rejects
        raise argparse.ArgumentTypeError(f"budget must be a fraction in (0, 1], got {value[:40]!r}")


def _comma_list(parse_item, valid=None):
    def convert(value: str) -> list:
        items = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            item = parse_item(part)
            if valid is not None and item not in valid:
                raise argparse.ArgumentTypeError(f"unknown value {part[:40]!r}")
            if item in items:  # a repeated cell would be computed and written twice
                raise argparse.ArgumentTypeError(f"repeated value {part[:40]!r}")
            items.append(item)
        if not items:
            raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
        return items

    return convert


def build_parser() -> argparse.ArgumentParser:
    """The ``riskmin`` parser. Each flag group is declared once, as a parent
    parser, and each subcommand lists the groups it takes."""
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("manifest")

    manifests = argparse.ArgumentParser(add_help=False)
    manifests.add_argument("manifests", nargs="+")

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--metric", choices=METRICS, default=METRIC_EXTENT)
    config.add_argument(
        "--horizon",
        type=_horizon_arg,
        default=32.0,
        metavar="DAYS|static",
        help="half-life in days, or 'static' for uniform history weighting (default: 32)",
    )

    as_of = argparse.ArgumentParser(add_help=False)
    as_of.add_argument(
        "--as-of",
        type=_whole_number_arg(-MAX_INTEGER, MAX_INTEGER),
        required=True,
        metavar="EPOCH",
        help="evaluation time as Unix seconds; later events are ignored",
    )

    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--aggregate", choices=OPERATORS, default=OP_GMEAN)
    selection.add_argument("--budget", type=_budget_arg, default=0.5, metavar="FRACTION")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--metrics", type=_comma_list(str, valid=METRICS), default=list(METRICS), metavar="LIST"
    )
    grid.add_argument(
        "--horizons",
        type=_comma_list(_horizon_arg),
        default=list(CANONICAL_HORIZONS),
        metavar="LIST",
        help="comma-separated half-lives in days; 'static' is allowed as an entry",
    )
    grid.add_argument(
        "--operators", type=_comma_list(str, valid=OPERATORS), default=list(OPERATORS), metavar="LIST"
    )
    grid.add_argument(
        "--budgets", type=_comma_list(_budget_arg), default=list(CANONICAL_BUDGETS), metavar="LIST"
    )

    outcomes = argparse.ArgumentParser(add_help=False)
    outcomes.add_argument("outcomes_a")
    outcomes.add_argument("outcomes_b")
    outcomes.add_argument(
        "--bonferroni-m",
        type=_whole_number_arg(1, MAX_INTEGER),
        default=1,
        metavar="M",
        help="number of comparisons the reported p-values are adjusted for",
    )

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs",
        type=_whole_number_arg(1),
        default=1,
        metavar="N",
        help="score each project's (version, horizon) units in up to N processes, at most one per CPU "
        "this process may run on (default: 1); the outputs do not depend on N",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, metavar="DIR")

    parser = _Parser(prog="riskmin", description="Minimize test suites by time-decayed change-history risk.")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser(
        "score", parents=[manifest, config, as_of, output], help="emit the per-class risk table as CSV"
    ).set_defaults(func=cmd_score)
    commands.add_parser(
        "minimize",
        parents=[manifest, config, as_of, selection, output],
        help="select the highest-risk tests under a budget",
    ).set_defaults(func=cmd_minimize)
    commands.add_parser(
        "evaluate",
        parents=[manifests, config, selection, jobs, output],
        help="measure fault preservation over labeled versions",
    ).set_defaults(func=cmd_evaluate)
    commands.add_parser(
        "sweep",
        parents=[manifests, grid, jobs, output],
        help="evaluate a configuration grid, one CSV row per cell",
    ).set_defaults(func=cmd_sweep)
    commands.add_parser(
        "compare", parents=[outcomes, output], help="statistically compare two outcome files"
    ).set_defaults(func=cmd_compare)
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main() call, then reused


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The command runs with the cyclic garbage collector paused: its records
    hold no reference cycles and are freed by reference counting, and a
    collection would walk every one of them. The caller's collector state
    is restored on every exit path.
    """
    global _PARSER
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    if _PARSER is None:
        _PARSER = build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # argparse exits after a usage error, and after printing help
        return EXIT_OK if exc.code is None else int(exc.code)
    except (InputError, ValueError) as exc:
        print(f"riskmin: error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    except KeyboardInterrupt:  # forked children are killed and reaped by workers.run_in_order
        print("riskmin: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if collecting:
            gc.enable()


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
