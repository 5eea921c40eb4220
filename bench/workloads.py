"""The three benchmark workloads: inputs, command sequence, and output checks.

Each workload is a closed loop with one client: one process issues its CLI
commands one after another, each after the previous one has finished.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import AS_OF, DAY, Project, Sizes, is_acyclic, largest_scc

SWEEP_PASSES = 2 * 10 * 4  # metrics x horizons x operators: one score_test per test each
SWEEP_CELLS = SWEEP_PASSES * 3  # x budgets, which share a scoring pass
BUDGET = 0.5


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    out_dir: Path
    check: Callable[[Path], list[str]]  # problems found in out_dir; empty when correct


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    # (manifest, output root, facts) -> the command sequence
    commands: Callable[[Path, Path, dict], list[Command]]
    # facts -> (test x scoring pass x version) scorings per sequence, that is
    # score_test calls: the sweep's three budgets share one scoring pass
    scorings: Callable[[dict], int]


def facts(project: Project) -> dict:
    """What the checks need to know about a generated project."""
    return {
        "tests": len(project.tests),
        "versions": len(project.labels),
        "version_ids": sorted(label["version_id"] for label in project.labels),
    }


def shape_problems(name: str, project: Project) -> list[str]:
    """Shape properties each workload relies on, checked before any timing."""
    problems = []
    if project.sizes.shape == "layered" and not is_acyclic(project.edges):
        problems.append("layered call graph has a cycle")
    if project.sizes.shape == "scc":
        methods = project.sizes.classes * project.sizes.methods
        share = largest_scc(project.edges) / methods
        if share < 0.5:
            problems.append(f"largest SCC covers only {share:.2f} of production methods")
    if project.sizes.history == "numstat" and project.renames == 0:
        problems.append("numstat history has no renames")
    return [f"{name}: {problem}" for problem in problems]


# ---------------------------------------------------------------------------
# Output checks: digests and invariants, read from the files the CLI wrote.


def mask_timing(name: str, data: bytes) -> bytes:
    """Blank the wall-clock fields; same rule as the acceptance suite's masking."""
    text = data.decode("utf-8")
    if name in ("outcomes.csv", "sweep.csv"):
        lines = text.splitlines()
        return "\n".join([lines[0]] + [line.rsplit(",", 1)[0] + ",X" for line in lines[1:]]).encode()
    if name == "summary.json":
        return re.sub(r'"mean_wall_time_s": [0-9.e+-]+', '"mean_wall_time_s": "X"', text).encode()
    return data


def digest(out_dir: Path) -> str:
    """SHA-256 over every output file (name and masked bytes), in name order."""
    sha = hashlib.sha256()
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        sha.update(path.name.encode() + b"\0" + mask_timing(path.name, path.read_bytes()) + b"\0")
    return sha.hexdigest()


def _in_unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_minimize(out_dir: Path, tests: int) -> list[str]:
    result = _read_json(out_dir / "result.json")
    selected, excluded, scores = result["selected"], result["excluded"], result["scores"]
    problems = []
    if (out_dir / "selected.txt").read_text(encoding="utf-8").splitlines() != selected:
        problems.append("selected.txt differs from result.json")
    if len(selected) + len(excluded) != tests or len(set(selected) | set(excluded)) != tests:
        problems.append("selected and excluded do not partition the suite")
    if len(selected) != max(1, min(tests, math.floor(tests * BUDGET + 0.5))):
        problems.append("selected count breaks the budget rule")
    ranked = selected + excluded
    if set(scores) != set(ranked) or not all(math.isfinite(s) and s >= 0 for s in scores.values()):
        problems.append("scores missing or not finite and non-negative")
    elif ranked != sorted(ranked, key=lambda test_id: (-scores[test_id], test_id)):
        problems.append("order is not (score desc, id asc)")
    return problems


def check_evaluate(out_dir: Path, version_ids: list[str]) -> list[str]:
    rows = _read_csv(out_dir / "outcomes.csv")
    summary = _read_json(out_dir / "summary.json")
    problems = []
    if sorted(row["version_id"] for row in rows) != version_ids:
        problems.append("outcomes.csv does not have one row per version")
    for row in rows:
        accuracy = float(row["accuracy"])
        if not _in_unit(accuracy) or (row["detected"] == "true") != (accuracy > 0):
            problems.append(f"bad outcome row for {row['version_id']}")
    if summary["n_versions"] != len(version_ids):
        problems.append("summary n_versions differs from the versions")
    if not (_in_unit(summary["mean_accuracy"]) and _in_unit(summary["fdr"])):
        problems.append("summary accuracy or fdr outside [0, 1]")
    return problems


def check_sweep(out_dir: Path) -> list[str]:
    rows = _read_csv(out_dir / "sweep.csv")
    problems = []
    if len(rows) != SWEEP_CELLS or len({(r["metric"], r["horizon_days"], r["operator"], r["budget"]) for r in rows}) != SWEEP_CELLS:
        problems.append(f"sweep.csv does not have one row per grid cell ({SWEEP_CELLS})")
    for row in rows:
        low, q1, median, q3, high = (float(row[k]) for k in ("min_acc", "q1_acc", "median_acc", "q3_acc", "max_acc"))
        values = (low, q1, median, q3, high, float(row["mean_accuracy"]), float(row["fdr"]))
        if not all(_in_unit(v) for v in values) or not low <= q1 <= median <= q3 <= high:
            problems.append("sweep row accuracy outside [0, 1] or quartiles out of order")
            break
    return problems


def check_compare(out_dir: Path, versions: int) -> list[str]:
    report = _read_json(out_dir / "comparison.json")
    problems = []
    if report["n_versions"] != versions:
        problems.append("compare n_versions differs from the versions")
    p_values = [report["fisher"]["p_two_sided"], report["wilcoxon"]["p_two_sided"]]
    if not all(p is None or _in_unit(p) for p in p_values):
        problems.append("p-value outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# Command sequences


def _ci_minimize(manifest: Path, out: Path, facts: dict) -> list[Command]:
    commands = []
    for day in range(3):
        out_dir = out / f"minimize-d{day}"
        argv = ["minimize", str(manifest), "--metric", "extent", "--horizon", "32", "--aggregate", "gmean",
                "--budget", str(BUDGET), "--as-of", str(AS_OF + day * DAY), "--output", str(out_dir)]
        commands.append(Command(f"minimize@d{day}", argv, out_dir, lambda d: check_minimize(d, facts["tests"])))
    return commands


def _eval_scc(manifest: Path, out: Path, facts: dict) -> list[Command]:
    check = lambda d: check_evaluate(d, facts["version_ids"])  # noqa: E731
    a, b, c = out / "evaluate-a", out / "evaluate-b", out / "compare"
    return [
        Command("evaluate-a", ["evaluate", str(manifest), "--metric", "extent", "--horizon", "32",
                               "--aggregate", "gmean", "--budget", str(BUDGET), "--output", str(a)], a, check),
        Command("evaluate-b", ["evaluate", str(manifest), "--metric", "extent", "--horizon", "static",
                               "--aggregate", "avg", "--budget", str(BUDGET), "--output", str(b)], b, check),
        Command("compare", ["compare", str(a / "outcomes.csv"), str(b / "outcomes.csv"), "--bonferroni-m", "3",
                            "--output", str(c)], c, lambda d: check_compare(d, facts["versions"])),
    ]


def _sweep_layered(manifest: Path, out: Path, facts: dict) -> list[Command]:
    out_dir = out / "sweep"
    return [Command("sweep", ["sweep", str(manifest), "--jobs", "2", "--output", str(out_dir)], out_dir, check_sweep)]


WORKLOADS = {
    "ci-minimize": Workload(
        sizes=Sizes("layered", 960, 8, 480, 48_000, "numstat", 0.02, 0, layers=12),
        commands=_ci_minimize,
        scorings=lambda f: f["tests"] * 3,
    ),
    "eval-scc": Workload(
        sizes=Sizes("scc", 400, 8, 100, 12_000, "jsonl", 0.0, 10),
        commands=_eval_scc,
        scorings=lambda f: f["tests"] * f["versions"] * 2,
    ),
    "sweep-layered": Workload(
        sizes=Sizes("layered", 600, 8, 300, 12_000, "jsonl", 0.0, 3, layers=12),
        commands=_sweep_layered,
        scorings=lambda f: f["tests"] * SWEEP_PASSES * f["versions"],
    ),
}

# Which end-to-end metric each per-layer metric should move, and on which workload.
LAYER_MAP = {
    "cli.load_s, cli.self_s, cli.commands, cli.commands_failed": "setup_s everywhere; error_rate",
    "change_history.parse_s, consolidate_s, events, renames, classes, kept_ratio":
        "wall_s, cmd_p50_s, peak_rss_mb on ci-minimize; setup_s everywhere; little else elsewhere",
    "dependency_graph.parse_s, entries_s, nodes, edges, entries": "setup_s",
    "dependency_graph.depmap_s, depmap_calls, reach_calls, mean_reach":
        "wall_s on eval-scc (dominant); wall_s on sweep-layered through depmap_calls; not ci-minimize",
    "temporal_risk.risk_table_s, risk_table_calls, positive_ratio": "wall_s, scorings_per_s on sweep-layered",
    "risk_aggregation.score_s, aggregate_s, score_calls, zero_score_tests": "wall_s on sweep-layered",
    "risk_aggregation.distinct_dep_sets_ratio":
        "input property a per-signature scoring cache depends on (about 0.15 on eval-scc, 1.0 on layered)",
    "minimizer.select_s, select_calls, boundary_ties": "wall_s on sweep-layered",
    "evaluation.self_s, versions, fault_tests_missing": "wall_s on sweep-layered and eval-scc",
    "stats.compare_s": "wall_s on eval-scc (about 0.1 ms; recorded so a regression cannot go unseen)",
    "trace.overhead_ratio": "traced wall_s / untraced wall_s",
}

