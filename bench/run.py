"""Benchmark of the riskmin CLI on three seeded synthetic workloads.

Run from the repository root:

    python3 bench/run.py --workload eval-scc --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --steadiness 5
    python3 bench/run.py --self-test

See bench/README.md for the workloads, the metrics and what the numbers
cannot isolate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gen import generate
from workloads import LAYER_MAP, WORKLOADS, digest, facts, shape_problems

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench"
DIGESTS = BENCH / "digests.json"
BASELINE = BENCH / "baseline.json"
SETUPS = 5  # set-up samples per run: four set-up-only processes plus the measuring one
RUN_TIMEOUT = 175.0
# Times are reported at reference speed: raw seconds x REFERENCE_S / the
# mean time of the reference loop run in the same process (see README.md).
REFERENCE_S = 0.016


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}


def prepare(name: str, seed: int, workdir: Path, scale: int = 1) -> dict:
    """Generate the workload's inputs into ``workdir``; returns the facts the checks use."""
    sizes = WORKLOADS[name].sizes
    if scale > 1:
        sizes = dataclasses.replace(
            sizes, classes=sizes.classes // scale, tests=max(5, sizes.tests // scale), events=sizes.events // scale
        )
    project = generate(sizes, name, seed)
    problems = shape_problems(name, project)
    if problems:
        raise BenchError("; ".join(problems))
    project.write(workdir / "input", name)
    project_facts = facts(project)
    (workdir / "facts.json").write_text(json.dumps(project_facts), encoding="utf-8")
    return project_facts


def start_worker(mode: str, name: str, workdir: Path, seconds: float, deadline: float, spans: Path | None = None) -> dict:
    result = Path(tempfile.mkstemp(prefix=f"{mode}-", suffix=".json", dir=workdir)[1])
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--workdir", str(workdir),
            "--src", str(SRC), "--mode", mode, "--seconds", str(seconds), "--result", str(result)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    try:
        subprocess.run(argv, check=True, timeout=max(1.0, deadline - time.monotonic()), stdout=subprocess.DEVNULL)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{mode} worker exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time")
    return json.loads(result.read_text(encoding="utf-8"))


def judge(sequences: list[dict], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). A command fails on a non-zero exit, a
    broken invariant, or a digest that differs from ``reference`` (recorded
    for the seed, else the first one seen in this run)."""
    attempted = failed = 0
    messages = []
    for sequence in sequences:
        for record in sequence["commands"]:
            attempted += 1
            expected = reference.setdefault(record["label"], record["digest"])
            problems = list(record["problems"])
            if record["digest"] != expected:
                problems.append(f"digest {record['digest'][:16]} != recorded {expected[:16]}")
            if problems:
                failed += 1
                messages.append(f"{record['label']}: {'; '.join(problems)}")
    return attempted, failed, messages


def median(values: list[float]) -> float:
    return statistics.median(values)


def command_walls(sequences: list[dict]) -> dict[str, list[float]]:
    """Wall times of each command of the sequence, by label."""
    walls: dict[str, list[float]] = {}
    for sequence in sequences:
        for record in sequence["commands"]:
            walls.setdefault(record["label"], []).append(record["wall_s"])
    return walls


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict[str, str]]:
    """One benchmark run; returns the result object printed as the last line
    and the reference digest of each command."""
    deadline = time.monotonic() + RUN_TIMEOUT
    spec = load_spec()
    workload = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=SCRATCH))
    try:
        project_facts = prepare(name, seed, workdir)
        reference = dict(load_digests().get(name, {}).get(str(seed), {}))
        if trace:
            spans = SCRATCH / f"spans-{name}-{seed}.jsonl"
            result = start_worker("trace", name, workdir, seconds, deadline, spans)
            sequences = result["sequences"]
            attempted, failed, messages = judge(sequences, reference)
            traced = [s for s in sequences if s["traced"]]
            untraced = [s for s in sequences if not s["traced"]]
            values = dict(result["layers"])
            values["cli.commands_failed"] = judge(traced, reference)[1] / len(traced)
            values["trace.overhead_ratio"] = median([s["wall_s"] for s in traced]) / median(
                [s["wall_s"] for s in untraced]
            )
            for function, error in sorted(result["observer_errors"].items()):
                print(f"warning: counts of {function} not taken: {error}", file=sys.stderr)
            print(f"spans written to {spans.relative_to(ROOT)}")
            wanted = spec["per_layer"]
        else:
            setups = [start_worker("setup", name, workdir, 0, deadline) for _ in range(SETUPS - 1)]
            result = start_worker("measure", name, workdir, seconds, deadline)
            setups.append(result)
            sequences = result["sequences"]
            attempted, failed, messages = judge(sequences, reference)
            # The mean, not the median: a burst of contention that slows the
            # commands must weigh on the reference time as much.
            speed = REFERENCE_S / statistics.fmean([t for gap in result["reference_s"] for t in gap])
            wall = median([s["wall_s"] for s in sequences]) * speed
            values = {
                "wall_s": wall,
                "setup_s": median([s["setup_s"] for s in setups]) * REFERENCE_S
                / statistics.fmean([s["setup_reference_s"] for s in setups]),
                "cmd_p50_s": median([median(walls) for walls in command_walls(sequences).values()]) * speed,
                "scorings_per_s": workload.scorings(project_facts) / wall,
                "peak_rss_mb": result["peak_rss_mb"],
            }
            print(f"raw: wall_s {median([s['wall_s'] for s in sequences]):.6g} s, setup_s "
                  f"{median([s['setup_s'] for s in setups]):.6g} s, reference loop {REFERENCE_S / speed:.6g} s "
                  f"(nominal {REFERENCE_S} s)")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    for label, value in sorted(reference.items()):
        print(f"digest {name} seed={seed} {label} {value}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{name} seed={seed}: {len(sequences)} sequences, {attempted} commands, {failed} failed")
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':42s} {failed / attempted:.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, reference


# ---------------------------------------------------------------------------
# Steadiness report and baseline


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) with the default quantile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def steadiness(runs: int, seconds: float, record: bool) -> None:
    """Run every workload on seeds 0..runs-1 and print the spread of each
    end-to-end metric; with ``record``, store the digests and the baseline."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    recorded = load_digests()
    report = {}
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(runs):
            result, digests = measure(name, seed, seconds, trace=False)
            if record and result["correct"]:
                recorded.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        report[name] = {"runs": runs, "seeds": [0, runs - 1], "metrics": {}}
        for metric, series in values.items():
            mid, q1, q3, share = spread(series)
            bound = bounds.get(metric)
            flag = "" if bound is None else ("  ok" if share < bound / 3 else ("  within bound" if share <= bound else "  OVER BOUND"))
            print(f"  {name:14s} {metric:16s} median {mid:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {share:.3f}"
                  f" (bound {bound}){flag}", flush=True)
            report[name]["metrics"][metric] = {"median": mid, "q1": q1, "q3": q3, "spread": share}
        if record:
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if record:
        for name in WORKLOADS:
            result, _ = measure(name, 0, seconds, trace=True)
            report[name]["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == name)
            report[name]["layers"] = {k: v["value"] for k, v in result["metrics"].items()}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        payload = {
            "commit": commit.stdout.strip() or "unknown",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": seconds,
            "workloads": report,
            "layer_map": LAYER_MAP,
        }
        BASELINE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Self-test of the correctness gate


def self_test() -> bool:
    """Corrupt one output file per workload and check that the gate counts it."""
    SCRATCH.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    attempted = failed = 0
    clean = True
    for name, workload in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=SCRATCH))
        try:
            project_facts = prepare(name, 0, workdir, scale=5)
            result = start_worker("measure", name, workdir, 0, deadline)
            reference: dict[str, str] = {}
            _, pristine_failed, messages = judge(result["sequences"], reference)
            clean &= pristine_failed == 0
            commands = workload.commands(workdir / "input" / "manifest.json", workdir / "out", project_facts)
            for command, corruption in zip(commands, ("reorder", "append")):
                target = sorted(command.out_dir.iterdir())[-1]
                lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
                if corruption == "reorder":
                    lines[1], lines[2] = lines[2], lines[1]
                else:
                    lines.append(" \n")
                target.write_text("".join(lines), encoding="utf-8")
                record = {"label": command.label, "problems": command.check(command.out_dir),
                          "digest": digest(command.out_dir)}
                tried, broke, why = judge([{"commands": [record]}], reference)
                attempted += tried
                failed += broke
                print(f"{name} {command.label}: {corruption} {target.name} -> "
                      f"{'counted as failed' if broke else 'NOT caught'} {why}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: pristine outputs {'pass' if clean else 'FAIL'}; corrupted outputs "
          f"error_rate {failed / attempted:.3f} ({failed}/{attempted})")
    return clean and failed == attempted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", help="run each workload on seeds 0..RUNS-1")
    parser.add_argument("--record", action="store_true", help="for --steadiness: store the digests of correct runs "
                        f"in {DIGESTS.relative_to(ROOT)} and write {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--self-test", action="store_true", help="check that corrupted outputs are counted as failed")
    args = parser.parse_args()

    try:
        if not (SRC / "riskmin" / "cli.py").is_file():
            raise BenchError(f"no riskmin source under {SRC}")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.self_test:
            return 0 if self_test() else 1
        if args.steadiness:
            steadiness(args.steadiness, seconds, args.record)
            return 0
        if args.workload is None:
            parser.error("--workload, --steadiness or --self-test is required")
        print(json.dumps(measure(args.workload, args.seed, seconds, bool(args.trace))[0]))
        return 0
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
