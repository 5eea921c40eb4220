"""One fresh process that sets up a workload and runs its command sequence.

Started by ``run.py``; not meant to be run by hand. It imports riskmin only
after its clock has started, so the set-up time includes the import. Modes:

* ``setup``: import riskmin and load the inputs, then exit;
* ``measure``: set up, then repeat the command sequence until ``--seconds``
  have passed (at least once);
* ``trace``: set up, then repeat the sequence for ``--seconds``, alternately
  untraced and traced.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Command, digest


def run_sequence(cli, commands: list[Command]) -> dict:
    """Run every command once, timed; then check the outputs, untimed."""
    for command in commands:
        shutil.rmtree(command.out_dir, ignore_errors=True)
    walls, codes = [], []
    start = time.perf_counter()
    for command in commands:
        began = time.perf_counter()
        try:
            code = cli.main(command.argv)
        except Exception as exc:  # the CLI maps errors to exit codes; anything else is a failure
            code = f"raised {exc!r}"
        walls.append(time.perf_counter() - began)
        codes.append(code)
    wall = time.perf_counter() - start
    records = []
    for command, command_wall, code in zip(commands, walls, codes):
        problems = [] if code == 0 else [f"exit {code}"]
        if code == 0:
            try:
                problems += command.check(command.out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        records.append(
            {"label": command.label, "wall_s": command_wall, "problems": problems, "digest": digest(command.out_dir)}
        )
    return {"wall_s": wall, "commands": records}


def peak_rss_mb() -> float:
    """High-water resident set size of this process's own address space.

    Not ``ru_maxrss``: Linux carries a process's high-water mark across fork
    and exec into the child, so a worker would report the peak of the
    ``run.py`` that started it whenever that one was larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python workload: the host's current speed."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    total = 0.0
    for i in range(20_000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + 1
        total += math.log1p(i) * math.exp(-i * 1e-4)
    sorted(table.items())
    return time.perf_counter() - start


def reference_s() -> list[float]:
    return [reference_loop() for _ in range(8)]


def repeat(cli, commands: list[Command], seconds: float, tracer=None) -> tuple[list[dict], list[list[float]]]:
    """Closed loop: start the next sequence only after the last one ended.

    Returns the sequences and the reference-loop times taken before the
    first and after each sequence, one list per gap. With a tracer, sequences alternate
    untraced and traced, so a drift in host speed falls on both kinds alike.
    """
    start = time.perf_counter()
    references = [reference_s()]
    sequences: list[dict] = []
    while len(sequences) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(sequences) % 2 == 1
        if traced:
            tracer.install()
        try:
            sequence = run_sequence(cli, commands)
        finally:
            if traced:
                tracer.remove()
        sequence["traced"] = traced
        sequences.append(sequence)
        references.append(reference_s())
    return sequences, references


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    manifest_path = args.workdir / "input" / "manifest.json"
    facts = json.loads((args.workdir / "facts.json").read_text(encoding="utf-8"))

    before = reference_s()
    started = time.perf_counter()
    sys.path.insert(0, str(args.src))
    cli = importlib.import_module("riskmin.cli")
    if Path(cli.__file__).resolve().parents[1] != args.src.resolve():
        raise SystemExit(f"imported riskmin from {cli.__file__}, not from {args.src}")
    manifest = cli.load_manifest(manifest_path)
    inputs = cli.load_project_inputs(manifest)
    labels = cli.load_labels(manifest.labels_path, manifest.project_id) if manifest.labels_path else []
    result: dict = {"setup_s": time.perf_counter() - started}
    del inputs, labels
    gc.collect()
    result["setup_reference_s"] = statistics.fmean(before + reference_s())

    commands = WORKLOADS[args.workload].commands(manifest_path, args.workdir / "out", facts)
    if args.mode == "measure":
        result["sequences"], result["reference_s"] = repeat(cli, commands, args.seconds)
    elif args.mode == "trace":
        from layertrace import Tracer, layer_metrics

        tracer = Tracer()
        result["sequences"], result["reference_s"] = repeat(cli, commands, args.seconds, tracer)
        stats, counts = tracer.totals()
        traced = sum(sequence["traced"] for sequence in result["sequences"])
        result["layers"] = layer_metrics(stats, counts, traced)
        result["observer_errors"] = tracer.observer_errors
        if args.spans:
            tracer.write_spans(args.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
