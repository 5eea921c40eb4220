"""Seeded synthetic projects for the benchmark workloads.

Two call-graph shapes:

* ``layered``: production classes sit in layers and each method calls one
  method of the next layer or the one after, so the graph is acyclic and a
  test reaches about 30 classes, most tests a different set. The fixed
  fan-out keeps the mean reach, and so the scoring work, nearly the same
  from seed to seed.
* ``scc``: every method calls up to four random methods, so most methods
  form one strongly connected component and nearly every test reaches the
  same large class set.

Two history formats: change-event JSONL, and ``git log --numstat`` text with
renames in both the braced and the plain ``old => new`` syntax.

The same (workload, seed) always writes byte-identical files: every random
draw comes from one ``random.Random`` seeded with that pair.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DAY = 86_400
AS_OF = 1_700_000_000
HISTORY_START = AS_OF - 730 * DAY
HISTORY_END = AS_OF + 3 * DAY
TESTS_PER_CLASS = 5
TAGS = "MIOSD"
NON_CLASS_FILES = ("build.gradle", "README.md", "docs/design.md", "src/main/resources/app.properties")


@dataclass(frozen=True)
class Sizes:
    shape: str  # "layered" or "scc"
    classes: int
    methods: int  # per production class
    tests: int
    events: int
    history: str  # "jsonl" or "numstat"
    rename_share: float
    versions: int
    layers: int = 0


@dataclass
class Project:
    """A generated project: what the files hold, plus the facts the checks need."""

    sizes: Sizes
    tests: list[str]
    edges: list[tuple[str, str]]  # (caller, callee) as "class#method"
    history_text: str
    renames: int
    labels: list[dict]

    def write(self, directory: Path, project_id: str) -> Path:
        """Write the input files and a manifest; returns the manifest path."""
        directory.mkdir(parents=True, exist_ok=True)
        history_name = "changes.numstat" if self.sizes.history == "numstat" else "changes.jsonl"
        (directory / history_name).write_text(self.history_text, encoding="utf-8")
        (directory / "callgraph.txt").write_text(callgraph_text(self.edges), encoding="utf-8")
        manifest = {
            "project_id": project_id,
            "change_log_path": history_name,
            "change_log_format": self.sizes.history,
            "callgraph_path": "callgraph.txt",
            "callgraph_format": "callgraph-text",
            "entry_selector": {"pattern": {"class_suffix": "Test", "method_prefix": "test"}},
            "source_roots": ["src/main/java", "src/test/java"],
        }
        if self.labels:
            (directory / "labels.json").write_text(json.dumps(self.labels, indent=1) + "\n", encoding="utf-8")
            manifest["labels_path"] = "labels.json"
        path = directory / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


def callgraph_text(edges: list[tuple[str, str]]) -> str:
    lines = []
    for index, (caller, callee) in enumerate(edges):
        tag = TAGS[index % len(TAGS)]
        lines.append(f"M:{caller.replace('#', ':')} ({tag}){callee.replace('#', ':')}\n")
    return "".join(lines)


def class_path(class_id: str, root: str = "src/main/java", level: int = 0) -> str:
    """Repository path of a class; ``level`` > 0 is an older, pre-rename location."""
    package, _, name = class_id.rpartition(".")
    directory = f"{root}/{package.replace('.', '/')}"
    if level:
        directory += f"/v{level}"
    return f"{directory}/{name}.java"


def _rename_syntax(rng: random.Random, class_id: str, old: int, new: int) -> str:
    """numstat path of a move from location ``old`` to location ``new``."""
    if rng.random() < 0.5:
        package, _, name = class_id.rpartition(".")
        prefix = f"src/main/java/{package.replace('.', '/')}/"
        return f"{prefix}{{v{old} => {f'v{new}' if new else ''}}}/{name}.java"
    return f"{class_path(class_id, level=old)} => {class_path(class_id, level=new)}"


def _graph(rng: random.Random, sizes: Sizes) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    edges: list[tuple[str, str]] = []
    if sizes.shape == "layered":
        per_layer = sizes.classes // sizes.layers
        layers = [
            [f"org.bench.l{layer:02d}.C{index:04d}" for index in range(per_layer)]
            for layer in range(sizes.layers)
        ]
        production = [class_id for layer in layers for class_id in layer]
        for depth, layer in enumerate(layers[:-1]):
            for class_id in layer:
                for method in range(sizes.methods):
                    target = min(depth + 1 + (rng.random() < 0.3), sizes.layers - 1)
                    callee = rng.choice(layers[target])
                    edges.append((f"{class_id}#m{method}", f"{callee}#m{rng.randrange(sizes.methods)}"))
        test_targets, test_calls = layers[0] + layers[1], (3, 3)
    elif sizes.shape == "scc":
        production = [f"org.bench.core.C{index:04d}" for index in range(sizes.classes)]
        for class_id in production:
            for method in range(sizes.methods):
                for _ in range(rng.randint(0, 4)):
                    callee = rng.choice(production)
                    edges.append((f"{class_id}#m{method}", f"{callee}#m{rng.randrange(sizes.methods)}"))
        test_targets, test_calls = production, (1, 2)
    else:
        raise ValueError(f"unknown shape {sizes.shape!r}")
    tests = []
    for index in range(sizes.tests):
        test_id = f"org.bench.test.T{index // TESTS_PER_CLASS:04d}Test#test{index % TESTS_PER_CLASS}"
        tests.append(test_id)
        for _ in range(rng.randint(*test_calls)):
            callee = rng.choice(test_targets)
            edges.append((test_id, f"{callee}#m{rng.randrange(sizes.methods)}"))
    return production, tests, edges


def _history(
    rng: random.Random, sizes: Sizes, production: list[str], tests: list[str]
) -> tuple[str, int]:
    """Change-log text and rename count."""
    test_classes = sorted({test_id.split("#")[0] for test_id in tests})
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(len(production))]
    rng.shuffle(weights)
    cumulative = list(itertools.accumulate(weights))
    n_commits = sizes.events // 3
    stamps = sorted(rng.randint(HISTORY_START, HISTORY_END) for _ in range(n_commits))
    # One slot per file change: [commit index, kind, subject, added, deleted, modified].
    slots: list[list] = []
    for commit in range(n_commits):
        for _ in range(rng.randint(1, 5)):
            draw = rng.random()
            if draw < 0.85:
                kind, subject = "main", rng.choices(production, cum_weights=cumulative)[0]
            elif draw < 0.95:
                kind, subject = "test", rng.choice(test_classes)
            else:
                kind, subject = "other", rng.choice(NON_CLASS_FILES)
            slots.append(
                [commit, kind, subject, int(rng.expovariate(1 / 20)), int(rng.expovariate(1 / 10)), rng.randint(0, 10)]
            )
    commit_ids = [f"{rng.getrandbits(160):040x}" for _ in range(n_commits)]

    main_slots = [index for index, slot in enumerate(slots) if slot[1] == "main"]
    rename_slots = set(rng.sample(main_slots, round(len(slots) * sizes.rename_share)))
    # Walk backwards: a class sits at location 0 after its last rename and one
    # location further out before each earlier one.
    location: dict[str, int] = {}
    paths: list[str] = [""] * len(slots)
    for index in range(len(slots) - 1, -1, -1):
        _, kind, subject, *_ = slots[index]
        if kind == "main":
            level = location.get(subject, 0)
            if index in rename_slots:
                paths[index] = _rename_syntax(rng, subject, level + 1, level)
                location[subject] = level + 1
            else:
                paths[index] = class_path(subject, level=level)
        elif kind == "test":
            paths[index] = class_path(subject, root="src/test/java")
        else:
            paths[index] = subject

    lines = []
    if sizes.history == "numstat":
        previous = None
        for slot, path in zip(slots, paths):
            commit = slot[0]
            if commit != previous:
                if previous is not None:
                    lines.append("")
                lines.append(f"COMMIT {commit_ids[commit]} {stamps[commit]}")
                previous = commit
            lines.append(f"{slot[3]}\t{slot[4]}\t{path}")
    else:
        for slot, path in zip(slots, paths):
            record = {
                "path": path,
                "ts": stamps[slot[0]],
                "add": slot[3],
                "del": slot[4],
                "mod": slot[5],
                "commit": commit_ids[slot[0]],
            }
            lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n", len(rename_slots)


def _labels(rng: random.Random, sizes: Sizes, tests: list[str]) -> list[dict]:
    labels = []
    for index in range(sizes.versions):
        labels.append(
            {
                "version_id": f"v{index:02d}",
                "as_of": AS_OF - rng.randint(10, 400) * DAY,
                "fault_revealing_tests": sorted(rng.sample(tests, rng.randint(1, 3))),
            }
        )
    return labels


def generate(sizes: Sizes, workload: str, seed: int) -> Project:
    rng = random.Random(f"{workload}:{seed}")
    production, tests, edges = _graph(rng, sizes)
    history_text, renames = _history(rng, sizes, production, tests)
    return Project(
        sizes=sizes,
        tests=tests,
        edges=edges,
        history_text=history_text,
        renames=renames,
        labels=_labels(rng, sizes, tests),
    )


# ---------------------------------------------------------------------------
# Shape properties, computed on the generated edges without riskmin.


def _adjacency(edges: list[tuple[str, str]]) -> dict[str, list[str]]:
    adjacency: dict[str, list[str]] = {}
    for caller, callee in edges:
        adjacency.setdefault(caller, []).append(callee)
        adjacency.setdefault(callee, [])
    return adjacency


def is_acyclic(edges: list[tuple[str, str]]) -> bool:
    """Kahn's algorithm: every node can be removed only if there is no cycle."""
    adjacency = _adjacency(edges)
    indegree = dict.fromkeys(adjacency, 0)
    for targets in adjacency.values():
        for target in targets:
            indegree[target] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for target in adjacency[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return removed == len(adjacency)


def largest_scc(edges: list[tuple[str, str]]) -> int:
    """Size of the largest strongly connected component (iterative Tarjan)."""
    adjacency = _adjacency(edges)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    largest = 0
    for root in adjacency:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, child = work.pop()
            if child == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            targets = adjacency[node]
            while child < len(targets):
                target = targets[child]
                child += 1
                if target not in index:
                    work.append((node, child))
                    work.append((target, 0))
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            else:
                if low[node] == index[node]:
                    size = 0
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        size += 1
                        if member == node:
                            break
                    largest = max(largest, size)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return largest
