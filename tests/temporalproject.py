"""A seeded project whose faults follow the paper's premise: recent changes are the risky ones.

The project has two kinds of production classes:

* ``CORE_CLASSES`` core classes, each changed ``CORE_EVENTS`` times at
  instants drawn uniformly over the whole history: many old changes and a
  steady trickle of recent ones;
* one feature class per labelled version, changed ``FEATURE_EVENTS`` times,
  all within the 30 days before that version's ``as_of`` and never again.

Version ``k`` is evaluated at ``FIRST_AS_OF + k * VERSION_SPACING``. With
``faults="recent"`` its fault lies in its own feature class, and its
fault-revealing tests are the tests that call that class; every older
change of the history falls on other classes. With ``faults="uniform"``
(the control) each version has as many fault-revealing tests, drawn
uniformly from all tests, with no tie to the history.

Each test calls two production classes. The first ``VERSIONS`` tests each
call their own feature class and one other class, so every version has at
least one fault-revealing test; the rest call two classes drawn uniformly.
The seed and every parameter here were fixed before the first run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SEED = 2026
DAY = 86_400
START = 1_600_000_000
CORE_CLASSES = 20
CORE_EVENTS = 60
VERSIONS = 30
FEATURE_EVENTS = 3
TESTS = 60
FIRST_AS_OF = START + 400 * DAY
VERSION_SPACING = 15 * DAY
HISTORY_END = FIRST_AS_OF + VERSIONS * VERSION_SPACING


def write(directory: Path, faults: str) -> str:
    """Write the project's change log, call graph, labels and manifest to ``directory``;
    returns the manifest's path. ``faults`` is ``"recent"`` or ``"uniform"``."""
    rng = random.Random(SEED)
    core = [f"app.core.K{index:02d}" for index in range(CORE_CLASSES)]
    features = [f"app.feature.F{index:02d}" for index in range(VERSIONS)]
    as_of = [FIRST_AS_OF + version * VERSION_SPACING for version in range(VERSIONS)]

    changes = [(rng.randrange(START, HISTORY_END), class_id) for class_id in core for _ in range(CORE_EVENTS)]
    for class_id, instant in zip(features, as_of):
        changes += [(instant - rng.randrange(DAY, 30 * DAY), class_id) for _ in range(FEATURE_EVENTS)]
    changes.sort()
    events = [
        {"path": "src/" + class_id.replace(".", "/") + ".java", "ts": ts,
         "add": rng.randint(1, 40), "del": rng.randint(0, 20), "commit": f"c{index:05d}"}
        for index, (ts, class_id) in enumerate(changes)
    ]

    tests = [f"app.T{index:02d}Test#test" for index in range(TESTS)]
    classes = core + features
    calls = {}
    for index, test in enumerate(tests):
        if index < VERSIONS:
            calls[test] = [features[index], rng.choice([c for c in classes if c != features[index]])]
        else:
            calls[test] = rng.sample(classes, 2)

    labels = []
    for version, (class_id, instant) in enumerate(zip(features, as_of)):
        revealing = [test for test in tests if class_id in calls[test]]
        labels.append({"version_id": f"v{version:02d}", "as_of": instant, "fault_revealing_tests": revealing})
    if faults == "uniform":
        for label in labels:
            label["fault_revealing_tests"] = sorted(rng.sample(tests, len(label["fault_revealing_tests"])))
    elif faults != "recent":
        raise ValueError(f"faults must be 'recent' or 'uniform', got {faults!r}")

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "changes.jsonl").write_text("".join(json.dumps(event) + "\n" for event in events), encoding="utf-8")
    (directory / "callgraph.csv").write_text(
        "".join(f"{test},{class_id}#run\n" for test in tests for class_id in calls[test]), encoding="utf-8"
    )
    (directory / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
    manifest = {
        "project_id": f"temporal-{faults}",
        "change_log_path": "changes.jsonl",
        "callgraph_path": "callgraph.csv",
        "callgraph_format": "csv",
        "entry_selector": {"pattern": {"class_suffix": "Test", "method_prefix": "test"}},
        "source_roots": ["src"],
        "labels_path": "labels.json",
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)
