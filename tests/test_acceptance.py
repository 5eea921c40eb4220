"""Acceptance gate: one test per release criterion.

Each test is oracle- or property-based and prints into the summary block
emitted by conftest. Runtime bounds are asserted where the criterion
carries one. The final reference-project check is informational: it needs
externally prepared inputs and never gates the suite.
"""

import math
import os
import random
import re
import time

import pytest

from riskmin import cli
from riskmin.change_history import ChangeEvent
from riskmin.dependency_graph import CallGraph, MethodRef, build_dependency_map
from riskmin.evaluation import VersionLabel, accuracy, fdr, minimize_suite
from riskmin.minimizer import budget_count, cut_ranking, rank
from riskmin.risk_aggregation import OPERATORS, positive_multisets, score_multisets
from riskmin.stats import cliffs_delta, fisher_exact_2x2, wilcoxon_signed_rank
from riskmin.temporal_risk import risk_folder

from microproject import AS_OF, random_micro_project
from oracles import (
    class_history,
    enum_fisher,
    enum_wilcoxon,
    naive_cliffs_delta,
    naive_class_risk,
    naive_score,
    pipeline_selected,
    transitive_closure,
    transitive_closure_bitset,
)

DAY = 86_400


# ---------------------------------------------------------------------------
# Fixture helpers


def _static_deps_and_risks(project, metric):
    """Dependency sets and static class risks, computed the oracle way."""
    by_class = {}
    for event in project.events:
        by_class.setdefault(event["class_id"], []).append(event)
    risks = {
        class_id: naive_class_risk(events, metric, None, project.as_of)
        for class_id, events in by_class.items()
    }
    test_classes = {entry.split("#")[0] for entry in project.entries}
    nodes = {node for edge in project.edges for node in edge} | set(project.entries)
    closure = transitive_closure(nodes, project.edges)
    deps = {}
    for entry in project.entries:
        reached = {entry} | closure.get(entry, set())
        deps[entry] = frozenset({n.split("#")[0] for n in reached} - test_classes)
    return deps, risks


def _is_tie_free(project):
    """True when equal static scores only arise from identical dep sets.

    The long-horizon limit cannot match static mode's lexicographic order
    below a score collision between tests with different dependencies, so
    the equivalence fixtures must exclude that degenerate case.
    """
    for metric in ("frequency", "extent"):
        deps, risks = _static_deps_and_risks(project, metric)
        for op in OPERATORS:
            by_score = {}
            for entry in project.entries:
                score = naive_score(deps[entry], risks, op)
                by_score.setdefault(score, set()).add(deps[entry])
            if any(len(dep_sets) > 1 for dep_sets in by_score.values()):
                return False
    return True


def _tie_free_fixtures(count, start_seed=1000):
    fixtures = []
    seed = start_seed
    while len(fixtures) < count:
        project = random_micro_project(seed)
        if _is_tie_free(project):
            fixtures.append(project)
        seed += 1
    return fixtures


# ---------------------------------------------------------------------------
# Criteria


def test_half_life_exactness():
    """A single event aged exactly k half-lives contributes weight * 2^-k."""
    started = time.perf_counter()
    reference = AS_OF
    for half_life in (1.0, 32.0, 512.0):
        for k in range(0, 7):
            event = ChangeEvent(
                path="src/a/B.java",
                timestamp=reference - int(k * half_life * DAY),
                added=6, deleted=0, modified=0, commit_id="c1",
            )
            history = class_history("a.B", (event,))
            for metric, weight in (("frequency", 1.0), ("extent", math.log(7.0))):
                expected = weight * 2.0 ** (-k)
                # at one instant, as minimize and score fold
                (risks,) = risk_folder({"a.B": history}, ("frequency", "extent"), (half_life,))(reference)
                assert risks[metric]["a.B"] == pytest.approx(expected, rel=1e-12)
        # at several instants, as evaluate and sweep fold: one event, aged k half-lives at the k-th instant
        event = ChangeEvent(
            path="src/a/B.java", timestamp=reference, added=6, deleted=0, modified=0, commit_id="c1",
        )
        history = class_history("a.B", (event,))
        instants = [reference + int(k * half_life * DAY) for k in range(0, 7)]
        fold = risk_folder({"a.B": history}, ("frequency", "extent"), (half_life,))
        tables = [fold(instant) for instant in instants]
        for k, (risks,) in enumerate(tables):
            for metric, weight in (("frequency", 1.0), ("extent", math.log(7.0))):
                assert risks[metric]["a.B"] == pytest.approx(weight * 2.0 ** (-k), rel=1e-12)
    assert time.perf_counter() - started < 1.0


def test_static_limit_selects_identical_suites():
    """Half-life 1e9 days and static mode produce byte-identical suites."""
    started = time.perf_counter()
    for project in _tie_free_fixtures(20):
        histories, graph, entries, test_filter = project.library_inputs()
        for metric in ("frequency", "extent"):
            for op in OPERATORS:
                for fraction in (0.25, 0.5, 0.75):
                    picked = {}
                    for horizon in (None, 1e9):
                        result = minimize_suite(
                            histories, build_dependency_map(graph, entries, test_filter),
                            metric=metric, half_life_days=horizon, operator=op,
                            budget=fraction, as_of=project.as_of,
                        )
                        picked[horizon] = "\n".join(result.selected).encode()
                    assert picked[None] == picked[1e9]
    assert time.perf_counter() - started < 5.0


def test_pipeline_matches_brute_force_oracle():
    """Full pipeline equals naive closure + naive scoring + naive sort."""
    started = time.perf_counter()
    rng = random.Random(2024)
    for trial in range(60):
        project = random_micro_project(
            5000 + trial, max_classes=20, max_tests=40, max_edges=200, max_events=100
        )
        histories, graph, entries, test_filter = project.library_inputs()
        metric = rng.choice(["frequency", "extent"])
        horizon = rng.choice([None, 1.0, 8.0, 32.0, 512.0])
        op = rng.choice(OPERATORS)
        fraction = rng.choice([0.25, 0.5, 0.75])
        result = minimize_suite(
            histories, build_dependency_map(graph, entries, test_filter),
            metric=metric, half_life_days=horizon, operator=op,
            budget=fraction, as_of=project.as_of,
        )
        oracle_selected, oracle_excluded = pipeline_selected(project, metric, horizon, op, fraction)
        assert set(result.selected) == set(oracle_selected)
        assert set(result.excluded) == set(oracle_excluded)
    assert time.perf_counter() - started < 60.0


def test_mean_ordering_and_homogeneity():
    """HMean <= GMean <= Avg and c-rescaling scales every operator by c."""

    def score(values, op):  # the scoring step every command runs, on one multiset
        return score_multisets([sorted(values)], op)[0]

    rng = random.Random(31337)
    scales = (1e-6, 1.0, 1e6)
    for _ in range(1000):
        values = [rng.uniform(1e-4, 1e4) for _ in range(rng.randint(2, 12))]
        hm = score(values, "hmean")
        gm = score(values, "gmean")
        am = score(values, "avg")
        assert hm <= gm * (1 + 1e-12)
        assert gm <= am * (1 + 1e-12)
        c = rng.choice(scales)
        for op in OPERATORS:
            assert score([c * v for v in values], op) == pytest.approx(
                c * score(values, op), rel=1e-12
            )


def test_selection_invariant_under_risk_rescaling():
    """Multiplying every class risk by c > 0 leaves the selected set unchanged."""
    for seed in (9001, 9002, 9003, 9004, 9005):
        project = random_micro_project(seed)
        histories, graph, entries, test_filter = project.library_inputs()
        dep_map = build_dependency_map(graph, entries, test_filter)
        table = risk_folder(histories, ("extent",), (32.0,))(project.as_of)[0]["extent"]
        for op in OPERATORS:
            for fraction in (0.25, 0.5, 0.75):
                baseline = None
                for c in (1e-6, 1.0, 1e6):
                    scaled = {cid: c * risk for cid, risk in table.items()}
                    test_scores = score_multisets(positive_multisets(dep_map.values(), scaled), op)
                    scores = dict(zip(dep_map, test_scores))
                    selected = cut_ranking(rank(scores), scores, fraction, "").selected
                    if baseline is None:
                        baseline = selected
                    else:
                        assert selected == baseline


def test_reachability_matches_closure_oracle():
    """The dependency map equals the bitset closure on graphs up to 200 nodes."""
    rng = random.Random(777)
    sizes = [rng.randint(2, 200) for _ in range(12)] + [200, 200, 150]
    for size in sizes:
        index_edges = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(0, 3 * size))
        }
        graph = CallGraph()
        refs = [MethodRef(f"C{i:03d}", "m") for i in range(size)]
        for a, b in index_edges:
            graph.add_edge(refs[a], refs[b])
        closure_rows = transitive_closure_bitset(size, index_edges)
        for i in range(size):
            expected = {f"C{j:03d}" for j in range(size) if closure_rows[i] >> j & 1}
            expected.add(f"C{i:03d}")
            # the map the commands build, here with one entry
            assert build_dependency_map(graph, [refs[i]], set()) == {refs[i].test_id: sorted(expected)}


def test_accuracy_and_fdr_definitions():
    """Hand-counted retention and detection fixtures."""
    label = VersionLabel(
        version_id="v1", as_of=AS_OF,
        fault_revealing_tests=frozenset({"a", "b", "c", "d"}),
    )
    assert accuracy({"a", "b", "x", "y"}, label) == 0.5
    assert accuracy({"a", "b", "c", "d", "e"}, label) == 1.0
    assert accuracy({"zz"}, label) == 0.0

    assert fdr([1.0, 0.0, 0.5]) == pytest.approx(2 / 3)
    assert fdr([0.25]) == 1.0
    assert fdr([0.0, 0.0]) == 0.0


def test_statistics_match_enumeration_oracles():
    """Signed-rank, 2x2, and rank-dominance against exhaustive references."""
    rng = random.Random(4242)

    # signed-rank: exact branch bit-for-bit on every n <= 10, ties included
    for _ in range(200):
        n = rng.randint(1, 10)
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([0.5, 1.0, 1.5]) for _ in range(n)]
        result = wilcoxon_signed_rank([(d, 0.0) for d in diffs])
        wp, wm, expected_p = enum_wilcoxon(diffs)
        assert result.statistic == min(wp, wm)
        assert result.p_two_sided == expected_p

    # 2x2: exhaustive small tables plus random and boundary margins <= 15
    tables = [
        (a, b, c, d)
        for a in range(4) for b in range(4) for c in range(4) for d in range(4)
        if a + b + c + d > 0
    ]
    tables += [
        (rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7))
        for _ in range(300)
    ]
    tables += [(a, 15 - a, 15 - a, a) for a in range(16)]
    for a, b, c, d in tables:
        if a + b + c + d == 0:
            continue
        assert fisher_exact_2x2((a, b, c, d)).p_two_sided == pytest.approx(
            enum_fisher(a, b, c, d), abs=1e-10
        )

    # rank dominance: exact equality with the pairwise count
    for _ in range(100):
        xs = [rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) for _ in range(rng.randint(1, 15))]
        ys = [rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) for _ in range(rng.randint(1, 15))]
        assert cliffs_delta(xs, ys) == naive_cliffs_delta(xs, ys)


def test_budget_laws():
    """Selected size follows round-half-up with floor 1; budgets nest."""
    rng = random.Random(555)
    for _ in range(200):
        n = rng.randint(0, 60)
        fraction = rng.choice([0.25, 0.5, 0.75, 0.1, 0.33, 1.0])
        expected = math.floor(n * fraction + 0.5)
        expected = max(min(1, n), min(n, expected))
        assert budget_count(n, fraction) == expected

    for seed in (8101, 8102, 8103, 8104, 8105, 8106):
        project = random_micro_project(seed)
        histories, graph, entries, test_filter = project.library_inputs()
        selected = {}
        for fraction in (0.25, 0.5, 0.75):
            result = minimize_suite(
                histories, build_dependency_map(graph, entries, test_filter),
                metric="extent", half_life_days=32.0, operator="gmean",
                budget=fraction, as_of=project.as_of,
            )
            n = len(result.selected) + len(result.excluded)
            assert len(result.selected) == budget_count(n, fraction)
            selected[fraction] = set(result.selected)
        assert selected[0.25] <= selected[0.5] <= selected[0.75]


def _mask_timing(name, data: bytes) -> bytes:
    text = data.decode("utf-8")
    if name == "outcomes.csv":
        lines = text.splitlines()
        masked = [lines[0]] + [line.rsplit(",", 1)[0] + ",X" for line in lines[1:]]
        return "\n".join(masked).encode()
    if name == "sweep.csv":
        lines = text.splitlines()
        masked = [lines[0]] + [line.rsplit(",", 1)[0] + ",X" for line in lines[1:]]
        return "\n".join(masked).encode()
    if name == "summary.json":
        text = re.sub(r'"mean_wall_time_s": [0-9.e+-]+', '"mean_wall_time_s": "X"', text)
        return text.encode()
    return data


def test_full_run_determinism(tmp_path):
    """Two consecutive runs of every command emit byte-identical outputs."""
    project = random_micro_project(4321)
    manifest = project.write_files(tmp_path / "proj")

    outputs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        assert cli.main(["score", str(manifest), "--horizon", "16",
                         "--as-of", str(project.as_of), "--output", str(out / "score")]) == 0
        assert cli.main(["minimize", str(manifest), "--as-of", str(project.as_of),
                         "--output", str(out / "minimize")]) == 0
        assert cli.main(["evaluate", str(manifest), "--output", str(out / "evaluate")]) == 0
        assert cli.main(["sweep", str(manifest), "--horizons", "1,32,static",
                         "--output", str(out / "sweep")]) == 0
        assert cli.main(["compare", str(out / "evaluate" / "outcomes.csv"),
                         str(out / "evaluate" / "outcomes.csv"),
                         "--output", str(out / "compare")]) == 0
        blobs = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                rel = str(path.relative_to(out))
                blobs[rel] = _mask_timing(path.name, path.read_bytes())
        outputs.append(blobs)

    assert outputs[0].keys() == outputs[1].keys()
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], f"output {rel} differs between runs"


@pytest.mark.xfail(strict=False, reason="informational reproduction check, not gating")
def test_reference_project_reproduction():
    """Optional: mean accuracy on externally prepared real-project inputs.

    Provide RISKMIN_REFERENCE_MANIFEST (a manifest with labels for one
    prepared project) and RISKMIN_REFERENCE_ACCURACY (the expected mean
    accuracy at extent/32-day/gmean/50%). Differences in modified-line
    extraction and call-graph tooling make this a vicinity check only.
    """
    manifest_path = os.environ.get("RISKMIN_REFERENCE_MANIFEST")
    expected = os.environ.get("RISKMIN_REFERENCE_ACCURACY")
    if not manifest_path or not expected:
        pytest.skip("no externally prepared reference inputs supplied")
    manifest = cli.load_manifest(manifest_path)
    inputs = cli.load_project_inputs(manifest)
    labels = cli.load_labels(manifest.labels_path, manifest.project_id)
    accuracies = []
    for label in labels:
        result = minimize_suite(
            inputs.histories, inputs.dep_map,
            metric="extent", half_life_days=32.0, operator="gmean",
            budget=0.5, as_of=label.as_of,
        )
        accuracies.append(accuracy(set(result.selected), label))
    mean_accuracy = sum(accuracies) / len(accuracies)
    assert mean_accuracy == pytest.approx(float(expected), abs=0.15)
