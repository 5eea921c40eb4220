import argparse
import errno
import gc
import hashlib
import io
import json
import logging
import math
import os
import signal
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path
from unittest import mock

import pytest

from riskmin import cli, evaluation, stats
from riskmin.dependency_graph import MethodRef
from riskmin.errors import ParseError

from microproject import random_micro_project
from oracles import exact_risk_table

DAY = 86_400
REF = 1_700_000_000


@pytest.fixture
def one_cpu(monkeypatch):
    """This process may run on one CPU, so every command runs in it alone: the serial path."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _write_project(directory, *, callgraph_format="csv", change_log_format="jsonl",
                   labels=True, versions=None, project_id="demo"):
    """Four tests over three classes; static-frequency scores t1=10, t2=7, t3=4, t4=1."""
    directory.mkdir(parents=True, exist_ok=True)
    events = []
    for class_id, count in (("A", 10), ("B", 4), ("C", 1)):
        for i in range(count):
            events.append(
                {
                    "path": f"src/app/{class_id}.java",
                    "ts": REF - i * DAY,
                    "add": 2,
                    "del": 1,
                    "mod": 0,
                    "commit": f"{class_id}{i}",
                }
            )
    if change_log_format == "jsonl":
        (directory / "changes.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
        )
        change_log_name = "changes.jsonl"
    else:
        lines = []
        for e in events:
            lines.append(f"COMMIT {e['commit']} {e['ts']}\n")
            lines.append(f"{e['add']}\t{e['del']}\t{e['path']}\n")
        (directory / "changes.numstat").write_text("".join(lines), encoding="utf-8")
        change_log_name = "changes.numstat"

    edges = [
        ("app.T1Test#t1", "app.A#m"),
        ("app.T2Test#t2", "app.A#m"),
        ("app.T2Test#t2", "app.B#m"),
        ("app.T3Test#t3", "app.B#m"),
        ("app.T4Test#t4", "app.C#m"),
    ]
    if callgraph_format == "csv":
        (directory / "callgraph.csv").write_text(
            "".join(f"{a},{b}\n" for a, b in edges), encoding="utf-8"
        )
        callgraph_name = "callgraph.csv"
    else:
        (directory / "callgraph.txt").write_text(
            "".join(
                "M:{} (M){}\n".format(a.replace("#", ":"), b.replace("#", ":"))
                for a, b in edges
            ),
            encoding="utf-8",
        )
        callgraph_name = "callgraph.txt"

    manifest = {
        "project_id": project_id,
        "change_log_path": change_log_name,
        "change_log_format": change_log_format,
        "callgraph_path": callgraph_name,
        "callgraph_format": callgraph_format,
        "entry_selector": {"pattern": {"class_suffix": "Test", "method_prefix": "t"}},
        "source_roots": ["src"],
    }
    if labels:
        if versions is None:
            versions = [
                {"version_id": "v1", "as_of": REF, "fault_revealing_tests": ["app.T2Test#t2"]},
                {"version_id": "v2", "as_of": REF, "fault_revealing_tests": ["app.T4Test#t4"]},
            ]
        (directory / "labels.json").write_text(json.dumps(versions), encoding="utf-8")
        manifest["labels_path"] = "labels.json"
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path


class TestScoreCommand:
    def test_static_frequency_risks_are_event_counts(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        code = cli.main(
            ["score", str(manifest), "--metric", "frequency", "--horizon", "static",
             "--as-of", str(REF)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "class_id,risk", "app.A,10.0", "app.B,4.0", "app.C,1.0",
        ]

    def test_decayed_risk_table_matches_the_exact_oracle(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        code = cli.main(
            ["score", str(manifest), "--metric", "extent", "--horizon", "32",
             "--as-of", str(REF)]
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
        )
        inputs = cli.load_project_inputs(cli.load_manifest(manifest))
        for class_id, risk in exact_risk_table(inputs.histories, "extent", 32.0, REF).items():
            assert rows[class_id] == str(risk)

    @pytest.mark.parametrize("risk", [math.nan, math.inf, -1.0])
    def test_every_score_checks_its_risks(self, tmp_path, monkeypatch, risk):
        manifest = _write_project(tmp_path)
        monkeypatch.setattr(cli, "risk_folder", lambda _, metrics, *rest: lambda as_of: [{metrics[0]: {"app.A": risk}}])
        with pytest.raises(AssertionError, match="app.A"):
            cli.main(["score", str(manifest), "--as-of", str(REF)])

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = cli.main(["score", str(tmp_path / "nope.json"), "--as-of", "1"])
        assert code == 2
        assert "missing input" in capsys.readouterr().err

    def test_missing_change_log_exits_2(self, tmp_path):
        manifest = _write_project(tmp_path)
        (tmp_path / "changes.jsonl").unlink()
        assert cli.main(["score", str(manifest), "--as-of", "1"]) == 2

    def test_malformed_change_log_exits_3_with_line(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        (tmp_path / "changes.jsonl").write_text("{broken\n", encoding="utf-8")
        assert cli.main(["score", str(manifest), "--as-of", "1"]) == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["changes.jsonl", "callgraph.csv"])
    def test_input_that_is_not_utf8_exits_3(self, tmp_path, capsys, name):
        manifest = _write_project(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        assert cli.main(["score", str(manifest), "--as-of", "1"]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_output_directory_file(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["score", str(manifest), "--horizon", "static", "--as-of", str(REF),
             "--output", str(out)]
        )
        assert code == 0
        assert (out / "risks.csv").read_text().startswith("class_id,risk\n")

    def test_numstat_change_log(self, tmp_path, capsys):
        manifest = _write_project(tmp_path, change_log_format="numstat")
        code = cli.main(
            ["score", str(manifest), "--metric", "frequency", "--horizon", "static",
             "--as-of", str(REF)]
        )
        assert code == 0
        assert "app.A,10.0" in capsys.readouterr().out

    def test_callgraph_text_format(self, tmp_path):
        manifest = _write_project(tmp_path, callgraph_format="callgraph-text")
        out = tmp_path / "out"
        code = cli.main(
            ["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]
        )
        assert code == 0
        assert len((out / "selected.txt").read_text().splitlines()) == 2


class TestMinimizeCommand:
    def test_half_budget_keeps_two_of_four(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["minimize", str(manifest), "--metric", "frequency", "--horizon", "static",
             "--aggregate", "avg", "--budget", "0.5", "--as-of", str(REF),
             "--output", str(out)]
        )
        assert code == 0
        assert (out / "selected.txt").read_text().splitlines() == [
            "app.T1Test#t1", "app.T2Test#t2",
        ]
        result = json.loads((out / "result.json").read_text())
        assert result["excluded"] == ["app.T3Test#t3", "app.T4Test#t4"]
        assert "metric=frequency" in result["config_fingerprint"]

    @pytest.mark.parametrize(
        "class_prefix, entries",
        [("", ["app.T1Test#t1", "app.T2Test#t2", "app.T3Test#t3", "app.T4Test#t4"]),
         ("app.T2", ["app.T2Test#t2"])],
    )
    def test_a_class_prefix_narrows_the_entries(self, tmp_path, class_prefix, entries):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw["entry_selector"]["pattern"]["class_prefix"] = class_prefix
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert sorted(result["selected"] + result["excluded"]) == entries

    def test_repeated_invocations_are_byte_identical(self, tmp_path):
        manifest = _write_project(tmp_path)
        outputs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert cli.main(
                ["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]
            ) == 0
            outputs.append(
                ((out / "selected.txt").read_bytes(), (out / "result.json").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_budget_zero_is_a_usage_error(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        code = cli.main(
            ["minimize", str(manifest), "--budget", "0.0", "--as-of", str(REF)]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("output_dir", ["elsewhere", 7], ids=["string", "number"])
    def test_an_output_dir_key_is_ignored_like_any_unknown_key(self, tmp_path, monkeypatch, output_dir):
        manifest = _write_project(tmp_path / "project")
        raw = json.loads(manifest.read_text())
        raw["output_dir"] = output_dir
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["project", "result.json", "selected.txt"]

    def test_an_infinite_half_life_selects_as_static_mode_and_is_labelled_inf(self, tmp_path):
        manifest = _write_project(tmp_path)
        results = {}
        for horizon in ("static", "inf"):
            out = tmp_path / horizon
            assert cli.main(["minimize", str(manifest), "--metric", "extent", "--horizon", horizon,
                             "--budget", "0.5", "--as-of", str(REF), "--output", str(out)]) == 0
            results[horizon] = json.loads((out / "result.json").read_text())
        assert "horizon=inf;" in results["inf"].pop("config_fingerprint")
        assert "horizon=static;" in results["static"].pop("config_fingerprint")
        assert results["inf"] == results["static"]

    def test_a_call_graph_csv_with_a_bom_exits_3_and_writes_nothing(self, tmp_path, capsys):
        manifest = _write_project(tmp_path / "p")
        graph = tmp_path / "p" / "callgraph.csv"
        graph.write_text("\ufeff" + graph.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{graph}: malformed call-graph line at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)" in err
        assert not out.exists()

    def test_a_call_graph_token_with_a_bom_exits_3_and_writes_nothing(self, tmp_path, capsys):
        manifest = _write_project(tmp_path / "p", callgraph_format="callgraph-text")
        graph = tmp_path / "p" / "callgraph.txt"
        lines = graph.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace("(M)", "(M)\ufeff")
        graph.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{graph}: malformed call-graph line at line 3: Unexpected UTF-8 BOM (decode using utf-8-sig)" in err
        assert not out.exists()

    def test_every_minimize_checks_its_result_invariants(self, tmp_path, monkeypatch):
        checked = []
        original = cli.check_result_invariants

        def counting_check(result, budget):
            checked.append(result)
            original(result, budget)

        monkeypatch.setattr(cli, "check_result_invariants", counting_check)
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]
        ) == 0
        assert len(checked) == 1
        assert "".join(t + "\n" for t in checked[0].selected) == (out / "selected.txt").read_text()


def _assert_jobs_agree_with_serial(tmp_path, command, output_name):
    """Outputs of ``--jobs 1`` and ``--jobs 3`` agree except for the timing column."""
    manifest = _write_project(tmp_path)
    texts = []
    for name, jobs in (("s", "1"), ("p", "3")):
        out = tmp_path / name
        assert cli.main(
            [command, str(manifest), "--jobs", jobs, "--output", str(out)]
        ) == 0
        rows = [
            line.rsplit(",", 1)[0]
            for line in (out / output_name).read_text().splitlines()
        ]
        texts.append(rows)
    assert texts[0] == texts[1]


def _assert_jobs_2_forks_and_reaps(tmp_path, monkeypatch, command):
    """``--jobs 2`` on two CPUs forks two children per project, one for the ingest and one for the grid's share,
    and every child is reaped when the command ends."""
    fork = mock.Mock(wraps=os.fork)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.main([command, str(_write_project(tmp_path)), "--jobs", "2", "--output", str(tmp_path / "out")]) == 0
    assert fork.call_count == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(("command", "options"), [
    pytest.param("sweep", ["--jobs", "1"], id="1"),
    pytest.param("sweep", ["--jobs", "2"], id="2"),
    pytest.param("minimize", ["--as-of", str(REF)], id="minimize"),
])
def test_a_sweep_loads_no_process_pool(tmp_path, command, options):
    """``--jobs`` forks by hand: neither ``multiprocessing`` nor ``pickle`` is loaded; and temporary names come
    from ``os.urandom``, so neither is ``secrets``, ``hmac`` or ``hashlib``. A sweep runs with either ``--jobs``;
    ``minimize`` is the per-commit command. A name the interpreter loads at start-up is not counted."""
    script = (
        "import os, sys\n"
        "names = ('multiprocessing', 'pickle', 'secrets', 'hmac', 'hashlib')\n"
        "at_start = {m for m in names if m in sys.modules}\n"
        "from riskmin import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert cli.main([{command!r}, sys.argv[1], *{options!r}, '--output', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in names if m in sys.modules and m not in at_start))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, str(_write_project(tmp_path)), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


class TestEvaluateCommand:
    def test_outcome_rows_match_pipeline(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["evaluate", str(manifest), "--metric", "frequency", "--horizon", "static",
             "--aggregate", "avg", "--budget", "0.5", "--output", str(out)]
        )
        assert code == 0
        lines = (out / "outcomes.csv").read_text().splitlines()
        assert lines[0] == "version_id,accuracy,detected,wall_time_s"
        records = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # 50% keeps {t1, t2}: v1's fault test t2 is kept, v2's t4 is not
        assert records["v1"][1:3] == ["1.0", "true"]
        assert records["v2"][1:3] == ["0.0", "false"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_versions"] == 2
        assert summary["fdr"] == 0.5
        assert summary["mean_accuracy"] == 0.5

    def test_mean_accuracy_is_a_sequential_sum_in_label_order(self, tmp_path):
        # At budget 1.0 every entry is kept, so k entries among ten fault tests give k / 10.
        ghosts = [f"app.GhostTest#g{i}" for i in range(9)]
        entries = ["app.T1Test#t1", "app.T2Test#t2", "app.T3Test#t3"]
        versions = [
            {"version_id": f"v{k}", "as_of": REF, "fault_revealing_tests": entries[:k] + ghosts[: 10 - k]}
            for k in (1, 2, 3)
        ]
        manifest = _write_project(tmp_path, versions=versions)
        out = tmp_path / "out"
        assert cli.main(["evaluate", str(manifest), "--budget", "1.0", "--output", str(out)]) == 0
        accuracies = [float(line.split(",")[1]) for line in (out / "outcomes.csv").read_text().splitlines()[1:]]
        assert accuracies == [0.1, 0.2, 0.3]
        total = 0.0
        for accuracy in accuracies:
            total += accuracy
        summary = json.loads((out / "summary.json").read_text())
        # math.fsum would give 0.6 / 3 = 0.19999999999999998
        assert summary["mean_accuracy"] == total / 3 == 0.20000000000000004
        assert summary["per_project"]["demo"]["mean_accuracy"] == 0.20000000000000004
        assert summary["project_stats"]["accuracy"]["mean"] == 0.20000000000000004

    def test_full_budget_detects_everything(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["evaluate", str(manifest), "--budget", "1.0", "--output", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fdr"] == 1.0

    def test_missing_labels_path_exits_4(self, tmp_path):
        manifest = _write_project(tmp_path, labels=False)
        assert cli.main(["evaluate", str(manifest)]) == 4

    def test_missing_labels_file_exits_4(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        (tmp_path / "labels.json").unlink()
        assert cli.main(["evaluate", str(manifest)]) == 4
        assert "label" in capsys.readouterr().err.lower()

    def test_empty_fault_set_exits_4(self, tmp_path, capsys):
        versions = [{"version_id": "v1", "as_of": REF, "fault_revealing_tests": []}]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main(["evaluate", str(manifest)]) == 4
        assert f"{tmp_path / 'labels.json'}: version 'v1' has no fault-revealing tests" in capsys.readouterr().err

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        _assert_jobs_agree_with_serial(tmp_path, "evaluate", "outcomes.csv")

    def test_jobs_2_forks_and_leaves_no_child_process(self, tmp_path, monkeypatch):
        _assert_jobs_2_forks_and_reaps(tmp_path, monkeypatch, "evaluate")

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "1.5"])
    def test_jobs_below_one_or_not_an_integer_exits_1(self, tmp_path, capsys, command, jobs):
        manifest = _write_project(tmp_path)
        assert cli.main([command, str(manifest), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_label_record_that_is_not_an_object_exits_4(self, tmp_path, capsys):
        manifest = _write_project(tmp_path, versions=[5])
        assert cli.main(["evaluate", str(manifest)]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "record 1" in err

    @pytest.mark.parametrize("fault_tests", ["app.T2Test#t2", ["app.T2Test#t2", 7], None])
    def test_fault_tests_not_a_list_of_strings_exits_4(self, tmp_path, capsys, fault_tests):
        versions = [{"version_id": "v9", "as_of": REF, "fault_revealing_tests": fault_tests}]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main(["evaluate", str(manifest), "--budget", "1.0"]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "v9" in err

    @pytest.mark.parametrize("as_of", ["soon", 1700000000.9, True, None])
    def test_as_of_that_is_not_an_integer_exits_4(self, tmp_path, capsys, as_of):
        versions = [{"version_id": "v9", "as_of": as_of, "fault_revealing_tests": ["app.T2Test#t2"]}]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "v9" in err and "as_of" in err

    @pytest.mark.parametrize("version_id", ["null", "true", '["x"]', "1e400", "7"])
    def test_version_id_that_is_not_a_string_exits_4_naming_the_file_and_record(self, tmp_path, capsys, version_id):
        manifest = _write_project(tmp_path)
        good = '{"version_id": "v1", "as_of": %d, "fault_revealing_tests": ["app.T2Test#t2"]}' % REF
        bad = '{"version_id": %s, "as_of": %d, "fault_revealing_tests": ["app.T4Test#t4"]}' % (version_id, REF)
        (tmp_path / "labels.json").write_text(f"[{good}, {bad}]", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["evaluate", str(manifest), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "record 2" in err and "version_id" in err
        assert not out.exists()

    def test_version_id_repeated_in_a_labels_file_exits_4(self, tmp_path, capsys):
        label = {"version_id": "v7", "as_of": REF, "fault_revealing_tests": ["app.T2Test#t2"]}
        manifest = _write_project(tmp_path, versions=[label, dict(label, as_of=REF - DAY)])
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "v7" in err

    # Each fault of a labels file, and the start of its message.
    LABEL_FAULTS = {
        "malformed-json": ("[{", "malformed label JSON"),
        "unreadable-json": ("[" * 100_000, "unreadable label JSON"),
        "record-not-an-object": ("[5]", "label record 1 is not a JSON object"),
        "missing-key": ('[{"version_id": "w1", "as_of": 1}]', "label record 1 missing required key"),
        "version-id-not-a-string": (
            '[{"version_id": 7, "as_of": 1, "fault_revealing_tests": ["app.T1Test#t1"]}]',
            "label record 1: version_id must be a string",
        ),
        "fault-tests-not-a-list": (
            '{"version_id": "w1", "as_of": 1, "fault_revealing_tests": "app.T1Test#t1"}',
            "version 'w1': fault_revealing_tests must be a list",
        ),
        "no-fault-tests": (
            '{"version_id": "w1", "as_of": 1, "fault_revealing_tests": []}',
            "version 'w1' has no fault-revealing tests",
        ),
        "as-of-not-an-integer": (
            '{"version_id": "w1", "as_of": "soon", "fault_revealing_tests": ["app.T1Test#t1"]}',
            "version 'w1': as_of must be an integer",
        ),
        "as-of-past-the-bound": (
            '{"version_id": "w1", "as_of": %d, "fault_revealing_tests": ["app.T1Test#t1"]}' % 10**400,
            "version 'w1': as_of exceeds",
        ),
        "version-id-repeated": (
            '[{"version_id": "w1", "as_of": 1, "fault_revealing_tests": ["app.T1Test#t1"]},'
            ' {"version_id": "w1", "as_of": 2, "fault_revealing_tests": ["app.T1Test#t1"]}]',
            "version 'w1' is labelled more than once",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(LABEL_FAULTS))
    def test_every_label_fault_names_the_labels_file_in_a_pooled_run(self, tmp_path, capsys, fault):
        first = _write_project(tmp_path / "p1", project_id="one")
        second = _write_project(tmp_path / "p2", project_id="two")
        text, message = self.LABEL_FAULTS[fault]
        (tmp_path / "p2" / "labels.json").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["evaluate", str(first), str(second), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"riskmin: error: {tmp_path / 'p2' / 'labels.json'}: {message}" in err
        assert str(tmp_path / "p1") not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_version_id_repeated_across_pooled_manifests_exits_4(self, tmp_path, capsys, command):
        first = _write_project(tmp_path / "p1", project_id="one")
        second = _write_project(tmp_path / "p2", project_id="two")
        out = tmp_path / "out"
        assert cli.main([command, str(first), str(second), "--output", str(out)]) == 4
        assert "'v1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_fault_tests_that_are_not_entry_points_are_counted_in_one_warning(
        self, tmp_path, caplog, command
    ):
        versions = [
            {"version_id": "v1", "as_of": REF, "fault_revealing_tests": ["app.GoneTest#t", "app.T2Test#t2"]},
            {"version_id": "v2", "as_of": REF, "fault_revealing_tests": ["app.GoneTest#t", "app.T9Test#t9"]},
        ]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main([command, str(manifest), "--output", str(tmp_path / "out")]) == 0
        warnings = [r.getMessage() for r in caplog.records if "entry point" in r.getMessage()]
        assert warnings == [
            "project 'demo': 2 fault-revealing test id(s) are not entry points and always count as missed"
        ]

    def test_project_with_no_labelled_versions_is_left_out_of_the_pool(self, tmp_path):
        first = _write_project(tmp_path / "p1", project_id="one")
        second = _write_project(tmp_path / "p2", project_id="two", versions=[])
        out = tmp_path / "out"
        assert cli.main(
            ["evaluate", str(first), str(second), "--output", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_versions"] == 2
        assert sorted(summary["per_project"]) == ["one"]

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_a_pool_without_labelled_versions_exits_4(self, tmp_path, capsys, command):
        first = _write_project(tmp_path / "p1", project_id="one", versions=[])
        second = _write_project(tmp_path / "p2", project_id="two", versions=[])
        out = tmp_path / "out"
        assert cli.main([command, str(first), str(second), "--output", str(out)]) == 4
        assert capsys.readouterr().err == f"riskmin: error: no labeled versions to {command}\n"
        assert not out.exists()

    def test_multiple_manifests_are_concatenated(self, tmp_path):
        first = _write_project(tmp_path / "p1")
        versions = [
            {"version_id": "w1", "as_of": REF, "fault_revealing_tests": ["app.T1Test#t1"]},
            {"version_id": "w2", "as_of": REF, "fault_revealing_tests": ["app.T3Test#t3"]},
        ]
        second = _write_project(tmp_path / "p2", versions=versions)
        out = tmp_path / "out"
        assert cli.main(
            ["evaluate", str(first), str(second), "--output", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_versions"] == 4

    def test_a_pool_over_manifests_a_b_a_keeps_pool_order_and_groups_by_project(self, tmp_path):
        """A project's two manifests form one group, and the fingerprint carries the first label's instant."""
        a, b, a_again = _pooled_manifests(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["evaluate", str(a), str(b), str(a_again), "--metric", "frequency", "--horizon", "static",
             "--aggregate", "avg", "--budget", "0.5", "--output", str(out)]
        ) == 0
        rows = [line.rsplit(",", 1)[0] for line in (out / "outcomes.csv").read_text().splitlines()]
        assert rows == [
            "version_id,accuracy,detected",
            "a1,1.0,true", "a2,0.0,false", "b1,0.5,true", "b2,0.0,false", "a3,1.0,true",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary.pop("mean_wall_time_s") > 0
        assert summary == {
            "accuracy_stats": {"max": 1.0, "mean": 0.5, "median": 0.5, "min": 0.0, "q1": 0.0, "q3": 1.0},
            "config_fingerprint": f"metric=frequency;horizon=static;aggregate=avg;budget=0.5;as_of={REF + DAY}",
            "fdr": 0.6,
            "mean_accuracy": 0.5,
            "n_versions": 5,
            "per_project": {
                "alpha": {"fdr": 0.6666666666666666, "mean_accuracy": 0.6666666666666666, "n_versions": 3},
                "beta": {"fdr": 0.5, "mean_accuracy": 0.25, "n_versions": 2},
            },
            "project_stats": {
                "accuracy": {"max": 0.6666666666666666, "mean": 0.4583333333333333, "median": 0.4583333333333333,
                             "min": 0.25, "q1": 0.35416666666666663, "q3": 0.5625},
                "fdr": {"max": 0.6666666666666666, "mean": 0.5833333333333333, "median": 0.5833333333333333,
                        "min": 0.5, "q1": 0.5416666666666666, "q3": 0.625},
            },
        }


def _pooled_manifests(directory):
    """Manifests of projects ``alpha``, ``beta`` and ``alpha`` again, with distinct version ids.

    At 50% under static frequency, t1 and t2 are kept: a1, b1 and a3 are
    detected (b1 keeps one of its two fault tests), a2 and b2 are not. Only
    a1 is labelled a day after the last event.
    """
    def version(version_id, faults, as_of=REF):
        return {"version_id": version_id, "as_of": as_of, "fault_revealing_tests": faults}

    return (
        _write_project(directory / "a", project_id="alpha", versions=[
            version("a1", ["app.T2Test#t2"], REF + DAY), version("a2", ["app.T4Test#t4"]),
        ]),
        _write_project(directory / "b", project_id="beta", versions=[
            version("b1", ["app.T1Test#t1", "app.T3Test#t3"]), version("b2", ["app.T3Test#t3"]),
        ]),
        _write_project(directory / "a_again", project_id="alpha", versions=[version("a3", ["app.T1Test#t1"])]),
    )


class TestSweepCommand:
    def test_row_count_is_grid_times_budgets(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        code = cli.main(
            ["sweep", str(manifest), "--metrics", "frequency,extent",
             "--horizons", "1,32,static", "--operators", "avg,gmean",
             "--budgets", "0.25,0.5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "metric,horizon_days,operator,budget,mean_accuracy,fdr,"
            "min_acc,q1_acc,median_acc,q3_acc,max_acc,mean_time_s"
        )
        assert len(lines) - 1 == 2 * 3 * 2 * 2
        assert any(",static," in line for line in lines[1:])

    def test_default_grid_emits_240_rows(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(manifest), "--output", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) - 1 == 80 * 3

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        _assert_jobs_agree_with_serial(tmp_path, "sweep", "sweep.csv")

    def test_jobs_2_forks_and_leaves_no_child_process(self, tmp_path, monkeypatch):
        _assert_jobs_2_forks_and_reaps(tmp_path, monkeypatch, "sweep")

    def test_a_pool_of_two_manifests_gives_the_same_rows_under_jobs_1_and_jobs_2(self, tmp_path, monkeypatch):
        a, b, _ = _pooled_manifests(tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        rows, forks = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            fork.reset_mock()
            assert cli.main(["sweep", str(a), str(b), "--jobs", jobs, "--output", str(out)]) == 0
            rows.append([line.rsplit(",", 1)[0] for line in (out / "sweep.csv").read_text().splitlines()])
            forks.append(fork.call_count)
        # One ingest child per project under any --jobs, and one grid share's child per project under --jobs 2.
        assert forks == [2, 4]
        serial, forked = rows
        assert len(serial) == 1 + 80 * 3
        assert forked == serial

    def test_jobs_2_on_one_allowed_cpu_forks_nothing_and_gives_the_rows_of_jobs_1(self, tmp_path, monkeypatch):
        manifest = _write_project(tmp_path)
        assert cli.main(["sweep", str(manifest), "--jobs", "1", "--output", str(tmp_path / "s")]) == 0
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the machine has two CPUs; this process may use one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main(["sweep", str(manifest), "--jobs", "2", "--output", str(tmp_path / "p")]) == 0
        assert fork.call_count == 0
        serial, capped = (
            [line.rsplit(",", 1)[0] for line in (tmp_path / name / "sweep.csv").read_text().splitlines()]
            for name in ("s", "p")
        )
        assert len(serial) == 1 + 80 * 3
        assert capped == serial

    def test_dependency_map_is_built_once_per_project(self, tmp_path, monkeypatch, one_cpu):
        calls = []  # counted in this process, so the ingest runs here
        build = cli.build_dependency_map

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_dependency_map", counting_build)
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["sweep", str(manifest), "--horizons", "1,static", "--output", str(out)]
        ) == 0
        assert len(calls) == 1


def _write_outcomes(path, rows):
    text = "version_id,accuracy,detected,wall_time_s\n"
    for version_id, acc in rows:
        detected = "true" if acc > 0 else "false"
        text += f"{version_id},{acc},{detected},0.01\n"
    path.write_text(text, encoding="utf-8")


class TestCompareCommand:
    def test_identical_files_degenerate_wilcoxon(self, tmp_path, capsys):
        rows = [("v1", 0.5), ("v2", 1.0), ("v3", 0.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, rows)
        _write_outcomes(b, rows)
        assert cli.main(["compare", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["wilcoxon"]["status"].startswith("degenerate sample")
        assert report["cliffs_delta"] == 0.0
        assert report["fisher"]["p_two_sided"] == 1.0

    def test_known_values_match_stats_module(self, tmp_path, capsys):
        acc_a = [1.0, 0.5, 0.25, 0.0, 0.75, 1.0]
        acc_b = [0.5, 0.5, 0.0, 0.0, 0.25, 0.5]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [(f"v{i}", acc) for i, acc in enumerate(acc_a)])
        _write_outcomes(b, [(f"v{i}", acc) for i, acc in enumerate(acc_b)])
        assert cli.main(["compare", str(a), str(b), "--bonferroni-m", "2"]) == 0
        report = json.loads(capsys.readouterr().out)

        expected_w = stats.wilcoxon_signed_rank(list(zip(acc_a, acc_b)))
        assert report["wilcoxon"]["p_two_sided"] == expected_w.p_two_sided
        assert report["wilcoxon"]["statistic"] == expected_w.statistic
        det_a, det_b = [a_ > 0 for a_ in acc_a], [b_ > 0 for b_ in acc_b]
        expected_f = stats.fisher_exact_2x2(
            (sum(det_a), len(det_a) - sum(det_a), sum(det_b), len(det_b) - sum(det_b))
        )
        assert report["fisher"]["p_two_sided"] == expected_f.p_two_sided
        assert report["cliffs_delta"] == stats.cliffs_delta(acc_a, acc_b)
        assert report["bonferroni"]["m"] == 2
        assert report["bonferroni"]["wilcoxon_p_adjusted"] == min(
            1.0, 2 * expected_w.p_two_sided
        )

    @pytest.mark.parametrize(
        "m",
        ["1" + "0" * 400, str(2**63), "0", "-3", "2.5", "two", "9" * 5000],
        ids=["10**400", "2**63", "0", "-3", "2.5", "two", "5000 digits"],
    )
    def test_comparison_count_outside_1_to_the_integer_bound_is_a_usage_error(self, tmp_path, capsys, m):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        _write_outcomes(b, [("v1", 0.25), ("v2", 0.0)])
        assert cli.main(["compare", str(a), str(b), "--bonferroni-m", m]) == 1
        err = capsys.readouterr().err
        assert "argument --bonferroni-m" in err and "Traceback" not in err

    def test_largest_comparison_count_is_accepted(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        _write_outcomes(b, [("v1", 0.25), ("v2", 0.0)])
        assert cli.main(["compare", str(a), str(b), "--bonferroni-m", str(2**63 - 1)]) == 0
        adjusted = json.loads(capsys.readouterr().out)["bonferroni"]
        assert adjusted["m"] == 2**63 - 1
        assert adjusted["wilcoxon_p_adjusted"] == adjusted["fisher_p_adjusted"] == 1.0

    def test_misaligned_versions_exit_5_listing_ids(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        _write_outcomes(b, [("v1", 0.5), ("v3", 1.0)])
        assert cli.main(["compare", str(a), str(b)]) == 5
        err = capsys.readouterr().err
        assert "v2" in err and "v3" in err

    def test_repeated_version_id_exits_3_with_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0), ("v1", 0.0)])
        _write_outcomes(b, [("v1", 0.5), ("v2", 1.0)])
        assert cli.main(["compare", str(a), str(b)]) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and "'v1'" in err and "line 4" in err

    def test_missing_outcome_file_exits_2(self, tmp_path):
        a = tmp_path / "a.csv"
        _write_outcomes(a, [("v1", 0.5)])
        assert cli.main(["compare", str(a), str(tmp_path / "nope.csv")]) == 2

    def test_infinite_odds_ratio_serialized_as_string(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 1.0), ("v2", 0.5), ("v3", 0.25)])
        _write_outcomes(b, [("v1", 0.0), ("v2", 0.0), ("v3", 0.125)])
        assert cli.main(["compare", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fisher"]["odds_ratio"] == "inf"


def _compare_with_bad_line(tmp_path, line):
    """``compare`` of a file whose fourth line is ``line`` (bytes) against a valid one."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_outcomes(b, [("v1", 0.5), ("v2", 1.0), ("v3", 0.0)])
    _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
    a.write_bytes(a.read_bytes() + line + b"\n")
    return cli.main(["compare", str(a), str(b)])


class TestOutcomesFileErrors:
    """Every malformed outcomes file exits 3 naming the file and the line."""

    @pytest.mark.parametrize(
        "line",
        [
            b"v3,0.0,false," + b"1" * 200_000,
            b"v3,0.0,false,0.01\xff\xfe",
            b"v3,0.0,fal\x00se,0.01",
        ],
        ids=["field-past-the-csv-limit", "invalid-utf8", "nul-byte"],
    )
    def test_unreadable_line_exits_3_naming_file_and_line(self, tmp_path, capsys, line):
        assert _compare_with_bad_line(tmp_path, line) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and "line 4" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "7", "-3", "1.0000001", "-0.5"])
    def test_accuracy_outside_the_unit_interval_exits_3_with_line(self, tmp_path, capsys, value):
        assert _compare_with_bad_line(tmp_path, f"v3,{value},false,0.01".encode()) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and "line 4" in err and "accuracy" in err

    @pytest.mark.parametrize("value", ["yes", "", "2", "t", "truth"])
    def test_unknown_detected_value_exits_3_with_line(self, tmp_path, capsys, value):
        assert _compare_with_bad_line(tmp_path, f"v3,0.0,{value},0.01".encode()) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and "line 4" in err and "detected" in err

    @pytest.mark.parametrize(
        "content",
        ["version_id,accuracy,detected,wall_time_s\n", 'version_id,accuracy,detected,"\nv1,0.0,true,0.01\n'],
        ids=["header-only", "unterminated-quote-swallows-the-rows"],
    )
    def test_file_without_outcome_rows_exits_3_naming_it(self, tmp_path, capsys, content):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(content, encoding="utf-8")
        b.write_text(content, encoding="utf-8")
        assert cli.main(["compare", str(a), str(b)]) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and "no outcome rows" in err

    def test_a_leading_blank_line_is_read_as_the_header(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        _write_outcomes(b, [("v1", 0.5), ("v2", 1.0)])
        a.write_text("\n" + a.read_text(encoding="utf-8"), encoding="utf-8")
        assert cli.main(["compare", str(a), str(b)]) == 3
        assert capsys.readouterr().err == f"riskmin: error: {a}: expected columns version_id,accuracy,detected\n"

    def test_detected_values_are_case_folded_and_stripped(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(
            "version_id,accuracy,detected,wall_time_s\n"
            "v1,1,  TRUE ,0.1\nv2,0.5,1,0.1\nv3,0,False,0.1\nv4,0.0, 0,0.1\n",
            encoding="utf-8",
        )
        _write_outcomes(b, [("v1", 0.0), ("v2", 0.0), ("v3", 0.0), ("v4", 0.0)])
        assert cli.main(["compare", str(a), str(b)]) == 0
        table = json.loads(capsys.readouterr().out)["fisher"]["table"]
        assert table == {"a": 2, "b": 2, "c": 0, "d": 4}

    def test_a_blank_line_between_rows_is_skipped(self, tmp_path, capsys):
        a, b, gapped = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "gapped.csv"
        _write_outcomes(a, [("v1", 1.0), ("v2", 0.5), ("v3", 0.0)])
        _write_outcomes(b, [("v1", 0.0), ("v2", 0.25), ("v3", 0.0)])
        header, *rows = a.read_text(encoding="utf-8").splitlines(keepends=True)
        gapped.write_text(header + rows[0] + "\n" + "".join(rows[1:]), encoding="utf-8")
        reports = []
        for first in (a, gapped):
            assert cli.main(["compare", str(first), str(b)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "column, values", [("version_id", ("v3", "v4")), ("accuracy", ("0.9", "0.1")), ("detected", ("false", "true"))]
    )
    def test_a_header_naming_an_outcome_column_twice_exits_3_naming_it(self, tmp_path, capsys, column, values):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(
            f"version_id,accuracy,detected,{column}\nv1,0.5,true,{values[0]}\nv2,0.0,false,{values[1]}\n",
            encoding="utf-8",
        )
        _write_outcomes(b, [("v1", 0.5), ("v2", 0.0)])
        assert cli.main(["compare", str(a), str(b)]) == 3
        err = capsys.readouterr().err
        assert "a.csv" in err and f"repeated column '{column}'" in err and "line 1" in err

    def test_a_header_naming_another_column_twice_reads_as_without_it(self, tmp_path, capsys):
        a, b, doubled = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "doubled.csv"
        _write_outcomes(a, [("v1", 1.0), ("v2", 0.5), ("v3", 0.0)])
        _write_outcomes(b, [("v1", 0.0), ("v2", 0.25), ("v3", 0.0)])
        header, *rows = a.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = "".join(row.replace("\n", ",0.02\n") for row in rows)
        doubled.write_text(header.replace("wall_time_s", "wall_time_s,wall_time_s") + rows, encoding="utf-8")
        reports = []
        for first in (a, doubled):
            assert cli.main(["compare", str(first), str(b)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestUsageErrors:
    def test_no_command_exits_1(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_horizon_exits_1(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        assert cli.main(
            ["score", str(manifest), "--horizon", "-3", "--as-of", "1"]
        ) == 1

    def test_missing_as_of_exits_1(self, tmp_path):
        manifest = _write_project(tmp_path)
        assert cli.main(["score", str(manifest)]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["score", "--as-of", "1"], ["minimize", "--as-of", "1"], ["evaluate"], ["sweep"]],
    )
    def test_format_flag_is_gone(self, tmp_path, capsys, argv):
        manifest = _write_project(tmp_path)
        command, *flags = argv
        out = tmp_path / "out"
        assert cli.main([command, str(manifest), *flags, "--format", "csv", "--output", str(out)]) == 1
        assert "--format" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["score", "minimize", "evaluate", "sweep", "compare"])
    def test_help_is_written_to_stdout(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: riskmin {command} ")
        assert captured.err == ""

    def test_help_given_a_file_is_written_to_that_file(self, capsys):
        buffer = io.StringIO()
        cli.build_parser().print_help(buffer)
        assert buffer.getvalue().startswith("usage: riskmin ")
        assert capsys.readouterr() == ("", "")

    def test_a_list_flag_without_an_entry_exits_1(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        assert cli.main(["sweep", str(manifest), "--budgets", ","]) == 1
        assert "argument --budgets: expected a non-empty comma-separated list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "value", "repeated"),
        [("--metrics", "extent,frequency,extent", "extent"), ("--horizons", "32,static,32.0", "32.0"),
         ("--horizons", "static,static", "static"), ("--operators", "avg,avg", "avg"),
         ("--budgets", "0.5,1,0.50", "0.50")],
    )
    def test_a_repeated_list_value_exits_1_and_writes_nothing(self, tmp_path, capsys, flag, value, repeated):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(manifest), flag, value, "--output", str(out)]) == 1
        assert f"argument {flag}: repeated value {repeated!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_static_and_an_infinite_half_life_are_two_horizons(self, tmp_path):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(manifest), "--horizons", "static,inf", "--output", str(out)]) == 0
        horizons = [line.split(",")[1] for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert sorted(set(horizons)) == ["inf", "static"]


class TestManifestShape:
    @pytest.mark.parametrize("content", ["5", "[]", '"manifest"', "null"])
    def test_manifest_that_is_not_an_object_exits_3(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content, encoding="utf-8")
        assert cli.main(["evaluate", str(manifest)]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "object" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("source_roots", "src"),
            ("extensions", ".java"),
            ("exclude_classes", "app.Helper"),
            ("source_roots", ["src", 3]),
            ("extensions", None),
            ("change_log_path", 5),
            ("labels_path", ["labels.json"]),
            ("entry_selector", 5),
            ("entry_selector", ["app.T1Test#t1"]),
            ("source_roots", []),
            ("project_id", None),
            ("project_id", True),
            ("project_id", ["x"]),
            ("project_id", math.inf),
            ("project_id", 7),
            ("change_log_path", None),
            ("callgraph_path", None),
            ("extensions", [".java", ""]),
            ("change_log_format", "xml"),
            ("callgraph_format", "dot"),
            ("extensions", []),
        ],
    )
    def test_key_of_the_wrong_type_exits_3_naming_it(self, tmp_path, capsys, key, value):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw[key] = value
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["score", str(manifest), "--as-of", str(REF)]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"'{key}'" in err

    @pytest.mark.parametrize(
        "selector, key",
        [
            ({"pattern": "Test"}, "entry_selector.pattern"),
            ({"pattern": {"class_suffix": 5}}, "entry_selector.pattern.class_suffix"),
            ({"pattern": {"method_prefix": None}}, "entry_selector.pattern.method_prefix"),
            ({"explicit": [5]}, "entry_selector.explicit"),
            ({"explicit": "app.T1Test#t1"}, "entry_selector.explicit"),
            ({}, "entry_selector"),
            ({"regex": ".*"}, "entry_selector"),
        ],
    )
    def test_malformed_entry_selector_exits_3_naming_the_key(self, tmp_path, capsys, selector, key):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw["entry_selector"] = selector
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["score", str(manifest), "--as-of", str(REF)]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"'{key}'" in err

    @pytest.mark.parametrize("test_id", ["no-hash", "#m", "A#"])
    def test_malformed_explicit_test_id_exits_3_naming_the_manifest_and_key(self, tmp_path, capsys, test_id):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw["entry_selector"] = {"explicit": ["app.T1Test#t1", test_id]}
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and "'entry_selector.explicit'" in err and repr(test_id) in err
        assert not out.exists()

    def test_explicit_selector_wins_over_a_pattern(self, tmp_path):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw["entry_selector"] = {"explicit": ["app.T1Test#t1"], "pattern": "ignored"}
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        inputs = cli.load_project_inputs(cli.load_manifest(manifest))
        assert [entry.test_id for entry in inputs.entries] == ["app.T1Test#t1"]


def _mask_last_column(text):
    """The acceptance suite's timing mask: every data row's last (time) column becomes X."""
    lines = text.splitlines()
    return "\n".join([lines[0]] + [line.rsplit(",", 1)[0] + ",X" for line in lines[1:]])


def _golden_manifests(tmp_path):
    """Two random micro projects with three labelled versions each, the earlier
    two placed so that some events fall after them."""
    manifests = []
    for seed in (101, 202):
        project = random_micro_project(seed)
        directory = tmp_path / f"p{seed}"
        manifest = project.write_files(directory)
        faults = sorted(project.fault_tests)
        versions = [
            {"version_id": f"p{seed}-v{k}", "as_of": project.as_of - days * DAY,
             "fault_revealing_tests": faults}
            for k, days in enumerate((0, 45, 180))
        ]
        (directory / "labels.json").write_text(json.dumps(versions), encoding="utf-8")
        manifests.append(manifest)
    return manifests


class TestGoldenDigests:
    """SHA-256 of timing-masked outputs, recorded when every grid cell still
    computed its own risk table, scores and ranking.

    A change to any accuracy, detection flag, row order or number format of
    the canonical-grid sweep or of ``evaluate`` changes these digests.
    """

    SWEEP_SHA256 = "e8e7242924ffe7f7723aec46fcfca7af4896936c9b58a3acd16b112dac16b580"
    OUTCOMES_SHA256 = "9c7cd2cb71e5bf85721318ea8c34558532becaf12e81a00f993e2e3bab01143c"

    def test_canonical_sweep_matches_recorded_digest(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", *_golden_manifests(tmp_path), "--output", str(out)]) == 0
        masked = _mask_last_column((out / "sweep.csv").read_text(encoding="utf-8"))
        assert hashlib.sha256(masked.encode()).hexdigest() == self.SWEEP_SHA256

    def test_evaluate_outcomes_match_recorded_digest(self, tmp_path):
        out = tmp_path / "evaluate"
        assert cli.main(["evaluate", *_golden_manifests(tmp_path), "--output", str(out)]) == 0
        masked = _mask_last_column((out / "outcomes.csv").read_text(encoding="utf-8"))
        assert hashlib.sha256(masked.encode()).hexdigest() == self.OUTCOMES_SHA256

    # Recorded when ``minimize`` scored through ``risk_table`` and ``score_test``
    # and ``score`` read ``risk_table``, before both became views of the grid core.
    MINIMIZE_SHA256 = "03d35eff7917d632e0ad64ae12df37893f5cf013572e09f6a7b803987877e850"
    SCORE_SHA256 = "40199a436600cd9e821de1097aab22ac0c6c9c824336274935c9d520da114910"

    # Instants with every event in scope and with some events after them.
    AS_OFS = (REF, REF - 45 * DAY)
    MINIMIZE_FLAGS = (
        (),
        ("--metric", "frequency", "--horizon", "static", "--aggregate", "hmean", "--budget", "0.25"),
        ("--horizon", "2", "--aggregate", "median", "--budget", "0.75"),
        ("--metric", "frequency", "--horizon", "512", "--aggregate", "avg", "--budget", "1"),
    )
    SCORE_FLAGS = ((), ("--metric", "frequency", "--horizon", "static"), ("--horizon", "2"))

    def _digest(self, tmp_path, command, flag_sets, names):
        digest = hashlib.sha256()
        for manifest in _golden_manifests(tmp_path):
            for as_of in self.AS_OFS:
                for k, flags in enumerate(flag_sets):
                    out = tmp_path / f"{command}-{as_of}-{k}"
                    argv = [command, manifest, *flags, "--as-of", str(as_of), "--output", str(out)]
                    assert cli.main(argv) == 0
                    for name in names:
                        digest.update((out / name).read_bytes())
        return digest.hexdigest()

    def test_minimize_outputs_match_recorded_digest(self, tmp_path):
        digest = self._digest(tmp_path, "minimize", self.MINIMIZE_FLAGS, ("selected.txt", "result.json"))
        assert digest == self.MINIMIZE_SHA256

    def test_score_risks_match_recorded_digest(self, tmp_path):
        digest = self._digest(tmp_path, "score", self.SCORE_FLAGS, ("risks.csv",))
        assert digest == self.SCORE_SHA256


BOUND = 2**63 - 1  # the documented largest line count, timestamp or as_of


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("score", "--as-of", "9" * 100),
        ("score", "--as-of", "x" * 100),
        ("score", "--horizon", "x" * 100),
        ("minimize", "--budget", "9" * 100),
        ("minimize", "--budget", "x" * 100),
        ("evaluate", "--jobs", "-" + "1" * 100),
        ("evaluate", "--jobs", "x" * 100),
        ("sweep", "--operators", "y" * 100),
        ("sweep", "--budgets", "0.5," + "9" * 100),
        ("compare", "--bonferroni-m", "9" * 100),
    ],
    ids=["as-of-range", "as-of-word", "horizon", "budget-range", "budget-word", "jobs-range", "jobs-word",
         "operators", "budgets", "bonferroni-m"],
)
def test_a_rejected_flag_value_is_echoed_to_at_most_40_characters(capsys, command, flag, value):
    positionals = ["a.csv", "b.csv"] if command == "compare" else ["manifest.json"]
    assert cli.main([command, *positionals, flag, value]) == 1
    err = capsys.readouterr().err
    rejected = value.rpartition(",")[2]
    assert f"argument {flag}" in err and rejected[:40] in err and rejected[:41] not in err


class TestNumericBounds:
    @pytest.mark.parametrize(
        "as_of",
        [str(10**400), str(-(10**400)), str(BOUND + 1), "9" * 5000],
        ids=["10**400", "-10**400", "2**63", "5000-digits"],
    )
    def test_as_of_past_the_bound_exits_1(self, tmp_path, capsys, as_of):
        manifest = _write_project(tmp_path)
        assert cli.main(["score", str(manifest), "--as-of", as_of]) == 1
        assert "--as-of" in capsys.readouterr().err

    def test_as_of_at_the_bound_is_accepted(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        assert cli.main(["score", str(manifest), "--as-of", str(BOUND)]) == 0

    @pytest.mark.parametrize("change_log_format", ["jsonl", "numstat"])
    def test_line_count_past_the_bound_exits_3_with_its_line(self, tmp_path, capsys, change_log_format):
        manifest = _write_project(tmp_path, change_log_format=change_log_format)
        if change_log_format == "jsonl":
            record = {"path": "src/app/A.java", "ts": REF, "add": 10**400, "del": 0, "commit": "big"}
            path, line = tmp_path / "changes.jsonl", json.dumps(record) + "\n"
        else:
            path, line = tmp_path / "changes.numstat", f"{10**400}\t0\tsrc/app/A.java\n"
        path.write_text(path.read_text(encoding="utf-8") + line, encoding="utf-8")
        lineno = path.read_text(encoding="utf-8").count("\n")
        assert cli.main(["score", str(manifest), "--as-of", str(REF)]) == 3
        assert f"line {lineno}" in capsys.readouterr().err

    @pytest.mark.parametrize("as_of", [10**400, BOUND + 1, -(10**400)], ids=["10**400", "2**63", "-10**400"])
    def test_label_as_of_past_the_bound_exits_4(self, tmp_path, capsys, as_of):
        versions = [{"version_id": "v9", "as_of": as_of, "fault_revealing_tests": ["app.T2Test#t2"]}]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "v9" in err and "as_of" in err

    @pytest.mark.parametrize(
        "argv",
        [["score", "--horizon", "1e-320", "--as-of", str(REF)],
         ["minimize", "--horizon", "5e-324", "--as-of", str(REF)],
         ["evaluate", "--horizon", "1e-320"],
         ["sweep", "--horizons", "32,1e-320"]],
    )
    def test_half_life_whose_decay_rate_is_not_finite_exits_1(self, tmp_path, capsys, argv):
        manifest = _write_project(tmp_path)
        command, *flags = argv
        assert cli.main([command, str(manifest), *flags, "--output", str(tmp_path / "out")]) == 1
        assert "not finite" in capsys.readouterr().err


class TestJsonLimits:
    def test_labels_nested_too_deep_exit_4_naming_the_file(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        (tmp_path / "labels.json").write_text("[" * 100_000, encoding="utf-8")
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        assert "labels.json" in capsys.readouterr().err

    def test_label_as_of_past_the_conversion_limit_exits_4_naming_the_file(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        label = '[{"version_id": "v9", "as_of": ' + "9" * 5000 + ', "fault_revealing_tests": ["app.T2Test#t2"]}]'
        (tmp_path / "labels.json").write_text(label, encoding="utf-8")
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        assert "labels.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", ["[" * 100_000, '{"project_id": ' + "9" * 5000 + "}"], ids=["nesting", "long-integer"]
    )
    def test_manifest_past_a_json_limit_exits_3_naming_the_file(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content, encoding="utf-8")
        assert cli.main(["evaluate", str(manifest)]) == 3
        assert "manifest.json" in capsys.readouterr().err


class TestInterface:
    """SHA-256 of each parser's help text and of each subcommand's actions,
    recorded before the subcommands were built from shared parent parsers.

    A flag, default, help string or order that moves changes a digest.
    Argparse formats this parser alike on Python 3.10 to 3.13. The
    ``evaluate`` and ``sweep`` digests were recorded again when the ``--jobs``
    help came to name the forked ingest, and again when it went back to
    naming the scoring processes alone, once every command forks its ingest;
    nothing else of theirs moved.
    """

    HELP_SHA256 = {
        None: "b1a751ec8d650f4fb1cc3845f0d5e99e1c2bbac890fe453122d2fc76d04e63f5",
        "score": "64e28a0a1962ec8d03ee6d3aa91d5626ac0e9436c8b0aa40eab67a9b206d4dfb",
        "minimize": "bb32e290436eac4bfa12ef21c2cb40c46d1c9ddd5077e05f33d50404686397f6",
        "evaluate": "2e0d342e2ce5799980f1d8ec2f100c2034094b86b2a1b1fdb082fd61dd2fb6c5",
        "sweep": "447a3172615981785aeb7a23bbf39abedeac93b160d10003fbd226505807009f",
        "compare": "3d2819e89325474ca2d951e93eb6a0a35e0bf318b94867d975ce62965df4da25",
    }
    ACTIONS_SHA256 = {
        "score": "17bc038172ceda33bfc924d5fd504499e0ccda2fef18a55ea27f7d8745d1b7c5",
        "minimize": "9f206e2417e316c47dc779e9ad7916e1f1878c5a4def4a7008deac600e6430f8",
        "evaluate": "866e5f46a69e488ba4092be35b53cdef7cd74b09819137b6851c344e3860238a",
        "sweep": "e08f245a50a06387dfb43a9acd26fcd027369bca44d0bee59800919bfd96f1f1",
        "compare": "a44b258c2a22fedccace650260c03d2be053090ed52c811982b21f116ba97294",
    }

    @pytest.fixture
    def parsers(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal's width
        parser = cli.build_parser()
        (commands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        return {None: parser, **commands.choices}

    def test_help_texts_match_recorded_digests(self, parsers):
        texts = {name: parser.format_help() for name, parser in parsers.items()}
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
        assert digests == self.HELP_SHA256, texts

    def test_subcommand_actions_match_recorded_digests(self, parsers):
        rows = {
            name: [
                repr((action.option_strings, action.dest, action.default, action.nargs, action.required,
                      action.choices, action.metavar, action.help))
                for action in parser._actions
            ]
            for name, parser in parsers.items()
            if name is not None
        }
        digests = {name: hashlib.sha256("\n".join(lines).encode()).hexdigest() for name, lines in rows.items()}
        assert digests == self.ACTIONS_SHA256, rows


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counting_build():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_PARSER", None)
        manifest = _write_project(tmp_path)
        argv = ["score", str(manifest), "--metric", "frequency", "--horizon", "8", "--as-of", str(REF)]
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(built) == 1
        assert outputs[0] == outputs[1] and outputs[0].startswith("class_id,risk\n")


def _exit_argv(tmp_path, code):
    """Arguments for which ``cli.main`` returns ``code``; the labels and outcomes files are broken as needed."""
    manifest = str(_write_project(tmp_path))
    out = str(tmp_path / "out")
    if code == 0:
        return ["minimize", manifest, "--as-of", str(REF), "--output", out]
    if code == 1:
        return ["minimize", manifest, "--horizon", "5e-324", "--as-of", str(REF), "--output", out]
    if code == 2:
        return ["minimize", str(tmp_path / "absent.json"), "--as-of", str(REF)]
    if code == 3:
        (tmp_path / "changes.jsonl").write_text("{broken\n", encoding="utf-8")
        return ["minimize", manifest, "--as-of", str(REF), "--output", out]
    if code == 4:
        (tmp_path / "labels.json").unlink()
        return ["evaluate", manifest, "--output", out]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
    _write_outcomes(b, [("v1", 0.5), ("v3", 1.0)])
    return ["compare", str(a), str(b), "--output", out]


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Restores the cyclic collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    _set_collector(enabled)


class TestCollectorState:
    """Commands run with the cyclic collector paused and leave the caller's state as it was."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4, 5])
    def test_state_is_restored_on_every_exit_code(self, tmp_path, capsys, collector_state, code, enabled):
        argv = _exit_argv(tmp_path, code)
        _set_collector(enabled)
        assert cli.main(argv) == code
        assert gc.isenabled() is enabled

    def test_state_is_restored_after_a_usage_error_from_the_argument_parser(self, capsys, collector_state):
        gc.enable()
        assert cli.main(["no-such-command"]) == 1
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_when_an_unexpected_error_escapes(self, tmp_path, monkeypatch, collector_state, enabled):
        def broken(manifest):
            raise RuntimeError("not mapped to an exit code")

        monkeypatch.setattr(cli, "load_project_inputs", broken)
        argv = _exit_argv(tmp_path, 0)
        _set_collector(enabled)
        with pytest.raises(RuntimeError):
            cli.main(argv)
        assert gc.isenabled() is enabled

    def test_the_collector_is_paused_while_a_command_runs(self, tmp_path, monkeypatch, collector_state):
        seen = []
        original = cli.load_project_inputs

        def observing(manifest):
            seen.append(gc.isenabled())
            return original(manifest)

        monkeypatch.setattr(cli, "load_project_inputs", observing)
        gc.enable()
        assert cli.main(_exit_argv(tmp_path, 0)) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("seed", [101, 202])
    def test_a_minimize_leaves_no_cyclic_garbage_but_the_json_encoders(self, tmp_path, collector_state, seed):
        """The only cycles a minimize leaves are the closures of the pure-Python JSON
        encoder behind the indented result.json, as before the collector was paused:
        every unreachable object is reachable from one of that encoder's functions."""
        project = random_micro_project(seed)
        manifest = project.write_files(tmp_path / "p")
        argv = ["minimize", str(manifest), "--as-of", str(project.as_of), "--output", str(tmp_path / "out")]
        gc.enable()
        assert cli.main(argv) == 0  # builds the parser and configures logging, which later calls reuse
        gc.collect()
        assert cli.main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        encoders = [o for o in garbage if isinstance(o, types.FunctionType) and o.__module__ == "json.encoder"]
        unexplained = {id(o): o for o in garbage}
        stack = encoders
        while stack:
            obj = stack.pop()
            if unexplained.pop(id(obj), None) is not None:
                stack.extend(gc.get_referents(obj))
        assert not unexplained, sorted({type(o).__name__ for o in unexplained.values()})


_INPUT_ARGV = {
    "score": ["--as-of", str(REF)],
    "minimize": ["--as-of", str(REF)],
    "evaluate": [],
    "sweep": ["--horizons", "8", "--operators", "avg"],
}


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


class TestUnreadableInputs:
    """An input that cannot be opened exits 2 naming it; no traceback."""

    def test_directory_as_manifest_exits_2_naming_it(self, tmp_path, capsys):
        directory = tmp_path / "not-a-manifest"
        directory.mkdir()
        assert cli.main(["score", str(directory), "--as-of", "1"]) == 2
        err = capsys.readouterr().err
        assert "not-a-manifest" in err and "unreadable input" in err

    @pytest.mark.parametrize("command", sorted(_INPUT_ARGV))
    @pytest.mark.parametrize("name", ["changes.jsonl", "callgraph.csv"])
    def test_directory_as_change_log_or_call_graph_exits_2_naming_it(self, tmp_path, capsys, command, name):
        manifest = _write_project(tmp_path / "p")
        _replace_with_directory(tmp_path / "p" / name)
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_directory_as_labels_exits_2_naming_it(self, tmp_path, capsys, command):
        manifest = _write_project(tmp_path / "p")
        _replace_with_directory(tmp_path / "p" / "labels.json")
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "labels.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_INPUT_ARGV))
    @pytest.mark.parametrize("key", ["change_log_path", "callgraph_path", "labels_path"])
    def test_manifest_path_holding_a_nul_byte_exits_2_naming_it(self, tmp_path, capsys, command, key):
        manifest = _write_project(tmp_path / "p")
        raw = json.loads(manifest.read_text())
        raw[key] = "bad\x00name"
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(tmp_path / "out")]
        expected = 0 if key == "labels_path" and command in ("score", "minimize") else 2
        assert cli.main(argv) == expected
        if expected:
            err = capsys.readouterr().err
            assert "unreadable input" in err and "bad" in err and "null byte" in err

    def test_outcome_file_path_holding_a_nul_byte_exits_2(self, tmp_path, capsys):
        assert cli.main(["compare", "a\x00.csv", "b.csv"]) == 2
        assert "unreadable input" in capsys.readouterr().err

    def test_directories_as_outcome_files_exit_2_naming_them(self, tmp_path, capsys):
        a, b = tmp_path / "a-dir", tmp_path / "b-dir"
        a.mkdir()
        b.mkdir()
        assert cli.main(["compare", str(a), str(b)]) == 2
        assert "a-dir" in capsys.readouterr().err

    def test_missing_input_still_says_missing(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        _write_outcomes(a, [("v1", 0.5)])
        assert cli.main(["compare", str(a), str(tmp_path / "nope.csv")]) == 2
        err = capsys.readouterr().err
        assert "missing input" in err and "nope.csv" in err

    def test_a_failed_output_write_is_not_a_missing_input(self, tmp_path, capsys):
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        out.write_text("a file, not a directory", encoding="utf-8")
        assert cli.main(["score", str(manifest), "--as-of", str(REF), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"riskmin: error: cannot write output: {out / 'risks.csv'} (" in err
        assert "missing input" not in err and "Traceback" not in err

    FIRST_OUTPUT = {
        "score": "risks.csv",
        "minimize": "selected.txt",
        "evaluate": "outcomes.csv",
        "sweep": "sweep.csv",
        "compare": "comparison.json",
    }

    @pytest.mark.parametrize(
        "command, under_a_file",
        [
            pytest.param(command, under_a_file, id=f"{command}-{'under-a-file' if under_a_file else 'a-file'}")
            for command in sorted(FIRST_OUTPUT)
            for under_a_file in (False, True)
            if (command, under_a_file) != ("score", False)  # test_a_failed_output_write_is_not_a_missing_input
        ],
    )
    def test_an_unwritable_output_exits_1_naming_it(self, tmp_path, capsys, command, under_a_file):
        if command == "compare":
            a = tmp_path / "a.csv"
            _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
            argv = [command, str(a), str(a)]
        else:
            argv = [command, str(_write_project(tmp_path / "p")), *_INPUT_ARGV[command]]
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        out = blocker / "out" if under_a_file else blocker
        assert cli.main([*argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"riskmin: error: cannot write output: {out / self.FIRST_OUTPUT[command]} (" in err
        assert "missing input" not in err
        assert blocker.read_text(encoding="utf-8") == "a file, not a directory"


class TestUnwritableStdout:
    """A command whose stdout cannot take its output exits 1 with one error line naming stdout.

    Each runs ``python -m riskmin.cli`` in a child process, so that the
    interpreter's own flush of stdout at exit is part of what is checked.
    """

    SRC = str(Path(cli.__file__).resolve().parents[1])

    def _run(self, tmp_path, command, stdout, unbuffered):
        if command == "compare":
            a = tmp_path / "a.csv"
            _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
            argv = [command, str(a), str(a)]
        else:
            argv = [command, str(_write_project(tmp_path / "p"))] + (["--as-of", str(REF)] if command == "score" else [])
        return self._spawn(argv, stdout, unbuffered)

    def _spawn(self, argv, stdout, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "riskmin.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120
        )

    @pytest.mark.parametrize("command", ["compare", "score", "sweep"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_full_device_exits_1(self, tmp_path, command, unbuffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            done = self._run(tmp_path, command, full, unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [
            f"riskmin: error: cannot write output: <stdout> ({os.strerror(errno.ENOSPC)})"
        ]

    @pytest.mark.parametrize("command", [[], ["score"], ["minimize"], ["evaluate"], ["sweep"], ["compare"]],
                             ids=["top-level", "score", "minimize", "evaluate", "sweep", "compare"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_help_on_a_full_device_exits_1(self, command, unbuffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            done = self._spawn([*command, "--help"], full, unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [
            f"riskmin: error: cannot write output: <stdout> ({os.strerror(errno.ENOSPC)})"
        ]

    @pytest.mark.parametrize("command", ["compare", "score", "sweep"])
    def test_a_pipe_closed_by_its_reader_exits_1(self, tmp_path, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self._run(tmp_path, command, write_end, unbuffered=False)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [
            f"riskmin: error: cannot write output: <stdout> ({os.strerror(errno.EPIPE)})"
        ]

    def test_a_stdout_without_a_file_descriptor_exits_1_in_process(self, tmp_path, capsys, monkeypatch):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStream())
        assert cli.main(["score", str(_write_project(tmp_path)), "--as-of", str(REF)]) == 1
        assert capsys.readouterr().err == f"riskmin: error: cannot write output: <stdout> ({os.strerror(errno.ENOSPC)})\n"


class TestStdoutEncoding:
    """stdout takes the UTF-8 bytes that ``--output`` writes to a file, whatever encoding the locale gives it."""

    def test_score_writes_the_bytes_of_risks_csv_to_a_latin_1_stdout(self, tmp_path):
        manifest = _write_project(tmp_path / "p")
        events = [
            {"path": path, "ts": REF - DAY, "add": 1, "del": 0, "commit": f"c{index}"}
            for index, path in enumerate(["src/café/A.java", "src/日/B.java"])
        ]
        (tmp_path / "p" / "changes.jsonl").write_text(
            "".join(json.dumps(event, ensure_ascii=False) + "\n" for event in events), encoding="utf-8"
        )
        argv = ["score", str(manifest), "--as-of", str(REF)]
        env = dict(os.environ, PYTHONIOENCODING="latin-1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [TestUnwritableStdout.SRC, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "riskmin.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "risks.csv").read_bytes()
        assert "café.A".encode() in written and "日.B".encode() in written
        assert done.stdout == written


class _FailingReads(io.RawIOBase):
    """A file that opens but fails on its first read, as a disk error would."""

    def readable(self):
        return True

    def readinto(self, buffer):
        raise OSError(errno.EIO, "Input/output error")


class TestFailedReads:
    """A read that fails after its input was opened exits 2 naming the input, whichever input it is."""

    @pytest.mark.parametrize("name", ["manifest.json", "callgraph.csv", "changes.jsonl", "labels.json", "a.csv"])
    def test_a_read_failure_after_open_exits_2_naming_the_file(self, tmp_path, capsys, monkeypatch, name):
        manifest = _write_project(tmp_path)
        a = tmp_path / "a.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        open_input = cli._open_input

        def failing_reads_of_one_file(path):
            if Path(path).name == name:
                return io.TextIOWrapper(io.BufferedReader(_FailingReads()), encoding="utf-8")
            return open_input(path)

        monkeypatch.setattr(cli, "_open_input", failing_reads_of_one_file)
        if name == "a.csv":
            argv = ["compare", str(a), str(a)]
        else:
            argv = ["evaluate", str(manifest), "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"riskmin: error: unreadable input: {tmp_path / name} (Input/output error)" in err


def _break_line(path, lineno, text):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[lineno - 1] = text + "\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestParseErrorsNameTheFile:
    """A malformed change log or call graph exits 3 naming the file and the line."""

    CASES = {
        "changes.jsonl": (5, "{broken", "malformed JSON at line 5"),
        "callgraph.csv": (3, "only-one-field", "expected 'caller,callee' at line 3"),
    }

    @pytest.mark.parametrize("command", sorted(_INPUT_ARGV))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_command_names_the_file_and_the_line(self, tmp_path, capsys, command, name):
        manifest = _write_project(tmp_path / "p")
        lineno, text, message = self.CASES[name]
        _break_line(tmp_path / "p" / name, lineno, text)
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'p' / name}: {message}" in err

    def test_pooled_sweep_names_the_faulty_project(self, tmp_path, capsys):
        first = _write_project(tmp_path / "p1", project_id="p1")
        second = _write_project(
            tmp_path / "p2",
            project_id="p2",
            versions=[{"version_id": "w1", "as_of": REF, "fault_revealing_tests": ["app.T1Test#t1"]}],
        )
        _break_line(tmp_path / "p2" / "changes.jsonl", 2, "{broken")
        assert cli.main(["sweep", str(first), str(second), *_INPUT_ARGV["sweep"]]) == 3
        assert f"{tmp_path / 'p2' / 'changes.jsonl'}: malformed JSON at line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("change_log_format", ["jsonl", "numstat"])
    def test_the_error_keeps_its_line_and_message(self, tmp_path, change_log_format):
        manifest = _write_project(tmp_path, change_log_format=change_log_format, callgraph_format="callgraph-text")
        name = "changes.jsonl" if change_log_format == "jsonl" else "changes.numstat"
        _break_line(tmp_path / name, 4, "COMMIT" if change_log_format == "numstat" else "[")
        with pytest.raises(ParseError) as caught:
            cli.load_project_inputs(cli.load_manifest(manifest))
        assert caught.value.line == 4 and caught.value.path == str(tmp_path / name)
        assert str(caught.value).startswith(f"{tmp_path / name}: ")
        _write_project(tmp_path, change_log_format=change_log_format, callgraph_format="callgraph-text")
        _break_line(tmp_path / "callgraph.txt", 2, "M:a.T:t")
        with pytest.raises(ParseError) as caught:
            cli.load_project_inputs(cli.load_manifest(manifest))
        assert caught.value.line == 2 and str(caught.value) == (
            f"{tmp_path / 'callgraph.txt'}: malformed call-graph line at line 2"
        )

    @pytest.mark.parametrize("command", sorted(_INPUT_ARGV))
    def test_a_malformed_call_graph_is_reported_before_a_missing_change_log(self, tmp_path, capsys, command):
        manifest = _write_project(tmp_path / "p", callgraph_format="callgraph-text")
        (tmp_path / "p" / "changes.jsonl").unlink()
        _break_line(tmp_path / "p" / "callgraph.txt", 2, "M:a.T:t")
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'p' / 'callgraph.txt'}: malformed call-graph line at line 2" in err
        assert "changes.jsonl" not in err


# Per input: fifty valid lines, and a line its reader rejects.
_FIFTY_LINES = {
    "changes.jsonl": [
        json.dumps({"path": "src/app/A.java", "ts": REF - i, "add": 1, "del": 0, "commit": f"c{i}"}) for i in range(50)
    ],
    "changes.numstat": [f"COMMIT c{i} {REF - i}" if i % 2 == 0 else "1\t0\tsrc/app/A.java" for i in range(50)],
    "callgraph.txt": [f"M:app.T1Test:t1 (M)app.A:m{i}" for i in range(50)],
    "callgraph.csv": [f"app.T1Test#t1,app.A#m{i}" for i in range(50)],
    "a.csv": ["version_id,accuracy,detected,wall_time_s", *(f"v{i},0.5,true,0.01" for i in range(1, 50))],
}
_REJECTED_LINE = {
    "changes.jsonl": "{broken",
    "changes.numstat": "1\t2",
    "callgraph.txt": "M:a.T:t",
    "callgraph.csv": "only-one-field",
    "a.csv": "v2,2.0,true,0.01",
}


def _run_on_lines(tmp_path, capsys, name, lines):
    """``cli.main``'s exit code and stderr for a command that reads the input ``name`` holding ``lines`` (bytes)."""
    if name == "a.csv":
        argv = ["compare", str(tmp_path / name), str(tmp_path / name)]
    else:
        change_log_format = "numstat" if name == "changes.numstat" else "jsonl"
        callgraph_format = "callgraph-text" if name == "callgraph.txt" else "csv"
        manifest = _write_project(tmp_path, change_log_format=change_log_format, callgraph_format=callgraph_format)
        argv = ["score", str(manifest), "--as-of", str(REF)]
    (tmp_path / name).write_bytes(b"".join(line + b"\n" for line in lines))
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestUndecodableInput:
    """The CLI names the first line of an input that is not UTF-8, unless an earlier line is faulty."""

    @pytest.mark.parametrize("name", sorted(_FIFTY_LINES))
    def test_a_bad_byte_on_line_41_of_50_is_named_at_line_41(self, tmp_path, capsys, name):
        lines = [line.encode() for line in _FIFTY_LINES[name]]
        assert _run_on_lines(tmp_path, capsys, name, lines)[0] == 0
        lines[40] = lines[40][:5] + b"\xff" + lines[40][5:]
        assert _run_on_lines(tmp_path, capsys, name, lines) == (
            3, f"riskmin: error: {tmp_path / name}: invalid UTF-8 at line 41\n"
        )

    @pytest.mark.parametrize("name", sorted(_FIFTY_LINES))
    def test_a_rejected_line_before_the_bad_byte_is_reported_instead(self, tmp_path, capsys, name):
        lines = [line.encode() for line in _FIFTY_LINES[name]]
        lines[2] = _REJECTED_LINE[name].encode()
        expected = _run_on_lines(tmp_path, capsys, name, lines)
        assert expected[0] == 3 and "at line 3" in expected[1]
        lines[40] = lines[40][:5] + b"\xff" + lines[40][5:]
        assert _run_on_lines(tmp_path, capsys, name, lines) == expected

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        """A pipe cannot be read again to find the line, so its error names none."""
        manifest = _write_project(tmp_path)
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as pipe:
            pipe.write(b"\n\n\xff\n")
        path = f"/dev/fd/{read_end}"
        try:
            manifest_text = json.loads(manifest.read_text(encoding="utf-8"))
            manifest.write_text(json.dumps({**manifest_text, "change_log_path": path}), encoding="utf-8")
            assert cli.main(["score", str(manifest), "--as-of", str(REF)]) == 3
        finally:
            os.close(read_end)
        assert capsys.readouterr().err == f"riskmin: error: {path}: invalid UTF-8\n"


class TestByteOrderMark:
    """A rejected line that starts with a byte-order mark is named as one, by every line reader."""

    def test_a_numstat_log_that_starts_with_a_bom_exits_3_naming_it(self, tmp_path, capsys):
        manifest = _write_project(tmp_path, change_log_format="numstat")
        log = tmp_path / "changes.numstat"
        log.write_text("\ufeff" + log.read_text(encoding="utf-8"), encoding="utf-8")
        assert cli.main(["score", str(manifest), "--as-of", str(REF)]) == 3
        assert capsys.readouterr().err == (
            f"riskmin: error: {log}: unrecognized numstat line at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
        )

    def test_an_outcomes_file_that_starts_with_a_bom_exits_3_naming_it(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        _write_outcomes(a, [("v1", 0.5), ("v2", 1.0)])
        a.write_text("\ufeff" + a.read_text(encoding="utf-8"), encoding="utf-8")
        assert cli.main(["compare", str(a), str(a)]) == 3
        assert capsys.readouterr().err == (
            f"riskmin: error: {a}: Unexpected UTF-8 BOM (decode using utf-8-sig) at line 1\n"
        )

    def test_an_outcomes_header_with_its_columns_after_a_marked_one_is_accepted(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("\ufeffwall_time_s,version_id,accuracy,detected\n0.01,v1,0.5,true\n0.01,v2,1.0,true\n", encoding="utf-8")
        assert cli.main(["compare", str(a), str(a)]) == 0


def _main_of_an_interrupt(argv):
    """``cli.main(argv)``; an interrupt that escapes it fails the test rather than stopping the run."""
    try:
        return cli.main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")


class TestInterrupt:
    """An interrupt (SIGINT) exits 130 with one line on stderr and leaves no child process."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_interrupted_command_exits_130_with_one_line(self, tmp_path, capsys, monkeypatch, collector_state, enabled):
        def interrupted(manifest):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_project_inputs", interrupted)
        argv = _exit_argv(tmp_path, 0)
        _set_collector(enabled)
        assert _main_of_an_interrupt(argv) == 130
        assert gc.isenabled() is enabled
        assert capsys.readouterr() == ("", "riskmin: interrupted\n")
        assert not (tmp_path / "out").exists()

    def test_an_interrupted_forked_sweep_exits_130_and_reaps_its_child(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        score_share = evaluation._score_share

        def interrupted_in_the_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return score_share(*args)

        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(evaluation, "_score_share", interrupted_in_the_parent)
        out = tmp_path / "out"
        assert _main_of_an_interrupt(["sweep", str(_write_project(tmp_path)), "--jobs", "2", "--output", str(out)]) == 130
        assert fork.call_count == 2  # the ingest's child, which delivered, and the grid share's
        assert capsys.readouterr() == ("", "riskmin: interrupted\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestNoHalfResult:
    """A command's files replace those of an earlier run all together, once the last one is written:
    a failed or interrupted command leaves the earlier files as they were, and no temporary file."""

    @staticmethod
    def _earlier_run(tmp_path, command):
        manifest = _write_project(tmp_path / "p")
        out = tmp_path / "out"
        argv = [command, str(manifest), *_INPUT_ARGV[command], "--output", str(out)]
        assert cli.main(argv) == 0
        return argv, out, {path.name: path.read_bytes() for path in out.iterdir()}

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-an-earlier-run", "first-run"])
    def test_a_directory_in_place_of_the_second_file_leaves_the_first_as_it_was(self, tmp_path, capsys, earlier):
        manifest = _write_project(tmp_path / "p")
        out = tmp_path / "out"
        argv = ["evaluate", str(manifest), "--output", str(out)]
        if earlier:
            assert cli.main(argv) == 0
            old = (out / "outcomes.csv").read_bytes()
            (out / "summary.json").unlink()
        (out / "summary.json").mkdir(parents=True)
        capsys.readouterr()
        assert cli.main([*argv, "--metric", "frequency"]) == 1
        assert capsys.readouterr().err == (
            f"riskmin: error: cannot write output: {out / 'summary.json'} ({os.strerror(errno.EISDIR)})\n"
        )
        left = sorted(path.name for path in out.iterdir())
        assert left == (["outcomes.csv", "summary.json"] if earlier else ["summary.json"])
        if earlier:
            assert (out / "outcomes.csv").read_bytes() == old

    @pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()],
                             ids=["full-device", "interrupt"])
    def test_a_write_that_fails_between_two_files_leaves_the_earlier_run(self, tmp_path, capsys, monkeypatch, failure):
        argv, out, earlier = self._earlier_run(tmp_path, "minimize")
        written = []

        class FailingAfterAPart(io.StringIO):
            """The second temporary file: its write stores a part of the text, then fails."""

            def __init__(self, real):
                super().__init__()
                self.real = real

            def write(self, text):
                self.real.write(text[:10])
                raise failure

            def close(self):
                self.real.close()
                super().close()

        def failing_on_the_second_file(path, mode="r", **kwargs):
            handle = open(path, mode, **kwargs)
            if mode == "x":
                written.append(Path(path))
                if len(written) == 2:
                    return FailingAfterAPart(handle)
            return handle

        monkeypatch.setattr(cli, "open", failing_on_the_second_file, raising=False)
        capsys.readouterr()
        assert _main_of_an_interrupt([*argv[:-2], "--budget", "0.25", *argv[-2:]]) == (
            130 if isinstance(failure, KeyboardInterrupt) else 1
        )
        assert [path.name.split(".")[:2] for path in written] == [["", "selected"], ["", "result"]]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
        err = capsys.readouterr().err
        if isinstance(failure, KeyboardInterrupt):
            assert err == "riskmin: interrupted\n"
        else:
            assert err == f"riskmin: error: cannot write output: {out / 'result.json'} ({os.strerror(errno.ENOSPC)})\n"

    @pytest.mark.parametrize("command", sorted(_INPUT_ARGV))
    def test_a_successful_command_leaves_only_its_files(self, tmp_path, command):
        _, out, earlier = self._earlier_run(tmp_path, command)
        expected = {"score": ["risks.csv"], "minimize": ["result.json", "selected.txt"],
                    "evaluate": ["outcomes.csv", "summary.json"], "sweep": ["sweep.csv"]}[command]
        assert sorted(earlier) == expected
        assert all(oct(os.stat(out / name).st_mode & 0o777) == oct(0o666 & ~_umask()) for name in expected)

    def test_a_temporary_name_already_taken_is_drawn_again(self, tmp_path, monkeypatch):
        tokens = mock.Mock(side_effect=[bytes.fromhex("aaaaaaaaaaaa")] * 2 + [bytes.fromhex("bbbbbbbbbbbb")])
        monkeypatch.setattr(os, "urandom", tokens)
        target = tmp_path / "selected.txt"
        first, second = cli._written_beside(target, "one\n"), cli._written_beside(target, "two\n")
        assert (first.name, second.name) == (".selected.txt.aaaaaaaaaaaa.tmp", ".selected.txt.bbbbbbbbbbbb.tmp")
        assert (first.read_text(encoding="utf-8"), second.read_text(encoding="utf-8")) == ("one\n", "two\n")
        assert tokens.call_count == 3


def _umask():
    umask = os.umask(0)
    os.umask(umask)
    return umask


class TestOneInputAtATime:
    """A command holds one project's inputs at a time, freed by reference counting alone."""

    @pytest.mark.parametrize("change_log_format", ["jsonl", "numstat"])
    def test_the_call_graph_is_freed_before_the_change_log_is_read(
        self, tmp_path, monkeypatch, one_cpu, change_log_format
    ):
        """On one CPU both halves of the ingest run here; on two the graph never lives in this process."""
        graphs, freed = [], []
        parse_graph = cli.parse_callgraph_edges
        parser_name = "parse_change_log" if change_log_format == "jsonl" else "parse_git_numstat"
        parse_events = getattr(cli, parser_name)

        def keeping_a_weakref(*args, **kwargs):
            graph = parse_graph(*args, **kwargs)
            graphs.append(weakref.ref(graph))
            return graph

        def checking_the_graph_is_gone(*args, **kwargs):
            freed.append([ref() is None for ref in graphs])
            return parse_events(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_callgraph_edges", keeping_a_weakref)
        monkeypatch.setattr(cli, parser_name, checking_the_graph_is_gone)
        manifest = _write_project(tmp_path, change_log_format=change_log_format)
        assert cli.main(["minimize", str(manifest), "--as-of", str(REF), "--output", str(tmp_path / "out")]) == 0
        assert freed == [[True]]

    def test_a_pooled_evaluate_frees_each_project_before_loading_the_next(self, tmp_path, monkeypatch):
        first = _write_project(tmp_path / "p1", project_id="one")
        versions = [{"version_id": "w1", "as_of": REF, "fault_revealing_tests": ["app.T1Test#t1"]}]
        second = _write_project(tmp_path / "p2", project_id="two", versions=versions)
        loaded, freed = [], []
        load = cli.load_project_inputs

        def checking_the_last_project_is_gone(manifest):
            freed.append([ref() is None for ref in loaded])
            inputs = load(manifest)
            # ProjectInputs, and one of its class histories, standing for what it holds.
            loaded.extend((weakref.ref(inputs), weakref.ref(inputs.histories["app.A"])))
            return inputs

        monkeypatch.setattr(cli, "load_project_inputs", checking_the_last_project_is_gone)
        assert cli.main(["evaluate", str(first), str(second), "--output", str(tmp_path / "out")]) == 0
        assert freed == [[], [True, True]]


def _write_warning_project(directory, project_id="demo", version_prefix="v"):
    """``_write_project`` in the text and numstat formats, with one warning from each input and one
    from the labels: an edge of an unknown invocation type, a binary-count numstat line, and a
    fault-revealing test that is no entry point."""
    versions = [
        {"version_id": f"{version_prefix}1", "as_of": REF, "fault_revealing_tests": ["app.T2Test#t2"]},
        {"version_id": f"{version_prefix}2", "as_of": REF, "fault_revealing_tests": ["app.T4Test#t4", "app.GoneTest#t"]},
    ]
    manifest = _write_project(directory, callgraph_format="callgraph-text", change_log_format="numstat",
                              versions=versions, project_id=project_id)
    with open(directory / "callgraph.txt", "a", encoding="utf-8") as graph:
        graph.write("M:app.T3Test:t3 (X)app.A:m\n")
    with open(directory / "changes.numstat", "a", encoding="utf-8") as log:
        log.write(f"COMMIT Z0 {REF - DAY}\n-\t-\tsrc/app/B.java\n")
    return manifest


# Runs ``cli.main`` on the arguments after the first in a process that may use as many CPUs as the
# first says, and prints how many times it called ``os.fork``; the command's outputs go to files.
_ON_CPUS = (
    "import os, sys\n"
    "from riskmin import cli\n"
    "cpus = set(range(int(sys.argv[1])))\n"
    "os.sched_getaffinity = lambda pid: cpus\n"
    "forks, fork = [], os.fork\n"
    "os.fork = lambda: forks.append(1) or fork()\n"
    "code = cli.main(sys.argv[2:])\n"
    "print(len(forks))\n"
    "sys.exit(code)\n"
)


def _run_on_cpus(cpus, argv):
    """(exit code, stderr lines, fork count) of ``riskmin`` run on ``argv`` in a process of its own
    that may run on ``cpus`` CPUs."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _ON_CPUS, str(cpus), *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stderr.splitlines(), int(done.stdout)


def _untimed_outputs(out):
    """Each output file's text, with the time column of ``outcomes.csv`` and ``sweep.csv`` and
    ``mean_wall_time_s`` of ``summary.json`` masked; ``risks.csv``, ``selected.txt`` and ``result.json``
    hold no time and are kept whole."""
    texts = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name in ("outcomes.csv", "sweep.csv"):
            texts[path.name] = _mask_last_column(text)
        elif path.name == "summary.json":
            summary = json.loads(text)
            summary["mean_wall_time_s"] = "X"
            texts[path.name] = summary
        else:
            texts[path.name] = text
    return texts


# The warning lines of ``_write_warning_project``'s inputs, then of its labels, for a project id.
_INPUT_WARNINGS = (
    "WARNING: 1 edge(s) with an unknown invocation type kept; the first at line 6",
    "WARNING: 1 line(s) with binary file counts recorded as 0/0; the first at line 32",
)


def _labels_warning(project_id):
    return f"WARNING: project {project_id!r}: 1 fault-revealing test id(s) are not entry points and always count as missed"


class TestJobsEquivalence:
    """``--jobs 2`` on two CPUs forks the grid as well as the ingest, and shows what ``--jobs 1`` shows:
    the same output files apart from the times, the same exit code and the same stderr lines, in order."""

    @pytest.mark.parametrize("command, projects", [("evaluate", 1), ("sweep", 1), ("sweep", 2)],
                             ids=["evaluate", "sweep", "sweep-pool"])
    def test_jobs_2_gives_the_outputs_and_the_stderr_of_jobs_1(self, tmp_path, command, projects):
        manifests = [
            _write_warning_project(tmp_path / f"p{k}", project_id=f"p{k}", version_prefix=f"p{k}v")
            for k in range(projects)
        ]
        flags = ["--horizons", "8,static", "--operators", "avg,gmean"] if command == "sweep" else []
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code, stderr, forks = _run_on_cpus(2, [command, *manifests, *flags, "--jobs", jobs, "--output", out])
            runs.append((code, stderr, _untimed_outputs(out)))
            # The ingest's child per project, and under --jobs 2 the grid share's too.
            assert forks == (1 if jobs == "1" else 2) * projects
        serial, forked = runs
        assert forked == serial
        assert serial[0] == 0
        assert serial[1] == [line for k in range(projects) for line in (*_INPUT_WARNINGS, _labels_warning(f"p{k}"))]


class TestIngestOnTwoCpus:
    """Where two CPUs are usable, every command reads its call graph in a child, whatever ``--jobs``, and shows
    what it shows on one: the same output files apart from the times, the same exit code and the same stderr
    lines, in order. On one usable CPU it forks nothing."""

    _FLAGS = {"score": ["--as-of", str(REF)], "minimize": ["--as-of", str(REF)], "evaluate": ["--jobs", "1"]}

    @pytest.mark.parametrize("command, projects", [("score", 1), ("minimize", 1), ("evaluate", 1), ("evaluate", 2)],
                             ids=["score", "minimize", "evaluate", "evaluate-pool"])
    def test_two_cpus_give_the_outputs_and_the_stderr_of_one(self, tmp_path, command, projects):
        manifests = [
            _write_warning_project(tmp_path / f"p{k}", project_id=f"p{k}", version_prefix=f"p{k}v")
            for k in range(projects)
        ]
        runs = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            code, stderr, forks = _run_on_cpus(cpus, [command, *manifests, *self._FLAGS[command], "--output", out])
            runs.append((code, stderr, _untimed_outputs(out)))
            assert forks == (cpus - 1) * projects  # on two CPUs, one ingest child per project
        one, two = runs
        assert two == one
        labels_warned = command == "evaluate"
        assert one[:2] == (0, [
            line
            for k in range(projects)
            for line in (*_INPUT_WARNINGS, *([_labels_warning(f"p{k}")] if labels_warned else []))
        ])

    @pytest.mark.parametrize("command", ["score", "minimize", "evaluate"])
    def test_a_malformed_call_graph_and_change_log_exit_3_naming_the_call_graph(self, tmp_path, command):
        manifest = _write_warning_project(tmp_path)
        _break_line(tmp_path / "callgraph.txt", 2, "M:a.T:t")
        _break_line(tmp_path / "changes.numstat", 3, "COMMIT")
        error = f"riskmin: error: {tmp_path / 'callgraph.txt'}: malformed call-graph line at line 2"
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            # On two CPUs the child stops on the fault, and the parent raises it again with no line of its own.
            assert _run_on_cpus(cpus, [command, manifest, *self._FLAGS[command], "--output", out]) == (
                3, [error], cpus - 1
            )
            assert not out.exists()


class TestForkedIngest:
    """On two CPUs, whatever ``--jobs``, a child builds the dependency map while the parent reads the change log."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def _stderr(caplog, capsys):
        """The lines a command wrote to stderr: its log records, then its own lines."""
        lines = [f"{record.levelname}: {record.getMessage()}" for record in caplog.records]
        caplog.clear()
        return lines + capsys.readouterr().err.splitlines()

    def _evaluate(self, manifest, out, cpus, caplog, capsys):
        """(exit code, stderr lines, untimed outputs or None) of ``evaluate --jobs 2`` on ``cpus`` usable CPUs."""
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            code = cli.main(["evaluate", str(manifest), "--jobs", "2", "--output", str(out)])
        return code, self._stderr(caplog, capsys), _untimed_outputs(out) if out.exists() else None

    def test_the_parent_never_parses_the_call_graph(self, tmp_path, monkeypatch):
        parent, parsed_here = os.getpid(), []
        parse = cli.parse_callgraph_edges

        def parsing(*args):
            if os.getpid() == parent:
                parsed_here.append(args)
            return parse(*args)

        monkeypatch.setattr(cli, "parse_callgraph_edges", parsing)
        manifest = cli.load_manifest(_write_warning_project(tmp_path))
        forked = cli.load_project_inputs(manifest)
        assert parsed_here == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = cli.load_project_inputs(manifest)
        assert len(parsed_here) == 1
        assert (forked.dep_map, forked.entries) == (serial.dep_map, serial.entries)
        assert list(forked.histories) == list(serial.histories)
        assert all(isinstance(entry, MethodRef) for entry in forked.entries)

    @pytest.mark.parametrize("change_log_broken", [False, True], ids=["log-fine", "log-broken"])
    def test_a_malformed_call_graph_exits_3_naming_it_and_adds_no_line(
        self, tmp_path, caplog, capsys, monkeypatch, change_log_broken
    ):
        manifest = _write_warning_project(tmp_path)
        _break_line(tmp_path / "callgraph.txt", 2, "M:a.T:t")
        if change_log_broken:
            _break_line(tmp_path / "changes.numstat", 3, "COMMIT")
        serial = self._evaluate(manifest, tmp_path / "s", 1, caplog, capsys)
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        forked = self._evaluate(manifest, tmp_path / "p", 2, caplog, capsys)
        assert fork.call_count == 1  # the child stopped on the fault, and the parent raised it again
        assert forked == serial
        assert serial == (3, [f"riskmin: error: {tmp_path / 'callgraph.txt'}: malformed call-graph line at line 2"],
                          None)

    def test_a_missing_call_graph_exits_2(self, tmp_path, caplog, capsys):
        manifest = _write_warning_project(tmp_path)
        (tmp_path / "callgraph.txt").unlink()
        assert self._evaluate(manifest, tmp_path / "p", 2, caplog, capsys) == (
            2, [f"riskmin: error: missing input: {tmp_path / 'callgraph.txt'}"], None
        )

    def test_a_malformed_change_log_waits_for_the_call_graph_warning(self, tmp_path, caplog, capsys):
        manifest = _write_warning_project(tmp_path)
        _break_line(tmp_path / "changes.numstat", 3, "COMMIT")
        serial = self._evaluate(manifest, tmp_path / "s", 1, caplog, capsys)
        assert self._evaluate(manifest, tmp_path / "p", 2, caplog, capsys) == serial
        assert serial[0] == 3 and serial[1][0].startswith("WARNING: 1 edge(s) with an unknown invocation type")

    @pytest.mark.parametrize("failure", ["killed", "no fork"])
    def test_a_child_that_delivers_nothing_costs_one_warning(self, tmp_path, caplog, capsys, monkeypatch, failure):
        manifest = _write_warning_project(tmp_path)
        serial = self._evaluate(manifest, tmp_path / "s", 1, caplog, capsys)
        parent, dependencies = os.getpid(), cli._dependencies

        def killed_in_the_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return dependencies(*args)

        if failure == "killed":
            monkeypatch.setattr(cli, "_dependencies", killed_in_the_child)
        else:  # as at a limit on the number of processes; the grid's share is scored here too
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "no process")))
        code, stderr, outputs = self._evaluate(manifest, tmp_path / "p", 2, caplog, capsys)
        lost = "WARNING: a worker process delivered nothing; the dependency map is built here"
        assert stderr[0] == lost
        assert (code, [line for line in stderr if "worker process" not in line], outputs) == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_on_one_usable_cpu_nothing_is_forked(self, tmp_path, monkeypatch):
        manifest = cli.load_manifest(_write_warning_project(tmp_path))
        forked = cli.load_project_inputs(manifest)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        assert cli.load_project_inputs(manifest).dep_map == forked.dep_map
        assert fork.call_count == 0

    @pytest.mark.parametrize("argv", [["minimize", "--as-of", str(REF)], ["evaluate", "--jobs", "2"]],
                             ids=["minimize", "evaluate-jobs-2"])
    def test_while_another_thread_runs_nothing_is_forked(self, tmp_path, caplog, capsys, monkeypatch, argv):
        """A fork copies only the thread that calls it; a command run beside other threads runs in one process."""
        command, *flags = argv
        manifest = _write_warning_project(tmp_path)

        def run(out, cpus):
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
                code = cli.main([command, str(manifest), *flags, "--output", str(out)])
            return code, self._stderr(caplog, capsys), _untimed_outputs(out)

        serial = run(tmp_path / "s", 1)
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            beside_a_thread = run(tmp_path / "p", 2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert fork.call_count == 0
        assert beside_a_thread == serial and serial[0] == 0

    def test_an_interrupt_in_the_parents_half_exits_130_and_kills_and_reaps_the_child(
        self, tmp_path, capsys, monkeypatch
    ):
        parent = os.getpid()

        def sleeping_in_the_child(manifest):  # a child still at work; only SIGKILL ends it in time
            time.sleep(60)

        def interrupted_in_the_parent(manifest):
            assert os.getpid() == parent
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dependencies", sleeping_in_the_child)
        monkeypatch.setattr(cli, "_histories", interrupted_in_the_parent)
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        descriptors = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        out = tmp_path / "out"
        started = time.monotonic()
        assert _main_of_an_interrupt(["sweep", str(_write_project(tmp_path)), "--output", str(out)]) == 130
        assert time.monotonic() - started < 30
        assert fork.call_count == 1
        assert capsys.readouterr() == ("", "riskmin: interrupted\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if descriptors is not None:  # the pipe's read end is closed
            assert len(os.listdir("/proc/self/fd")) == descriptors
        package = logging.getLogger("riskmin")  # the parent's held records went with it
        assert package.propagate and package.handlers == []
