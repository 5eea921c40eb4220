import json

import pytest

from riskmin import cli, stats

DAY = 86_400
REF = 1_700_000_000


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

    def test_decayed_risks_match_library(self, tmp_path, capsys):
        from riskmin.temporal_risk import RiskConfig, risk_table

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
        cfg = RiskConfig(metric="extent", half_life_days=32.0, reference_time=REF)
        for class_id, risk in risk_table(inputs.histories, cfg).items():
            assert rows[class_id] == str(risk.score)

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

    def test_self_check_mode_passes_on_valid_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SELF_CHECK_ENV, "1")
        manifest = _write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["minimize", str(manifest), "--as-of", str(REF), "--output", str(out)]
        ) == 0


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

    def test_empty_fault_set_exits_4(self, tmp_path):
        versions = [{"version_id": "v1", "as_of": REF, "fault_revealing_tests": []}]
        manifest = _write_project(tmp_path, versions=versions)
        assert cli.main(["evaluate", str(manifest)]) == 4

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        _assert_jobs_agree_with_serial(tmp_path, "evaluate", "outcomes.csv")

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

    def test_version_id_repeated_in_a_labels_file_exits_4(self, tmp_path, capsys):
        label = {"version_id": "v7", "as_of": REF, "fault_revealing_tests": ["app.T2Test#t2"]}
        manifest = _write_project(tmp_path, versions=[label, dict(label, as_of=REF - DAY)])
        assert cli.main(["evaluate", str(manifest), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "labels.json" in err and "v7" in err

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

    def test_dependency_map_is_built_once_per_project(self, tmp_path, monkeypatch):
        calls = []
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

    def test_explicit_selector_wins_over_a_pattern(self, tmp_path):
        manifest = _write_project(tmp_path)
        raw = json.loads(manifest.read_text())
        raw["entry_selector"] = {"explicit": ["app.T1Test#t1"], "pattern": "ignored"}
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        inputs = cli.load_project_inputs(cli.load_manifest(manifest))
        assert [entry.test_id for entry in inputs.entries] == ["app.T1Test#t1"]
