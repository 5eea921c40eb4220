import gc
import io
import json
import pickle
import random
import shutil
import subprocess
import time
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    class_history,
    history_columns,
    jsonl_lines,
    reference_change_log,
    reference_consolidate,
    reference_numstat,
)

from riskmin import change_history, cli
from riskmin.change_history import (
    ChangeEvent,
    SourceRootConfig,
    consolidate,
    parse_change_log,
    parse_git_numstat,
    path_to_class,
)
from riskmin.errors import ParseError

CFG = SourceRootConfig(roots=("src/main/java", "src/test/java"))

BOUND = 2**63 - 1  # the documented largest line count or timestamp
BYTES_PER_EVENT = 100  # held by consolidated histories, commit ids included


def _parse_jsonl(text):
    return parse_change_log(io.StringIO(text))


class TestParseChangeLog:
    def test_single_record_is_copied_field_by_field(self):
        line = '{"path":"src/main/java/a/B.java","ts":1000,"add":3,"del":2,"mod":1,"commit":"c1"}'
        (event,) = _parse_jsonl(line)
        assert event == ChangeEvent(
            path="src/main/java/a/B.java",
            timestamp=1000,
            added=3,
            deleted=2,
            modified=1,
            commit_id="c1",
        )

    def test_empty_input_yields_empty_log(self):
        log = _parse_jsonl("")
        assert len(log) == 0 and list(log) == [] and (log.columns, log.commits, log.renames) == ({}, [], {})

    def test_negative_line_count_is_rejected_with_line_number(self):
        line = '{"path":"a/B.java","ts":1,"add":-1,"del":0,"mod":0,"commit":"c1"}'
        with pytest.raises(ParseError, match="negative line count at line 1"):
            _parse_jsonl(line)

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"add": -1}, "negative line count"),
            ({"del": -2}, "negative line count"),
            ({"mod": -3}, "negative line count"),
            ({"ts": 0}, "field 'ts' must be a positive integer"),
            ({"ts": -5}, "field 'ts' must be a positive integer"),
            ({"add": BOUND + 1}, f"field 'add' exceeds {BOUND}"),
            ({"ts": BOUND + 1}, f"field 'ts' exceeds {BOUND}"),
        ],
        ids=["add-negative", "del-negative", "mod-negative", "ts-zero", "ts-negative", "add-past-bound",
             "ts-past-bound"],
    )
    def test_a_count_or_timestamp_out_of_range_names_the_line(self, change, message):
        good = {"path": "a/B.java", "ts": 1, "add": 0, "del": 0, "mod": 0, "commit": "c"}
        text = "\n".join(json.dumps(record) for record in (good, good | change))
        with pytest.raises(ParseError, match=f"^{message} at line 2$") as raised:
            _parse_jsonl(text)
        assert raised.value.line == 2

    def test_missing_required_field_is_rejected(self):
        line = '{"path":"a/B.java","ts":1,"add":1,"del":0,"commit":"c1"}\n{"ts":1,"add":1,"del":0,"mod":0,"commit":"c2"}'
        with pytest.raises(ParseError, match="missing required field 'path' at line 2"):
            _parse_jsonl(line)

    def test_mod_field_defaults_to_zero(self):
        line = '{"path":"a/B.java","ts":1,"add":1,"del":0,"commit":"c1"}'
        (event,) = _parse_jsonl(line)
        assert event.modified == 0

    def test_malformed_json_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            _parse_jsonl('{"path":"a/B.java","ts":1,"add":0,"del":0,"commit":"c"}\n{oops')

    def test_utf8_bytes_through_a_text_stream_are_accepted(self):
        raw = io.BytesIO(b'{"path":"a/B.java","ts":5,"add":0,"del":0,"commit":"c"}\n')
        (event,) = parse_change_log(io.TextIOWrapper(raw, encoding="utf-8", newline=None))
        assert event.timestamp == 5

    @pytest.mark.parametrize(
        "fields",
        ['"path":5', '"path":null', '"path":["a/B.java"]',
         '"path":"a/B.java","renamed_from":["a/Old.java"]', '"path":"a/B.java","renamed_from":5'],
    )
    def test_non_string_path_or_rename_source_names_the_line(self, fields):
        good = '{"path":"a/B.java","ts":1,"add":0,"del":0,"commit":"c"}'
        bad = '{' + fields + ',"ts":2,"add":0,"del":0,"commit":"d"}'
        with pytest.raises(ParseError, match="must be a string at line 2"):
            _parse_jsonl(good + "\n" + bad)

    @pytest.mark.parametrize("commit", ["null", "5", "[\"c\"]", "true"])
    def test_non_string_commit_names_the_line(self, commit):
        good = '{"path":"a/B.java","ts":1,"add":0,"del":0,"commit":"c"}'
        bad = '{"path":"a/B.java","ts":2,"add":0,"del":0,"commit":' + commit + "}"
        with pytest.raises(ParseError, match="'commit' must be a string at line 2"):
            _parse_jsonl(good + "\n" + bad)

    def test_null_rename_source_means_no_rename(self):
        line = '{"path":"a/B.java","ts":1,"add":0,"del":0,"commit":"c","renamed_from":null}'
        (event,) = _parse_jsonl(line)
        assert event.renamed_from is None

    def test_integer_past_the_conversion_limit_names_the_line(self):
        line = '{"path":"a/B.java","ts":' + "9" * 5000 + ',"add":1,"del":0,"commit":"c"}'
        with pytest.raises(ParseError, match="line 1"):
            _parse_jsonl(line)

    def test_nesting_too_deep_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            _parse_jsonl("\n" + "[" * 100_000)

    @pytest.mark.parametrize("field", ["add", "del", "mod", "ts"])
    def test_number_past_the_bound_names_the_line(self, field):
        good = {"path": "a/B.java", "ts": 1, "add": 0, "del": 0, "mod": 0, "commit": "c"}
        at_bound = dict(good, **{field: BOUND})
        past_bound = dict(good, **{field: 10**400})
        text = "\n".join(json.dumps(record) for record in (good, at_bound, past_bound))
        with pytest.raises(ParseError, match="line 3") as raised:
            _parse_jsonl(text)
        assert raised.value.line == 3
        assert len(_parse_jsonl("\n".join(json.dumps(r) for r in (good, at_bound)))) == 2

    def test_renamed_from_is_carried_through(self):
        line = '{"path":"a/B.java","ts":1,"add":0,"del":0,"commit":"c","renamed_from":"a/Old.java"}'
        (event,) = _parse_jsonl(line)
        assert event.renamed_from == "a/Old.java"

    def test_events_of_one_path_share_one_string(self):
        # Timestamps above 256, which CPython does not cache, so a shared int is the parser's doing.
        records = [
            {"path": "a/B.java", "ts": 1000, "add": 1, "del": 0, "commit": "c1"},
            {"path": "a/C.java", "ts": 2000, "add": 1, "del": 0, "commit": "c2"},
            {"path": "a/B.java", "ts": 3000, "add": 2, "del": 1, "mod": 4, "commit": "c3"},
            {"path": "a/C.java", "ts": 3000, "add": 1, "del": 1, "commit": "c3"},
            {"path": "a/B.java", "ts": 4000, "add": 0, "del": 0, "commit": "c4", "renamed_from": "a/Old.java"},
            {"path": "a/D.java", "ts": 5000, "add": 0, "del": 0, "commit": "c5", "renamed_from": "a/C.java"},
        ]
        log = _parse_jsonl("\n".join(json.dumps(r) for r in records))
        events = list(log)
        assert [e.path for e in events] == [r["path"] for r in records]
        assert events[0].path is events[2].path is events[4].path
        assert events[1].path is events[3].path is not events[0].path
        assert events[2].commit_id is events[3].commit_id
        assert events[5].renamed_from is events[1].path
        # The columns: one array per path, with line numbers for input positions and indices of commit ids.
        assert list(log.columns) == ["a/B.java", "a/C.java", "a/D.java"]
        assert log.columns["a/B.java"] == array("q", [1, 1000, 1, 0, 0, 0, 3, 3000, 2, 1, 4, 2, 5, 4000, 0, 0, 0, 3])
        assert log.columns["a/C.java"][5::6] == array("q", [1, 2])
        assert log.commits == ["c1", "c2", "c3", "c4", "c5"]
        assert log.renames == {"a/B.java": {5: "a/Old.java"}, "a/D.java": {6: "a/C.java"}}


class TestParseGitNumstat:
    def test_commit_header_and_file_line(self):
        text = "COMMIT abc123 1000\n3\t2\tsrc/main/java/a/B.java\n"
        (event,) = parse_git_numstat(io.StringIO(text))
        assert (event.timestamp, event.added, event.deleted, event.modified) == (1000, 3, 2, 0)
        assert event.commit_id == "abc123"

    def test_binary_markers_become_zero_counts_with_warning(self, caplog):
        text = "COMMIT abc 1000\n-\t-\timg/logo.png\n"
        with caplog.at_level("WARNING"):
            (event,) = parse_git_numstat(io.StringIO(text))
        assert (event.added, event.deleted) == (0, 0)
        assert any("binary" in message for message in caplog.messages)

    def test_binary_lines_are_counted_in_one_warning(self, caplog):
        text = "COMMIT abc 1000\n1\t1\tsrc/A.java\n" + "-\t-\timg/logo.png\n" * 1000
        with caplog.at_level("WARNING"):
            events = parse_git_numstat(io.StringIO(text))
        assert len(events) == 1001
        (message,) = caplog.messages
        assert "binary" in message and "1000 " in message and "line 3" in message

    def test_braced_rename_resolves_to_new_path(self):
        text = "COMMIT abc 1000\n1\t1\tsrc/{old => new}/a/B.java\n"
        (event,) = parse_git_numstat(io.StringIO(text))
        assert event.path == "src/new/a/B.java"
        assert event.renamed_from == "src/old/a/B.java"

    def test_whole_path_rename(self):
        text = "COMMIT abc 1000\n1\t1\ta/Old.java => a/New.java\n"
        (event,) = parse_git_numstat(io.StringIO(text))
        assert event.path == "a/New.java"
        assert event.renamed_from == "a/Old.java"

    def test_empty_rename_side_collapses_double_slash(self):
        text = "COMMIT abc 1000\n1\t1\tsrc/{ => main}/B.java\n"
        (event,) = parse_git_numstat(io.StringIO(text))
        assert event.renamed_from == "src/B.java"
        assert event.path == "src/main/B.java"

    def test_malformed_header_is_an_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_git_numstat(io.StringIO("COMMIT onlyhash\n"))

    def test_file_line_before_header_is_an_error(self):
        with pytest.raises(ParseError, match="before any commit header"):
            parse_git_numstat(io.StringIO("1\t2\ta/B.java\n"))

    def test_unrecognized_line_is_an_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_git_numstat(io.StringIO("COMMIT abc 1\nnot a numstat line\n"))

    @pytest.mark.parametrize(
        "lines",
        [
            lambda: io.TextIOWrapper(
                io.BytesIO(b"COMMIT abc 5\r\n1\t2\tsrc/A.java\r\n"), encoding="utf-8", newline=None
            ),
            lambda: ["COMMIT abc 5\r\n", "1\t2\tsrc/A.java\r\n"],
            lambda: io.StringIO("COMMIT abc 5\r\n1\t2\tsrc/A.java\r\n", newline=""),
            lambda: io.StringIO("COMMIT abc 5\r1\t2\tsrc/A.java\r", newline=""),
        ],
        ids=["crlf-file", "crlf-str", "crlf-stream", "cr-stream"],
    )
    def test_a_carriage_return_line_end_is_not_part_of_the_path(self, lines):
        (event,) = parse_git_numstat(lines())
        assert event.path == "src/A.java"
        assert list(_consolidate([event], SourceRootConfig(roots=("src",)))) == ["A"]

    @pytest.mark.parametrize("end", ["", "\n", "\r\n"])
    def test_a_carriage_return_inside_a_path_is_an_error(self, end):
        with pytest.raises(ParseError, match="unrecognized numstat line at line 3") as raised:
            parse_git_numstat(["COMMIT abc 5\n", "1\t2\tsrc/A.java\n", "1\t2\ta\rb.java" + end])
        assert raised.value.line == 3

    @pytest.mark.parametrize(
        "text",
        ["COMMIT abc " + "9" * 5000 + "\n", "COMMIT abc 5\n" + "9" * 5000 + "\t1\tsrc/A.java\n"],
        ids=["header-timestamp", "line-count"],
    )
    def test_number_past_the_conversion_limit_names_the_line(self, text):
        lineno = text.count("\n")
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_git_numstat(io.StringIO(text))

    @pytest.mark.parametrize(
        "text",
        [
            f"COMMIT abc 5\n1\t2\tsrc/A.java\nCOMMIT def {2**63}\n",
            f"COMMIT abc 5\n1\t2\tsrc/A.java\n{10**400}\t1\tsrc/A.java\n",
            f"COMMIT abc 5\n1\t2\tsrc/A.java\n1\t{2**63}\tsrc/A.java\n",
        ],
        ids=["header-timestamp", "added", "deleted"],
    )
    def test_number_past_the_bound_names_the_line(self, text):
        with pytest.raises(ParseError, match="line 3") as raised:
            parse_git_numstat(io.StringIO(text))
        assert raised.value.line == 3

    def test_numbers_at_the_bound_are_accepted(self):
        text = f"COMMIT abc {BOUND}\n{BOUND}\t{BOUND}\tsrc/A.java\n"
        (event,) = parse_git_numstat(io.StringIO(text))
        assert (event.timestamp, event.added, event.deleted) == (BOUND, BOUND, BOUND)

    def test_events_of_one_path_share_one_string(self):
        text = (
            "COMMIT c1 1000\n3\t2\tsrc/a/B.java\n1\t1\tsrc/a/C.java\n"
            "COMMIT c2 2000\n-\t-\tsrc/a/B.java\n"
            f"COMMIT c3 3000\n{BOUND}\t0\tsrc/a/B.java\n"
            "COMMIT c4 4000\n0\t0\tsrc/{x => a}/B.java\n5\t5\tsrc/x/C.java => src/a/B.java\n"
            "COMMIT c5 5000\n1\t1\tsrc/{a => b}/C.java\n"
        )
        log = parse_git_numstat(io.StringIO(text))
        events = list(log)
        assert [e.path for e in events] == (
            ["src/a/B.java", "src/a/C.java"] + ["src/a/B.java"] * 4 + ["src/b/C.java"]
        )
        first = events[0].path
        assert all(e.path is first for e in events if e.path == first)
        assert events[1].path is not first
        assert events[0].commit_id is events[1].commit_id
        assert events[-1].renamed_from is events[1].path
        fields = log.columns["src/a/B.java"]
        assert fields[1::6] == array("q", [1000, 2000, 3000, 4000, 4000])
        assert fields[0::6] == array("q", [2, 5, 7, 9, 10])
        assert fields[5::6] == array("q", [0, 1, 2, 3, 3]) and log.columns["src/a/C.java"][5::6] == array("q", [0])
        assert log.commits == ["c1", "c2", "c3", "c4", "c5"]
        assert log.renames == {
            "src/a/B.java": {9: "src/x/B.java", 10: "src/x/C.java"}, "src/b/C.java": {12: "src/a/C.java"},
        }

    def test_zero_header_timestamp_is_an_error(self):
        text = "COMMIT abc 5\n1\t2\tsrc/A.java\nCOMMIT def 0\n1\t2\tsrc/A.java\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_git_numstat(io.StringIO(text))


@pytest.mark.parametrize(
    ("parse", "line"),
    [
        (parse_git_numstat, lambda i: f"COMMIT c{i} {i + 1}\n1\t2\tsrc/A{i % 9}.java\n"),
        (parse_change_log, lambda i: json.dumps({"path": "a/B.java", "ts": i + 1, "add": 1, "del": 0, "commit": "c"}) + "\n"),
    ],
    ids=["numstat", "jsonl"],
)
def test_a_file_that_fails_to_decode_names_its_first_bad_line(tmp_path, parse, line):
    """A parser lets the text stream's decode error through, directly or through a
    generator; the CLI's reader names the line that does not decode."""
    path = tmp_path / "log"
    path.write_bytes("".join(map(line, range(600))).encode() + b"\xff\n")
    with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
        parse(line for line in handle)
    with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
        parse(handle)
    lines = 2 * 600 if parse is parse_git_numstat else 600
    with pytest.raises(ParseError) as read:
        cli._parse_input(path, parse)
    assert (read.value.line, str(read.value)) == (lines + 1, f"{path}: invalid UTF-8 at line {lines + 1}")


@pytest.mark.skipif(shutil.which("git") is None, reason="git not available")
def test_numstat_adapter_against_real_git_rename_output(tmp_path):
    """Round-trip a two-commit repository with a rename through git itself."""
    repo = tmp_path / "repo"
    repo.mkdir()
    env_flags = [
        "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "diff.renames=true",
    ]

    def git(*argv, ts):
        subprocess.run(
            ["git", *env_flags, *argv],
            cwd=repo,
            check=True,
            capture_output=True,
            env={
                "GIT_AUTHOR_DATE": f"@{ts} +0000",
                "GIT_COMMITTER_DATE": f"@{ts} +0000",
                "PATH": "/usr/bin:/bin:/usr/local/bin",
                "HOME": str(tmp_path),
            },
        )

    git("init", "-q", ts=1000)
    src = repo / "src" / "old"
    src.mkdir(parents=True)
    (src / "B.java").write_text("class B {}\n// one\n// two\n")
    git("add", ".", ts=1000)
    git("commit", "-q", "-m", "add B", ts=1000)
    (repo / "src" / "new").mkdir()
    git("mv", "src/old/B.java", "src/new/B.java", ts=2000)
    git("commit", "-q", "-m", "move B", ts=2000)

    log = subprocess.run(
        ["git", *env_flags, "log", "-M", "--pretty=format:COMMIT %H %ct", "--numstat"],
        cwd=repo,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    events = parse_git_numstat(io.StringIO(log))
    renamed = [e for e in events if e.renamed_from]
    assert len(renamed) == 1
    assert renamed[0].path == "src/new/B.java"
    assert renamed[0].renamed_from == "src/old/B.java"
    assert renamed[0].timestamp == 2000


class TestPathToClass:
    def test_strips_root_and_converts_separators(self):
        assert path_to_class("src/main/java/org/acme/Foo.java", CFG) == "org.acme.Foo"

    def test_non_class_extension_is_absent(self):
        assert path_to_class("README.md", CFG) is None

    def test_no_matching_root_uses_whole_path(self):
        cfg = SourceRootConfig(roots=("src",))
        assert path_to_class("a/b/C.java", cfg) == "a.b.C"

    def test_longest_root_wins(self):
        cfg = SourceRootConfig(roots=("src", "src/main/java"))
        assert path_to_class("src/main/java/a/B.java", cfg) == "a.B"

    def test_roots_stay_as_given_while_the_longest_is_tried_first(self):
        cfg = SourceRootConfig(roots=("src", "/", "src/main/java/"))
        assert cfg.roots == ("src", "", "src/main/java")
        assert cfg == SourceRootConfig(roots=("src", "", "src/main/java"))
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert path_to_class("src/main/java/a/B.java", cfg) == "a.B"
        assert path_to_class("src/a/B.java", cfg) == "a.B"
        assert path_to_class("/a/B.java", cfg) == ".a.B"  # the empty root matches nothing

    def test_total_and_deterministic_over_valid_extensions(self):
        rng = random.Random(7)
        for _ in range(200):
            parts = [rng.choice("abcdef") for _ in range(rng.randint(1, 4))]
            path = "src/main/java/" + "/".join(parts) + "/X.java"
            first = path_to_class(path, CFG)
            assert first == path_to_class(path, CFG)
            assert first is not None and first.endswith(".X")

    def test_roots_must_be_non_empty(self):
        with pytest.raises(ValueError):
            SourceRootConfig(roots=())

    @pytest.mark.parametrize("extensions", [("",), (".java", ""), ()])
    def test_empty_extension_is_rejected(self, extensions):
        with pytest.raises(ValueError, match="empty extension"):
            SourceRootConfig(roots=("src",), extensions=extensions)

    @pytest.mark.parametrize("path", ["src/.java", "src/a/.java", ".java", "lib/.java"])
    def test_file_named_only_by_its_extension_is_not_a_class(self, path):
        assert path_to_class(path, SourceRootConfig(roots=("src",))) is None


def _event(path, ts, commit, renamed_from=None, add=1):
    return ChangeEvent(
        path=path, timestamp=ts, added=add, deleted=0, modified=0,
        commit_id=commit, renamed_from=renamed_from,
    )


def _consolidate(events, cfg):
    """``consolidate`` of the change log that ``parse_change_log`` reads from the events' JSONL lines."""
    return consolidate(parse_change_log(jsonl_lines(events)), cfg)


def _columns(history):
    """A history's timestamps, commits, paths, added counts and rename sources."""
    return list(history.timestamps), history.commits, history.paths, list(history.added), history.renames


class TestConsolidate:
    def test_rename_chain_merges_into_one_history(self):
        cfg = SourceRootConfig(roots=("src/old", "src/new"))
        events = [
            _event("src/old/A.java", 1, "c1"),
            _event("src/new/A.java", 2, "c2", renamed_from="src/old/A.java"),
        ]
        histories = _consolidate(events, cfg)
        assert list(histories) == ["A"]
        assert [e.timestamp for e in histories["A"].events] == [1, 2]
        assert histories["A"].timestamps == array("q", [1, 2])
        assert histories["A"].renames == {1: "src/old/A.java"}

    def test_empty_input_yields_empty_map(self):
        assert _consolidate([], CFG) == {}

    def test_interleaved_classes_are_split_and_sorted(self):
        rng = random.Random(3)
        events = []
        for i in range(40):
            cls = rng.choice(["a/B.java", "a/C.java"])
            events.append(_event(cls, rng.randint(1, 1000), f"c{i}"))
        cfg = SourceRootConfig(roots=("a",))
        histories = _consolidate(events, cfg)
        # brute-force group-and-sort oracle
        expected = {}
        for e in events:
            expected.setdefault(e.path, []).append(e)
        for path, group in expected.items():
            name = path.split("/")[-1].removesuffix(".java")
            group.sort(key=lambda e: (e.timestamp, e.commit_id))
            assert [x.commit_id for x in histories[name].events] == [x.commit_id for x in group]
            assert list(histories[name].commits) == [x.commit_id for x in group]

    def test_same_class_id_paths_merge_without_rename_annotation(self):
        cfg = SourceRootConfig(roots=("main", "extra"))
        events = [_event("main/a/B.java", 5, "c1"), _event("extra/a/B.java", 3, "c2")]
        histories = _consolidate(events, cfg)
        assert list(histories) == ["a.B"]
        assert [e.commit_id for e in histories["a.B"].events] == ["c2", "c1"]
        assert _columns(histories["a.B"]) == ([3, 5], ("c2", "c1"), ("extra/a/B.java", "main/a/B.java"), [1, 1], {})

    def test_duplicate_commit_path_pairs_are_dropped(self):
        events = [
            _event("a/B.java", 1, "c1"),
            _event("a/B.java", 1, "c1"),
            _event("a/B.java", 2, "c2"),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert len(histories["B"].events) == 2
        assert histories["B"].commits == ("c1", "c2")

    def test_the_first_of_a_duplicate_commit_path_pair_is_kept(self):
        events = [
            _event("a/B.java", 2, "c2", add=5),
            _event("a/B.java", 1, "c1", add=1),
            _event("a/B.java", 2, "c2", add=7),
            _event("a/C.java", 3, "c3"),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert [(e.commit_id, e.added) for e in histories["B"].events] == [("c1", 1), ("c2", 5)]
        assert [e.commit_id for e in histories["C"].events] == ["c3"]
        assert _columns(histories["B"]) == ([1, 2], ("c1", "c2"), ("a/B.java", "a/B.java"), [1, 5], {})

    def test_files_named_only_by_their_extension_are_dropped(self):
        events = [_event("a/.java", 1, "c1"), _event("a/x/.java", 2, "c2"), _event("a/B.java", 3, "c3")]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["B"]

    def test_equal_timestamps_break_ties_by_commit_id(self):
        events = [_event("a/B.java", 7, "z"), _event("a/B.java", 7, "a")]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert [e.commit_id for e in histories["B"].events] == ["a", "z"]
        assert histories["B"].timestamps == array("q", [7, 7]) and histories["B"].commits == ("a", "z")

    def test_non_class_files_are_dropped(self):
        events = [_event("README.md", 1, "c1"), _event("a/B.java", 1, "c2")]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["B"]

    def test_timestamps_non_decreasing_on_random_inputs(self):
        rng = random.Random(11)
        paths = ["a/B.java", "a/C.java", "b/D.java"]
        events = [
            _event(rng.choice(paths), rng.randint(1, 500), f"c{i}") for i in range(120)
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a", "b")))
        for history in histories.values():
            stamps = [e.timestamp for e in history.events]
            assert stamps == sorted(stamps)
            assert history.timestamps.tolist() == sorted(history.timestamps)

    def test_consolidate_is_idempotent(self):
        rng = random.Random(13)
        events = [
            _event(rng.choice(["a/B.java", "a/C.java"]), rng.randint(1, 99), f"c{i}")
            for i in range(60)
        ]
        events.append(_event("a/C2.java", 100, "r1", renamed_from="a/C.java"))
        cfg = SourceRootConfig(roots=("a",))
        once = _consolidate(events, cfg)
        flattened = [e for h in once.values() for e in h.events]
        twice = _consolidate(flattened, cfg)
        assert once == twice

    def test_union_semantics_on_merged_histories(self):
        cfg = SourceRootConfig(roots=("p", "q"))
        group_a = [_event("p/X.java", t, f"a{t}") for t in (1, 2, 3)]
        group_b = [_event("q/X.java", t, f"b{t}") for t in (2, 4)]
        merged = _consolidate(group_a + group_b, cfg)["X"]
        keys = {(e.commit_id, e.path) for e in group_a} | {(e.commit_id, e.path) for e in group_b}
        assert len(merged.events) == len(keys)

    def test_long_rename_chain_listed_oldest_first_is_one_class(self):
        cfg = SourceRootConfig(roots=("a",))
        events = [_event("a/C0.java", 1, "c0")] + [
            _event(f"a/C{i}.java", i + 1, f"c{i}", renamed_from=f"a/C{i - 1}.java")
            for i in range(1, 3001)
        ]
        histories = _consolidate(events, cfg)
        assert list(histories) == ["C3000"]
        assert len(histories["C3000"].events) == 3001
        assert histories["C3000"].timestamps == array("q", range(1, 3002))
        assert histories["C3000"].paths == tuple(f"a/C{i}.java" for i in range(3001))

    def test_each_distinct_path_is_resolved_once(self, monkeypatch):
        calls = []
        resolve = change_history.path_to_class

        def counting_resolve(path, cfg):
            calls.append(path)
            return resolve(path, cfg)

        monkeypatch.setattr(change_history, "path_to_class", counting_resolve)
        events = [
            _event(path, ts, f"c{ts}", renamed_from="a/Old.java" if path == "a/New.java" else None)
            for ts, path in enumerate(["a/B.java", "README.md", "a/B.java", "a/New.java",
                                       "README.md", "a/C.java", "a/B.java"], start=1)
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert sorted(histories) == ["B", "C", "New"]
        assert sorted(calls) == ["README.md", "a/B.java", "a/C.java", "a/New.java"]

    def test_rename_source_without_events_is_not_merged_by_class_id(self):
        # src/test/java/a/Foo.java resolves to the same class id as the main
        # Foo, but has no events: it links only to what it was renamed to.
        cfg = SourceRootConfig(roots=("src/main/java", "src/test/java"))
        events = [
            _event("src/main/java/a/Foo.java", 1, "c1"),
            _event("src/main/java/b/Bar.java", 2, "c2", renamed_from="src/test/java/a/Foo.java"),
        ]
        histories = _consolidate(events, cfg)
        assert sorted(histories) == ["a.Foo", "b.Bar"]

    # The next four pin the exact events and key order of a history where the
    # order cannot follow from the timestamps alone.
    def test_one_commit_on_both_paths_of_a_renamed_class_keeps_input_order(self):
        events = [
            _event("a/C.java", 9, "c9"),
            _event("a/Old.java", 1, "c0"),
            _event("a/New.java", 2, "c1", renamed_from="a/Old.java"),
            _event("a/New.java", 3, "c2", add=4),
            _event("a/Old.java", 3, "c2", add=5),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["C", "Old"]
        assert histories["Old"].events == (
            ChangeEvent("a/Old.java", 1, 1, 0, 0, "c0"),
            ChangeEvent("a/New.java", 2, 1, 0, 0, "c1", "a/Old.java"),
            ChangeEvent("a/New.java", 3, 4, 0, 0, "c2"),
            ChangeEvent("a/Old.java", 3, 5, 0, 0, "c2"),
        )
        assert histories["C"].events == (ChangeEvent("a/C.java", 9, 1, 0, 0, "c9"),)
        assert _columns(histories["Old"]) == (
            [1, 2, 3, 3], ("c0", "c1", "c2", "c2"), ("a/Old.java", "a/New.java", "a/New.java", "a/Old.java"),
            [1, 1, 4, 5], {1: "a/Old.java"},
        )
        assert _columns(histories["C"]) == ([9], ("c9",), ("a/C.java",), [1], {})

    def test_equal_timestamps_order_commit_ids_against_input_order(self):
        events = [
            _event("a/B.java", 5, "c3", add=1),
            _event("a/B.java", 5, "c2", add=2),
            _event("a/B.java", 4, "c9", add=3),
            _event("a/B.java", 5, "c1", add=4),
            _event("a/B.java", 6, "c0", add=5),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["B"]
        assert histories["B"].events == (
            ChangeEvent("a/B.java", 4, 3, 0, 0, "c9"),
            ChangeEvent("a/B.java", 5, 4, 0, 0, "c1"),
            ChangeEvent("a/B.java", 5, 2, 0, 0, "c2"),
            ChangeEvent("a/B.java", 5, 1, 0, 0, "c3"),
            ChangeEvent("a/B.java", 6, 5, 0, 0, "c0"),
        )
        assert _columns(histories["B"]) == (
            [4, 5, 5, 5, 6], ("c9", "c1", "c2", "c3", "c0"), ("a/B.java",) * 5, [3, 4, 2, 1, 5], {},
        )

    def test_a_repeated_commit_path_line_keeps_the_first_event_in_a_renamed_class(self):
        events = [
            _event("a/D.java", 2, "c1", add=1),
            _event("a/E.java", 3, "c2", renamed_from="a/D.java", add=2),
            _event("a/D.java", 2, "c1", add=3),
            _event("a/E.java", 1, "c2", renamed_from="a/D.java", add=4),
            _event("a/B.java", 1, "c1", add=5),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["E", "B"]
        assert histories["E"].events == (
            ChangeEvent("a/D.java", 2, 1, 0, 0, "c1"),
            ChangeEvent("a/E.java", 3, 2, 0, 0, "c2", "a/D.java"),
        )
        assert histories["B"].events == (ChangeEvent("a/B.java", 1, 5, 0, 0, "c1"),)
        assert _columns(histories["E"]) == ([2, 3], ("c1", "c2"), ("a/D.java", "a/E.java"), [1, 2], {1: "a/D.java"})
        assert _columns(histories["B"]) == ([1], ("c1",), ("a/B.java",), [5], {})

    def test_a_newest_first_log_is_reversed(self):
        events = [
            _event("a/New.java", 4, "c4", add=4),
            _event("a/C.java", 3, "c9"),
            _event("a/New.java", 3, "c3", renamed_from="a/Old.java", add=3),
            _event("a/Old.java", 2, "c2", add=2),
            _event("a/Old.java", 1, "c1", add=1),
        ]
        histories = _consolidate(events, SourceRootConfig(roots=("a",)))
        assert list(histories) == ["New", "C"]
        assert _columns(histories["New"]) == (
            [1, 2, 3, 4], ("c1", "c2", "c3", "c4"), ("a/Old.java", "a/Old.java", "a/New.java", "a/New.java"),
            [1, 2, 3, 4], {2: "a/Old.java"},
        )
        assert histories["New"].events == tuple(reversed([events[0], *events[2:]]))

    def test_consolidate_of_a_generator(self):
        events = [
            _event("a/C.java", 3, "c3"),
            _event("README.md", 1, "c1"),
            _event("a/B.java", 2, "c2"),
            _event("a/C.java", 1, "c1"),
        ]
        lines = jsonl_lines(events)
        histories = consolidate(parse_change_log(line for line in lines), SourceRootConfig(roots=("a",)))
        assert list(histories) == ["C", "B"]
        assert histories["C"].events == (
            ChangeEvent("a/C.java", 1, 1, 0, 0, "c1"),
            ChangeEvent("a/C.java", 3, 1, 0, 0, "c3"),
        )
        assert histories["B"].events == (ChangeEvent("a/B.java", 2, 1, 0, 0, "c2"),)
        assert _columns(histories["C"]) == ([1, 3], ("c1", "c3"), ("a/C.java", "a/C.java"), [1, 1], {})
        assert _columns(histories["B"]) == ([2], ("c2",), ("a/B.java",), [1], {})

    def test_a_rename_source_on_every_event_is_matched_in_one_pass(self):
        """20k events of one file, each naming a rename source: finding each event's row by a
        scan of the history would take about 2e8 comparisons, seconds rather than milliseconds."""
        events = [_event("a/New.java", ts, f"c{ts}", renamed_from="a/Old.java") for ts in range(1, 20_001)]
        log = parse_change_log(jsonl_lines(events))
        started = time.process_time()
        histories = consolidate(log, SourceRootConfig(roots=("a",)))
        elapsed = time.process_time() - started
        assert histories["New"].renames == dict.fromkeys(range(20_000), "a/Old.java")
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a/B.java", "a/C.java", "b/B.java", "b/D.java", "README.md"]),
                st.sampled_from([None, "a/B.java", "a/Old.java", "b/D.java", "notes.txt"]),
            ),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_of_events_with_distinct_commits_and_times_does_not_matter(self, drawn, rng):
        cfg = SourceRootConfig(roots=("a", "b"))
        events = [
            _event(path, ts, f"c{ts}", renamed_from=source)
            for ts, (path, source) in enumerate(drawn, start=1)
        ]
        shuffled = list(events)
        rng.shuffle(shuffled)
        assert _consolidate(shuffled, cfg) == _consolidate(events, cfg)


class TestClassHistory:
    def test_equal_timestamps_are_accepted(self):
        events = (_event("a/B.java", 5, "c2"), _event("a/B.java", 5, "c1"), _event("a/B.java", 6, "c0"))
        history = _consolidate(events, SourceRootConfig(roots=("a",)))["B"]
        assert history.events == (events[1], events[0], events[2])
        assert _columns(history) == ([5, 5, 6], ("c1", "c2", "c0"), ("a/B.java",) * 3, [1, 1, 1], {})
        assert class_history("B", history.events) == history

    def test_columns_are_arrays_of_the_counts(self):
        events = (ChangeEvent("a/B.java", 5, 3, 2, 1, "c1"), ChangeEvent("a/C.java", 9, 0, 0, 0, "c2", "a/B.java"))
        (history,) = _consolidate(events, SourceRootConfig(roots=("a",))).values()
        assert history.class_id == "C" and history.events == events
        counts = (history.timestamps, history.added, history.deleted, history.modified)
        assert [column.typecode for column in counts] == ["q"] * 4
        assert (history.deleted, history.modified) == (array("q", [2, 0]), array("q", [1, 0]))
        assert history.renames == {1: "a/B.java"}
        with pytest.raises(TypeError):
            hash(history)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a/B.java", "a/C.java", "b/B.java", "b/D.java", "README.md"]),
                st.sampled_from([None, "a/B.java", "a/Old.java", "b/D.java"]),
                st.integers(1, 6),
                st.sampled_from(["c1", "c2", "c3"]),
            ),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_consolidate_over_shuffled_events_yields_histories_that_construct(self, drawn, rng):
        events = [_event(path, ts, commit, renamed_from=source) for path, source, ts, commit in drawn]
        rng.shuffle(events)
        for class_id, history in _consolidate(events, SourceRootConfig(roots=("a", "b"))).items():
            assert history.timestamps.tolist() == sorted(history.timestamps)
            assert class_history(class_id, history.events) == history


class TestChangeLog:
    EVENTS = [
        _event("a/B.java", 5, "c1"),
        _event("README.md", 4, "c1"),
        _event("a/C.java", 3, "c2", renamed_from="a/Old.java"),
        _event("a/B.java", 3, "c2", add=7),
        _event("a/B.java", 3, "c2"),
    ]

    def test_iterates_the_events_of_every_path_in_input_order(self):
        log = parse_change_log(jsonl_lines(self.EVENTS))
        assert len(log) == 5 and list(log) == self.EVENTS
        assert list(log.columns) == ["a/B.java", "README.md", "a/C.java"]
        assert log.columns["a/B.java"] == array("q", [1, 5, 1, 0, 0, 0, 4, 3, 7, 0, 0, 1, 5, 3, 1, 0, 0, 1])
        assert log.commits == ["c1", "c2"]
        assert log.renames == {"a/C.java": {3: "a/Old.java"}}

    def test_consolidate_empties_the_log_it_is_given(self):
        log = parse_change_log(jsonl_lines(self.EVENTS))
        histories = consolidate(log, SourceRootConfig(roots=("a",)))
        assert (len(log), log.columns, log.commits, log.renames) == (0, {}, [], {})
        assert _columns(histories["B"]) == ([3, 5], ("c2", "c1"), ("a/B.java",) * 2, [7, 1], {})
        assert _columns(histories["C"]) == ([3], ("c2",), ("a/C.java",), [1], {0: "a/Old.java"})

    def test_a_parsed_log_and_the_log_of_its_events_differ_only_in_the_positions(self):
        text = "COMMIT c1 5\n1\t2\ta/B.java\n\nCOMMIT c2 6\n3\t4\ta/{Old => New}/C.java\n"
        log = parse_git_numstat(io.StringIO(text))
        again = parse_change_log(jsonl_lines(log))
        assert list(again) == list(log)
        assert log.renames == {"a/New/C.java": {5: "a/Old/C.java"}}
        assert again.renames == {"a/New/C.java": {2: "a/Old/C.java"}}
        assert [column[0::6] for column in log.columns.values()] == [array("q", [2]), array("q", [5])]
        assert [column[0::6] for column in again.columns.values()] == [array("q", [1]), array("q", [2])]
        assert [column[1:] for column in log.columns.values()] == [
            column[1:] for column in again.columns.values()
        ]


# Paths of two classes under two roots (a/B.java and b/B.java are one class),
# a rename chain a/Old.java -> a/C.java -> a/New.java, files that are no class,
# and few timestamps and commits, so that ties and repeated (commit, path) pairs are common.
_PATHS = ["a/B.java", "b/B.java", "a/C.java", "a/Old.java", "a/New.java", "README.md", "a/.java"]
_SOURCES = [None, "a/Old.java", "a/C.java", "a/B.java", "b/B.java", "notes.txt"]
_drawn_logs = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(_PATHS), st.sampled_from(_SOURCES), st.integers(1, 4),
            st.sampled_from(["c1", "c2", "c3"]), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
        ),
        max_size=25,
    ),
    st.sampled_from(["as drawn", "oldest first", "newest first"]),
)
# One commit at one instant on both paths of class B, before an older change of B:
# the order of the first two decides the running sums of the extent weights.
_TIED_ACROSS_PATHS = (
    [("b/B.java", None, 2, "c1", 3, 0, 0), ("a/B.java", None, 2, "c1", 1, 0, 0), ("a/B.java", None, 1, "c2", 2, 0, 0)],
    "as drawn",
)
# Two commits of one path at one instant, in commit-id order, then a later one: in order
# already, yet the equal timestamps send the group through the sort.
_TIED_IN_ORDER = (
    [("a/A.java", None, 2, "c1", 1, 0, 0), ("a/A.java", None, 2, "c2", 2, 0, 0), ("a/A.java", None, 3, "c3", 3, 0, 0)],
    "as drawn",
)


def _ordered(drawn, order):
    if order == "as drawn":
        return drawn
    return sorted(drawn, key=lambda row: row[2], reverse=order == "newest first")


class TestColumnsAgainstTheEventOracle:
    """The columns of ``consolidate(parse(...))`` equal those of the events the one-event-at-a-time
    oracle keeps, from the oracle parser's events, and its ``events`` view equals those events."""

    CFG = SourceRootConfig(roots=("a", "b"))

    def _assert_agrees(self, log, reference_events):
        histories = consolidate(log, self.CFG)
        expected = reference_consolidate(reference_events, self.CFG)
        assert list(histories) == list(expected)
        for class_id, events in expected.items():
            history = histories[class_id]
            columns = history_columns(events)
            assert history.class_id == class_id
            assert {name: getattr(history, name) for name in ("renames",)} == {"renames": columns.pop("renames")}
            assert {name: list(getattr(history, name)) for name in columns} == columns
            assert history.events == events

    @settings(max_examples=300, deadline=None)
    @given(_drawn_logs)
    @example(_TIED_ACROSS_PATHS)
    @example(_TIED_IN_ORDER)
    def test_jsonl(self, drawn_log):
        lines = jsonl_lines(
            ChangeEvent(path, ts, add, dele, mod, commit, source)
            for path, source, ts, commit, add, dele, mod in _ordered(*drawn_log)
        )
        self._assert_agrees(parse_change_log(lines), reference_change_log(lines))

    @settings(max_examples=300, deadline=None)
    @given(_drawn_logs)
    @example(_TIED_ACROSS_PATHS)
    @example(_TIED_IN_ORDER)
    def test_numstat(self, drawn_log):
        lines = []
        for path, source, ts, commit, add, dele, _ in _ordered(*drawn_log):
            lines += [f"COMMIT {commit} {ts}", f"{add}\t{dele}\t" + (f"{source} => {path}" if source else path)]
        self._assert_agrees(parse_git_numstat(lines), reference_numstat(lines))


def test_consolidated_histories_hold_a_bounded_number_of_bytes_per_event():
    """A numstat log of 20k events, 4 per commit, over 400 classes with renames: what the
    histories hold once ``consolidate`` has returned and the log is dropped, commit ids
    included. With one ChangeEvent per event, in a list, this log held about 150 B per event."""
    rng = random.Random(5)
    classes = [f"p{index % 9}/C{index}.java" for index in range(400)]
    timestamp, lines = 1_600_000_000, []
    for _ in range(5_000):
        timestamp += rng.randrange(1, 7_200)
        lines.append(f"COMMIT {rng.getrandbits(160):040x} {timestamp}")
        for index in rng.sample(range(400), 4):
            path = f"src/main/java/{classes[index]}"
            if rng.random() < 0.02:
                classes[index] = f"q{rng.randrange(9)}/C{index}.java"
                path = f"{path} => src/main/java/{classes[index]}"
            lines.append(f"{rng.randrange(10)}\t{rng.randrange(10)}\t{path}")
    gc.collect()
    tracemalloc.start()
    try:
        log = parse_git_numstat(lines)
        events = len(log)
        histories = consolidate(log, CFG)
        del log
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events == 20_000 and len(histories) == 400
    assert held / events < BYTES_PER_EVENT, f"{held / events:.1f} B per event"


def test_consolidating_again_holds_no_more_memory_than_before():
    """Histories freed after one consolidate leave nothing behind for the next: 200 renamed
    classes of 12 events each, where a tuple resized while it grew would stay on a free list."""
    lines = []
    for index in range(200):
        lines += [f"COMMIT c{index}-{day} {day}\n1\t2\tsrc/main/java/a/C{index}.java\n" for day in range(1, 7)]
        lines.append(f"COMMIT r{index} 7\n0\t0\tsrc/main/java/a/C{index}.java => src/main/java/b/C{index}.java\n")
        lines += [f"COMMIT d{index}-{day} {day}\n1\t2\tsrc/main/java/b/C{index}.java\n" for day in range(8, 13)]
    lines = "".join(lines).splitlines()

    def consolidated():
        histories = consolidate(parse_git_numstat(lines), CFG)
        assert len(histories) == 200 and {len(history.commits) for history in histories.values()} == {12}

    consolidated()
    gc.collect()
    tracemalloc.start()
    try:
        consolidated()
        held, _ = tracemalloc.get_traced_memory()
        for _ in range(2):
            consolidated()
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert grown < 10_000, f"{grown} B more after two more runs"


class TestChangeEventInvariants:
    """Events come only from the parsers, and both reject what the record's fields may not hold."""

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative line count at line 1"):
            _parse_jsonl('{"path":"a","ts":1,"add":0,"del":-2,"mod":0,"commit":"c"}')
        with pytest.raises(ValueError, match="line 2"):
            parse_git_numstat(io.StringIO("COMMIT c 1\n0\t-2\ta\n"))

    def test_non_positive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="field 'ts' must be a positive integer at line 1"):
            _parse_jsonl('{"path":"a","ts":0,"add":0,"del":0,"mod":0,"commit":"c"}')
        with pytest.raises(ValueError, match="commit timestamp must be positive at line 1"):
            parse_git_numstat(io.StringIO("COMMIT c 0\n0\t0\ta\n"))


class TestChangeEventRecord:
    FIELDS = ("src/A.java", 1000, 3, 2, 1, "c1", "src/Old.java")

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = ChangeEvent(
            path="src/A.java", timestamp=1000, added=3, deleted=2, modified=1,
            commit_id="c1", renamed_from="src/Old.java",
        )
        assert by_keyword == ChangeEvent(*self.FIELDS)
        assert ChangeEvent(*self.FIELDS[:6]).renamed_from is None

    def test_indexes_unpacks_and_sorts_by_its_fields(self):
        event = ChangeEvent(*self.FIELDS)
        path, timestamp, *_ = event
        assert (path, timestamp, event[2]) == ("src/A.java", 1000, 3)
        later = event._replace(timestamp=2000)
        assert sorted([later, event]) == [event, later]

    def test_is_immutable(self):
        event = ChangeEvent(*self.FIELDS)
        with pytest.raises(AttributeError):
            event.added = 5
        with pytest.raises(AttributeError):
            event.extra = 5

    def test_pickle_round_trip(self):
        event = ChangeEvent(*self.FIELDS)
        copy = pickle.loads(pickle.dumps(event))
        assert copy == event and type(copy) is ChangeEvent

    @pytest.mark.parametrize("fmt", ["jsonl", "numstat"])
    def test_parsed_records_equal_constructed_ones(self, fmt):
        if fmt == "jsonl":
            line = '{"path":"src/A.java","ts":1000,"add":3,"del":2,"mod":0,"commit":"c1","renamed_from":"src/Old.java"}'
            (parsed,) = _parse_jsonl(line)
        else:
            (parsed,) = parse_git_numstat(io.StringIO("COMMIT c1 1000\n3\t2\tsrc/Old.java => src/A.java\n"))
        built = ChangeEvent("src/A.java", 1000, 3, 2, 0, "c1", "src/Old.java")
        assert type(parsed) is ChangeEvent
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
