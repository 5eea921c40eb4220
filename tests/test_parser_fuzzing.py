"""Parsers fed arbitrary lines raise ParseError and nothing else.

Each strategy mixes fully arbitrary text and bytes with lines assembled
from the format's own tokens, so that inputs get past the first checks
and reach the later ones: integers past Python's string-conversion
limit, wrong field types, rename syntax, descriptors and tags. The
numstat and ``callgraph-text`` parsers must also agree with the reference
grammars of ``oracles.py``: equal records, or a ParseError at the same line.
Mutated outcome files given to ``riskmin compare`` end in a documented exit
code, never in a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin import cli
from riskmin.change_history import ChangeEvent, parse_change_log, parse_git_numstat
from riskmin.dependency_graph import FORMAT_CALLGRAPH_TEXT, FORMAT_CSV, MethodRef, parse_callgraph_edges
from riskmin.errors import ParseError

from oracles import reference_callgraph_text, reference_numstat

_digits = st.one_of(
    st.integers(min_value=-5, max_value=10**12).map(str),
    st.integers(min_value=4290, max_value=4310).map(lambda n: "9" * n),  # around the limit
)
_words = st.text(alphabet="ab.:#()/{}=> \t-,MIOSDQC", max_size=12)


def _line(pieces):
    """A line joined from drawn pieces, as str or as UTF-8 bytes, or an arbitrary one."""
    joined = st.lists(pieces, max_size=8).map("".join)
    return st.one_of(
        joined,
        joined.map(str.encode),
        st.text(max_size=40),
        st.binary(max_size=40),
    )


_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(max_size=4), children, max_size=3)
    ),
    max_leaves=6,
)
_FIELDS = ("path", "ts", "add", "del", "mod", "commit", "renamed_from")
_record = st.dictionaries(st.sampled_from(_FIELDS), _json_value, max_size=len(_FIELDS)).map(
    lambda record: json.dumps(record, allow_nan=True)
)
_jsonl_piece = st.one_of(_record, _digits, _words, st.sampled_from(['{"ts":', "}", "[", "]", ",", '"']))

_numstat_piece = st.one_of(
    st.just("COMMIT "), _digits, _words, st.sampled_from(["\t", "-", " => ", "src/A.java", "\n"])
)
_text_piece = st.one_of(
    st.just("M:"), st.just("C:"), _words, st.sampled_from(["a.T:t", "(M)", "(Q)", " ", "(int)"])
)
_csv_piece = st.one_of(_words, st.sampled_from(["a.T#t", ",", "#", "a.F#b"]))


def _assert_only_parse_error(parse, lines):
    try:
        parse(lines)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(_jsonl_piece), max_size=6))
def test_change_log_jsonl_raises_only_parse_error(lines):
    _assert_only_parse_error(parse_change_log, lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(_numstat_piece), max_size=6))
def test_change_log_numstat_raises_only_parse_error(lines):
    _assert_only_parse_error(parse_git_numstat, lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(_text_piece), max_size=6))
def test_callgraph_text_raises_only_parse_error(lines):
    _assert_only_parse_error(lambda ls: parse_callgraph_edges(ls, FORMAT_CALLGRAPH_TEXT), lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(_csv_piece), max_size=6))
def test_callgraph_csv_raises_only_parse_error(lines):
    _assert_only_parse_error(lambda ls: parse_callgraph_edges(ls, FORMAT_CSV), lines)


# Near-valid lines for the differential properties: most lines are
# well-formed; in the others one part is odd, with the characters where
# a hand-written scanner could part from a regex (Unicode digits and spaces,
# embedded line breaks, tabs in paths, numbers at the bound and past it).
def _mostly(valid, odd):
    """``valid`` three times in four (the choice avoids 0 and 7, which Hypothesis favours)."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda k: odd if k in (2, 5) else valid)


def _near_valid_line(build, *parts):
    """``build`` over valid parts, or (one time in four) with one of them odd."""

    def one_odd(index):
        return st.tuples(*(odd if i == index else valid for i, (valid, odd) in enumerate(parts)))

    noisy = st.integers(min_value=0, max_value=len(parts) - 1).flatmap(one_odd)
    return _mostly(st.tuples(*(valid for valid, _ in parts)), noisy).map(lambda drawn: build(*drawn))


def _lines_opened_by(first, line):
    """Lists that mostly open with ``first`` (a commit header, a method edge)."""
    rest = st.lists(line, min_size=1, max_size=6)
    return st.tuples(_mostly(first, line), rest).map(lambda drawn: [drawn[0], *drawn[1]])


_count = (
    st.one_of(st.integers(min_value=0, max_value=999).map(str), st.just("-")),
    st.sampled_from(["", "+1", " 1", "٣", "²", "1_0", "0" * 25 + "7", str(2**63 - 1), str(2**63), "9" * 4301]),
)
_end = (st.sampled_from(["", "\n"]), st.sampled_from(["\n\n", " ", "\t", "\r\n"]))
_header = _near_valid_line(
    lambda sep, commit, ts, end: "COMMIT" + sep + commit + sep + ts + end,
    (st.just(" "), st.sampled_from(["\t", "  ", "\u2003", ""])),
    (st.sampled_from(["abc", "d3f"]), st.sampled_from(["", "a b"])),
    (st.integers(min_value=1, max_value=2**40).map(str), st.one_of(*_count)),
    _end,
)
_file_line = _near_valid_line(
    lambda added, sep, deleted, sep2, path, end: added + sep + deleted + sep2 + path + end,
    _count,
    (st.just("\t"), st.sampled_from([" ", "\t\t"])),
    _count,
    (st.just("\t"), st.just(" ")),
    (
        st.sampled_from(["src/A.java", "src/B.java", "src/{old => new}/A.java", "src/{ => x}/B.java",
                         "a/Old.java => a/New.java"]),
        st.sampled_from(["", " ", "a\tb.java", "a\nb.java", "a\rb", "x=>y", "{a => b}\n"]),
    ),
    _end,
)
_numstat_line = _mostly(
    st.one_of(_file_line, _file_line, _header), st.one_of(_line(_numstat_piece), st.sampled_from(["", " \n", "\x1c"]))
)
_numstat_lines = _lines_opened_by(_header, _numstat_line)

_token = (
    st.sampled_from(["a.T:t", "a.Foo:bar(int,int)", "a.B:<init>()", "a.C:c"]),
    st.one_of(st.sampled_from([":m", "a.C:", "nocolon", "a:b:c", "a:(x)", "a:b(", "a:b)"]), _words),
)
_text_edge = _near_valid_line(
    lambda prefix, caller, space, tag, callee, end: prefix + caller + space + "(" + tag + ")" + callee + end,
    (st.just("M:"), st.sampled_from(["C:", "m:", " M:", ""])),
    _token,
    (st.just(" "), st.sampled_from(["\t", "  ", "\u2003", "\x1c", ""])),
    (st.sampled_from("MIOSD"), st.sampled_from(["Q", "_", "٣", "é", "-", " ", "MM", ""])),
    _token,
    _end,
)
_text_lines = _lines_opened_by(_text_edge, _mostly(_text_edge, _line(_text_piece)))


def _outcome(parse, lines):
    """The parse result, or the line and message of its ParseError."""
    try:
        return parse(lines), None
    except ParseError as exc:
        return None, (exc.line, str(exc))


@settings(max_examples=400, deadline=None)
@given(_numstat_lines)
def test_numstat_parser_agrees_with_the_reference_grammar(lines):
    events, error = _outcome(parse_git_numstat, lines)
    assert (events, error) == _outcome(reference_numstat, lines)
    for event in events or ():
        assert type(event) is ChangeEvent
        assert hash(event) == hash(ChangeEvent(*event))


@settings(max_examples=400, deadline=None)
@given(_text_lines)
def test_callgraph_text_parser_agrees_with_the_reference_grammar(lines):
    _assert_callgraph_text_agrees(lines)


def _assert_callgraph_text_agrees(lines):
    graph, error = _outcome(lambda ls: parse_callgraph_edges(ls, FORMAT_CALLGRAPH_TEXT), lines)
    edges, reference_error = _outcome(reference_callgraph_text, lines)
    assert error == reference_error
    if graph is not None:
        expected = {}
        for caller, callee in edges:
            expected.setdefault(caller, set()).add(callee)
            expected.setdefault(callee, set())
        assert {node: set(graph.successors(node)) for node in graph.nodes()} == expected
        assert graph.edge_count == sum(len(targets) for targets in expected.values())
        assert all(type(node) is MethodRef for node in graph.nodes())


# Each line where a hand-written scanner could most easily part from the
# reference grammar, checked on every run, after a header and on its own.
_TRICKY_NUMSTAT_LINES = [
    "1\t2\tsrc/A.java", "-\t-\tx", "-\t5\tx", "5\t-\tx", "-\t" + "9" * 4301 + "\tx", "\t1\tx", "1\t\tx",
    "1\t2\t", "1\t2\t ", "1\t2", "1 2\tx", "+1\t2\tx", " 1\t2\tx", "1 \t2\tx", "٣\t٤\tsrc/A.java",
    "３\t1\tx", "²\t1\tx", "1\t²\tx", "1_0\t1\tx", "1\t2\ta\nb", "1\t2\ta\rb", "1\t2\ta\tb", "1\t2\tx\n\n",
    f"{2**63 - 1}\t0\tx", f"{2**63}\t0\tx", f"0\t{2**63}\tx", "0" * 25 + "7\t1\tx", "9" * 4301 + "\t1\tx",
    "1\t2\tsrc/{old => new}/A.java", "1\t2\tsrc/{ => x}/B.java", "1\t2\ta => b", "1\t2\tx=>y",
    "1\t2\t{a => b}", "\x1c", " ", " \n", "COMMIT", "COMMIT abc", "COMMIT abc 0", f"COMMIT abc {2**63}",
    f"COMMIT abc {2**63 - 1}", "COMMIT\tabc\t5", "COMMIT abc 5", "COMMITabc 5", "COMMIT abc 5 x",
    "COMMIT abc ٣", "COMMIT abc 5\n\r", "COMMIT a\n5",
    # commit headers: Unicode digits and spaces, COMMITx, trailing whitespace,
    # a missing or an extra token, an over-long, zero or signed timestamp
    "COMMIT abc ٣٤", "COMMIT abc ３", "COMMIT abc ²", "COMMIT abc 5²", "COMMIT abc 1_0", "COMMIT abc 0x5",
    "COMMIT\u2003abc\u00a05", "COMMIT\x1cabc\x1f5", "COMMIT\x85abc 5", "COMMIT abc\u200b5", "COMMIT\u200babc 5",
    "COMMITx abc 5", "COMMITX", "COMMIT5", "COMMIT abc 5 ", "COMMIT abc 5\t\u3000", "COMMIT abc 5\x0c",
    "COMMIT 5", "COMMIT  ", "COMMIT abc 5 6", "COMMIT a b 5", "COMMIT abc " + "9" * 4301,
    "COMMIT abc " + "0" * 30 + "7", "COMMIT abc 000", "COMMIT abc -5", "COMMIT abc +5", "COMMIT abc 5.0",
]
_TRICKY_TEXT_EDGES = [
    "M:a.T:t (M)a.F:b", "M:a.T:t\t(M)a.F:b", "M:a.T:t (M)a.F:b", "M:a.T:t\x1c(M)a.F:b", "M:a.T:t\n(M)a.F:b",
    "M:a.T:t(M)a.F:b", "M: a.T:t (M)a.F:b", "M:a.T:t (M) a.F:b", "M:a.T:t (Q)a.F:b", "M:a.T:t (_)a.F:b",
    "M:a.T:t (٣)a.F:b", "M:a.T:t (é)a.F:b", "M:a.T:t (-)a.F:b", "M:a.T:t (MM)a.F:b", "M:a.T:t ()a.F:b",
    "M::t (M)a.F:b", "M:a.T: (M)a.F:b", "M:a.T (M)a.F:b", "M:a:b:c (M)x:y", "M:a.T:t(int) (M)a.F:b(x)",
    "M:a.T:t( (M)a.F:b)", "M:a.T:(x) (M)a.F:b", "M:a.T:t()x)( (M)a.F:b((int))", "C:anything at all", "m:a.T:t (M)a.F:b", "M:a.T:t (M)a.F:b\nx",
]


@pytest.mark.parametrize("line", _TRICKY_NUMSTAT_LINES)
def test_numstat_parser_agrees_with_the_reference_grammar_on_tricky_lines(line):
    for lines in (["COMMIT abc 5\n", line + "\n"], [line]):
        assert _outcome(parse_git_numstat, lines) == _outcome(reference_numstat, lines)


@pytest.mark.parametrize("line", _TRICKY_TEXT_EDGES)
def test_callgraph_text_parser_agrees_with_the_reference_grammar_on_tricky_lines(line):
    for lines in (["M:a.T:t (M)a.F:b\n", line + "\n"], [line]):
        _assert_callgraph_text_agrees(lines)


# Outcome files as ``evaluate`` writes them, then mutated: odd values in any
# field (over-long, NUL, non-finite or out-of-range accuracies, unknown
# ``detected`` values), repeated rows, missing columns or fields, and bytes
# that are not UTF-8 anywhere in the file.
_OUTCOME_HEADER = ["version_id", "accuracy", "detected", "wall_time_s"]
_odd_field = st.one_of(
    st.sampled_from([
        "nan", "NaN", "inf", "-inf", "1e309", "7", "-3", "1.0000001", "-0.0", "yes", "", " TRUE ", "t",
        "2", "0", "1", "a\x00b", "\"", "1" * 140_000,
    ]),
    st.text(max_size=6),
)


@st.composite
def _outcome_file(draw, version_ids):
    table = [list(_OUTCOME_HEADER)] + [
        [version_id, repr(draw(st.floats(0, 1))), draw(st.sampled_from(["true", "false", "1", "0"])), "0.01"]
        for version_id in version_ids
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field", "field", "repeat", "drop_column", "drop_field"]))
        row = table[draw(st.integers(0, len(table) - 1))]
        if kind == "field" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_odd_field)
        elif kind == "repeat":
            table.append(list(row))
        elif kind == "drop_column":
            column = draw(st.integers(0, len(_OUTCOME_HEADER) - 1))
            table = [[field for i, field in enumerate(r) if i != column] for r in table]
        elif kind == "drop_field" and row:
            row.pop()
    data = "".join(",".join(r) + "\n" for r in table).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3", b"\x00"])) + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compare_of_mutated_outcome_files_exits_0_3_or_5(data):
    version_ids = data.draw(st.lists(st.sampled_from(["v1", "v2", "v3", "v4"]), min_size=1, unique=True))
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        a, b = Path(directory, "a.csv"), Path(directory, "b.csv")
        a.write_bytes(data.draw(_outcome_file(version_ids)))
        b.write_bytes(data.draw(_outcome_file(version_ids)))
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["compare", str(a), str(b), "--output", directory])
    assert code in (0, 3, 5)
    if code == 3:
        assert "a.csv" in stderr.getvalue() or "b.csv" in stderr.getvalue()
