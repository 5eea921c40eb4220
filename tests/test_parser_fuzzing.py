"""Parsers fed arbitrary lines raise ParseError and nothing else.

Each strategy mixes fully arbitrary text and bytes with lines assembled
from the format's own tokens, so that inputs get past the first checks
and reach the later ones: integers past Python's string-conversion
limit, wrong field types, rename syntax, descriptors and tags. A parser
reads lines of text, so the drawn lines reach it directly as a list when
they are all ``str``, and always written to a file read by the CLI's
reader, ``cli._parse_input``, which is where bytes that are not UTF-8
become a ParseError. The JSONL, numstat and ``callgraph-text`` parsers
must also agree with the references of ``oracles.py`` on the list and on
a UTF-8 text stream of the lines: equal records, the same ParseError
message at the same line, or the same decode error let through.
Mutated outcome files given to ``riskmin compare``, and generated manifests,
labels and flag values given to ``score``, ``minimize``, ``evaluate`` and
``sweep``, end in a documented exit code, never in a traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin import cli
from riskmin.change_history import ChangeEvent, ChangeLog, parse_change_log, parse_git_numstat
from riskmin.dependency_graph import FORMAT_CALLGRAPH_TEXT, FORMAT_CSV, MethodRef, parse_callgraph_edges
from riskmin.errors import ParseError

from oracles import reference_callgraph_text, reference_change_log, reference_numstat

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


def _data(lines):
    """The lines, each ended by one LF, as bytes; a line of bytes goes in as it is."""
    return b"".join(
        (line if isinstance(line, bytes) else line.encode()).removesuffix(b"\n") + b"\n" for line in lines
    )


def _stream(lines):
    """The lines as the UTF-8 text stream the CLI reads. The stream decodes 16 bytes at a time,
    so that a decode error falls within the lines."""
    stream = io.TextIOWrapper(io.BytesIO(_data(lines)), encoding="utf-8", newline=None)
    stream._CHUNK_SIZE = 16
    return stream


def _sources(lines):
    """Makers of the inputs the lines give a parser: the list itself if it holds only ``str``, and ``_stream``."""
    makers = [lambda: _stream(lines)]
    if all(isinstance(line, str) for line in lines):
        makers.insert(0, lambda: lines)
    return makers


def _assert_only_parse_error(parse, lines):
    """``parse`` of lines that are all ``str``, and the CLI's reading of a file of the lines,
    each give records or a ParseError."""
    if all(isinstance(line, str) for line in lines):
        with contextlib.suppress(ParseError):
            parse(lines)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "input")
        path.write_bytes(_data(lines))
        with contextlib.suppress(ParseError):
            cli._parse_input(path, parse)


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

_odd_count = st.one_of(  # the integers at the bounds half of the time
    st.sampled_from([-1, 0, 2**63 - 1, 2**63]),
    st.sampled_from([10**30, True, False, 1.0, -0.0, "1", None, [], math.nan, math.inf]),
)
_JSONL_FIELDS = {
    "path": (st.sampled_from(["src/A.java", "a/B.java", "x"]), st.sampled_from([None, 5, ["x"], {}, True, ""])),
    "ts": (st.integers(1, 2**40), _odd_count),
    "add": (st.integers(0, 999), _odd_count),
    "del": (st.integers(0, 999), _odd_count),
    "mod": (st.integers(0, 999), _odd_count),
    "commit": (st.sampled_from(["c1", "abc", ""]), st.sampled_from([None, 5, [], True, 1.5])),
    "renamed_from": (st.sampled_from([None, "src/Old.java"]), st.sampled_from([5, [], True, {}, ""])),
}
_OPTIONAL_JSONL_FIELDS = ("mod", "renamed_from")


_MISSING = object()


@st.composite
def _jsonl_record_line(draw):
    """A change-event record, in any key order: valid, or with one field odd or missing;
    sometimes with a key given twice, padding, or something after the object."""
    odd_field = draw(st.sampled_from([None, None, None, *_JSONL_FIELDS]))
    fields = []
    for field, (valid, odd) in _JSONL_FIELDS.items():
        if field == odd_field:
            value = draw(st.one_of(st.just(_MISSING), odd))
        elif field in _OPTIONAL_JSONL_FIELDS and draw(st.booleans()):
            value = _MISSING
        else:
            value = draw(valid)
        if value is not _MISSING:
            fields.append((field, value))
    fields = draw(st.permutations(fields))
    if fields and draw(st.integers(0, 7)) == 2:  # a key given twice: the last one counts
        fields.insert(0, (fields[-1][0], draw(_odd_count)))
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in fields) + "}"
    prefix = draw(_mostly(st.just(""), st.sampled_from([" ", "\x1c", "\ufeff", "\t", "\u2003"])))
    suffix = draw(_mostly(st.just(""), st.sampled_from([" ", "\x1c", "\n", "x", "{}", ",", " 1", "]"])))
    return prefix + text + suffix


_jsonl_lines = st.lists(_mostly(_jsonl_record_line(), _line(_jsonl_piece)), min_size=1, max_size=6)

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
    """The parse result (a change log as its events, in input order), the line and message of its
    ParseError, or the stream's decode error let through."""
    try:
        result = parse(lines)
        return (list(result) if isinstance(result, ChangeLog) else result), None
    except ParseError as exc:
        return None, (exc.line, str(exc))
    except UnicodeDecodeError as exc:
        return None, (None, repr(exc))


@settings(max_examples=400, deadline=None)
@given(_numstat_lines)
def test_numstat_parser_agrees_with_the_reference_grammar(lines):
    for source in _sources(lines):
        events, error = _outcome(parse_git_numstat, source())
        assert (events, error) == _outcome(reference_numstat, source())
        assert all(type(event) is ChangeEvent for event in events or ())


@settings(max_examples=400, deadline=None)
@given(_jsonl_lines)
def test_jsonl_parser_agrees_with_the_reference_checks(lines):
    _assert_jsonl_agrees(lines)
    for line in lines:  # each line also on its own, as most lists stop at an odd line
        _assert_jsonl_agrees([line])


def _assert_jsonl_agrees(lines):
    for source in _sources(lines):
        events, error = _outcome(parse_change_log, source())
        assert (events, error) == _outcome(reference_change_log, source())
        assert all(type(event) is ChangeEvent for event in events or ())


@settings(max_examples=400, deadline=None)
@given(_text_lines)
def test_callgraph_text_parser_agrees_with_the_reference_grammar(lines):
    _assert_callgraph_text_agrees(lines)


def _assert_callgraph_text_agrees(lines):
    for source in _sources(lines):
        graph, error = _outcome(lambda ls: parse_callgraph_edges(ls, FORMAT_CALLGRAPH_TEXT), source())
        edges, reference_error = _outcome(reference_callgraph_text, source())
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
    # a byte-order mark before a header, a file line or nothing, and inside a path
    "\ufeffCOMMIT abc 5", "\ufeff1\t2\tx", "\ufeff", "1\t2\t\ufeffx",
]
_TRICKY_TEXT_EDGES = [
    "M:a.T:t (M)a.F:b", "M:a.T:t\t(M)a.F:b", "M:a.T:t (M)a.F:b", "M:a.T:t\x1c(M)a.F:b", "M:a.T:t\n(M)a.F:b",
    "M:a.T:t(M)a.F:b", "M: a.T:t (M)a.F:b", "M:a.T:t (M) a.F:b", "M:a.T:t (Q)a.F:b", "M:a.T:t (_)a.F:b",
    "M:a.T:t (٣)a.F:b", "M:a.T:t (é)a.F:b", "M:a.T:t (-)a.F:b", "M:a.T:t (MM)a.F:b", "M:a.T:t ()a.F:b",
    "M::t (M)a.F:b", "M:a.T: (M)a.F:b", "M:a.T (M)a.F:b", "M:a:b:c (M)x:y", "M:a.T:t(int) (M)a.F:b(x)",
    "M:a.T:t( (M)a.F:b)", "M:a.T:(x) (M)a.F:b", "M:a.T:t()x)( (M)a.F:b((int))", "C:anything at all", "m:a.T:t (M)a.F:b", "M:a.T:t (M)a.F:b\nx",
    "M:\ufeffa.T:t (M)a.F:b", "M:a.T:t (M)\ufeffa.F:b", "\ufeffM:a.T:t (M)a.F:b",
]

_VALID_JSONL = '{"path": "src/A.java", "ts": 5, "add": 1, "del": 2, "mod": 3, "commit": "c"}'


def _jsonl(**raw):
    """A record line whose fields hold the JSON texts given, over a valid record without ``mod``."""
    fields = {"path": '"src/A.java"', "ts": "5", "add": "1", "del": "2", "commit": '"c"', **raw}
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


_TRICKY_JSONL_LINES = [
    _VALID_JSONL, "\ufeff" + _VALID_JSONL, _VALID_JSONL + _VALID_JSONL, _VALID_JSONL + " " + _VALID_JSONL,
    _VALID_JSONL + "x", _VALID_JSONL + ",", _VALID_JSONL + "\x1cx", '{"ts": 1, "ts": 2}',
    '{"ts": 1, "path": "a", "add": 0, "del": 0, "commit": "c", "ts": 2}',
    '{"ts": 0, "path": "a", "add": 0, "del": 0, "commit": "c", "ts": 2}',
    '{"ts": 2, "path": "a", "add": 0, "del": 0, "commit": "c", "ts": 0}',
    _jsonl(add="true"), _jsonl(add="false"), _jsonl(add="1.0"), _jsonl(add="-0"), _jsonl(mod="-0"),
    _jsonl(ts="-0"), _jsonl(add="-0.0"), _jsonl(ts="1.0"), _jsonl(ts="true"), _jsonl(ts="1e3"), _jsonl(add="1E0"),
    _jsonl(add=str(2**63 - 1)), _jsonl(add=str(2**63)), _jsonl(**{"del": str(2**63)}),
    _jsonl(mod=str(2**63 - 1)), _jsonl(mod=str(2**63)), _jsonl(ts=str(2**63 - 1)), _jsonl(ts=str(2**63)),
    _jsonl(add="-1"), _jsonl(**{"del": "-1"}), _jsonl(mod="-1"), _jsonl(ts="-5"),
    _jsonl(add="NaN"), _jsonl(ts="Infinity"), _jsonl(mod="-Infinity"),
    _jsonl(add="1" * 5000), _jsonl(ts="9" * 4301), _jsonl(path="[" * 5000 + "]" * 5000),
    _jsonl(renamed_from="{" * 3000), "[" * 5000 + "]" * 5000, " " + _VALID_JSONL + " ",
    "\x1c" + _VALID_JSONL + "\x1c", "\x1c", " ", "\u2003" + _VALID_JSONL, _VALID_JSONL.replace(", ", ",\x1c"),
    _VALID_JSONL.replace(", ", ",\t"), _jsonl(),
    _jsonl(renamed_from="null"), _jsonl(renamed_from='"src/Old.java"'), _jsonl(renamed_from="5"),
    _jsonl(renamed_from="[]"), _jsonl(path="null"), _jsonl(path="5"), _jsonl(commit="null"), _jsonl(commit="[]"),
    _jsonl(path='"a\\u0000b"'), _jsonl(path='"\\ud800"'), '{"path": "a", "ts": 5, "add": 1, "del": 2}',
    '{"ts": 5, "add": 1, "del": 2, "commit": "c"}', "[]", "5", '"text"', "null", "true", "{", "}", "{}",
    '{"path": "a" "ts": 5}', "{'path': 'a'}", '{"path": "a\tb", "ts": 5, "add": 1, "del": 2, "commit": "c"}',
    # two faults on one line, so that the order of the checks decides the message
    _jsonl(add="-1", ts="0"), _jsonl(mod="true", path="5"), '{"path": "a", "ts": 5, "add": -1, "del": 2}',
    _jsonl(ts="0", commit="5"), _jsonl(commit="5", renamed_from="5"), _jsonl(add="1.5", **{"del": "-1"}),
    _jsonl(**{"del": str(2**63)}, mod="-1"), _jsonl(ts=str(2**63), path="null"), _jsonl(path="5", commit="5"),
    "\ufeff[]", _VALID_JSONL[:-1] + "x",
]


@pytest.mark.parametrize("line", _TRICKY_NUMSTAT_LINES)
def test_numstat_parser_agrees_with_the_reference_grammar_on_tricky_lines(line):
    for lines in (["COMMIT abc 5\n", line + "\n"], [line]):
        assert _outcome(parse_git_numstat, lines) == _outcome(reference_numstat, lines)


# Lines at the edges of the numstat parser's checks: counts converted directly
# (under 19 digits) or checked against MAX_INTEGER, paths with a tab, a line
# break or a rename, binary counts, blank lines and headers.
_NUMSTAT_BOUNDARY_LINES = [
    "9" * 18 + "\t" + "9" * 18 + "\tsrc/A.java", "1" + "0" * 17 + "\t0\tsrc/A.java",
    "1" + "0" * 18 + "\t0\tsrc/A.java", "0\t" + "9" * 19 + "\tsrc/A.java", "0" * 18 + "7\t1\tsrc/A.java",
    f"{2**63 - 1}\t{2**63 - 1}\tsrc/A.java", f"{2**63}\t0\tsrc/A.java", f"0\t{2**63}\tsrc/A.java",
    "1\t2\tsrc/a\tb.java", "1\t2\tsrc/a\nb.java", "1\t2\tsrc/a.java\t", "1\t2\tsrc/A.java => src/B.java",
    "1\t2\tsrc/x=>y.java", "1\t2\tsrc/{a => b}/C.java", "1\t2\tsrc/{ => b}/C.java", "-\t-\tsrc/A.java",
    "-\t3\tsrc/A.java", "3\t-\tsrc/A.java", "-\t" + "9" * 19 + "\tsrc/A.java", " ", "\t\t", " \t ", "\t",
    "COMMIT\tabc 1", "COMMIT abc 5   ", "COMMIT\tabc\t5", "١٢\t٣\tsrc/A.java", "١٢\t" + "٣" * 19 + "\tx",
    "1\t2\tsrc/A.java\r", "1\t2\t", "\t2\tx", "1\t\tx", "1\t2", "+1\t2\tx", " 1\t2\tx",
]


def _assert_numstat_agrees(lines):
    """Parser and reference agree on the log as str lines, and read from a text
    stream, which turns a CRLF line end into LF as a file does."""
    for source in _sources([line + "\n" for line in lines]):
        assert _outcome(parse_git_numstat, source()) == _outcome(reference_numstat, source())


@pytest.mark.parametrize("line", _NUMSTAT_BOUNDARY_LINES)
def test_numstat_boundary_line_by_line(line):
    _assert_numstat_agrees(["COMMIT abc 5", line])
    _assert_numstat_agrees([line])


def test_numstat_boundary_as_whole_logs():
    header = "COMMIT abc 5"
    accepted = [line for line in _NUMSTAT_BOUNDARY_LINES if _outcome(reference_numstat, [header, line])[1] is None]
    assert 10 < len(accepted) < len(_NUMSTAT_BOUNDARY_LINES)
    _assert_numstat_agrees([header, *accepted])
    _assert_numstat_agrees([header, *_NUMSTAT_BOUNDARY_LINES])  # stops at the first rejected line


@pytest.mark.parametrize("line", _TRICKY_JSONL_LINES)
def test_jsonl_parser_agrees_with_the_reference_checks_on_tricky_lines(line):
    for lines in ([_VALID_JSONL + "\n", line + "\n"], [line]):
        _assert_jsonl_agrees(lines)


@pytest.mark.parametrize("line", _TRICKY_TEXT_EDGES)
def test_callgraph_text_parser_agrees_with_the_reference_grammar_on_tricky_lines(line):
    edge = "M:a.T:t (M)a.F:b\n"
    for lines in ([edge, line + "\n"], [line], [edge, line + "\n", *[edge] * 4, b"\xfe\n"]):
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


# Manifests, labels and flag values through ``cli.main``: each drawn value is
# valid, or (about one time in sixteen, so that a third of the runs get
# through) odd: of the wrong type, empty, out of range, naming a missing file
# or a directory, or holding a NUL.
_REF = 1_700_000_000
_EVENTS = [("src/app/A.java", _REF - 5 * 86_400, "a1"), ("src/app/A.java", _REF, "a2"),
           ("src/app/B.java", _REF - 86_400, "b1"), ("build.gradle", _REF, "g1")]
_EDGES = [("app.T1Test#t1", "app.A#m"), ("app.T2Test#t2", "app.B#m"), ("app.T2Test#t2", "app.A#m")]
_PROJECT_FILES = {
    "changes.jsonl": "".join(
        json.dumps({"path": path, "ts": ts, "add": 3, "del": 1, "commit": commit}) + "\n"
        for path, ts, commit in _EVENTS
    ),
    "changes.numstat": "".join(f"COMMIT {commit} {ts}\n3\t1\t{path}\n" for path, ts, commit in _EVENTS),
    "callgraph.txt": "".join(
        "M:{} (M){}\n".format(a.replace("#", ":"), b.replace("#", ":")) for a, b in _EDGES
    ),
    "callgraph.csv": "".join(f"{a},{b}\n" for a, b in _EDGES),
}


def _value(valid, *odd):
    return st.integers(0, 15).flatmap(lambda k: st.sampled_from(odd) if k == 5 else valid)


_ODD_JSON = (None, True, 5, 1.5, math.inf, "", [], {}, ["x"], "a\x00b")
_GRAPH_FILES = {"callgraph-text": "callgraph.txt", "csv": "callgraph.csv"}


@st.composite
def _manifest(draw):
    """A manifest whose valid paths name files of its formats; optional keys come and go."""
    history_format = draw(st.sampled_from(["jsonl", "numstat"]))
    graph_format = draw(st.sampled_from(sorted(_GRAPH_FILES)))
    manifest = {
        "project_id": draw(_value(st.just("demo"), *_ODD_JSON)),
        "change_log_path": draw(_value(st.just(f"changes.{history_format}"), "missing", ".", *_ODD_JSON)),
        "change_log_format": draw(_value(st.just(history_format), "csv", *_ODD_JSON)),
        "callgraph_path": draw(_value(st.just(_GRAPH_FILES[graph_format]), "missing", *_ODD_JSON)),
        "callgraph_format": draw(_value(st.just(graph_format), "dot", *_ODD_JSON)),
        "entry_selector": draw(_value(
            st.sampled_from([
                {"pattern": {"class_suffix": "Test", "method_prefix": "t"}},
                {"explicit": ["app.T1Test#t1", "app.T9Test#t9"]},
                {"pattern": {}},
            ]),
            {"explicit": []}, {"explicit": ["#"]}, {"explicit": "app.T1Test#t1"}, {"pattern": {"class_suffix": 5}},
            {"pattern": None}, {"regex": "x"}, *_ODD_JSON,
        )),
        "source_roots": draw(_value(st.just(["src"]), ["src", ""], ["/"], [""], "src", *_ODD_JSON)),
        "labels_path": draw(_value(st.just("labels.json"), "missing", ".", *_ODD_JSON)),
    }
    optional = {
        "extensions": _value(st.just([".java"]), [""], [".gradle"], ".java", *_ODD_JSON),
        "exclude_classes": _value(st.just(["app.B"]), ["app.T1Test"], "app.B", *_ODD_JSON),
        "output_dir": _value(st.just("out"), *_ODD_JSON),
    }
    for key, value in optional.items():
        if draw(st.booleans()):
            manifest[key] = draw(value)
    if draw(_value(st.just(False), True)):
        del manifest[draw(st.sampled_from(sorted(manifest)))]  # a key left out
    if graph_format == "callgraph-text" and draw(st.booleans()):
        manifest.pop("callgraph_format", None)  # the default
    return manifest


@st.composite
def _label_record(draw, version_id):
    record = {
        "version_id": draw(_value(st.just(version_id), "v0", *_ODD_JSON)),  # "v0" repeats the first id
        "as_of": draw(_value(
            st.sampled_from([_REF, _REF - 2 * 86_400, 1, -5]), 0, 2**63 - 1, 2**63, -(2**63), 10**40, *_ODD_JSON
        )),
        "fault_revealing_tests": draw(_value(
            st.sampled_from([["app.T1Test#t1"], ["app.T2Test#t2", "app.T9Test#t9"]]), ["x"], [5], *_ODD_JSON
        )),
    }
    if draw(_value(st.just(False), True)):
        del record[draw(st.sampled_from(sorted(record)))]  # a key left out
    return record


@st.composite
def _labels(draw):
    """One label object or an array of them, or an odd JSON value."""
    records = [draw(_label_record(f"v{k}")) for k in range(draw(st.integers(1, 3)))]
    return draw(_value(st.sampled_from([records, records[0]]), *_ODD_JSON))


_horizon = _value(st.sampled_from(["32", "static", "0.5", "1e9"]), "0", "-1", "nan", "inf", "1e-320", "x", "")
_flags = {
    "--metric": _value(st.sampled_from(["extent", "frequency"]), "churn", ""),
    "--horizon": _horizon,
    "--as-of": _value(st.sampled_from([str(_REF), str(_REF - 86_400)]), "-5", str(2**63), "1.5", "x", "", "0x10"),
    "--aggregate": _value(st.sampled_from(["avg", "gmean", "hmean", "median"]), "max", ""),
    "--budget": _value(st.sampled_from(["0.5", "1", "0.01"]), "0", "1.5", "nan", "inf", "-0", "x"),
    "--jobs": _value(st.sampled_from(["1", "2"]), "0", "x", "1.5"),
    "--metrics": _value(st.sampled_from(["extent", "frequency,extent"]), ",", "extent,,x", ""),
    "--horizons": _value(st.sampled_from(["1,static", "32", "static,inf"]), ",", "1,nan", "1,0", "1e-320", "32,32.0", ""),
    "--operators": _value(st.sampled_from(["avg,median", "gmean"]), ",", "avg,max", ""),
    "--budgets": _value(st.sampled_from(["0.25,1", "0.5"]), "0", "0.5,nan", ",", ""),
}
_COMMAND_FLAGS = {
    "score": ("--metric", "--horizon", "--as-of"),
    "minimize": ("--metric", "--horizon", "--as-of", "--aggregate", "--budget"),
    "evaluate": ("--metric", "--horizon", "--aggregate", "--budget", "--jobs"),
    "sweep": ("--metrics", "--horizons", "--operators", "--budgets", "--jobs"),
}


@st.composite
def _invocation(draw):
    """(command, manifest, labels, flags): a flag is left out one time in four, ``--as-of`` one in sixteen."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = []
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.integers(0, 15)) % (16 if flag == "--as-of" else 4):
            flags += [flag, draw(_flags[flag])]
    return command, draw(_manifest()), draw(_labels()), flags


@settings(max_examples=200, deadline=None)
@given(_invocation())
def test_commands_on_generated_inputs_end_in_a_documented_exit_code(invocation):
    command, manifest, labels, flags = invocation
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, text in _PROJECT_FILES.items():
            (root / name).write_text(text, encoding="utf-8")
        (root / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = root / "out-of-this-run"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(root / "manifest.json"), *flags, "--output", str(out)])
    assert code in (0, 1, 2, 3, 4, 5)
