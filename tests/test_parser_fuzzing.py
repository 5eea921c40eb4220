"""Parsers fed arbitrary lines raise ParseError and nothing else.

Each strategy mixes fully arbitrary text and bytes with lines assembled
from the format's own tokens, so that inputs get past the first checks
and reach the later ones: integers past Python's string-conversion
limit, wrong field types, rename syntax, descriptors and tags.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin.change_history import parse_change_log, parse_git_numstat
from riskmin.dependency_graph import FORMAT_CALLGRAPH_TEXT, FORMAT_CSV, parse_callgraph_edges
from riskmin.errors import ParseError

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
