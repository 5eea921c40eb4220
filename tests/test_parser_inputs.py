"""Each parser reads a file alike as an open text file, as the list of its lines and through a generator."""

import pytest

from riskmin.change_history import parse_change_log, parse_git_numstat
from riskmin.dependency_graph import FORMAT_CALLGRAPH_TEXT, FORMAT_CSV, parse_callgraph_edges
from riskmin.errors import ParseError


def _adjacency(graph):
    return {node: set(graph.successors(node)) for node in graph.nodes()}


_PARSERS = {
    "jsonl": parse_change_log,
    "numstat": parse_git_numstat,
    "callgraph-text": lambda lines: _adjacency(parse_callgraph_edges(lines, FORMAT_CALLGRAPH_TEXT)),
    "csv": lambda lines: _adjacency(parse_callgraph_edges(lines, FORMAT_CSV)),
}

# Per format: a file with a blank line and a CRLF line end, and a line that is malformed.
_FILES = {
    "jsonl": (
        '{"path": "src/A.java", "ts": 5, "add": 1, "del": 2, "commit": "c1"}\n\n'
        '{"path": "src/B.java", "ts": 6, "add": 0, "del": 1, "mod": 3, "commit": "c2",'
        ' "renamed_from": "src/Old.java"}\r\n',
        '{"path": "src/C.java", "ts": 7, "add": -1, "del": 0, "commit": "c3"}\n',
    ),
    "numstat": (
        "COMMIT c1 5\n1\t2\tsrc/A.java\n\nCOMMIT c2 6\r\n-\t-\tsrc/{old => new}/B.java\r\n",
        "1\t2\n",
    ),
    "callgraph-text": (
        "M:a.T:t (M)a.F:b\n\nC:a.T a.F\r\nM:a.T:t(int) (O)a.G:c(x)\r\n",
        "M:a.T:t (M)\n",
    ),
    "csv": ("a.T#t,a.F#b\n\na.T#u , a.G#c\r\n", "a.T#t,a.F#b,a.G#c\n"),
}


def _outcome(parse, lines):
    try:
        return parse(lines), None
    except ParseError as exc:
        return None, (exc.line, str(exc))


@pytest.mark.parametrize("fmt", sorted(_FILES))
@pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
def test_a_file_read_three_ways_gives_one_outcome(tmp_path, fmt, malformed):
    text, bad_line = _FILES[fmt]
    if malformed:
        text += bad_line
    path = tmp_path / fmt
    path.write_bytes(text.encode())
    parse = _PARSERS[fmt]
    with open(path, encoding="utf-8") as handle:
        from_file = _outcome(parse, handle)
    with open(path, encoding="utf-8") as handle:
        from_list = _outcome(parse, handle.readlines())
    with open(path, encoding="utf-8") as handle:
        from_generator = _outcome(parse, (line for line in handle))
    assert from_file == from_list == from_generator
    records, error = from_file
    if malformed:
        assert error is not None and error[0] == text.count("\n")
    else:
        assert error is None and len(records) > 1
