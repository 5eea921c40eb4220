import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin import cli
from riskmin.dependency_graph import (
    CallGraph,
    MethodRef,
    _reachable_masks,
    build_dependency_map,
    entry_class_filter,
    parse_callgraph_edges,
    parse_test_id,
)
from riskmin.dependency_graph import test_entry_points as find_entry_points
from riskmin.errors import ParseError

from oracles import closure_reachable, transitive_closure


def _graph(edges):
    graph = CallGraph()
    for a, b in edges:
        graph.add_edge(
            MethodRef(*a.split("#", 1)),
            MethodRef(*b.split("#", 1)),
        )
    return graph


def _ref(test_id):
    return MethodRef(*test_id.split("#", 1))


class TestParseCallgraphText:
    def test_method_edge(self):
        graph = parse_callgraph_edges(io.StringIO("M:a.TestFoo:test1 (M)a.Foo:bar\n"))
        assert graph.successors(MethodRef("a.TestFoo", "test1")) == frozenset(
            {MethodRef("a.Foo", "bar")}
        )

    def test_descriptor_is_split_out(self):
        graph = parse_callgraph_edges(
            io.StringIO("M:a.T:t1(java.lang.String) (O)a.Foo:bar(int,int)\n")
        )
        (caller,) = [n for n in graph.nodes() if n.class_id == "a.T"]
        (callee,) = [n for n in graph.nodes() if n.class_id == "a.Foo"]
        assert caller == MethodRef("a.T", "t1", "java.lang.String")
        assert callee == MethodRef("a.Foo", "bar", "int,int")

    def test_class_level_lines_are_ignored(self):
        graph = parse_callgraph_edges(io.StringIO("C:a.T a.Foo\nM:a.T:t (M)a.Foo:b\n"))
        assert graph.edge_count == 1

    def test_unknown_invocation_tag_keeps_edge_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            graph = parse_callgraph_edges(io.StringIO("M:a.T:t (Q)a.Foo:b\n"))
        assert graph.edge_count == 1
        assert any("invocation type" in m for m in caplog.messages)

    def test_unknown_tags_are_counted_in_one_warning(self, caplog):
        lines = ["M:a.T:t (M)a.Foo:b\n"] + [f"M:a.T:t (Q)a.Foo:b{i}\n" for i in range(1000)]
        with caplog.at_level("WARNING"):
            graph = parse_callgraph_edges(lines)
        assert graph.edge_count == 1001
        (message,) = caplog.messages
        assert "invocation type" in message and "1000 " in message and "line 2" in message

    def test_empty_input_yields_empty_graph(self):
        graph = parse_callgraph_edges(io.StringIO(""))
        assert graph.nodes() == frozenset() and graph.edge_count == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_callgraph_edges(io.StringIO("M:a.T:t (M)a.F:b\nM:broken\n"))


def _edge_lines(count):
    return [f"M:a.T:t{i % 7} (M)a.F:b{i}\n" for i in range(count)]


class TestCallgraphTextStream:
    """A text stream is enumerated directly, without a generator over its lines."""

    def test_invalid_utf8_passes_through_and_the_cli_reader_names_its_line(self, tmp_path):
        # About 22 bytes a line: line 901 is in the third 8 KiB block the stream decodes.
        lines = [line.encode() for line in _edge_lines(2000)]
        lines[900] = b"M:a.T:t (M)a.F:\xff\n"
        path = tmp_path / "callgraph.txt"
        path.write_bytes(b"".join(lines))
        with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
            parse_callgraph_edges(line for line in handle)
        with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
            parse_callgraph_edges(handle)
        with pytest.raises(ParseError) as read:
            cli._parse_input(path, parse_callgraph_edges)
        assert (read.value.line, str(read.value)) == (901, f"{path}: invalid UTF-8 at line 901")

    def test_a_file_advanced_by_next_is_read_from_where_it_stands(self, tmp_path):
        path = tmp_path / "callgraph.txt"
        path.write_text("not an edge\n" + "".join(_edge_lines(3)) + "M:broken\n", encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            next(handle)
            with pytest.raises(ParseError, match="malformed call-graph line at line 4$"):
                parse_callgraph_edges(handle)
        with open(path, encoding="utf-8") as handle:
            next(handle)
            graph = parse_callgraph_edges(line for line in handle if line != "M:broken\n")
        assert graph.edge_count == 3

    def test_invalid_utf8_exits_3(self, tmp_path, capsys):
        manifest = {
            "project_id": "p",
            "change_log_path": "changes.jsonl",
            "callgraph_path": "callgraph.txt",
            "callgraph_format": "callgraph-text",
            "entry_selector": {"pattern": {"class_suffix": "T"}},
            "source_roots": ["src"],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        (tmp_path / "changes.jsonl").write_text("", encoding="utf-8")
        lines = [line.encode() for line in _edge_lines(2000)]
        lines[1500] = b"\xfe" + lines[1500]
        (tmp_path / "callgraph.txt").write_bytes(b"".join(lines))
        assert cli.main(["score", str(tmp_path / "manifest.json"), "--as-of", "1"]) == 3
        assert capsys.readouterr().err == f"riskmin: error: {tmp_path / 'callgraph.txt'}: invalid UTF-8 at line 1501\n"


class TestParseCallgraphCsv:
    def test_pair_line(self):
        graph = parse_callgraph_edges(io.StringIO("a.TestFoo#test1,a.Foo#bar\n"), "csv")
        assert graph.successors(MethodRef("a.TestFoo", "test1")) == frozenset(
            {MethodRef("a.Foo", "bar")}
        )

    def test_missing_hash_is_an_error(self):
        with pytest.raises(ParseError):
            parse_callgraph_edges(io.StringIO("a.TestFoo.test1,a.Foo#bar\n"), "csv")

    def test_wrong_field_count_is_an_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_callgraph_edges(io.StringIO("a.T#t,a.F#b,extra\n"), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_callgraph_edges(io.StringIO(""), "dot")

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_a_line_that_starts_with_a_bom_is_an_error_at_that_line(self, lineno):
        lines = ["a.T#t,a.F#b\n", "a.T#u,a.F#c\n"]
        lines[lineno - 1] = "\ufeff" + lines[lineno - 1]
        with pytest.raises(ParseError) as caught:
            parse_callgraph_edges(io.StringIO("".join(lines)), "csv")
        assert caught.value.line == lineno
        assert str(caught.value) == (
            f"malformed call-graph line at line {lineno}: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        )


@pytest.mark.parametrize(
    "fmt, line",
    [
        ("csv", "a.T#t,\ufeffa.F#b\n"),
        ("csv", "a.T#t, \ufeffa.F#b\n"),
        ("callgraph-text", "M:a.T:t (M)\ufeffa.F:b\n"),
        ("callgraph-text", "M:\ufeffa.T:t (M)a.F:b\n"),
    ],
    ids=["csv-callee", "csv-callee-after-space", "text-callee", "text-caller"],
)
def test_a_token_that_starts_with_a_bom_is_an_error_at_its_line(fmt, line):
    with pytest.raises(ParseError) as caught:
        parse_callgraph_edges(["a.T#u,a.F#c\n" if fmt == "csv" else "M:a.T:u (M)a.F:c\n", line], fmt)
    assert caught.value.line == 2
    assert str(caught.value) == (
        "malformed call-graph line at line 2: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


class TestEntryPoints:
    def test_pattern_matches_suffix_and_prefix(self):
        graph = _graph([("a.FooTest#testX", "a.Foo#bar")])
        entries = find_entry_points(
            graph, {"pattern": {"class_suffix": "Test", "method_prefix": "test"}}
        )
        assert entries == {MethodRef("a.FooTest", "testX")}

    def test_pattern_does_not_match_production_methods(self):
        graph = _graph([("a.FooTest#testX", "a.Foo#bar"), ("a.Foo#bar", "a.Baz#qux")])
        entries = find_entry_points(
            graph, {"pattern": {"class_suffix": "Test", "method_prefix": "test"}}
        )
        assert {e.class_id for e in entries} == {"a.FooTest"}

    def test_a_class_prefix_narrows_the_entries(self):
        graph = _graph([("a.FooTest#testX", "a.Foo#bar"), ("b.BarTest#testY", "a.Foo#bar")])
        pattern = {"class_suffix": "Test", "method_prefix": "test"}
        assert find_entry_points(graph, {"pattern": pattern}) == {
            MethodRef("a.FooTest", "testX"), MethodRef("b.BarTest", "testY")
        }
        assert find_entry_points(graph, {"pattern": {**pattern, "class_prefix": "b."}}) == {MethodRef("b.BarTest", "testY")}

    def test_explicit_list(self):
        graph = _graph([("a.FooTest#testX", "a.Foo#bar")])
        entries = find_entry_points(graph, {"explicit": ["a.FooTest#testX"]})
        assert entries == {MethodRef("a.FooTest", "testX")}

    def test_explicit_id_absent_from_graph_is_retained(self):
        graph = _graph([("a.FooTest#testX", "a.Foo#bar")])
        entries = find_entry_points(graph, {"explicit": ["a.GhostTest#testY"]})
        assert MethodRef("a.GhostTest", "testY") in entries

    def test_selector_without_known_key_rejected(self):
        with pytest.raises(ValueError):
            find_entry_points(CallGraph(), {"regex": ".*"})


def _reached_classes(graph, entry, test_class_filter):
    """The classes one entry reaches, as the commands compute them: a one-entry dependency map."""
    return set(build_dependency_map(graph, [entry], test_class_filter)[entry.test_id])


class TestReachableClasses:
    def test_transitive_chain(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "B#n")])
        assert _reached_classes(graph, _ref("T#t"), {"T"}) == {"A", "B"}

    def test_entry_with_no_edges_is_empty(self):
        graph = _graph([("T#t", "A#m")])
        assert _reached_classes(graph, _ref("X#x"), {"X"}) == set()

    def test_cycle_terminates(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "A#m2"), ("A#m2", "A#m")])
        assert _reached_classes(graph, _ref("T#t"), {"T"}) == {"A"}

    def test_self_loop_is_harmless(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "A#m")])
        assert _reached_classes(graph, _ref("T#t"), {"T"}) == {"A"}

    def test_matches_closure_oracle_on_random_graphs(self):
        rng = random.Random(17)
        for trial in range(25):
            n = rng.randint(2, 60)
            methods = [f"C{i:03d}#m" for i in range(n)]
            edges = {
                (rng.choice(methods), rng.choice(methods))
                for _ in range(rng.randint(0, 3 * n))
            }
            graph = _graph(sorted(edges))
            entry = methods[0]
            expected = {
                node.split("#")[0]
                for node in closure_reachable(sorted(edges), entry)
            }
            got = _reached_classes(graph, _ref(entry), set())
            assert got == expected

    def test_adding_an_edge_never_shrinks_reachable_sets(self):
        rng = random.Random(23)
        methods = [f"C{i}#m" for i in range(20)]
        edges = {(rng.choice(methods), rng.choice(methods)) for _ in range(25)}
        graph = _graph(sorted(edges))
        entry = _ref(methods[0])
        before = _reached_classes(graph, entry, set())
        graph.add_edge(_ref(rng.choice(methods)), _ref(rng.choice(methods)))
        after = _reached_classes(graph, entry, set())
        assert before <= after


class TestBuildDependencyMap:
    def test_shared_callee_appears_in_both(self):
        graph = _graph([("T1#t", "A#m"), ("T2#t", "A#m")])
        deps = build_dependency_map(graph, {_ref("T1#t"), _ref("T2#t")}, {"T1", "T2"})
        assert deps == {"T1#t": ["A"], "T2#t": ["A"]}

    def test_isolated_entry_recorded_with_empty_list(self):
        graph = _graph([("T1#t", "A#m")])
        deps = build_dependency_map(graph, {_ref("T1#t"), _ref("Ghost#t")}, {"T1", "Ghost"})
        assert deps["Ghost#t"] == []

    def test_default_filter_derives_from_entries(self):
        graph = _graph([("T1#t", "A#m"), ("T1#t", "T2#helper")])
        deps = build_dependency_map(graph, {_ref("T1#t"), _ref("T2#helper")})
        assert deps["T1#t"] == ["A"]

    def test_fixture_matches_floyd_warshall_oracle(self):
        edges = [
            ("T1#t", "A#m"),
            ("T2#t", "B#m"),
            ("A#m", "B#n"),
            ("B#n", "C#p"),
            ("C#p", "A#m"),
            ("D#q", "D#q"),
        ]
        graph = _graph(edges)
        entries = {_ref("T1#t"), _ref("T2#t")}
        deps = build_dependency_map(graph, entries, {"T1", "T2"})
        closure = transitive_closure({m for e in edges for m in e}, edges)
        for test_id, ref in (("T1#t", "T1#t"), ("T2#t", "T2#t")):
            reached = {ref} | closure[ref]
            expected = sorted({m.split("#")[0] for m in reached} - {"T1", "T2"})
            assert deps[test_id] == expected

    def test_serialization_is_deterministic(self):
        rng = random.Random(31)
        methods = [f"C{i}#m" for i in range(30)]
        edges = sorted({(rng.choice(methods), rng.choice(methods)) for _ in range(60)})
        entries = {_ref(m) for m in methods[:5]}
        first = build_dependency_map(_graph(edges), entries)
        second = build_dependency_map(_graph(list(reversed(edges))), entries)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_filter_classes_never_appear(self):
        graph = _graph([("T1#t", "A#m"), ("A#m", "H#x"), ("H#x", "B#y")])
        deps = build_dependency_map(graph, {_ref("T1#t")}, {"T1", "H"})
        assert deps["T1#t"] == ["A", "B"]


# Random digraphs over a few classes: cycles, self-loops, and overloads
# (one test id, several descriptors) all occur.
_METHODS = st.builds(
    MethodRef,
    st.sampled_from(["T1", "T2", "A", "B", "C", "D"]),
    st.sampled_from(["m", "n"]),
    st.sampled_from(["", "int"]),
)


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(_METHODS, _METHODS), max_size=40),
    entries=st.sets(_METHODS, min_size=1, max_size=8),
    ghosts=st.sets(
        st.builds(MethodRef, st.sampled_from(["G1", "G2"]), st.sampled_from(["m", "n"])),
        max_size=2,
    ),
    data=st.data(),
)
def test_map_is_the_union_of_reachable_classes_per_test_id(edges, entries, ghosts, data):
    graph = CallGraph()
    for caller, callee in edges:
        graph.add_edge(caller, callee)
    entries = entries | ghosts  # ghost classes never occur in the graph
    entry_classes = sorted({entry.class_id for entry in entries})
    test_class_filter = data.draw(
        st.sets(st.sampled_from(entry_classes + ["A", "B", "X"])), label="filter"
    )
    closure = transitive_closure({node for edge in edges for node in edge} | entries, edges)
    expected: dict[str, set[str]] = {}
    for entry in entries:
        reached = {entry} | closure[entry]
        expected.setdefault(entry.test_id, set()).update(
            {node.class_id for node in reached} - test_class_filter
        )
    deps = build_dependency_map(graph, entries, test_class_filter)
    assert deps == {test_id: sorted(classes) for test_id, classes in expected.items()}
    assert list(deps) == sorted(deps)


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_100k_node_chain_or_cycle_needs_no_recursion(closed):
    n = 100_000
    nodes = [MethodRef(f"C{i // 1000:03d}", f"m{i}") for i in range(n)]
    graph = CallGraph()
    for a, b in zip(nodes, nodes[1:]):
        graph.add_edge(a, b)
    if closed:
        graph.add_edge(nodes[-1], nodes[0])
    entry = MethodRef("T", "t")
    graph.add_edge(entry, nodes[n // 2])
    deps = build_dependency_map(graph, {entry})
    first = 0 if closed else n // 2 // 1000
    assert deps == {"T#t": [f"C{c:03d}" for c in range(first, 100)]}


class _CountingGraph(CallGraph):
    def __init__(self):
        super().__init__()
        self.calls: dict[MethodRef, int] = {}

    def successors(self, node):
        self.calls[node] = self.calls.get(node, 0) + 1
        return super().successors(node)


def test_successors_is_called_at_most_twice_per_reached_node():
    graph = _CountingGraph()
    cycle = [MethodRef("A", f"m{i}") for i in range(5)] + [MethodRef("B", "m")]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        graph.add_edge(a, b)
    entries = {MethodRef(f"T{i}", "t") for i in range(10)}
    for i, entry in enumerate(entries):
        graph.add_edge(entry, cycle[i % len(cycle)])
    deps = build_dependency_map(graph, entries)
    assert all(classes == ["A", "B"] for classes in deps.values())
    assert set(graph.calls) == set(cycle) | entries
    assert max(graph.calls.values()) <= 2


def test_class_bits_are_numbered_in_component_completion_order():
    """A class's bit is assigned when its first component completes, so a
    mask is never wider than the classes completed before it: the chain's
    sink, visited last but completed first, gets bit 0."""
    chain = [MethodRef(f"C{i}", "m") for i in range(5)]
    graph = CallGraph()
    for a, b in zip(chain, chain[1:]):
        graph.add_edge(a, b)
    class_bits = {}
    assert _reachable_masks(graph, [chain[0], chain[-1]], class_bits) == [0b11111, 0b1]
    assert list(class_bits) == ["C4", "C3", "C2", "C1", "C0"]


def test_every_test_gets_its_own_list():
    graph = _graph([("T1#t", "A#m"), ("T2#t", "A#m")])
    deps = build_dependency_map(graph, {_ref("T1#t"), _ref("T2#t")})
    assert deps["T1#t"] == deps["T2#t"] and deps["T1#t"] is not deps["T2#t"]


def test_entry_class_filter_includes_extras():
    entries = {_ref("T1#t"), _ref("T2#u")}
    assert entry_class_filter(entries, ["helpers.Util"]) == {"T1", "T2", "helpers.Util"}


def test_method_ref_requires_class_id():
    with pytest.raises(ValueError):
        MethodRef("", "m")


class TestMethodRefRecord:
    def test_keyword_and_positional_construction_agree(self):
        by_keyword = MethodRef(class_id="a.Foo", method_name="bar", descriptor="int")
        assert by_keyword == MethodRef("a.Foo", "bar", "int")
        assert MethodRef("a.Foo", "bar").descriptor == ""
        assert by_keyword.test_id == "a.Foo#bar"

    def test_indexes_unpacks_and_sorts_by_its_fields(self):
        ref = MethodRef("a.Foo", "bar", "int")
        class_id, method_name, descriptor = ref
        assert (class_id, method_name, descriptor, ref[1]) == ("a.Foo", "bar", "int", "bar")
        assert sorted([MethodRef("b.X", "a"), ref, MethodRef("a.Foo", "a")]) == [
            MethodRef("a.Foo", "a"), ref, MethodRef("b.X", "a"),
        ]

    def test_constructor_make_and_replace_all_validate(self):
        ref = MethodRef("a.Foo", "bar")
        with pytest.raises(ValueError):
            MethodRef(class_id="", method_name="bar")
        with pytest.raises(ValueError):
            MethodRef._make(["", "bar", ""])
        with pytest.raises(ValueError):
            ref._replace(class_id="")

    def test_is_immutable(self):
        ref = MethodRef("a.Foo", "bar")
        with pytest.raises(AttributeError):
            ref.class_id = "b"
        with pytest.raises(AttributeError):
            ref.extra = 5

    def test_pickle_round_trip(self):
        ref = MethodRef("a.Foo", "bar", "int")
        copy = pickle.loads(pickle.dumps(ref))
        assert copy == ref and type(copy) is MethodRef and copy.test_id == "a.Foo#bar"

    @pytest.mark.parametrize(
        "text, fmt",
        [("M:a.T:t (M)a.Foo:bar(int)\n", "callgraph-text"), ("a.T#t,a.Foo#bar\n", "csv")],
    )
    def test_parsed_records_equal_constructed_ones(self, text, fmt):
        graph = parse_callgraph_edges(io.StringIO(text), fmt)
        caller = MethodRef("a.T", "t")
        (callee,) = graph.successors(caller)
        built = MethodRef("a.Foo", "bar", "int" if fmt == "callgraph-text" else "")
        assert type(callee) is MethodRef
        assert callee == built and hash(callee) == hash(built) and repr(callee) == repr(built)
        assert parse_test_id("a.Foo#bar") == MethodRef("a.Foo", "bar")
        assert hash(parse_test_id("a.Foo#bar")) == hash(MethodRef("a.Foo", "bar"))
