import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin.dependency_graph import (
    CallGraph,
    MethodRef,
    build_dependency_map,
    entry_class_filter,
    parse_callgraph_edges,
    reachable_classes,
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

    def test_empty_input_yields_empty_graph(self):
        graph = parse_callgraph_edges(io.StringIO(""))
        assert graph.nodes() == frozenset() and graph.edge_count == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_callgraph_edges(io.StringIO("M:a.T:t (M)a.F:b\nM:broken\n"))


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


class TestReachableClasses:
    def test_transitive_chain(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "B#n")])
        assert reachable_classes(graph, _ref("T#t"), {"T"}) == {"A", "B"}

    def test_entry_with_no_edges_is_empty(self):
        graph = _graph([("T#t", "A#m")])
        assert reachable_classes(graph, _ref("X#x"), {"X"}) == set()

    def test_cycle_terminates(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "A#m2"), ("A#m2", "A#m")])
        assert reachable_classes(graph, _ref("T#t"), {"T"}) == {"A"}

    def test_self_loop_is_harmless(self):
        graph = _graph([("T#t", "A#m"), ("A#m", "A#m")])
        assert reachable_classes(graph, _ref("T#t"), {"T"}) == {"A"}

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
            got = reachable_classes(graph, _ref(entry), set())
            assert got == expected

    def test_adding_an_edge_never_shrinks_reachable_sets(self):
        rng = random.Random(23)
        methods = [f"C{i}#m" for i in range(20)]
        edges = {(rng.choice(methods), rng.choice(methods)) for _ in range(25)}
        graph = _graph(sorted(edges))
        entry = _ref(methods[0])
        before = reachable_classes(graph, entry, set())
        graph.add_edge(_ref(rng.choice(methods)), _ref(rng.choice(methods)))
        after = reachable_classes(graph, entry, set())
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
    expected: dict[str, set[str]] = {}
    for entry in entries:
        expected.setdefault(entry.test_id, set()).update(
            reachable_classes(graph, entry, test_class_filter)
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
