"""Static call-graph ingestion and per-test reachable-class analysis.

Two edge-list formats are accepted:

* ``callgraph-text``: ``M:<callerClass>:<callerMethod> (<X>)<calleeClass>:<calleeMethod>``
  where ``<X>`` is an invocation-type tag in {M, I, O, S, D}; method tokens
  may carry a parenthesized descriptor. Lines starting with ``C:``
  (class-level edges) are ignored.
* ``csv``: ``caller_class#caller_method,callee_class#callee_method`` per
  line, no header.

Each test method acts as a traversal entry point; its dependency set is
every class reachable over the invocation edges, minus the test classes
themselves.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, AbstractSet, Iterable, Mapping, Sequence

from .errors import ParseError

logger = logging.getLogger(__name__)

FORMAT_CALLGRAPH_TEXT = "callgraph-text"
FORMAT_CSV = "csv"
GRAPH_FORMATS = (FORMAT_CALLGRAPH_TEXT, FORMAT_CSV)

_INVOCATION_TAGS = frozenset("MIOSD")

_DONE = -1  # lowlink of a node whose strongly connected component is complete


@dataclass(frozen=True)
class MethodRef:
    class_id: str
    method_name: str
    descriptor: str = ""

    def __post_init__(self) -> None:
        if not self.class_id:
            raise ValueError("method reference requires a non-empty class id")

    @property
    def test_id(self) -> str:
        return f"{self.class_id}#{self.method_name}"


class CallGraph:
    """Directed method-call graph: one adjacency set per node, empty for a callee-only node."""

    def __init__(self) -> None:
        self._edges: dict[MethodRef, set[MethodRef]] = {}

    def add_edge(self, caller: MethodRef, callee: MethodRef) -> None:
        self._edges.setdefault(caller, set()).add(callee)
        self._edges.setdefault(callee, set())

    def successors(self, node: MethodRef) -> AbstractSet[MethodRef]:
        """The stored callee set, not a copy: callers must not modify it."""
        return self._edges.get(node, frozenset())

    def nodes(self) -> frozenset[MethodRef]:
        return frozenset(self._edges)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._edges.values())


def _parse_method_token(token: str, lineno: int) -> MethodRef:
    if ":" not in token:
        raise ParseError(f"method token {token!r} missing ':' at line {lineno}", line=lineno)
    class_id, rest = token.split(":", 1)
    if not class_id or not rest:
        raise ParseError(f"incomplete method token {token!r} at line {lineno}", line=lineno)
    descriptor = ""
    paren = rest.find("(")
    if paren >= 0:
        descriptor = rest[paren:].strip("()")
        rest = rest[:paren]
    return MethodRef(class_id=class_id, method_name=rest, descriptor=descriptor)


_TEXT_EDGE = re.compile(r"^M:(\S+)\s+\((\w)\)(\S+)$")


def _lines(stream: IO | Iterable) -> Iterable[str]:
    for raw in stream:
        yield raw.decode("utf-8") if isinstance(raw, bytes) else raw


def parse_callgraph_edges(stream: IO | Iterable, fmt: str = FORMAT_CALLGRAPH_TEXT) -> CallGraph:
    """Build a call graph from an edge-list stream in the given format."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"unknown call-graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    graph = CallGraph()
    for lineno, line in enumerate(_lines(stream), start=1):
        line = line.strip()
        if not line:
            continue
        if fmt == FORMAT_CALLGRAPH_TEXT:
            if line.startswith("C:"):
                continue
            match = _TEXT_EDGE.match(line)
            if match is None:
                raise ParseError(f"malformed call-graph line at line {lineno}", line=lineno)
            caller_token, tag, callee_token = match.groups()
            if tag not in _INVOCATION_TAGS:
                logger.warning("unknown invocation type %r at line %d; keeping edge", tag, lineno)
            caller = _parse_method_token(caller_token, lineno)
            callee = _parse_method_token(callee_token, lineno)
        else:
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 'caller,callee' at line {lineno}", line=lineno)
            caller = parse_test_id(parts[0].strip(), lineno=lineno)
            callee = parse_test_id(parts[1].strip(), lineno=lineno)
        graph.add_edge(caller, callee)
    return graph


def parse_test_id(test_id: str, lineno: int | None = None) -> MethodRef:
    """Parse a ``class_id#method_name`` identifier."""
    if "#" not in test_id:
        raise ParseError(f"test id {test_id!r} missing '#'", line=lineno)
    class_id, method = test_id.split("#", 1)
    if not class_id or not method:
        raise ParseError(f"incomplete test id {test_id!r}", line=lineno)
    return MethodRef(class_id=class_id, method_name=method)


def test_entry_points(graph: CallGraph, selector: Mapping) -> set[MethodRef]:
    """Select entry-point methods from the graph.

    ``selector`` is either ``{"explicit": [test_ids...]}`` — ids absent from
    the graph are retained as isolated entries — or
    ``{"pattern": {"class_suffix": ..., "class_prefix": ..., "method_prefix": ...}}``
    with all given parts required to match.
    """
    if "explicit" in selector:
        return {parse_test_id(test_id) for test_id in selector["explicit"]}
    if "pattern" in selector:
        pattern = selector["pattern"]
        class_suffix = pattern.get("class_suffix", "")
        class_prefix = pattern.get("class_prefix", "")
        method_prefix = pattern.get("method_prefix", "")
        return {
            node
            for node in graph.nodes()
            if node.class_id.endswith(class_suffix)
            and node.class_id.startswith(class_prefix)
            and node.method_name.startswith(method_prefix)
        }
    raise ValueError("entry-point selector requires an 'explicit' or 'pattern' key")


def entry_class_filter(entries: Iterable[MethodRef], extra: Iterable[str] = ()) -> set[str]:
    """Classes excluded from dependency sets: entry classes plus extras."""
    return {entry.class_id for entry in entries} | set(extra)


def reachable_classes(graph: CallGraph, entry: MethodRef, test_class_filter: set[str]) -> set[str]:
    """Classes of all methods reachable from the entry, minus the filter.

    Iterative depth-first traversal with a visited set, so cycles and deep
    chains are safe.
    """
    visited = {entry}
    stack = [entry]
    while stack:
        node = stack.pop()
        for successor in graph.successors(node):
            if successor not in visited:
                visited.add(successor)
                stack.append(successor)
    return {node.class_id for node in visited} - test_class_filter


def _reachable_masks(
    graph: CallGraph, roots: Sequence[MethodRef], class_bits: dict[str, int]
) -> list[int]:
    """Reachable-class bitmask of each root, from one traversal shared by all roots.

    Iterative Tarjan over the nodes the roots reach; each class id gets one
    bit in ``class_bits`` when first seen. Tarjan completes strongly
    connected components sinks-first, so when a component completes, the
    masks of the components it calls are final and its own mask is its
    members' class bits OR-ed with theirs (Nuutila's condensation closure).
    Memory is one mask per component, each up to (classes reached) / 8 bytes.
    """
    number: dict[MethodRef, int] = {}  # DFS number of every reached node
    lowlink: list[int] = []  # _DONE once the node's component is complete
    masks: list[int] = []  # partial while the node is on the stack, then its component's mask
    component_stack: list[int] = []

    def visit(node: MethodRef) -> int:
        index = len(lowlink)
        number[node] = index
        lowlink.append(index)
        bit = class_bits.get(node.class_id)
        if bit is None:
            bit = class_bits[node.class_id] = 1 << len(class_bits)
        masks.append(bit)
        component_stack.append(index)
        return index

    for root in roots:
        if root in number:
            continue
        frames = [(visit(root), iter(graph.successors(root)))]
        while frames:
            v, successors = frames[-1]
            for successor in successors:
                w = number.get(successor)
                if w is None:
                    frames.append((visit(successor), iter(graph.successors(successor))))
                    break
                if lowlink[w] == _DONE:
                    masks[v] |= masks[w]
                elif w < lowlink[v]:
                    lowlink[v] = w
            else:
                frames.pop()
                if lowlink[v] == v:
                    start = bisect_left(component_stack, v)  # the stack holds ascending numbers
                    members = component_stack[start:]
                    del component_stack[start:]
                    mask = 0
                    for member in members:
                        mask |= masks[member]
                    for member in members:
                        masks[member] = mask
                        lowlink[member] = _DONE
                if frames:
                    u = frames[-1][0]
                    if lowlink[v] == _DONE:
                        masks[u] |= masks[v]
                    elif lowlink[v] < lowlink[u]:
                        lowlink[u] = lowlink[v]
    return [masks[number[root]] for root in roots]


def build_dependency_map(
    graph: CallGraph,
    entries: Iterable[MethodRef],
    test_class_filter: set[str] | None = None,
) -> dict[str, list[str]]:
    """Map each entry's test id to its sorted reachable-class list.

    Entries with no reachable production class are recorded with an empty
    list rather than omitted, so they still rank during minimization.
    Entries whose ids collide (overloads) have their sets unioned. Equal to
    the union of ``reachable_classes`` over each id's entries, but all
    entries share one traversal of the graph.
    """
    entries = sorted(set(entries), key=lambda m: (m.class_id, m.method_name, m.descriptor))
    if test_class_filter is None:
        test_class_filter = entry_class_filter(entries)
    class_bits: dict[str, int] = {}
    test_masks: dict[str, int] = {}
    for entry, mask in zip(entries, _reachable_masks(graph, entries, class_bits)):
        test_masks[entry.test_id] = test_masks.get(entry.test_id, 0) | mask
    filter_mask = 0
    for class_id in test_class_filter:
        filter_mask |= class_bits.get(class_id, 0)
    names = list(class_bits)  # insertion order is bit order
    decoded: dict[int, list[str]] = {}
    deps: dict[str, list[str]] = {}
    for test_id in sorted(test_masks):
        mask = test_masks[test_id] & ~filter_mask
        classes = decoded.get(mask)
        if classes is None:
            classes = decoded[mask] = _decode(mask, names)
        deps[test_id] = list(classes)
    return deps


def _decode(mask: int, names: Sequence[str]) -> list[str]:
    """Sorted class ids of the set bits of ``mask``; bit ``i`` stands for ``names[i]``."""
    classes = []
    while mask:
        low = mask & -mask
        classes.append(names[low.bit_length() - 1])
        mask ^= low
    return sorted(classes)
