"""Static call-graph ingestion and per-test reachable-class analysis.

Two edge-list formats are accepted:

* ``callgraph-text``: ``M:<callerClass>:<callerMethod> (<X>)<calleeClass>:<calleeMethod>``
  where ``<X>`` is an invocation-type tag in {M, I, O, S, D} (an edge with
  another tag is kept, and counted in one warning per file); method tokens
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
from typing import IO, AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError, text_lines, undecodable_after

logger = logging.getLogger(__name__)

FORMAT_CALLGRAPH_TEXT = "callgraph-text"
FORMAT_CSV = "csv"
GRAPH_FORMATS = (FORMAT_CALLGRAPH_TEXT, FORMAT_CSV)

_INVOCATION_TAGS = frozenset("MIOSD")

_DONE = -1  # lowlink of a node whose strongly connected component is complete


class _MethodRefFields(NamedTuple):
    class_id: str
    method_name: str
    descriptor: str = ""


class MethodRef(_MethodRefFields):
    """One method of one class.

    An immutable named tuple, so it also indexes, unpacks and sorts by its
    fields. The constructor, ``_make`` and ``_replace`` require a non-empty
    class id.
    """

    __slots__ = ()

    def __new__(cls, class_id: str, method_name: str, descriptor: str = "") -> MethodRef:
        if not class_id:
            raise ValueError("method reference requires a non-empty class id")
        return tuple.__new__(cls, (class_id, method_name, descriptor))

    @classmethod
    def _make(cls, iterable: Iterable) -> MethodRef:
        return cls(*iterable)  # the inherited _make, which _replace calls, skips __new__

    @property
    def test_id(self) -> str:
        return f"{self.class_id}#{self.method_name}"


def _method_ref(fields: tuple[str, str, str]) -> MethodRef:
    """A MethodRef from fields a parser has already validated."""
    return tuple.__new__(MethodRef, fields)


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
    return _method_ref((class_id, rest, descriptor))


_TEXT_EDGE = re.compile(r"^M:(\S+)\s+\((\w)\)(\S+)$")


def parse_callgraph_edges(stream: IO | Iterable, fmt: str = FORMAT_CALLGRAPH_TEXT) -> CallGraph:
    """Build a call graph from an edge-list stream in the given format.

    A text stream is enumerated directly, and a line iterable, which may
    hold bytes, goes through ``numbered_lines`` (see ``text_lines``).
    """
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"unknown call-graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    graph = CallGraph()
    add_edge = graph.add_edge
    unknown_tag_lines: list[int] = []
    text = fmt == FORMAT_CALLGRAPH_TEXT
    parse_token = _parse_method_token if text else parse_test_id
    refs: dict[str, MethodRef] = {}  # one record per distinct token, shared by its edges

    def parse_ref(token: str, lineno: int) -> MethodRef:
        if token[:1] == "\ufeff":  # strip() keeps it: it is not whitespace
            problem = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise ParseError(f"malformed call-graph line at line {lineno}: {problem}", line=lineno)
        return parse_token(token, lineno)

    lineno = 0
    try:
        for lineno, line in text_lines(stream):
            line = line.strip()
            if not line:
                continue
            if text:
                if line.startswith("C:"):
                    continue
                match = _TEXT_EDGE.match(line)
                if match is None:
                    raise ParseError(f"malformed call-graph line at line {lineno}", line=lineno)
                caller_token, tag, callee_token = match.groups()
                if tag not in _INVOCATION_TAGS:
                    unknown_tag_lines.append(lineno)
            else:
                parts = line.split(",")
                if len(parts) != 2:
                    raise ParseError(f"expected 'caller,callee' at line {lineno}", line=lineno)
                caller_token, callee_token = parts[0].strip(), parts[1].strip()
            caller = refs.get(caller_token) or refs.setdefault(caller_token, parse_ref(caller_token, lineno))
            callee = refs.get(callee_token) or refs.setdefault(callee_token, parse_ref(callee_token, lineno))
            add_edge(caller, callee)
    except UnicodeDecodeError:
        raise undecodable_after(lineno) from None
    if unknown_tag_lines:
        logger.warning(
            "%d edge(s) with an unknown invocation type kept; the first at line %d",
            len(unknown_tag_lines),
            unknown_tag_lines[0],
        )
    return graph


def parse_test_id(test_id: str, lineno: int | None = None) -> MethodRef:
    """Parse a ``class_id#method_name`` identifier."""
    if "#" not in test_id:
        raise ParseError(f"test id {test_id!r} missing '#'", line=lineno)
    class_id, method = test_id.split("#", 1)
    if not class_id or not method:
        raise ParseError(f"incomplete test id {test_id!r}", line=lineno)
    return _method_ref((class_id, method, ""))


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


def _reachable_masks(
    graph: CallGraph, roots: Sequence[MethodRef], class_bits: dict[str, int]
) -> list[int]:
    """Reachable-class bitmask of each root, from one traversal shared by all roots.

    Iterative Tarjan over the nodes the roots reach. Tarjan completes
    strongly connected components sinks-first, so when a component
    completes, the masks of the components it calls are final and its own
    mask is its members' class bits OR-ed with theirs (Nuutila's
    condensation closure). A class id gets its bit in ``class_bits`` when
    the first component holding one of its methods completes, so a mask is
    never wider than the classes completed before it: memory is one mask
    per component, each up to (classes completed so far) / 8 bytes.
    """
    number: dict[MethodRef, int] = {}  # DFS number of every reached node
    class_of: list[str] = []  # class id of each reached node, by DFS number
    lowlink: list[int] = []  # _DONE once the node's component is complete
    masks: list[int] = []  # partial while the node is on the stack, then its component's mask
    component_stack: list[int] = []

    def visit(node: MethodRef) -> int:
        index = len(lowlink)
        number[node] = index
        class_of.append(node.class_id)
        lowlink.append(index)
        masks.append(0)
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
                        class_id = class_of[member]
                        bit = class_bits.get(class_id)
                        if bit is None:
                            bit = class_bits[class_id] = 1 << len(class_bits)
                        mask |= masks[member] | bit
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

    An entry reaches every class of every method on a call path from it,
    its own class included; the filter classes are then removed. Entries
    with no reachable production class are recorded with an empty list
    rather than omitted, so they still rank during minimization. Entries
    whose ids collide (overloads) have their sets unioned. All entries
    share one traversal of the graph, so cycles and deep chains are safe.
    """
    entries = sorted(set(entries))
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
