"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths:
reachability is a Floyd-Warshall closure over an adjacency matrix; decay
uses the 0.5 ** (age / half_life) form instead of exp(-alpha * age) (or,
where a test needs the library's bits, that formula in a per-event loop
over the whole history, where the library bisects and shares work across
horizons); aggregation uses textbook formulas on the sorted values; the
signed-rank reference enumerates all 2^n sign assignments, and the 2x2
reference sums exact rationals. The reference parsers match whole lines
against regular expressions, where the library scans them by hand (and
decode each change-event JSONL line with ``json.loads`` and check it field
by field, where the library decodes it in one call and checks it in one
expression), and build ``MethodRef``s through the validating public
constructor, where the library skips the checks it has already made.
The reference consolidation groups, deduplicates and sorts event records
one at a time, where the library merges per-path columns.

Tests build a change log only through the parser: ``jsonl_lines`` writes
event records as the change-event JSONL it reads. ``class_history`` builds
a history with its constructor, from the columns of ``history_columns``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import statistics
from array import array
from fractions import Fraction

from riskmin.change_history import ChangeEvent, ClassHistory, path_to_class
from riskmin.dependency_graph import MethodRef
from riskmin.errors import ParseError


# ---------------------------------------------------------------------------
# Graph reachability


def transitive_closure(nodes, edges):
    """node -> set of nodes reachable by a path of length >= 1."""
    ordered = sorted(nodes)
    index = {node: i for i, node in enumerate(ordered)}
    n = len(ordered)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {
        node: {other for other in ordered if reach[index[node]][index[other]]}
        for node in ordered
    }


def closure_reachable(edges, entry):
    """Nodes reachable from entry, including entry itself."""
    nodes = {entry}
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    closure = transitive_closure(nodes, edges)
    return {entry} | closure.get(entry, set())


def transitive_closure_bitset(n, index_edges):
    """Closure over nodes 0..n-1 with rows as integer bitmasks.

    Same Floyd-Warshall recurrence as above, fast enough for a few hundred
    nodes; returns row i as the bitmask of nodes reachable via length >= 1.
    """
    rows = [0] * n
    for a, b in index_edges:
        rows[a] |= 1 << b
    for k in range(n):
        bit_k = 1 << k
        for i in range(n):
            if rows[i] & bit_k:
                rows[i] |= rows[k]
    return rows


# ---------------------------------------------------------------------------
# Line grammars of the change log and the call graph


REFERENCE_MAX_INTEGER = 2**63 - 1
_COMMIT_HEADER = re.compile(r"^COMMIT\s+(\S+)\s+(\d+)\s*$")
_NUMSTAT_LINE = re.compile(r"^(-|\d+)\t(-|\d+)\t([^\r\n]+)$")
_BRACED_RENAME = re.compile(r"\{([^{}]*) => ([^{}]*)\}")
_TEXT_EDGE = re.compile(r"^M:(\S+)\s+\((\w)\)(\S+)$")


def _bounded_integer(digits, lineno):
    try:
        value = int(digits)
    except ValueError:
        raise ParseError(f"number too long at line {lineno}", line=lineno) from None
    if value > REFERENCE_MAX_INTEGER:
        raise ParseError(f"number exceeds {REFERENCE_MAX_INTEGER} at line {lineno}", line=lineno)
    return value


def _rename(path):
    match = _BRACED_RENAME.search(path)
    if match:
        old = (path[: match.start()] + match.group(1) + path[match.end() :]).replace("//", "/")
        new = (path[: match.start()] + match.group(2) + path[match.end() :]).replace("//", "/")
        return old, new
    if " => " in path:
        old, new = path.split(" => ", 1)
        return old.strip(), new.strip()
    return None, path


def reference_numstat(lines):
    """Events of a ``git log --numstat`` change log.

    A malformed line raises ParseError with the line number and message the
    library's parser gives.
    """
    events = []
    current = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        if line.startswith("COMMIT"):
            header = _COMMIT_HEADER.match(line)
            if header is None:
                raise ParseError(f"malformed commit header at line {lineno}", line=lineno)
            current = (header.group(1), _bounded_integer(header.group(2), lineno))
            if current[1] <= 0:
                raise ParseError(f"commit timestamp must be positive at line {lineno}", line=lineno)
            continue
        stat = _NUMSTAT_LINE.match(line)
        if stat is None:
            bom = ": Unexpected UTF-8 BOM (decode using utf-8-sig)" if line.startswith("\ufeff") else ""
            raise ParseError(f"unrecognized numstat line at line {lineno}{bom}", line=lineno)
        if current is None:
            raise ParseError(f"file change before any commit header at line {lineno}", line=lineno)
        added_text, deleted_text, path = stat.groups()
        if added_text == "-" or deleted_text == "-":
            added = deleted = 0
        else:
            added, deleted = _bounded_integer(added_text, lineno), _bounded_integer(deleted_text, lineno)
        renamed_from, path = _rename(path)
        events.append(ChangeEvent(path, current[1], added, deleted, 0, current[0], renamed_from))
    return events


_JSONL_REQUIRED = ("path", "ts", "add", "del", "commit")


def reference_change_log(lines):
    """Events of a change-event JSONL log: ``json.loads`` of each stripped line, then one check per field.

    A malformed line raises ParseError with the line number and message the
    library's parser gives.
    """
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON at line {lineno}: {exc.msg}", line=lineno)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"unreadable JSON at line {lineno}: {exc}", line=lineno) from None
        if not isinstance(record, dict):
            raise ParseError(f"expected an object at line {lineno}", line=lineno)
        for field in _JSONL_REQUIRED:
            if field not in record:
                raise ParseError(f"missing required field '{field}' at line {lineno}", line=lineno)
        counts = []
        for field in ("add", "del", "mod"):
            value = record.get(field, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"field '{field}' must be an integer at line {lineno}", line=lineno)
            if value < 0:
                raise ParseError(f"negative line count at line {lineno}", line=lineno)
            if value > REFERENCE_MAX_INTEGER:
                raise ParseError(f"field '{field}' exceeds {REFERENCE_MAX_INTEGER} at line {lineno}", line=lineno)
            counts.append(value)
        ts = record["ts"]
        if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
            raise ParseError(f"field 'ts' must be a positive integer at line {lineno}", line=lineno)
        if ts > REFERENCE_MAX_INTEGER:
            raise ParseError(f"field 'ts' exceeds {REFERENCE_MAX_INTEGER} at line {lineno}", line=lineno)
        if not isinstance(record["path"], str):
            raise ParseError(f"field 'path' must be a string at line {lineno}", line=lineno)
        if not isinstance(record["commit"], str):
            raise ParseError(f"field 'commit' must be a string at line {lineno}", line=lineno)
        renamed_from = record.get("renamed_from")
        if renamed_from is not None and not isinstance(renamed_from, str):
            raise ParseError(f"field 'renamed_from' must be a string at line {lineno}", line=lineno)
        events.append(ChangeEvent(record["path"], ts, *counts, record["commit"], renamed_from))
    return events


def _method(token, lineno):
    if token.startswith("\ufeff"):
        raise ParseError(
            f"malformed call-graph line at line {lineno}: Unexpected UTF-8 BOM (decode using utf-8-sig)", line=lineno
        )
    class_id, colon, rest = token.partition(":")
    if not colon:
        raise ParseError(f"method token {token!r} missing ':' at line {lineno}", line=lineno)
    if not class_id or not rest:
        raise ParseError(f"incomplete method token {token!r} at line {lineno}", line=lineno)
    name, paren, descriptor = rest.partition("(")
    return MethodRef(class_id, name, (paren + descriptor).strip("()"))


def reference_callgraph_text(lines):
    """(caller, callee) edges of a ``callgraph-text`` file, in file order.

    A malformed line raises ParseError with the line number and message the
    library's parser gives.
    """
    edges = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("C:"):
            continue
        match = _TEXT_EDGE.match(line)
        if match is None:
            raise ParseError(f"malformed call-graph line at line {lineno}", line=lineno)
        caller, _, callee = match.groups()
        edges.append((_method(caller, lineno), _method(callee, lineno)))
    return edges


# ---------------------------------------------------------------------------
# Consolidation, one event at a time


def reference_consolidate(events, cfg):
    """Class id -> its events, in time order: the grouping ``consolidate`` computes, one event at a time.

    Paths are linked by each event's rename source, then by equal class ids
    among the paths that have events; a group is the class of the path of
    its newest event. A group's events keep their input order, lose every
    repeat of a (commit_id, path) pair after the first, and are then sorted
    stably by (timestamp, commit_id). Groups come in the order of their first
    events. Class ids come from the library's ``path_to_class``.
    """
    events = list(events)
    class_of = {event.path: path_to_class(event.path, cfg) for event in events}
    parent = {}

    def find(item):
        parent.setdefault(item, item)
        while parent[item] != item:
            item = parent[item]
        return item

    def union(a, b):
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for event in events:
        if event.renamed_from and class_of[event.path] is not None:
            union(event.renamed_from, event.path)
    anchor = {}
    for path, class_id in class_of.items():
        if class_id is not None:
            union(path, anchor.setdefault(class_id, path))
    groups = {}
    for event in events:
        if class_of[event.path] is not None:
            groups.setdefault(find(event.path), []).append(event)
    histories = {}
    for members in groups.values():
        seen, kept = set(), []
        for event in members:
            if (event.commit_id, event.path) not in seen:
                seen.add((event.commit_id, event.path))
                kept.append(event)
        kept.sort(key=lambda event: (event.timestamp, event.commit_id))
        histories[class_of[kept[-1].path]] = tuple(kept)
    return histories


def history_columns(events):
    """The columns of a ``ClassHistory`` of events in time order, as plain lists and a dict."""
    return {
        "timestamps": [event.timestamp for event in events],
        "added": [event.added for event in events],
        "deleted": [event.deleted for event in events],
        "modified": [event.modified for event in events],
        "weights": [math.log1p(event.added + event.deleted + event.modified) for event in events],
        "commits": [event.commit_id for event in events],
        "paths": [event.path for event in events],
        "renames": {index: event.renamed_from for index, event in enumerate(events) if event.renamed_from is not None},
    }


def class_history(class_id, events):
    """The ``ClassHistory`` of events in time order, built by its constructor from ``history_columns``."""
    columns = history_columns(tuple(events))
    counts = (array("q", columns[name]) for name in ("timestamps", "added", "deleted", "modified"))
    return ClassHistory(class_id, *counts, tuple(columns["commits"]), tuple(columns["paths"]), columns["renames"])


def jsonl_lines(events):
    """One change-event JSONL line per event record, in order: the input ``parse_change_log`` reads."""
    return [
        json.dumps({"path": event.path, "ts": event.timestamp, "add": event.added, "del": event.deleted,
                    "mod": event.modified, "commit": event.commit_id}
                   | ({} if event.renamed_from is None else {"renamed_from": event.renamed_from}))
        for event in events
    ]


# ---------------------------------------------------------------------------
# Risk scoring and aggregation


def naive_class_risk(events, metric, half_life_days, as_of, *, exact=False):
    """Half-life decay written as a power of one half, a plain ``+=`` in event order.

    ``exact=True`` writes the decay as exp(-ln(2) / T * age) and the extent
    weight as log1p(churn) instead, as the formula was first written, which
    the library reproduces bit for bit.
    """
    rate = 0.0 if half_life_days is None else -(math.log(2.0) / half_life_days)
    total = 0.0
    for event in events:
        age_days = (as_of - event["ts"]) / 86400.0
        if age_days < 0:
            continue
        churn = event["add"] + event["del"] + event["mod"]
        if metric == "frequency":
            weight = 1.0
        else:
            weight = math.log1p(churn) if exact else math.log(1 + churn)
        if exact:
            decay = math.exp(rate * age_days)
        elif half_life_days is None:
            decay = 1.0
        else:
            decay = 0.5 ** (age_days / half_life_days)
        total += weight * decay
    return total


def exact_risk_table(histories, metric, half_life_days, as_of):
    """Class id -> ``naive_class_risk(..., exact=True)`` of each ``ClassHistory``."""
    return {
        class_id: naive_class_risk(
            [{"ts": e.timestamp, "add": e.added, "del": e.deleted, "mod": e.modified} for e in history.events],
            metric, half_life_days, as_of, exact=True,
        )
        for class_id, history in histories.items()
    }


def naive_aggregate(values, op):
    """The operator's textbook formula on the sorted values, float sums left to right.

    ``avg`` and ``median`` are the ``statistics`` module's, the geometric
    mean is the exponential of the mean logarithm: the library reproduces
    each bit for bit, on every Python version.
    """
    values = sorted(values)
    n = len(values)
    if op == "avg":
        return statistics.fmean(values)
    if op == "gmean":
        return math.exp(statistics.fmean([math.log(v) for v in values]))
    if op == "hmean":
        reciprocals = 0.0
        for v in values:
            reciprocals += 1.0 / v
        if reciprocals == math.inf:  # a value below about 1e-308; divided by the smallest, none exceeds 1
            return values[0] * (n / math.fsum(values[0] / v for v in values))
        return n / reciprocals
    if op == "median":
        return statistics.median(values)
    raise ValueError(op)


def naive_score(dep_classes, class_risks, op):
    positives = [class_risks.get(c, 0.0) for c in dep_classes]
    positives = [v for v in positives if v > 0]
    if not positives:
        return 0.0
    return naive_aggregate(positives, op)


def naive_select(scores, fraction):
    """(selected, excluded) in rank order: score descending, id ascending."""
    ranked = sorted(scores, key=lambda t: (-scores[t], t))
    n = len(ranked)
    keep = math.floor(n * fraction + 0.5)
    keep = max(min(1, n), min(n, keep))
    return ranked[:keep], ranked[keep:]


def pipeline_selected(project, metric, half_life_days, op, fraction):
    """Full minimization pipeline over a micro-project, the naive way."""
    class_risks = {}
    for event in project.events:
        class_risks.setdefault(event["class_id"], []).append(event)
    class_risks = {
        class_id: naive_class_risk(events, metric, half_life_days, project.as_of)
        for class_id, events in class_risks.items()
    }
    test_classes = {entry.split("#")[0] for entry in project.entries}
    closure = transitive_closure(
        {node for edge in project.edges for node in edge} | set(project.entries),
        project.edges,
    )
    scores = {}
    for entry in project.entries:
        reached = {entry} | closure.get(entry, set())
        dep_classes = {node.split("#")[0] for node in reached} - test_classes
        scores[entry] = naive_score(dep_classes, class_risks, op)
    return naive_select(scores, fraction)


# ---------------------------------------------------------------------------
# Statistics


def enum_wilcoxon(diffs):
    """Exact two-sided signed-rank p by enumerating every sign assignment.

    Midranks are computed positionally (count of strictly smaller
    magnitudes plus half the ties), not by sorting as the library does.
    """
    nonzero = [d for d in diffs if d != 0]
    if not nonzero:
        raise ValueError("all differences are zero")
    magnitudes = [abs(d) for d in nonzero]
    ranks = []
    for m in magnitudes:
        smaller = sum(1 for other in magnitudes if other < m)
        ties = sum(1 for other in magnitudes if other == m)
        ranks.append(smaller + (ties + 1) / 2.0)
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    w_obs = min(w_plus, w_minus)
    favorable = 0
    for signs in itertools.product((1, -1), repeat=len(nonzero)):
        wp = sum(r for r, s in zip(ranks, signs) if s > 0)
        wm = sum(r for r, s in zip(ranks, signs) if s < 0)
        if min(wp, wm) <= w_obs + 1e-9:
            favorable += 1
    return w_plus, w_minus, favorable / 2 ** len(nonzero)


def enum_fisher(a, b, c, d):
    """Exact-rational two-sided 2x2 p-value (probability-mass rule)."""
    row1, row2, col1 = a + b, c + d, a + c
    n = row1 + row2
    if row1 == 0 or row2 == 0 or col1 == 0 or col1 == n:
        return 1.0

    def pmf(k):
        return Fraction(
            math.comb(row1, k) * math.comb(row2, col1 - k), math.comb(n, col1)
        )

    observed = pmf(a)
    threshold = observed * (1 + Fraction(1, 10**7))
    total = Fraction(0)
    for k in range(max(0, col1 - row2), min(row1, col1) + 1):
        if pmf(k) <= threshold:
            total += pmf(k)
    return float(min(total, Fraction(1)))


def naive_cliffs_delta(a, b):
    greater = sum(1 for x in a for y in b if x > y)
    less = sum(1 for x in a for y in b if x < y)
    return (greater - less) / (len(a) * len(b))
