"""Change-history ingestion.

Turns raw per-commit change records into one chronological event sequence
per logical class, following renames and path relocations.

Two input formats are accepted:

* change-event JSONL (canonical interchange): one JSON object per line with
  fields ``path`` (str), ``ts`` (int, Unix seconds), ``add``/``del`` (int),
  ``commit`` (str), optional ``mod`` (int, defaults to 0) and optional
  ``renamed_from`` (str).
* a ``git log --numstat`` adapter: ``COMMIT <hash> <unix_ts>`` header lines
  followed by ``<added>\\t<deleted>\\t<path>`` file lines. ``-`` counts
  (binary files) become 0/0, counted in one warning per file;
  ``{old => new}`` and ``old => new`` rename syntax is resolved to the new
  path with the old one kept as a rename annotation. Generate suitable
  input with::

      git log -M --pretty='format:COMMIT %H %ct' --numstat

Line counts and timestamps may not exceed ``MAX_INTEGER``.

Both parsers return a ``ChangeLog``: the events as columns grouped by
path, with no object per event. Paths and rename sources share one
string per distinct path, and commit ids one string per distinct id.
The JSONL parser decodes each line with one call into the C scanner and
then checks it in one fixed order, so a rejected line is named by the
first check it fails; neither parser appends anything for a line until
its last check has passed. ``consolidate`` then merges the paths of each
class, one group at a time, into a ``ClassHistory`` of time-ordered
columns; ``path_to_class`` decides which paths are class files. The
parsers are the one way in: every check of an event's fields is theirs.
"""

from __future__ import annotations

import json
import logging
import re
import struct
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter, lt
from typing import Iterable, Iterator, NamedTuple

from .errors import UNEXPECTED_BOM, ParseError

logger = logging.getLogger(__name__)

MAX_INTEGER = 2**63 - 1
"""Largest line count, timestamp or ``as_of`` accepted from any input (a signed
64-bit integer); a larger one would overflow the float arithmetic of the risk scores."""


class ChangeEvent(NamedTuple):
    """One commit-level modification of one file, as the read-only views
    ``ChangeLog.__iter__`` and ``ClassHistory.events`` rebuild it from the
    columns; nothing on a command's path builds one."""

    path: str
    timestamp: int
    added: int
    deleted: int
    modified: int
    commit_id: str
    renamed_from: str | None = None


FIELDS = 6
"""Numbers per event in a ``ChangeLog`` path's array: input position, timestamp, added, deleted, modified
and the index of its commit id in ``ChangeLog.commits``."""
_COMMIT_INDEX = 5  # the field of that index; the five before it are a history's columns
_pack_fields = struct.Struct(f"={FIELDS}q").pack  # one event's numbers, as an array('q') holds them
_POSITION = itemgetter(0)  # of an (input position, event) pair
_EVENT = itemgetter(1)


class ChangeLog:
    """Parsed change events, as columns grouped by path: what ``parse_change_log``
    and ``parse_git_numstat`` return.

    ``columns`` maps each path, in the order of its first event, to an
    ``array('q')`` of ``FIELDS`` numbers per event, in input order: its
    input position, timestamp, added, deleted and modified line counts,
    and the index of its commit id in ``commits``, which holds each
    distinct id of a JSONL log once, and the id of each numstat commit
    header. ``renames`` maps a path to {input position: rename source} for
    those of its events that carry one. Input positions increase in input
    order; the parsers use line numbers.

    ``len`` counts the events, and iterating yields them as ``ChangeEvent``
    records in input order, rebuilt from the columns: a read-only view,
    for inspection and tests. ``consolidate`` empties the log as it builds
    the histories.
    """

    __slots__ = ("columns", "commits", "renames")

    def __init__(self) -> None:
        self.columns: dict[str, array] = {}
        self.commits: list[str] = []
        self.renames: dict[str, dict[int, str]] = {}

    def __len__(self) -> int:
        return sum(map(len, self.columns.values())) // FIELDS

    def __iter__(self) -> Iterator[ChangeEvent]:
        positioned = []
        for path, fields in self.columns.items():
            positions = fields[0::FIELDS]
            commits = map(self.commits.__getitem__, fields[_COMMIT_INDEX::FIELDS])
            sources = map(self.renames.get(path, {}).get, positions)
            rows = zip(repeat(path), *(fields[field::FIELDS] for field in (1, 2, 3, 4)), commits, sources)
            positioned += zip(positions, map(ChangeEvent._make, rows))
        positioned.sort(key=_POSITION)
        return map(_EVENT, positioned)


@dataclass(frozen=True)
class ClassHistory:
    """Consolidated modification events of one logical class, as columns in time order.

    Event ``i`` changed the file ``paths[i]`` in commit ``commits[i]`` at
    ``timestamps[i]``, adding ``added[i]``, deleting ``deleted[i]`` and
    modifying ``modified[i]`` lines. ``renames`` maps the index of each
    event that carries a rename source to that source. ``timestamps``,
    ``added``, ``deleted`` and ``modified`` are ``array('q')``, and the
    timestamps do not decrease: ``consolidate`` builds the columns in that
    order. The constructor takes the columns as they are and checks
    nothing. ``events`` rebuilds the events from the columns, for
    inspection and tests.
    """

    class_id: str
    timestamps: array
    added: array
    deleted: array
    modified: array
    commits: tuple[str, ...]
    paths: tuple[str, ...]
    renames: dict[int, str]

    __hash__ = None  # the columns are arrays

    @property
    def events(self) -> tuple[ChangeEvent, ...]:
        """The events, in time order, rebuilt from the columns: a read-only view."""
        sources = map(self.renames.get, range(len(self.commits)))
        rows = zip(self.paths, self.timestamps, self.added, self.deleted, self.modified, self.commits, sources)
        return tuple(map(ChangeEvent._make, rows))


@dataclass(frozen=True)
class SourceRootConfig:
    """How file paths map to class identities.

    ``roots`` are path prefixes stripped before conversion (longest match
    wins); ``extensions`` lists the suffixes recognized as class files.
    No extensions, or an empty one, raises ``ValueError``: no path, or
    every path, would name a class.
    """

    roots: tuple[str, ...]
    extensions: tuple[str, ...] = (".java",)

    def __post_init__(self) -> None:
        if not self.roots:
            raise ValueError("at least one source root is required")
        if not self.extensions:
            raise ValueError("an empty extension list would make no file a class file")
        if "" in self.extensions:
            raise ValueError("an empty extension would make every file a class file")
        object.__setattr__(self, "roots", tuple(r.rstrip("/") for r in self.roots))
        object.__setattr__(self, "extensions", tuple(self.extensions))


_REQUIRED_JSONL_VALUES = itemgetter("path", "ts", "add", "del", "commit")
_scan_json = json.JSONDecoder().scan_once  # what json.loads calls, less its Python frames


def parse_change_log(stream: Iterable[str]) -> ChangeLog:
    """Parse change-event JSONL into a ``ChangeLog``.

    ``stream`` is an open text file or any iterable of ``str`` lines;
    decoding is the opener's job, and a stream's decode error passes
    through. Each stripped line is decoded by one call into the C scanner,
    then checked in one sequence: an object, the required fields present,
    the three counts, ``ts``, ``path``, ``commit`` and ``renamed_from``. A
    line is rejected at the first check it fails, with the message
    ``json.loads`` and that check give. The log shares one string per
    distinct path (rename sources included) and one per distinct commit
    id, where the decoder makes new ones on each line.
    """
    log = ChangeLog()
    columns, commits, renames = log.columns, log.commits, log.renames
    shared_path = {}.setdefault
    commit_index: dict[str, int] = {}  # of each distinct commit id in ``commits``
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _scan_json(line, 0)
        except StopIteration:  # no JSON value at the start of the line; json.loads names a BOM there
            problem = UNEXPECTED_BOM if line[0] == "\ufeff" else "Expecting value"
            raise ParseError(f"malformed JSON at line {lineno}: {problem}", line=lineno) from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON at line {lineno}: {exc.msg}", line=lineno) from None
        except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
            raise ParseError(f"unreadable JSON at line {lineno}: {exc}", line=lineno) from None
        if end != len(line):
            raise ParseError(f"malformed JSON at line {lineno}: Extra data", line=lineno)
        if type(record) is not dict:
            raise ParseError(f"expected an object at line {lineno}", line=lineno)
        try:
            path, ts, added, deleted, commit = _REQUIRED_JSONL_VALUES(record)
        except KeyError as exc:  # the first one missing, in the getter's order
            field = exc.args[0]
            raise ParseError(f"missing required field '{field}' at line {lineno}", line=lineno) from None
        # JSON yields no int subclass but bool, which `type(...) is int` rejects.
        if type(added) is not int or not 0 <= added <= MAX_INTEGER:
            raise _count_error("add", added, lineno)
        if type(deleted) is not int or not 0 <= deleted <= MAX_INTEGER:
            raise _count_error("del", deleted, lineno)
        modified = record.get("mod", 0)
        if type(modified) is not int or not 0 <= modified <= MAX_INTEGER:
            raise _count_error("mod", modified, lineno)
        if type(ts) is not int or ts <= 0:
            raise ParseError(f"field 'ts' must be a positive integer at line {lineno}", line=lineno)
        if ts > MAX_INTEGER:
            raise ParseError(f"field 'ts' exceeds {MAX_INTEGER} at line {lineno}", line=lineno)
        if type(path) is not str:
            raise ParseError(f"field 'path' must be a string at line {lineno}", line=lineno)
        if type(commit) is not str:
            raise ParseError(f"field 'commit' must be a string at line {lineno}", line=lineno)
        renamed_from = record.get("renamed_from")
        if renamed_from is not None and type(renamed_from) is not str:
            raise ParseError(f"field 'renamed_from' must be a string at line {lineno}", line=lineno)
        column = columns.get(path)
        if column is None:
            path = shared_path(path, path)
            column = columns[path] = array("q")
        if renamed_from is not None:
            renames.setdefault(path, {})[lineno] = shared_path(renamed_from, renamed_from)
        index = commit_index.get(commit)
        if index is None:
            index = commit_index[commit] = len(commits)
            commits.append(commit)
        column.frombytes(_pack_fields(lineno, ts, added, deleted, modified, index))
    return log


def _count_error(field: str, value: object, lineno: int) -> ParseError:
    """The error for a line count that is not an integer from 0 to ``MAX_INTEGER``."""
    if type(value) is not int:
        return ParseError(f"field '{field}' must be an integer at line {lineno}", line=lineno)
    if value < 0:
        return ParseError(f"negative line count at line {lineno}", line=lineno)
    return ParseError(f"field '{field}' exceeds {MAX_INTEGER} at line {lineno}", line=lineno)


_BRACED_RENAME = re.compile(r"\{([^{}]*) => ([^{}]*)\}")


def _split_rename(path: str) -> tuple[str | None, str]:
    """Resolve git rename syntax; returns (old_path or None, new_path)."""
    match = _BRACED_RENAME.search(path)
    if match:
        old = (path[: match.start()] + match.group(1) + path[match.end() :]).replace("//", "/")
        new = (path[: match.start()] + match.group(2) + path[match.end() :]).replace("//", "/")
        return old, new
    if " => " in path:
        old, new = path.split(" => ", 1)
        return old.strip(), new.strip()
    return None, path


def _number(digits: str, lineno: int) -> int:
    try:
        value = int(digits)
    except ValueError:  # past the integer string-conversion limit
        raise ParseError(f"number too long at line {lineno}", line=lineno) from None
    if value > MAX_INTEGER:
        raise ParseError(f"number exceeds {MAX_INTEGER} at line {lineno}", line=lineno)
    return value


def _is_count(text: str) -> bool:
    return text == "-" or text.isdecimal()


def parse_git_numstat(stream: Iterable[str]) -> ChangeLog:
    """Parse the numstat adapter format into a ``ChangeLog``.

    numstat carries no modified-line count, so ``modified`` is always 0;
    callers needing it must use the JSONL format with an explicit ``mod``.
    A commit header is ``COMMIT``, a commit id and a timestamp of decimal
    digits, separated by whitespace (``str.isspace``: the characters the
    regex ``\\s`` matches), with nothing but whitespace after them.
    A file line is two counts and a path, separated by tabs. A count is
    ``-`` or decimal digits (``str.isdecimal``: the characters the regex
    ``\\d`` matches); the path is the rest of the line, non-empty and
    without a ``\\r`` or ``\\n``. A line may end in LF, CRLF or CR.
    ``stream`` is an open text file or any iterable of ``str`` lines, read
    as ``parse_change_log`` reads it. A rejected line that starts with a
    byte-order mark (U+FEFF) is named as one, as ``json.loads`` names it.
    """
    log = ChangeLog()
    columns, commits, renames = log.columns, log.commits, log.renames
    shared_path = {}.setdefault  # one string per distinct path, shared by its events and rename sources
    commit: int | None = None  # the index in ``commits`` of the last header's id, and its timestamp
    timestamp = 0
    binary_lines: list[int] = []
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\r\n")
        if not line or line.isspace():
            continue
        if line.startswith("COMMIT"):
            fields = line.split()
            if len(fields) != 3 or not line[6:7].isspace() or not fields[2].isdecimal():
                raise ParseError(f"malformed commit header at line {lineno}", line=lineno)
            timestamp = _number(fields[2], lineno)
            if timestamp <= 0:
                raise ParseError(f"commit timestamp must be positive at line {lineno}", line=lineno)
            commit = len(commits)
            commits.append(fields[1])
            continue
        added_text, _, rest = line.partition("\t")
        deleted_text, _, path = rest.partition("\t")
        numeric = added_text.isdecimal() and deleted_text.isdecimal()
        counted = numeric or _is_count(added_text) and _is_count(deleted_text)
        if not counted or not path or "\r" in path or "\n" in path:
            problem = f": {UNEXPECTED_BOM}" if line[:1] == "\ufeff" else ""
            raise ParseError(f"unrecognized numstat line at line {lineno}{problem}", line=lineno)
        if commit is None:
            raise ParseError(f"file change before any commit header at line {lineno}", line=lineno)
        if numeric:
            # Fewer than 19 digits cannot exceed MAX_INTEGER.
            added = int(added_text) if len(added_text) < 19 else _number(added_text, lineno)
            deleted = int(deleted_text) if len(deleted_text) < 19 else _number(deleted_text, lineno)
        else:
            binary_lines.append(lineno)
            added = deleted = 0
        renamed_from = None
        if "=>" in path:
            renamed_from, path = _split_rename(path)
        column = columns.get(path)
        if column is None:
            path = shared_path(path, path)
            column = columns[path] = array("q")
        if renamed_from is not None:
            renames.setdefault(path, {})[lineno] = shared_path(renamed_from, renamed_from)
        column.frombytes(_pack_fields(lineno, timestamp, added, deleted, 0, commit))
    if binary_lines:
        logger.warning(
            "%d line(s) with binary file counts recorded as 0/0; the first at line %d",
            len(binary_lines),
            binary_lines[0],
        )
    return log


def path_to_class(path: str, cfg: SourceRootConfig) -> str | None:
    """Map a repository path to a class id, or None for non-class files.

    The longest matching source root is stripped, the extension dropped,
    and path separators become dots. A path under no configured root is
    converted whole. A file named only by its extension (``src/.java``)
    has no class name, so it is not a class file.
    """
    extension = next((e for e in cfg.extensions if path.endswith(e)), None)
    if extension is None:
        return None
    relative = path
    for root in sorted(cfg.roots, key=len, reverse=True):
        if root and path.startswith(root + "/"):
            relative = path[len(root) + 1 :]
            break
    stem = relative[: -len(extension)]
    if not stem or stem.endswith("/"):
        return None
    return stem.replace("/", ".")


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        """Iterative, with path halving, so a long rename chain cannot overflow the stack."""
        parent = self._parent
        parent.setdefault(item, item)
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def consolidate(log: ChangeLog, cfg: SourceRootConfig) -> dict[str, ClassHistory]:
    """Group a log's events into per-class histories, merging rename chains.

    This empties ``log``. Paths are linked by equal resolved class ids and
    by explicit rename annotations. A history keeps, of each (commit_id,
    path), the first event of the input, and holds them in (timestamp,
    commit_id, input position) order. The merged identity is the class id
    resolved from the path of the newest event in the group. Histories
    come in the input order of their first events.

    The columns of a file that is no class are freed first; then each
    group's columns are taken out of the log, merged, and freed once its
    history is built. A group in which no path repeats a commit and whose
    joined timestamps strictly increase is taken as it is; any other is
    sorted by timestamp, with commit ids and input positions compared
    only among equal timestamps.
    """
    columns, renames = log.columns, log.renames
    class_of = {path: path_to_class(path, cfg) for path in columns}
    # Same resolved class id links otherwise-unrelated path groups. Only paths
    # with events of their own take part: a rename source without events stays
    # linked by its rename alone.
    groups = _UnionFind()
    class_anchor: dict[str, str] = {}
    for path, class_id in class_of.items():
        if class_id is None:
            del columns[path]
            renames.pop(path, None)
        else:
            groups.union(path, class_anchor.setdefault(class_id, path))
    for path, sources in renames.items():
        for source in filter(None, sources.values()):
            groups.union(source, path)

    # The paths of each group, in the order of each group's first path, which
    # is the order of its first event, whichever path the union-find made its root.
    by_group: dict[str, list[str]] = {}
    for path, class_id in class_of.items():
        if class_id is not None:
            by_group.setdefault(groups.find(path), []).append(path)

    histories: dict[str, ClassHistory] = {}
    for paths in by_group.values():
        history = _merged(paths, log, class_of)
        histories[history.class_id] = history
    log.commits.clear()
    return histories


def _merged(paths: list[str], log: ChangeLog, class_of: dict[str, str | None]) -> ClassHistory:
    """The history of one group of paths, whose columns this takes out of ``log``: the events
    ``consolidate`` keeps, in its order. The paths' columns are joined in group order."""
    commit_of = log.commits.__getitem__
    parts = [log.columns.pop(path) for path in paths]
    part_ids = [list(map(commit_of, part[_COMMIT_INDEX::FIELDS])) for part in parts]
    if len(parts) == 1:
        fields, commits = parts[0], part_ids[0]
        group_paths = (paths[0],) * len(commits)
    else:
        # Lists, made tuples at their final size: a tuple grown from an iterator is resized,
        # and in a long-lived process the small tuples that resizing frees pile up on
        # CPython's per-size free lists instead of being reused.
        fields, commits, group_paths = array("q"), [], []
        for path, part, ids in zip(paths, parts, part_ids):
            fields += part
            commits += ids
            group_paths += repeat(path, len(ids))
    timestamps = fields[1::FIELDS]
    if all(map(lt, timestamps, islice(timestamps, 1, None))) and all(len(set(ids)) == len(ids) for ids in part_ids):
        columns = [fields[field::FIELDS] for field in range(_COMMIT_INDEX)]
    else:
        rows: list[int] = []
        start = 0
        for ids in part_ids:
            # The row of each commit's first event in the part: walked backwards, the dict
            # keeps the last row it is given for a commit.
            rows += dict(zip(reversed(ids), reversed(range(start, start + len(ids))))).values()
            start += len(ids)
        if len(set(map(timestamps.__getitem__, rows))) < len(rows):
            # Stable sorts, not one by a (timestamp, commit_id, position) key: the key
            # tuples, once freed, would stay on CPython's tuple free list.
            rows.sort(key=fields[0::FIELDS].__getitem__)
            rows.sort(key=commits.__getitem__)
        rows.sort(key=timestamps.__getitem__)
        pick = itemgetter(*rows) if len(rows) > 1 else lambda column: (column[rows[0]],)
        columns = [array("q", pick(fields[field::FIELDS])) for field in range(_COMMIT_INDEX)]
        commits, group_paths = pick(commits), pick(group_paths)
    positions = columns.pop(0)
    sources: dict[int, str] = {}
    for path in paths:
        sources.update(log.renames.pop(path, {}))
    renames = {}
    if sources:  # one pass over the kept rows; a dropped repeated (commit_id, path) keeps no source
        renames = {index: sources[position] for index, position in enumerate(positions) if position in sources}
    return ClassHistory(class_of[group_paths[-1]], *columns, tuple(commits), tuple(group_paths), renames)
