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

Both parsers keep one object per distinct path, commit id and timestamp,
shared by every event that holds it; a rename source equal to a path is
that path's string. The JSONL parser accepts the common record in one
call into the C scanner and one expression; every other line takes
field-by-field checks that accept the same lines and name the first
thing wrong with a rejected one. ``consolidate`` then groups the events per class;
``path_to_class`` decides which paths are class files.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, NamedTuple

from .errors import ParseError, text_lines, undecodable_after

logger = logging.getLogger(__name__)

MAX_INTEGER = 2**63 - 1
"""Largest line count, timestamp or ``as_of`` accepted from any input (a signed
64-bit integer); a larger one would overflow the float arithmetic of the risk scores."""


class _ChangeEventFields(NamedTuple):
    path: str
    timestamp: int
    added: int
    deleted: int
    modified: int
    commit_id: str
    renamed_from: str | None = None


class ChangeEvent(_ChangeEventFields):
    """One commit-level modification of one file.

    An immutable named tuple, so it also indexes, unpacks and sorts by its
    fields. The constructor, ``_make`` and ``_replace`` validate the counts
    and the timestamp.
    """

    __slots__ = ()

    def __new__(
        cls,
        path: str,
        timestamp: int,
        added: int,
        deleted: int,
        modified: int,
        commit_id: str,
        renamed_from: str | None = None,
    ) -> ChangeEvent:
        for name, value in (("added", added), ("deleted", deleted), ("modified", modified)):
            if value < 0:
                raise ValueError(f"negative line count: {name}={value}")
            if value > MAX_INTEGER:
                raise ValueError(f"line count exceeds {MAX_INTEGER}: {name}={value}")
        if timestamp <= 0:
            raise ValueError(f"timestamp must be positive, got {timestamp}")
        if timestamp > MAX_INTEGER:
            raise ValueError(f"timestamp exceeds {MAX_INTEGER}, got {timestamp}")
        return tuple.__new__(cls, (path, timestamp, added, deleted, modified, commit_id, renamed_from))

    @classmethod
    def _make(cls, iterable: Iterable) -> ChangeEvent:
        return cls(*iterable)  # the inherited _make, which _replace calls, skips __new__

    @property
    def churn(self) -> int:
        return self.added + self.deleted + self.modified


_TIMESTAMP = itemgetter(1)  # of a ChangeEvent


@dataclass(frozen=True)
class ClassHistory:
    """Consolidated modification events of one logical class, in time order.

    The constructor raises ``ValueError`` for an event whose timestamp is
    smaller than the one before it; equal timestamps are allowed.
    ``consolidate`` builds every history in this order.
    """

    class_id: str
    events: tuple[ChangeEvent, ...]

    def __post_init__(self) -> None:
        timestamps = list(map(_TIMESTAMP, self.events))
        if timestamps != sorted(timestamps):
            raise ValueError(f"the events of class {self.class_id!r} are not in time order")


@dataclass(frozen=True)
class SourceRootConfig:
    """How file paths map to class identities.

    ``roots`` are path prefixes stripped before conversion (longest match
    wins); ``extensions`` lists the suffixes recognized as class files.
    An empty extension raises ``ValueError``: every path ends in it.
    """

    roots: tuple[str, ...]
    extensions: tuple[str, ...] = (".java",)

    def __post_init__(self) -> None:
        if not self.roots:
            raise ValueError("at least one source root is required")
        if "" in self.extensions:
            raise ValueError("an empty extension would make every file a class file")
        object.__setattr__(self, "roots", tuple(r.rstrip("/") for r in self.roots))
        object.__setattr__(self, "extensions", tuple(self.extensions))
        # Not a field: the non-empty roots, longest first, as path_to_class tries them.
        object.__setattr__(
            self, "_longest_roots_first", tuple(r for r in sorted(self.roots, key=len, reverse=True) if r)
        )


_REQUIRED_JSONL_FIELDS = ("path", "ts", "add", "del", "commit")
_REQUIRED_JSONL_VALUES = itemgetter(*_REQUIRED_JSONL_FIELDS)
_scan_json = json.JSONDecoder().scan_once  # what raw_decode calls, less its Python frame


def parse_change_log(stream: IO | Iterable) -> list[ChangeEvent]:
    """Parse change-event JSONL into a list of events, in input order.

    A text stream is enumerated directly, and a line iterable, which may
    hold bytes, goes through ``numbered_lines`` (see ``text_lines``). Each
    stripped line is decoded by one call into the C scanner, and its
    fields are checked in one expression. A line failing either is handed
    to ``_checked_event``, whose field-by-field checks name the first
    thing wrong with it; they accept exactly the lines accepted here.
    The accepted events share one string per distinct path (rename
    sources included), one string per distinct commit id and one ``int``
    per distinct timestamp, where the decoder makes new ones on each line.
    """
    events: list[ChangeEvent] = []
    append = events.append
    new = tuple.__new__
    shared_path = {}.setdefault
    shared_commit = {}.setdefault
    shared_timestamp = {}.setdefault
    lineno = 0
    try:
        for lineno, line in text_lines(stream):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _scan_json(line, 0)
                if end == len(line) and type(record) is dict:
                    path, ts, added, deleted, commit = _REQUIRED_JSONL_VALUES(record)
                    modified = record.get("mod", 0)
                    renamed_from = record.get("renamed_from")
                    # JSON yields no int subclass but bool, which `type(...) is int` rejects.
                    if (
                        type(ts) is int
                        and type(added) is int
                        and type(deleted) is int
                        and type(modified) is int
                        and 0 < ts <= MAX_INTEGER
                        and 0 <= added <= MAX_INTEGER
                        and 0 <= deleted <= MAX_INTEGER
                        and 0 <= modified <= MAX_INTEGER
                        and type(path) is str
                        and type(commit) is str
                        and (renamed_from is None or type(renamed_from) is str)
                    ):
                        path = shared_path(path, path)
                        if renamed_from is not None:
                            renamed_from = shared_path(renamed_from, renamed_from)
                        ts = shared_timestamp(ts, ts)
                        commit = shared_commit(commit, commit)
                        append(new(ChangeEvent, (path, ts, added, deleted, modified, commit, renamed_from)))
                        continue
            # StopIteration: no JSON value at all; KeyError: a required field missing
            except (StopIteration, ValueError, RecursionError, KeyError):
                pass
            append(_checked_event(line, lineno))
    except UnicodeDecodeError:
        raise undecodable_after(lineno) from None
    return events


def _checked_event(line: str, lineno: int) -> ChangeEvent:
    """The event of one stripped JSONL line, or the ``ParseError`` naming the first check it fails."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {lineno}: {exc.msg}", line=lineno)
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise ParseError(f"unreadable JSON at line {lineno}: {exc}", line=lineno) from None
    if not isinstance(record, dict):
        raise ParseError(f"expected an object at line {lineno}", line=lineno)
    for field in _REQUIRED_JSONL_FIELDS:
        if field not in record:
            raise ParseError(f"missing required field '{field}' at line {lineno}", line=lineno)
    counts = []
    for field in ("add", "del", "mod"):
        value = record.get(field, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"field '{field}' must be an integer at line {lineno}", line=lineno)
        if value < 0:
            raise ParseError(f"negative line count at line {lineno}", line=lineno)
        if value > MAX_INTEGER:
            raise ParseError(f"field '{field}' exceeds {MAX_INTEGER} at line {lineno}", line=lineno)
        counts.append(value)
    ts = record["ts"]
    if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
        raise ParseError(f"field 'ts' must be a positive integer at line {lineno}", line=lineno)
    if ts > MAX_INTEGER:
        raise ParseError(f"field 'ts' exceeds {MAX_INTEGER} at line {lineno}", line=lineno)
    if not isinstance(record["path"], str):
        raise ParseError(f"field 'path' must be a string at line {lineno}", line=lineno)
    if not isinstance(record["commit"], str):
        raise ParseError(f"field 'commit' must be a string at line {lineno}", line=lineno)
    renamed_from = record.get("renamed_from")
    if renamed_from is not None and not isinstance(renamed_from, str):
        raise ParseError(f"field 'renamed_from' must be a string at line {lineno}", line=lineno)
    return tuple.__new__(ChangeEvent, (record["path"], ts, *counts, record["commit"], renamed_from))


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


def parse_git_numstat(stream: IO | Iterable) -> list[ChangeEvent]:
    """Parse the numstat adapter format into events, in input order.

    numstat carries no modified-line count, so ``modified`` is always 0;
    callers needing it must use the JSONL format with an explicit ``mod``.
    A commit header is ``COMMIT``, a commit id and a timestamp of decimal
    digits, separated by whitespace (``str.isspace``: the characters the
    regex ``\\s`` matches), with nothing but whitespace after them.
    A file line is two counts and a path, separated by tabs. A count is
    ``-`` or decimal digits (``str.isdecimal``: the characters the regex
    ``\\d`` matches); the path is the rest of the line, non-empty and
    without a line break. A text stream is enumerated directly, and a line
    iterable, which may hold bytes, goes through ``numbered_lines``.
    """
    events: list[ChangeEvent] = []
    append = events.append
    new = tuple.__new__
    shared_path = {}.setdefault  # one string per distinct path, shared by its events and rename sources
    commit: str | None = None  # the id and timestamp of the last commit header, shared by its events
    timestamp = 0
    binary_lines: list[int] = []
    lineno = 0
    try:
        for lineno, line in text_lines(stream):
            line = line.rstrip("\n")
            if not line or line.isspace():
                continue
            if line.startswith("COMMIT"):
                fields = line.split()
                if len(fields) != 3 or not line[6:7].isspace() or not fields[2].isdecimal():
                    raise ParseError(f"malformed commit header at line {lineno}", line=lineno)
                commit, timestamp = fields[1], _number(fields[2], lineno)
                if timestamp <= 0:
                    raise ParseError(f"commit timestamp must be positive at line {lineno}", line=lineno)
                continue
            added_text, _, rest = line.partition("\t")
            deleted_text, _, path = rest.partition("\t")
            numeric = added_text.isdecimal() and deleted_text.isdecimal()
            if not (numeric or _is_count(added_text) and _is_count(deleted_text)) or not path or "\n" in path:
                raise ParseError(f"unrecognized numstat line at line {lineno}", line=lineno)
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
                if renamed_from is not None:
                    renamed_from = shared_path(renamed_from, renamed_from)
            path = shared_path(path, path)
            append(new(ChangeEvent, (path, timestamp, added, deleted, 0, commit, renamed_from)))
    except UnicodeDecodeError:
        raise undecodable_after(lineno) from None
    if binary_lines:
        logger.warning(
            "%d line(s) with binary file counts recorded as 0/0; the first at line %d",
            len(binary_lines),
            binary_lines[0],
        )
    return events


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
    for root in cfg._longest_roots_first:
        if path.startswith(root + "/"):
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


_PATH = itemgetter(0)  # of a ChangeEvent
_RENAMED_FROM = itemgetter(6)
_BY_TIME_THEN_COMMIT = itemgetter(1, 5)


def consolidate(events: Iterable[ChangeEvent], cfg: SourceRootConfig) -> dict[str, ClassHistory]:
    """Group events into per-class histories, merging rename chains.

    Paths are linked by explicit rename annotations first, then by equal
    resolved class ids. Each history is sorted by (timestamp, commit_id)
    and deduplicated on (commit_id, path), keeping the first event of the
    input. The merged identity is the class id resolved from the path of
    the newest event in the group. Histories come in the input order of
    their first events.

    Two passes over the events, which are first made a list if they are
    not one: the first links the paths, the second appends each event of a
    class file to its group's list. No list holds every kept event, and
    a group's list is emptied once its history holds its events.
    """
    if not isinstance(events, list):
        events = list(events)
    class_of = {path: path_to_class(path, cfg) for path in dict.fromkeys(map(_PATH, events))}
    groups = _UnionFind()
    for event in filter(_RENAMED_FROM, events):
        if class_of[event.path] is not None:
            groups.union(event.renamed_from, event.path)

    # Same resolved class id links otherwise-unrelated path groups. Only paths
    # with events of their own take part: a rename source without events stays
    # linked by its rename alone.
    class_anchor: dict[str, str] = {}
    for path, class_id in class_of.items():
        if class_id is not None:
            groups.union(path, class_anchor.setdefault(class_id, path))

    # One list per group, in the order of each group's first path, which is
    # the order of its first event; every path of a class file maps to its list.
    by_group: dict[str, list[ChangeEvent]] = {}
    members_of = {
        path: by_group.setdefault(groups.find(path), [])
        for path, class_id in class_of.items()
        if class_id is not None
    }
    members_for = members_of.get
    for event in events:
        members = members_for(event[0])
        if members is not None:
            members.append(event)

    histories: dict[str, ClassHistory] = {}
    for members in by_group.values():
        seen: set[tuple[str, str]] = set()
        unique = []
        for event in members:
            key = (event.commit_id, event.path)
            if key not in seen:
                seen.add(key)
                unique.append(event)
        members.clear()  # so that each group's list is freed once its history holds the events
        unique.sort(key=_BY_TIME_THEN_COMMIT)
        class_id = class_of[unique[-1].path]
        histories[class_id] = ClassHistory(class_id=class_id, events=tuple(unique))
    return histories
