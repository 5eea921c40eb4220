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
that path's string. The JSONL parser decodes each line with one call
into the C scanner and then checks it in one fixed order, so a rejected
line is named by the first check it fails. ``consolidate`` then groups
the events per class; ``path_to_class`` decides which paths are class
files.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import UNEXPECTED_BOM, ParseError

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
        previous = 0  # below every ChangeEvent timestamp, which is positive
        for timestamp in map(_TIMESTAMP, self.events):
            if timestamp < previous:
                raise ValueError(f"the events of class {self.class_id!r} are not in time order")
            previous = timestamp


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
        # Not a field: the non-empty roots, longest first, as path_to_class tries them.
        object.__setattr__(
            self, "_longest_roots_first", tuple(r for r in sorted(self.roots, key=len, reverse=True) if r)
        )


_REQUIRED_JSONL_VALUES = itemgetter("path", "ts", "add", "del", "commit")
_scan_json = json.JSONDecoder().scan_once  # what json.loads calls, less its Python frames


def parse_change_log(stream: Iterable[str]) -> list[ChangeEvent]:
    """Parse change-event JSONL into a list of events, in input order.

    ``stream`` is an open text file or any iterable of ``str`` lines;
    decoding is the opener's job, and a stream's decode error passes
    through. Each stripped line is decoded by one call into the C scanner,
    then checked in one sequence: an object, the required fields present,
    the three counts, ``ts``, ``path``, ``commit`` and ``renamed_from``. A
    line is rejected at the first check it fails, with the message
    ``json.loads`` and that check give. The accepted events share one
    string per distinct path (rename sources included), one string per
    distinct commit id and one ``int`` per distinct timestamp, where the
    decoder makes new ones on each line.
    """
    events: list[ChangeEvent] = []
    append = events.append
    new = tuple.__new__
    shared_path = {}.setdefault
    shared_commit = {}.setdefault
    shared_timestamp = {}.setdefault
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
        if renamed_from is not None:
            if type(renamed_from) is not str:
                raise ParseError(f"field 'renamed_from' must be a string at line {lineno}", line=lineno)
            renamed_from = shared_path(renamed_from, renamed_from)
        append(new(ChangeEvent, (
            shared_path(path, path), shared_timestamp(ts, ts), added, deleted, modified,
            shared_commit(commit, commit), renamed_from,
        )))
    return events


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


def parse_git_numstat(stream: Iterable[str]) -> list[ChangeEvent]:
    """Parse the numstat adapter format into events, in input order.

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
    events: list[ChangeEvent] = []
    append = events.append
    new = tuple.__new__
    shared_path = {}.setdefault  # one string per distinct path, shared by its events and rename sources
    commit: str | None = None  # the id and timestamp of the last commit header, shared by its events
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
            commit, timestamp = fields[1], _number(fields[2], lineno)
            if timestamp <= 0:
                raise ParseError(f"commit timestamp must be positive at line {lineno}", line=lineno)
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
            if renamed_from is not None:
                renamed_from = shared_path(renamed_from, renamed_from)
        path = shared_path(path, path)
        append(new(ChangeEvent, (path, timestamp, added, deleted, 0, commit, renamed_from)))
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
