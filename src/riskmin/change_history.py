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
  (binary files) become 0/0 with a warning; ``{old => new}`` and
  ``old => new`` rename syntax is resolved to the new path with the old one
  kept as a rename annotation. Generate suitable input with::

      git log -M --pretty='format:COMMIT %H %ct' --numstat
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChangeEvent:
    """One commit-level modification of one file."""

    path: str
    timestamp: int
    added: int
    deleted: int
    modified: int
    commit_id: str
    renamed_from: str | None = None

    def __post_init__(self) -> None:
        for name in ("added", "deleted", "modified"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative line count: {name}={getattr(self, name)}")
        if self.timestamp <= 0:
            raise ValueError(f"timestamp must be positive, got {self.timestamp}")

    @property
    def churn(self) -> int:
        return self.added + self.deleted + self.modified


@dataclass(frozen=True)
class ClassHistory:
    """Consolidated, time-ordered modification events of one logical class."""

    class_id: str
    events: tuple[ChangeEvent, ...]


@dataclass(frozen=True)
class SourceRootConfig:
    """How file paths map to class identities.

    ``roots`` are path prefixes stripped before conversion (longest match
    wins); ``extensions`` lists the suffixes recognized as class files.
    """

    roots: tuple[str, ...]
    extensions: tuple[str, ...] = (".java",)

    def __post_init__(self) -> None:
        if not self.roots:
            raise ValueError("at least one source root is required")
        object.__setattr__(self, "roots", tuple(r.rstrip("/") for r in self.roots))
        object.__setattr__(self, "extensions", tuple(self.extensions))


def _lines(stream: IO | Iterable) -> Iterable[str]:
    for raw in stream:
        yield raw.decode("utf-8") if isinstance(raw, bytes) else raw


_REQUIRED_JSONL_FIELDS = ("path", "ts", "add", "del", "commit")


def parse_change_log(stream: IO | Iterable) -> list[ChangeEvent]:
    """Parse change-event JSONL into a list of events, in input order."""
    events: list[ChangeEvent] = []
    for lineno, line in enumerate(_lines(stream), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON at line {lineno}: {exc.msg}", line=lineno)
        if not isinstance(record, dict):
            raise ParseError(f"expected an object at line {lineno}", line=lineno)
        for field in _REQUIRED_JSONL_FIELDS:
            if field not in record:
                raise ParseError(f"missing required field '{field}' at line {lineno}", line=lineno)
        counts = {}
        for field in ("add", "del", "mod"):
            value = record.get(field, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"field '{field}' must be an integer at line {lineno}", line=lineno)
            if value < 0:
                raise ParseError(f"negative line count at line {lineno}", line=lineno)
            counts[field] = value
        ts = record["ts"]
        if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
            raise ParseError(f"field 'ts' must be a positive integer at line {lineno}", line=lineno)
        if not isinstance(record["path"], str):
            raise ParseError(f"field 'path' must be a string at line {lineno}", line=lineno)
        if not isinstance(record["commit"], str):
            raise ParseError(f"field 'commit' must be a string at line {lineno}", line=lineno)
        renamed_from = record.get("renamed_from")
        if renamed_from is not None and not isinstance(renamed_from, str):
            raise ParseError(f"field 'renamed_from' must be a string at line {lineno}", line=lineno)
        events.append(
            ChangeEvent(
                path=record["path"],
                timestamp=ts,
                added=counts["add"],
                deleted=counts["del"],
                modified=counts["mod"],
                commit_id=record["commit"],
                renamed_from=renamed_from,
            )
        )
    return events


_COMMIT_HEADER = re.compile(r"^COMMIT\s+(\S+)\s+(\d+)\s*$")
_NUMSTAT_LINE = re.compile(r"^(-|\d+)\t(-|\d+)\t(.+)$")
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


def parse_git_numstat(stream: IO | Iterable) -> list[ChangeEvent]:
    """Parse the numstat adapter format into events, in input order.

    numstat carries no modified-line count, so ``modified`` is always 0;
    callers needing it must use the JSONL format with an explicit ``mod``.
    """
    events: list[ChangeEvent] = []
    current: tuple[str, int] | None = None
    for lineno, line in enumerate(_lines(stream), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("COMMIT"):
            header = _COMMIT_HEADER.match(line)
            if header is None:
                raise ParseError(f"malformed commit header at line {lineno}", line=lineno)
            current = (header.group(1), int(header.group(2)))
            if current[1] <= 0:
                raise ParseError(f"commit timestamp must be positive at line {lineno}", line=lineno)
            continue
        stat = _NUMSTAT_LINE.match(line)
        if stat is None:
            raise ParseError(f"unrecognized numstat line at line {lineno}", line=lineno)
        if current is None:
            raise ParseError(f"file change before any commit header at line {lineno}", line=lineno)
        commit_id, ts = current
        added_str, deleted_str, path = stat.groups()
        if added_str == "-" or deleted_str == "-":
            logger.warning("binary file counts at line %d (%s); recording 0/0", lineno, path)
            added, deleted = 0, 0
        else:
            added, deleted = int(added_str), int(deleted_str)
        renamed_from, new_path = _split_rename(path)
        events.append(
            ChangeEvent(
                path=new_path,
                timestamp=ts,
                added=added,
                deleted=deleted,
                modified=0,
                commit_id=commit_id,
                renamed_from=renamed_from,
            )
        )
    return events


def path_to_class(path: str, cfg: SourceRootConfig) -> str | None:
    """Map a repository path to a class id, or None for non-class files.

    The longest matching source root is stripped, the extension dropped,
    and path separators become dots. A path under no configured root is
    converted whole.
    """
    extension = next((e for e in cfg.extensions if path.endswith(e)), None)
    if extension is None:
        return None
    relative = path
    for root in sorted(cfg.roots, key=len, reverse=True):
        if root and path.startswith(root + "/"):
            relative = path[len(root) + 1 :]
            break
    return relative[: -len(extension)].replace("/", ".")


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


def consolidate(events: Iterable[ChangeEvent], cfg: SourceRootConfig) -> dict[str, ClassHistory]:
    """Group events into per-class histories, merging rename chains.

    Paths are linked by explicit rename annotations first, then by equal
    resolved class ids. Each history is sorted by (timestamp, commit_id)
    and deduplicated on (commit_id, path). The merged identity is the
    class id resolved from the path of the newest event in the group.
    """
    groups = _UnionFind()
    class_of: dict[str, str | None] = {}
    kept: list[ChangeEvent] = []
    for event in events:
        if event.path not in class_of:
            class_of[event.path] = path_to_class(event.path, cfg)
        if class_of[event.path] is None:
            continue
        kept.append(event)
        if event.renamed_from:
            groups.union(event.renamed_from, event.path)

    # Same resolved class id links otherwise-unrelated path groups. Only paths
    # with events of their own take part: a rename source without events stays
    # linked by its rename alone.
    class_anchor: dict[str, str] = {}
    for path, class_id in class_of.items():
        if class_id is not None:
            groups.union(path, class_anchor.setdefault(class_id, path))

    by_group: dict[str, list[ChangeEvent]] = {}
    for event in kept:
        by_group.setdefault(groups.find(event.path), []).append(event)

    histories: dict[str, ClassHistory] = {}
    for members in by_group.values():
        seen: set[tuple[str, str]] = set()
        unique = []
        for event in members:
            key = (event.commit_id, event.path)
            if key not in seen:
                seen.add(key)
                unique.append(event)
        unique.sort(key=lambda e: (e.timestamp, e.commit_id))
        class_id = class_of[unique[-1].path]
        histories[class_id] = ClassHistory(class_id=class_id, events=tuple(unique))
    return histories
