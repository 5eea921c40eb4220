"""Exception types shared across the package, and the input line reader.

The CLI maps these to stable exit codes; library callers can catch them
individually.
"""

from __future__ import annotations

from io import TextIOBase
from typing import IO, Iterable, Iterator


class ParseError(ValueError):
    """Malformed line in a change log, call graph, or outcomes file."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        super().__init__(prefix + message)


class InputError(Exception):
    """An input file that cannot be opened or read: absent, a directory, not permitted, or
    named by a path the operating system cannot take (one holding a NUL byte)."""

    def __init__(self, path: object, reason: OSError | ValueError):
        self.path = str(path)
        self.missing = isinstance(reason, FileNotFoundError)
        detail = "" if self.missing else f" ({getattr(reason, 'strerror', None) or reason})"
        super().__init__(f"{'missing' if self.missing else 'unreadable'} input: {path}{detail}")


class LabelError(ValueError):
    """Missing or unusable version label (no fault-revealing tests, absent file)."""


class AlignmentError(ValueError):
    """Two outcome files do not cover the same set of version ids."""

    def __init__(self, missing_in_a: set[str], missing_in_b: set[str]):
        self.missing_in_a = missing_in_a
        self.missing_in_b = missing_in_b
        parts = []
        if missing_in_a:
            parts.append("missing in first file: " + ", ".join(sorted(missing_in_a)))
        if missing_in_b:
            parts.append("missing in second file: " + ", ".join(sorted(missing_in_b)))
        super().__init__("version ids differ; " + "; ".join(parts))


def numbered_lines(stream: IO | Iterable) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) of each line of an iterable of lines, ``str`` or UTF-8 bytes.

    The parsers take a text stream through ``text_lines``, which enumerates
    it directly; this generator serves lists of lines, lines of bytes and
    the outcomes reader. A line of bytes that is not valid UTF-8 raises
    ``ParseError`` at its line. A ``UnicodeDecodeError`` raised by the
    iterable itself passes through to the caller, as from ``text_lines``.
    """
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"invalid UTF-8 at line {lineno}", line=lineno) from None
        yield lineno, raw


def text_lines(stream: IO | Iterable) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) of each line: ``enumerate`` of a text stream, or ``numbered_lines``.

    A ``UnicodeDecodeError`` of the stream reaches the caller, which raises
    ``undecodable_after`` of the last line it was given in its place; a
    text stream decodes ahead of the lines it returns, so that line is the
    last one known to be whole. No generator frame is resumed per line of
    a text stream.
    """
    return enumerate(stream, 1) if isinstance(stream, TextIOBase) else numbered_lines(stream)


def undecodable_after(lineno: int) -> ParseError:
    """The error for a text stream that fails to decode after line ``lineno``."""
    return ParseError(f"invalid UTF-8 after line {lineno}", line=lineno + 1)
