"""Exception types shared across the package.

The CLI maps these to stable exit codes through one table,
``riskmin.cli.EXIT_CODES``; library callers can catch them individually.
The parsers read lines of text; decoding a file is its opener's job.
"""

from __future__ import annotations

# What ``json.loads`` says of text that starts with U+FEFF; every parser names a rejected line's leading mark so.
UNEXPECTED_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


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
