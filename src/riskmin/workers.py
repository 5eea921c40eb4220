"""Forked worker processes: one function's work over contiguous shares, in share order.

``run_shares`` works the first share in this process and every other in
a child made by ``os.fork``, which shares the parent's loaded data
copy-on-write. A child sends its result back through a pipe with
``marshal`` and ends with ``os._exit``. ``multiprocessing`` is not used: a
pool costs its import and its start-up, and leaves the parent idle.
``evaluate_grid`` imports this module only when it forks.
"""

from __future__ import annotations

import logging
import marshal
import os
from typing import BinaryIO, Callable, NoReturn, Sequence

logger = logging.getLogger(__name__)


def run_shares(work: Callable[[range], list], shares: Sequence[range]) -> list[list]:
    """``work`` of each share, in share order: the first in this process, each other in a forked child.

    ``work`` returns what ``marshal`` can write. A child sends its result
    through a pipe and exits. A
    share whose child delivers nothing (it exits non-zero, its result cannot
    be read, or it cannot be started) is worked here, with one warning. If
    this process raises, ``KeyboardInterrupt`` included, every child that has
    not delivered is killed. Every child is reaped before this returns or raises.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # share index -> (pid, read end of its pipe)
    try:
        for k in range(1, len(shares)):
            child = _fork(work, shares[k])
            if child is not None:
                children[k] = child
        results = [work(shares[0])]
        for k in range(1, len(shares)):
            result = None
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
                del children[k]
                if status == 0:
                    try:
                        result = marshal.loads(payload)
                    except (EOFError, ValueError, TypeError):  # a short or corrupt payload
                        pass
            if result is None:
                logger.warning(
                    "a worker process delivered nothing; its share of %d units is scored here", len(shares[k])
                )
                result = work(shares[k])
            results.append(result)
        return results
    finally:
        if children:
            import signal  # only on this path, so that a run whose children all deliver does not load it

            for pid, pipe in children.values():
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped just before the exception
                    pass


def _fork(work: Callable[[range], list], share: range) -> tuple[int, BinaryIO] | None:
    """(pid, read end of its pipe) of a child process that works ``share``; None if none can be started."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        _work_in_child(work, share, write_end)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _work_in_child(work: Callable[[range], list], share: range, write_end: int) -> NoReturn:
    """In a forked child: write ``work(share)``, marshalled, to ``write_end`` and exit 0.

    Any exception, ``BaseException`` included, exits 1 with nothing written
    (or a payload cut short), and no ``finally`` or exit handler of the
    parent's stack runs here.
    """
    status = 1
    try:
        payload = marshal.dumps(work(share))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)  # also on an exception, which it discards
