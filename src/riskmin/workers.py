"""Forked worker processes: one function's work over contiguous shares, in share order.

``run_shares`` works the first share in this process and every other in
a child made by ``os.fork``, which shares the parent's loaded data
copy-on-write. A child sends its result back through a pipe with
``marshal`` and ends with ``os._exit``. ``multiprocessing`` is not used: a
pool costs its import and its start-up, and leaves the parent idle.
"""

from __future__ import annotations

import logging
import marshal
import os
from typing import BinaryIO, Callable, NoReturn

logger = logging.getLogger(__name__)


def run_shares(work: Callable[[range], list], units: int, jobs: int) -> list[list]:
    """``work`` of each contiguous share of ``range(units)``, in share order.

    There are ``min(jobs, units, cpus)`` shares, at least one (see
    ``_shares``), where ``cpus`` counts the CPUs this process may run on, or
    is 1 where ``os.fork`` does not exist. The first share is worked in this
    process and each other in a forked child, so a single share starts no
    process. ``work`` returns what ``marshal`` can write. A child sends its
    result through a pipe and exits. A
    share whose child delivers nothing (it exits non-zero, its result cannot
    be read, or it cannot be started) is worked here, with one warning. If
    this process raises, ``KeyboardInterrupt`` included, every child that has
    not delivered is killed. Every child is reaped before this returns or raises.
    """
    shares = _shares(units, jobs, _usable_cpus() if hasattr(os, "fork") else 1)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where ``os`` reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(units: int, jobs: int, cpus: int) -> list[range]:
    """``range(units)`` cut into ``min(jobs, units, cpus)`` contiguous shares (at least one), in order.

    Share sizes differ by at most one. At most ``units`` shares, so a huge
    ``jobs`` costs nothing.
    """
    n = max(1, min(jobs, units, cpus))
    return [range(units * k // n, units * (k + 1) // n) for k in range(n)]


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
