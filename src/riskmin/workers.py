"""Forked worker processes: tasks run beside one another, with the outcome of running them in turn.

``run_in_order`` runs each task but the last in a child made by
``os.fork``, which shares the parent's loaded data copy-on-write, and the
last in this process. A child sends its result back through a pipe with
``marshal`` and ends with ``os._exit``. It forks wherever ``os.fork``
exists, this process may run on two CPUs and runs no other thread;
elsewhere (``taskset -c 0``, say) the tasks run here in turn, with the
same outcome. ``run_shares`` runs one function's work so, over contiguous
shares; ``cli.load_project_inputs`` builds the dependency map so, in every
command, while it reads the change log. ``multiprocessing`` is not used: a
pool costs its import and its start-up, and leaves the parent idle.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import marshal
import os
import threading
from typing import Any, BinaryIO, Callable, Iterator, NoReturn, Sequence

from .errors import InputError

logger = logging.getLogger(__name__)

# The faults of a task's inputs, which ``cli.main`` reports with an exit code.
_INPUT_FAULTS = (InputError, ValueError)
_FAULT_STATUS = 3  # the exit status of a child whose task raised one of ``_INPUT_FAULTS``
_FAULTED = object()  # the outcome of such a child

# (work, what this process does when a child delivers nothing): ``work()`` returns what
# ``marshal`` can write, and ``what`` completes the warning that says so.
Task = tuple[Callable[[], Any], str]


def run_shares(work: Callable[[range], list], units: int, jobs: int) -> list[list]:
    """``work`` of each contiguous share of ``range(units)``, in share order.

    There are ``min(jobs, units, cpus)`` shares, at least one (see
    ``_shares``), where ``cpus`` is ``_forkable_cpus()``. The shares are the
    tasks of ``run_in_order``, so a single share starts no process, and a
    share whose child delivers nothing is worked here with one warning.
    """
    shares = _shares(units, jobs, _forkable_cpus())
    tasks = [(functools.partial(work, share), f"its share of {len(share)} units is scored") for share in shares]
    return run_in_order(tasks)


def run_in_order(tasks: Sequence[Task]) -> list:
    """Each task's result, in task order, with the log records and the error of running them here in turn.

    Where there are two tasks or more and ``_forkable_cpus()`` is at least
    2, each task but the last runs in a forked child, and the last runs here
    once the children are started. Otherwise each runs here, in turn. A
    forked run shows what a run in turn shows:

    * riskmin's log records are emitted in task order: a child sends its
      records with its result, and the last task's are held here until
      every child's are out;
    * a task that raises an input fault (``InputError`` or ``ValueError``)
      in its child is run again here, where it raises it; the last task's
      input fault is held until every earlier task is done, so an earlier
      task's error wins;
    * a child that delivers nothing else (it fails otherwise, its result
      cannot be read, or it cannot be started) costs one warning, and its
      task is run here.

    If this process raises otherwise, ``KeyboardInterrupt`` included, every
    child that has not delivered is killed. Every child is reaped before
    this returns or raises.
    """
    if len(tasks) < 2 or _forkable_cpus() < 2:
        return [work() for work, _ in tasks]
    children: dict[int, tuple[int, BinaryIO]] = {}  # task index -> (pid, read end of its pipe)
    try:
        for k, (work, _) in enumerate(tasks[:-1]):
            child = _fork(work)
            if child is not None:
                children[k] = child
        held: list[tuple[str, int, str]] = []
        fault = None
        with _holding(held):
            try:
                last = tasks[-1][0]()
            except _INPUT_FAULTS as exc:
                fault = exc
        results = []
        for k, (work, what) in enumerate(tasks[:-1]):
            outcome = _outcome(*children[k]) if k in children else None
            children.pop(k, None)
            if outcome is None:
                logger.warning("a worker process delivered nothing; %s here", what)
            if outcome is None or outcome is _FAULTED:
                results.append(work())
            else:
                result, records = outcome
                _emit(records)
                results.append(result)
        _emit(held)
        if fault is not None:
            raise fault
        results.append(last)
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


def _forkable_cpus() -> int:
    """The CPUs that forked children may run on: ``_usable_cpus()``, or 1 where ``os.fork`` does not exist.

    Also 1 while this process runs another thread: a fork copies only the
    calling thread, so a lock another thread holds stays held in the child,
    and Python 3.12+ warns of such a fork from inside ``os.fork``, once the
    child exists.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


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


@contextlib.contextmanager
def _holding(records: list[tuple[str, int, str]]) -> Iterator[None]:
    """While open, riskmin's log records go to ``records`` as (logger name, level, message), not to a handler."""
    package = logging.getLogger(__name__.rpartition(".")[0])
    holder = _Holder(records)
    propagate, package.propagate = package.propagate, False
    package.addHandler(holder)
    try:
        yield
    finally:
        package.removeHandler(holder)
        package.propagate = propagate


class _Holder(logging.Handler):
    def __init__(self, records: list[tuple[str, int, str]]) -> None:
        super().__init__()
        self.records = records

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((record.name, record.levelno, record.getMessage()))


def _emit(records: Sequence[tuple[str, int, str]]) -> None:
    """Log each held record again, through the logger that made it."""
    for name, level, message in records:
        logging.getLogger(name).log(level, message)


def _fork(work: Callable[[], Any]) -> tuple[int, BinaryIO] | None:
    """(pid, read end of its pipe) of a child process that runs ``work``; None if none can be started."""
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
        _work_in_child(work, write_end)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _outcome(pid: int, pipe: BinaryIO) -> tuple | object | None:
    """What the child ``pid`` delivered through ``pipe``, once it is reaped: (result, log records), or
    ``_FAULTED`` if its task raised an input fault, or None if nothing can be read."""
    with pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == _FAULT_STATUS:
        return _FAULTED
    if status == 0:
        try:
            return marshal.loads(payload)
        except (EOFError, ValueError, TypeError):  # a short or corrupt payload
            pass
    return None


def _work_in_child(work: Callable[[], Any], write_end: int) -> NoReturn:
    """In a forked child: write ``(work(), its log records)``, marshalled, to ``write_end`` and exit 0.

    A task that raises an input fault exits ``_FAULT_STATUS`` with nothing
    written. Any other exception, ``BaseException`` included, exits 1 with
    nothing written (or a payload cut short). No ``finally`` or exit
    handler of the parent's stack runs here.
    """
    status = 1
    try:
        records: list[tuple[str, int, str]] = []
        with _holding(records):
            try:
                result = work()
            except _INPUT_FAULTS:
                status = _FAULT_STATUS
                raise
        payload = marshal.dumps((result, records))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)  # also on an exception, which it discards
