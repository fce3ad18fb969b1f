"""Forked helper processes, and the one rule for when clickrec forks one.

``fork_helper`` forks only where ``os.fork`` exists, another CPU is allowed
and this process is neither a helper nor holds one not yet reaped, so
clickrec runs at most two processes; otherwise the caller does the work.
A helper has two pipes, one each way.  It moves off the parent's CPU once,
runs its task and leaves only through ``os._exit``.  The parent kills it if
the parent raises and reaps it on every path; a status other than 0 is a
``ChildProcessError``.  ``halves`` runs two halves of a job in the two
processes, and ``gbdt.fit`` swaps split searches with its helper.

Forking while OpenBLAS's threads are alive is accepted: no clickrec helper
calls BLAS, and ``tests/test_procs.py`` shows that a helper can.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
from collections.abc import Callable
from typing import NoReturn, TypeVar

_T = TypeVar("_T")
_U = TypeVar("_U")

# This process is a helper, or the parent of a helper not yet reaped.
_paired = False


def other_cpus() -> set[int]:
    """The CPUs this process may use besides the one it runs on now.

    Empty where Linux's /proc/thread-self or sched_getaffinity is missing.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # Field 39, "processor"; the fields after the name start at 3.
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, IndexError, ValueError):
        return set()


class Helper:
    """The parent's side of a forked helper: its pid and the parent's pipe ends.

    ``read_fd`` reads what the helper writes, and ``write_fd`` writes what it
    reads.  As a context manager it closes both ends and reaps the helper on
    exit, after killing it if the block raised; after a block that did not
    raise, it checks the helper's exit status.
    """

    def __init__(self, pid: int, read_fd: int, write_fd: int):
        self.pid, self.read_fd, self.write_fd = pid, read_fd, write_fd
        self.code: int | None = None  # the exit code, once reaped

    def wait(self) -> int:
        """Reap the helper, once, and return its exit code."""
        global _paired
        if self.code is None:
            _, status = os.waitpid(self.pid, 0)
            self.code = os.waitstatus_to_exitcode(status)
            _paired = False
        return self.code

    def check(self) -> None:
        """Reap the helper; raise ChildProcessError unless it exited with status 0."""
        code = self.wait()
        if code != 0:
            raise ChildProcessError(f"the forked child process exited with status {code}")

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None and self.code is None:
                os.kill(self.pid, signal.SIGKILL)
        finally:
            os.close(self.read_fd)
            os.close(self.write_fd)
            self.wait()
        if exc_type is None:
            self.check()


def fork_helper(task: Callable[[int, int], object]) -> Helper | None:
    """Fork a helper that runs task(read_fd, write_fd) and exits.

    None where the module's rule refuses a helper or a pipe or a fork fails.
    """
    global _paired
    if _paired or not hasattr(os, "fork"):
        return None
    others = other_cpus()
    if not others:
        return None
    fds: list[int] = []
    try:
        fds += os.pipe()  # helper -> parent
        fds += os.pipe()  # parent -> helper
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    _paired = True
    if pid == 0:
        _run(task, fds, others)
    from_helper, to_parent, from_parent, to_helper = fds
    # Each side closes the other's ends, so a dead helper or parent reads as EOF.
    os.close(to_parent)
    os.close(from_parent)
    return Helper(pid, from_helper, to_helper)


def _run(task: Callable[[int, int], object], fds: list[int], others: set[int]) -> NoReturn:
    """In the helper: run task(read_fd, write_fd); exit with 0, or 1 if it raised.

    It leaves only through os._exit, so it never returns into the caller's
    stack, runs no atexit handler and flushes no inherited buffer.
    """
    status = 1
    try:
        from_helper, to_parent, from_parent, to_helper = fds
        os.close(from_helper)
        os.close(to_helper)
        gc.disable()  # one task, then exit: nothing to collect
        # Fork can start the helper on the parent's CPU, and the balancer can
        # leave both processes there for half a task while a CPU idles.  Move
        # off once, then let the scheduler place the helper freely.
        with contextlib.suppress(OSError):
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, others)
            os.sched_setaffinity(0, allowed)
        task(from_parent, to_parent)
        status = 0
    finally:
        os._exit(status)


def halves(here: Callable[[], _T], there: Callable[[], _U]) -> tuple[_T, _U]:
    """(here(), there()), with there() run in a forked helper meanwhile.

    The helper sends what there() returned, or the exception it raised, as
    one pickle, loaded only once the helper has exited with status 0.
    Errors are those of calling here(), then there(), in one process:
    here()'s first (the helper is killed), then there()'s with its type and
    message; a helper that exits another way, as when its value or
    exception cannot be pickled, raises ChildProcessError.  Without a
    helper (fork_helper), there() runs here after here().
    """
    helper = fork_helper(lambda _, write_fd: _send(there, write_fd))
    if helper is None:
        return here(), there()
    with helper, open(helper.read_fd, "rb", closefd=False) as pipe:
        mine = here()
        # Read to EOF before reaping: what the helper sends can outgrow the
        # pipe buffer, so it cannot exit until it is read.
        data = pipe.read()
    raised, theirs = pickle.loads(data)
    if raised:
        raise theirs
    return mine, theirs


def _send(there: Callable[[], object], write_fd: int) -> None:
    """Pickle (False, there()), or (True, the exception it raised), to write_fd."""
    try:
        sent = False, there()
    except Exception as exc:
        sent = True, exc
    with open(write_fd, "wb") as pipe:
        pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
