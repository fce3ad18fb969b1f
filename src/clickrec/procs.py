"""Forked helper processes, as ``pipeline._fork_halves`` and ``gbdt.fit`` start them.

A helper is forked with two pipes, one each way.  It first moves off the
parent's CPU once, then runs its task, and it leaves only through
``os._exit``.  The parent kills it if the parent raises, and reaps it on
every path; a helper that exits with a status other than 0 is a
``ChildProcessError``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
from collections.abc import Callable
from typing import NoReturn


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
    exit, after killing it if the block raised.
    """

    def __init__(self, pid: int, read_fd: int, write_fd: int):
        self.pid, self.read_fd, self.write_fd = pid, read_fd, write_fd
        self.code: int | None = None  # the exit code, once reaped

    def wait(self) -> int:
        """Reap the helper, once, and return its exit code."""
        if self.code is None:
            _, status = os.waitpid(self.pid, 0)
            self.code = os.waitstatus_to_exitcode(status)
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


def fork_helper(task: Callable[[int, int], object], others: set[int]) -> Helper | None:
    """Fork a helper that runs task(read_fd, write_fd) and exits.

    It moves to one of ``others``, the CPUs besides the parent's, before the
    task starts.  None where os.fork is missing or a pipe or a fork cannot
    be made.
    """
    if not hasattr(os, "fork"):
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
        if others:
            # Fork can start the helper on the parent's CPU, and the balancer
            # can leave both processes there for half a task while a CPU idles.
            # Move off once, then let the scheduler place the helper freely.
            with contextlib.suppress(OSError):
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, others)
                os.sched_setaffinity(0, allowed)
        task(from_parent, to_parent)
        status = 0
    finally:
        os._exit(status)
