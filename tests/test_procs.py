"""procs: the one rule for when a helper is forked, and a helper of a threaded process.

``every_cpu`` counts every allowed CPU as another, so each test forks on any
host with a CPU mask.
"""

import contextlib
import os
import select
import signal
from unittest import mock

import numpy as np
import pytest

from clickrec import procs

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork"),
    pytest.mark.usefixtures("every_cpu"),
]

BOUND = 30  # seconds for a helper's 300 x 300 product, which takes milliseconds


def wait_for_eof(read_fd, _):
    """A helper task that returns once the parent closes its end."""
    os.read(read_fd, 1)


class TestOneHelper:
    def test_nested_halves_stay_in_two_processes(self):
        def pids():
            return procs.halves(os.getpid, os.getpid)

        (a, b), (c, d) = procs.halves(pids, pids)
        assert a == b == os.getpid()
        assert c == d != a

    @pytest.mark.parametrize("end", ["exit 0", "exit 3", "kill"])
    def test_a_reaped_helper_lets_the_next_one_fork(self, end):
        def task(read_fd, write_fd):
            wait_for_eof(read_fd, write_fd)
            if end == "exit 3":
                os._exit(3)

        helper = procs.fork_helper(task)
        raised = {"exit 0": None, "exit 3": ChildProcessError, "kill": KeyError}[end]
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            with helper:
                # A refusal does not even look for another CPU.
                with mock.patch.object(procs, "other_cpus", side_effect=AssertionError("read")):
                    assert procs.fork_helper(task) is None
                if end == "kill":
                    raise KeyError("the block raised")
        assert helper.code == {"exit 0": 0, "exit 3": 3, "kill": -signal.SIGKILL}[end]
        with procs.fork_helper(wait_for_eof) as again:
            assert again.pid != helper.pid
        assert again.code == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_a_child_of_a_threaded_process_can_call_blas():
    a = np.random.default_rng(0).random((300, 300))
    want = a @ a  # starts OpenBLAS's threads, if it has any
    threads = len(os.listdir("/proc/self/task"))

    def task(read_fd, write_fd):
        if not np.allclose(a @ a, want):
            raise ValueError("the helper's product differs")

    helper = procs.fork_helper(task)
    with helper:
        # The helper's end of this pipe closes when it exits.
        if not select.select([helper.read_fd], [], [], BOUND)[0]:
            pytest.fail(f"the helper did not exit within {BOUND} s; {threads} threads at the fork")
    assert helper.code == 0
