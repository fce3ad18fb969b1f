import gc
import os
import random
from pathlib import Path

import pytest

from clickrec.logs import ClickRecord, build_click_stats, clean_log, segment_sessions


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")


def assert_no_child_left():
    """This process has no child, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def child_left_unreaped():
    """Fail any test that leaves a child process unreaped."""
    yield
    assert_no_child_left()


def cli_env() -> dict[str, str]:
    """Environment for ``python -m clickrec.cli`` run from any directory."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def random_records(rng: random.Random, n: int, n_users=6, n_queries=8, n_urls=10):
    """Small random click log; repeats are likely so cleaning keeps data."""
    recs = []
    t = 0
    for _ in range(n):
        t += rng.randint(0, 400)
        recs.append(
            ClickRecord(
                timestamp=t,
                user=f"u{rng.randrange(n_users)}",
                query=f"q{rng.randrange(n_queries)}",
                url=f"http://s{rng.randrange(n_urls)}",
                rank=rng.randint(1, 5),
            )
        )
    return recs


@pytest.fixture
def small_world():
    """A deterministic 1,000-record world with stats and sessions."""
    rng = random.Random(7)
    records = random_records(rng, 1000)
    cleaned = clean_log(records)
    stats = build_click_stats(cleaned)
    sessions = segment_sessions(records)
    return records, cleaned, stats, sessions
