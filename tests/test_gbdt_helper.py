"""gbdt.fit with its forked helper, against the fit in one process and the reference.

The helper searches the second half of the columns and swaps each node's
best split with this process.  ``forced_helper`` lowers the size rule and
allows the helper any CPU, so small worlds fork it on any machine.
"""

import contextlib
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbdt_reference as ref
from clickrec import gbdt, procs
from conftest import assert_no_child_left
from test_gbdt_equivalence import KINDS, make_column

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no fork or CPU mask"
)


@contextlib.contextmanager
def forced_helper():
    """Fork the helper for every fit of two or more columns; yield the helpers forked."""
    helpers = []
    fork_helper = procs.fork_helper

    def recording(task):
        helpers.append(fork_helper(task))
        return helpers[-1]

    allowed = os.sched_getaffinity(0)
    with contextlib.ExitStack() as patches:
        for name in ("_HELPER_ROWS", "_HELPER_WORK"):
            patches.enter_context(mock.patch.object(gbdt, name, 0))
        patches.enter_context(mock.patch.object(procs, "other_cpus", lambda: allowed))
        patches.enter_context(mock.patch.object(procs, "fork_helper", recording))
        yield helpers


def outcome(X, y, cfg):
    """The fitted model's lines, train_mse and importances, or the ValueError's text."""
    try:
        model = gbdt.fit(X, y, cfg)
    except ValueError as exc:
        return str(exc)
    return gbdt._model_lines(model), repr(model.train_mse), model.importance


def here_outcome(X, y, cfg):
    """outcome of the fit in this process alone: with no other CPU, no helper."""
    with mock.patch.object(procs, "other_cpus", set):
        return outcome(X, y, cfg)


def reference_outcome(X, y, cfg, path):
    model = ref.fit(X, y, cfg)
    ref.save_model(model, str(path))
    return path.read_text().splitlines(), repr(model.train_mse), model.importance


HUGE = [1e308, -1e308, 8.9e307, -8.9e307, 0.0, 1.0]


@st.composite
def worlds(draw):
    """(X, y, cfg, huge): columns of the equivalence test's kinds (constant
    ones among them), the row index and the target itself, some copied from
    this process's half into the helper's so that equal gains straddle the
    two, and targets near +-1e308 when huge.  Sorted by the target, huge
    residuals overflow their sums into NaN gains; in row order they may not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    y_kind = draw(st.sampled_from(["int", "float", "huge"]))
    if y_kind == "huge":
        y = rng.choice(HUGE, n)
    elif y_kind == "int":
        y = rng.integers(0, 3, n).astype(float)
    else:
        y = rng.standard_normal(n)
    kinds = draw(st.lists(KINDS | st.sampled_from(["index", "target"]), min_size=2, max_size=6))
    special = {"index": np.arange(n, dtype=float), "target": y}
    X = np.column_stack([special[k] if k in special else make_column(rng, k, n) for k in kinds])
    d = X.shape[1]
    h = (d + 1) // 2  # this process searches columns [0, h), the helper [h, d)
    for j in draw(st.lists(st.integers(h, d - 1), max_size=3)):
        X[:, j] = X[:, draw(st.integers(0, h - 1))]
    cfg = gbdt.TrainConfig(
        n_trees=draw(st.integers(1, 6)),
        shrinkage=draw(st.sampled_from([0.1, 0.5, 1.0])),
        max_depth=draw(st.sampled_from([None, 1, 3])),
        min_leaf=draw(st.integers(1, 4)),
    )
    return X, y, cfg, y_kind == "huge"


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_helper_fits_the_same_model(tmp_path_factory, world):
    X, y, cfg, huge = world
    with forced_helper() as helpers:
        got = outcome(X, y, cfg)
    assert [helper.code for helper in helpers] == [0]
    assert got == here_outcome(X, y, cfg)
    if not huge:  # the reference lets a NaN gain split a node; fit makes a leaf
        assert got == reference_outcome(X, y, cfg, tmp_path_factory.mktemp("ref") / "model.txt")
    assert_no_child_left()


@pytest.mark.parametrize("target_col", [0, 1])
def test_a_nan_gain_in_either_half_makes_a_leaf(target_col):
    # In row order the sums of y stay finite, so the index column scores
    # finite gains; sorted by y they overflow, so the target column's gains
    # are NaN, and np.argmax over all gains makes the node a leaf.
    y = np.array([-1e308, 8.9e307, 1e308, 8.9e307, 1.0, -1e308])
    X = np.column_stack([np.arange(6.0), y][:: 1 if target_col else -1])
    cfg = gbdt.TrainConfig(n_trees=3, max_depth=3, min_leaf=1)
    with forced_helper() as helpers:
        got = outcome(X, y, cfg)
    assert len(helpers) == 1
    assert got == here_outcome(X, y, cfg)


def test_helper_fits_the_same_model_on_a_larger_problem():
    rng = np.random.default_rng(5)
    kinds = ["int", "float", "zeros", "adjacent"] * 3
    X = np.column_stack([make_column(rng, k, 500) for k in kinds])
    X[:, 9] = X[:, 1]
    y = rng.standard_normal(500) + X[:, 1]
    cfg = gbdt.TrainConfig(n_trees=20, min_leaf=1, max_depth=None)
    with forced_helper() as helpers:
        got = outcome(X, y, cfg)
    assert len(helpers) == 1
    assert got == here_outcome(X, y, cfg)


class TestHelperProcess:
    X = np.random.default_rng(3).random((80, 6))
    Y = np.sin(3 * X[:, 0]) + X[:, 4] ** 2
    CFG = gbdt.TrainConfig(n_trees=5)

    @staticmethod
    def on_third_search(monkeypatch, act):
        """Call act(in_parent) before each process's third node search."""
        parent, calls = os.getpid(), []
        best_split = gbdt._Grower._best_split

        def searching(self, seg, r):
            calls.append(None)  # each process counts in its own copy
            if len(calls) == 3:
                act(os.getpid() == parent)
            return best_split(self, seg, r)

        monkeypatch.setattr(gbdt._Grower, "_best_split", searching)

    def test_a_helper_that_dies_is_an_error(self, monkeypatch):
        def die(in_parent):
            if not in_parent:
                os._exit(3)

        self.on_third_search(monkeypatch, die)
        with forced_helper(), pytest.raises(ChildProcessError, match="exited with status 3$"):
            gbdt.fit(self.X, self.Y, self.CFG)
        assert_no_child_left()

    def test_a_helper_that_raises_is_an_error(self, monkeypatch):
        def fail(in_parent):
            if not in_parent:
                raise ValueError("failed in the helper")

        self.on_third_search(monkeypatch, fail)
        with forced_helper(), pytest.raises(ChildProcessError, match="exited with status 1$"):
            gbdt.fit(self.X, self.Y, self.CFG)
        assert_no_child_left()

    def test_a_parent_that_raises_kills_its_helper(self, monkeypatch):
        def fail(in_parent):
            if in_parent:
                raise ValueError("failed in the parent")

        self.on_third_search(monkeypatch, fail)
        with forced_helper() as helpers, pytest.raises(ValueError, match="^failed in the parent$"):
            gbdt.fit(self.X, self.Y, self.CFG)
        # The helper waited for this process's third split, so only the kill ended it.
        assert [helper.code for helper in helpers] == [-signal.SIGKILL]
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "pipe"])
    def test_without_a_helper_fits_here(self, monkeypatch, missing):
        want = here_outcome(self.X, self.Y, self.CFG)
        if missing == "fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=OSError("no pipe")))
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("fork, no pipe")))
        with forced_helper() as helpers:
            assert outcome(self.X, self.Y, self.CFG) == want
        assert helpers == [None]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "case", ["few rows", "little work", "beside a helper", "one column", "one CPU"]
    )
    def test_no_helper_forked(self, case):
        X = self.X[:, :1] if case == "one column" else self.X
        want = here_outcome(X, self.Y, self.CFG)
        with forced_helper() as helpers, contextlib.ExitStack() as patches:
            if case == "beside a helper":
                # The helper waits for EOF, so it lives until the stack closes.
                patches.enter_context(procs.fork_helper(lambda read_fd, _: os.read(read_fd, 1)))
            if case == "few rows":
                patches.enter_context(mock.patch.object(gbdt, "_HELPER_ROWS", len(X) + 1))
            if case == "little work":
                work = len(X) * self.CFG.n_trees
                patches.enter_context(mock.patch.object(gbdt, "_HELPER_WORK", work + 1))
            if case == "one CPU":
                patches.enter_context(mock.patch.object(procs, "other_cpus", set))
            patches.enter_context(mock.patch.object(os, "fork", side_effect=AssertionError("forked")))
            assert outcome(X, self.Y, self.CFG) == want
        # A large fit of two or more columns asks fork_helper, which refuses.
        asked = {"beside a helper": [False, True], "one CPU": [True]}.get(case, [])
        assert [helper is None for helper in helpers] == asked
