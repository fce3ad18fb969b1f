"""Gradient boosted regression trees with squared loss.

Additive model: F_0 is the target mean; every iteration fits a depth-bounded
regression tree to the current residuals (the negative gradient of squared
loss), greedily choosing the split that maximizes the weighted squared
mean-difference gain.  Leaf values are residual means, so the per-tree line
search is absorbed into the leaves and a global shrinkage factor plays the
role of the per-iteration weight.

Training is exact greedy search over presorted columns, the column-block
scheme of XGBoost (Chen & Guestrin, KDD 2016, section 4.1).  ``fit`` sorts
every column once.  A tree node owns one segment of those sort orders, and a
split partitions the segment stably, so a node's rows stay sorted by every
feature with ties in row order.  One cumulative sum over all features then
scores every split position of a node.  A large fit splits the columns
between this process and one forked helper, which swap each node's best
split, so the search is split by column and stays exact.

A fitted ``Ensemble`` stores all its trees as one preorder node array, built
once by ``Ensemble.from_trees`` for both ``fit`` and ``load_model``.
``predict`` walks blocks of rows through all trees at once, one level per
step, and ``save_model`` writes each tree from its slice of the array.
"""

from __future__ import annotations

import codecs
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import procs
from .logs import read_lines

_BLOCK = 256  # rows per predict step; bounds the (rows, trees) work arrays
# fit forks its helper for at least _HELPER_ROWS rows and _HELPER_WORK rows x
# trees: a node's split search must be large enough to halve, and the trees
# many enough to pay the fork.  Medians of 9 alternated fits on row samples
# of the 1x serve matrix (23 columns, 2-core VM), in-process / with helper:
# 500 rows x 100 trees 129 / 155 ms, 1,000 x 25 52 / 55 ms, 1,000 x 50
# 101 / 90 ms, 2,000 x 25 95 / 99 ms, 4,000 x 10 68 / 62 ms.
_HELPER_ROWS = 1_000
_HELPER_WORK = 50_000


@dataclass
class TrainConfig:
    n_trees: int = 200
    shrinkage: float = 0.1
    max_depth: int | None = 4  # None = unlimited
    min_leaf: int = 10

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0, 1]")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass(frozen=True)
class Ensemble:
    """``base`` plus ``shrinkage`` times each tree's leaf, all trees in one node array.

    The trees lie one after another, each in preorder; ``trees`` is the
    read-only array of each tree's root node, which ``predict`` starts from.
    A split node i sends a row to ``child[2 * i]`` when
    ``x[feature[i]] <= threshold[i]`` and to ``child[2 * i + 1]`` otherwise.
    Preorder fixes both: the left child is node i + 1, and the right child
    is the first node past the left child's subtree.
    A leaf has feature -1 and holds ``value`` (split nodes keep 0).  It is its
    own child, so a row that reaches a leaf early stays there while the
    deeper trees finish: ``levels`` steps, the splits on the longest
    root-to-leaf path, bring every row to a leaf.
    """

    base: float
    feature_names: list[str]
    importance: dict[str, float]  # max-normalized to 100
    train_mse: tuple[float, ...]
    shrinkage: float
    trees: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    levels: int

    @classmethod
    def from_trees(cls, base, trees, feature_names, importance, train_mse=(), shrinkage=0.1):
        """The model of trees, each (feature, threshold, value) lists of its
        nodes in preorder; one backward pass derives ``child`` and ``levels``.
        """
        starts = np.cumsum([0] + [len(t[0]) for t in trees], dtype=np.intp)[:-1]
        starts.flags.writeable = False
        feature = [f for t in trees for f in t[0]]
        n = len(feature)
        child = [i // 2 for i in range(2 * n)]  # a leaf is its own child
        end = list(range(1, n + 1))  # one past the last node of i's subtree
        height = [0] * n  # the splits on the longest path down from i
        for i in reversed(range(n)):
            if feature[i] >= 0:
                right = end[i + 1]
                child[2 * i : 2 * i + 2] = i + 1, right
                end[i] = end[right]
                height[i] = 1 + max(height[i + 1], height[right])
        return cls(
            base,
            feature_names,
            importance,
            train_mse,
            shrinkage,
            trees=starts,
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array([x for t in trees for x in t[1]], dtype=np.float64),
            child=np.array(child, dtype=np.intp),
            value=np.array([v for t in trees for v in t[2]], dtype=np.float64),
            levels=max(height, default=0),
        )


def split_gain(w_l: float, mean_l: float, w_r: float, mean_r: float) -> float:
    """Weighted squared mean-difference improvement of a binary split."""
    return w_l * w_r / (w_l + w_r) * (mean_l - mean_r) ** 2


_NO_SPLIT = (-math.inf, -1, 0.0)  # (gain, feature, threshold) of a node no position splits
_SPLIT = struct.Struct("dqd")  # a process's best split, sent bit-exact to its partner


class _Grower:
    """The columns a process owns sorted once, and the buffers every tree of a fit reuses.

    ``cols`` are the features this process searches.  With a ``partner``,
    the (read_fd, write_fd) pipe ends of a process that owns the other
    columns, both swap their best split at every node and keep the same
    winner, so both grow the tree a process owning every column grows.
    ``order[j]`` lists the rows by X[:, cols[j]] (stable, so ties keep row
    order) and ``order[k]`` lists them by row; ``rank[j, row]`` is the dense
    rank of X[row, cols[j]] in its column, so two rows hold equal values iff
    their ranks are equal.  A tree's root reads ``order``; every other node
    reads and partitions its own segment ``[s, e)`` of ``work``.  Segments
    of nodes still waiting to be grown are disjoint.
    """

    def __init__(
        self, X: np.ndarray, cfg: TrainConfig, cols: list[int], partner: tuple[int, int] | None = None
    ):
        n, k = len(X), len(cols)
        self.X = X
        self.cfg = cfg
        self.cols = cols
        self.partner = partner
        self.order = np.empty((k + 1, n), dtype=np.intp)
        self.rank = np.empty((k, n), dtype=np.int32)
        for j, f in enumerate(cols):
            o = np.argsort(X[:, f], kind="stable")
            xs = X[o, f]
            self.order[j] = o
            self.rank[j, o[0]] = 0
            self.rank[j, o[1:]] = np.cumsum(xs[1:] != xs[:-1])
        self.order[k] = np.arange(n)
        self.work = np.empty_like(self.order)
        self.go_left = np.zeros(n, dtype=bool)
        self.csum = np.empty(k * n)  # a node's cumulative sums of r
        self.seg_rank = np.empty(k * n, dtype=np.int32)  # rank along a node's sort orders

    def _leaf(self, depth: int, rows: np.ndarray, r: np.ndarray):
        """(rows, value) when a node of these rows must be a leaf, else None.

        ``rows`` are ascending, so the leaf value sums r in row order.
        """
        cfg = self.cfg
        r_node = r[rows]
        if (
            (cfg.max_depth is not None and depth >= cfg.max_depth)
            or len(rows) < 2 * cfg.min_leaf
            or np.all(r_node == r_node[0])
        ):
            return rows, float(r_node.mean())
        return None

    def _best_split(self, seg: np.ndarray, r: np.ndarray) -> tuple[float, int, float]:
        """This process's best (gain, feature, threshold) of a node, or _NO_SPLIT.

        Gains are scored only where the value changes and both sides keep
        min_leaf rows.  np.argmax picks the first maximum in (feature,
        position) order, the lowest feature, then the smallest threshold,
        and a NaN gain before any: the caller makes a leaf unless the gain
        is > 0.  The threshold lies between the last left value and the
        first right one.
        """
        k, m = seg.shape[0] - 1, seg.shape[1]
        lo, hi = self.cfg.min_leaf - 1, m - self.cfg.min_leaf  # positions [lo, hi)
        csum = self.csum[: k * m].reshape(k, m)
        seg_rank = self.seg_rank[: k * m].reshape(k, m)
        for j in range(k):  # per feature, so take's index copy stays small
            rows = seg[j]
            # mode="clip" only skips take's output buffering: the rows are valid.
            r.take(rows, out=csum[j], mode="clip")
            self.rank[j].take(rows, out=seg_rank[j], mode="clip")
        np.cumsum(csum, axis=1, out=csum)  # sequential, so csum[:, -1] is each total
        changes = seg_rank[:, lo + 1 : hi + 1] != seg_rank[:, lo:hi]
        js, i = np.divmod(np.flatnonzero(changes), hi - lo)
        if not len(js):
            return _NO_SPLIT
        ps = lo + i
        cs = csum.ravel()[js * m + ps]
        total = csum.ravel()[js * m + m - 1]
        nl = ps + 1
        gains = split_gain(nl, cs / nl, m - nl, (total - cs) / (m - nl))
        best = int(np.argmax(gains))
        j, p = int(js[best]), int(ps[best])
        f = self.cols[j]
        lo_v, hi_v = float(self.X[seg[j, p], f]), float(self.X[seg[j, p + 1], f])
        thr = lo_v + (hi_v - lo_v) / 2.0
        if not (lo_v <= thr < hi_v):
            thr = lo_v  # adjacent floats: route left iff value <= lo
        return float(gains[best]), f, thr

    def _swap(self, mine: tuple[float, int, float]) -> tuple[float, int, float]:
        """The winner of this process's best split and its partner's.

        np.argmax over both processes' gains would pick it: the higher gain,
        the lower feature on equal gains, and the first NaN in feature order
        before any number.  Each process's best is its own first maximum.
        """
        read_fd, write_fd = self.partner
        os.write(write_fd, _SPLIT.pack(*mine))
        # A write of at most PIPE_BUF bytes is atomic, so a read gets the
        # whole message or, once the partner has exited, none.
        data = os.read(read_fd, _SPLIT.size)
        if len(data) != _SPLIT.size:
            raise EOFError("the partner process closed its pipe")
        a, b = sorted((mine, _SPLIT.unpack(data)), key=lambda split: split[1])
        return b if not math.isnan(a[0]) and (math.isnan(b[0]) or b[0] > a[0]) else a

    def grow(self, r: np.ndarray) -> tuple[tuple[list, ...], list[float], np.ndarray]:
        """Fit one tree to the residuals r.

        Returns the tree as ``Ensemble.from_trees`` takes it, each node's
        split gain (0 for leaves) and the node of the leaf every row ends in.
        """
        k = self.order.shape[0] - 1
        X, go_left, work = self.X, self.go_left, self.work
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        gain: list[float] = []
        leaf_of = np.empty(len(r), dtype=np.intp)
        # (start, end, depth, (rows, value) for a node already known to be a
        #  leaf, else None); left children are pushed last, so nodes pop in preorder
        stack = [(0, len(r), 0, self._leaf(0, self.order[k], r))]
        while stack:
            s, e, depth, leaf = stack.pop()
            node = len(feature)
            seg = (self.order if node == 0 else work)[:, s:e]
            g, f, thr = _NO_SPLIT
            if leaf is None:  # both processes know the same nodes to be leaves
                g, f, thr = self._best_split(seg, r)
                if self.partner is not None:
                    g, f, thr = self._swap((g, f, thr))
            if not g > 0.0:
                rows, v = leaf or (seg[k], float(r[seg[k]].mean()))
                leaf_of[rows] = node
                feature.append(-1)
                threshold.append(0.0)
                value.append(v)
                gain.append(0.0)
                continue
            feature.append(f)
            threshold.append(thr)
            value.append(0.0)
            gain.append(g)

            # Exactly the rows before the split position in feature f's order.
            by_row = seg[k]
            to_left = X[by_row, f] <= thr
            left_rows, right_rows = by_row[to_left], by_row[~to_left]
            nl = len(left_rows)
            left_leaf = self._leaf(depth + 1, left_rows, r)
            right_leaf = self._leaf(depth + 1, right_rows, r)
            if left_leaf is None or right_leaf is None:
                # Stable partition of every sort order into the segments of
                # the children that will split.  Both halves are copied out
                # before either is written, since seg may be a view of work.
                go_left[left_rows] = True
                in_left = go_left[seg]
                go_left[left_rows] = False
                left_half = None if left_leaf else seg[in_left]
                right_half = None if right_leaf else seg[~in_left]
                if left_half is not None:
                    work[:, s : s + nl] = left_half.reshape(k + 1, nl)
                if right_half is not None:
                    work[:, s + nl : e] = right_half.reshape(k + 1, e - s - nl)
            stack.append((s + nl, e, depth + 1, right_leaf))
            stack.append((s, s + nl, depth + 1, left_leaf))
        return (feature, threshold, value), gain, leaf_of


def _boost(grower: _Grower, y: np.ndarray, cfg: TrainConfig, base: float):
    """Grow up to cfg.n_trees trees, each on the residuals of those before.

    Returns the trees, each tree's node gains, the training MSE after each
    and the final training predictions.
    """
    trees: list[tuple[list, ...]] = []
    gains: list[list[float]] = []
    train_mse: list[float] = []
    pred = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        r = y - pred
        tree, node_gains, leaf_of = grower.grow(r)
        feature, _, value = tree
        if len(feature) == 1 and value[0] == 0.0:  # also ends a perfect fit
            train_mse.append(float(np.mean(r**2)))
            break
        trees.append(tree)
        gains.append(node_gains)
        pred = pred + cfg.shrinkage * np.array(value)[leaf_of]
        if not np.isfinite(pred).all():
            break  # refused by fit; later trees would fit nan residuals
        train_mse.append(float(np.mean((y - pred) ** 2)))
    return trees, gains, train_mse, pred


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises ValueError below
def fit(
    X,
    y,
    cfg: TrainConfig | None = None,
    feature_names: list[str] | None = None,
) -> Ensemble:
    """Train the boosted ensemble; records per-iteration training MSE.

    A fit of at least _HELPER_ROWS rows and _HELPER_WORK rows x trees forks
    one helper (procs.fork_helper) that searches the second half of the
    columns while this process searches the first; the two swap each node's
    best split, both grow every tree, and the model is the one a single
    process fits.  The fit runs in this process alone when X has one column
    or procs.fork_helper forks no helper.

    Raises ValueError when a stored number or training prediction is not
    finite, since load_model would refuse the saved model, and
    ChildProcessError when the helper exits before the fit ends.
    """
    cfg = cfg or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if len(y) < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    names = list(feature_names or [f"f{i}" for i in range(X.shape[1])])
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length mismatch")

    base = float(y.mean())
    cols = list(range(X.shape[1]))
    h = (len(cols) + 1) // 2  # this process searches cols[:h], the helper cols[h:]

    def helper_fit(read_fd: int, write_fd: int) -> None:
        _boost(_Grower(X, cfg, cols[h:], (read_fd, write_fd)), y, cfg, base)

    large = _HELPER_ROWS <= len(X) and _HELPER_WORK <= len(X) * cfg.n_trees
    helper = procs.fork_helper(helper_fit) if h < len(cols) and large else None
    if helper is None:
        trees, gains, train_mse, pred = _boost(_Grower(X, cfg, cols), y, cfg, base)
    else:
        with helper:
            try:
                grower = _Grower(X, cfg, cols[:h], (helper.read_fd, helper.write_fd))
                trees, gains, train_mse, pred = _boost(grower, y, cfg, base)
            except (EOFError, BrokenPipeError):  # the helper has exited
                helper.check()  # raises ChildProcessError with its status
                raise

    raw = dict.fromkeys(names, 0.0)
    for tree, node_gains in zip(trees, gains):
        for f, g in zip(tree[0], node_gains):
            if f >= 0:
                raw[names[f]] += g
    importance = percent_of_peak(raw)
    # A non-finite base or leaf makes its rows' predictions non-finite.
    if not (np.isfinite(pred).all() and np.isfinite(list(importance.values())).all()):
        raise ValueError("the fit overflows: y is too large for a finite model")
    return Ensemble.from_trees(base, trees, names, importance, tuple(train_mse), cfg.shrinkage)


def percent_of_peak(raw: dict[str, float]) -> dict[str, float]:
    """Each value as a percentage of the largest; all 0.0 unless one is positive."""
    peak = max(raw.values())
    return {n: 100.0 * v / peak if peak > 0 else 0.0 for n, v in raw.items()}


def _leaf_values(model: Ensemble, X: np.ndarray) -> np.ndarray:
    """(rows, trees) values of the leaf each row of X reaches in each tree."""
    node = np.broadcast_to(model.trees, (len(X), len(model.trees)))
    row_start = (np.arange(len(X)) * X.shape[1])[:, None]
    flat = X.ravel()
    for _ in range(model.levels):
        # At a leaf, feature -1 reads some other cell; the self-loop ignores it.
        go_right = ~(flat[row_start + model.feature[node]] <= model.threshold[node])
        node = model.child[2 * node + go_right]
    return model.value[node]


def predict(model: Ensemble, X) -> np.ndarray:
    """Evaluate the additive model on each row of a (rows, features) matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(model.feature_names):
        raise ValueError(
            f"expected a (rows, {len(model.feature_names)}) matrix, got shape {arr.shape}"
        )
    out = np.full(len(arr), model.base)
    if len(model.trees) and len(arr):
        for s in range(0, len(arr), _BLOCK):
            block = out[s : s + _BLOCK]
            terms = np.empty((len(block), len(model.trees) + 1))
            terms[:, 0] = block
            values = _leaf_values(model, arr[s : s + _BLOCK])
            np.multiply(model.shrinkage, values, out=terms[:, 1:])
            # cumsum adds the trees one after another, exactly as
            # out += shrinkage * v per tree would; a pairwise sum would not.
            block[:] = np.cumsum(terms, axis=1)[:, -1]
    return out


def rank(
    model: Ensemble,
    q1: str,
    candidates: list[tuple[str, "object"]],
    clusters: dict[str, int] | None = None,
) -> list[tuple[str, float]]:
    """Score (q2, FeatureVector) candidates and sort best-first.

    Ties break on q2 to keep the order total and deterministic.  q1 and
    clusters are unread (pipeline.select_rows drops variant mates); the
    benchmark's serve pass passes them, so they stay until ROADMAP item 4.
    """
    if not candidates:
        return []
    X = np.array([fv.values() for _, fv in candidates])
    scores = predict(model, X)
    scored = [(q2, float(s)) for (q2, _), s in zip(candidates, scores)]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def _header_lines(n_trees: int, shrinkage: float, base: float, names: list[str]) -> list[str]:
    """The first four lines of a model file; floats use repr for exact round-trip."""
    return [
        f"n_trees\t{n_trees}",
        f"shrinkage\t{shrinkage!r}",
        f"base\t{base!r}",
        "features\t" + "\t".join(names),
    ]


def _tree_lines(model: Ensemble) -> list[str]:
    """The lines of every tree of the model, one tree after another."""
    lines = []
    feature, threshold, child, value = (
        a.tolist() for a in (model.feature, model.threshold, model.child, model.value)
    )
    starts = model.trees.tolist()
    for t, (root, end) in enumerate(zip(starts, starts[1:] + [len(feature)])):
        lines.append(f"tree\t{t}\t{model.shrinkage!r}\t{end - root}")
        for i in range(root, end):  # node and child indices count from the root
            if feature[i] < 0:
                lines.append(f"{i - root}\tleaf\t{value[i]!r}\t-\t-\t-")
            else:
                lt, rt = child[2 * i] - root, child[2 * i + 1] - root
                lines.append(f"{i - root}\tsplit\t{feature[i]}\t{threshold[i]!r}\t{lt}\t{rt}")
    return lines


def _importance_lines(model: Ensemble) -> list[str]:
    return ["importance"] + [f"{n}\t{model.importance.get(n, 0.0)!r}" for n in model.feature_names]


def _model_lines(model: Ensemble) -> list[str]:
    """The lines of the model file: header, trees, importance."""
    header = _header_lines(len(model.trees), model.shrinkage, model.base, model.feature_names)
    return header + _tree_lines(model) + _importance_lines(model)


def save_model(model: Ensemble, path: str) -> None:
    """Write the plain-text model file, one line of ``_model_lines`` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:  # "\n" on every platform
        fh.write("\n".join(_model_lines(model)) + "\n")


def load_model(path: str) -> Ensemble:
    """Read a model file; a malformed one raises ValueError("path:line: reason").

    The file must be exactly what save_model writes for the model it holds,
    so a load followed by a save never changes it.  The parse checks what
    building the model needs, and each node line's index, so a node line
    lost or added is named where it is.  A tree's nodes run until its
    preorder closes, which fixes its node count and child indices.

    The lines are compared with those ``_model_lines`` gives, line endings
    included, so a refusal names the first line that differs even when a
    fault of the parse comes later: a fault is raised only when no header
    line read before it and no closed tree differs, and the header and the
    trees are compared once the trees end, the importance lines at the end.
    A fault inside a tree comes before that tree's comparison.
    """
    lines = read_lines(path)
    with open(path, "rb") as fh:
        data = fh.read()
    # read_lines drops a leading byte-order mark, which save_model never writes.
    if data.startswith(codecs.BOM_UTF8):
        raise ValueError(f"{path}:1: byte-order mark, which save_model never writes")
    raw = data.splitlines(keepends=True)  # lines, each with its line ending
    lineno = 0  # of the line read last
    shrinkage, base, names = 0.0, 0.0, []  # the header's values, once read
    trees: list[tuple[list, ...]] = []  # the trees closed so far

    def differs(start: int, written: list[str]) -> str:
        """The refusal at the first line from line start on that is not
        written's line and "\n" (a written "" is the end of the file), or ""."""
        if b"".join(raw[start - 1 : start - 1 + len(written)]) == "".join(
            want and want + "\n" for want in written
        ).encode():
            return ""  # one comparison when nothing differs
        for at, want in enumerate(written, start):
            want = want and want + "\n"
            found = raw[at - 1].decode() if at <= len(raw) else ""
            if found != want:
                want, found = (repr(ln) if ln else "the end of the file" for ln in (want, found))
                return f"{path}:{at}: save_model writes {want} here, found {found}"
        return ""

    def fail(reason: str):
        """Refuse at line lineno, unless a header line read before it or a
        closed tree differs (n_trees is known only once the trees end)."""
        header = _header_lines(len(trees), shrinkage, base, names)
        refusal = differs(2, header[1 : min(lineno, 5) - 1])
        if trees and not refusal:
            model = Ensemble.from_trees(base, trees, names, {}, shrinkage=shrinkage)
            refusal = differs(5, _tree_lines(model))
        raise ValueError(refusal or f"{path}:{lineno}: {reason}")

    def fields(n: int | None = None, key: str | None = None) -> list[str]:
        """The next line's tab-separated fields, checked for count and key."""
        nonlocal lineno
        lineno += 1
        if lineno > len(lines):
            fail("unexpected end of file")
        parts = lines[lineno - 1].split("\t")
        if key is not None and parts[0] != key:
            fail(f"expected {key!r}, found {parts[0]!r}")
        if n is not None and len(parts) != n:
            fail(f"expected {n} fields, found {len(parts)}")
        return parts

    def number(kind, text: str):
        try:
            value = kind(text)
        except ValueError:
            fail(f"bad {kind.__name__} {text!r}")
        if kind is float and not math.isfinite(value):
            fail(f"non-finite float {text!r}")
        return value

    fields(2, "n_trees")
    shrinkage = number(float, fields(2, "shrinkage")[1])
    if not 0.0 < shrinkage <= 1.0:
        fail(f"shrinkage {shrinkage!r} is not in (0, 1]")
    base = number(float, fields(2, "base")[1])
    names = fields(key="features")[1:]
    while lineno < len(lines) and lines[lineno].startswith("tree\t"):
        fields(4)  # the node count and child indices are left to the comparison
        feature, threshold, value = tree = ([], [], [])
        unread = 1  # subtrees begun and not yet read: a split begins two
        while unread:
            i = len(feature)
            parts = fields(6)
            if parts[0] != str(i):  # a node line lost, added or misnumbered
                rest = lines[lineno - 1][len(parts[0]) :] + "\n"
                fail(f"save_model writes {str(i) + rest!r} here, found {parts[0] + rest!r}")
            if parts[1] == "leaf":
                f, thr, v = -1, 0.0, number(float, parts[2])
                unread -= 1
            elif parts[1] == "split":
                f = number(int, parts[2])
                if not 0 <= f < len(names):
                    fail(f"feature index {f} out of range")
                thr, v = number(float, parts[3]), 0.0
                unread += 1
            else:
                fail(f"unknown node kind {parts[1]!r}")
            feature.append(f)
            threshold.append(thr)
            value.append(v)
        trees.append(tree)
    model = Ensemble.from_trees(base, trees, names, {}, shrinkage=shrinkage)
    header = _header_lines(len(trees), shrinkage, base, names)
    if refusal := differs(1, header + _tree_lines(model)):
        raise ValueError(refusal)
    end = lineno  # the trees' last line
    if lineno < len(lines):  # a missing section is refused below
        fields(1, "importance")
    importance: dict[str, float] = {}
    while lineno < len(lines):
        name, val = fields(2)
        importance[name] = number(float, val)
    model = replace(model, importance=importance)
    if refusal := differs(end + 1, _importance_lines(model) + [""]):
        raise ValueError(refusal)
    return model
