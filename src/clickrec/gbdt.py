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
scores every split position of a node.

A fitted ``Ensemble`` stores all its trees as one preorder node array, built
once by ``Ensemble.from_trees`` for both ``fit`` and ``load_model``.
``predict`` walks blocks of rows through all trees at once, one level per
step, and ``save_model`` writes each tree from its slice of the array.
"""

from __future__ import annotations

import codecs
import math
import os
from dataclasses import dataclass

import numpy as np

from .logs import read_lines

_BLOCK = 256  # rows per predict step; bounds the (rows, trees) work arrays


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


class _Grower:
    """The columns of X sorted once, and the buffers every tree of a fit reuses.

    ``order[f]`` lists the rows by X[:, f] (stable, so ties keep row order)
    and ``order[d]`` lists them by row; ``rank[f, row]`` is the dense rank of
    X[row, f] in its column, so two rows hold equal values iff their ranks
    are equal.  A tree's root reads ``order``; every other node reads and
    partitions its own segment ``[s, e)`` of ``work``.  Segments of nodes
    still waiting to be grown are disjoint.
    """

    def __init__(self, X: np.ndarray, cfg: TrainConfig):
        n, d = X.shape
        self.X = X
        self.cfg = cfg
        self.order = np.empty((d + 1, n), dtype=np.int32)
        self.rank = np.empty((d, n), dtype=np.int32)
        for f in range(d):
            o = np.argsort(X[:, f], kind="stable")
            xs = X[o, f]
            self.order[f] = o
            self.rank[f, o[0]] = 0
            self.rank[f, o[1:]] = np.cumsum(xs[1:] != xs[:-1])
        self.order[d] = np.arange(n)
        self.work = np.empty_like(self.order)
        self.go_left = np.zeros(n, dtype=bool)
        self.csum = np.empty(d * n)  # a node's cumulative sums of r
        self.seg_rank = np.empty(d * n, dtype=np.int32)  # rank along a node's sort orders

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

    def _best_split(self, seg: np.ndarray, r: np.ndarray):
        """Best (gain, feature, last left position) of a node, or None.

        Gains are scored only where the value changes and both sides keep
        min_leaf rows.  The first maximum in (feature, position) order wins
        ties: the lowest feature, then the smallest threshold.
        """
        d, m = seg.shape[0] - 1, seg.shape[1]
        lo, hi = self.cfg.min_leaf - 1, m - self.cfg.min_leaf  # positions [lo, hi)
        csum = self.csum[: d * m].reshape(d, m)
        seg_rank = self.seg_rank[: d * m].reshape(d, m)
        for f in range(d):  # per feature, so take's index copy stays small
            rows = seg[f].astype(np.intp)
            # mode="clip" only skips take's output buffering: the rows are valid.
            np.take(r, rows, out=csum[f], mode="clip")
            np.take(self.rank[f], rows, out=seg_rank[f], mode="clip")
        np.cumsum(csum, axis=1, out=csum)  # sequential, so csum[:, -1] is each total
        changes = seg_rank[:, lo + 1 : hi + 1] != seg_rank[:, lo:hi]
        f, i = np.divmod(np.flatnonzero(changes), hi - lo)
        if not len(f):
            return None
        p = lo + i
        cs = csum.ravel()[f * m + p]
        total = csum.ravel()[f * m + m - 1]
        nl = p + 1
        gains = split_gain(nl, cs / nl, m - nl, (total - cs) / (m - nl))
        best = int(np.argmax(gains))
        g = float(gains[best])
        if not g > 0.0:
            return None
        return g, int(f[best]), int(p[best])

    def grow(self, r: np.ndarray) -> tuple[tuple[list, ...], list[float], np.ndarray]:
        """Fit one tree to the residuals r.

        Returns the tree as ``Ensemble.from_trees`` takes it, each node's
        split gain (0 for leaves) and the node of the leaf every row ends in.
        """
        d = self.order.shape[0] - 1
        X, go_left, work = self.X, self.go_left, self.work
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        gain: list[float] = []
        leaf_of = np.empty(len(r), dtype=np.intp)
        # (start, end, depth, (rows, value) for a node already known to be a
        #  leaf, else None); left children are pushed last, so nodes pop in preorder
        stack = [(0, len(r), 0, self._leaf(0, self.order[d], r))]
        while stack:
            s, e, depth, leaf = stack.pop()
            node = len(feature)
            seg = (self.order if node == 0 else work)[:, s:e]
            found = None if leaf else self._best_split(seg, r)
            if found is None:
                rows, v = leaf or (seg[d], float(r[seg[d]].mean()))
                leaf_of[rows] = node
                feature.append(-1)
                threshold.append(0.0)
                value.append(v)
                gain.append(0.0)
                continue
            g, f, p = found
            lo_v, hi_v = float(X[seg[f, p], f]), float(X[seg[f, p + 1], f])
            thr = lo_v + (hi_v - lo_v) / 2.0
            if not (lo_v <= thr < hi_v):
                thr = lo_v  # adjacent floats: route left iff value <= lo
            feature.append(f)
            threshold.append(thr)
            value.append(0.0)
            gain.append(g)

            nl = p + 1  # the left child is the first nl rows in feature f's order
            go_left[seg[f, :nl]] = True
            by_row = seg[d]
            to_left = go_left[by_row]
            left_rows, right_rows = by_row[to_left], by_row[~to_left]
            left_leaf = self._leaf(depth + 1, left_rows, r)
            right_leaf = self._leaf(depth + 1, right_rows, r)
            if left_leaf is None or right_leaf is None:
                # Stable partition of every sort order into the segments of
                # the children that will split.  Both halves are copied out
                # before either is written, since seg may be a view of work.
                in_left = go_left[seg]
                left_half = None if left_leaf else seg[in_left]
                right_half = None if right_leaf else seg[~in_left]
                if left_half is not None:
                    work[:, s : s + nl] = left_half.reshape(d + 1, nl)
                if right_half is not None:
                    work[:, s + nl : e] = right_half.reshape(d + 1, e - s - nl)
            go_left[left_rows] = False
            stack.append((s + nl, e, depth + 1, right_leaf))
            stack.append((s, s + nl, depth + 1, left_leaf))
        return (feature, threshold, value), gain, leaf_of


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises ValueError below
def fit(
    X, y, cfg: TrainConfig | None = None, feature_names: list[str] | None = None
) -> Ensemble:
    """Train the boosted ensemble; records per-iteration training MSE.

    Raises ValueError when a stored number or training prediction is not
    finite, since load_model would refuse the saved model.
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
    grower = _Grower(X, cfg)
    raw = dict.fromkeys(names, 0.0)
    trees: list[tuple[list, ...]] = []
    train_mse: list[float] = []
    pred = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        r = y - pred
        tree, gains, leaf_of = grower.grow(r)
        feature, _, value = tree
        if len(feature) == 1 and value[0] == 0.0:  # also ends a perfect fit
            train_mse.append(float(np.mean(r**2)))
            break
        trees.append(tree)
        for f, g in zip(feature, gains):
            if f >= 0:
                raw[names[f]] += g
        pred = pred + cfg.shrinkage * np.array(value)[leaf_of]
        if not np.isfinite(pred).all():
            break  # refused below; later trees would fit nan residuals
        train_mse.append(float(np.mean((y - pred) ** 2)))

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


def _model_lines(model: Ensemble) -> list[str]:
    """The lines of the model file; floats use repr for exact round-trip."""
    lines = [
        f"n_trees\t{len(model.trees)}",
        f"shrinkage\t{model.shrinkage!r}",
        f"base\t{model.base!r}",
        "features\t" + "\t".join(model.feature_names),
    ]
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
    lines.append("importance")
    for name in model.feature_names:
        lines.append(f"{name}\t{model.importance.get(name, 0.0)!r}")
    return lines


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
    preorder closes, which fixes its node count and child indices; one
    comparison with ``_model_lines`` then refuses every other spelling,
    those fields included, at the first line that differs.
    """
    lines = read_lines(path)
    with open(path, "rb") as fh:
        data = fh.read()
    # read_lines drops a leading byte-order mark, which save_model never writes.
    if data.startswith(codecs.BOM_UTF8):
        raise ValueError(f"{path}:1: byte-order mark, which save_model never writes")
    lineno = 0  # of the line read last

    def fail(reason: str):
        raise ValueError(f"{path}:{lineno}: {reason}")

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
    trees: list[tuple[list, ...]] = []
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
    if lineno < len(lines):  # a missing section is refused below
        fields(1, "importance")
    importance: dict[str, float] = {}
    while lineno < len(lines):
        name, val = fields(2)
        importance[name] = number(float, val)
    model = Ensemble.from_trees(base, trees, names, importance, shrinkage=shrinkage)

    written = ("\n".join(_model_lines(model)) + "\n").encode()
    if data != written:
        at = len(os.path.commonprefix([data, written]))  # the first byte that differs
        lineno = data.count(b"\n", 0, at) + 1

        def line(text: bytes) -> str:  # line lineno of text, with its line ending
            ln = text.splitlines(keepends=True)[lineno - 1 : lineno]
            return repr(ln[0].decode()) if ln else "the end of the file"

        fail(f"save_model writes {line(written)} here, found {line(data)}")
    return model
