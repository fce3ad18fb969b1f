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

A tree is stored as preorder parallel arrays (``Tree``), the layout the
plain-text model file serialises.  ``predict`` walks blocks of rows through
all trees at once, one level per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .logs import read_lines

_BLOCK = 256  # rows per predict step; bounds the (rows, trees) work arrays


class Tree:
    """One regression tree as preorder parallel arrays; node 0 is the root.

    A split node sends a row to ``left`` when ``x[feature] <= threshold`` and
    to ``right`` otherwise.  A leaf has feature and children -1 and holds the
    leaf ``value``; split nodes keep value 0.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        level = [0] * len(self.feature)
        for i in np.flatnonzero(self.feature >= 0):  # preorder: parents first
            level[self.left[i]] = level[self.right[i]] = level[i] + 1
        self.depth = max(level)  # splits on the longest root-to-leaf path


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
    base: float
    trees: tuple[Tree, ...] = ()  # each weighted by shrinkage
    feature_names: list[str] = field(default_factory=list)
    importance: dict[str, float] = field(default_factory=dict)  # max-normalized to 100
    train_mse: tuple[float, ...] = ()
    shrinkage: float = 0.1


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

    def grow(self, r: np.ndarray) -> tuple[Tree, list[float], np.ndarray]:
        """Fit one tree to the residuals r.

        Returns the tree, each node's split gain (0 for leaves) and the
        node of the leaf every row ends in.
        """
        d = self.order.shape[0] - 1
        X, go_left, work = self.X, self.go_left, self.work
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        gain: list[float] = []
        leaf_of = np.empty(len(r), dtype=np.intp)
        # (start, end, depth, parent whose right child this is or -1,
        #  (rows, value) for a node already known to be a leaf, else None)
        stack = [(0, len(r), 0, -1, self._leaf(0, self.order[d], r))]
        while stack:
            s, e, depth, parent, leaf = stack.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            seg = (self.order if node == 0 else work)[:, s:e]
            found = None if leaf else self._best_split(seg, r)
            if found is None:
                rows, v = leaf or (seg[d], float(r[seg[d]].mean()))
                leaf_of[rows] = node
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
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
            left.append(node + 1)
            right.append(-1)  # set when the right child is reached
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
            stack.append((s + nl, e, depth + 1, node, right_leaf))
            stack.append((s, s + nl, depth + 1, -1, left_leaf))
        return Tree(feature, threshold, left, right, value), gain, leaf_of


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
    trees: list[Tree] = []
    train_mse: list[float] = []
    pred = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        r = y - pred
        tree, gains, leaf_of = grower.grow(r)
        if tree.depth == 0 and tree.value[0] == 0.0:  # also ends a perfect fit
            train_mse.append(float(np.mean(r**2)))
            break
        trees.append(tree)
        for f, g in zip(tree.feature, gains):
            if f >= 0:
                raw[names[f]] += g
        pred = pred + cfg.shrinkage * tree.value[leaf_of]
        if not np.isfinite(pred).all():
            break  # refused below; later trees would fit nan residuals
        train_mse.append(float(np.mean((y - pred) ** 2)))

    importance = percent_of_peak(raw)
    # A non-finite base or leaf makes its rows' predictions non-finite.
    if not (np.isfinite(pred).all() and np.isfinite(list(importance.values())).all()):
        raise ValueError("the fit overflows: y is too large for a finite model")
    return Ensemble(base, tuple(trees), names, importance, tuple(train_mse), cfg.shrinkage)


def percent_of_peak(raw: dict[str, float]) -> dict[str, float]:
    """Each value as a percentage of the largest; all 0.0 unless one is positive."""
    peak = max(raw.values())
    return {n: 100.0 * v / peak if peak > 0 else 0.0 for n, v in raw.items()}


class _Forest:
    """Trees concatenated into one node array, for walking them together.

    ``child[2 * i]`` and ``child[2 * i + 1]`` are node i's left and right
    children in the concatenation.  A leaf is its own child, so a row that
    reaches a leaf early stays there while the deeper trees finish.
    """

    def __init__(self, trees: list[Tree]):
        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.value = np.concatenate([t.value for t in trees])
        kids = np.stack(
            [np.concatenate([t.left for t in trees]), np.concatenate([t.right for t in trees])],
            axis=1,
        )
        kids += np.repeat(self.roots, sizes)[:, None]
        leaves = np.flatnonzero(self.feature < 0)
        kids[leaves] = leaves[:, None]
        self.child = kids.ravel()
        self.levels = max(t.depth for t in trees)


def _leaf_values(forest: _Forest, X: np.ndarray) -> np.ndarray:
    """(rows, trees) values of the leaf each row of X reaches in each tree."""
    node = np.broadcast_to(forest.roots, (len(X), len(forest.roots)))
    row_start = (np.arange(len(X)) * X.shape[1])[:, None]
    flat = X.ravel()
    for _ in range(forest.levels):
        # At a leaf, feature -1 reads some other cell; the self-loop ignores it.
        go_right = ~(flat[row_start + forest.feature[node]] <= forest.threshold[node])
        node = forest.child[2 * node + go_right]
    return forest.value[node]


def predict(model: Ensemble, X) -> np.ndarray:
    """Evaluate the additive model on each row of a (rows, features) matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(model.feature_names):
        raise ValueError(
            f"expected a (rows, {len(model.feature_names)}) matrix, got shape {arr.shape}"
        )
    out = np.full(len(arr), model.base)
    if model.trees and len(arr):
        forest = _Forest(model.trees)
        for s in range(0, len(arr), _BLOCK):
            block = out[s : s + _BLOCK]
            terms = np.empty((len(block), len(model.trees) + 1))
            terms[:, 0] = block
            values = _leaf_values(forest, arr[s : s + _BLOCK])
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

    Candidates sharing q1's trivial-variant cluster are dropped before
    ranking.  Ties break on q2 to keep the order total and deterministic.
    """
    kept = []
    c1 = clusters.get(q1) if clusters else None
    for q2, fv in candidates:
        if c1 is not None and clusters.get(q2) == c1:
            continue
        kept.append((q2, fv))
    if not kept:
        return []
    X = np.array([fv.values() for _, fv in kept])
    scores = predict(model, X)
    scored = [(q2, float(s)) for (q2, _), s in zip(kept, scores)]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def save_model(model: Ensemble, path: str) -> None:
    """Write the plain-text model file; floats use repr for exact round-trip."""
    lines = [
        f"n_trees\t{len(model.trees)}",
        f"shrinkage\t{model.shrinkage!r}",
        f"base\t{model.base!r}",
        "features\t" + "\t".join(model.feature_names),
    ]
    for t, tree in enumerate(model.trees):
        lines.append(f"tree\t{t}\t{model.shrinkage!r}\t{len(tree.feature)}")
        for i, (f, thr, lt, rt, v) in enumerate(
            zip(
                tree.feature.tolist(),
                tree.threshold.tolist(),
                tree.left.tolist(),
                tree.right.tolist(),
                tree.value.tolist(),
            )
        ):
            if f < 0:
                lines.append(f"{i}\tleaf\t{v!r}\t-\t-\t-")
            else:
                lines.append(f"{i}\tsplit\t{f}\t{thr!r}\t{lt}\t{rt}")
    lines.append("importance")
    for name in model.feature_names:
        lines.append(f"{name}\t{model.importance.get(name, 0.0)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> Ensemble:
    """Read a model file; a malformed one raises ValueError("path:line: reason")."""
    lines = [(i, ln) for i, ln in enumerate(read_lines(path), 1) if ln.strip()]
    end = lines[-1][0] + 1 if lines else 1  # the line number past the last line
    pos, lineno = 0, end

    def fail(reason: str):
        raise ValueError(f"{path}:{lineno}: {reason}")

    def fields(n: int | None = None, key: str | None = None) -> list[str]:
        """The next line's tab-separated fields, checked for count and key."""
        nonlocal pos, lineno
        if pos == len(lines):
            lineno = end
            fail("unexpected end of file")
        lineno, text = lines[pos]
        pos += 1
        parts = text.split("\t")
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

    n_trees = number(int, fields(2, "n_trees")[1])
    header = lineno
    shrinkage = number(float, fields(2, "shrinkage")[1])
    if not 0.0 < shrinkage <= 1.0:
        fail(f"shrinkage {shrinkage!r} is not in (0, 1]")
    base = number(float, fields(2, "base")[1])
    names = fields(key="features")[1:]
    trees: list[Tree] = []
    while pos < len(lines) and lines[pos][1].startswith("tree\t"):
        _, t_s, w_s, count_s = fields(4)
        if t_s != str(len(trees)):
            fail(f"expected tree index {len(trees)}, found {t_s!r}")
        w, count = number(float, w_s), number(int, count_s)
        if w != shrinkage:
            fail(f"tree weight {w!r} differs from shrinkage {shrinkage!r}")
        if count < 1:
            fail(f"tree has {count} nodes")
        arrays: tuple[list, ...] = ([], [], [], [], [])
        claimed: set[int] = set()  # nodes already some split's child
        for i in range(count):
            parts = fields(6)
            if parts[0] != str(i):
                fail(f"expected node index {i}, found {parts[0]!r}")
            if i > 0 and i not in claimed:  # every parent precedes its children
                fail(f"node {i} is no split's child")
            if parts[1] == "leaf":
                if parts[3:] != ["-"] * 3:
                    fail("a leaf's last three fields must be '-'")
                node = (-1, 0.0, -1, -1, number(float, parts[2]))
            elif parts[1] == "split":
                f = number(int, parts[2])
                if not 0 <= f < len(names):
                    fail(f"feature index {f} out of range")
                kids = number(int, parts[4]), number(int, parts[5])
                for k in kids:
                    if not i < k < count:
                        fail(f"child index {k} out of range")
                    if k in claimed:
                        fail(f"node {k} has two parents")
                    claimed.add(k)
                node = (f, number(float, parts[3]), *kids, 0.0)
            else:
                fail(f"unknown node kind {parts[1]!r}")
            for column, v in zip(arrays, node):
                column.append(v)
        trees.append(Tree(*arrays))
    if len(trees) != n_trees:
        lineno = header
        fail(f"n_trees is {n_trees} but the file has {len(trees)} trees")
    if pos == len(lines):
        lineno = end
        fail("missing importance section")
    fields(1, "importance")
    importance: dict[str, float] = {}
    while pos < len(lines):
        name, val = fields(2)
        if name not in names:
            fail(f"importance for unknown feature {name!r}")
        importance[name] = number(float, val)
    return Ensemble(base, tuple(trees), names, importance, shrinkage=shrinkage)
