"""Reference GBDT trainer and evaluator for equivalence tests.

This is the recursive ``TreeNode`` implementation that ``clickrec.gbdt``
used before presorted training and flat-array trees.  It re-sorts every
column at every node, so it is slow, but it is the specification the fast
trainer must match bit for bit: same splits, leaf values, gains,
importances, training MSE, predictions and model-file bytes.  Only the
``Ensemble.n_trees`` argument was dropped, as that field no longer exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clickrec.gbdt import Ensemble, TrainConfig


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    gain: float = 0.0  # split improvement, summed into feature importance

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X: np.ndarray, r: np.ndarray, min_leaf: int):
    """Best (gain, feature, threshold) over midpoint thresholds, or None.

    Tie-break: lowest feature index, then smallest threshold (strict-greater
    comparison while scanning features in order; within one feature the first
    maximal gain has the smallest threshold because values are sorted).
    """
    n = len(r)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        rs = r[order]
        csum = np.cumsum(rs)
        total = csum[-1]
        nl = np.arange(1, n)
        valid = xs[:-1] != xs[1:]
        if min_leaf > 1:
            valid &= (nl >= min_leaf) & (n - nl >= min_leaf)
        if not valid.any():
            continue
        ml = csum[:-1] / nl
        mr = (total - csum[:-1]) / (n - nl)
        gains = nl * (n - nl) / n * (ml - mr) ** 2
        gains = np.where(valid, gains, -np.inf)
        i = int(np.argmax(gains))
        g = float(gains[i])
        if g <= 0.0:
            continue
        lo, hi = float(xs[i]), float(xs[i + 1])
        thr = lo + (hi - lo) / 2.0
        if not (lo <= thr < hi):
            thr = lo  # adjacent floats: route left iff value <= lo
        if best is None or g > best[0]:
            best = (g, f, thr)
    return best


def _build_tree(
    X: np.ndarray, r: np.ndarray, depth: int, cfg: TrainConfig
) -> TreeNode:
    node = TreeNode(value=float(r.mean()))
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return node
    if len(r) < 2 * cfg.min_leaf or np.all(r == r[0]):
        return node
    found = _best_split(X, r, cfg.min_leaf)
    if found is None:
        return node
    gain, f, thr = found
    mask = X[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.gain = gain
    node.left = _build_tree(X[mask], r[mask], depth + 1, cfg)
    node.right = _build_tree(X[~mask], r[~mask], depth + 1, cfg)
    return node


def _eval_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _collect_gains(root: TreeNode, raw: np.ndarray) -> None:
    if root.is_leaf:
        return
    raw[root.feature] += root.gain
    _collect_gains(root.left, raw)
    _collect_gains(root.right, raw)


def fit(
    X,
    y,
    cfg: TrainConfig | None = None,
    feature_names: list[str] | None = None,
    valid: tuple | None = None,
) -> Ensemble:
    """Train the boosted ensemble; records per-iteration training MSE.

    With early_stop_patience set and a (X_valid, y_valid) pair given,
    boosting stops once validation MSE fails to improve for that many
    consecutive iterations.
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
    names = feature_names or [f"f{i}" for i in range(X.shape[1])]
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length mismatch")

    model = Ensemble(
        base=float(y.mean()),
        feature_names=list(names),
        shrinkage=cfg.shrinkage,
    )
    pred = np.full(len(y), model.base)
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        yv = np.asarray(valid[1], dtype=np.float64)
        pred_v = np.full(len(yv), model.base)
        best_v = float(np.mean((yv - pred_v) ** 2))
        stall = 0
    for _ in range(cfg.n_trees):
        r = y - pred
        if np.all(r == 0.0):
            model.train_mse.append(0.0)
            break
        root = _build_tree(X, r, 0, cfg)
        if root.is_leaf and root.value == 0.0:
            model.train_mse.append(float(np.mean(r**2)))
            break
        model.trees.append((root, cfg.shrinkage))
        pred = pred + cfg.shrinkage * _eval_tree(root, X)
        model.train_mse.append(float(np.mean((y - pred) ** 2)))
        if valid is not None and cfg.early_stop_patience is not None:
            pred_v = pred_v + cfg.shrinkage * _eval_tree(root, Xv)
            mse_v = float(np.mean((yv - pred_v) ** 2))
            if mse_v < best_v - 1e-12:
                best_v = mse_v
                stall = 0
            else:
                stall += 1
                if stall >= cfg.early_stop_patience:
                    break

    raw = np.zeros(X.shape[1])
    for root, _ in model.trees:
        _collect_gains(root, raw)
    peak = raw.max()
    if peak > 0:
        model.importance = {
            names[i]: float(100.0 * raw[i] / peak) for i in range(len(names))
        }
    else:
        model.importance = {n: 0.0 for n in names}
    return model


def predict(model: Ensemble, x) -> float | np.ndarray:
    """Evaluate the additive model on one vector or a matrix of rows."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != len(model.feature_names):
        raise ValueError(
            f"expected {len(model.feature_names)} features, got {arr.shape[1]}"
        )
    out = np.full(len(arr), model.base)
    for root, w in model.trees:
        out += w * _eval_tree(root, arr)
    return float(out[0]) if single else out


def _walk_preorder(root: TreeNode):
    order = []

    def rec(node):
        order.append(node)
        if not node.is_leaf:
            rec(node.left)
            rec(node.right)

    rec(root)
    return order


def save_model(model: Ensemble, path: str) -> None:
    """Write the plain-text model file; floats use repr for exact round-trip."""
    lines = [
        f"n_trees\t{len(model.trees)}",
        f"shrinkage\t{model.shrinkage!r}",
        f"base\t{model.base!r}",
        "features\t" + "\t".join(model.feature_names),
    ]
    for t, (root, w) in enumerate(model.trees):
        nodes = _walk_preorder(root)
        ids = {id(n): i for i, n in enumerate(nodes)}
        lines.append(f"tree\t{t}\t{w!r}\t{len(nodes)}")
        for i, n in enumerate(nodes):
            if n.is_leaf:
                lines.append(f"{i}\tleaf\t{n.value!r}\t-\t-\t-")
            else:
                lines.append(
                    f"{i}\tsplit\t{n.feature}\t{n.threshold!r}"
                    f"\t{ids[id(n.left)]}\t{ids[id(n.right)]}"
                )
    lines.append("importance")
    for name in model.feature_names:
        lines.append(f"{name}\t{model.importance.get(name, 0.0)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
