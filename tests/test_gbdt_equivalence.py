"""The presorted flat-array GBDT against the recursive reference trainer.

Inputs are built to tie: integer-valued and constant columns, duplicated
rows, signed zeros and adjacent floats (whose midpoint rounds onto the
lower value, the ``thr = lo`` fallback).  Every fit must give the same
model-file bytes, training MSE, importances and predictions as
``gbdt_reference``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gbdt_reference as ref
from clickrec import gbdt

ADJACENT = [1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))]


def make_column(rng, kind: str, n: int) -> np.ndarray:
    if kind == "int":
        return rng.integers(0, 4, n).astype(float)
    if kind == "const":
        return np.full(n, 2.5)
    if kind == "zeros":
        return rng.choice([-0.0, 0.0, 1.0], n)
    if kind == "adjacent":
        return rng.choice(ADJACENT, n)
    return rng.standard_normal(n)


def make_problem(seed: int, n: int, kinds: list[str], dup: int, y_kind: str):
    rng = np.random.default_rng(seed)
    X = np.column_stack([make_column(rng, k, n) for k in kinds])
    if dup:
        X = np.vstack([X, X[rng.integers(0, n, dup)]])
    m = len(X)
    if y_kind == "int":
        y = rng.integers(0, 3, m).astype(float)
    elif y_kind == "const":
        y = np.full(m, -1.5)
    else:
        y = rng.standard_normal(m) + X[:, 0]
    return X, y


def assert_same(X, y, cfg, tmp_path, probe=None):
    new = gbdt.fit(X, y, cfg)
    old = ref.fit(X, y, cfg)
    p_new, p_old = tmp_path / "new.txt", tmp_path / "old.txt"
    gbdt.save_model(new, str(p_new))
    ref.save_model(old, str(p_old))
    assert p_new.read_bytes() == p_old.read_bytes()
    assert new.train_mse == old.train_mse
    assert new.importance == old.importance
    for Z in [X] + ([probe] if probe is not None else []):
        assert np.array_equal(gbdt.predict(new, Z), ref.predict(old, Z))
        assert gbdt.predict(new, Z[:1])[0] == ref.predict(old, Z[0])
    loaded = gbdt.load_model(str(p_new))
    assert np.array_equal(gbdt.predict(loaded, X), ref.predict(old, X))


KINDS = st.sampled_from(["int", "const", "zeros", "adjacent", "float"])


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kinds=st.lists(KINDS, min_size=1, max_size=5),
    dup=st.integers(0, 20),
    y_kind=st.sampled_from(["int", "const", "float"]),
    min_leaf=st.integers(1, 5),
    max_depth=st.sampled_from([None, 1, 4]),
    n_trees=st.integers(1, 8),
    shrinkage=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_fit_matches_reference(
    tmp_path_factory, seed, n, kinds, dup, y_kind, min_leaf, max_depth, n_trees, shrinkage
):
    X, y = make_problem(seed, n, kinds, dup, y_kind)
    cfg = gbdt.TrainConfig(
        n_trees=n_trees, shrinkage=shrinkage, max_depth=max_depth, min_leaf=min_leaf
    )
    probe = make_problem(seed + 1, 30, kinds, 0, y_kind)[0]
    assert_same(X, y, cfg, tmp_path_factory.mktemp("eq"), probe=probe)


def test_deep_trees_on_larger_problem(tmp_path):
    kinds = ["int", "float", "zeros", "adjacent", "float", "int"]
    X, y = make_problem(2024, 600, kinds, 100, "float")
    for max_depth, min_leaf in ((None, 1), (4, 10), (6, 3)):
        cfg = gbdt.TrainConfig(n_trees=12, shrinkage=0.3, max_depth=max_depth, min_leaf=min_leaf)
        assert_same(X, y, cfg, tmp_path, probe=make_problem(7, 300, kinds, 0, "float")[0])
