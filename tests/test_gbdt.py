import dataclasses
import random

import numpy as np
import pytest

from clickrec.features import FEATURE_NAMES, FeatureVector
from clickrec.gbdt import (
    Ensemble,
    TrainConfig,
    Tree,
    fit,
    load_model,
    predict,
    rank,
    save_model,
    split_gain,
)


def make_fv(**overrides):
    base = dict(
        p_cc=0.0, p_ct=0.0, p_cs=0.0, freq_q1=1, freq_q2=1, freq_topic=1,
        len_q1=1, len_q2=1, clen_q1=1, clen_q2=1, delta_len=0, delta_len_rel=0.0,
        delta_clen=0, delta_clen_rel=0.0, mb_leven=0, leven=0, ccos=1.0, bcos=1.0,
        ent_q1=0.0, ent_q2=0.0, delta_ent=0.0, next_ent=0.0, llr=0.0,
    )
    base.update(overrides)
    return FeatureVector(**base)


def stump(feature, threshold, left_value, right_value):
    """Root split on x[feature] <= threshold with two leaves, in preorder."""
    return Tree(
        feature=[feature, -1, -1],
        threshold=[threshold, 0.0, 0.0],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[0.0, left_value, right_value],
    )


def random_problem(rng, n=80, d=5):
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return X, y


class TestSplitGain:
    def test_equal_means_zero(self):
        assert split_gain(4, 1.5, 6, 1.5) == 0.0

    def test_hand_value(self):
        assert split_gain(1, 0.0, 1, 2.0) == 2.0

    def test_symmetry(self):
        assert split_gain(3, 0.2, 7, 1.1) == split_gain(7, 1.1, 3, 0.2)

    def test_equals_sse_decrease(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            y = rng.standard_normal(rng.integers(2, 40))
            k = rng.integers(1, len(y))
            left, right = y[:k], y[k:]
            sse = lambda v: float(np.sum((v - v.mean()) ** 2))
            decrease = sse(y) - sse(left) - sse(right)
            gain = split_gain(len(left), left.mean(), len(right), right.mean())
            assert abs(gain - decrease) < 1e-9


class TestFit:
    def test_constant_target(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 2.5)
        model = fit(X, y, TrainConfig(n_trees=10, min_leaf=1))
        assert predict(model, X[:1])[0] == 2.5
        assert all(v == 0.0 for v in model.importance.values())
        assert all((tree.feature < 0).all() for tree in model.trees)

    def test_perfect_fit_stops_with_zero_mse(self):
        # The residuals are all 0, so the next tree is a 0 leaf and is dropped.
        model = fit([[0.0], [1.0]], [3.0, 3.0], TrainConfig(n_trees=5, min_leaf=1))
        assert model.trees == () and model.train_mse == (0.0,)

    def test_fit_and_load_build_frozen_models(self, tmp_path):
        X, y = random_problem(np.random.default_rng(12))
        model = fit(X, y, TrainConfig(n_trees=3))
        save_model(model, str(tmp_path / "model.txt"))
        loaded = load_model(str(tmp_path / "model.txt"))
        assert type(model.trees) is tuple and type(model.train_mse) is tuple
        assert type(loaded.trees) is tuple and len(loaded.trees) == 3
        for m in (model, loaded):
            for f in dataclasses.fields(m):
                with pytest.raises(AttributeError):
                    setattr(m, f.name, getattr(m, f.name))

    def test_separable_indicator_exact(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 2))
        y = (X[:, 0] > 0.5).astype(float)
        cfg = TrainConfig(n_trees=1, shrinkage=1.0, max_depth=1, min_leaf=1)
        model = fit(X, y, cfg)
        assert model.train_mse[-1] < 1e-24
        tree = model.trees[0]
        assert tree.feature[0] == 0
        left = y[X[:, 0] <= tree.threshold[0]]
        right = y[X[:, 0] > tree.threshold[0]]
        assert abs(model.base + tree.value[tree.left[0]] - left.mean()) < 1e-12
        assert abs(model.base + tree.value[tree.right[0]] - right.mean()) < 1e-12

    def test_mse_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            X, y = random_problem(rng)
            model = fit(X, y, TrainConfig(n_trees=30, shrinkage=0.3, min_leaf=2))
            mse = model.train_mse
            assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

    def test_single_full_tree_memorizes(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 3))
        y = rng.random(40)
        cfg = TrainConfig(n_trees=1, shrinkage=1.0, max_depth=None, min_leaf=1)
        model = fit(X, y, cfg)
        assert model.train_mse[-1] < 1e-12

    def test_importance_max_is_100(self):
        rng = np.random.default_rng(4)
        X, y = random_problem(rng)
        model = fit(X, y, TrainConfig(n_trees=20, min_leaf=2))
        vals = list(model.importance.values())
        assert all(v >= 0 for v in vals)
        assert abs(max(vals) - 100.0) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X, y = random_problem(rng)
        cfg = TrainConfig(n_trees=15)
        m1 = fit(X, y, cfg)
        m2 = fit(X, y, cfg)
        probe = np.random.default_rng(6).random((30, X.shape[1]))
        assert np.array_equal(predict(m1, probe), predict(m2, probe))

    def test_errors(self):
        with pytest.raises(ValueError):
            fit(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            fit([[1.0, 2.0]], [1.0])  # fewer than 2 samples
        with pytest.raises(ValueError):
            TrainConfig(shrinkage=0.0)
        with pytest.raises(ValueError):
            fit([[np.nan], [1.0]], [1.0, 2.0])  # no split order for NaN

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_feature_rejected(self, value):
        # A -inf value would become a -inf threshold, which no model file holds.
        with pytest.raises(ValueError, match="X and y must be finite"):
            fit([[value], [0.0], [1.0]], [0.0, 1.0, 2.0], TrainConfig(n_trees=1, min_leaf=1))

    def test_overflowing_mean_rejected(self):
        # The mean of two 1.7e308 targets is inf, a base load_model refuses.
        with pytest.raises(ValueError, match="the fit overflows"):
            fit([[0.0], [1.0]], [1.7e308, 1.7e308])

    def test_overflowing_leaves_rejected(self):
        # The base is finite, but the leaf means overflow to -inf, inf and nan.
        cfg = TrainConfig(n_trees=3, min_leaf=1)
        with pytest.raises(ValueError, match="the fit overflows"):
            fit([[0.0], [1.0], [2.0]], [1.7e308, -1.7e308, 1.7e308], cfg)

    def test_overflowing_importance_rejected(self):
        # Leaves and predictions stay finite, but the split gain (2e200)^2 / 2
        # is inf, so the importance is inf / inf = nan.
        with pytest.raises(ValueError, match="the fit overflows"):
            fit([[0.0], [1.0]], [1e200, -1e200], TrainConfig(n_trees=1, min_leaf=1))

    def test_infinite_training_mse_still_saves(self, tmp_path):
        # No split is allowed, so the model is the finite base 0 alone; only
        # the squared residuals overflow.
        model = fit([[0.0], [1.0]], [1e200, -1e200])
        assert model.train_mse == (np.inf,)
        save_model(model, tmp_path / "model.txt")
        assert load_model(tmp_path / "model.txt").base == 0.0


class TestPredict:
    def test_zero_tree_model_is_base(self):
        model = Ensemble(base=1.25, feature_names=["a", "b"])
        assert predict(model, [[0.0, 0.0]])[0] == 1.25

    def test_one_stump(self):
        model = Ensemble(
            base=0.0, trees=[stump(0, 0.5, -1.0, 1.0)], feature_names=["x"], shrinkage=0.1
        )
        assert predict(model, [[0.2], [0.8]]).tolist() == [-0.1, 0.1]

    def test_dimension_mismatch(self):
        model = Ensemble(base=0.0, feature_names=["a", "b"])
        with pytest.raises(ValueError, match=r"got shape \(1, 1\)"):
            predict(model, [[1.0]])
        # A single vector is not a matrix, even with the right length.
        with pytest.raises(ValueError, match=r"expected a \(rows, 2\) matrix, got shape \(2,\)"):
            predict(model, [1.0, 2.0])

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        X, y = random_problem(rng)
        model = fit(X, y, TrainConfig(n_trees=10))
        batch = predict(model, X)
        singles = np.array([predict(model, X[i : i + 1])[0] for i in range(len(X))])
        assert np.array_equal(batch, singles)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        X, y = random_problem(rng)
        model = fit(X, y, TrainConfig(n_trees=12), feature_names=[f"c{i}" for i in range(X.shape[1])])
        p1 = tmp_path / "model.txt"
        p2 = tmp_path / "model2.txt"
        save_model(model, str(p1))
        loaded = load_model(str(p1))
        save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        probe = np.random.default_rng(10).random((50, X.shape[1]))
        assert np.array_equal(predict(model, probe), predict(loaded, probe))
        assert loaded.importance == model.importance


class TestRank:
    def _model(self):
        # score = bcos
        idx = FEATURE_NAMES.index("BCos")
        return Ensemble(
            base=0.0, trees=[stump(idx, 0.5, 0.0, 1.0)], feature_names=FEATURE_NAMES, shrinkage=1.0
        )

    def test_empty(self):
        assert rank(self._model(), "q", []) == []

    def test_score_order(self):
        cands = [("low", make_fv(bcos=0.1)), ("high", make_fv(bcos=0.9))]
        out = rank(self._model(), "q", cands)
        assert [q for q, _ in out] == ["high", "low"]

    def test_variant_cluster_removed(self):
        cands = [("variant", make_fv(bcos=0.9)), ("other", make_fv(bcos=0.9))]
        clusters = {"q": 0, "variant": 0, "other": 1}
        out = rank(self._model(), "q", cands, clusters)
        assert [q for q, _ in out] == ["other"]

    def test_tie_breaks_lexicographic(self):
        cands = [("bb", make_fv(bcos=0.9)), ("aa", make_fv(bcos=0.9))]
        out = rank(self._model(), "q", cands)
        assert [q for q, _ in out] == ["aa", "bb"]


class TestMalformedModel:
    @pytest.fixture
    def lines(self, tmp_path):
        X, y = random_problem(np.random.default_rng(11))
        model = fit(X, y, TrainConfig(n_trees=3, max_depth=2))
        save_model(model, str(tmp_path / "good.txt"))
        return (tmp_path / "good.txt").read_text().splitlines()

    def load(self, tmp_path, lines):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        return load_model(str(path))

    def first(self, lines, kind):
        return next(i for i, ln in enumerate(lines) if ln.split("\t")[1:2] == [kind])

    def test_truncated_file(self, tmp_path, lines):
        cut = self.first(lines, "leaf")
        with pytest.raises(ValueError, match=rf"model.txt:{cut + 1}: unexpected end of file"):
            self.load(tmp_path, lines[:cut])

    def test_unknown_node_kind(self, tmp_path, lines):
        i = self.first(lines, "leaf")
        lines[i] = lines[i].replace("\tleaf\t", "\tbush\t")
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: unknown node kind 'bush'"):
            self.load(tmp_path, lines)

    def test_child_index_out_of_range(self, tmp_path, lines):
        i = self.first(lines, "split")
        parts = lines[i].split("\t")
        parts[5] = "99"
        lines[i] = "\t".join(parts)
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: child index 99 out of range"):
            self.load(tmp_path, lines)

    def test_node_with_two_parents(self, tmp_path, lines):
        # A node reached from two splits has no one depth, so the level-by-
        # level walk could stop a row at a split node.
        i = self.first(lines, "split")
        parts = lines[i].split("\t")
        parts[4] = parts[5]
        lines[i] = "\t".join(parts)
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: node {parts[5]} has two parents"):
            self.load(tmp_path, lines)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, col", [("leaf", 2), ("split", 3)])
    def test_non_finite_node_value(self, tmp_path, lines, kind, col, value):
        i = self.first(lines, kind)
        parts = lines[i].split("\t")
        parts[col] = value
        lines[i] = "\t".join(parts)
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: non-finite float '{value}'"):
            self.load(tmp_path, lines)

    @pytest.mark.parametrize("i, key", [(1, "shrinkage"), (2, "base")])
    def test_non_finite_header_value(self, tmp_path, i, key):
        # a model with no trees, whose shrinkage no tree weight is checked against
        lines = ["n_trees\t0", "shrinkage\t0.5", "base\t0.0", "features\tf0", "importance", "f0\t0.0"]
        assert self.load(tmp_path, lines).trees == ()
        lines[i] = f"{key}\tnan"
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: non-finite float 'nan'"):
            self.load(tmp_path, lines)

    def test_tree_index_out_of_order(self, tmp_path, lines):
        # save_model numbers the trees 0, 1, 2, ..., so a load and save would renumber
        i = [j for j, ln in enumerate(lines) if ln.startswith("tree\t")][1]
        lines[i] = lines[i].replace("tree\t1\t", "tree\t9\t")
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: expected tree index 1, found '9'"):
            self.load(tmp_path, lines)

    def test_node_index_out_of_order(self, tmp_path, lines):
        i = self.first(lines, "split")
        assert lines[i].startswith("0\tsplit\t")
        lines[i] = "7" + lines[i][1:]
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: expected node index 0, found '7'"):
            self.load(tmp_path, lines)

    def test_leaf_fields_past_the_value(self, tmp_path, lines):
        i = self.first(lines, "leaf")
        lines[i] = "\t".join(lines[i].split("\t")[:3] + ["x", "y", "z"])
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: a leaf's last three fields must be '-'"):
            self.load(tmp_path, lines)

    def test_node_no_split_reaches(self, tmp_path):
        # The root is a leaf, so no row reaches nodes 1 and 2.
        lines = [
            "n_trees\t1", "shrinkage\t0.5", "base\t0.0", "features\tf0", "tree\t0\t0.5\t3",
            "0\tleaf\t1.0\t-\t-\t-", "1\tleaf\t2.0\t-\t-\t-", "2\tleaf\t3.0\t-\t-\t-",
            "importance", "f0\t0.0",
        ]
        with pytest.raises(ValueError, match=r"model.txt:7: node 1 is no split's child"):
            self.load(tmp_path, lines)

    def test_tree_count_differs_from_header(self, tmp_path, lines):
        lines[0] = "n_trees\t4"
        with pytest.raises(ValueError, match=r"model.txt:1: n_trees is 4 but the file has 3 trees"):
            self.load(tmp_path, lines)

    def test_missing_importance_section(self, tmp_path, lines):
        lines = lines[: lines.index("importance")]
        with pytest.raises(ValueError, match=rf"model.txt:{len(lines) + 1}: missing importance section"):
            self.load(tmp_path, lines)

    @pytest.mark.parametrize("value", ["0.0", "-0.5", "1.5"])
    def test_shrinkage_out_of_range(self, tmp_path, lines, value):
        # fit never writes such a shrinkage, and a negative one would turn
        # every tree's contribution around
        lines[1] = f"shrinkage\t{value}"
        with pytest.raises(ValueError, match=rf"model.txt:2: shrinkage {value} is not in \(0, 1\]"):
            self.load(tmp_path, lines)

    def test_importance_for_unknown_feature(self, tmp_path, lines):
        # save_model would drop the line, so a load and save would change the file
        lines.insert(lines.index("importance") + 1, "zzz\t1.0")
        i = lines.index("zzz\t1.0")
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: importance for unknown feature 'zzz'"):
            self.load(tmp_path, lines)

    def test_missing_and_repeated_importance_names_load(self, tmp_path, lines):
        # fit writes a repeated name when feature_names repeats one
        start = lines.index("importance") + 1
        lines[start + 1] = lines[start].split("\t")[0] + "\t50.0"
        del lines[start + 2]
        model = self.load(tmp_path, lines)
        assert set(model.importance) < set(model.feature_names)

    @pytest.mark.parametrize("i, line", [(1, "shrinkage\t-0.5"), (-1, "zzz\t1.0")])
    def test_cli_rank_refuses_what_fit_never_writes(self, tmp_path, lines, capsys, i, line):
        from clickrec import cli

        lines[i] = line
        i %= len(lines)
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(
            ["--out", str(tmp_path), "rank", "--model", str(path), "--features", "x", "--q1", "q"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}:{i + 1}: "), err

    def test_cli_rank_reports_error(self, tmp_path, lines, capsys):
        from clickrec import cli

        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines[:-4]).replace("\tleaf\t", "\tbush\t") + "\n")
        code = cli.main(
            ["--out", str(tmp_path), "rank", "--model", str(path), "--features", "x", "--q1", "q"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}:") and "unknown node kind" in err
        assert "Traceback" not in err
