import dataclasses
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickrec.features import FEATURE_NAMES, FeatureVector
from clickrec.gbdt import (
    Ensemble,
    TrainConfig,
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
    """Root split on x[feature] <= threshold with two leaves, in preorder,
    as Ensemble.from_trees takes a tree."""
    return [feature, -1, -1], [threshold, 0.0, 0.0], [0.0, left_value, right_value]


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
        assert (model.feature < 0).all()

    def test_perfect_fit_stops_with_zero_mse(self):
        # The residuals are all 0, so the next tree is a 0 leaf and is dropped.
        model = fit([[0.0], [1.0]], [3.0, 3.0], TrainConfig(n_trees=5, min_leaf=1))
        assert len(model.trees) == 0 and model.train_mse == (0.0,)

    def test_fit_and_load_build_frozen_models(self, tmp_path):
        X, y = random_problem(np.random.default_rng(12))
        model = fit(X, y, TrainConfig(n_trees=3))
        save_model(model, str(tmp_path / "model.txt"))
        loaded = load_model(str(tmp_path / "model.txt"))
        assert type(model.train_mse) is tuple and len(loaded.trees) == 3
        # the forked crossval child sends its model back as a pickle
        sent = pickle.loads(pickle.dumps(model, pickle.HIGHEST_PROTOCOL))
        for m in (model, loaded, sent):
            assert type(m.trees) is np.ndarray and m.trees.dtype == np.intp
            assert not m.trees.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m.trees[0] = 0
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
        root = model.trees[0]
        assert model.feature[root] == 0
        left = y[X[:, 0] <= model.threshold[root]]
        right = y[X[:, 0] > model.threshold[root]]
        left_leaf, right_leaf = model.child[2 * root : 2 * root + 2]
        assert abs(model.base + model.value[left_leaf] - left.mean()) < 1e-12
        assert abs(model.base + model.value[right_leaf] - right.mean()) < 1e-12

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
        with pytest.raises(ValueError, match="min_leaf must be >= 1"):
            TrainConfig(min_leaf=0)
        with pytest.raises(ValueError, match="X and y length mismatch"):
            fit([[1.0], [2.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="feature_names length mismatch"):
            fit([[1.0], [2.0]], [1.0, 2.0], feature_names=["a", "b"])

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
        model = Ensemble.from_trees(1.25, [], ["a", "b"], {})
        assert predict(model, [[0.0, 0.0]])[0] == 1.25

    def test_one_stump(self):
        model = Ensemble.from_trees(0.0, [stump(0, 0.5, -1.0, 1.0)], ["x"], {}, shrinkage=0.1)
        assert predict(model, [[0.2], [0.8]]).tolist() == [-0.1, 0.1]

    def test_dimension_mismatch(self):
        model = Ensemble.from_trees(0.0, [], ["a", "b"], {})
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.floats(1e-6, 1.0),
        st.sampled_from([1.0, 1e-300, 1e100, -3.5]),
    )
    def test_fitted_model_survives_load_and_save(
        self, tmp_path_factory, seed, n_trees, shrinkage, scale
    ):
        # load_model refuses any number save_model writes otherwise, so every
        # number save_model writes must load back to the same text
        rng = np.random.default_rng(seed)
        X, y = random_problem(rng, n=30, d=3)
        model = fit(X, scale * y, TrainConfig(n_trees=n_trees, shrinkage=shrinkage, min_leaf=2))
        d = tmp_path_factory.mktemp("model")
        save_model(model, str(d / "a.txt"))
        save_model(load_model(str(d / "a.txt")), str(d / "b.txt"))
        assert (d / "a.txt").read_bytes() == (d / "b.txt").read_bytes()


    def test_tree_count_is_the_files_n_trees(self, tmp_path):
        # perfbench reads len(model.trees) as the number of trees fit made
        rng = np.random.default_rng(13)
        X, y = random_problem(rng)
        path = tmp_path / "model.txt"
        # the constant target ends the fit before its first tree
        for target, n_trees in ((y, 7), (np.full(len(y), 0.5), 0)):
            model = fit(X, target, TrainConfig(n_trees=7))
            save_model(model, str(path))
            assert path.read_text().splitlines()[0] == f"n_trees\t{n_trees}"
            assert len(model.trees) == len(load_model(str(path)).trees) == n_trees


VALUES = st.floats(-1e6, 1e6, allow_nan=False)
MAX_LEVELS = 8


@st.composite
def preorder_tree(draw, n_features):
    """A random tree's nodes in preorder, each ("leaf", value) or
    ("split", feature, threshold, left, right).

    One path from the root, the spine, splits down to a drawn depth, so
    single leaves and trees deeper than 4 both occur; other nodes split
    or not at random.
    """
    nodes: list = []
    depth = draw(st.integers(0, MAX_LEVELS))

    def grow(level, spine):
        i = len(nodes)
        if spine:
            leaf = level == depth
        else:
            leaf = level == MAX_LEVELS or draw(st.booleans())
        if leaf:
            nodes.append(("leaf", draw(VALUES)))
            return i
        nodes.append(None)
        left_spine = spine and draw(st.booleans())
        left = grow(level + 1, left_spine)
        right = grow(level + 1, spine and not left_spine)
        f = draw(st.integers(0, n_features - 1))
        nodes[i] = ("split", f, draw(VALUES), left, right)
        return i

    grow(0, True)
    return nodes


def model_file(base, shrinkage, names, trees, importance):
    """The text of a model file, written out from its definition."""
    lines = [
        f"n_trees\t{len(trees)}",
        f"shrinkage\t{shrinkage!r}",
        f"base\t{base!r}",
        "features\t" + "\t".join(names),
    ]
    for t, nodes in enumerate(trees):
        lines.append(f"tree\t{t}\t{shrinkage!r}\t{len(nodes)}")
        for i, node in enumerate(nodes):
            if node[0] == "leaf":
                lines.append(f"{i}\tleaf\t{node[1]!r}\t-\t-\t-")
            else:
                lines.append(f"{i}\tsplit\t" + "\t".join(map(repr, node[1:])))
    lines.append("importance")
    lines += [f"{name}\t{v!r}" for name, v in zip(names, importance)]
    return "\n".join(lines) + "\n"


def walk(nodes, row):
    """The leaf value one row reaches in one tree, node by node."""
    node = nodes[0]
    while node[0] == "split":
        _, f, threshold, left, right = node
        node = nodes[left if row[f] <= threshold else right]
    return node[1]


class TestForestWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_predict_matches_a_walk_of_the_files_trees(self, tmp_path_factory, data, d, seed):
        names = [f"f{i}" for i in range(d)]
        trees = data.draw(st.lists(preorder_tree(d), max_size=6))
        base = data.draw(VALUES)
        shrinkage = data.draw(st.floats(1e-3, 1.0))
        importance = data.draw(st.lists(st.floats(0.0, 100.0), min_size=d, max_size=d))
        path = tmp_path_factory.mktemp("walk") / "model.txt"
        path.write_text(model_file(base, shrinkage, names, trees, importance))
        model = load_model(str(path))

        # Cells equal to a threshold or next to one test both sides of each split.
        rng = np.random.default_rng(seed)
        thresholds = [n[2] for nodes in trees for n in nodes if n[0] == "split"]
        pool = thresholds + [float(np.nextafter(t, np.inf)) for t in thresholds]
        pool += rng.standard_normal(4).tolist()
        X = rng.choice(pool, (data.draw(st.integers(0, 300)), d))

        expected = []
        for row in X.tolist():
            total = base
            for nodes in trees:
                total += shrinkage * walk(nodes, row)
            expected.append(total)
        assert predict(model, X).tolist() == expected
        save_model(model, str(path.with_name("saved.txt")))
        assert path.with_name("saved.txt").read_bytes() == path.read_bytes()


class TestRank:
    def _model(self):
        # score = bcos
        idx = FEATURE_NAMES.index("BCos")
        return Ensemble.from_trees(
            0.0, [stump(idx, 0.5, 0.0, 1.0)], FEATURE_NAMES, {}, shrinkage=1.0
        )

    def test_empty(self):
        assert rank(self._model(), "q", []) == []

    def test_score_order(self):
        cands = [("low", make_fv(bcos=0.1)), ("high", make_fv(bcos=0.9))]
        out = rank(self._model(), "q", cands)
        assert [q for q, _ in out] == ["high", "low"]

    def test_clusters_filter_nothing(self):
        # select_rows alone drops variant mates; rank scores what it is given
        cands = [("variant", make_fv(bcos=0.9)), ("other", make_fv(bcos=0.1))]
        clusters = {"q": 0, "variant": 0, "other": 1}
        model = self._model()
        out = rank(model, "q", cands, clusters)
        assert out == rank(model, "q", cands)
        assert [q for q, _ in out] == ["variant", "other"]

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

    def differs(self, i, want, found):
        """The refusal at line i + 1, where save_model writes want (None: the
        file ends) and the file holds found."""
        want, found = ("the end of the file" if ln is None else repr(ln + "\n") for ln in (want, found))
        return re.escape(f"model.txt:{i + 1}: save_model writes {want} here, found {found}")

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
        want, lines[i] = lines[i], "\t".join(parts)
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    def test_node_with_two_parents(self, tmp_path, lines):
        i = self.first(lines, "split")
        parts = lines[i].split("\t")
        parts[4] = parts[5]
        want, lines[i] = lines[i], "\t".join(parts)
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
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
        assert len(self.load(tmp_path, lines).trees) == 0
        lines[i] = f"{key}\tnan"
        with pytest.raises(ValueError, match=rf"model.txt:{i + 1}: non-finite float 'nan'"):
            self.load(tmp_path, lines)

    def test_tree_index_out_of_order(self, tmp_path, lines):
        # save_model numbers the trees 0, 1, 2, ..., so a load and save would renumber
        i = [j for j, ln in enumerate(lines) if ln.startswith("tree\t")][1]
        want, lines[i] = lines[i], lines[i].replace("tree\t1\t", "tree\t9\t")
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    def test_node_index_out_of_order(self, tmp_path, lines):
        i = self.first(lines, "split")
        assert lines[i].startswith("0\tsplit\t")
        want, lines[i] = lines[i], "7" + lines[i][1:]
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    def test_leaf_fields_past_the_value(self, tmp_path, lines):
        i = self.first(lines, "leaf")
        want, lines[i] = lines[i], "\t".join(lines[i].split("\t")[:3] + ["x", "y", "z"])
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    def test_node_no_split_reaches(self, tmp_path):
        # The root is a leaf, so no row reaches nodes 1 and 2.
        lines = [
            "n_trees\t1", "shrinkage\t0.5", "base\t0.0", "features\tf0", "tree\t0\t0.5\t3",
            "0\tleaf\t1.0\t-\t-\t-", "1\tleaf\t2.0\t-\t-\t-", "2\tleaf\t3.0\t-\t-\t-",
            "importance", "f0\t0.0",
        ]
        # The root closes the tree, so line 7 must start the importance section.
        with pytest.raises(ValueError, match=r"model.txt:7: expected 'importance', found '1'"):
            self.load(tmp_path, lines)

    @pytest.mark.parametrize("edit", ["not_preorder", "+1", "-1", "0", "abc"])
    def test_tree_shape_differs(self, tmp_path, lines, edit):
        # A tree's node count and child indices follow from its preorder node
        # kinds, so they are refused where they differ from save_model's.
        if edit == "not_preorder":  # parents precede children; the root's left child is node 2
            lines = [
                "n_trees\t1", "shrinkage\t0.5", "base\t0.0", "features\tf0", "tree\t0\t0.5\t5",
                "0\tsplit\t0\t0.5\t2\t1", "1\tsplit\t0\t0.25\t3\t4", "2\tleaf\t1.0\t-\t-\t-",
                "3\tleaf\t2.0\t-\t-\t-", "4\tleaf\t3.0\t-\t-\t-", "importance", "f0\t100.0",
            ]
            i, want = 5, "0\tsplit\t0\t0.5\t1\t4"
        else:  # the first tree's node count
            i, want = 4, lines[4]
            head, count = want.rsplit("\t", 1)
            count = {"+1": str(int(count) + 1), "-1": str(int(count) - 1)}.get(edit, edit)
            lines[i] = f"{head}\t{count}"
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    @pytest.mark.parametrize("tree", [0, 1])
    def test_node_line_lost(self, tmp_path, lines, tree):
        # Node 2's line is read as node 1's; without the index check node 1
        # would parse and the fault would be named a line later.
        i = [j for j, ln in enumerate(lines) if ln.startswith("1\t")][tree]
        del lines[i]
        assert lines[i].startswith("2\t")
        with pytest.raises(ValueError, match=self.differs(i, "1" + lines[i][1:], lines[i])):
            self.load(tmp_path, lines)

    def test_tree_count_differs_from_header(self, tmp_path, lines):
        # "shrinkage\t0.10" spells the same float as save_model's 0.1: the
        # n_trees line is refused first whether or not that line differs too.
        assert lines[1] == "shrinkage\t0.1"
        for shrinkage in ("shrinkage\t0.1", "shrinkage\t0.10"):
            lines[:2] = ["n_trees\t4", shrinkage]
            with pytest.raises(ValueError, match=self.differs(0, "n_trees\t3", "n_trees\t4")):
                self.load(tmp_path, lines)

    def test_missing_importance_section(self, tmp_path, lines):
        lines = lines[: lines.index("importance")]
        with pytest.raises(ValueError, match=self.differs(len(lines), "importance", None)):
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
        i = lines.index("importance") + 1
        lines.insert(i, "zzz\t1.0")
        with pytest.raises(ValueError, match=self.differs(i, lines[i + 1], "zzz\t1.0")):
            self.load(tmp_path, lines)

    def test_repeated_feature_name_loads_and_resaves(self, tmp_path):
        # fit writes a repeated name, and an importance line for each copy
        X, y = random_problem(np.random.default_rng(11), d=3)
        model = fit(X, y, TrainConfig(n_trees=3, max_depth=2), feature_names=["a", "b", "a"])
        save_model(model, str(tmp_path / "good.txt"))
        lines = (tmp_path / "good.txt").read_text().splitlines()
        assert lines[3] == "features\ta\tb\ta" and lines[-1].startswith("a\t")
        save_model(self.load(tmp_path, lines), str(tmp_path / "again.txt"))
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "good.txt").read_bytes()
        # importance lines that disagree with the header are refused at their line
        i = len(lines) - 1
        with pytest.raises(ValueError, match=self.differs(i, lines[i], lines[i - 1])):
            self.load(tmp_path, [*lines[:i], lines[i - 1]])  # b's line for the second a
        with pytest.raises(ValueError, match=self.differs(i, lines[i], None)):
            self.load(tmp_path, lines[:i])  # the second a's line dropped

    @pytest.mark.parametrize(
        "edit", ["repeated_importance", "dropped_importance", "swapped_importance", "blank_line"]
    )
    def test_lines_save_model_would_not_write(self, tmp_path, lines, edit):
        # each used to load, and a save then wrote another file
        i = lines.index("importance") + 2  # the second importance line
        if edit == "blank_line":  # in the header, a tree, the importance lines and at the end
            for j in (1, self.first(lines, "leaf"), i, len(lines)):
                with pytest.raises(ValueError, match=rf"model.txt:{j + 1}: expected "):
                    self.load(tmp_path, [*lines[:j], "", *lines[j:]])
            return
        want = lines[i]
        if edit == "repeated_importance":
            lines.insert(i, lines[i - 1])
        elif edit == "dropped_importance":
            want = want.split("\t")[0] + "\t0.0"  # save_model's line for a feature without one
            del lines[i]
        else:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        with pytest.raises(ValueError, match=self.differs(i, want, lines[i])):
            self.load(tmp_path, lines)

    def test_line_endings_save_model_never_writes(self, tmp_path, lines):
        # read_lines reads each of them as the same lines
        path = tmp_path / "model.txt"
        text = "\n".join(lines) + "\n"
        last = len(lines) - 1
        for bad, i, found in [
            (text.replace("\n", "\r\n"), 0, lines[0] + "\r\n"),
            (text.replace(lines[1] + "\n", lines[1] + "\r", 1), 1, lines[1] + "\r"),
            (text[:-1], last, lines[last]),
        ]:
            path.write_bytes(bad.encode())
            reason = "save_model writes %r here, found %r" % (lines[i] + "\n", found)
            with pytest.raises(ValueError, match=re.escape(f"model.txt:{i + 1}: {reason}")):
                load_model(str(path))

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

    @pytest.mark.parametrize(
        "i, line", [(0, "n_trees\t+0"), (1, "shrinkage\t0.50"), (2, "base\t1e0"), (5, "f0\t0")]
    )
    def test_cli_rank_refuses_numbers_save_model_writes_otherwise(self, tmp_path, capsys, i, line):
        # each loads to the value of the original line, so a load and save
        # would rewrite the number and change the file
        from clickrec import cli

        lines = [
            "n_trees\t0", "shrinkage\t0.5", "base\t1.0", "features\tf0", "importance", "f0\t0.0"
        ]
        assert len(self.load(tmp_path, lines).trees) == 0
        want, lines[i] = lines[i], line
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(
            ["--out", str(tmp_path), "rank", "--model", str(path), "--features", "x", "--q1", "q"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert re.match(f"error: {re.escape(str(tmp_path))}/{self.differs(i, want, line)}", err), err

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
