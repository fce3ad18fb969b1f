"""Reference two-fold cross-validation for equivalence tests.

This is the ``run_crossval`` that ``clickrec.pipeline`` used before each
fold's rows were built in the process that fits them.  It takes a whole
``Dataset``, built in one process by ``build_dataset``, builds both fold
matrices from its rows and fits fold 0, then fold 1, in this process.  It is
the specification the forked ``run_crossval`` must match: the same report
lines, and the same error type and message.
"""

from __future__ import annotations

import numpy as np

from clickrec import evaluation as ev
from clickrec import gbdt
from clickrec.features import FEATURE_NAMES
from clickrec.pipeline import ALL_METHODS, COMBO_METHODS, SINGLE_METHODS
from clickrec.pipeline import CrossvalReport, Dataset, fold_of
from clickrec.taxonomy import grade


def run_crossval(dataset: Dataset, cfg: gbdt.TrainConfig) -> CrossvalReport:
    """Two-fold CV: train on one fold, rank candidate rows of the other.

    Besides the learned model, the single-signal rankings and unweighted
    sums of min-max-normalized signals are evaluated on the same folds.
    Each method is one score per test candidate; a query's candidates are
    ranked by (-score, q2).
    """
    for f in (0, 1):
        if not any(fold_of(r.q1) == f for r in dataset.rows):
            raise ValueError(f"fold {f} is empty")

    rankings: dict[str, list[list[float]]] = {m: [] for m in ALL_METHODS}
    raw_importance = {n: 0.0 for n in FEATURE_NAMES}

    folds = []
    for train_fold in (0, 1):
        train_rows = [r for r in dataset.rows if fold_of(r.q1) == train_fold]
        X = np.array([r.fv.values() for r in train_rows])
        y = np.array([r.fv.sim for r in train_rows])
        folds.append((X, y))
    models = [gbdt.fit(X, y, cfg, feature_names=FEATURE_NAMES) for X, y in folds]

    for train_fold, model in enumerate(models):
        for name, val in model.importance.items():
            raw_importance[name] += val

        test_cand = [r for r in dataset.rows if r.kinds and fold_of(r.q1) != train_fold]
        X_cand = np.array([r.fv.values() for r in test_cand]).reshape(-1, len(FEATURE_NAMES))
        scores = {"GBDT": gbdt.predict(model, X_cand)}
        normed = {}
        for p in SINGLE_METHODS:
            col = X_cand[:, FEATURE_NAMES.index(p)]
            scores[p] = col
            lo, hi = (col.min(), col.max()) if len(col) else (0.0, 0.0)
            normed[p] = (col - lo) / (hi - lo) if hi > lo else np.zeros(len(col))
        for m in COMBO_METHODS:
            scores[m] = sum((normed[p] for p in m.split("+")), np.zeros(len(test_cand)))
        scores = {m: col.tolist() for m, col in scores.items()}
        grades = [grade(r.fv.sim)[1] for r in test_cand]

        by_q1: dict[str, list[int]] = {}
        for i, r in enumerate(test_cand):
            by_q1.setdefault(r.q1, []).append(i)
        for q1 in sorted(by_q1):
            for m in ALL_METHODS:
                score = scores[m]
                order = sorted(by_q1[q1], key=lambda i: (-score[i], test_cand[i].q2))
                rankings[m].append([grades[i] for i in order])

    ndcg = {m: [ev.ndcg5(r) for r in rankings[m]] for m in ALL_METHODS}
    metrics = {
        m: (sum(ndcg[m]) / len(ndcg[m]), ev.mean_average_precision(rankings[m]))
        for m in ALL_METHODS
    }
    wilcoxon: dict[str, tuple[float, float] | None] = {}
    for m in SINGLE_METHODS:
        try:
            wilcoxon[m] = ev.wilcoxon_signed_rank(ndcg["GBDT"], ndcg[m])
        except ValueError:
            wilcoxon[m] = None

    return CrossvalReport(
        metrics=metrics,
        wilcoxon=wilcoxon,
        importance=gbdt.percent_of_peak(raw_importance),
        curves={m: ev.precision_recall_curve(rankings[m]) for m in ALL_METHODS},
        n_queries=len(rankings["GBDT"]),
        # With only zero grades, every method's ranking scores 0.
        n_degenerate=sum(not any(r) for r in rankings["GBDT"]),
    )
