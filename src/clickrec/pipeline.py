"""End-to-end orchestration: dataset assembly, two-fold CV, report output."""

from __future__ import annotations

import math
import random
import zlib
from collections import Counter
from collections.abc import Callable
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import candidates as cand
from . import evaluation as ev
from . import gbdt, procs
from .candidates import CandidatePair, SessionStats, build_session_stats
from .features import FEATURE_NAMES, FeatureContext, FeatureVector, build_features
from .features import feature_matrix_lines, matrix_row_lines
from .logs import ClickStats, Session, nogc
from .taxonomy import CategoryAssignment, grade, query_similarity

SINGLE_METHODS = ["P_cc", "P_ct", "P_cs"]
COMBO_METHODS = ["P_cc+P_ct", "P_cc+P_cs", "P_ct+P_cs", "P_cc+P_ct+P_cs"]
ALL_METHODS = SINGLE_METHODS + COMBO_METHODS + ["GBDT"]


class DatasetRow(NamedTuple):
    q1: str
    q2: str
    kinds: frozenset[str]  # empty for random negative pairs
    fv: FeatureVector  # fv.sim is the target


class Dataset(NamedTuple):
    rows: list[DatasetRow]  # every pair of a q1 is in fold fold_of(q1)


RowKey = tuple[str, str, dict[str, float]]  # (q1, q2, strengths), as select_rows gives
RowStep = Callable[[str, str, dict[str, float]], FeatureVector]  # as row_builder gives


class CrossvalReport(NamedTuple):
    metrics: dict[str, tuple[float, float]]  # method -> (NDCG5, MAP)
    wilcoxon: dict[str, tuple[float, float] | None]  # vs-method -> (stat, p)
    importance: dict[str, float]
    curves: dict[str, list[tuple[float, float]]]
    n_queries: int
    n_degenerate: int

    def lines(self) -> list[str]:
        out = ["method\tNDCG5\tMAP"]
        for m in ALL_METHODS:
            n, a = self.metrics[m]
            out.append(f"{m}\t{n:.6f}\t{a:.6f}")
        out.append(f"queries\t{self.n_queries}\tdegenerate\t{self.n_degenerate}")
        for m in SINGLE_METHODS:
            w = self.wilcoxon[m]
            if w is None:
                out.append(f"wilcoxon\tGBDT_vs_{m}\t-\t-")
            else:
                out.append(f"wilcoxon\tGBDT_vs_{m}\t{w[0]:.6g}\t{w[1]:.6g}")
        for name, val in self.importance.items():
            out.append(f"importance\t{name}\t{val:.4f}")
        for m in ALL_METHODS:
            for r, p in self.curves[m]:
                out.append(f"curve\t{m}\t{r:.6f}\t{p:.6f}")
        return out


def fold_of(q1: str) -> int:
    return zlib.crc32(q1.encode("utf-8")) & 1


def generate_candidates(
    stats: ClickStats, sessions: list[Session], lex: frozenset[str]
) -> list[CandidatePair]:
    """candidate_pairs over the SessionStats of sessions."""
    return candidate_pairs(stats, build_session_stats(sessions), lex)


@nogc
def candidate_pairs(stats: ClickStats, st: SessionStats, lex: frozenset[str]) -> list[CandidatePair]:
    """Candidate pairs for every logged query, in deterministic order."""
    postings = cand.url_postings(stats)
    out: list[CandidatePair] = []
    for q1 in stats.queries:
        out.extend(cand.generate_all(q1, stats, st, lex, postings))
    return out


@nogc
def candidate_rows(stats: ClickStats, st: SessionStats, lex: frozenset[str]) -> list[RowKey]:
    """Every logged query's (q1, q2, strengths) rows in (q1, q2) order: the
    pairs of candidate_pairs grouped by (q1, q2), kinds in KINDS order."""
    postings = cand.url_postings(stats)
    out: list[RowKey] = []
    for q1 in stats.queries:
        merged: dict[str, dict[str, float]] = {}
        for kind, by_q2 in zip(cand.KINDS, cand.strengths(q1, stats, st, lex, postings)):
            for q2, s in by_q2.items():
                merged.setdefault(q2, {})[kind] = s
        out.extend((q1, q2, merged[q2]) for q2 in sorted(merged))
    return out


def build_dataset(
    pairs: list[CandidatePair],
    stats: ClickStats,
    sessions: list[Session],
    lex: frozenset[str],
    assignments: dict[str, CategoryAssignment],
    clusters: dict[str, int],
    neg_ratio: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Join candidates into feature rows and add random negative pairs.

    select_rows picks the rows from candidate_rows, so a row's P_cc, P_ct and
    P_cs are its strengths, 0 for a kind it lacks; it raises ValueError when
    too few pairs are free for the negatives.  row_builder's step builds every
    row in this process.  pairs is unread: the benchmark's serve set-up
    passes generate_candidates' pairs.
    """
    st = build_session_stats(sessions)
    keys = select_rows(candidate_rows(stats, st, lex), stats, assignments, clusters, neg_ratio, seed)
    build_row = row_builder(stats, st, lex, assignments)
    return Dataset([DatasetRow(q1, q2, frozenset(s), build_row(q1, q2, s)) for q1, q2, s in keys])


def feature_matrix(keys: list[RowKey], build_row: RowStep) -> list[str]:
    """feature_matrix_lines of the rows build_row builds for keys, in key order.

    A forked child builds and formats the second half of the rows while
    this process does the first (procs.halves), and sends back only their
    lines, so its rows never exist here as objects.
    """
    h = len(keys) // 2

    def matrix_rows(part):
        for q1, q2, strengths in part:
            yield q1, q2, "+".join(sorted(strengths)) or "-", build_row(q1, q2, strengths)

    head, tail = procs.halves(
        lambda: feature_matrix_lines(matrix_rows(keys[:h])),
        lambda: matrix_row_lines(matrix_rows(keys[h:])),
    )
    return head + tail


def select_rows(
    candidates: list[RowKey],
    stats: ClickStats,
    assignments: dict[str, CategoryAssignment],
    clusters: dict[str, int],
    neg_ratio: float,
    seed: int,
) -> list[RowKey]:
    """The (q1, q2, strengths) key of each dataset row, in row order.

    The candidates, rows in (q1, q2) order as candidate_rows gives them,
    come first in the order given, then random negatives with empty
    strengths, all in one insertion-ordered dict {(q1, q2): strengths}.  One
    filter drops self pairs, pairs already chosen, a q1 or q2 without a
    voted category and variant mates, in that order.  Negatives are drawn
    uniformly from the voted queries in the click counts.  Raises ValueError
    when neg_ratio x the candidate rows exceeds the free pairs left to draw.
    """
    if not (math.isfinite(neg_ratio) and neg_ratio >= 0):
        raise ValueError("neg_ratio must be a finite number >= 0")
    voted = {q for q, a in assignments.items() if a.votes}
    rows: dict[tuple[str, str], dict[str, float]] = {}

    def add_row(q1: str, q2: str, strengths: dict[str, float]) -> None:
        """Add the (q1, q2) row unless a filter drops it."""
        if q1 == q2 or (q1, q2) in rows or q1 not in voted or q2 not in voted:
            return
        if clusters.get(q1) is not None and clusters.get(q1) == clusters.get(q2):
            return
        rows[q1, q2] = strengths

    for q1, q2, strengths in candidates:
        add_row(q1, q2, strengths)
    n_candidates = len(rows)

    in_pool = voted.intersection(stats.cnt_q)
    pool = sorted(in_pool)
    wanted = neg_ratio * n_candidates
    # The ordered pairs add_row accepts: distinct pool queries that are
    # neither a candidate row nor variant mates.  No candidate row is a
    # mate, so no pair is subtracted twice.
    free = len(pool) * (len(pool) - 1)
    free -= sum(q1 in in_pool and q2 in in_pool for q1, q2 in rows)
    sizes = Counter(clusters[q] for q in pool if clusters.get(q) is not None)
    free -= sum(c * (c - 1) for c in sizes.values())
    if wanted > free:
        raise ValueError(
            f"could not draw {neg_ratio:g} x {n_candidates} negative pairs "
            f"from {free} free pairs; too few categorized queries"
        )
    n_neg = math.ceil(wanted)
    rng = random.Random(seed)
    while len(rows) < n_candidates + n_neg:
        add_row(rng.choice(pool), rng.choice(pool), {})
    return [(q1, q2, strengths) for (q1, q2), strengths in rows.items()]


def row_builder(
    stats: ClickStats,
    st: SessionStats,
    lex: frozenset[str],
    assignments: dict[str, CategoryAssignment],
) -> RowStep:
    """The per-row step: (q1, q2, strengths) -> the pair's FeatureVector.

    Its target, sim, is the pair's true computed category similarity.  One
    FeatureContext, built whole here, serves every row and any forked child.
    """
    ctx = FeatureContext(stats, st, lex)

    def build_row(q1: str, q2: str, strengths: dict[str, float]) -> FeatureVector:
        return build_features(q1, q2, ctx, strengths, sim=query_similarity(q1, q2, assignments))

    return build_row


def _min_max(col: np.ndarray) -> np.ndarray:
    """col scaled by its minimum and maximum to [0, 1]; zeros when they are equal."""
    lo, hi = (col.min(), col.max()) if len(col) else (0.0, 0.0)
    return (col - lo) / (hi - lo) if hi > lo else np.zeros(len(col))


def run_crossval(keys: list[RowKey], build_row: RowStep, cfg: gbdt.TrainConfig) -> CrossvalReport:
    """Two-fold CV: train on one fold, rank candidate rows of the other.

    The rows are those build_row builds for keys, and a key's fold is
    fold_of(q1).  Besides the learned model, the single-signal rankings and
    unweighted sums of min-max-normalized signals are evaluated on the same
    folds.  Each method is one score per test candidate, and its rankings
    of a fold are one sort by (q1, -score, q2), split by q1.

    A fit holds the GIL, so only a second process overlaps the two: a forked
    child builds fold 1's rows and fits them while this process does fold 0
    (procs.halves).  The child sends back its model and its candidate rows'
    features and targets, and no row object.  With the child forked, neither
    fold's fit forks a helper of its own (procs.fork_helper).
    """
    folds = [[key for key in keys if fold_of(key[0]) == f] for f in (0, 1)]
    for f, fold in enumerate(folds):
        if not fold:
            raise ValueError(f"fold {f} is empty")

    def fit_fold(fold: list[RowKey]) -> tuple[gbdt.Ensemble, np.ndarray, np.ndarray]:
        """The fold's model, then its candidate rows' features and targets."""
        fvs = [build_row(*key) for key in fold]
        X = np.array([fv.values() for fv in fvs])
        y = np.array([fv.sim for fv in fvs])
        del fvs  # the fit needs only the matrix
        is_candidate = np.array([bool(key[2]) for key in fold])
        model = gbdt.fit(X, y, cfg, feature_names=FEATURE_NAMES)
        return model, X[is_candidate], y[is_candidate]

    fits = procs.halves(lambda: fit_fold(folds[0]), lambda: fit_fold(folds[1]))

    rankings: dict[str, list[list[float]]] = {m: [] for m in ALL_METHODS}
    raw_importance = {n: 0.0 for n in FEATURE_NAMES}
    for (model, _, _), (_, X_cand, y_cand), fold in zip(fits, fits[::-1], folds[::-1]):
        for name, val in model.importance.items():
            raw_importance[name] += val

        test_pairs = [key[:2] for key in fold if key[2]]  # each test candidate's (q1, q2)
        scores = {p: X_cand[:, FEATURE_NAMES.index(p)] for p in SINGLE_METHODS}
        scores["GBDT"] = gbdt.predict(model, X_cand)
        for m in COMBO_METHODS:
            scores[m] = sum((_min_max(scores[p]) for p in m.split("+")), np.zeros(len(test_pairs)))
        grades = [grade(sim)[1] for sim in y_cand.tolist()]
        for m in ALL_METHODS:
            score = scores[m].tolist()
            order = sorted(range(len(test_pairs)), key=lambda i: (test_pairs[i][0], -score[i], test_pairs[i][1]))
            for _, group in groupby(order, key=lambda i: test_pairs[i][0]):
                rankings[m].append([grades[i] for i in group])

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
