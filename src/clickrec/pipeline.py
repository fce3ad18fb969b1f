"""End-to-end orchestration: dataset assembly, two-fold CV, report output."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import random
import signal
import zlib
from collections import Counter
from collections.abc import Callable
from typing import NamedTuple, NoReturn, TypeVar

import numpy as np

from . import candidates as cand
from . import evaluation as ev
from . import gbdt
from .candidates import CandidatePair, build_session_stats
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


@nogc
def generate_candidates(
    stats: ClickStats, sessions: list[Session], lex: frozenset[str]
) -> list[CandidatePair]:
    """Candidate pairs for every logged query, in deterministic order."""
    st = build_session_stats(sessions)
    postings = cand.url_postings(stats)
    out: list[CandidatePair] = []
    for q1 in stats.queries:
        out.extend(cand.generate_all(q1, stats, st, lex, postings))
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

    pairs must be generate_candidates(stats, sessions, lex): a row's P_cc,
    P_ct and P_cs are the strengths its pairs carry, 0 for a kind it lacks.
    _select_rows chooses the rows and their order, and raises ValueError when
    too few pairs are free for the negatives; _row_builder's step builds each
    row.
    """
    keys = _select_rows(pairs, stats, assignments, clusters, neg_ratio, seed)
    build_row = _row_builder(stats, sessions, lex, assignments)
    return Dataset([build_row(*key) for key in keys])


class FeatureMatrix(NamedTuple):
    """The feature matrix file: lines, each with a newline, then tail."""

    rows: int  # the rows below the header
    lines: list[str]  # the header, then the first rows' lines
    tail: bytes  # the UTF-8 text of the other rows' lines, each ended by "\n"


def feature_matrix(
    pairs: list[CandidatePair],
    stats: ClickStats,
    sessions: list[Session],
    lex: frozenset[str],
    assignments: dict[str, CategoryAssignment],
    clusters: dict[str, int],
    neg_ratio: float = 1.0,
    seed: int = 0,
) -> FeatureMatrix:
    """feature_matrix_lines of build_dataset's rows, for the same arguments.

    Once the rows are selected, a forked child builds and formats the second
    half of them while this process does the first (_fork_halves), and sends
    back only the text of its lines, so its rows never exist here as objects.
    """
    keys = _select_rows(pairs, stats, assignments, clusters, neg_ratio, seed)
    build_row = _row_builder(stats, sessions, lex, assignments)
    h = len(keys) // 2

    def matrix_rows(part):
        for key in part:
            r = build_row(*key)
            yield r.q1, r.q2, "+".join(sorted(r.kinds)) or "-", r.fv

    def child_text() -> bytes:
        lines = matrix_row_lines(matrix_rows(keys[h:]))
        return "".join([line + "\n" for line in lines]).encode("utf-8")

    head, tail = _fork_halves(lambda: feature_matrix_lines(matrix_rows(keys[:h])), child_text)
    return FeatureMatrix(len(keys), head, tail)


def _select_rows(
    pairs: list[CandidatePair],
    stats: ClickStats,
    assignments: dict[str, CategoryAssignment],
    clusters: dict[str, int],
    neg_ratio: float,
    seed: int,
) -> list[tuple[str, str, dict[str, float]]]:
    """The (q1, q2, strengths) key of each dataset row, in row order.

    Candidate pairs come first, grouped as {(q1, q2): {kind: strength}} in
    sorted order, then random negatives with empty strengths.  A pair is
    dropped when either query lacks a voted category or when q2 is a trivial
    variant of q1.  Negatives are drawn uniformly from categorized queries,
    excluding self pairs, existing pairs and variant mates.  Raises
    ValueError when neg_ratio x the candidate rows exceeds the free pairs
    left to draw.
    """
    if not (math.isfinite(neg_ratio) and neg_ratio >= 0):
        raise ValueError("neg_ratio must be a finite number >= 0")

    def categorized(q: str) -> bool:
        a = assignments.get(q)
        return a is not None and bool(a.votes)

    keys: list[tuple[str, str, dict[str, float]]] = []
    taken: set[tuple[str, str]] = set()

    def add_row(q1: str, q2: str, strengths: dict[str, float]) -> None:
        """Add the (q1, q2) row unless a filter drops it."""
        if q1 == q2 or (q1, q2) in taken or not (categorized(q1) and categorized(q2)):
            return
        if clusters.get(q1) is not None and clusters.get(q1) == clusters.get(q2):
            return
        keys.append((q1, q2, strengths))
        taken.add((q1, q2))

    grouped: dict[tuple[str, str], dict[str, float]] = {}
    for p in pairs:
        grouped.setdefault((p.q1, p.q2), {})[p.kind] = p.strength
    for (q1, q2), strengths in sorted(grouped.items()):
        add_row(q1, q2, strengths)
    n_candidates = len(keys)

    pool = sorted(q for q in stats.cnt_q if categorized(q))
    wanted = neg_ratio * n_candidates
    # The ordered pairs add_row accepts: distinct pool queries that are
    # neither a candidate row nor variant mates.  No candidate row is a
    # mate, so no pair is subtracted twice.
    in_pool = set(pool)
    free = len(pool) * (len(pool) - 1)
    free -= sum(q1 in in_pool and q2 in in_pool for q1, q2 in taken)
    sizes = Counter(clusters[q] for q in pool if clusters.get(q) is not None)
    free -= sum(c * (c - 1) for c in sizes.values())
    if wanted > free:
        raise ValueError(
            f"could not draw {neg_ratio:g} x {n_candidates} negative pairs "
            f"from {free} free pairs; too few categorized queries"
        )
    n_neg = math.ceil(wanted)
    rng = random.Random(seed)
    while len(keys) < n_candidates + n_neg:
        add_row(rng.choice(pool), rng.choice(pool), {})
    return keys


def _row_builder(
    stats: ClickStats,
    sessions: list[Session],
    lex: frozenset[str],
    assignments: dict[str, CategoryAssignment],
) -> Callable[[str, str, dict[str, float]], DatasetRow]:
    """The per-row step: (q1, q2, strengths) -> its DatasetRow.

    The target is the pair's true computed category similarity.  One
    FeatureContext serves every row, and rows with equal kinds share one
    frozenset.
    """
    ctx = FeatureContext(stats, build_session_stats(sessions), lex)
    kind_sets: dict[frozenset[str], frozenset[str]] = {}

    def build_row(q1: str, q2: str, strengths: dict[str, float]) -> DatasetRow:
        fv = build_features(q1, q2, ctx, strengths, sim=query_similarity(q1, q2, assignments))
        kinds = frozenset(strengths)
        return DatasetRow(q1, q2, kind_sets.setdefault(kinds, kinds), fv)

    return build_row


def _fit_folds(
    folds: list[tuple[np.ndarray, np.ndarray]], cfg: gbdt.TrainConfig
) -> list[gbdt.Ensemble]:
    """gbdt.fit on each fold's (X, y), fold 1 in a forked child meanwhile.

    A fit holds the GIL, so only a second process overlaps the two.  The
    models and errors are those of fitting fold 0, then fold 1, here.
    """
    (X0, y0), (X1, y1) = folds
    model0, data = _fork_halves(
        lambda: gbdt.fit(X0, y0, cfg, feature_names=FEATURE_NAMES),
        lambda: pickle.dumps(
            gbdt.fit(X1, y1, cfg, feature_names=FEATURE_NAMES), pickle.HIGHEST_PROTOCOL
        ),
    )
    return [model0, pickle.loads(data)]


_T = TypeVar("_T")
_SENT, _RAISED = b"s", b"r"  # the first byte a _child writes


def _fork_halves(here: Callable[[], _T], there: Callable[[], bytes]) -> tuple[_T, bytes]:
    """(here(), there()), with there() run in a forked child meanwhile.

    The child sends there()'s bytes, or the exception it raised, pickled,
    back through a pipe.  Errors are those of calling here(), then there(),
    in one process: here()'s first (the child is killed), then there()'s
    with its type and message; a child that exits another way raises
    ChildProcessError.  The child is reaped on every path.  Where os.fork is
    missing or fails, there() runs here after here().
    """
    pid = -1
    if hasattr(os, "fork"):
        others = _other_cpus()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        return here(), there()
    if pid == 0:
        _child(there, read_fd, write_fd, others)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            mine = here()
            # Read to EOF before waitpid: what the child sends can outgrow
            # the pipe buffer, so the child cannot exit until it is read.
            raised = pipe.read(1) == _RAISED
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildProcessError(f"the forked child process exited with status {code}")
    if raised:
        raise pickle.loads(data)
    return mine, data


def _other_cpus() -> set[int]:
    """The CPUs this process may use besides the one it runs on now.

    Empty where Linux's /proc/thread-self or sched_getaffinity is missing.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # Field 39, "processor"; the fields after the name start at 3.
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, IndexError, ValueError):
        return set()


def _child(
    there: Callable[[], bytes], read_fd: int, write_fd: int, others: set[int]
) -> NoReturn:
    """Write _SENT and there(), or _RAISED and its pickled exception, to write_fd; exit.

    It first moves to one of ``others``, the CPUs besides the parent's.
    It leaves only through os._exit, so it never returns into the caller's
    stack, runs no atexit handler and flushes no inherited buffer.
    """
    status = 1
    try:
        os.close(read_fd)
        gc.disable()  # one task, then exit: nothing to collect
        if others:
            # Fork can start the child on the parent's CPU, and the balancer
            # can leave both processes there for half a task while a CPU idles.
            # Move off once, then let the scheduler place the child freely.
            with contextlib.suppress(OSError):
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, others)
                os.sched_setaffinity(0, allowed)
        try:
            tag, data = _SENT, there()
        except Exception as exc:
            tag, data = _RAISED, pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(tag)
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


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

    for train_fold, model in enumerate(_fit_folds(folds, cfg)):
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
