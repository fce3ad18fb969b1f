import itertools
import math
import random

import pytest

from clickrec.evaluation import (
    average_precision,
    dcg_at,
    mean_average_precision,
    ndcg5,
    precision_recall_curve,
    wilcoxon_signed_rank,
)

GRADES = [0.0, 0.5, 3.0, 7.0, 10.0]


def ranking(grades):
    """A ranking is its grade scores in ranked order."""
    return list(grades)


def relevance(grades):
    return [int(g >= 7.0) for g in grades]


# ---------------------------------------------------------------------------
# Brute-force re-implementations used as oracles.
# ---------------------------------------------------------------------------

def oracle_dcg(grades, R):
    total = 0.0
    for r, g in enumerate(grades[:R], 1):
        total += g if r == 1 else g / math.log2(r)
    return total


def oracle_ndcg5(grades):
    ideal = sorted(grades, reverse=True)
    denom = oracle_dcg(ideal, 5)
    return oracle_dcg(grades, 5) / denom if denom else 0.0


def oracle_ap(rels):
    num = 0.0
    hits = 0
    for j, r in enumerate(rels, 1):
        if r:
            hits += 1
            num += sum(rels[:j]) / j
    return num / hits if hits else 0.0


def oracle_interp(rels, levels):
    n_rel = sum(rels)
    pts = []
    hits = 0
    for j, r in enumerate(rels, 1):
        hits += r
        pts.append((hits / n_rel, hits / j))
    return [max((p for rc, p in pts if rc >= lv), default=0.0) for lv in levels]


class TestDCG:
    def test_no_discount_at_rank_one(self):
        assert dcg_at(ranking([10.0]), 5) == 10.0

    def test_rank_two_log_is_one(self):
        assert dcg_at(ranking([10.0, 10.0]), 2) == 20.0

    def test_all_zero(self):
        assert dcg_at(ranking([0.0, 0.0, 0.0]), 5) == 0.0

    def test_empty(self):
        assert dcg_at(ranking([]), 5) == 0.0

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            dcg_at(ranking([10.0]), 0)

    def test_grade_doubling_doubles_dcg(self):
        rng = random.Random(67)
        for _ in range(100):
            g = [rng.choice(GRADES) for _ in range(rng.randint(1, 10))]
            assert abs(dcg_at(ranking([2 * x for x in g]), 5) - 2 * dcg_at(ranking(g), 5)) < 1e-12


class TestNDCG5:
    def test_ideal_is_one(self):
        assert ndcg5(ranking([10.0, 7.0, 3.0, 0.5, 0.0])) == 1.0

    def test_relevant_item_beyond_cutoff(self):
        assert ndcg5(ranking([0.0] * 5 + [10.0])) == 0.0

    def test_all_zero_is_degenerate_zero(self):
        assert ndcg5(ranking([0.0, 0.0])) == 0.0

    def test_never_exceeds_one(self):
        for perm in itertools.permutations([10.0, 7.0, 0.5, 0.0, 3.0, 7.0], 6):
            assert ndcg5(ranking(list(perm))) <= 1.0 + 1e-12

    def test_normalization_invariant_to_grade_scaling(self):
        g = [3.0, 10.0, 0.0, 7.0]
        assert abs(ndcg5(ranking(g)) - ndcg5(ranking([2 * x for x in g]))) < 1e-12


class TestAP:
    def test_all_relevant(self):
        assert average_precision(ranking([10.0, 7.0])) == 1.0

    def test_pattern_one_zero_one(self):
        assert abs(average_precision(ranking([10.0, 0.0, 7.0])) - 5 / 6) < 1e-12

    def test_pattern_zero_one(self):
        assert average_precision(ranking([0.0, 10.0])) == 0.5

    def test_zero_relevant_flagged_zero(self):
        assert average_precision(ranking([3.0, 0.5])) == 0.0

    def test_one_iff_relevant_precede_nonrelevant(self):
        rng = random.Random(71)
        for _ in range(300):
            g = [rng.choice(GRADES) for _ in range(rng.randint(1, 8))]
            r = ranking(g)
            rels = relevance(g)
            if sum(rels) == 0:
                continue
            perfect = all(x >= y for x, y in zip(rels, rels[1:]))
            assert (average_precision(r) == 1.0) == perfect


class TestMAP:
    def test_mean(self):
        rs = [ranking([10.0]), ranking([0.0, 10.0])]
        assert mean_average_precision(rs) == 0.75

    def test_single(self):
        r = ranking([0.0, 10.0])
        assert mean_average_precision([r]) == average_precision(r)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mean_average_precision([])

    def test_matches_oracle_mean(self):
        rng = random.Random(73)
        rs = [
            ranking([rng.choice(GRADES) for _ in range(rng.randint(1, 10))])
            for _ in range(100)
        ]
        expected = sum(
            oracle_ap(relevance(r)) for r in rs
        ) / len(rs)
        assert abs(mean_average_precision(rs) - expected) < 1e-12


class TestRandomizedMetricOracles:
    def test_thousand_random_rankings(self):
        rng = random.Random(79)
        for _ in range(1000):
            g = [rng.choice(GRADES) for _ in range(rng.randint(1, 10))]
            r = ranking(g)
            rels = relevance(g)
            assert abs(dcg_at(r, 5) - oracle_dcg(g, 5)) < 1e-12
            assert abs(ndcg5(r) - oracle_ndcg5(g)) < 1e-12
            assert abs(average_precision(r) - oracle_ap(rels)) < 1e-12


class TestPRCurve:
    def test_perfect_ranking_all_one(self):
        curve = precision_recall_curve([ranking([10.0, 7.0])])
        assert all(p == 1.0 for _, p in curve)

    def test_monotone_non_increasing(self):
        rng = random.Random(83)
        for _ in range(50):
            rs = [
                ranking([rng.choice(GRADES) for _ in range(rng.randint(1, 10))])
                for _ in range(5)
            ]
            curve = precision_recall_curve(rs)
            precisions = [p for _, p in curve]
            assert all(a >= b - 1e-12 for a, b in zip(precisions, precisions[1:]))

    def test_matches_interpolation_oracle(self):
        rng = random.Random(89)
        levels = [k / 10 for k in range(11)]
        for _ in range(200):
            g = [rng.choice(GRADES) for _ in range(rng.randint(1, 10))]
            r = ranking(g)
            rels = relevance(g)
            if sum(rels) == 0:
                continue
            got = precision_recall_curve([r])
            want = oracle_interp(rels, levels)
            for (_, p), w in zip(got, want):
                assert abs(p - w) < 1e-12

    @pytest.mark.parametrize("rankings", [[], [[0.0, 3.0], [0.5]]])
    def test_no_relevant_item_all_zero(self, rankings):
        assert precision_recall_curve(rankings) == [(k / 10, 0.0) for k in range(11)]

    def test_query_without_relevant_item_skipped(self):
        # Skipped, not averaged in as a row of zeros.
        rng = random.Random(101)
        for _ in range(50):
            rs = [ranking([rng.choice(GRADES) for _ in range(rng.randint(1, 10))]) for _ in range(4)]
            rs.append(ranking([10.0]))  # at least one query with a relevant item
            with_irrelevant = rs + [ranking([0.0, 3.0, 0.5])]
            assert precision_recall_curve(with_irrelevant) == precision_recall_curve(rs)


class TestWilcoxon:
    def test_identical_samples_error(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0] * 10, [1.0] * 10)

    def test_unequal_lengths_error(self):
        with pytest.raises(ValueError, match="paired samples must have equal length"):
            wilcoxon_signed_rank([1.0] * 10, [0.0] * 9)

    def test_n6_all_positive_exact(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0] * 6
        stat, p = wilcoxon_signed_rank(a, b)
        assert stat == 0.0
        assert abs(p - 0.03125) < 1e-12

    def test_exact_matches_enumeration(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(6, 10)
            diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * 1.0 for _ in range(n)]
            a = diffs
            b = [0.0] * n
            stat, p = wilcoxon_signed_rank(a, b)
            # enumerate all sign assignments directly
            order = sorted(range(n), key=lambda i: abs(diffs[i]))
            ranks = [0.0] * n
            i = 0
            while i < n:
                j = i
                while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
                    j += 1
                for k in range(i, j + 1):
                    ranks[order[k]] = (i + j) / 2 + 1
                i = j + 1
            w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
            total = sum(ranks)
            lo, hi = min(w_plus, total - w_plus), max(w_plus, total - w_plus)
            count = 0
            for signs in itertools.product([0, 1], repeat=n):
                s = sum(r for sg, r in zip(signs, ranks) if sg)
                if s <= lo + 1e-9 or s >= hi - 1e-9:
                    count += 1
            assert abs(p - min(1.0, count / 2**n)) < 1e-12

    def test_shift_invariance(self):
        rng = random.Random(101)
        a = [rng.random() for _ in range(12)]
        b = [rng.random() for _ in range(12)]
        s1 = wilcoxon_signed_rank(a, b)
        s2 = wilcoxon_signed_rank([x + 5 for x in a], [x + 5 for x in b])
        assert s1 == s2

    def test_large_sample_normal_path(self):
        rng = random.Random(103)
        a = [rng.random() + 0.5 for _ in range(40)]
        b = [rng.random() for _ in range(40)]
        stat, p = wilcoxon_signed_rank(a, b)
        assert 0.0 <= p <= 1.0
        assert p < 0.01  # strong planted shift

    def test_normal_approximation_at_the_mean(self):
        # W+ equals mu = 27 * 28 / 4 = 189, where the continuity correction
        # alone would give a negative z and a p above 1.
        positive = {1, 20, 21, 22, 23, 24, 25, 26, 27}
        a = [float(i if i in positive else -i) for i in range(1, 28)]
        b = [0.0] * 27
        assert wilcoxon_signed_rank(a, b) == (189.0, 1.0)
        try:
            from scipy import stats
        except ImportError:
            return
        ref = stats.wilcoxon(a, b, zero_method="wilcox", method="approx", correction=True)
        assert (ref.statistic, ref.pvalue) == (189.0, 1.0)

    def test_normal_approximation_with_ties(self):
        # 30 differences in four tie groups of |d| (sizes 8, 8, 7 and 7).
        # scipy 1.17.1's wilcoxon(method="approx", correction=True) gives the
        # same statistic and p up to the last bit (0.13300187448654732);
        # without the tie term p would be 0.1359.
        a = [float((i % 4 + 1) * (1 if i % 3 else -1)) for i in range(30)]
        b = [0.0] * 30
        assert wilcoxon_signed_rank(a, b) == (159.5, 0.1330018744865473)

    def test_too_few_differences(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])

    def test_exact_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(107)
        for _ in range(80):
            # 6 to 25 tie-free nonzero differences, plus a few zero ones
            n, zeros = rng.randint(6, 25), rng.randint(0, 3)
            a = [rng.gauss(0.0, 1.0) for _ in range(n + zeros)]
            b = [rng.gauss(0.0, 1.0) for _ in range(n)] + a[n:]
            ref = stats.wilcoxon(a, b, zero_method="wilcox", method="exact")
            stat, p = wilcoxon_signed_rank(a, b)
            assert stat == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_normal_approximation_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(109)
        checked = 0
        while checked < 80:
            # small integers: many tied and zero differences
            n = rng.randint(30, 90)
            a = [float(rng.randint(0, 5)) for _ in range(n)]
            b = [float(rng.randint(0, 5)) for _ in range(n)]
            if sum(x != y for x, y in zip(a, b)) <= 25:
                continue
            ref = stats.wilcoxon(a, b, zero_method="wilcox", method="approx", correction=True)
            stat, p = wilcoxon_signed_rank(a, b)
            assert stat == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=1e-9)
            checked += 1
