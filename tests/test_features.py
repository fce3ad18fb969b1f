import math
import random

import pytest

from clickrec.candidates import build_session_stats, detect_facets, generate_all
from clickrec.features import (
    FEATURE_NAMES,
    FeatureContext,
    bag_cosine,
    build_features,
    click_entropy,
    feature_matrix_lines,
    levenshtein,
    llr,
    next_query_entropy,
    parse_feature_matrix,
)
from clickrec.logs import ClickRecord, build_click_stats, segment_sessions
from conftest import random_records


def oracle_levenshtein(a, b):
    """Full-matrix DP, kept deliberately naive."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[m][n]


def oracle_g2(k11, k12, k21, k22):
    n = k11 + k12 + k21 + k22
    rows = (k11 + k12, k21 + k22)
    cols = (k11 + k21, k12 + k22)
    total = 0.0
    for obs, r, c in ((k11, 0, 0), (k12, 0, 1), (k21, 1, 0), (k22, 1, 1)):
        if obs:
            total += obs * math.log(obs * n / (rows[r] * cols[c]))
    return 2 * total


def random_string(rng, alphabet="abXY あい", max_len=8):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _stats(vectors):
    recs = []
    t = 0
    for q, vec in vectors.items():
        for u, c in vec.items():
            for i in range(c):
                t += 1
                recs.append(ClickRecord(t, f"u{i}", q, u, 1))
    return build_click_stats(recs)


def _sessions(seqs):
    recs = []
    t = 0
    for i, seq in enumerate(seqs):
        t += 10000
        for q in seq:
            t += 10
            recs.append(ClickRecord(t, f"u{i}", q, "http://x", 1))
    return build_session_stats(segment_sessions(recs, 300))


class TestClickEntropy:
    def test_single_url_zero(self):
        stats = _stats({"q": {"u1": 5}})
        assert click_entropy("q", stats) == 0.0

    def test_uniform_binary_one_bit(self):
        stats = _stats({"q": {"u1": 2, "u2": 2}})
        assert abs(click_entropy("q", stats) - 1.0) < 1e-12

    def test_three_one_split(self):
        stats = _stats({"q": {"u1": 3, "u2": 1}})
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert abs(click_entropy("q", stats) - expected) < 1e-12
        assert abs(click_entropy("q", stats) - 0.8113) < 1e-4

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            click_entropy("nope", _stats({"q": {"u": 2}}))

    def test_bounded_by_log_outcomes(self):
        rng = random.Random(31)
        stats = build_click_stats(random_records(rng, 500))
        for q in stats.cnt_q:
            ent = click_entropy(q, stats)
            assert -1e-12 <= ent <= math.log2(len(stats.uc[q])) + 1e-12


class TestNextQueryEntropy:
    def test_deterministic_successor_zero(self):
        sessions = _sessions([["a", "b"]] * 3)
        assert next_query_entropy("a", sessions) == 0.0

    def test_two_equal_successors_one_bit(self):
        sessions = _sessions([["a", "b"], ["a", "c"]])
        assert abs(next_query_entropy("a", sessions) - 1.0) < 1e-12

    def test_three_one_successors(self):
        sessions = _sessions([["a", "b"]] * 3 + [["a", "c"]])
        assert abs(next_query_entropy("a", sessions) - 0.8113) < 1e-4

    def test_no_successors_zero(self):
        sessions = _sessions([["x"]])
        assert next_query_entropy("x", sessions) == 0.0


class TestLLR:
    def test_independence_zero(self):
        # successor distribution of q2 identical after q1 and after others
        seqs = [["q1", "q2"]] * 2 + [["zz", "q2"]] * 2
        seqs += [["q1", "other"]] * 2 + [["zz", "other"]] * 2
        sessions = _sessions(seqs)
        assert abs(llr("q1", "q2", sessions)) < 1e-9

    def test_diagonal_table(self):
        # k11=10, k12=0, k21=0, k22=10
        seqs = [["q1", "q2"]] * 10 + [["xx", "yy"]] * 10
        sessions = _sessions(seqs)
        expected = 2 * 20 * math.log(2)
        assert abs(llr("q1", "q2", sessions) - expected) < 1e-3
        assert abs(expected - 27.726) < 1e-2

    def test_nonnegative_and_matches_oracle(self):
        rng = random.Random(37)
        for _ in range(30):
            seqs = [
                [rng.choice("abcd"), rng.choice("abcd")] for _ in range(rng.randint(3, 20))
            ]
            st = _sessions(seqs)
            for q1 in "abcd":
                for q2 in "abcd":
                    k11 = st.pair_counts.get((q1, q2), 0)
                    row1 = sum(st.successors.get(q1, {}).values())
                    col1 = st.successor_totals.get(q2, 0)
                    n = st.total_pairs
                    expected = oracle_g2(k11, row1 - k11, col1 - k11, n - row1 - col1 + k11)
                    got = llr(q1, q2, st)
                    assert got >= 0.0
                    assert abs(got - expected) < 1e-9

    def test_no_pairs_raises(self):
        with pytest.raises(ValueError):
            llr("a", "b", _sessions([["only"]]))


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("curry", "curry", "codepoint") == 0
        assert levenshtein("curry", "curry", "byte") == 0

    def test_ascii_suffix(self):
        assert levenshtein("curry", "curry recipe", "codepoint") == 7
        assert levenshtein("curry", "curry recipe", "byte") == 7

    def test_multibyte_vs_byte_units(self):
        s = "あいう"  # three 3-byte UTF-8 code points
        assert levenshtein(s, "", "codepoint") == 3
        assert levenshtein(s, "", "byte") == 9

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            levenshtein("a", "b", "word")

    def test_matches_dp_oracle(self):
        rng = random.Random(41)
        for _ in range(1000):
            a, b = random_string(rng), random_string(rng)
            assert levenshtein(a, b, "codepoint") == oracle_levenshtein(a, b)
            assert levenshtein(a, b, "byte") == oracle_levenshtein(
                a.encode("utf-8"), b.encode("utf-8")
            )

    def test_metric_axioms(self):
        rng = random.Random(43)
        for _ in range(1000):
            a, b, c = (random_string(rng, max_len=5) for _ in range(3))
            for unit in ("codepoint", "byte"):
                dab = levenshtein(a, b, unit)
                assert dab == levenshtein(b, a, unit)
                assert (dab == 0) == (a == b)
                assert dab <= levenshtein(a, c, unit) + levenshtein(c, b, unit)

    def test_ascii_units_agree(self):
        rng = random.Random(47)
        for _ in range(200):
            a = random_string(rng, alphabet="abcd ")
            b = random_string(rng, alphabet="abcd ")
            assert levenshtein(a, b, "codepoint") == levenshtein(a, b, "byte")


EDGE_LENGTHS = [0, 1, 63, 64, 65, 200]
MIXED = "ab \u00e9\u0101\u3042\u3044"  # 1-, 2- and 3-byte UTF-8 characters


def edited(rng, s, alphabet, n_edits):
    """s after n_edits random insertions, deletions and substitutions."""
    chars = list(s)
    for _ in range(n_edits):
        op = rng.randrange(3) if chars else 0
        i = rng.randrange(len(chars) + (op == 0))
        if op == 0:
            chars.insert(i, rng.choice(alphabet))
        elif op == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


class TestLevenshteinLong:
    """Strings longer than one 64-bit word, in both units."""

    def assert_oracle(self, a, b):
        assert levenshtein(a, b, "codepoint") == oracle_levenshtein(a, b)
        assert levenshtein(a, b, "byte") == oracle_levenshtein(a.encode("utf-8"), b.encode("utf-8"))

    @pytest.mark.parametrize("alphabet", ["ab", MIXED])
    @pytest.mark.parametrize("la", EDGE_LENGTHS)
    def test_word_boundary_lengths(self, alphabet, la):
        rng = random.Random(59 + la)
        a = "".join(rng.choice(alphabet) for _ in range(la))
        for lb in EDGE_LENGTHS:
            self.assert_oracle(a, "".join(rng.choice(alphabet) for _ in range(lb)))
        for n_edits in (1, 3, 20):
            self.assert_oracle(a, edited(rng, a, alphabet, n_edits))

    @pytest.mark.parametrize("n_bytes", [63, 64, 65])
    def test_utf8_word_boundaries(self, n_bytes):
        # 3-byte characters, then 2-byte ones, then ASCII up to n_bytes
        a = "\u3042" * 10 + "\u00e9" * 10 + "x" * (n_bytes - 50)
        assert len(a.encode("utf-8")) == n_bytes
        rng = random.Random(n_bytes)
        for n_edits in (0, 1, 2, 10):
            self.assert_oracle(a, edited(rng, a, MIXED, n_edits))
            self.assert_oracle(a[::-1], edited(rng, a, MIXED, n_edits))


class TestBagCosine:
    def test_identical(self):
        assert bag_cosine("curry rice", "curry rice", "chunk") == 1.0
        assert bag_cosine("curry", "curry", "char-bigram") == 1.0

    def test_one_shared_chunk(self):
        assert abs(bag_cosine("curry", "curry recipe", "chunk") - 1 / math.sqrt(2)) < 1e-12

    def test_disjoint(self):
        assert bag_cosine("abc", "xyz", "chunk") == 0.0
        assert bag_cosine("abc", "xyz", "char-bigram") == 0.0

    def test_empty_bag_zero(self):
        assert bag_cosine("", "abc", "chunk") == 0.0
        assert bag_cosine("a", "ab", "char-bigram") == 0.0  # single char: no bigram

    def test_bigrams_ignore_whitespace(self):
        assert bag_cosine("a b", "ab", "char-bigram") == 1.0

    def test_symmetry_range_and_repeat_invariance(self):
        rng = random.Random(53)
        for _ in range(300):
            a = random_string(rng, alphabet="abc ")
            b = random_string(rng, alphabet="abc ")
            for unit in ("chunk", "char-bigram"):
                c = bag_cosine(a, b, unit)
                assert 0.0 <= c <= 1.0 + 1e-12
                assert abs(c - bag_cosine(b, a, unit)) < 1e-12
                # repeating both multisets leaves the cosine unchanged
                a3 = " ".join([a] * 3) if unit == "chunk" else a
                b3 = " ".join([b] * 3) if unit == "chunk" else b
                if unit == "chunk":
                    assert abs(bag_cosine(a3, b3, unit) - c) < 1e-12


class TestBuildFeatures:
    def _context(self):
        vectors = {
            "curry": {"http://a": 3, "http://b": 1},
            "curry recipe": {"http://a": 2, "http://c": 2},
        }
        recs = []
        t = 0
        for q, vec in vectors.items():
            for u, c in vec.items():
                for i in range(c):
                    t += 1
                    rank = 1 if q == "curry recipe" else 2
                    recs.append(ClickRecord(t, f"u{i}", q, u, rank))
        stats = build_click_stats(recs)
        sessions = _sessions([["curry", "curry recipe"]] * 3)
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        return stats, sessions, lex

    def _build(self, q1, q2, stats, st, lex, sim=None):
        """build_features with the strengths generate_all gives (q1, q2)."""
        strengths = {p.kind: p.strength for p in generate_all(q1, stats, st, lex) if p.q2 == q2}
        return build_features(q1, q2, FeatureContext(stats, st, lex), strengths, sim=sim)

    def test_diagnostic_self_pair(self):
        stats, sessions, lex = self._context()
        fv = self._build("curry", "curry", stats, sessions, lex)
        assert fv.leven == fv.mb_leven == 0
        assert fv.ccos == 1.0 and fv.bcos == 1.0
        assert fv.delta_len == 0 and fv.delta_clen == 0

    def test_field_by_field_recomputation(self):
        stats, st, lex = self._context()
        fv = self._build("curry", "curry recipe", stats, st, lex, sim=1.0)
        assert fv.p_ct == stats.cnt_q["curry recipe"] / (
            stats.cnt_q["curry"] + stats.cnt_q["curry recipe"]
        )
        assert fv.p_cs == 1.0  # always adjacent
        assert fv.freq_q1 == 4 and fv.freq_q2 == 4
        assert fv.freq_topic == 8
        assert fv.len_q1 == 5 and fv.len_q2 == 12
        assert fv.clen_q1 == 1 and fv.clen_q2 == 2
        assert fv.delta_len == 7 and abs(fv.delta_len_rel - 7 / 5) < 1e-12
        assert fv.delta_clen == 1 and fv.delta_clen_rel == 1.0
        assert fv.mb_leven == 7 and fv.leven == 7
        assert abs(fv.ccos - 1 / math.sqrt(2)) < 1e-12
        assert abs(fv.ent_q1 - click_entropy("curry", stats)) < 1e-12
        assert abs(fv.delta_ent - (fv.ent_q1 - fv.ent_q2)) < 1e-12
        assert abs(fv.next_ent - next_query_entropy("curry", st)) < 1e-12
        assert abs(fv.llr - llr("curry", "curry recipe", st)) < 1e-12
        assert fv.sim == 1.0
        # shared URL http://a at better rank for the expansion -> co-click too
        assert fv.p_cc > 0.0

    def test_unrelated_pair_strengths_zero(self):
        stats, sessions, lex = self._context()
        fv = self._build("curry", "totally different", stats, sessions, lex)
        assert fv.p_cc == fv.p_ct == fv.p_cs == 0.0
        assert fv.leven > 0 and fv.freq_q2 == 0

    def test_matrix_round_trip(self):
        stats, sessions, lex = self._context()
        fv = self._build("curry", "curry recipe", stats, sessions, lex, sim=0.5)
        rows = [("curry", "curry recipe", "co_topic", fv)]
        lines = feature_matrix_lines(rows)
        assert lines[0].split("\t")[3:] == FEATURE_NAMES + ["Sim"]
        parsed = parse_feature_matrix(lines)
        assert parsed[0][0] == "curry" and parsed[0][2] == "co_topic"
        for got, want in zip(parsed[0][3].values(), fv.values()):
            assert abs(got - want) < 1e-9
