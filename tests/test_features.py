import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickrec.candidates import build_session_stats, detect_facets, generate_all, url_postings
from clickrec.features import (
    FEATURE_NAMES,
    FEATURES,
    FeatureContext,
    FeatureVector,
    build_features,
    feature_matrix_lines,
    levenshtein,
    parse_feature_matrix,
)
from clickrec.logs import ClickRecord, build_click_stats, segment_sessions
from conftest import random_records
from test_features_equivalence import ALPHABET, worlds


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


def _session_records(seqs):
    """One session per sequence, each query clicked once on http://x."""
    recs = []
    t = 0
    for i, seq in enumerate(seqs):
        t += 10000
        for q in seq:
            t += 10
            recs.append(ClickRecord(t, f"u{i}", q, "http://x", 1))
    return recs


def _sessions(seqs):
    return build_session_stats(segment_sessions(_session_records(seqs)))


def features(q1, q2, stats, st=None):
    """build_features over these tables, with no relation strengths."""
    ctx = FeatureContext(stats, _sessions([]) if st is None else st, frozenset())
    return build_features(q1, q2, ctx, {})


def session_features(q1, q2, seqs):
    """build_features over the click and session tables of one log of seqs."""
    recs = _session_records(seqs)
    return features(q1, q2, build_click_stats(recs), build_session_stats(segment_sessions(recs)))


def text_features(q1, q2):
    """build_features for a pair where only the two strings matter; both
    queries are clicked once, so both have records."""
    return features(q1, q2, _stats({q1: {"u": 1}, q2: {"u": 1}}))


class TestClickEntropy:
    def test_single_url_zero(self):
        stats = _stats({"q": {"u1": 5}})
        assert features("q", "q", stats).ent_q1 == 0.0

    def test_uniform_binary_one_bit(self):
        stats = _stats({"q": {"u1": 2, "u2": 2}, "r": {"u1": 1}})
        assert abs(features("q", "r", stats).ent_q1 - 1.0) < 1e-12
        assert abs(features("r", "q", stats).ent_q2 - 1.0) < 1e-12

    def test_three_one_split(self):
        stats = _stats({"q": {"u1": 3, "u2": 1}})
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        fv = features("q", "q", stats)
        assert abs(fv.ent_q1 - expected) < 1e-12
        assert abs(fv.ent_q1 - 0.8113) < 1e-4
        assert fv.ent_q2 == fv.ent_q1

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            features("nope", "q", _stats({"q": {"u": 2}}))

    def test_query_seen_only_in_sessions_raises(self):
        # A q2 outside the click counts has no record, like an unknown q1.
        stats = _stats({"q": {"u1": 3, "u2": 1}})
        with pytest.raises(KeyError):
            features("q", "s", stats, _sessions([["q", "s"]]))

    def test_bounded_by_log_outcomes(self):
        rng = random.Random(31)
        stats = build_click_stats(random_records(rng, 500))
        ctx = FeatureContext(stats, _sessions([]), frozenset())
        for q in stats.cnt_q:
            ent = build_features(q, q, ctx, {}).ent_q1
            assert -1e-12 <= ent <= math.log2(len(stats.clicks[q])) + 1e-12


class TestNextQueryEntropy:
    def test_deterministic_successor_zero(self):
        assert session_features("a", "b", [["a", "b"]] * 3).next_ent == 0.0

    def test_two_equal_successors_one_bit(self):
        fv = session_features("a", "b", [["a", "b"], ["a", "c"]])
        assert abs(fv.next_ent - 1.0) < 1e-12

    def test_three_one_successors(self):
        fv = session_features("a", "b", [["a", "b"]] * 3 + [["a", "c"]])
        assert abs(fv.next_ent - 0.8113) < 1e-4

    def test_no_successors_zero(self):
        assert session_features("b", "a", [["a", "b"]]).next_ent == 0.0


class TestLLR:
    def test_independence_zero(self):
        # successor distribution of q2 identical after q1 and after others
        seqs = [["q1", "q2"]] * 2 + [["zz", "q2"]] * 2
        seqs += [["q1", "other"]] * 2 + [["zz", "other"]] * 2
        assert abs(session_features("q1", "q2", seqs).llr) < 1e-9

    def test_diagonal_table(self):
        # k11=10, k12=0, k21=0, k22=10
        seqs = [["q1", "q2"]] * 10 + [["xx", "yy"]] * 10
        expected = 2 * 20 * math.log(2)
        assert abs(session_features("q1", "q2", seqs).llr - expected) < 1e-3
        assert abs(expected - 27.726) < 1e-2

    def test_nonnegative_and_matches_oracle(self):
        rng = random.Random(37)
        stats = _stats({q: {"u": 1} for q in "abcd"})
        for _ in range(30):
            seqs = [
                [rng.choice("abcd"), rng.choice("abcd")] for _ in range(rng.randint(3, 20))
            ]
            ctx = FeatureContext(stats, _sessions(seqs), frozenset())
            # Each sequence is one session; a repeated query collapses to one event.
            pairs = [(a, b) for a, b in seqs if a != b]
            n = len(pairs)
            for q1 in "abcd":
                for q2 in "abcd":
                    k11 = pairs.count((q1, q2))
                    row1 = sum(a == q1 for a, _ in pairs)
                    col1 = sum(b == q2 for _, b in pairs)
                    expected = oracle_g2(k11, row1 - k11, col1 - k11, n - row1 - col1 + k11)
                    got = build_features(q1, q2, ctx, {}).llr
                    assert got >= 0.0
                    assert abs(got - expected) < 1e-9

    def test_no_pairs_zero(self):
        fv = session_features("only", "b", [["only"], ["b"]])
        assert fv.llr == 0.0 and fv.next_ent == 0.0


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("curry", "curry") == 0
        assert levenshtein(b"curry", b"curry") == 0

    def test_ascii_suffix(self):
        assert levenshtein("curry", "curry recipe") == 7
        assert levenshtein(b"curry", b"curry recipe") == 7

    def test_multibyte_vs_byte_units(self):
        s = "あいう"  # three 3-byte UTF-8 code points
        assert levenshtein(s, "") == 3
        assert levenshtein(s.encode("utf-8"), b"") == 9

    def test_matches_dp_oracle(self):
        rng = random.Random(41)
        for _ in range(1000):
            a, b = random_string(rng), random_string(rng)
            assert levenshtein(a, b) == oracle_levenshtein(a, b)
            assert levenshtein(a.encode("utf-8"), b.encode("utf-8")) == oracle_levenshtein(
                a.encode("utf-8"), b.encode("utf-8")
            )

    def test_metric_axioms(self):
        rng = random.Random(43)
        for _ in range(1000):
            a, b, c = (random_string(rng, max_len=5) for _ in range(3))
            for x, y, z in ((a, b, c), tuple(s.encode("utf-8") for s in (a, b, c))):
                dxy = levenshtein(x, y)
                assert dxy == levenshtein(y, x)
                assert (dxy == 0) == (x == y)
                assert dxy <= levenshtein(x, z) + levenshtein(z, y)

    def test_ascii_units_agree(self):
        rng = random.Random(47)
        for _ in range(200):
            a = random_string(rng, alphabet="abcd ")
            b = random_string(rng, alphabet="abcd ")
            assert levenshtein(a, b) == levenshtein(a.encode("utf-8"), b.encode("utf-8"))


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
    """Strings longer than one 64-bit word, as str and as UTF-8 bytes."""

    def assert_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)
        ab, bb = a.encode("utf-8"), b.encode("utf-8")
        assert levenshtein(ab, bb) == oracle_levenshtein(ab, bb)

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
    """CCos is the cosine of the chunk bags, BCos of the character bigrams."""

    def test_identical(self):
        assert text_features("curry rice", "curry rice").ccos == 1.0
        assert text_features("curry", "curry").bcos == 1.0

    def test_one_shared_chunk(self):
        assert abs(text_features("curry", "curry recipe").ccos - 1 / math.sqrt(2)) < 1e-12

    def test_one_shared_bigram(self):
        assert abs(text_features("abc", "abd").bcos - 0.5) < 1e-12  # {ab, bc} . {ab, bd}

    def test_disjoint(self):
        fv = text_features("abc", "xyz")
        assert fv.ccos == 0.0
        assert fv.bcos == 0.0

    def test_empty_bag_zero(self):
        # q1 = "" has no length to take delta.Len.Rel against, so q2 is empty
        assert text_features("abc", "").ccos == 0.0
        assert text_features("a", "ab").bcos == 0.0  # single char: no bigram

    def test_bigrams_ignore_whitespace(self):
        assert text_features("a b", "ab").bcos == 1.0

    def test_symmetry_range_and_repeat_invariance(self):
        rng = random.Random(53)
        for _ in range(300):
            a = random_string(rng, alphabet="abc ")
            b = random_string(rng, alphabet="abc ")
            # build_features needs a q1 with a chunk (delta.CLen.Rel divides by it)
            fvs = [text_features(x, y) for x, y in ((a, b), (b, a)) if x.split()]
            for fv in fvs:
                assert 0.0 <= fv.ccos <= 1.0 + 1e-12
                assert 0.0 <= fv.bcos <= 1.0 + 1e-12
            if len(fvs) == 2:
                assert abs(fvs[0].ccos - fvs[1].ccos) < 1e-12
                assert abs(fvs[0].bcos - fvs[1].bcos) < 1e-12
            if fvs:
                # repeating both chunk multisets leaves the chunk cosine unchanged
                q1, q2 = (a, b) if a.split() else (b, a)
                fv3 = text_features(" ".join([q1] * 3), " ".join([q2] * 3))
                assert abs(fv3.ccos - fvs[0].ccos) < 1e-12


class TestBuildFeatures:
    def _context(self, extra=()):
        vectors = {
            "curry": {"http://a": 3, "http://b": 1},
            "curry recipe": {"http://a": 2, "http://c": 2},
            **dict(extra),
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
        pairs = generate_all(q1, stats, st, lex, url_postings(stats))
        strengths = {p.kind: p.strength for p in pairs if p.q2 == q2}
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
        assert abs(fv.ent_q1 - -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))) < 1e-12
        assert abs(fv.ent_q2 - 1.0) < 1e-12
        assert abs(fv.delta_ent - (fv.ent_q1 - fv.ent_q2)) < 1e-12
        assert fv.next_ent == 0.0  # "curry recipe" always follows
        assert abs(fv.llr - oracle_g2(3, 0, 0, 0)) < 1e-12
        assert fv.sim == 1.0
        # shared URL http://a at better rank for the expansion -> co-click too
        assert fv.p_cc > 0.0

    def test_unrelated_pair_strengths_zero(self):
        stats, sessions, lex = self._context({"totally different": {"http://z": 1}})
        fv = self._build("curry", "totally different", stats, sessions, lex)
        assert fv.p_cc == fv.p_ct == fv.p_cs == 0.0
        assert fv.leven > 0 and fv.freq_q2 == 1

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


class TestFeatureContextBuiltWhole:
    """FeatureContext describes every query of the click counts when it is
    built; build_features only reads that table afterwards, and any other
    query is a KeyError on either side."""

    @settings(max_examples=100, deadline=None)
    @given(worlds(), st.text(ALPHABET + " ", min_size=1, max_size=6))
    def test_queries_do_not_change_after_init(self, world, unknown):
        stats, sst, names = world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        ctx = FeatureContext(stats, sst, lex)
        assert list(ctx.queries) == list(stats.cnt_q)
        before = dict(ctx.queries)
        for q1 in stats.cnt_q:
            for q2 in stats.cnt_q:
                build_features(q1, q2, ctx, {})
        # names may hold queries outside the click counts; unknown may too.
        for q in {*names, unknown} - stats.cnt_q.keys():
            for k in stats.cnt_q:
                for q1, q2 in ((q, k), (k, q)):
                    with pytest.raises(KeyError):
                        build_features(q1, q2, ctx, {})
        assert list(ctx.queries) == list(before)
        assert all(ctx.queries[q] is info for q, info in before.items())


def fstring_matrix_lines(rows):
    """feature_matrix_lines spelled with one f-string per value."""
    lines = ["\t".join(["q1", "q2", "kind", *FEATURE_NAMES, "Sim"])]
    for q1, q2, kind, fv in rows:
        nums = [f"{v:.12g}" for v in fv.values()]
        nums.append("-" if fv.sim is None else f"{fv.sim:.12g}")
        lines.append(f"{q1}\t{q2}\t{kind}\t" + "\t".join(nums))
    return lines


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e12, 1.5e12, 1e308, 0.1, 1 / 3])
EDGE_INTS = st.sampled_from([0, 1, 9_999_999, 10_000_000, 10**12, 10**12 + 1, 123_456_789_012_345])
ROW_VALUES = st.tuples(*[
    st.one_of(EDGE_INTS, st.integers(0, 10**7), st.integers(10**12, 10**18))
    if typ is int else
    st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
    for _, _, typ in FEATURES
])


@given(st.lists(st.tuples(
    st.text(alphabet="ab %s\u3000", max_size=4),
    ROW_VALUES,
    st.one_of(st.none(), EDGE_FLOATS, st.floats(0, 1)),
), max_size=5))
def test_matrix_lines_match_the_fstring_spelling(rows):
    rows = [(q, q + "x", "co_click", FeatureVector(*values, sim=sim)) for q, values, sim in rows]
    assert feature_matrix_lines(rows) == fstring_matrix_lines(rows)
