"""Malformed input files and config files through ``clickrec.cli.main``.

Every bad input must give ``error: <path>:...`` on stderr and exit 1, never
a traceback.  ``rank --q1`` also reads its query as the log parser would.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_output_bytes as pinned
from clickrec import candidates as cand
from clickrec import cli, gbdt, pipeline, synth
from clickrec.features import FEATURE_NAMES, FEATURES, FeatureVector, feature_matrix_lines

# Training keys, then synth keys, which a training config may also hold.
# n_trees comes last so that no edit can append digits of a later value to
# it, which keeps every fuzzed training run short.
CONFIG = """\
# GBDT training
shrinkage=0.5
max_depth=2
min_leaf=1
# synth keys
n_users=30
n_topics=16
n_trees=3
"""


@pytest.mark.parametrize("lines", [[], ["one"], ["q\u00e9\t\u3042", "", "\U0001f600 x"]])
def test_write_gives_the_joined_lines(tmp_path, lines):
    path = tmp_path / "new" / "out.tsv"
    cli._write(str(path), lines)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def matrix_lines(n_rows=8):
    rng = random.Random(3)
    rows = []
    for i in range(n_rows):
        values = [rng.randint(0, 9) if typ is int else rng.random() for _, _, typ in FEATURES]
        fv = FeatureVector(*values, sim=rng.choice([0.0, 1 / 3, 2 / 3, 1.0]))
        rows.append(("a" if i % 2 else "b", f"q{i}", "co_click", fv))
    return feature_matrix_lines(rows)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid config, feature matrix and model in a module-wide directory."""
    d = tmp_path_factory.mktemp("cli")
    (d / "train.cfg").write_text(CONFIG)
    (d / "features.tsv").write_text("\n".join(matrix_lines()) + "\n")
    code, err = run("--config", d / "train.cfg", "--out", d / "model", "train",
                    "--features", d / "features.tsv")
    assert code == 0, err
    return d


def train(base, features, config=None):
    cfg = ["--config", config] if config else []
    return run(*cfg, "--out", base / "trained", "train", "--features", features)


def rank(base, features, model=None):
    return run("--out", base / "ranked", "rank", "--model", model or base / "model" / "model.txt",
               "--features", features, "--q1", "a")


def set_field(row, col, value):
    """matrix_lines() with field col of line row replaced, or dropped if None."""
    lines = matrix_lines()
    parts = lines[row].split("\t")
    if value is None:
        del parts[col]
    else:
        parts[col] = value
    lines[row] = "\t".join(parts)
    return lines


class TestFeatureMatrixErrors:
    @pytest.mark.parametrize("command", [train, rank])
    @pytest.mark.parametrize(
        "lines, where",
        [
            ([], "1: empty file"),
            (set_field(0, 3, "p_cc"), "1: unexpected feature matrix header"),
            (set_field(2, -1, None), "3: expected 27 fields, got 26"),
            (set_field(3, 5, "abc"), "4: could not convert string to float: 'abc'"),
            (set_field(2, -1, "inf"), "3: non-finite value"),
            (set_field(2, 6, "5.5"), "3: Freq.q1 is not an integer: '5.5'"),
            # A blank line is skipped, and the bad row after it keeps its file line.
            ([*matrix_lines()[:2], "", *set_field(2, -1, None)[2:]], "4: expected 27 fields, got 26"),
        ],
    )
    def test_error_names_file_and_line(self, base, tmp_path, command, lines, where):
        path = tmp_path / "bad.tsv"
        path.write_text("".join(ln + "\n" for ln in lines))
        code, err = command(base, path)
        assert code == 1
        assert err.startswith(f"error: {path}:{where}"), err
        assert "Traceback" not in err

    def test_one_labeled_row(self, base, tmp_path):
        path = tmp_path / "unlabeled.tsv"
        path.write_text("".join(ln + "\n" for ln in set_field(2, -1, "-")[:3]))
        code, err = train(base, path)
        assert code == 1
        assert err.startswith(f"error: {path}: need at least 2 labeled rows")

    def test_overflowing_fit_writes_no_model(self, tmp_path):
        # Finite targets whose mean overflows would give a model rank refuses.
        lines = matrix_lines()
        lines[1:] = [ln.rsplit("\t", 1)[0] + "\t1.7e308" for ln in lines[1:]]
        path = tmp_path / "huge.tsv"
        path.write_text("".join(ln + "\n" for ln in lines))
        code, err = run("--out", tmp_path / "out", "train", "--features", path)
        assert code == 1
        assert err.startswith(f"error: {path}: the fit overflows"), err
        assert not (tmp_path / "out").exists()

    def test_not_utf8(self, base, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(matrix_lines()[0].encode() + b"\n\xff\n")
        code, err = train(base, path)
        assert code == 1
        assert err.startswith(f"error: {path}:2: invalid UTF-8: invalid start byte (byte 0xff)"), err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "line, reason",
        [
            ("n_tres=5", "unknown config key 'n_tres'"),
            ("early_stop_patience=3", "unknown config key 'early_stop_patience'"),
            ("n_trees", "expected key=value"),
            ("n_trees=many", "invalid literal for int()"),
            ("n_trees=0", "n_trees must be >= 1"),
            ("shrinkage=0", "shrinkage must be in (0, 1]"),
            ("n_queries=3", "unknown config key 'n_queries'"),
            ("n_urls=6", "unknown config key 'n_urls'"),
            ("facet_vocab=a", "unknown config key 'facet_vocab'"),
            ("min_leaf=0", "min_leaf must be >= 1"),
        ],
    )
    def test_train_config(self, base, tmp_path, line, reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + line + "\n")
        code, err = train(base, base / "features.tsv", cfg)
        assert code == 1
        assert err.startswith(f"error: {cfg}:{CONFIG.count(chr(10)) + 1}: {reason}"), err

    def test_synth_config_checked(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_trees=5\nn_topics=0\n")
        code, err = run("--config", cfg, "--out", tmp_path / "out", "synth")
        assert code == 1
        assert err.startswith(f"error: {cfg}:2: n_topics must be >= 1"), err

    def test_keys_of_the_other_config_allowed(self, base):
        code, err = train(base, base / "features.tsv", base / "train.cfg")
        assert code == 0, err


class TestUnlimitedDepth:
    """``max_depth=None`` and ``max_depth=`` both mean no depth limit."""

    def levels(self, base, tmp_path, line):
        """The splits on the longest root-to-leaf path of a model trained so."""
        cfg = tmp_path / "depth.cfg"
        cfg.write_text(f"{line}\nn_trees=2\nmin_leaf=1\nshrinkage=1\n")
        features = tmp_path / "features.tsv"
        features.write_text("\n".join(matrix_lines(64)) + "\n")
        code, err = train(base, features, cfg)
        assert code == 0, err
        return gbdt.load_model(str(base / "trained" / "model.txt")).levels

    @pytest.mark.parametrize("line", ["max_depth=None", "max_depth="])
    def test_trains_unlimited_depth(self, base, tmp_path, line):
        assert self.levels(base, tmp_path, "max_depth=4") == 4
        assert self.levels(base, tmp_path, line) > 4

    def test_zero_still_rejected(self, base, tmp_path):
        cfg = tmp_path / "depth.cfg"
        cfg.write_text("max_depth=0\n")
        code, err = train(base, base / "features.tsv", cfg)
        assert code == 1
        assert err.startswith(f"error: {cfg}:1: max_depth must be >= 1"), err


class TestModelErrors:
    @pytest.fixture
    def lines(self, base):
        return (base / "model" / "model.txt").read_text().splitlines()

    def rank_with(self, base, tmp_path, lines):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        return (path, *rank(base, base / "features.tsv", path))

    def test_tree_weight_differs_from_shrinkage(self, base, tmp_path, lines):
        i = [n for n, ln in enumerate(lines) if ln.startswith("tree\t")][1]
        parts = lines[i].split("\t")
        assert parts[2] == "0.5"
        parts[2] = "0.25"
        want, lines[i] = lines[i], "\t".join(parts)
        path, code, err = self.rank_with(base, tmp_path, lines)
        assert code == 1
        reason = "save_model writes %r here, found %r" % (want + "\n", lines[i] + "\n")
        assert err.startswith(f"error: {path}:{i + 1}: {reason}"), err

    def test_non_finite_leaf_value(self, base, tmp_path, lines):
        i = next(n for n, ln in enumerate(lines) if "\tleaf\t" in ln)
        parts = lines[i].split("\t")
        parts[2] = "nan"
        lines[i] = "\t".join(parts)
        path, code, err = self.rank_with(base, tmp_path, lines)
        assert code == 1
        assert err.startswith(f"error: {path}:{i + 1}: non-finite float 'nan'"), err

    def test_features_differ_from_matrix_columns(self, base, tmp_path, lines):
        lines[3] += "\textra"
        lines.append("extra\t0.0")  # the importance line save_model writes for it
        path, code, err = self.rank_with(base, tmp_path, lines)
        assert code == 1
        assert err.startswith(f"error: {path}: the model's features are not the feature"), err

    def test_byte_order_mark(self, base, tmp_path, lines):
        # Logs may start with one, but save_model never writes it, and a load
        # followed by a save must not change the file.
        path, code, err = self.rank_with(base, tmp_path, ["\ufeff" + lines[0], *lines[1:]])
        assert code == 1
        assert err.startswith(f"error: {path}:1: byte-order mark"), err


class TestRankQuery:
    """``rank --q1`` normalizes its query as the log parser does every q1."""

    def ranked(self, base, features, q1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--out", str(base / "ranked"), "rank", "--model",
                             str(base / "model" / "model.txt"), "--features", str(features),
                             "--q1", q1])
        assert code == 0
        return out.getvalue()

    def test_spacing_of_the_query_does_not_matter(self, base, tmp_path):
        features = tmp_path / "features.tsv"
        lines = matrix_lines()
        features.write_text("\n".join(
            "curry recipe" + ln[1:] if ln.startswith("a\t") else ln for ln in lines
        ) + "\n")
        want = self.ranked(base, features, "curry recipe")
        assert len(want.splitlines()) == 4
        for q1 in (" curry  recipe", "curry\trecipe ", "curry\u3000recipe", " curry recipe"):
            assert self.ranked(base, features, q1) == want, repr(q1)


CLICKS ="100\tu1\tcurry\thttp://a\t1\n"


class TestInputFileErrors:
    @pytest.mark.parametrize(
        "line, reason",
        [
            ("http://x\ttitle\tdesc", "expected 4 fields, got 3"),
            ("http://x\ttitle\tdesc\tFood\textra", "expected 4 fields, got 5"),
            ("http://x\ttitle\tdesc\ta//b", "bad category path: 'a//b'"),
        ],
    )
    def test_taxonomy(self, tmp_path, line, reason):
        log, tax = tmp_path / "clicks.tsv", tmp_path / "taxonomy.tsv"
        log.write_text(CLICKS)
        tax.write_text(f"http://a\tcurry\trecipes\tFood/Cooking\n\n{line}\n")
        code, err = run("--out", tmp_path / "out", "assign", "--log", log, "--taxonomy", tax)
        assert code == 1
        assert err.startswith(f"error: {tax}:3: {reason}"), err

    @pytest.mark.parametrize("command", ["ingest", "candidates"])
    def test_not_a_click_log(self, tmp_path, command):
        log = tmp_path / "clicks.tsv"
        log.write_text(CLICKS + "not a click\nnor this\n")
        code, err = run("--out", tmp_path / "out", command, "--log", log)
        assert code == 1
        assert err.startswith(
            f"error: {log}: 2 of 3 lines malformed; input does not look like a click log"
        ), err


class TestByteOrderMark:
    def ingest(self, tmp_path, name, data):
        log = tmp_path / name
        log.write_bytes(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--out", str(tmp_path / name[:-4]), "ingest", "--log", str(log)]) == 0
        files = [(tmp_path / name[:-4] / f).read_bytes() for f in ("cleaned.tsv", "sessions.tsv")]
        return out.getvalue(), files

    def test_log_parses_as_without_it(self, tmp_path):
        data = (CLICKS + "110\tu1\tbeef\thttp://b\t1\n120\tu2\tcurry\thttp://a\t1\n").encode()
        want = self.ingest(tmp_path, "plain.tsv", data)
        assert want[0].startswith("parsed 3 records (0 skipped)")
        assert self.ingest(tmp_path, "marked.tsv", b"\xef\xbb\xbf" + data) == want


class TestLineSeparatorsInFields:
    """U+2028 inside a field ends no line; only newlines split records."""

    def test_ingest_keeps_every_record(self, tmp_path):
        log = tmp_path / "clicks.tsv"
        log.write_text(
            "100\tu1\tcurry\u2028recipe\thttp://a\t1\n"
            "110\tu1\tbeef\thttp://b\t1\n"
            "120\tu1\tbeef\u2028stew\thttp://c\t1\n"
            "130\tu2\tpie\u2028crust\thttp://d\t1\n"
            "140\tu2\tpie\thttp://e\t1\n",
            encoding="utf-8",
        )
        code, err = run("--out", tmp_path / "out", "ingest", "--log", log)
        assert code == 0, err
        sessions = (tmp_path / "out" / "sessions.tsv").read_text(encoding="utf-8")
        assert [line.split("\t")[3] for line in sessions.splitlines()] == [
            "curry recipe", "beef", "beef stew", "pie crust", "pie",
        ]

    def test_assign_loads_the_taxonomy(self, tmp_path):
        log, tax = tmp_path / "clicks.tsv", tmp_path / "taxonomy.tsv"
        log.write_text("100\tu1\tcurry\thttp://a\t1\n200\tu2\tcurry\thttp://a\t1\n")
        tax.write_text("http://a\tcurry\u2028dishes\trecipes\tFood/Cooking\n", encoding="utf-8")
        code, err = run("--out", tmp_path / "out", "assign", "--log", log, "--taxonomy", tax)
        assert code == 0, err
        assert (tmp_path / "out" / "assignments.tsv").read_text() == "curry\tFood/Cooking\t1\n"


# Inserted config text has no digits, so an edit cannot make a number large
# enough to slow a training run down; feature values may grow freely.
FEATURE_CHARS = "0123456789.-+eE\t\n abcfin"
FEATURE_TOKENS = ["nan", "inf", "-inf", "1e999", "-", "", "abc"]
CONFIG_CHARS = "=#\t\n .-_eEabcdfgiklmnoprstuvx"
CONFIG_TOKENS = ["nan", "inf", "0", "-1", "", "x"]
MODEL_CHARS = "0123456789.-+eE\t\n abcefilnprst"
MODEL_TOKENS = ["nan", "inf", "-1", "0", "99", "", "leaf", "split", "tree", "importance", "x"]
LOG_CHARS = "0123456789.-+\t\n :/_abcehlmoptux\u00e9\u3042"
LOG_TOKENS = ["", "0", "-1", "99999999999999999999", "1_0", "x", " ", "\u0663"]
TAXONOMY_CHARS = "\t\n /:._abcdeghlmoprstux\u00e9"
TAXONOMY_TOKENS = ["", "/", "a//b", " / ", "x", "sec0/group00/t000"]


def edits(alphabet, tokens):
    """Field replacements by tokens, character edits and a cut (see mutate).

    Deletions reach a few hundred characters, so whole matrix rows go too.
    """
    field = st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.sampled_from(tokens))
    edit = st.tuples(
        st.integers(min_value=0), st.integers(0, 8) | st.integers(0, 600), st.text(alphabet, max_size=4)
    )
    return st.tuples(
        st.lists(field, max_size=2), st.lists(edit, max_size=3), st.none() | st.integers(min_value=0)
    )


def mutate(text, sep, mutation):
    """Replace (line, field, token) fields split on sep, apply (position,
    deleted chars, inserted text) edits, then cut the text."""
    fields, changes, cut = mutation
    lines = text.split("\n")
    for row, col, token in fields:
        row %= len(lines)
        parts = lines[row].split(sep)
        parts[col % len(parts)] = token
        lines[row] = sep.join(parts)
    text = "\n".join(lines)
    for pos, n_del, ins in changes:
        pos %= len(text) + 1
        text = text[:pos] + ins + text[pos + n_del :]
    return text if cut is None else text[: cut % (len(text) + 1)]


def clean_outcome(code, err, path):
    return code == 0 or (code == 1 and err.startswith(f"error: {path}:"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic click log and taxonomy."""
    d = tmp_path_factory.mktemp("corpus")
    clicks, tax = synth.synth_logs(synth.SynthConfig(n_topics=4, n_users=5, n_events=120, seed=3))
    (d / "clicks.tsv").write_text("\n".join(clicks) + "\n")
    (d / "taxonomy.tsv").write_text("\n".join(tax) + "\n")
    return d


class TestNegRatio:
    @pytest.mark.parametrize(
        "ratio, reason",
        [
            ("inf", "neg_ratio must be a finite number >= 0"),
            ("nan", "neg_ratio must be a finite number >= 0"),
            ("-1", "neg_ratio must be a finite number >= 0"),
            # More negatives than there are free query pairs fails at once.
            ("1e9", "could not draw 1e+09 x "),
        ],
    )
    def test_rejected(self, corpus, ratio, reason):
        code, err = run("--out", corpus / "features", "features", "--log", corpus / "clicks.tsv",
                        "--taxonomy", corpus / "taxonomy.tsv", f"--neg-ratio={ratio}")
        assert code == 1
        assert err.startswith(f"error: {reason}"), err
        assert "Traceback" not in err


def test_no_command_builds_the_whole_dataset(monkeypatch, tmp_path):
    """features and crossval keep their pinned bytes without build_dataset,
    which builds every row in one process, and without a candidate pair:
    their rows come from candidate_rows."""
    (tmp_path / "corpus.cfg").write_text(pinned.CONFIG)

    def run_pinned(out, *argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--config", str(tmp_path / "corpus.cfg"), "--seed", "5",
                             "--out", str(tmp_path / out), *map(str, argv)])
        assert code == 0
        return stdout.getvalue()

    def refusal(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return refuse

    run_pinned("data", "synth")
    for module, name in [(pipeline, "build_dataset"), (cand, "generate_all"), (pipeline, "candidate_pairs")]:
        monkeypatch.setattr(module, name, refusal(name))
    data = tmp_path / "data"
    inputs = ["--log", data / "clicks.tsv", "--taxonomy", data / "taxonomy.tsv"]
    run_pinned("features", "features", *inputs)
    (tmp_path / "crossval.txt").write_text(run_pinned("crossval", "crossval", *inputs))
    names = ["features/features.tsv", "crossval/report.tsv", "crossval.txt"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    assert got == {name: pinned.DIGESTS[name] for name in names}


def test_one_session_stats_per_run(monkeypatch, tmp_path):
    """features, crossval and candidates each build the session table once.

    os.fork is removed, so both halves of the forked work run, and are
    counted, in this process."""
    built = []
    build = cand.build_session_stats

    def counted(sessions):
        built.append(1)
        return build(sessions)

    monkeypatch.setattr(cand, "build_session_stats", counted)
    monkeypatch.setattr(pipeline, "build_session_stats", counted)
    monkeypatch.delattr(os, "fork")
    (tmp_path / "corpus.cfg").write_text(pinned.CONFIG)
    pinned_run = ["--config", tmp_path / "corpus.cfg", "--seed", "5", "--out"]
    assert run(*pinned_run, tmp_path / "data", "synth") == (0, "")
    log, taxo = tmp_path / "data" / "clicks.tsv", tmp_path / "data" / "taxonomy.tsv"
    builds = {}
    for command, inputs in [
        ("features", ["--log", log, "--taxonomy", taxo]),
        ("crossval", ["--log", log, "--taxonomy", taxo]),
        ("candidates", ["--log", log]),
    ]:
        built.clear()
        assert run(*pinned_run, tmp_path / command, command, *inputs) == (0, "")
        builds[command] = len(built)
    assert builds == {"features": 1, "crossval": 1, "candidates": 1}


# Three users each click one shared URL for "curry", then search "curry
# recipe" and click distinct URLs, so clean_log drops every "curry recipe"
# click: a co-session q2 outside the click counts.
SESSION_ONLY_LOG = "".join(
    f"{t}\tu{u}\tcurry\thttp://a\t1\n{t + 10}\tu{u}\tcurry recipe\thttp://b{u}\t1\n"
    for u, t in ((1, 100), (2, 200), (3, 300))
)
PHRASES = ["curry", "curry recipe", "beef", "beef stew", "pie", "pie crust"]


@st.composite
def session_only_logs(draw):
    """(click log, taxonomy) in which some co-session q2s have no kept click.

    Every user searches queries[0] and clicks its shared URL, then searches
    queries[1] and clicks a URL of their own, so queries[1] is never in the
    click counts; more searches follow, each on its query's shared URL or on
    a URL of the user's own.  The first taxonomy site names every word, so
    every query gets a vote; the others name a few."""
    queries = draw(st.lists(st.sampled_from(PHRASES), min_size=2, max_size=5, unique=True))
    later = [queries[0], *queries[2:]]
    lines, t = [], 0
    for u in range(draw(st.integers(2, 5))):
        steps = [(queries[0], True), (queries[1], False)]
        steps += draw(st.lists(st.tuples(st.sampled_from(later), st.booleans()), max_size=4))
        for q, shared in steps:
            t += 10
            url = f"http://{q.replace(' ', '-')}" if shared else f"http://u{u}-{t}"
            lines.append(f"{t}\tu{u}\t{q}\t{url}\t1\n")
    words = sorted({w for q in PHRASES for w in q.split()})
    sites = [words, *draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=3), max_size=3))]
    taxonomy = [f"http://t{i}\t{' '.join(ws)}\tpages\tFood/C{i % 2}\n" for i, ws in enumerate(sites)]
    return "".join(lines), "".join(taxonomy)


class TestSessionOnlyQueries:
    """The CLI row path names only queries with a feature record: a
    co-session q2 outside the click counts gets no category vote, so
    select_rows drops it before build_features would raise KeyError."""

    @settings(max_examples=60, deadline=None)
    @given(session_only_logs(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_rows_name_only_clicked_queries(self, tmp_path_factory, world, neg_ratio):
        d = tmp_path_factory.mktemp("session_only")
        (d / "clicks.tsv").write_text(world[0])
        (d / "taxonomy.tsv").write_text(world[1])
        args = argparse.Namespace(
            log=str(d / "clicks.tsv"), taxonomy=str(d / "taxonomy.tsv"), neg_ratio=neg_ratio, seed=0
        )
        stats, st_, lex = cli._prepare(args.log)
        assert any(q2 not in stats.cnt_q for _, q2, _ in pipeline.candidate_rows(stats, st_, lex))
        try:
            keys, build_row = cli._rows(args)
        except ValueError as exc:  # too few free pairs for the negatives
            assert str(exc).startswith("could not draw"), exc
            return
        assert all(q1 in stats.cnt_q and q2 in stats.cnt_q for q1, q2, _ in keys)
        assert len(pipeline.feature_matrix(keys, build_row)) == len(keys) + 1

    def test_six_line_log(self, tmp_path):
        log, tax = tmp_path / "clicks.tsv", tmp_path / "taxonomy.tsv"
        log.write_text(SESSION_ONLY_LOG)
        tax.write_text("http://a\tcurry recipes\tcurry recipe pages\tFood/Cooking\n")
        stats, st_, lex = cli._prepare(str(log))
        assert stats.queries == ["curry"]
        assert pipeline.candidate_rows(stats, st_, lex) == [("curry", "curry recipe", {"co_session": 1.0})]
        inputs = ["--log", log, "--taxonomy", tax]
        assert run("--out", tmp_path / "f", "features", *inputs) == (0, "")
        code, err = run("--out", tmp_path / "c", "crossval", *inputs)
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err, err


class TestNoProcessLeft:
    """features and crossval reap the child they fork, whatever it does."""

    @pytest.mark.parametrize("child", ["succeeds", "raises", "dies"])
    @pytest.mark.parametrize("command", ["features", "crossval"])
    def test_no_child_left(self, monkeypatch, corpus, tmp_path, command, child):
        parent = os.getpid()

        def failing_in_child(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() != parent:
                    if child == "dies":
                        os._exit(3)
                    raise ValueError("failed in the child")
                return fn(*args, **kwargs)

            return wrapper

        if child != "succeeds":
            # The features child computes its rows' targets; the crossval
            # child fits fold 1.
            monkeypatch.setattr(
                pipeline, "query_similarity", failing_in_child(pipeline.query_similarity)
            )
            monkeypatch.setattr(gbdt, "fit", failing_in_child(gbdt.fit))
        (tmp_path / "train.cfg").write_text("n_trees=3\nmin_leaf=1\n")
        code, err = run("--config", tmp_path / "train.cfg", "--out", tmp_path / "out", command,
                        "--log", corpus / "clicks.tsv", "--taxonomy", corpus / "taxonomy.tsv")
        assert (code, err) == {
            "succeeds": (0, ""),
            "raises": (1, "error: failed in the child\n"),
            "dies": (1, "error: the forked child process exited with status 3\n"),
        }[child]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Each makes any UTF-8 text invalid wherever it is inserted: a lone
# continuation byte, a byte UTF-8 never uses, a 3-byte sequence cut after
# two bytes and an encoded surrogate.
INVALID_UTF8 = [b"\x80", b"\xff", "\u3042".encode()[:2], b"\xed\xa0\x80"]


class TestFuzz:
    @pytest.mark.parametrize("name", ["log", "taxonomy", "features", "config", "model"])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0), st.sampled_from(INVALID_UTF8))
    def test_invalid_utf8(self, base, corpus, name, pos, bad):
        valid, commands = {
            "log": (corpus / "clicks.tsv", [lambda p: run("--out", corpus / "ingested", "ingest", "--log", p)]),
            "taxonomy": (corpus / "taxonomy.tsv", [
                lambda p: run("--out", corpus / "assigned", "assign", "--log", corpus / "clicks.tsv",
                              "--taxonomy", p),
            ]),
            "features": (base / "features.tsv", [lambda p: train(base, p), lambda p: rank(base, p)]),
            "config": (base / "train.cfg", [lambda p: train(base, base / "features.tsv", p)]),
            "model": (base / "model" / "model.txt", [lambda p: rank(base, base / "features.tsv", p)]),
        }[name]
        data = valid.read_bytes()
        assert data.isascii() and b"\r" not in data
        pos %= len(data) + 1
        path = valid.with_name("invalid_" + valid.name)
        path.write_bytes(data[:pos] + bad + data[pos:])
        line = data[:pos].count(b"\n") + 1
        for command in commands:
            code, err = command(path)
            assert code == 1 and err.startswith(f"error: {path}:{line}: invalid UTF-8: "), err

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0), st.sampled_from(INVALID_UTF8))
    def test_invalid_utf8_after_line_separator(self, corpus, pos, bad):
        # A U+2028 in the first record's user field precedes the bad byte;
        # its line is still counted by newlines alone.
        data = (corpus / "clicks.tsv").read_bytes().replace(b"\t", "\t\u2028".encode(), 1)
        start = data.index("\u2028".encode()) + 3
        pos = start + pos % (len(data) - start + 1)
        path = corpus / "invalid_separated_clicks.tsv"
        path.write_bytes(data[:pos] + bad + data[pos:])
        line = data[:pos].count(b"\n") + 1
        code, err = run("--out", corpus / "ingested", "ingest", "--log", path)
        assert code == 1 and err.startswith(f"error: {path}:{line}: invalid UTF-8: "), err

    def test_invalid_utf8_line_past_first_block(self, base, tmp_path):
        # The bad byte lies far past the first 8 KiB, where an offset within
        # a decoding block would no longer point at it.
        rng = np.random.default_rng(5)
        X, y = rng.random((64, len(FEATURES))), rng.random(64)
        model = gbdt.fit(X, y, gbdt.TrainConfig(n_trees=100), feature_names=FEATURE_NAMES)
        valid = tmp_path / "model.txt"
        gbdt.save_model(model, str(valid))
        lines = valid.read_bytes().split(b"\n")
        assert len(b"\n".join(lines[:999])) > 8192
        lines[999] = b"\xff" + lines[999]
        path = tmp_path / "invalid.txt"
        path.write_bytes(b"\n".join(lines))
        code, err = rank(base, base / "features.tsv", path)
        assert code == 1
        assert err.startswith(f"error: {path}:1000: invalid UTF-8: invalid start byte"), err

    @settings(max_examples=150, deadline=None)
    @given(edits(FEATURE_CHARS, FEATURE_TOKENS))
    def test_mutated_feature_matrix(self, base, mutation):
        path = base / "mutated.tsv"
        path.write_text(mutate((base / "features.tsv").read_text(), "\t", mutation))
        for command in (train, rank):
            code, err = command(base, path)
            assert clean_outcome(code, err, path), err

    @settings(max_examples=150, deadline=None)
    @given(edits(CONFIG_CHARS, CONFIG_TOKENS))
    def test_mutated_config(self, base, mutation):
        path = base / "mutated.cfg"
        path.write_text(mutate(CONFIG, "=", mutation))
        code, err = train(base, base / "features.tsv", path)
        assert clean_outcome(code, err, path), err

    @settings(max_examples=150, deadline=None)
    @given(edits(MODEL_CHARS, MODEL_TOKENS))
    def test_mutated_model(self, base, mutation):
        path = base / "mutated_model.txt"
        path.write_text(mutate((base / "model" / "model.txt").read_text(), "\t", mutation))
        code, err = rank(base, base / "features.tsv", path)
        assert clean_outcome(code, err, path), err
        if code == 0:  # only a file save_model writes loads, so a save gives it back
            gbdt.save_model(gbdt.load_model(str(path)), str(base / "resaved_model.txt"))
            assert (base / "resaved_model.txt").read_bytes() == path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(edits(LOG_CHARS, LOG_TOKENS))
    def test_mutated_click_log(self, corpus, mutation):
        path = corpus / "mutated_clicks.tsv"
        path.write_text(mutate((corpus / "clicks.tsv").read_text(), "\t", mutation), encoding="utf-8")
        code, err = run("--out", corpus / "ingested", "ingest", "--log", path)
        assert clean_outcome(code, err, path), err

    @settings(max_examples=150, deadline=None)
    @given(edits(TAXONOMY_CHARS, TAXONOMY_TOKENS))
    def test_mutated_taxonomy(self, corpus, mutation):
        path = corpus / "mutated_taxonomy.tsv"
        path.write_text(mutate((corpus / "taxonomy.tsv").read_text(), "\t", mutation), encoding="utf-8")
        code, err = run("--out", corpus / "assigned", "assign", "--log", corpus / "clicks.tsv",
                        "--taxonomy", path)
        assert clean_outcome(code, err, path), err
