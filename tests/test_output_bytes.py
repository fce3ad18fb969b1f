"""Byte gate: every CLI output on a small fixed corpus keeps its sha256.

The corpus is the one acceptance criterion 7 uses (16 topics, 30 users,
6,000 events, seed 5) and models have 15 trees.  A change that alters any
digest below changes what clickrec computes; if that is intended, the new
digests go in with it and the change says why.  A second, hand-made log
with two trivial variants gates the variant-merge path.
"""

import contextlib
import hashlib
import io

from clickrec import cli, logs, taxonomy

CONFIG = "n_topics=16\nn_users=30\nn_events=6000\nn_trees=15\n"

DIGESTS = {
    "data/clicks.tsv": "4f069299925f74ef1235a2dd9cb0f352ca370b8dd9bc05a8c882fcec4206007b",
    "data/taxonomy.tsv": "fdc8139191fb104c0d1944ddd7c3269b9557249b4f8b296708a59fc93ce0c54b",
    "ingest/cleaned.tsv": "44b472ffc30fb44216a64d80805e662d4ecaf065a84ba48e1e11197628df84a0",
    "ingest/sessions.tsv": "5d0f1a93f7b362abe92e4d6c2d687d94c5cacae06d74b7f3d63f17d664af0cb1",
    "candidates/candidates.tsv": "2884d379a74ae7a48b82d9c0bd9c720363bdab7f1f87702ebbb11c0abdbdb601",
    "assign/assignments.tsv": "028412cb9b6a914db58f23f0ea6cc0ba5253f4b7d5a826ce1ea90d5093c39186",
    "features/features.tsv": "ac6101b9f7074fd199e045648851055e7619988c47d75897db5c8bf5c5fc6a7a",
    "model/model.txt": "ac0768a79714ae6fb613e42767833aa51390936561647f35e1896aaaa101b707",
    "rank.txt": "9bea094939742ecba3a718db578d8ff9620ad95a8cadfc46fe37846aac6c90b2",
    "crossval/report.tsv": "61474de160f4ef5f7184e274006e86528e3040c69d3707f5306d922034c9fb71",
    "crossval.txt": "4dfabff698caa87809d76875ef0f083ae719d20799ec636fd9f6249b68896a9f",
}


def test_cli_outputs_keep_their_digests(tmp_path):
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text(CONFIG)

    def run(out, *argv):
        """cli.main with the corpus config and seed; returns its stdout."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--config", str(cfg), "--seed", "5", "--out", str(tmp_path / out),
                             *map(str, argv)])
        assert code == 0
        return stdout.getvalue()

    log, taxo = tmp_path / "data" / "clicks.tsv", tmp_path / "data" / "taxonomy.tsv"
    run("data", "synth")
    run("ingest", "ingest", "--log", log)
    run("candidates", "candidates", "--log", log)
    run("assign", "assign", "--log", log, "--taxonomy", taxo)
    run("features", "features", "--log", log, "--taxonomy", taxo)
    features = tmp_path / "features" / "features.tsv"
    run("model", "train", "--features", features)
    (tmp_path / "rank.txt").write_text(
        run("rank", "rank", "--model", tmp_path / "model" / "model.txt", "--features", features,
            "--q1", "t000")
    )
    (tmp_path / "crossval.txt").write_text(
        run("crossval", "crossval", "--log", log, "--taxonomy", taxo)
    )
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS
    }
    assert got == DIGESTS


# A hand-made log in which "curry recipe" and "curry recipes" are trivial
# variants: both click the same two URLs, each by two users.  No synthetic
# corpus has variants, so only this gate covers the merge branch of
# cluster_trivial_variants and build_dataset's variant-mate filter.  Each
# user's sessions are lists of (query, url) clicks 60 s apart; sessions are
# 10,000 s apart and every click has rank 1.
C = "http://wiki.example/curry"
R1 = "http://recipes.example/curry"
R2 = "http://food.example/curry-recipes"
T = "http://thai.example/curry"
P = "http://pizza.example/"
D = "http://pizza.example/delivery"
PZR = "http://pizza.example/recipe"
VARIANT_SESSIONS = {
    "u1": [
        [("curry", C), ("curry recipe", R1), ("curry recipes", R2)],
        [("pizza", P), ("pizza delivery", D)],
    ],
    "u2": [
        [("curry", C), ("curry recipes", R1), ("curry recipe", R2)],
        [("pizza", P), ("pizza recipe", PZR)],
    ],
    "u3": [
        [("curry recipe", R1), ("curry recipes", R1), ("thai curry", T)],
        [("pizza delivery", D), ("pizza", P)],
    ],
    "u4": [
        [("curry recipes", R2), ("curry recipe", R2), ("curry", R1)],
        [("thai curry", T), ("curry", C)],
    ],
    "u5": [[("pizza recipe", PZR), ("pizza", P)], [("thai curry", C)]],
    "u6": [[("thai curry", C), ("curry", C)]],
}
VARIANT_TAXONOMY = [
    f"{R1}\tcurry recipes\teasy curry recipe ideas\tHome/Cooking/Curry",
    f"{C}\tcurry\tthe curry dish\tHome/Cooking/Curry",
    f"{T}\tthai curry\tthai curry guide\tHome/Cooking/Thai",
    f"{P}\tpizza\tpizza places\tHome/Dining/Pizza",
    f"{D}\tpizza delivery\torder pizza delivery\tBusiness/Delivery/Pizza",
    f"{PZR}\tpizza recipe\tpizza recipe dough\tHome/Cooking/Pizza",
]
VARIANT_DIGESTS = {
    "candidates/candidates.tsv": "be67fdf16ff80cf7c825e4ac165be69d5bd5a50b4c3efe1790c70ad2ee041a0d",
    "assign/assignments.tsv": "87cea7300a11fac09ef7cf05e7603786b881374dcc5cdacff72bdb2c14708e1e",
    "features/features.tsv": "71c36978768cbbe51297dae5d7f8c9635ec7fcabcc5ee900aa42352d8306232c",
}


def test_variant_merge_outputs_keep_their_digests(tmp_path):
    log, taxo = tmp_path / "clicks.tsv", tmp_path / "taxonomy.tsv"
    log.write_text("".join(
        f"{10_000 * k + 60 * i}\t{user}\t{q}\t{url}\t1\n"
        for user, sessions in VARIANT_SESSIONS.items()
        for k, session in enumerate(sessions)
        for i, (q, url) in enumerate(session)
    ))
    taxo.write_text("".join(f"{line}\n" for line in VARIANT_TAXONOMY))
    for command, *argv in (
        ("candidates",), ("assign", "--taxonomy", taxo), ("features", "--taxonomy", taxo)
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["--out", str(tmp_path / command), command, "--log", str(log), *map(str, argv)]
            )
        assert code == 0

    # The gate covers the merge path only while these hold.
    records = logs.parse_log(logs.read_lines(str(log))).records
    clusters = taxonomy.cluster_trivial_variants(logs.build_click_stats(logs.clean_log(records)))
    assert clusters["curry recipe"] == clusters["curry recipes"]
    variants = {("curry recipe", "curry recipes"), ("curry recipes", "curry recipe")}

    def pairs(name):
        return {tuple(line.split("\t")[:2]) for line in (tmp_path / name).read_text().splitlines()}

    assert variants <= pairs("candidates/candidates.tsv")
    assert not variants & pairs("features/features.tsv")
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in VARIANT_DIGESTS
    }
    assert got == VARIANT_DIGESTS
