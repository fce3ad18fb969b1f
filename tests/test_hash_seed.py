"""Byte gate under other string hash seeds.

Python salts ``str`` hashes per process, so a set or dict iterated in hash
order could make an output depend on ``PYTHONHASHSEED``.  The commands that
mine, assign, featurize and cross-validate run here in fresh processes under
two fixed seeds and must give the digests ``test_output_bytes`` pins.
"""

import contextlib
import hashlib
import io
import subprocess
import sys

import pytest

from clickrec import cli
from conftest import cli_env
from test_output_bytes import CONFIG, DIGESTS

OUTPUTS = [
    "candidates/candidates.tsv",
    "assign/assignments.tsv",
    "features/features.tsv",
    "crossval/report.tsv",
    "crossval.txt",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("hash_seed")
    (d / "corpus.cfg").write_text(CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(d / "corpus.cfg"), "--seed", "5", "--out",
                         str(d / "data"), "synth"])
    assert code == 0
    return d


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(corpus, tmp_path, hash_seed):
    log, taxo = corpus / "data" / "clicks.tsv", corpus / "data" / "taxonomy.tsv"
    env = {**cli_env(), "PYTHONHASHSEED": hash_seed}
    for command, *argv in (
        ("candidates", "--log", log),
        ("assign", "--log", log, "--taxonomy", taxo),
        ("features", "--log", log, "--taxonomy", taxo),
        ("crossval", "--log", log, "--taxonomy", taxo),
    ):
        r = subprocess.run(
            [sys.executable, "-m", "clickrec.cli", "--config", str(corpus / "corpus.cfg"),
             "--seed", "5", "--out", str(tmp_path / command), command, *map(str, argv)],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert r.returncode == 0, r.stderr.decode()
        if command == "crossval":
            (tmp_path / "crossval.txt").write_bytes(r.stdout)
    got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in OUTPUTS}
    assert got == {n: DIGESTS[n] for n in OUTPUTS}
