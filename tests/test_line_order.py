"""Outputs do not depend on the order of the click log's lines.

Hypothesis permutes the lines of random logs in which no user has two
events at one timestamp; every output keeps its bytes.  ``cleaned.tsv``
keeps the first-seen order of the records by design and is not compared.
When one user has two events at one timestamp, the log order breaks the
tie; a hand-made log pins that rule.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from clickrec import cli

WORDS = ["curry", "pizza", "thai", "recipe", "delivery", "easy", "dough", "menu"]
CATEGORIES = ["Home/Cooking", "Home/Cooking/Thai", "Home/Dining", "Business/Delivery"]
OUTPUTS = [
    "ingest/sessions.tsv",
    "candidates/candidates.tsv",
    "assign/assignments.tsv",
    "features/features.tsv",
    "crossval/report.tsv",
]


COMMANDS = ("ingest", "candidates", "assign", "features", "crossval")


def run_commands(tmp_path, log_lines, taxonomy_lines, commands=COMMANDS) -> dict[str, bytes]:
    """Every output, stdout, stderr and exit code of the commands on one log."""
    (tmp_path / "clicks.tsv").write_text("".join(f"{ln}\n" for ln in log_lines))
    (tmp_path / "taxonomy.tsv").write_text("".join(f"{ln}\n" for ln in taxonomy_lines))
    (tmp_path / "train.cfg").write_text("n_trees=4\n")
    got = {}
    for command in commands:
        argv = ["--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / command),
                command, "--log", str(tmp_path / "clicks.tsv")]
        if command not in ("ingest", "candidates"):
            argv += ["--taxonomy", str(tmp_path / "taxonomy.tsv")]
        if command in ("features", "crossval"):
            argv += ["--neg-ratio", "0.3"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        got[command] = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}".encode()
    for name in OUTPUTS:
        path = tmp_path / name
        got[name] = path.read_bytes() if path.exists() else None
        if path.exists():
            path.unlink()
    return got


@st.composite
def logs_without_user_ties(draw):
    """A click log and taxonomy over a few multi-word queries and URLs.

    Each user's timestamps strictly increase, and some gaps exceed the
    session timeout; timestamps of different users may coincide.
    """
    queries = draw(st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=2, unique=True).map(" ".join),
        min_size=8, max_size=16, unique=True,
    ))
    urls = [f"http://s{i}.example/" for i in range(draw(st.integers(4, 12)))]
    # Few URLs per query, so that users repeat (query, url) pairs and
    # cleaning keeps them.
    clicked = {
        q: draw(st.lists(st.sampled_from(urls), min_size=1, max_size=2, unique=True))
        for q in queries
    }
    lines = []
    for u in range(draw(st.integers(3, 8))):
        t = 0
        for _ in range(draw(st.integers(5, 40))):
            t += draw(st.sampled_from([1, 7, 60, 300, 301, 5000]))
            q = draw(st.sampled_from(queries))
            url = draw(st.sampled_from(clicked[q]))
            lines.append(f"{t}\tu{u}\t{q}\t{url}\t{draw(st.integers(1, 4))}")
    taxonomy = []
    for url in urls:
        title = " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=5)))
        taxonomy.append(f"{url}\t{title}\tabout {title}\t{draw(st.sampled_from(CATEGORIES))}")
    return lines, taxonomy


@settings(max_examples=15, deadline=None)
@given(world=logs_without_user_ties(), data=st.data())
def test_outputs_do_not_depend_on_line_order(tmp_path_factory, world, data):
    lines, taxonomy = world
    shuffled = data.draw(st.permutations(lines))
    tmp_path = tmp_path_factory.mktemp("line_order")
    assert run_commands(tmp_path, shuffled, taxonomy) == run_commands(tmp_path, lines, taxonomy)


def test_user_ties_keep_log_order(tmp_path):
    # u1 has two events at t=10; the one logged first comes first.
    head = ["0\tu1\tcurry\thttp://a.example/\t1"]
    b, c = "10\tu1\tthai curry\thttp://b.example/\t1", "10\tu1\tcurry recipe\thttp://c.example/\t2"
    for tied, order in (([b, c], ["thai curry", "curry recipe"]),
                        ([c, b], ["curry recipe", "thai curry"])):
        sessions = run_commands(tmp_path, head + tied, [], ["ingest"])["ingest/sessions.tsv"]
        assert sessions.decode().splitlines() == [
            "u1\t0\t0\tcurry", f"u1\t0\t10\t{order[0]}", f"u1\t0\t10\t{order[1]}"
        ]
