import calendar
import json
import os
import signal
import subprocess
import sys
import time
from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gitbot.errors import ExtractionFailed, GitUnavailable, NotAGitRepository
from gitbot.extractor import RawCommit, _LogParser, _utc_midnight, extract_commits, group_messages

from .conftest import add_commit, init_repo

THREE_COMMITS = [
    ("alice", "first commit", "2021-01-01T09:00:00+00:00"),
    ("bob", "second commit", "2021-02-01T09:00:00+00:00"),
    ("alice", "third commit", "2021-03-01T09:00:00+00:00"),
]


def unix(iso):
    """Unix seconds of an ISO 8601 instant with a UTC offset."""
    return int(datetime.fromisoformat(iso).timestamp())


def parse_blocks(blocks, cutoff=None):
    parser = _LogParser(cutoff)
    for block in blocks:
        parser.feed(block)
    return parser.close()


def git_log_bytes(records, timed):
    """`git log -z` output for (name, time, message) byte records, newest first.

    The time field is written only when `timed`, as git writes it only
    under a `--start-date` cutoff.
    """
    return b"".join(
        name + b"\x00" + (str(stamp).encode() + b"\x00" if timed else b"") + message + b"\x00\x00"
        for name, stamp, message in records
    )


def fake_git(tmp_path, monkeypatch, body):
    """Put a `git` on PATH that runs the Python statements `body`."""
    bindir = tmp_path / "fakebin"
    bindir.mkdir()
    script = bindir / "git"
    script.write_text(f"#!{sys.executable}\nimport os, sys, time\n{body}\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")


@pytest.fixture
def alarm():
    """Fail a test that is still running after 20 seconds instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("extract_commits hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# name bytes: no NUL, no newline (git strips both); messages: no NUL, with
# multibyte UTF-8, invalid and truncated sequences and leading newlines
_PIECES = [b"a", b"Z", b" ", b"\n", b"\t", b"%x00", "\u00e9".encode(), "\u20ac".encode(),
           "\U0001f600".encode(), b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]
_name_bytes = st.lists(st.sampled_from([p for p in _PIECES if b"\n" not in p]), max_size=6)
_message_bytes = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12),
    st.binary(max_size=40).map(lambda b: [b.replace(b"\x00", b"")]),
)
_records = st.lists(
    st.tuples(
        _name_bytes.map(b"".join),
        st.integers(min_value=0, max_value=2**33),
        _message_bytes.map(b"".join),
    ),
    max_size=8,
)


@settings(max_examples=500)
@given(day=st.dates(min_value=date.min, max_value=date.max))
@example(day=date.min)
@example(day=date.max)
@example(day=date(1970, 1, 1))
def test_the_cutoff_is_utc_midnight_in_unix_seconds(day):
    assert _utc_midnight(day) == calendar.timegm(day.timetuple())


class TestExtractCommits:
    def test_extracts_all_commits_in_log_order(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        # git log is newest first; `git commit -m` ends the message with a newline
        assert extract_commits(repo) == [
            RawCommit(name, message + "\n") for name, message, _ in reversed(THREE_COMMITS)
        ]

    def test_start_date_after_everything_yields_empty(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        assert extract_commits(repo, start_date=date(2022, 1, 1)) == []

    def test_start_date_filters_older_commits(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        commits = extract_commits(repo, start_date=date(2021, 1, 15))
        assert [c.name for c in commits] == ["alice", "bob"]

    def test_start_date_compares_utc_instants(self, tmp_path):
        # 01:00 at +05:00 is 20:00Z the day before: before UTC midnight of
        # the start date, although its local calendar day is the start date.
        repo = init_repo(tmp_path / "zones")
        add_commit(
            repo,
            "alice",
            "authored the evening before in UTC",
            date="2021-01-15T01:00:00+05:00",
            committer_date="2021-02-01T00:00:00+00:00",
        )
        add_commit(
            repo,
            "bob",
            "authored at UTC midnight",
            date="2021-01-15T05:00:00+05:00",
            committer_date="2021-02-01T00:00:00+00:00",
        )
        commits = extract_commits(repo, start_date=date(2021, 1, 15))
        assert commits == [RawCommit("bob", "authored at UTC midnight\n")]

    def test_start_date_keeps_commits_early_on_that_day(self, make_repo):
        # the cutoff is UTC midnight, not the start date at the time of day
        # the command runs
        repo = make_repo([
            ("alice", "the day before", "2021-01-14T23:59:59+00:00"),
            ("bob", "just after midnight", "2021-01-15T00:00:01+00:00"),
        ])
        commits = extract_commits(repo, start_date=date(2021, 1, 15))
        assert commits == [RawCommit("bob", "just after midnight\n")]

    def test_start_date_before_1973(self, make_repo):
        # a cutoff below 10^8 Unix seconds is still compared as a time
        repo = make_repo([("alice", "early", "1970-01-02T00:00:01+00:00")])
        assert [c.name for c in extract_commits(repo, start_date=date(1970, 1, 2))] == ["alice"]
        assert extract_commits(repo, start_date=date(1970, 1, 3)) == []

    @pytest.mark.parametrize("committer", [False, True], ids=["author", "committer"])
    def test_start_date_keeps_newer_commits_behind_an_older_dated_one(self, make_repo, committer):
        # clock skew: a 1990 commit sits between commits of 2021
        history = [
            ("alice", "on the start date", "2021-01-15T10:00:00+00:00"),
            ("bob", "the day after", "2021-01-16T00:00:00+00:00"),
            ("carol", "from a skewed clock", "1990-01-01T00:00:00+00:00"),
            ("dave", "days later", "2021-01-20T00:00:00+00:00"),
        ]
        repo = make_repo(history)  # each commit's author and committer dates agree
        kept = extract_commits(repo, committer=committer, start_date=date(2021, 1, 15))
        cutoff = unix("2021-01-15T00:00:00+00:00")
        assert kept == [
            RawCommit("ci-runner" if committer else name, message + "\n")
            for name, message, iso in reversed(history)
            if unix(iso) >= cutoff
        ]
        assert len(kept) == 3

    def test_start_date_reads_the_selected_roles_date(self, tmp_path):
        # a rebased commit: authored after the start date, committed before it
        repo = init_repo(tmp_path / "rebased")
        add_commit(
            repo,
            "alice",
            "rebased onto an older base",
            date="2021-01-25T00:00:00+00:00",
            committer_date="2021-01-10T00:00:00+00:00",
        )
        start = date(2021, 1, 15)
        assert extract_commits(repo, start_date=start) == [
            RawCommit("alice", "rebased onto an older base\n")
        ]
        assert extract_commits(repo, committer=True, start_date=start) == []

    def test_start_date_monotone(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        earlier = set(extract_commits(repo, start_date=date(2021, 1, 15)))
        later = set(extract_commits(repo, start_date=date(2021, 2, 15)))
        assert len(earlier) == 2 and len(later) == 1
        assert later <= earlier

    @pytest.mark.parametrize(
        "stdout,cutoff",
        [
            (b"alice\x00msg\n\x00", None),  # a record cut short
            (b"alice\x001609459200\x00msg\n\x00", 0),
            (b"alice\x00msg\n\x00stray\x00", None),  # non-empty terminator
            (b"alice\x001609459200\x00msg\n\x00stray\x00", 0),
            (b"alice\x002021-01-01T00:00:00+00:00\x00msg\n\x00\x00", 0),  # ISO, not Unix
            (b"alice\x00\x00msg\n\x00\x00", 0),  # empty time field
            (b"alice\x00msg\n\x00\x00bob\x00ms", None),  # ends in the next record
            (b"alice\x001609459200\x00msg\n\x00\x00bob\x0016094", 0),
            (b"alice\x00msg\x00stray\x00\x00", None),  # text where the terminator belongs
            (b"alice\x001609459200\x00msg\x00stray\x00", 0),
            (b"alice\x001609459200\x00msg\x00\x00", None),  # a time nobody asked for
        ],
        ids=["token-count", "token-count-timed", "terminator", "terminator-timed", "iso-time",
             "empty-time", "ends-mid-record", "ends-mid-record-timed", "misplaced-terminator",
             "misplaced-terminator-timed", "unrequested-time"],
    )
    def test_malformed_log_output_fails(self, stdout, cutoff):
        with pytest.raises(ExtractionFailed):
            parse_blocks([stdout], cutoff)

    @settings(max_examples=300, deadline=None)
    @given(records=_records, data=st.data())
    def test_blocks_cut_anywhere_parse_to_the_records(self, records, data):
        def expected(cutoff=0):
            return [
                RawCommit(
                    name.decode("utf-8", "surrogateescape"),
                    message.decode("utf-8", "surrogateescape"),
                )
                for name, stamp, message in records
                if stamp >= cutoff
            ]

        # decoding keeps every byte: messages encode back to what git wrote
        assert [c.message.encode("utf-8", "surrogateescape") for c in expected()] == [
            message for _, _, message in records
        ]
        # 3 fields without a cutoff, 4 (the time after the name) with one
        for cutoff in (None, 2**32):
            stream = git_log_bytes(records, timed=cutoff is not None)
            cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))
            pieces = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
            parsed = expected(cutoff or 0)
            assert parse_blocks(pieces, cutoff) == parse_blocks([stream], cutoff) == parsed

    def test_extraction_idempotent(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        assert extract_commits(repo) == extract_commits(repo)

    def test_message_with_delimiter_like_content_roundtrips(self, tmp_path):
        repo = init_repo(tmp_path / "tricky")
        message = (
            "subject line with %x00 literal and | pipes\n"
            "\n"
            "body, with \"quotes\", commas, tabs\t...\n"
            "trailing blank lines keep\n\n\n"
        )
        message_file = tmp_path / "msg.txt"
        message_file.write_text(message, encoding="utf-8")
        add_commit(repo, "alice", None, message_file=message_file)
        commits = extract_commits(repo)
        assert commits[0].message == message

    def test_output_is_utf8_whatever_the_log_output_encoding(self, tmp_path):
        repo = init_repo(tmp_path / "latin")
        add_commit(repo, "Zoë", "café au lait")
        # a repository's config asking git to re-encode its log output as Latin-1
        subprocess.run(
            ["git", "-C", str(repo), "config", "i18n.logOutputEncoding", "latin1"], check=True
        )
        [commit] = extract_commits(repo)
        assert commit.name.encode("utf-8", "surrogateescape") == "Zoë".encode("utf-8")
        assert commit.message.encode("utf-8", "surrogateescape") == "café au lait\n".encode("utf-8")

    def test_role_selects_timestamp_source(self, tmp_path):
        # the mirror of a rebased commit: committed after the start date,
        # authored before it; each role brings its own name and date
        repo = init_repo(tmp_path / "roles")
        add_commit(
            repo,
            "alice",
            "authored early, committed late",
            date="2021-01-01T00:00:00+00:00",
            committer_date="2021-06-01T00:00:00+00:00",
        )
        start = date(2021, 3, 1)
        assert extract_commits(repo) == [
            RawCommit("alice", "authored early, committed late\n")
        ]
        assert extract_commits(repo, start_date=start) == []
        assert extract_commits(repo, committer=True, start_date=start) == [
            RawCommit("ci-runner", "authored early, committed late\n")
        ]

    def test_empty_repository_yields_no_commits(self, tmp_path, monkeypatch):
        repo = init_repo(tmp_path / "empty")
        # git's errors are told apart in English, whatever the caller's language
        monkeypatch.setenv("LC_ALL", "C.UTF-8")
        monkeypatch.setenv("LANGUAGE", "de")
        assert extract_commits(repo) == []

    def test_not_a_repository(self, tmp_path, monkeypatch):
        plain_dir = tmp_path / "plain"
        plain_dir.mkdir()
        monkeypatch.setenv("LC_ALL", "C.UTF-8")
        monkeypatch.setenv("LANGUAGE", "de")
        with pytest.raises(NotAGitRepository, match="is not a git repository"):
            extract_commits(plain_dir)

    def test_an_inherited_git_dir_does_not_pick_the_repository(self, make_repo, monkeypatch):
        # a git hook runs with GIT_DIR set to its own repository
        other = make_repo([("mallory", "elsewhere", "2021-01-01T09:00:00+00:00")], name="other")
        repo = make_repo(THREE_COMMITS)
        monkeypatch.setenv("GIT_DIR", str(other / ".git"))
        monkeypatch.setenv("GIT_WORK_TREE", str(other))
        assert extract_commits(repo) == [
            RawCommit(name, message + "\n") for name, message, _ in reversed(THREE_COMMITS)
        ]

    @pytest.mark.parametrize("config", [
        {"GIT_CONFIG_COUNT": "1", "GIT_CONFIG_KEY_0": "core.useReplaceRefs",
         "GIT_CONFIG_VALUE_0": "false"},
        {"GIT_CONFIG_PARAMETERS": "'core.usereplacerefs'='false'"},
    ], ids=["count", "parameters"])
    def test_config_set_through_the_environment_reaches_git(self, make_repo, monkeypatch, config):
        # HEAD is replaced by its parent, unless the caller's config says
        # not to use replace refs, as `git -c` or a container may set it
        repo = make_repo(THREE_COMMITS[:2])
        subprocess.run(["git", "-C", str(repo), "replace", "HEAD", "HEAD~1"], check=True)
        assert extract_commits(repo) == [RawCommit("alice", "first commit\n")]
        for name, value in config.items():
            monkeypatch.setenv(name, value)
        assert extract_commits(repo) == [
            RawCommit("bob", "second commit\n"), RawCommit("alice", "first commit\n")
        ]

    def test_show_signature_config_leaves_names_alone(self, tmp_path):
        # a signed commit, and a gpg that says it verified it: with
        # log.showSignature, git log writes that text before the format
        repo = init_repo(tmp_path / "signed")
        gpg = tmp_path / "gpg-stub"
        gpg.write_text("#!/bin/sh\necho 'gpg: Signature made by a stub' >&2\n")
        gpg.chmod(0o755)
        git = ["git", "-C", str(repo)]
        empty_tree = subprocess.run(
            [*git, "hash-object", "-t", "tree", "-w", "--stdin"],
            input=b"", capture_output=True, check=True,
        ).stdout.decode().strip()
        commit = (
            f"tree {empty_tree}\n"
            "author Bot <bot@example.com> 1600000000 +0000\n"
            "committer Bot <bot@example.com> 1600000000 +0000\n"
            "gpgsig -----BEGIN PGP SIGNATURE-----\n \n stub\n -----END PGP SIGNATURE-----\n"
            "\nsigned release\n"
        )
        sha = subprocess.run(
            [*git, "hash-object", "-t", "commit", "-w", "--stdin"],
            input=commit.encode(), capture_output=True, check=True,
        ).stdout.decode().strip()
        for args in (["update-ref", "HEAD", sha], ["config", "gpg.program", str(gpg)],
                     ["config", "log.showSignature", "true"]):
            subprocess.run([*git, *args], check=True)
        assert extract_commits(repo) == [RawCommit("Bot", "signed release\n")]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises((NotAGitRepository, ExtractionFailed)):
            extract_commits(tmp_path / "missing")

    def test_git_unavailable(self, make_repo, monkeypatch, tmp_path):
        repo = make_repo(THREE_COMMITS[:1])
        empty = tmp_path / "emptybin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        with pytest.raises(GitUnavailable):
            extract_commits(repo)

    def test_chatty_failing_git_reports_its_stderr(self, tmp_path, monkeypatch, alarm):
        # far more than a pipe holds: git must never wait on its stderr
        chatter = "fatal: chatty\n" + "e" * (200 * 1024)
        fake_git(tmp_path, monkeypatch, f"sys.stderr.write({chatter!r})\nsys.exit(128)")
        with pytest.raises(ExtractionFailed, match="exit code 128: fatal: chatty") as info:
            extract_commits(tmp_path)
        assert str(info.value) == "git log failed with exit code 128: fatal: chatty"

    def test_malformed_output_kills_and_reaps_git(self, tmp_path, monkeypatch, alarm):
        pid_file = tmp_path / "git.pid"
        fake_git(tmp_path, monkeypatch, (
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stdout.buffer.write(b'alice\\x00not a time\\x00msg\\x00\\x00')\n"
            "sys.stdout.flush()\n"
            "time.sleep(60)"
        ))
        start = time.monotonic()
        with pytest.raises(ExtractionFailed, match="time field"):
            extract_commits(tmp_path, start_date=date(2021, 1, 1))
        assert time.monotonic() - start < 10
        with pytest.raises(ProcessLookupError):  # neither running nor a zombie
            os.kill(int(pid_file.read_text()), 0)

    def test_git_gets_unflushed_output_and_the_callers_environment(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("GIT_FLUSH", "1")
        fake_git(tmp_path, monkeypatch, (
            "message = (os.environ['GIT_FLUSH'] + ' ' + os.environ['HOME']).encode()\n"
            "sys.stdout.buffer.write(b'env\\x00' + message + b'\\x00\\x00')"
        ))
        assert extract_commits(tmp_path) == [RawCommit("env", f"0 {home}")]

    @pytest.mark.parametrize("committer,stamp,other", [
        (False, "%at", "%ct"),
        (True, "%ct", "%at"),
    ], ids=["author", "committer"])
    def test_git_command_line(self, tmp_path, monkeypatch, committer, stamp, other):
        # every variable that would pick another repository, as the real git
        # lists them, less the three that carry the caller's config
        config = {"GIT_CONFIG": "1", "GIT_CONFIG_PARAMETERS": "2", "GIT_CONFIG_COUNT": "3"}
        local = subprocess.run(
            ["git", "rev-parse", "--local-env-vars"], capture_output=True, check=True, text=True
        ).stdout.split()
        assert {"GIT_DIR", "GIT_WORK_TREE", *config} <= set(local)
        local = [name for name in local if name not in config]
        for name in local:
            monkeypatch.setenv(name, str(tmp_path / "elsewhere"))
        kept = {"HOME": str(tmp_path / "home"), "GIT_CONFIG_NOSYSTEM": "1", "LANGUAGE": "de",
                **config}
        for name, value in kept.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setenv("LC_ALL", "de_DE.UTF-8")
        seen_file = tmp_path / "seen.json"
        fake_git(tmp_path, monkeypatch, (
            f"import json\njson.dump([sys.argv[1:], dict(os.environ)], open({str(seen_file)!r}, 'w'))"
        ))

        def git_argv(**options):
            assert extract_commits(tmp_path, committer=committer, **options) == []
            argv, env = json.loads(seen_file.read_text())
            [pretty] = [arg for arg in argv if arg.startswith("--pretty=")]
            assert {"-z", "--encoding=UTF-8", "--no-show-signature"} <= set(argv)
            assert pretty.startswith("--pretty=tformat:")
            assert not set(local) & set(env)
            assert {name: env.get(name) for name in kept} == kept
            assert (env["LC_ALL"], env["GIT_FLUSH"]) == ("C", "0")
            return pretty

        untimed = git_argv()
        assert "%at" not in untimed and "%ct" not in untimed
        timed = git_argv(start_date=date(2021, 1, 1))
        assert stamp in timed and other not in timed


class TestGroupMessages:
    def test_counts_per_author(self, make_repo):
        commits = [("alice", f"msg {i}", f"2021-01-{i+1:02d}T09:00:00+00:00") for i in range(5)]
        commits += [("bob", f"note {i}", f"2021-02-{i+1:02d}T09:00:00+00:00") for i in range(2)]
        repo = make_repo(commits)
        groups = group_messages(extract_commits(repo))
        assert set(groups) == {"alice", "bob"}
        assert len(groups["alice"]) == 5
        assert len(groups["bob"]) == 2

    def test_group_by_committer(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        groups = group_messages(extract_commits(repo, committer=True))
        assert set(groups) == {"ci-runner"}  # conftest commits as ci-runner
        assert len(groups["ci-runner"]) == 3

    def test_empty_input(self):
        assert group_messages([]) == {}

    def test_corpus_order_most_recent_first(self, make_repo):
        history = [("alice", f"msg {i}", f"2021-01-{i+1:02d}T09:00:00+00:00") for i in range(4)]
        repo = make_repo(history)
        commits = extract_commits(repo)
        groups = group_messages(commits)
        assert groups["alice"] == [0, 1, 2, 3]
        messages = [commits[i].message.strip() for i in groups["alice"]]
        assert messages == ["msg 3", "msg 2", "msg 1", "msg 0"]

    @settings(max_examples=200)
    @given(names=st.lists(st.sampled_from(["alice", "bob", "carol", "", "\udc80"]) | st.text(max_size=3)))
    def test_equals_a_setdefault_grouping_in_dict_order(self, names):
        reference: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            reference.setdefault(name, []).append(i)
        groups = group_messages([RawCommit(name, f"m{i}") for i, name in enumerate(names)])
        assert list(groups.items()) == list(reference.items())

    def test_corpus_sizes_sum_to_commit_count(self, make_repo):
        repo = make_repo(THREE_COMMITS)
        commits = extract_commits(repo)
        groups = group_messages(commits)
        assert sum(len(c) for c in groups.values()) == len(commits)
