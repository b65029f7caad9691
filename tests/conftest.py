import csv
import os
import subprocess

import pytest

CAROL_MESSAGES = [
    "fix off by one error in the pagination helper",
    "add regression test for empty config files",
    "rename internal buffer fields for clarity",
    "support nested includes when parsing manifests",
    "drop obsolete compatibility shim for older runtimes",
    "clean up dangling references after session close",
    "improve error message when the socket times out",
    "handle unicode filenames in the archive walker",
    "refactor retry logic into a shared decorator",
    "avoid double flush when the stream is already closed",
    "update contributor guide with release steps",
    "simplify cache invalidation on config reload",
    "move integration tests into their own directory",
    "add metrics counters for queue saturation",
    "fix race between shutdown hook and worker pool",
    "introduce feature flag for the new scheduler",
    "tweak backoff jitter to reduce thundering herds",
    "document the wire format of the sync protocol",
    "remove dead code left from the v2 migration",
    "guard against negative offsets in seek calls",
    "make the linter happy about shadowed imports",
    "speed up startup by lazy loading plugins",
    "correct typo in the deprecation warning text",
    "validate user supplied regex before compiling",
    "switch the docs build to the new theme",
    "prevent duplicate listeners on hot reload",
    "expose queue depth through the admin endpoint",
    "fall back to polling when inotify is unavailable",
    "trim trailing whitespace in generated headers",
    "bump copyright year in the license header",
]


def _git(repo, *args, env=None):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env=env,
    )


def init_repo(path):
    path.mkdir(parents=True, exist_ok=True)
    _git(path, "init", "-q", "-b", "main")
    _git(path, "config", "user.name", "fixture")
    _git(path, "config", "user.email", "fixture@example.com")
    return path


def add_commit(
    repo,
    author,
    message,
    date="2021-06-01T10:00:00+00:00",
    committer=None,
    committer_date=None,
    message_file=None,
):
    """Create one empty commit with controlled author/committer identities."""
    committer = committer or "ci-runner"
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME=author,
        GIT_AUTHOR_EMAIL=f"{author.replace(' ', '.')}@example.com",
        GIT_AUTHOR_DATE=date,
        GIT_COMMITTER_NAME=committer,
        GIT_COMMITTER_EMAIL="ci@example.com",
        GIT_COMMITTER_DATE=committer_date or date,
    )
    if message_file is not None:
        _git(repo, "commit", "-q", "--allow-empty", "--cleanup=verbatim",
             "-F", str(message_file), env=env)
    else:
        _git(repo, "commit", "-q", "--allow-empty", "-m", message, env=env)


@pytest.fixture
def make_repo(tmp_path):
    """Factory building a repo from (author, message, date) triples, oldest first."""

    def build(commits, name="repo"):
        repo = init_repo(tmp_path / name)
        for author, message, date in commits:
            add_commit(repo, author, message, date=date)
        return repo

    return build


@pytest.fixture(scope="session")
def cli_fixture_repo(tmp_path_factory):
    """Repository with an obvious bot, an obvious human, and a too-small corpus.

    release-bot: 50 identical messages; carol: 30 varied messages;
    dave: 7 messages (below the prediction minimum).
    """
    repo = init_repo(tmp_path_factory.mktemp("clirepo") / "repo")
    for i in range(50):
        add_commit(repo, "release-bot", "automated release build",
                   date=f"2021-03-01T10:{i % 60:02d}:00+00:00")
    for i, message in enumerate(CAROL_MESSAGES):
        add_commit(repo, "carol", message,
                   date=f"2021-03-02T10:{i % 60:02d}:00+00:00")
    for i in range(7):
        add_commit(repo, "dave", f"work in progress {i}",
                   date=f"2021-03-03T10:{i:02d}:00+00:00")
    return repo


@pytest.fixture
def default_field_limit():
    """csv's default field size limit, for one test: the loaders raise it for the process."""
    previous = csv.field_size_limit(131_072)
    yield
    csv.field_size_limit(previous)
