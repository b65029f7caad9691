"""Extract commit records from a local git repository via `git log`.

A record holds only what analysis reads: the selected role's name, its
Unix time and the message. Fields are separated by a NUL byte and
records end with NUL-NUL, so any printable message content survives
parsing (git forbids NUL inside commit messages). Output is decoded
with surrogateescape, which keeps messages byte-exact even when they
are not valid UTF-8.

Times are integer Unix seconds (`%at` / `%ct`). git stores dates with
one-second resolution, so ordering or comparing these integers is
exactly ordering or comparing the UTC instants, whatever the time zone
each commit was recorded in.
"""

import calendar
import enum
import subprocess
from typing import NamedTuple

from .errors import ExtractionFailed, GitUnavailable, NotAGitRepository
from .features import MessageCorpus


class Role(enum.Enum):
    """Which commit participant a contributor name is taken from."""

    AUTHOR = "author"
    COMMITTER = "committer"


class RawCommit(NamedTuple):
    name: str  # author or committer name, per the extracted role
    timestamp: int  # that role's date, in Unix seconds
    message: str


_FIELDS_PER_RECORD = 4  # name, time, body, terminator gap


def _pretty_format(role: Role) -> str:
    fields = "%an%x00%at" if role is Role.AUTHOR else "%cn%x00%ct"
    return f"--pretty=format:{fields}%x00%B%x00%x00"


def _parse_log(stdout: str) -> list[RawCommit]:
    if not stdout:
        return []
    tokens = stdout.split("\x00")
    # each record contributes 4 tokens; one trailing empty token remains
    if len(tokens) % _FIELDS_PER_RECORD != 1 or tokens[-1] != "":
        raise ExtractionFailed("unexpected git log field layout")
    if any(tokens[3::_FIELDS_PER_RECORD]):
        raise ExtractionFailed("unexpected git log record terminator")
    # records are separated by a newline that fuses onto the next name
    names = [name.removeprefix("\n") for name in tokens[0:-1:_FIELDS_PER_RECORD]]
    try:
        stamps = [int(field) for field in tokens[1::_FIELDS_PER_RECORD]]
    except ValueError as exc:
        raise ExtractionFailed(f"unexpected git log time field: {exc}") from exc
    return list(map(RawCommit, names, stamps, tokens[2::_FIELDS_PER_RECORD]))


def extract_commits(repo_path, role: Role = Role.AUTHOR, start_date=None) -> list[RawCommit]:
    """All commits reachable from HEAD, newest first, named by `role`.

    When start_date (a datetime.date) is given, only commits whose
    timestamp for the selected role falls on or after UTC midnight of
    that date are returned. The filter runs here, over the whole
    history; git gets no date filter, because git's loses commits:
    - `--since` stops its walk at an older-dated commit (clock skew);
    - it compares commit dates, so it (and `--since-as-filter`) drops a
      rebased commit authored on or after the cutoff, committed before it.
    """
    cmd = ["git", "-C", str(repo_path), "log", _pretty_format(role)]
    try:
        proc = subprocess.run(cmd, capture_output=True)
    except FileNotFoundError as exc:
        raise GitUnavailable("git executable not found on PATH") from exc

    stderr = proc.stderr.decode("utf-8", "replace")
    if proc.returncode != 0:
        low = stderr.lower()
        if "not a git repository" in low:
            raise NotAGitRepository(f"{repo_path} is not a git repository")
        if "does not have any commits" in low or "bad default revision" in low:
            return []  # freshly initialized repository
        detail = stderr.strip().splitlines()[0] if stderr.strip() else ""
        raise ExtractionFailed(
            f"git log failed with exit code {proc.returncode}: {detail}", stderr=stderr
        )

    commits = _parse_log(proc.stdout.decode("utf-8", "surrogateescape"))
    if start_date is None:
        return commits
    cutoff = calendar.timegm(start_date.timetuple())  # UTC midnight
    return [commit for commit in commits if commit.timestamp >= cutoff]


def group_messages(commits: list[RawCommit]) -> dict[str, MessageCorpus]:
    """Group commit messages per contributor name.

    Input commits are expected newest first (as extract_commits returns
    them), so each corpus ends up most recent first.
    """
    messages: dict[str, list[str]] = {}
    timestamps: dict[str, list[int]] = {}
    for name, timestamp, message in commits:
        messages.setdefault(name, []).append(message)
        timestamps.setdefault(name, []).append(timestamp)
    return {
        name: MessageCorpus(
            contributor=name, messages=messages[name], timestamps=timestamps[name]
        )
        for name in messages
    }
