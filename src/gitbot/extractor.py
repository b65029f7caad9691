"""Extract commit records from a local git repository via `git log`.

A record holds only what analysis reads: the selected role's name and
the message. Commits come in git's walk order, newest first, and that
order is what "newest" means for every contributor. git runs with `-z`
and a `tformat:` layout, so each record reads `name NUL message NUL NUL`:
its fields are separated by a NUL byte and the record ends with NUL-NUL,
the last NUL being git's record terminator. Any printable message
content survives parsing (git forbids NUL inside commit messages), and
no separator byte joins a record to the next one. git is asked for UTF-8
(`--encoding=UTF-8`), whatever the user's i18n.logOutputEncoding says,
and its output is decoded with surrogateescape, which keeps messages
byte-exact even when they are not valid UTF-8.

Only with `--start-date` does git also write the role's time, as integer
Unix seconds (`%at` / `%ct`) after the name: `name NUL time NUL message
NUL NUL`. Every time field is then parsed and checked, but read only to
compare with the cutoff. git stores dates with one-second resolution, so
comparing these integers is exactly comparing the UTC instants, whatever
the time zone each commit was recorded in.

The output is read and parsed block by block while git still writes
it. git runs with `GIT_FLUSH=0`: when its stdout is a pipe, git
otherwise flushes after every commit, and reading a 100,000-commit log
to its end took 84,579 reads instead of 1,325. Each block is cut after
its last whole record; the rest is carried into the next block. A cut
at a NUL never splits a UTF-8 sequence, because no multibyte sequence
contains a NUL byte. The reader is woken after each of git's 4 KiB
writes and then mostly runs on git's CPU, so the two share one CPU and
every step the parser spends on a commit adds to the wall time.
"""

import calendar
import os
import subprocess
import tempfile
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import ExtractionFailed, GitUnavailable, NotAGitRepository


class RawCommit(NamedTuple):
    name: str  # author or committer name, per the extracted role
    message: str


_BLOCK_BYTES = 1 << 18  # the most one read of git's stdout returns

# what `git rev-parse --local-env-vars` prints (git 2.39), less the three
# that carry config (GIT_CONFIG, GIT_CONFIG_PARAMETERS, GIT_CONFIG_COUNT):
# the variables that pick a repository or its objects for this process
# alone; a git hook runs with GIT_DIR among them set to the hook's repository
_LOCAL_ENV_VARS = frozenset({
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_OBJECT_DIRECTORY", "GIT_DIR", "GIT_WORK_TREE",
    "GIT_IMPLICIT_WORK_TREE", "GIT_GRAFT_FILE", "GIT_INDEX_FILE", "GIT_NO_REPLACE_OBJECTS",
    "GIT_REPLACE_REF_BASE", "GIT_PREFIX", "GIT_INTERNAL_SUPER_PREFIX", "GIT_SHALLOW_FILE",
    "GIT_COMMON_DIR",
})


def _pretty_format(committer: bool, timed: bool) -> str:
    name, stamp = ("%cn", "%ct") if committer else ("%an", "%at")
    fields = f"{name}%x00{stamp}" if timed else name
    return f"--pretty=tformat:{fields}%x00%B%x00"  # -z adds the terminating NUL


class _LogParser:
    """Parses `git log -z` output fed in blocks cut at arbitrary bytes.

    A record holds name, message and an empty terminator gap, 3 fields;
    with a `cutoff`, git also writes the time after the name, 4 fields.
    `feed` parses every record the bytes fed so far complete and keeps
    the rest; `close` checks that nothing is left and returns the
    commits, in output order, whose time is at least `cutoff`.

    git and this parser share one CPU (see the module docstring), so
    `feed` works on whole blocks: the fields of a block's records are
    taken by slicing its token list, with no Python step per field.
    """

    def __init__(self, cutoff: int | None = None):
        self._cutoff = cutoff
        self._fields = 3 if cutoff is None else 4
        self._tail = b""
        self._commits: list[RawCommit] = []

    def feed(self, block: bytes) -> None:
        fields = self._fields
        data = self._tail + block
        # data starts at a record and every record holds exactly `fields`
        # NULs, so the last whole record ends at the NUL with
        # count % fields NULs after it
        cut = len(data)
        for _ in range(data.count(b"\x00") % fields + 1):
            cut = data.rfind(b"\x00", 0, cut)
        cut += 1  # 0 when no record is whole
        self._tail = data[cut:]
        if not cut:
            return
        tokens = data[:cut].decode("utf-8", "surrogateescape").split("\x00")
        # each record contributes `fields` tokens; one trailing empty token remains
        if any(tokens[fields - 1 :: fields]):
            raise ExtractionFailed("unexpected git log record terminator")
        # tuple.__new__ makes each RawCommit in C; RawCommit(...) is a
        # Python call per commit
        commits = map(
            tuple.__new__,
            repeat(RawCommit),
            zip(tokens[0:-1:fields], tokens[fields - 2 :: fields]),
        )
        if self._cutoff is not None:
            try:
                stamps = [int(field) for field in tokens[1::fields]]
            except ValueError as exc:
                raise ExtractionFailed(f"unexpected git log time field: {exc}") from exc
            commits = compress(commits, [stamp >= self._cutoff for stamp in stamps])
        self._commits += commits

    def close(self) -> list[RawCommit]:
        if self._tail:
            raise ExtractionFailed("unexpected git log field layout: output ends inside a record")
        return self._commits


def extract_commits(repo_path, committer=False, start_date=None) -> list[RawCommit]:
    """All commits reachable from HEAD, newest first, named by author, or by committer.

    When start_date (a datetime.date) is given, only commits whose
    time for the selected role falls on or after UTC midnight of that
    date are returned. The filter runs here, over the whole
    history; git gets no date filter, because git's loses commits:
    - `--since` stops its walk at an older-dated commit (clock skew);
    - it compares commit dates, so it (and `--since-as-filter`) drops a
      rebased commit authored on or after the cutoff, committed before it.

    git's output is parsed as it arrives, one read (at most 256 KiB) at
    a time, with the filter applied to each block. git's environment is
    the caller's, with three things fixed:
    - `GIT_FLUSH=0`, which only makes it write in full buffers, as it
      does to a file;
    - `LC_ALL=C`, so that its messages are in English, as the error
      below is told apart by them (a translated "no commits yet" would
      be a failure, not an empty history); the log bytes do not change;
    - no variable that picks a repository or its objects
      (`_LOCAL_ENV_VARS`): an inherited `GIT_DIR`, as in a git hook,
      would read that repository instead of repo_path.
    `HOME` and the rest still reach git: `GIT_CONFIG_NOSYSTEM`, and the
    config set through the environment (`GIT_CONFIG_COUNT`,
    `GIT_CONFIG_PARAMETERS`), such as a container's `safe.directory`. It runs with `--no-show-signature`, as `log.showSignature`
    would write gpg's verification text into the name field. Its stderr
    goes to a temporary file, so git never blocks on a full stderr pipe
    while this reads stdout. On any error git is killed and reaped
    before the error propagates.
    """
    cutoff = None
    if start_date is not None:
        cutoff = calendar.timegm(start_date.timetuple())  # UTC midnight
    cmd = [
        "git", "-C", str(repo_path), "log", "-z", "--encoding=UTF-8", "--no-show-signature",
        _pretty_format(committer, timed=cutoff is not None),
    ]
    env = {name: value for name, value in os.environ.items() if name not in _LOCAL_ENV_VARS}
    env.update(GIT_FLUSH="0", LC_ALL="C")
    parser = _LogParser(cutoff)
    with tempfile.TemporaryFile() as errors:
        try:
            proc = subprocess.Popen(
                cmd,
                bufsize=0,
                stdout=subprocess.PIPE,
                stderr=errors,
                env=env,
            )
        except FileNotFoundError as exc:
            raise GitUnavailable("git executable not found on PATH") from exc
        with proc:  # closes stdout and reaps git on the way out
            try:
                while block := proc.stdout.read(_BLOCK_BYTES):
                    parser.feed(block)
            except BaseException:
                proc.kill()
                raise
        errors.seek(0)
        stderr = errors.read().decode("utf-8", "replace")

    if proc.returncode != 0:
        low = stderr.lower()
        if "not a git repository" in low:
            raise NotAGitRepository(f"{repo_path} is not a git repository")
        if "does not have any commits" in low or "bad default revision" in low:
            return []  # freshly initialized repository
        detail = stderr.strip().splitlines()[0] if stderr.strip() else ""
        raise ExtractionFailed(f"git log failed with exit code {proc.returncode}: {detail}")
    return parser.close()


def group_messages(commits: list[RawCommit]) -> dict[str, list[int]]:
    """Each contributor name's positions in `commits`, in ascending order.

    Input commits come newest first (as extract_commits returns them),
    so each name's first position is its newest commit.
    """
    positions: dict[str, list[int]] = {}
    get = positions.get
    for i, name in enumerate(map(itemgetter(0), commits)):
        group = get(name)
        if group is None:
            positions[name] = [i]
        else:
            group.append(i)
    return positions
