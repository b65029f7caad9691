"""How a gitbot process ends: `cli.run`, the entry of `python -m gitbot` and of the script."""

import importlib
import os
import pstats
import runpy
import subprocess
import sys
from types import SimpleNamespace

import pytest

from gitbot import cli
from gitbot.synthesis import synthetic_dataset

from .conftest import init_repo
from .test_cli import SRC, write_dataset_csv

EPIPE = b"error: [Errno 32] Broken pipe\n"


def python_env(unbuffered=False):
    """The environment of a child `python`, with gitbot's source on the path.

    Its stdout is block-buffered, as Python makes a pipe by default,
    unless unbuffered sets PYTHONUNBUFFERED.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def python(*args, unbuffered=False, **kwargs):
    """`python ARGS` run to its end in `python_env(unbuffered)`."""
    return subprocess.run([sys.executable, *args], env=python_env(unbuffered), timeout=120, **kwargs)


def to_a_closed_pipe(argv, unbuffered):
    """(status, stderr) of `python -m gitbot ARGV` writing to a pipe whose reader has closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "gitbot", *argv, unbuffered=unbuffered, stdout=write_end,
                      stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def crowded_repo(tmp_path_factory):
    """800 contributors of one commit each: `analyze --json` writes 102 KiB for them."""
    repo = init_repo(tmp_path_factory.mktemp("crowded") / "repo")
    stream = b"".join(
        b"commit refs/heads/main\n"
        + b"author drive-by-%04d <d%d@example.com> %d +0000\n" % (i, i, 1_600_000_000 + i)
        + b"committer ci <ci@example.com> %d +0000\n" % (1_600_000_000 + i)
        + b"data 9\nfix typo\n"
        for i in range(800)
    )
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"], input=stream, check=True,
                   capture_output=True)
    return repo


def test_analyze_output_larger_than_a_pipe_is_written_whole(capsys, crowded_repo):
    argv = ["analyze", "--json", str(crowded_repo)]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 64 * 1024  # more than a pipe holds, so the child waits on the reader
    proc = python("-m", "gitbot", *argv, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_train_writes_what_an_in_process_run_writes(capsys, caplog, tmp_path):
    dataset = synthetic_dataset(n_bots=15, n_humans=15, seed=5, max_messages=20)
    path = write_dataset_csv(tmp_path / "dataset.csv", dataset)
    model = tmp_path / "model.json"
    # --min-messages 12 excludes 6 of the 30 corpora, which train logs to stderr
    argv = ["train", str(path), "-o", str(model), "--folds", "3", "--min-messages", "12"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode(), model.read_bytes()
    excluded = "excluded 6 contributor-repository pairs with fewer than 12 messages"
    assert caplog.messages == [excluded]
    model.unlink()
    proc = python("-m", "gitbot", *argv, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{excluded}\n".encode()
    assert (proc.stdout, model.read_bytes()) == expected


def test_a_usage_error_exits_1(cli_fixture_repo):
    proc = python("-m", "gitbot", "analyze", "--min-commits", "0", str(cli_fixture_repo),
                  capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: gitbot analyze ")
    assert proc.stderr.endswith(
        "gitbot analyze: error: argument --min-commits: must be at least 1, got 0\n")


def test_a_plain_directory_exits_2(tmp_path):
    proc = python("-m", "gitbot", "analyze", str(tmp_path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {tmp_path}: {tmp_path} is not a git repository\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_large_output_to_a_closed_pipe_exits_2(crowded_repo, unbuffered):
    # the write in `main` fails, and `main` reports it
    assert to_a_closed_pipe(["analyze", "--json", str(crowded_repo)], unbuffered) == (2, EPIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_mid_output_ends_analyze_with_2(crowded_repo, unbuffered):
    # the output is larger than the pipe holds, so gitbot is still writing
    # when the reader closes: unbuffered, that write returns a short count,
    # and the rest of the output must still meet the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "gitbot", "analyze", "--json", str(crowded_repo)],
                            bufsize=0, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=python_env(unbuffered))
    with proc:
        taken = b""
        while len(taken) < 64 and (chunk := proc.stdout.read(64 - len(taken))):
            taken += chunk
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    assert len(taken) == 64 and taken.startswith(b'[\n  {\n    "name": "drive-by-0000",\n')
    assert (proc.returncode, stderr) == (2, EPIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_one_row_to_a_closed_pipe_exits_2(cli_fixture_repo, unbuffered):
    # unbuffered, the write in `main` fails; buffered, the row fits the
    # buffer and the flush in `main` fails. Either way `main` reports it,
    # and stdout then points at os.devnull, so the exit meets it no more
    argv = ["analyze", "--json", "--include", "dave", "--", str(cli_fixture_repo)]
    assert to_a_closed_pipe(argv, unbuffered) == (2, EPIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_train_to_a_closed_pipe_exits_2(tmp_path, unbuffered):
    dataset = synthetic_dataset(n_bots=8, n_humans=8, seed=5, max_messages=12)
    path = write_dataset_csv(tmp_path / "dataset.csv", dataset)
    argv = ["train", str(path), "-o", str(tmp_path / "model.json"), "--folds", "2"]
    assert to_a_closed_pipe(argv, unbuffered) == (2, EPIPE)


def test_cprofile_writes_its_profile(cli_fixture_repo, tmp_path):
    profile = tmp_path / "gitbot.prof"
    proc = python("-m", "cProfile", "-o", str(profile), "-m", "gitbot", "analyze", "--json",
                  str(cli_fixture_repo), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    functions = {(os.path.basename(file), name) for file, _, name in pstats.Stats(str(profile)).stats}
    assert ("cli.py", "main") in functions


class Stream:
    """A standard stream whose flush is logged, and raises error if one is set."""

    def __init__(self, name, log, error=None):
        self.name, self.log, self.error = name, log, error

    def flush(self):
        self.log.append(self.name)
        if self.error is not None:
            raise self.error


@pytest.fixture
def entry(monkeypatch):
    """`cli.run` with a `main` that returns 2, and no tracer, profiler or monitoring tool.

    Returns the log of the flushes and of the `os._exit` call, which returns.
    """
    log = []
    monkeypatch.setattr(cli, "main", lambda: 2)
    monkeypatch.setattr(os, "_exit", lambda status: log.append(("_exit", status)))
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.delattr(sys, "monitoring", raising=False)
    return log


def run_logged(monkeypatch, log, stdout_error=None):
    """`cli.run()` with streams that log their flushes into log.

    They are set here, in the test body: pytest sets its own streams
    after the fixtures and before the body.
    """
    monkeypatch.setattr(sys, "stdout", Stream("stdout", log, stdout_error))
    monkeypatch.setattr(sys, "stderr", Stream("stderr", log))
    cli.run()


@pytest.mark.parametrize("monitoring", [None, SimpleNamespace(get_tool=lambda tool_id: None)])
def test_run_flushes_stdout_then_stderr_then_exits_with_mains_status(entry, monkeypatch, monitoring):
    if monitoring is not None:
        monkeypatch.setattr(sys, "monitoring", monitoring, raising=False)
    run_logged(monkeypatch, entry)
    assert entry == ["stdout", "stderr", ("_exit", 2)]


@pytest.mark.parametrize("error", [SystemExit(1), KeyboardInterrupt(), RuntimeError("a defect")])
def test_run_lets_an_exception_from_main_through(entry, monkeypatch, error):
    def main():
        raise error

    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(type(error)) as excinfo:
        run_logged(monkeypatch, entry)
    assert excinfo.value is error
    assert entry == []


@pytest.mark.parametrize("error", [
    BrokenPipeError(32, "Broken pipe"), ValueError("I/O operation on closed file."),
])
def test_run_falls_back_to_sys_exit_when_a_flush_raises(entry, monkeypatch, error):
    with pytest.raises(SystemExit) as excinfo:
        run_logged(monkeypatch, entry, stdout_error=error)
    assert excinfo.value.code == 2
    assert entry == ["stdout"]


def test_run_falls_back_to_sys_exit_without_a_stdout(entry, monkeypatch):
    # Python sets sys.stdout to None when file descriptor 1 is closed
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 2
    assert entry == []


@pytest.mark.parametrize("observer", ["gettrace", "getprofile", "monitoring"])
def test_run_falls_back_to_sys_exit_under_a_tracer_or_profiler(entry, monkeypatch, observer):
    if observer == "monitoring":  # Python 3.12+: cProfile registers as tool 2
        tools = {2: "cProfile"}
        monkeypatch.setattr(sys, "monitoring", SimpleNamespace(get_tool=tools.get), raising=False)
    else:
        monkeypatch.setattr(sys, observer, lambda: print)
    with pytest.raises(SystemExit) as excinfo:
        run_logged(monkeypatch, entry)
    assert excinfo.value.code == 2
    assert entry == ["stdout", "stderr"]


def test_the_console_script_runs_the_entry_that_python_m_runs(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["gitbot"]
    module, _, name = target.partition(":")
    entered = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: entered.append(target))

    def _exit(status):  # a __main__ that ends the process some other way fails here instead
        raise AssertionError(f"`python -m gitbot` did not enter through {target}")

    monkeypatch.setattr(os, "_exit", _exit)
    runpy.run_module("gitbot", run_name="__main__")
    assert entered == [target]
