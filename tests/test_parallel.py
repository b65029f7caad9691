import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitbot import parallel
from gitbot.parallel import run_tasks, start_tasks

# Every test limits the CPUs the runner sees to at most three, so that it
# forks at most two workers.


@pytest.fixture(scope="module", autouse=True)
def time_limit():
    """Fail a run that hangs, say on a full pipe, instead of holding the suite.

    A forked worker does not inherit the alarm.
    """

    def expired(signum, frame):
        raise TimeoutError("the parallel runner tests took over 120 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cpus(n: int):
    """A patch under which `run_tasks` may run on n CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(task):
    return task * task


@settings(deadline=None, max_examples=60)
@given(tasks=st.lists(st.integers(-(2**70), 2**70), max_size=40), n_cpus=st.integers(1, 3))
def test_results_come_in_task_order(tasks, n_cpus):
    with cpus(n_cpus):
        assert run_tasks(square, tasks) == [task * task for task in tasks]
    assert_no_child_left()


@pytest.mark.parametrize("n_tasks", [parallel._MAX_ENTRIES + 1, 5_000, 20_000])
def test_a_task_list_longer_than_the_queue_holds(n_tasks):
    # 20,000 four-byte indices would not fit in a 64 KiB pipe
    with cpus(3):
        assert run_tasks(square, range(n_tasks)) == [i * i for i in range(n_tasks)]
    assert_no_child_left()


def test_every_process_takes_tasks_and_one_task_runs_here():
    def pid_after_a_nap(task):
        time.sleep(0.005)
        return os.getpid()

    with cpus(3):
        pids = run_tasks(pid_after_a_nap, range(30))
        assert len(set(pids)) == 3 and os.getpid() in pids
        assert run_tasks(pid_after_a_nap, [0]) == [os.getpid()]  # one task: no fork
    with cpus(1):
        assert set(run_tasks(pid_after_a_nap, range(5))) == {os.getpid()}
    assert_no_child_left()


class TaskFailed(Exception):
    pass


def failing_where(fails_here):
    """A task that raises TaskFailed where fails_here(pid) holds and naps elsewhere.

    Each run is written as a byte to a pipe, so that the caller can count
    the tasks run in every process.
    """
    caller = os.getpid()
    read_end, write_end = os.pipe()

    def task(index):
        os.write(write_end, b".")
        if fails_here(os.getpid(), caller):
            raise TaskFailed(index)
        time.sleep(0.01)
        return index

    def runs():
        os.close(write_end)
        with open(read_end, "rb") as handle:
            return len(handle.read())

    return task, runs


@pytest.mark.parametrize(
    "fails_here",
    [lambda pid, caller: pid == caller, lambda pid, caller: pid != caller],
    ids=["in-the-caller", "in-a-worker"],
)
def test_an_exception_reaches_the_caller_and_drops_the_queued_tasks(fails_here):
    task, runs = failing_where(fails_here)
    with cpus(3), pytest.raises(TaskFailed):
        run_tasks(task, range(1_000))
    assert runs() < 100  # the process that raised emptied the queue
    assert_no_child_left()


class TwoArgumentError(Exception):
    def __init__(self, message, detail):
        super().__init__(message)  # pickled with one argument: cannot be rebuilt
        self.detail = detail


def test_what_a_worker_cannot_send_fails_as_a_runtime_error():
    caller = os.getpid()

    def unsendable(task):
        time.sleep(0.01)
        if os.getpid() != caller:
            raise TwoArgumentError("no", "way")
        return task

    with cpus(2), pytest.raises(RuntimeError, match="could not be sent"):
        run_tasks(unsendable, range(20))
    with cpus(2), pytest.raises(RuntimeError, match="could not be sent"):
        run_tasks(lambda task: (time.sleep(0.01), lambda: task), range(20))
    assert_no_child_left()


def test_a_killed_worker_raises_child_process_error_instead_of_hanging():
    caller = os.getpid()

    def killed_in_a_worker(task):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.01)
        return task

    with cpus(3), pytest.raises(ChildProcessError, match="killed by signal 9"):
        run_tasks(killed_in_a_worker, range(20))
    assert_no_child_left()


def open_fds() -> set[int]:
    return set(map(int, os.listdir("/proc/self/fd")))


class CallerFailed(Exception):
    pass


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_a_caller_that_raises_before_join_leaves_no_worker_and_no_pipe(n_cpus):
    task, runs = failing_where(lambda pid, caller: False)  # naps 10 ms a task
    before = open_fds()
    with cpus(n_cpus), pytest.raises(CallerFailed):
        with start_tasks(task, range(1_000)):
            time.sleep(0.05)  # the workers take tasks meanwhile
            raise CallerFailed
    assert_no_child_left()
    assert open_fds() == before
    assert runs() < 100  # the queue was emptied: the workers stopped


def test_a_worker_runs_tasks_while_the_caller_works():
    caller = os.getpid()
    read_end, write_end = os.pipe()

    def task(index):
        if os.getpid() != caller:
            os.write(write_end, b".")
        return index

    try:
        with cpus(2), start_tasks(task, range(40)) as started:
            # returns only once a worker has run a task: the caller has not joined yet
            assert os.read(read_end, 1) == b"."
            assert started.join() == list(range(40))
    finally:
        os.close(read_end)
        os.close(write_end)
    assert_no_child_left()


def test_with_one_cpu_start_forks_nothing_and_join_runs_every_task():
    def no_fork():
        raise AssertionError("forked on one CPU")

    caller = os.getpid()
    with cpus(1), mock.patch.object(os, "fork", no_fork):
        with start_tasks(lambda task: (task, os.getpid()), range(5)) as started:
            results = started.join()
    assert results == [(task, caller) for task in range(5)]
