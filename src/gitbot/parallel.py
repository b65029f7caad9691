"""Run one function over a list of tasks on every CPU this process may use.

`run_tasks(fn, tasks)` forks one worker per CPU in
`os.sched_getaffinity` but one, and the caller does the last share
itself. Every process takes the next queue entry, a task index, from
one pipe that the caller filled and closed before it forked, until the
pipe is empty. A worker sends its (index, result) pairs back pickled
over a pipe of its own, then leaves with `os._exit`. With one CPU, or
one task, `fn` runs in the caller and nothing is forked.

`run_tasks` is `start_tasks` then `join`. A caller with work of its own
that the tasks do not need starts them, does that work while the
workers run, then joins: the caller takes what is left of the queue,
collects every share and reaps the workers. `dataset.featurize` imports
numpy between the two, so that a worker clusters corpora meanwhile.

The workers are forked, so `fn` and the tasks reach them as memory they
inherit, not as pickles; only results and exceptions cross a process
boundary. A spawned worker would start an interpreter and import numpy
again, about 0.2 s. gitbot starts no threads, so forking it is safe.
This module imports neither numpy nor `multiprocessing`: a fork and two
pipes per worker cost less than an executor (25 no-op tasks on a 2-CPU
machine, after numpy is imported: 1.6 ms, against 11.6 ms for a forked
2-worker `ProcessPoolExecutor`), and the caller works instead of
waiting.
"""

import os
import pickle

# Queue entries are 4-byte task indices, all written before the first
# fork, so the caller never blocks on a full pipe. Every Linux pipe holds
# at least one page, and 1,024 entries fill 4 KiB; a longer task list has
# each entry stand for a run of consecutive tasks.
_ENTRY = 4
_MAX_ENTRIES = 1024


def run_tasks(fn, tasks) -> list:
    """`fn(task)` of every task, in task order, computed on every CPU this process may use.

    An exception raised in any share reaches the caller with its type:
    of several, the one raised by the earliest task. After an exception
    the process that raised it empties the queue, so the tasks still
    queued are dropped. A worker that dies, say killed for memory,
    raises `ChildProcessError`. Every worker is reaped, and every pipe
    closed, before this returns or raises. tasks is a sequence: it is
    indexed, and its length read.
    """
    with start_tasks(fn, tasks) as started:
        return started.join()


def start_tasks(fn, tasks) -> "_Started":
    """`run_tasks(fn, tasks)` begun: the workers are forked and take tasks at once.

    The caller may do other work, then calls `join`, which runs what is
    left of the queue in the caller and returns what `run_tasks` would
    return, or raises what it would raise. Use it in a `with` block:
    leaving the block reaps every worker and closes every pipe, also
    when the caller raises before `join`; the queue is then emptied, so
    each worker stops after its current task. With one CPU, or one task,
    nothing is forked, and `join` runs every task.
    """
    return _Started(fn, tasks)


class _Started:
    """The workers and pipes of one `start_tasks` call."""

    def __init__(self, fn, tasks):
        self._fn, self._tasks = fn, tasks
        self._queue = None  # read end of the queue, while it is open
        self._children: dict[int, int] = {}  # worker pid -> read end of its result pipe
        workers = min(len(os.sched_getaffinity(0)), len(tasks))
        if workers <= 1:
            return
        self._step = -(-len(tasks) // _MAX_ENTRIES)
        self._queue, queue_end = os.pipe()
        try:
            try:
                entries = b"".join(i.to_bytes(_ENTRY, "little")
                                   for i in range(0, len(tasks), self._step))
                os.write(queue_end, entries)  # at most 4 KiB into an empty pipe: written whole
            finally:
                os.close(queue_end)
            for _ in range(workers - 1):
                results, result_end = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(results)
                    os.close(result_end)
                    raise
                if pid == 0:
                    _work_and_exit(fn, tasks, self._step, self._queue, result_end,
                                   [results, *self._children.values()])
                os.close(result_end)
                self._children[pid] = results
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def join(self) -> list:
        """What `run_tasks(fn, tasks)` returns: the caller's share, then every worker's."""
        fn, tasks = self._fn, self._tasks
        if self._queue is None:
            return [fn(task) for task in tasks]
        try:
            shares = [_share(fn, tasks, self._step, self._queue)]
            for pid in list(self._children):
                data = _read_to_end(self._children[pid])
                _, status = os.waitpid(pid, 0)
                os.close(self._children.pop(pid))
                shares.append(_received(pid, status, data, len(tasks)))
        finally:
            self.close()
        failures = [failure for _, failure in shares if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        out = [None] * len(tasks)
        for done, _ in shares:
            for index, result in done:
                out[index] = result
        return out

    def close(self):
        """Empty the queue, then reap every worker and close every pipe; idempotent."""
        if self._queue is not None:
            _drain(self._queue)
            os.close(self._queue)
            self._queue = None
        while self._children:
            pid, results = self._children.popitem()
            os.close(results)  # a worker still sending gets EPIPE and leaves
            os.waitpid(pid, 0)


def _share(fn, tasks, step, queue):
    """Run tasks from the queue until it is empty: (done, failure).

    done holds (index, result) pairs; failure is None or (index,
    exception) of the task that raised, after which the queue is emptied.
    """
    done = []
    index = -1
    try:
        while entry := os.read(queue, _ENTRY):
            start = int.from_bytes(entry, "little")
            for index in range(start, min(start + step, len(tasks))):
                done.append((index, fn(tasks[index])))
    except Exception as exc:
        _drain(queue)
        return done, (index, exc)
    return done, None


def _drain(queue: int):
    """Read the queue to its end, so that no process takes another task from it."""
    while os.read(queue, 1 << 16):
        pass


def _work_and_exit(fn, tasks, step, queue, result_end, read_ends):
    """A worker's life: its share, sent pickled over result_end, then `os._exit`.

    read_ends are the result pipes' read ends that the fork copied; they
    are closed first, so that a worker whose reader is gone gets EPIPE
    instead of waiting. Nothing raised here reaches the caller's frames:
    the worker leaves from the `finally`, with status 0 only once its
    share is sent.
    """
    status = 1
    try:
        for end in read_ends:
            os.close(end)
        share = _share(fn, tasks, step, queue)
        try:
            data = pickle.dumps(share, pickle.HIGHEST_PROTOCOL)
            if share[1] is not None:
                pickle.loads(data)  # an exception that cannot be rebuilt fails here, not there
        except Exception as exc:
            failure = RuntimeError(f"a worker's result could not be sent: {exc!r}")
            data = pickle.dumps(([], (share[1][0] if share[1] else len(tasks), failure)))
        view = memoryview(data)
        while view:
            view = view[os.write(result_end, view):]
        status = 0
    finally:
        os._exit(status)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _received(pid: int, status: int, data: bytes, last: int):
    """A reaped worker's (done, failure), from what it sent and its wait status.

    A worker that did not exit cleanly fails with `ChildProcessError` at
    index `last`, after every task, so that an exception raised by a
    task wins.
    """
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(data)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return [], (last, ChildProcessError(f"worker process {pid} {how} before sending its results"))
