"""Run one function over a list of tasks on every CPU this process may use.

`run_tasks(fn, tasks)` forks one worker per CPU in
`os.sched_getaffinity` but one, and the caller does the last share
itself. Every process takes the next queue entry, a task index, from
one pipe that the caller filled and closed before it forked, until the
pipe is empty. A worker sends its (index, result) pairs back pickled
over a pipe of its own, then leaves with `os._exit`. With one CPU, or
one task, `fn` runs in the caller and nothing is forked.

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
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    step = -(-len(tasks) // _MAX_ENTRIES)
    queue, queue_end = os.pipe()
    children: dict[int, int] = {}  # worker pid -> read end of its result pipe
    try:
        try:
            entries = b"".join(i.to_bytes(_ENTRY, "little") for i in range(0, len(tasks), step))
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
                _work_and_exit(fn, tasks, step, queue, result_end, [results, *children.values()])
            os.close(result_end)
            children[pid] = results
        shares = [_share(fn, tasks, step, queue)]
        for pid in list(children):
            data = _read_to_end(children[pid])
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            shares.append(_received(pid, status, data, len(tasks)))
    finally:
        _drain(queue)
        os.close(queue)
        for pid, results in children.items():
            os.close(results)  # a worker still sending gets EPIPE and leaves
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    out = [None] * len(tasks)
    for done, _ in shares:
        for index, result in done:
            out[index] = result
    return out


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
