"""One pool of forked workers, on plain pipes, for every task of an audit.

A TaskPool runs tagged tasks on one forked worker per CPU in the
process's affinity, or inline where that is one CPU or fork is missing.
Every task is given at construction and reaches the workers through
fork, so it may be a closure; only the arguments it is started with and
its result are pickled. The pool forks its workers at its first task;
each reads (tag, args) from its own pipe and writes each result to
another, until its task pipe closes. `start` sends a task to an idle
worker, waiting for one while every worker is busy, and the calling
process reads results only while it waits, so the pool runs no helper
threads. Inline, `start` runs the task at once. Either way a task's
exception re-raises in `take`, with the formatted traceback of where it
ran as its cause.

A result is taken by its tag, and a taken task is forgotten, so the pool
keeps nothing alive that its caller has dropped. Each task's wall and
process seconds are measured where it runs, and its start from the
pool's creation on perf_counter, the system-wide CLOCK_MONOTONIC on
Linux, which workers and pool share.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import time
import traceback
from typing import Any, BinaryIO, Callable, Hashable, Mapping, NamedTuple


class TaskPool:
    """Tagged tasks on forked workers; use it as a context manager, one
    pool at a time (a second pool's workers would hold the first's task
    pipes open, so the first's workers would never see them end).

    `inherited` holds every task by tag, each started with `start`; their
    number caps the worker count. On leaving the context, results not
    taken are dropped, a worker still running a task is killed and the
    others exit as their task pipes close; every worker is reaped.
    """

    def __init__(self, inherited: Mapping[Hashable, Callable[..., Any]]):
        self._inherited = dict(inherited)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(len(self._inherited), cpus)
        self.workers = workers if workers >= 2 and hasattr(os, "fork") else 1
        self._forked: list[_Worker] = []
        self._busy: dict[int, tuple[_Worker, Hashable]] = {}  # result fd -> worker, its task
        # tag -> (ok, result) of _outcome; None while it runs on a worker
        self._tasks: dict[Hashable, Any] = {}
        self._created = time.perf_counter()
        self.times: dict[Hashable, dict[str, float]] = {}

    def __enter__(self) -> TaskPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tasks.clear()
        for worker, _ in self._busy.values():
            os.kill(worker.pid, signal.SIGKILL)
        for worker in self._forked:
            worker.end()
        self._forked, self._busy = [], {}

    def start(self, tag: Hashable, *args: Any) -> None:
        """Run the inherited task `tag` on `args`, which must pickle: inline
        at once, else on an idle worker, waiting for one while all are busy."""
        if self.workers == 1:
            self._tasks[tag] = _outcome(self._inherited[tag], args)
            return
        if not self._forked:
            self._fork()
        while len(self._busy) == len(self._forked):
            self._wait()
        worker = next(w for w in self._forked if w.results.fileno() not in self._busy)
        frame = memoryview(pickle.dumps((tag, args)))
        try:
            while frame:
                frame = frame[os.write(worker.tasks, frame):]
        except BrokenPipeError:  # the worker exited while idle
            raise self._lost(worker, tag) from None
        self._tasks[tag] = None
        self._busy[worker.results.fileno()] = worker, tag

    def take(self, tag: Hashable) -> Any:
        """The result of task `tag`, once it has run; its exception
        re-raises here."""
        while self._tasks[tag] is None:
            self._wait()
        ok, result = self._tasks.pop(tag)
        if not ok:
            exc, remote = result
            exc.__cause__ = _RemoteTraceback(remote)
            raise exc
        value, start, wall, cpu = result
        self.times[tag] = {"start_s": start - self._created, "wall_s": wall, "cpu_s": cpu}
        return value

    def _fork(self) -> None:
        for _ in range(self.workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker keeps no pipe end but its own two
                status = 1
                try:
                    for fd in (task_w, result_r, *(fd for w in self._forked
                                                   for fd in (w.tasks, w.results.fileno()))):
                        os.close(fd)
                    with os.fdopen(task_r, "rb") as tasks, os.fdopen(result_w, "wb") as results:
                        _serve(self._inherited, tasks, results)
                    status = 0
                finally:
                    os._exit(status)
            os.close(task_r)
            os.close(result_w)
            self._forked.append(_Worker(pid, task_w, os.fdopen(result_r, "rb")))

    def _wait(self) -> None:
        """Wait for a result and read every result that has come in."""
        ready, _, _ = select.select(list(self._busy), [], [])
        for fd in ready:
            worker, tag = self._busy.pop(fd)
            try:
                self._tasks[tag] = pickle.load(worker.results)
            except EOFError:
                raise self._lost(worker, tag) from None

    def _lost(self, worker: _Worker, tag: Hashable) -> RuntimeError:
        """Drop and reap `worker`, which has exited, and return the error
        that names the task `tag` it was given."""
        self._forked.remove(worker)
        return RuntimeError(f"task {tag!r} returned no result: its worker exited "
                            f"with status {worker.end()}")


class _Worker(NamedTuple):
    pid: int
    tasks: int  # the pipe the worker reads (tag, args) from
    results: BinaryIO  # the pipe it writes each task's result to

    def end(self) -> int:
        """Close the pipes, which ends the worker once it is idle, and reap
        it; its exit status (-signal if a signal ended it)."""
        os.close(self.tasks)
        self.results.close()
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the cause of the exception that its
    task raised, as concurrent.futures builds it."""

    def __init__(self, tb: str):
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def _serve(inherited: Mapping[Hashable, Callable[..., Any]], tasks: BinaryIO,
           results: BinaryIO) -> None:
    """A worker's loop: run each task read from `tasks` and write its
    _outcome to `results`, until `tasks` ends."""
    while True:
        try:
            tag, args = pickle.load(tasks)
        except EOFError:
            return
        result = _outcome(inherited[tag], args)
        try:
            frame = pickle.dumps(result)
        except Exception as err:  # the value or the exception does not pickle
            ok, (value, *rest) = result
            if ok:
                what, remote = "its result", _formatted(err)
            else:
                what, remote = f"its {type(value).__qualname__}: {value}", rest[0]
            failure = RuntimeError(f"task {tag!r} cannot send {what} back ({err})")
            frame = pickle.dumps((False, (failure, remote)))
        results.write(frame)
        results.flush()


def _outcome(fn: Callable[..., Any], args: tuple) -> tuple[bool, tuple]:
    """(True, (fn(*args), its start on perf_counter, its wall and process
    seconds)), or (False, (its exception, the formatted traceback))."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        value = fn(*args)
    except Exception as exc:
        return False, (exc, _formatted(exc))
    return True, (value, start, time.perf_counter() - start, time.process_time() - cpu)


def _formatted(exc: BaseException) -> str:
    """The traceback of `exc` as concurrent.futures sends it from a worker."""
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return '\n"""\n%s"""' % "".join(lines)
