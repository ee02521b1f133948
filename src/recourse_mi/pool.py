"""One pool of forked workers, driven by futures, for every task of an audit.

A TaskPool runs tagged tasks on one forked worker per CPU in the
process's affinity, or inline where that is one CPU or fork is missing.
Every task is given at construction and reaches the workers through
fork, so it may be a closure; only the arguments it is started with are
pickled. The executor forks all of its workers at its first task, before
it starts its own threads.

A result is taken by its tag, and a taken task is forgotten, so the pool
keeps nothing alive that its caller has dropped. Inline, a task runs
when its result is first taken, so that path holds no more results than
the workers' path. Each task's wall and process seconds are measured
where it runs, and its start from the pool's creation on perf_counter,
the system-wide CLOCK_MONOTONIC on Linux, which workers and pool share.
"""
from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Hashable, Mapping


class TaskPool:
    """Tagged tasks on forked workers; use it as a context manager.

    `inherited` holds every task by tag, each started with `start`; their
    number caps the worker count. On leaving the context
    with an exception, tasks that have not started are cancelled; the
    workers are always joined.
    """

    def __init__(self, inherited: Mapping[Hashable, Callable[..., Any]]):
        self._inherited = dict(inherited)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        self.workers = min(len(self._inherited), cpus)
        self._executor = None
        if self.workers >= 2 and "fork" in multiprocessing.get_all_start_methods():
            self._executor = ProcessPoolExecutor(
                self.workers, multiprocessing.get_context("fork"),
                initializer=_inherit, initargs=(self._inherited,))
        else:
            self.workers = 1
        self._tasks: dict[Hashable, Any] = {}  # tag -> Future, or the inline call
        self._created = time.perf_counter()
        self.times: dict[Hashable, dict[str, float]] = {}

    def __enter__(self) -> TaskPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=exc_type is not None)

    def start(self, tag: Hashable, *args: Any) -> None:
        """Queue the inherited task `tag` on `args`, which must pickle."""
        if self._executor is None:
            self._tasks[tag] = functools.partial(_timed, self._inherited[tag], *args)
        else:
            self._tasks[tag] = self._executor.submit(_timed, _run_inherited, tag, *args)

    def take(self, tag: Hashable) -> Any:
        """The result of task `tag`, once it has run; a worker's exception
        re-raises here."""
        task = self._tasks.pop(tag)
        value, start, wall, cpu = task() if self._executor is None else task.result()
        self.times[tag] = {"start_s": start - self._created, "wall_s": wall, "cpu_s": cpu}
        return value


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float, float, float]:
    start, cpu = time.perf_counter(), time.process_time()
    value = fn(*args)
    return value, start, time.perf_counter() - start, time.process_time() - cpu


# in a TaskPool worker, the inherited tasks of its pool; empty elsewhere
_INHERITED: dict[Hashable, Callable[..., Any]] = {}


def _inherit(tasks: dict[Hashable, Callable[..., Any]]) -> None:
    global _INHERITED
    _INHERITED = tasks


def _run_inherited(tag: Hashable, *args: Any) -> Any:
    return _INHERITED[tag](*args)
