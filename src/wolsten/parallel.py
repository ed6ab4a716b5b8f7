"""Deterministic fan-out of pure functions over worker processes.

One process pool serves every call in a process: the first call that
needs workers starts it, later calls with the same worker count reuse
it, and it is shut down at interpreter exit.  A CLI run therefore pays
for worker start-up once, not once per prime or grid.  The pool forks
where the platform can, whatever its default start method: under spawn
or forkserver (the Linux default from Python 3.14) every worker would
re-import the caller's main module, which breaks scripts without a
``__main__`` guard, and each start would cost about 0.4 s more.  The
process-pool modules are imported only when a pool starts, so a run on
one worker never loads multiprocessing.

Items and results cross between processes by pickle, and the parent
unpickles every result in one thread.  A second worker therefore pays
only when an item's work outweighs pickling it and its result: fn
should return compact values.  The verify grid's workers return encoded
report lines, not CongruenceReports, whose Fraction fields cost more to
unpickle than a bailey5 check costs to run.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

# Items per task aim at this many tasks per worker: enough to balance
# uneven items, few enough that pickling each task stays cheap.
_TASKS_PER_WORKER = 64

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def cap_workers(requested: int, cpus: int) -> int:
    """The worker count used for a request: at most cpus, at least 1."""
    return max(1, min(requested, cpus))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            _shutdown_pool()
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = "fork" in multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork") if fork else None
            _pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _pool_workers = workers
        return _pool


def _shutdown_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown(cancel_futures=True)
        _pool = None


atexit.register(_shutdown_pool)


def parallel_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:
    """Map fn over items, preserving input order regardless of scheduling.

    fn must be a module-level function (picklable).  workers is capped
    at the usable CPU count; one worker, or a single item, runs inline.
    Items travel in chunks of len(items) // (64 * workers), at least 1.
    Results are identical for every worker count.
    """
    seq = list(items)
    workers = cap_workers(workers, _usable_cpus())
    if workers == 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    from concurrent.futures.process import BrokenProcessPool

    pool = _shared_pool(workers)
    chunk = max(1, len(seq) // (_TASKS_PER_WORKER * workers))
    try:
        return list(pool.map(fn, seq, chunksize=chunk))
    except BrokenProcessPool:
        # A worker died; start a fresh pool at the next call.
        with _pool_lock:
            _shutdown_pool()
        raise
