"""Deterministic fan-out of pure functions over worker processes.

Each parallel_map call that needs workers starts its own process pool
and shuts it down before it returns, so no pool, worker or task outlives
the call.  Every command makes at most one such call, so a CLI run still
starts at most one pool; a library caller that maps many small batches
pays a start (about POOL_START_S) per call.  The pool forks where the
platform can, whatever its default start method: under spawn or
forkserver (the Linux default from Python 3.14) every worker would
re-import the caller's main module, which breaks scripts without a
``__main__`` guard, and each start would cost about 0.4 s more.  The
process-pool modules are imported only when a pool starts, so a run on
one worker never loads multiprocessing.

Items and results cross between processes by pickle, and the parent
unpickles every result in one thread.  A second worker therefore pays
only when an item's work outweighs pickling it and its result: fn
should return compact values.  A verify grid's worker takes a slab of
points and writes their encoded report lines to the slab's own spill
file; that file is its only side effect, and it returns only its line
counts per prime and its failed reports, never CongruenceReports per
point, whose Fraction fields cost more to unpickle than a bailey5 check
costs to run, nor the text.

When fn raises, parallel_map cancels the items not yet started and
waits for the running ones before it re-raises, so no task writes into
a spill directory that its caller then removes.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Items per task aim at this many tasks per worker: enough to balance
# uneven items, few enough that pickling each task stays cheap.
_TASKS_PER_WORKER = 64

# Importing, starting and stopping a 2-worker pool: 0.06 to 0.1 s on a
# 2-core machine.  Split over 2 workers, work repays it past twice that.
POOL_START_S = 0.08


def cap_workers(requested: int, cpus: int) -> int:
    """The worker count used for a request: at most cpus, at least 1."""
    return max(1, min(requested, cpus))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if fork else None
    chunk = max(1, len(seq) // (_TASKS_PER_WORKER * workers))
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    try:
        return list(pool.map(fn, seq, chunksize=chunk))
    finally:
        # After an error (fn raised or a worker died) this drops the items
        # not yet started and waits for the running ones.
        pool.shutdown(cancel_futures=True)
