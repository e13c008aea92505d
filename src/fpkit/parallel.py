"""fpkit's one thread pool, and ``run_in_order``, which runs work items on it
and returns their results in item order, whatever the worker count;
``usable_cores`` counts the cores the process may run on."""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def usable_cores() -> int:
    """The size of the process's CPU affinity set, where the platform has one
    (Linux), else ``os.cpu_count()``, or 1 when that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool(n_workers: int) -> ThreadPoolExecutor:
    """One executor per worker count for the life of the process; a fresh
    pool per call churns thread arenas, and peak memory creeps with calls."""
    return ThreadPoolExecutor(max_workers=n_workers)


def run_in_order(work: Callable, items: Sequence, n_workers: int) -> list:
    """[work(item) for item in items], on up to ``n_workers`` threads.

    The calling thread and n_workers - 1 threads of the shared pool claim
    the items in order.  The caller works rather than waits so that its
    malloc arena, which the rest of the run uses anyway, takes a share of
    the items, not one more arena keeping an item's high-water mark.  After
    a raise no further item is claimed; once the claimed items end, the
    raise of the lowest item is re-raised, the one a serial walk meets.  At
    one worker (or one item) the calling thread alone is that serial walk.
    """
    results, errors = [None] * len(items), {}
    claims = itertools.count()

    def drain():
        while not errors:
            i = next(claims)
            if i >= len(items):
                return
            try:
                results[i] = work(items[i])
            except Exception as exc:
                errors[i] = exc

    helpers = [_pool(n_workers).submit(drain) for _ in range(min(n_workers, len(items)) - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results
