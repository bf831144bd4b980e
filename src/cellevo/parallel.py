"""Order-preserving maps with optional process-pool fan-out.

Work items carry their own derived seeds, so results are identical for
any worker count; parallelism only changes wall-clock time.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager


@contextmanager
def worker_pool(workers: int):
    """Yield an order-preserving map(fn, items) for the length of one run.

    At one worker it is the builtin map in this process; otherwise it is
    the map of one process pool that every call inside the block reuses.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def parallel_map(fn, items, pool_map) -> list:
    """Apply fn to every item with a map yielded by worker_pool, in order."""
    return list(pool_map(fn, items))
