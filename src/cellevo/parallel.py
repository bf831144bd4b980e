"""Order-preserving maps with optional process-pool fan-out.

Work items carry their own derived seeds, so results are identical for
any worker count; parallelism only changes wall-clock time. Inside a
pool block every process runs BLAS on one thread, so the only
parallelism is the worker processes and the float bits of a matmul do
not depend on how many workers there are.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (set, get) thread-count functions of the OpenBLAS that numpy wheels
# bundle (scipy-openblas64) and of a system OpenBLAS.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_controls() -> list:
    """(set, get) for every OpenBLAS mapped into this process, if any.

    Reads the mapped library paths from /proc/self/maps, so it finds the
    copy numpy loaded; it finds nothing where that file does not exist.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5]})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                controls.append((getattr(lib, set_name), getattr(lib, get_name)))
                break
    return controls


def _use_one_blas_thread() -> None:
    """Pool initializer: this worker runs BLAS on one thread for its life."""
    for set_threads, _ in _openblas_thread_controls():
        set_threads(1)


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore the count after."""
    controls = _openblas_thread_controls()
    before = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), n in zip(controls, before):
            set_threads(n)


@contextmanager
def worker_pool(workers: int):
    """Yield an order-preserving map(fn, items) for the length of one run.

    At one worker it is the builtin map in this process; otherwise it is
    the map of one process pool that every call inside the block reuses.
    Either way this process and every worker run BLAS on one thread.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    with _one_blas_thread():
        if workers == 1:
            yield map
            return
        # Imported here: it pulls in multiprocessing, subprocess and logging,
        # which a one-worker run never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_use_one_blas_thread
        ) as pool:
            yield pool.map


@dataclass
class SearchResult:
    best: object  # the run's best member
    best_fitness: object  # its score; float(score) is its total
    history: list[dict]
    evaluations: int


def run_search(strategy, generations: int, evaluate, describe,
               workers: int) -> SearchResult:
    """Run ask -> evaluate(g, candidates, pool_map) -> tell for generations
    g = 1, 2, ... on one pool. `tell` returns the members the strategy now
    ranks and their scores, whose float() is a total. History entry g holds
    the totals' max and mean, then describe(member, score) of the first
    member with that max. The run's best is the first member to reach the
    run's top total; a later tie does not displace it.
    """
    result = SearchResult(None, None, [], 0)
    with worker_pool(workers) as pool_map:
        for gen in range(1, generations + 1):
            candidates = strategy.ask()
            scores = evaluate(gen, candidates, pool_map)
            members, scores = strategy.tell(candidates, scores)
            result.evaluations += len(candidates)
            totals = np.array([float(s) for s in scores])
            i = int(np.argmax(totals))
            if gen == 1 or totals[i] > float(result.best_fitness):
                result.best, result.best_fitness = members[i], scores[i]
            record = {"generation": gen, "best_fitness": float(totals[i]),
                      "mean_fitness": float(totals.mean())}
            result.history.append({**record, **describe(members[i], scores[i])})
    return result
