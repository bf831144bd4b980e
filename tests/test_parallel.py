"""worker_pool runs one OpenBLAS thread in every process; run_search keeps
the first member to reach a run's top total."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np  # also loads OpenBLAS into this process
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellevo.config import EvolveCaConfig, PatternEvoConfig
from cellevo.halting import evolve_rules
from cellevo.parallel import run_search, worker_pool
from cellevo.patterns import PatternFitness, TruncationGA

THREAD_FUNCS = {
    "scipy_openblas_get_num_threads64_": "scipy_openblas_set_num_threads64_",
    "openblas_get_num_threads": "openblas_set_num_threads",
}


def openblas_libs():
    """(get, set) thread-count functions of every OpenBLAS mapped in here."""
    with open("/proc/self/maps") as fh:
        rows = [line.split(None, 5) for line in fh]
    paths = sorted({r[5].strip() for r in rows
                    if len(r) == 6 and "openblas" in r[5]})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in THREAD_FUNCS.items():
            if hasattr(lib, get_name):
                found.append((getattr(lib, get_name), getattr(lib, set_name)))
                break
    return found


def blas_threads(_=None):
    return [get() for get, _ in openblas_libs()]


@pytest.fixture
def two_blas_threads():
    """Start from two threads, so a one-thread block shows on any host."""
    try:
        libs = openblas_libs()
    except OSError:
        libs = []
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in libs]
    for _, set_threads in libs:
        set_threads(2)
    yield [2] * len(libs)
    for (_, set_threads), n in zip(libs, before):
        set_threads(n)


def test_one_worker_runs_one_blas_thread_and_restores(two_blas_threads):
    one = [1] * len(two_blas_threads)
    with worker_pool(1) as pool_map:
        assert blas_threads() == one
        assert list(pool_map(blas_threads, range(2))) == [one] * 2
    assert blas_threads() == two_blas_threads


def test_every_worker_runs_one_blas_thread(two_blas_threads):
    one = [1] * len(two_blas_threads)
    with worker_pool(2) as pool_map:
        seen = list(pool_map(blas_threads, range(8)))
        assert blas_threads() == one
    assert seen == [one] * 8
    assert blas_threads() == two_blas_threads


def test_restores_after_an_exception(two_blas_threads):
    with pytest.raises(RuntimeError):
        with worker_pool(1):
            raise RuntimeError("stop")
    assert blas_threads() == two_blas_threads


def test_importing_the_cli_loads_no_process_pool():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, cellevo.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


TOTALS = (-1.0, 0.0, 1.0)  # three values, so ties are common


def drawn_total(salt, *path):
    return TOTALS[int(np.random.default_rng([salt, *path]).integers(3))]


@settings(max_examples=40, deadline=None)
@given(salt=st.integers(0, 2**32 - 1), population=st.integers(2, 9),
       truncation=st.sampled_from([0.1, 0.25, 0.5]),
       generations=st.integers(1, 6))
def test_ga_best_is_final_population_argmax(salt, population, truncation,
                                            generations):
    cfg = PatternEvoConfig(population=population, truncation=truncation,
                           generations=generations)
    ga = TruncationGA(cfg, salt)

    def evaluate(gen, genomes, pool_map):
        return [PatternFitness(0.0, 0.0, True, drawn_total(salt, gen, i))
                for i in range(len(genomes))]

    result = run_search(ga, generations, evaluate, lambda m, s: {}, workers=1)
    best = int(np.argmax([f.total for f in ga.fitnesses]))
    assert result.best is ga.population[best]
    assert result.best_fitness is ga.fitnesses[best]


@settings(max_examples=40, deadline=None)
@given(salt=st.integers(0, 2**32 - 1), mode=st.sampled_from(["simple", "random"]),
       popsize=st.integers(2, 6), generations=st.integers(1, 6))
def test_rule_best_is_first_history_entry_with_top_fitness(salt, mode, popsize,
                                                           generations):
    # simple mode runs CmaEs, random mode UniformSearch.
    cfg = EvolveCaConfig(mode=mode, popsize=popsize, generations=generations)
    result = evolve_rules(cfg, salt, lambda raw, path: drawn_total(salt, *path))
    top = max(result.history, key=lambda h: h["best_fitness"])
    assert [float(v) for v in result.best] == top["best_genome"]
    assert result.best_fitness == top["best_fitness"]
