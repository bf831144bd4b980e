"""Peak Python-heap allocation of a step and of a starting batch (tracemalloc).

`step` convolves one chunk of whole grids at a time, so beyond its result
it holds about one chunk's spectrum and sums, however many grids the batch
has. `seeded_patches` writes each patch into one zeroed batch, so it never
holds a second copy of the batch.
"""
import tracemalloc

import numpy as np
import pytest

import cellevo.rules as rules
from cellevo.grid import seeded_patches
from cellevo.rules import load_preset, step


def traced_peak(f):
    """(f(), the peak bytes traced while f ran)."""
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["Orbium", "s7"])
def test_step_peak_is_result_plus_a_few_chunks(name):
    rule = load_preset(name)
    per_chunk = rules.CHUNK_CELLS // (64 * 64)
    # A chunk's complex spectrum, its sums and the inverse transform's copy
    # of the spectrum come to about three chunks of float64.
    bound = 4 * rules.CHUNK_CELLS * 8
    for count in (4 * per_chunk + 3, 8 * per_chunk + 3):
        state = np.random.default_rng(count).random((count, 64, 64))
        step(state[:1], rule)  # fill the kernel and spectrum caches
        out, peak = traced_peak(lambda: step(state, rule))
        assert out.nbytes == state.nbytes
        assert peak - out.nbytes <= bound, (count, peak - out.nbytes)


def test_seeded_patches_peak_is_batch_plus_one_patch():
    side, p, count = 128, 64, 32
    seeded_patches(1, side, p, 0)  # import and warm the generator code
    grids, peak = traced_peak(lambda: seeded_patches(count, side, p, 7))
    patch = p * p * 8
    # Slack for the small objects each patch's generator leaves to the
    # cycle collector; a second batch would be 4 MB.
    assert peak <= grids.nbytes + patch + 16 * 1024, peak - grids.nbytes
