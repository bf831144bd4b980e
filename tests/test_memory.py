"""Peak Python-heap allocation of the batched steps of a run (tracemalloc).

`step` convolves one chunk of whole grids at a time, so beyond its result
it holds about one chunk's spectrum and sums, however many grids the batch
has. `seeded_patches` writes each patch into one zeroed batch, so it never
holds a second copy of the batch. `generate_dataset` holds the batch being
stepped and its result, not the starting batch too, and `train` holds the
pooled dataset and one batch's windows and activations, not windows for
the whole training set.
"""
import tracemalloc

import numpy as np
import pytest

import cellevo.rules as rules
from cellevo.config import DEFAULT_EVO_KERNEL, HaltingFitnessConfig
from cellevo.grid import seeded_patches
from cellevo.halting import generate_dataset, genome_to_rule
from cellevo.predictor import train
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


def test_train_peak_grows_by_at_most_half_the_grids():
    rng = np.random.default_rng(0)
    train(rng.random((8, 64, 64)), np.arange(8) % 2 == 0, epochs=1, seed=0)
    peaks = []
    for count in (128, 512):
        grids = rng.random((count, 64, 64))
        labels = np.arange(count) % 2 == 0
        peaks.append(traced_peak(lambda: train(grids, labels, epochs=1, seed=0))[1])
    # The 32^2 pooled grids are a quarter of the 64^2 grids' bytes and the
    # training rows 3/16; windows for the whole training set were 2.5x them.
    grown = (512 - 128) * 64 * 64 * 8
    assert peaks[1] - peaks[0] <= grown / 2, (peaks[1] - peaks[0]) / grown


def test_generate_dataset_holds_two_batches():
    rule = genome_to_rule(np.zeros(4), DEFAULT_EVO_KERNEL, 0.1)
    generate_dataset(rule, HaltingFitnessConfig(n_grids=4, horizon=2), 0)
    peaks = []
    for count in (64, 128):
        cfg = HaltingFitnessConfig(n_grids=count, horizon=4)
        peaks.append(traced_peak(lambda: generate_dataset(rule, cfg, 0))[1])
    # The batch being stepped and its result (2); holding the starting batch
    # through the run as well made it 3.
    slope = (peaks[1] - peaks[0]) / ((128 - 64) * 64 * 64 * 8)
    assert slope <= 2.5, slope
