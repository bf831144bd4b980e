"""Convolution engine: agreement with the oracles, wrap handling, reductions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellevo.grid import (
    Kernel,
    block_mean,
    convolve,
    place_centered,
    seeded_patches,
    substream,
)
from conftest import loop_convolve, shift_add_convolve


def random_kernel(rng, radius):
    """Asymmetric positive weights inside the disc, normalized."""
    side = 2 * radius + 1
    w = rng.random((side, side))
    ax = np.arange(-radius, radius + 1)
    w[np.hypot(ax[:, None], ax[None, :]) > radius] = 0.0
    return Kernel(radius, w / w.sum())


def delta_kernel(radius):
    w = np.zeros((2 * radius + 1, 2 * radius + 1))
    w[radius, radius] = 1.0
    return Kernel(radius, w)


class TestKernel:
    def test_weights_frozen(self):
        k = delta_kernel(1)
        with pytest.raises(ValueError):
            k.weights[0, 0] = 1.0


class TestConvolve:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        state = rng.random((12, 15))
        k = random_kernel(rng, 3)
        expected = loop_convolve(state, k.weights, k.radius)
        assert np.abs(shift_add_convolve(state, k) - expected).max() < 1e-12
        assert np.abs(convolve(state, k) - expected).max() < 1e-9

    def test_takes_any_weights(self):
        # Mixed signs, nonzero corners and a sum other than 1: convolution
        # correlates whatever weights it is given.
        rng = np.random.default_rng(13)
        batch = rng.random((3, 11, 13))
        k = Kernel(3, rng.uniform(-1, 2, (7, 7)))
        out = convolve(batch, k)
        for i in range(3):
            expected = loop_convolve(batch[i], k.weights, k.radius)
            assert np.abs(out[i] - expected).max() < 1e-9
        assert np.abs(out - shift_add_convolve(batch, k)).max() < 1e-12

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        state = rng.random((16, 16))
        for radius in (0, 1, 4):
            out = shift_add_convolve(state, delta_kernel(radius))
            assert np.abs(out - state).max() < 1e-12

    def test_constant_field_is_fixed_point(self):
        # Any normalized kernel maps a constant field to itself.
        k = random_kernel(np.random.default_rng(3), 2)
        out = shift_add_convolve(np.full((9, 9), 0.4), k)
        assert np.abs(out - 0.4).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(8, 24),
        w=st.integers(8, 24),
        radius=st.integers(1, 3),
    )
    def test_backends_agree(self, seed, h, w, radius):
        rng = np.random.default_rng(seed)
        state = rng.random((h, w))
        k = random_kernel(rng, radius)
        a = convolve(state, k)
        b = shift_add_convolve(state, k)
        assert np.abs(a - b).max() < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dy=st.integers(-10, 10),
        dx=st.integers(-10, 10),
    )
    def test_translation_equivariance(self, seed, dy, dx):
        rng = np.random.default_rng(seed)
        state = rng.random((14, 14))
        k = random_kernel(rng, 2)
        for conv in (shift_add_convolve, convolve):
            rolled = conv(np.roll(state, (dy, dx), axis=(0, 1)), k)
            base = np.roll(conv(state, k), (dy, dx), axis=(0, 1))
            assert np.abs(rolled - base).max() < 1e-12

    def test_conserves_mass(self):
        # Kernel columns sum to 1 over the torus, so total mass is invariant.
        rng = np.random.default_rng(5)
        state = rng.random((20, 20))
        k = random_kernel(rng, 4)
        for conv in (shift_add_convolve, convolve):
            assert conv(state, k).sum() == pytest.approx(
                state.sum(), abs=1e-9
            )

    def test_batched_matches_single_bitwise(self):
        rng = np.random.default_rng(11)
        batch = rng.random((6, 16, 16))
        k = random_kernel(rng, 3)
        for conv in (shift_add_convolve, convolve):
            full = conv(batch, k)
            for i in range(6):
                assert np.array_equal(full[i], conv(batch[i], k))

    def test_kernel_must_fit_grid(self):
        k = delta_kernel(5)
        with pytest.raises(ValueError, match="fit"):
            convolve(np.zeros((8, 8)), k)

    @pytest.mark.parametrize(
        "make_state",
        [
            lambda rng: rng.random((40, 40)),
            lambda rng: rng.random((2, 3, 40, 40)),
            lambda rng: rng.random((4, 41, 40)),  # odd height
            lambda rng: rng.random((3, 40, 39)),  # odd width
            lambda rng: rng.random((40, 37)),  # odd width, unbatched
            lambda rng: rng.random((6, 80, 81))[::2, ::2, 1::2],  # strided
            lambda rng: rng.random((3, 39, 40)).transpose(0, 2, 1),  # transposed
        ],
        ids=["2d", "batched", "odd_height", "odd_width", "odd_width_2d",
             "strided", "transposed"],
    )
    def test_fft_bitwise_equal_to_rfft2_irfft2(self, make_state):
        rng = np.random.default_rng(77)
        state = make_state(rng)
        for k in (random_kernel(rng, 3), random_kernel(rng, 18)):
            shape = state.shape[-2:]
            spec = np.fft.rfft2(state, axes=(-2, -1)) * k.spectrum(shape)
            expected = np.fft.irfft2(spec, s=shape, axes=(-2, -1))
            got = convolve(state, k)
            assert got.shape == state.shape
            assert got.tobytes() == expected.tobytes()


class TestHelpers:
    def test_block_mean_oracle(self):
        g = np.arange(16, dtype=float).reshape(4, 4)
        out = block_mean(g, 2)
        expected = np.array([[(0 + 1 + 4 + 5) / 4, (2 + 3 + 6 + 7) / 4],
                             [(8 + 9 + 12 + 13) / 4, (10 + 11 + 14 + 15) / 4]])
        assert np.array_equal(out, expected)

    def test_block_mean_identity(self):
        g = np.random.default_rng(0).random((8, 8))
        assert np.array_equal(block_mean(g, 8), g)

    def test_block_mean_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="multiple"):
            block_mean(np.zeros((10, 10)), 3)

    def test_block_mean_batched(self):
        g = np.random.default_rng(1).random((3, 8, 8))
        out = block_mean(g, 4)
        assert out.shape == (3, 4, 4)
        assert np.array_equal(out[2], block_mean(g[2], 4))

    def test_centered_patch(self):
        state = seeded_patches(1, 16, 4, 0)[0]
        assert state.shape == (16, 16)
        patch = state[6:10, 6:10]
        assert np.all(patch > 0) and np.all(patch < 1)
        mask = np.ones((16, 16), bool)
        mask[6:10, 6:10] = False
        assert np.all(state[mask] == 0)

    def test_centered_patch_deterministic(self):
        a = seeded_patches(3, 32, 8, 42)
        b = seeded_patches(3, 32, 8, 42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("side, patch_side, p", [
        (16, 5, 5), (15, 0, 7), (16, 0, 8)])
    def test_seeded_patch_layout(self, side, patch_side, p):
        # Grid i is a centered p x p patch drawn row-major from stream
        # (seed, i); patch_side 0 means p = side // 2.
        grids = seeded_patches(3, side, patch_side, (7, 2))
        for i, grid in enumerate(grids):
            tile = substream((7, 2), i).random((p, p))
            assert np.array_equal(grid, place_centered(side, tile))

    def test_place_centered(self):
        tile = np.ones((3, 3))
        state = place_centered(9, tile)
        assert state.sum() == 9
        assert np.all(state[3:6, 3:6] == 1)

    def test_substream_independent_of_call_order(self):
        a = substream(5, 2, 7).random(4)
        _ = substream(5, 0, 0).random(4)
        b = substream(5, 2, 7).random(4)
        assert np.array_equal(a, b)

    def test_substream_accepts_composite_seed(self):
        a = substream((5, 2), 7).random(4)
        b = substream(5, 2, 7).random(4)
        assert np.array_equal(a, b)
