"""Toroidal 2D cell fields and neighborhood convolution.

States are float64 arrays of shape (..., H, W); leading axes batch
independent grids through every operation here. Convolution wraps at the
edges (torus) and is an FFT product: numpy's rfft2 and irfft2 split into
their 1-D transforms (rows, columns, spectrum product, columns, rows), so
the column passes work in place on one complex buffer. The tests check
it against an exact shift-and-add sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def radial_distances(radius: int) -> np.ndarray:
    """Euclidean distance from the center cell for a (2R+1)^2 stencil."""
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.hypot(ax[:, None], ax[None, :])


@dataclass(frozen=True)
class Kernel:
    """Normalized convolution weights on a (2R+1)x(2R+1) stencil.

    Weights are nonnegative, sum to 1, and vanish beyond radius R from the
    center; the instance caches its wrapped FFT per grid shape.
    """

    radius: int
    weights: np.ndarray

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("kernel radius must be nonnegative")
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (self.side, self.side):
            raise ValueError(
                f"expected weights of shape {(self.side, self.side)}, got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"kernel weights must sum to 1, got {w.sum()!r}")
        if np.any(w[radial_distances(self.radius) > self.radius] != 0.0):
            raise ValueError("kernel weights outside radius must be exactly 0")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_spectra", {})

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    def spectrum(self, shape: tuple[int, int]) -> np.ndarray:
        """Conjugate rfft2 of the kernel wrapped onto an (H, W) torus.

        Multiplying a state's rfft2 by this computes cross-correlation,
        i.e. the neighborhood sum with the kernel centered on each cell.
        """
        h, w = shape
        key = (h, w)
        if key not in self._spectra:
            padded = np.zeros((h, w))
            padded[: self.side, : self.side] = self.weights
            padded = np.roll(padded, (-self.radius, -self.radius), axis=(0, 1))
            self._spectra[key] = np.conj(np.fft.rfft2(padded))
        return self._spectra[key]


def check_kernel_fits(radius: int, side: int, field: str = "grid_side") -> None:
    """Reject a grid side below the kernel side 2 * radius + 1; the message
    names the setting `field` that gave the side."""
    if side < 2 * radius + 1:
        raise ValueError(f"kernel side {2 * radius + 1} does not fit {field} {side}")


def convolve(state: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Neighborhood sums n = K * A with toroidal wrap, by FFT.

    n[i, j] = sum_{u,v} K[u, v] * A[(i + u - R) mod H, (j + v - R) mod W].
    Batched over leading axes.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.ndim < 2:
        raise ValueError("state must have at least 2 dimensions")
    check_kernel_fits(kernel.radius, min(state.shape[-2:]))
    # The 1-D transforms numpy's rfft2/irfft2 run, in their order, so the
    # bits are theirs; only the buffers differ (`out=` needs numpy 2).
    spec = np.fft.rfft(state, axis=-1)
    np.fft.fft(spec, axis=-2, out=spec)
    np.multiply(spec, kernel.spectrum(state.shape[-2:]), out=spec)
    np.fft.ifft(spec, axis=-2, out=spec)
    return np.fft.irfft(spec, n=state.shape[-1], axis=-1)


def block_mean(state: np.ndarray, out_side: int) -> np.ndarray:
    """Downsample square grids to out_side x out_side by block averaging."""
    state = np.asarray(state, dtype=np.float64)
    h, w = state.shape[-2:]
    if h != w:
        raise ValueError(f"block_mean requires square grids, got {h}x{w}")
    if out_side < 1 or h % out_side != 0:
        raise ValueError(f"grid side {h} is not a multiple of {out_side}")
    f = h // out_side
    shaped = state.reshape(*state.shape[:-2], out_side, f, out_side, f)
    return shaped.mean(axis=(-3, -1))


def centered_patch_state(
    side: int, patch_side: int, rng: np.random.Generator
) -> np.ndarray:
    """Zero grid with a centered patch_side^2 patch of U(0,1) cells.

    The patch is filled row-major so the draw order is reproducible.
    """
    return place_centered(side, rng.random((patch_side, patch_side)))


def seeded_patches(count: int, side: int, patch_side: int, seed) -> np.ndarray:
    """Grids (count, side, side); grid i is a centered patch from stream (seed, i)."""
    rngs = (substream(seed, i) for i in range(count))
    return np.stack([centered_patch_state(side, patch_side, rng) for rng in rngs])


def place_centered(side: int, tile: np.ndarray) -> np.ndarray:
    """Embed a (h, w) tile at the center of a zeroed side x side grid."""
    tile = np.asarray(tile, dtype=np.float64)
    th, tw = tile.shape
    if th > side or tw > side:
        raise ValueError(f"tile {th}x{tw} does not fit grid side {side}")
    state = np.zeros((side, side))
    r0 = (side - th) // 2
    c0 = (side - tw) // 2
    state[r0 : r0 + th, c0 : c0 + tw] = tile
    return state


def seed_path(seed, *path) -> tuple[int, ...]:
    """Extend a seed (int or tuple of ints) with further path components."""
    if isinstance(seed, (tuple, list)):
        parts = tuple(int(s) for s in seed)
    else:
        parts = (int(seed),)
    return parts + tuple(int(p) for p in path)


def substream(seed, *path) -> np.random.Generator:
    """Independent RNG stream at (seed, *path); order of creation is irrelevant.

    seed may itself be a sequence of ints, so streams can be derived from
    already-derived seeds without collisions.
    """
    return np.random.default_rng(list(seed_path(seed, *path)))
