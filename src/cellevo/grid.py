"""Toroidal 2D cell fields and neighborhood convolution.

States are float64 arrays of shape (..., H, W); leading axes batch
independent grids through every operation here. Convolution wraps at the
edges (torus) and is an FFT product: numpy's rfft2 and irfft2 split into
their 1-D transforms (rows, columns, spectrum product, columns, rows), so
the column passes work in place on one complex buffer. The tests check
it against an exact shift-and-add sum. Convolution takes any weights;
`rules.build_kernel` makes every kernel the program runs.

The random starting grids of simulate, the halting datasets and metrics
all come from `seeded_patches`, which states their layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Kernel:
    """Convolution weights on a (2R+1)x(2R+1) stencil, any values.

    The weights are a read-only float64 copy; the instance caches its
    wrapped FFT per grid shape.
    """

    radius: int
    weights: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

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


def seeded_patches(count: int, side: int, patch_side: int, seed) -> np.ndarray:
    """A seeded starting batch: grids (count, side, side).

    Grid i is place_centered(side, substream(seed, i).random((p, p))) with
    p = patch_side, or side // 2 when patch_side is 0.
    """
    p = patch_side or side // 2
    return np.stack([place_centered(side, substream(seed, i).random((p, p)))
                     for i in range(count)])


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
