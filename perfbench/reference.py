"""Independent reference computations used to check the program's outputs.

Nothing here calls into cellevo: the ring kernel is re-derived from the
KernelSpec formula with scalar loops, convolution is either a direct
shift-and-add sum or a complex FFT product on the torus, and the update,
center of mass and pattern fitness are re-implemented from their
definitions. Rules are plain dicts in the rule JSON format.
"""
from __future__ import annotations

import math
import re

import numpy as np

STEP_TOL = 1e-9  # program step vs reference step, absolute, per cell
RESIM_TOL = 1e-6  # re-simulated vs reported motility, relative to max(1, |m|)


class CheckFailed(Exception):
    """An output check failed; the message says which and by how much."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def ring_kernel(kernel: dict) -> np.ndarray:
    """Normalized (2R+1)^2 ring-kernel weights from the KernelSpec formula.

    Cell at relative radius r <= 1 lands in ring k = min(floor(B r), B - 1)
    at q = B r - k and weighs ring_weights[k] * core(q).
    """
    radius = int(kernel["radius"])
    rings = [float(b) for b in kernel["ring_weights"]]
    core = kernel.get("core", "lenia_shell")
    param = float(kernel.get("core_param", 4.0))
    side = 2 * radius + 1
    out = np.zeros((side, side))
    for i in range(side):
        for j in range(side):
            r = math.hypot(i - radius, j - radius) / radius
            if r > 1.0:
                continue
            u = len(rings) * r
            k = min(int(math.floor(u)), len(rings) - 1)
            q = u - k
            if core == "lenia_shell":
                value = (
                    math.exp(param * (1.0 - 0.25 / (q * (1.0 - q))))
                    if 0.0 < q < 1.0 else 0.0
                )
            else:
                value = math.exp(-0.5 * ((q - 0.5) / param) ** 2)
            out[i, j] = rings[k] * value
    return out / out.sum()


def convolve_direct(state: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """n[i, j] = sum_uv K[u, v] A[i + u - R, j + v - R] on the torus."""
    radius = weights.shape[0] // 2
    out = np.zeros_like(state)
    for u, v in zip(*np.nonzero(weights)):
        out += weights[u, v] * np.roll(
            state, (radius - u, radius - v), axis=(-2, -1)
        )
    return out


class FftConvolver:
    """The same torus sum as convolve_direct, by a complex FFT product."""

    def __init__(self, weights: np.ndarray, shape: tuple[int, int]):
        radius = weights.shape[0] // 2
        wrapped = np.zeros(shape)
        for u, v in zip(*np.nonzero(weights)):
            wrapped[(u - radius) % shape[0], (v - radius) % shape[1]] = weights[u, v]
        self.spectrum = np.conj(np.fft.fft2(wrapped))

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(state, axes=(-2, -1)) * self.spectrum).real


def growth(n, bump: dict):
    z = (n - float(bump["mu"])) / float(bump["sigma"])
    return 2.0 * np.exp(-0.5 * z * z) - 1.0


def update(state: np.ndarray, n: np.ndarray, rule: dict) -> np.ndarray:
    """clip(A + dt * delta(A, n), 0, 1) for both rule families."""
    if rule["framework"] == "lenia":
        delta = growth(n, rule["growth"])
    else:
        delta = (1.0 - state) * growth(n, rule["genesis"]) + state * growth(
            n, rule["persistence"]
        )
    return np.clip(state + float(rule["dt"]) * delta, 0.0, 1.0)


def check_step(program_step, program_rule, rule: dict, grids: np.ndarray) -> float:
    """One program step on `grids` against the direct and FFT references.

    Returns the largest absolute difference; raises CheckFailed past
    STEP_TOL or when any output cell leaves [0, 1].
    """
    weights = ring_kernel(rule["kernel"])
    direct = update(grids, convolve_direct(grids, weights), rule)
    fft = update(grids, FftConvolver(weights, grids.shape[-2:])(grids), rule)
    got = np.asarray(program_step(grids, program_rule))
    require(got.shape == grids.shape, f"step returned shape {got.shape}")
    require(got.min() >= 0.0 and got.max() <= 1.0, "step output outside [0, 1]")
    err = float(np.abs(got - direct).max())
    require(err <= STEP_TOL, f"step differs from the reference by {err:.3g}")
    err_fft = float(np.abs(fft - direct).max())
    require(err_fft <= STEP_TOL, f"FFT reference differs by {err_fft:.3g}")
    return err


def patch_grid(side: int, patch: int, seed: list[int]) -> np.ndarray:
    """Zero grid with a centered patch^2 block drawn from default_rng(seed)."""
    grid = np.zeros((side, side))
    lo = (side - patch) // 2
    grid[lo:lo + patch, lo:lo + patch] = np.random.default_rng(seed).random(
        (patch, patch)
    )
    return grid


def centered(side: int, tile: np.ndarray) -> np.ndarray:
    grid = np.zeros((side, side))
    r0 = (side - tile.shape[0]) // 2
    c0 = (side - tile.shape[1]) // 2
    grid[r0:r0 + tile.shape[0], c0:c0 + tile.shape[1]] = tile
    return grid


def circular_com(grid: np.ndarray) -> np.ndarray:
    """Wrap-aware (row, col) center of mass; grid center when empty."""
    out = []
    for axis in (1, 0):
        mass = grid.sum(axis=axis)
        length = mass.size
        angles = 2.0 * math.pi * np.arange(length) / length
        s = float(np.dot(mass, np.sin(angles)))
        c = float(np.dot(mass, np.cos(angles)))
        if grid.sum() < 1e-12 or math.hypot(s, c) < 1e-12:
            out.append(length / 2.0)
        else:
            out.append((length / (2.0 * math.pi)) * math.atan2(s, c) % length)
    return np.array(out)


def pattern_fitness(tile, rule: dict, side: int, steps: int, stride: int,
                    threshold: float, lambda_homeo: float) -> dict:
    """Simulate a centered tile for `steps` updates with no retirement.

    Motility is the norm of the summed shortest-way CoM displacements
    between checkpoints (every `stride` steps and the last step).
    """
    state = centered(side, np.asarray(tile, dtype=np.float64))
    conv = FftConvolver(ring_kernel(rule["kernel"]), state.shape)
    mean0 = state.mean()
    prev = circular_com(state)
    net = np.zeros(2)
    survived = True
    for t in range(1, steps + 1):
        state = update(state, conv(state), rule)
        if t % stride == 0 or t == steps:
            com = circular_com(state)
            net += (com - prev + side / 2.0) % side - side / 2.0
            prev = com
            survived = survived and state.max() > threshold
    motility = math.hypot(net[0], net[1])
    homeo = abs(state.mean() - mean0) / max(mean0, 1e-12)
    total = motility - lambda_homeo * homeo if survived else -1000.0
    return {"motility": motility, "survived": survived, "total": total}


def halting_labels(grids: np.ndarray, rule: dict, horizon: int) -> np.ndarray:
    """True where a grid is still active (max > 1e-6) after `horizon` steps."""
    conv = FftConvolver(ring_kernel(rule["kernel"]), grids.shape[-2:])
    state = grids
    for _ in range(horizon):
        state = update(state, conv(state), rule)
    return state.reshape(len(state), -1).max(axis=1) > 1e-6


def squash(raw) -> list[float]:
    """Genome -> (genesis mu, genesis sigma, persistence mu, persistence sigma)."""
    out = []
    for i, x in enumerate(raw):
        s = 1.0 / (1.0 + math.exp(-x))
        out.append(s if i % 2 == 0 else 0.001 + (0.3 - 0.001) * s)
    return out


def decode_pgm(data: bytes) -> np.ndarray:
    """Binary P5 PGM with maxval 255 -> (height, width) uint8 array."""
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    require(header is not None, "not an 8-bit P5 PGM")
    width, height = int(header.group(1)), int(header.group(2))
    body = data[header.end():]
    require(len(body) == width * height, "PGM body has the wrong length")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)


def quantize(grid: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(255.0 * grid + 0.5), 0, 255).astype(np.uint8)


def check_gradients(loss_and_grads, unpack, flat, x, y, coords,
                    eps: float = 1e-5, tol: float = 1e-4) -> float:
    """Central differences of the loss against the analytic gradient."""
    _, grads = loss_and_grads(unpack(flat), x, y)
    worst = 0.0
    for idx in coords:
        bumped = flat.copy()
        bumped[idx] += eps
        up, _ = loss_and_grads(unpack(bumped), x, y)
        bumped[idx] -= 2 * eps
        down, _ = loss_and_grads(unpack(bumped), x, y)
        fd = (up - down) / (2 * eps)
        # Below |g| = 1e-6 the error is judged in absolute terms (1e-10).
        rel = abs(grads[idx] - fd) / max(abs(grads[idx]), abs(fd), 1e-6)
        worst = max(worst, float(rel))
    require(worst < tol, f"gradient check: relative error {worst:.3g}")
    return worst
