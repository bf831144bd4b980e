"""Shared reference implementations ("oracles") kept deliberately naive.

These are straight transcriptions of the defining formulas using scalar
Python loops and math.*, independent of the vectorized library code they
check. Slow on purpose; keep sizes small when calling them. The
shift-and-add convolution is the exception: whole-array rolls, exact to
rounding, and fast enough for `step` to run on through the `shift_add`
fixture.
"""
import math

import numpy as np
import pytest

import cellevo.rules


def shift_add_convolve(state, kernel):
    """Toroidal neighborhood sums of a `Kernel`, one np.roll per nonzero weight."""
    state = np.asarray(state, dtype=np.float64)
    out = np.zeros_like(state)
    r = kernel.radius
    for u in range(kernel.side):
        for v in range(kernel.side):
            wgt = kernel.weights[u, v]
            if wgt == 0.0:
                continue
            out += wgt * np.roll(state, (-(u - r), -(v - r)), axis=(-2, -1))
    return out


@pytest.fixture
def shift_add(monkeypatch):
    """Make `cellevo.rules.step` convolve by shift-and-add for the rest of the test.

    `step` looks `convolve` up in `cellevo.rules`, so that is the name
    patched. The test fails at teardown if the oracle was never called, so
    a renamed binding cannot turn an oracle comparison into FFT against FFT.
    """
    calls = 0

    def oracle(state, kernel):
        nonlocal calls
        calls += 1
        return shift_add_convolve(state, kernel)

    monkeypatch.setattr(cellevo.rules, "convolve", oracle)
    yield
    if not calls:
        pytest.fail("the shift-and-add oracle was never called")


@pytest.fixture(params=["fft", "direct"])
def convolution(request):
    """Run the test on the library's FFT, then on the shift-and-add oracle."""
    if request.param == "direct":
        request.getfixturevalue("shift_add")
    return request.param


def loop_convolve(state, weights, radius):
    """Toroidal cross-correlation via quadruple loop with explicit mod indexing."""
    h, w = state.shape
    side = 2 * radius + 1
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(side):
                for v in range(side):
                    acc += weights[u][v] * state[(i + u - radius) % h, (j + v - radius) % w]
            out[i, j] = acc
    return out


def loop_growth(n, mu, sigma):
    return 2.0 * math.exp(-((n - mu) ** 2) / (2.0 * sigma * sigma)) - 1.0


def loop_lenia_step(state, weights, radius, mu, sigma, dt):
    """Single-growth update, scalar arithmetic end to end."""
    n = loop_convolve(state, weights, radius)
    h, w = state.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            x = state[i, j] + dt * loop_growth(n[i, j], mu, sigma)
            out[i, j] = min(1.0, max(0.0, x))
    return out


def loop_glaberish_step(state, weights, radius, gen, per, dt):
    """Gated update; gen and per are (mu, sigma) pairs."""
    n = loop_convolve(state, weights, radius)
    h, w = state.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            a = state[i, j]
            delta = (1.0 - a) * loop_growth(n[i, j], *gen) + a * loop_growth(n[i, j], *per)
            x = a + dt * delta
            out[i, j] = min(1.0, max(0.0, x))
    return out


def loop_ring_kernel(radius, ring_weights, core, core_param):
    """Scalar re-derivation of the ring kernel, including normalization."""
    side = 2 * radius + 1
    raw = np.zeros((side, side))
    nrings = len(ring_weights)
    for i in range(side):
        for j in range(side):
            d = math.hypot(i - radius, j - radius)
            r = d / radius
            if r > 1.0:
                continue
            u = nrings * r
            k = min(int(math.floor(u)), nrings - 1)
            q = u - k
            if core == "lenia_shell":
                if q <= 0.0 or q >= 1.0:
                    c = 0.0
                else:
                    c = math.exp(core_param * (1.0 - 1.0 / (4.0 * q * (1.0 - q))))
            elif core == "gaussian_ring":
                c = math.exp(-((q - 0.5) ** 2) / (2.0 * core_param**2))
            else:
                raise ValueError(core)
            raw[i, j] = ring_weights[k] * c
    return raw / raw.sum()


def loop_center_of_mass(grid):
    """Wrap-aware centroid via circular means, one axis at a time."""
    h, w = grid.shape
    total = grid.sum()
    if total < 1e-12:
        return (h / 2.0, w / 2.0)

    def one_axis(mass, n):
        s = sum(m * math.sin(2.0 * math.pi * i / n) for i, m in enumerate(mass))
        c = sum(m * math.cos(2.0 * math.pi * i / n) for i, m in enumerate(mass))
        if math.hypot(s, c) < 1e-12:
            return n / 2.0
        return (n / (2.0 * math.pi)) * math.atan2(s, c) % n

    return (one_axis(grid.sum(axis=1), h), one_axis(grid.sum(axis=0), w))
