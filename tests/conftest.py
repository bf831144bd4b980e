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
from cellevo.patterns import ACT_NAMES, PatternFitness, _com_batch, _wrap_delta


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


LOOP_ACTIVATIONS = {
    "sine": math.sin,
    "gaussian": lambda z: math.exp(-z * z),
    "tanh": math.tanh,
    "identity": lambda z: z,
}


def loop_synthesize(layers, acts, side):
    """CPPN tile cell by cell from named layers (w1, b1, w2, b2, w3, b3) and
    (2, 12) activation indices into ACT_NAMES; zero outside the unit disc."""
    w1, b1, w2, b2, w3, b3 = layers
    tile = np.zeros((side, side))
    for i in range(side):
        for j in range(side):
            x = -1.0 + 2.0 * j / (side - 1)
            y = -1.0 + 2.0 * i / (side - 1)
            r = math.hypot(x, y)
            if r > 1.0:
                continue
            h = [x, y, r, 1.0]
            for w, b, row in ((w1, b1, acts[0]), (w2, b2, acts[1])):
                h = [
                    LOOP_ACTIVATIONS[ACT_NAMES[row[k]]](
                        sum(w[k][m] * h[m] for m in range(len(h))) + b[k]
                    )
                    for k in range(len(b))
                ]
            z = sum(w3[k] * h[k] for k in range(len(h))) + float(b3)
            tile[i, j] = 1.0 / (1.0 + math.exp(-z))
    return tile


def plain_trajectory(grids, rule, steps):
    """States 0..steps as a list of (N, H, W) arrays. Each grid is stepped
    alone by `cellevo.rules.step`, and none is ever retired."""
    paths = []
    for grid in np.asarray(grids, dtype=np.float64):
        path = [grid]
        for _ in range(steps):
            path.append(cellevo.rules.step(path[-1], rule))
        paths.append(path)
    return [np.stack(states) for states in zip(*paths)]


def reference_metrics(states, cfg):
    """`compute_metrics`' (fertility, mortality) from plain states 0..2 * window,
    grid by grid: escape is any cell outside the centered box above 0.01, and
    a grid is quiescent when its max is at most 1e-6."""
    n, h, w = states[0].shape
    outside = np.ones((h, w), dtype=bool)
    r0, c0 = (h - cfg.box_side) // 2, (w - cfg.box_side) // 2
    outside[r0 : r0 + cfg.box_side, c0 : c0 + cfg.box_side] = False
    fert, mort = [0, 0], [0, 0]
    for i in range(n):
        for k in range(2):
            window = range(k * cfg.window + 1, (k + 1) * cfg.window + 1)
            fert[k] += any((states[t][i][outside] > 0.01).any() for t in window)
            mort[k] += states[(k + 1) * cfg.window][i].max() <= 1e-6
    return (fert[0] / n, fert[1] / n), (mort[0] / n, mort[1] / n)


def reference_tile_fitness(states, cfg):
    """`evaluate_tiles`' results from plain states 0..cfg.steps, grid by grid,
    with the same formulas and the same checkpoints."""
    results = []
    for i in range(states[0].shape[0]):
        path = [s[i : i + 1] for s in states]
        com_prev = _com_batch(path[0])
        net = np.zeros((1, 2))
        survived = True
        for t in range(1, cfg.steps + 1):
            if t % cfg.stride and t != cfg.steps:
                continue
            com = _com_batch(path[t])
            net += _wrap_delta(com - com_prev, cfg.grid_side)
            com_prev = com
            survived = survived and path[t].max() > cfg.survival_threshold
        mean0 = path[0].mean(axis=(1, 2))[0]
        homeo = np.abs(path[-1].mean(axis=(1, 2))[0] - mean0) / np.maximum(mean0, 1e-12)
        motility = np.hypot(net[0, 0], net[0, 1])
        total = motility - cfg.lambda_homeo * homeo if survived else -1000.0
        results.append(PatternFitness(float(motility), float(homeo), bool(survived),
                                      float(total)))
    return results
