"""Every consumer of `rules.trajectory` against a plain `step` loop.

`trajectory` retires grids that reach exactly 0 under an absorbing rule,
and its `each` decides how a retired grid reads. Each consumer here must
give bitwise what it would give if every grid were stepped alone to the
end: `run`, `halting.generate_dataset`, `metrics.compute_metrics` and
`patterns.evaluate_tiles` (differential testing; McKeeman 1998).
"""
import math
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cellevo.halting as halting
import cellevo.metrics as metrics
from cellevo.config import HaltingFitnessConfig, MetricsConfig, PatternEvoConfig
from cellevo.grid import place_centered
from cellevo.patterns import evaluate_tiles
from cellevo.rules import GrowthBump, KernelSpec, RuleParams, run
from conftest import plain_trajectory, reference_metrics, reference_tile_fitness

KERNEL = KernelSpec(radius=3, ring_weights=(1.0,))
SIDE = 16
STEPS = 40
EVERY = 6  # frame and checkpoint stride; does not divide STEPS


@st.composite
def rules(draw):
    """A glaberish genome as `evolve-ca` squashes it, or a lenia rule whose
    growth at n = 0 is positive, so the empty state is not absorbing."""
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    if draw(st.booleans()):
        raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0, 1.5, 4)
        return halting.genome_to_rule(raw, KERNEL, dt)
    sigma = draw(st.floats(0.005, 0.3))
    # G(0) > 0 exactly when |mu| < sigma * sqrt(2 ln 2).
    mu = draw(st.floats(0.0, 0.95)) * sigma * math.sqrt(2.0 * math.log(2.0))
    return RuleParams("lenia", "lenia", KERNEL, dt, growth=GrowthBump(mu, sigma))


@st.composite
def tiles(draw):
    """Six square tiles of U(0, amplitude) cells, to be centered on a 16^2 grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = st.sampled_from([2, 4, 8, 12])
    amps = st.sampled_from([0.1, 0.5, 1.0])
    return [draw(amps) * rng.random((draw(sides),) * 2) for _ in range(6)]


def note_retirement(rule, states):
    """Record which retirement case the draw hit, for --hypothesis-show-statistics."""
    dead = np.stack([s.max(axis=(-2, -1)) == 0.0 for s in states])
    absorbing = "absorbing" if rule.zero_is_absorbing() else "not absorbing"
    revives = (np.cumsum(dead, axis=0) > 0) & ~dead
    if not dead.any():
        event(f"{absorbing}: no grid at exactly 0")
    elif revives.any():
        event(f"{absorbing}: a grid at exactly 0 revives")
    elif dead[-1].all():
        event(f"{absorbing}: every grid ends at exactly 0")
    else:
        event(f"{absorbing}: some grids at exactly 0, others live")


@settings(max_examples=60, deadline=None)
@given(rule=rules(), tiles=tiles())
def test_consumers_match_plain_step_loop(rule, tiles):
    grids = np.stack([place_centered(SIDE, t) for t in tiles])
    states = plain_trajectory(grids, rule, STEPS)
    note_retirement(rule, states)

    frames = []
    res = run(grids, rule, STEPS, every=EVERY,
              on_frame=lambda frame: frames.append(frame.copy()))
    assert np.array_equal(res.final, states[-1])
    for t in range(1, STEPS + 1):
        assert np.array_equal(res.means[t - 1], states[t].mean(axis=(-2, -1)))
        assert np.array_equal(res.maxes[t - 1], states[t].max(axis=(-2, -1)))
    shown = [*range(0, STEPS, EVERY), STEPS]
    assert len(frames) == len(shown)
    for t, frame in zip(shown, frames):
        assert np.array_equal(frame, states[t])

    # The two seeded consumers start from these grids instead of their patches.
    with mock.patch.object(halting, "seeded_patches", lambda *a: grids.copy()), \
            mock.patch.object(metrics, "seeded_patches", lambda *a: grids.copy()):
        cfg = HaltingFitnessConfig(n_grids=len(grids), grid_side=SIDE, horizon=STEPS)
        labels = halting.generate_dataset(rule, cfg, 0).labels
        mcfg = MetricsConfig(n_grids=len(grids), grid_side=SIDE, patch_side=2,
                             box_side=8, window=STEPS // 2, rule=rule)
        report = metrics.compute_metrics(mcfg, 0)
    alive = states[-1].max(axis=(-2, -1)) > halting.HALT_THRESHOLD
    assert np.array_equal(labels, alive)
    assert (report.fertility, report.mortality) == reference_metrics(states, mcfg)

    pcfg = PatternEvoConfig(grid_side=SIDE, steps=STEPS, stride=EVERY, rule=rule)
    assert evaluate_tiles(tiles, pcfg) == reference_tile_fitness(states, pcfg)
